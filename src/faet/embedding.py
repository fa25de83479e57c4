"""Embedding layer: text token vectors plus context-mixed emoji vectors.

Each emoji owns two trainable sense vectors (one leaning positive contexts,
one negative).  At use sites the two senses are mixed by additive attention
against the document context, yielding one vector per emoji position.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Value
from .corpus import CorpusError, PAD_ID, Vocab, naming_file, utf8_lines


class TextEncoder:
    """Trainable token lookup table.

    The PAD row starts at zero.  Padding never reaches `embed`: the model
    embeds only the true (unpadded) prefix of each document and pads its
    sequences from a constant zero row.
    """

    def __init__(self, dim: int, vocab_size: int, rng: np.random.Generator):
        init = rng.uniform(-0.1, 0.1, size=(vocab_size, dim))
        init[PAD_ID] = 0.0
        self.table = ag.param(init)

    def parameters(self) -> dict[str, Value]:
        return {"text_embed": self.table}

    def embed(self, token_ids) -> Value:
        """(n,) token ids -> (n, dim) table rows."""
        return ag.take_rows(self.table, np.asarray(token_ids, dtype=np.int64))


class BisenseEmojiEmbedding:
    """Two sense vectors per emoji, mixed by additive attention on context.

    For emoji position t with context vector w: score each sense s_i via
    v . tanh(W @ [e_i ; w]), softmax over the two senses, and return the
    convex combination of the sense vectors.
    """

    def __init__(self, n_emoji: int, dim: int, rng: np.random.Generator):
        self.n_emoji = n_emoji
        self.dim = dim
        self.sense_pos = ag.param(rng.uniform(-0.1, 0.1, size=(n_emoji, dim)))
        self.sense_neg = ag.param(rng.uniform(-0.1, 0.1, size=(n_emoji, dim)))
        scale = 1.0 / np.sqrt(2 * dim)
        # attention projection stored input-major: [e ; w] @ att_w -> (dim,)
        self.att_w = ag.param(rng.uniform(-scale, scale, size=(2 * dim, dim)))
        self.att_v = ag.param(rng.uniform(-scale, scale, size=dim))

    def parameters(self) -> dict[str, Value]:
        return {"emoji_sense_pos": self.sense_pos,
                "emoji_sense_neg": self.sense_neg,
                "sense_att_w": self.att_w,
                "sense_att_v": self.att_v}

    def mix(self, emoji_ids, context: Value) -> tuple[Value, Value]:
        """(m,) emoji ids + (m, dim) per-emoji contexts (or one (dim,)
        context for all) -> ((m, dim) mixed vectors, (m, 2) sense
        attention weights)."""
        emoji_ids = np.asarray(emoji_ids, dtype=np.int64)
        if emoji_ids.size and emoji_ids.max() >= self.n_emoji:
            raise CorpusError(
                f"emoji id {emoji_ids.max()} outside closed vocabulary "
                f"of {self.n_emoji}")
        m = len(emoji_ids)
        e_pos = ag.take_rows(self.sense_pos, emoji_ids)  # (m, dim)
        e_neg = ag.take_rows(self.sense_neg, emoji_ids)
        # [e ; w] @ att_w = e @ att_w[:dim] + w @ att_w[dim:]: the context
        # block is projected once and shared by both senses
        w_emoji = ag.narrow(self.att_w, 0, 0, self.dim)
        ctx = ag.matmul(context, ag.narrow(self.att_w, 0, self.dim, self.dim))
        score_pos = ag.matmul(
            ag.tanh(ag.add(ag.matmul(e_pos, w_emoji), ctx)), self.att_v)  # (m,)
        score_neg = ag.matmul(
            ag.tanh(ag.add(ag.matmul(e_neg, w_emoji), ctx)), self.att_v)
        scores = ag.concat([ag.reshape(score_pos, (m, 1)),
                            ag.reshape(score_neg, (m, 1))], axis=1)
        weights = ag.softmax(scores, axis=1)  # (m, 2)
        mixed = ag.add(ag.mul(ag.narrow(weights, 1, 0, 1), e_pos),
                       ag.mul(ag.narrow(weights, 1, 1, 1), e_neg))
        return mixed, weights


def load_pretrained_emoji_vectors(path: str, table: BisenseEmojiEmbedding,
                                  vocab: Vocab) -> dict[str, int]:
    """Initialize sense vectors from a word2vec-style text file.

    Format: header "count dim", then "token v1 ... v_dim" per line, where
    `count` is the number of non-blank vector lines.  Tokens suffixed
    "_pos"/"_neg" initialize one sense; bare tokens set both senses to the
    same vector.  Entries not in the emoji vocabulary are counted and
    skipped.  A wrong count, a sense given twice, or a `nan` or `inf`
    value is a `CorpusError` naming the file and the line; the table
    changes only when the whole file is valid.
    """
    with open(path, "rb") as fh, naming_file(path):
        lines = utf8_lines(fh)
        header = next(lines, (1, ""))[1].split()
        if len(header) != 2:
            raise CorpusError("header must be 'count dim'", 1)
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise CorpusError(f"bad header: {exc}", 1) from exc
        if dim != table.dim:
            raise CorpusError(
                f"file dimension {dim} != configured dimension {table.dim}", 1)
        vectors: dict[tuple[str, str], tuple[int, np.ndarray]] = {}
        loaded = ignored = 0
        for i, line in lines:
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise CorpusError(
                    f"expected token + {dim} values, got {len(parts)} fields", i)
            token = parts[0]
            try:
                vec = np.array([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise CorpusError(f"bad number: {exc}", i) from exc
            if not np.isfinite(vec).all():
                raise CorpusError("non-finite vector value", i)
            base, senses = token, ("pos", "neg")
            if token.endswith(("_pos", "_neg")):
                base, senses = token[:-4], (token[-3:],)
            for sense in senses:
                if (base, sense) in vectors:
                    raise CorpusError(
                        f"{sense} sense of {base!r} already set on line "
                        f"{vectors[base, sense][0]}", i)
                vectors[base, sense] = i, vec
            if base in vocab.emoji_to_id:
                loaded += 1
            else:
                ignored += 1
        if loaded + ignored != count:
            raise CorpusError(f"header count {count} != {loaded + ignored} "
                              "vector lines", 1)
    for (base, sense), (_, vec) in vectors.items():
        if base in vocab.emoji_to_id:
            target = table.sense_pos if sense == "pos" else table.sense_neg
            target.data[vocab.emoji_to_id[base]] = vec
    return {"loaded": loaded, "ignored": ignored}
