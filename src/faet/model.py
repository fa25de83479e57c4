"""Full model assembly: embedding -> BiLSTM -> attention -> TextCNN.

Embedding, the BiLSTM, attention and the TextCNN head each run once per
batch over zero-padded sequences with per-row lengths; the losses run per
document on each document's unpadded slices, and batches average
per-document losses.  The "fine" variant runs the word-level
cross-attention; the "coarse" ablation variant replaces it with one pooled
attention over emojis, keeping the classifier input width identical (6d
per position) so head capacity stays comparable.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from .attention import (
    CoarseAttentionParams, FineAttentionParams, coarse_attention,
    fine_attention, sentence_mean,
)
from .autograd import Value
from .classifier import TextCnnParams, predict_label, textcnn_forward_batch
from .corpus import Vocab
from .embedding import BisenseEmojiEmbedding, TextEncoder
from .encoder import LstmParams, bilstm_encode_batch
from .objective import alignment_loss, cross_entropy, total_loss

VARIANTS = ("fine", "coarse")
# `Model.score` sorts by length within windows of this many chunks.  The
# encoder outputs (B, L, 2d) that 4 buffered chunks keep alive are about
# the size of one chunk's own gate buffer (2, L, B, 4d), so scoring memory
# stays bounded by the window, not by the input.
SCORE_WINDOW_CHUNKS = 4


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class _NoDraw:
    """Stands in for a seeded generator in a draw-free build: `uniform`
    returns an uninitialized array of the requested shape."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


@dataclass
class TrainConfig:
    """Model and training hyperparameters.

    Defaults follow the reference setup where one exists: hidden size 200,
    dropout 0.2, batch size 64, 10 epochs, max text length 100, Adam at
    5e-4.  The rest (embedding dim, filter counts, alignment weight) are
    this artifact's own knobs.
    """

    d: int = 200
    d_w: int = 200
    n_filters: int = 64
    widths: tuple = (2, 3, 4)
    dropout: float = 0.2
    batch_size: int = 64
    epochs: int = 10
    max_len: int = 100
    lr: float = 5e-4
    lambda_align: float = 0.1
    label_smoothing: float = 0.0
    seed: int = 0
    variant: str = "fine"
    min_count: int = 1

    def __post_init__(self):
        self.widths = tuple(self.widths)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for name in ("d", "d_w", "n_filters", "batch_size", "epochs", "max_len",
                     "min_count", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(_is_integer(w) for w in self.widths):
            raise ValueError(f"widths must be integers, got {self.widths}")
        for name in ("d", "d_w", "n_filters", "batch_size", "epochs", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")
        # written as negations so that NaN fails too; lr = 0 is a frozen run
        for name, high in (("lr", np.inf), ("lambda_align", np.inf),
                           ("dropout", 1), ("label_smoothing", 1)):
            if not 0 <= getattr(self, name) < high:
                raise ValueError(
                    f"{name} must lie in [0, {high}), got {getattr(self, name)}")

    def to_json_dict(self) -> dict:
        obj = asdict(self)
        obj["widths"] = list(self.widths)
        return obj

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TrainConfig":
        """Build from a JSON object, dropping keys that are not fields
        (checkpoints may carry fields since retired)."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in obj.items() if k in known})


@dataclass
class DocOutputs:
    """One document's slices of a batched forward pass."""

    text_states: Value                       # (n, 2d)
    probs: Value                             # (2,)
    word_emoji_weights: Value | None         # (n, m), fine variant only
    explain: dict                            # name -> per-document array

    def prediction(self, explain: bool = False) -> dict:
        """Probabilities and label; with `explain`, the attention dumps."""
        result = {"probs": self.probs.data.tolist(),
                  "label": predict_label(self.probs)}
        if explain:
            result["explain"] = {name: values.tolist()
                                 for name, values in self.explain.items()}
        return result


class Model:
    """One trained classifier instance (either variant) plus its vocab."""

    def __init__(self, config: TrainConfig, vocab: Vocab):
        seeds = np.random.SeedSequence([config.seed, 0]).spawn(6)
        self._build(config, vocab, [np.random.default_rng(s) for s in seeds])

    @classmethod
    def blank(cls, config: TrainConfig, vocab: Vocab) -> "Model":
        """A model of `config`'s shapes built without drawing a random
        number.  Its parameter values are unspecified: the caller must
        overwrite every parameter before the model is used."""
        model = cls.__new__(cls)
        with np.errstate(all="ignore"):  # arithmetic on placeholder values
            model._build(config, vocab, [_NoDraw] * 6)
        return model

    @classmethod
    def from_state(cls, config: TrainConfig, vocab: Vocab,
                   state: dict[str, np.ndarray]) -> "Model":
        """A model whose parameters are the arrays of `state` themselves
        (no copy, no random draw); names, shapes and dtypes must match
        what `config` builds."""
        model = cls.blank(config, vocab)
        params = model.parameters()
        if set(state) != set(params):
            mismatched = set(params) ^ set(state)
            raise ValueError(
                f"state names do not match model: {sorted(mismatched)}")
        for name, arr in state.items():
            if params[name].data.shape != arr.shape:
                raise ValueError(
                    f"state shape {arr.shape} != model shape "
                    f"{params[name].data.shape} for {name!r}")
            if arr.dtype != np.float64:
                raise ValueError(
                    f"state dtype {arr.dtype} is not float64 for {name!r}")
            params[name].data = arr
        return model

    def _build(self, config: TrainConfig, vocab: Vocab, rngs: list) -> None:
        """Create every parameter container, each drawing its initial
        values from its own one of the six `rngs`."""
        if vocab.n_emoji < 1:
            raise ValueError("emoji vocabulary is empty")
        self.config = config
        self.vocab = vocab
        self.text_encoder = TextEncoder(config.d_w, vocab.n_text, rngs[0])
        self.emoji_table = BisenseEmojiEmbedding(vocab.n_emoji, config.d_w,
                                                 rngs[1])
        self.lstm_fwd = LstmParams(config.d, config.d_w, rngs[2])
        self.lstm_bwd = LstmParams(config.d, config.d_w, rngs[3])

        hidden = 2 * config.d
        self.fine_params = None
        self.coarse_params = None
        if config.variant == "fine":
            self.fine_params = FineAttentionParams(hidden, rngs[4])
        else:
            self.coarse_params = CoarseAttentionParams(hidden, rngs[4])
        # per-position classifier input: [H_t ; 4d summary] either way
        self.cnn = TextCnnParams(hidden + 2 * hidden, config.n_filters,
                                 rngs[5], widths=config.widths)

    def parameters(self) -> dict[str, Value]:
        params: dict[str, Value] = {}
        params.update(self.text_encoder.parameters())
        params.update(self.emoji_table.parameters())
        params.update(self.lstm_fwd.parameters("lstm_fwd"))
        params.update(self.lstm_bwd.parameters("lstm_bwd"))
        if self.fine_params is not None:
            params.update(self.fine_params.parameters())
        if self.coarse_params is not None:
            params.update(self.coarse_params.parameters())
        params.update(self.cnn.parameters())
        return params

    def state(self) -> dict[str, np.ndarray]:
        return {k: p.data.copy() for k, p in self.parameters().items()}

    def forward_docs(self, docs: list[tuple], train: bool = False,
                     dropout_rng: np.random.Generator | None = None
                     ) -> list[DocOutputs]:
        """Forward a list of (text_ids, emoji_ids) documents.

        Ids are unpadded; this is the one place that pads.  Every layer
        runs once over the list, padded to its longest [text ; emoji]
        sequence; each document's outputs are slices of the batch.
        """
        cfg = self.config
        drop = cfg.dropout if (train and dropout_rng is not None) else 0.0
        n = np.array([len(t) for t, _ in docs])
        m = np.array([len(e) for _, e in docs])
        lengths, rows = n + m, np.arange(len(docs))
        text = np.concatenate([t for t, _ in docs]).astype(np.int64)
        emoji = np.concatenate([e for _, e in docs]).astype(np.int64)

        embedded = self.text_encoder.embed(text)                  # (N, d_w)
        averager = np.zeros((len(docs), len(text)))
        averager[np.repeat(rows, n), np.arange(len(text))] = \
            1.0 / np.repeat(n, n)
        context = ag.matmul(ag.constant(averager), embedded)      # (B, d_w)
        mixed, senses = self.emoji_table.mix(
            emoji, ag.take_rows(context, np.repeat(rows, m)))
        # row b of the padded batch: its text rows, its emoji rows, then a
        # constant zero row, so padding never reads a trainable table
        length = int(lengths.max())
        pos = np.arange(length)
        index = np.where(
            pos < n[:, None], (np.cumsum(n) - n)[:, None] + pos,
            np.where(pos < lengths[:, None],
                     (len(text) + np.cumsum(m) - m - n)[:, None] + pos,
                     len(text) + len(emoji)))
        seq = ag.take_rows(ag.concat(
            [embedded, mixed, ag.constant(np.zeros((1, cfg.d_w)))]), index)
        seq = ag.dropout(seq, drop, dropout_rng)   # rate 0: seq itself
        encoded = bilstm_encode_batch(seq, self.lstm_fwd, self.lstm_bwd,
                                      lengths)                    # (B, L, 2d)
        states = ag.reshape(encoded, (len(docs) * length, -1))

        # (B, n, 2d) text and (B, m >= 1, 2d) emoji states; emoji padding
        # re-reads a state of its own row, and attention masks it out
        n_max, m_max = int(n.max()), max(1, int(m.max()))
        text_states = ag.narrow(encoded, 1, 0, n_max)
        emoji_states = ag.take_rows(states, rows[:, None] * length + np.minimum(
            n[:, None] + np.arange(m_max), length - 1))
        if self.fine_params is not None:
            att = fine_attention(text_states, emoji_states, self.fine_params,
                                 n, m)
            summary = att.fused
            word_emoji = ag.reshape(att.word_emoji_weights,
                                    (len(docs) * n_max, m_max))
        else:
            context, coarse_weights = coarse_attention(
                text_states, emoji_states, self.coarse_params, n, m)
            summary = ag.concat([sentence_mean(text_states, n), context],
                                axis=1)
        summary = ag.dropout(summary, drop, dropout_rng)          # (B, 4d)
        probs, _ = textcnn_forward_batch(encoded, summary, self.cnn, drop,
                                         dropout_rng, lengths)
        probs = ag.reshape(probs, (2 * len(docs),))

        outputs = []
        senses = np.split(senses.data, np.cumsum(m)[:-1])
        for b, (n_b, m_b) in enumerate(zip(n, m)):
            explain = {"sense_weights": senses[b]} if m_b else {}
            if self.fine_params is not None:
                explain.update(
                    interaction=att.interaction.data[b, :n_b, :m_b],
                    emoji_weights=att.emoji_weights.data[b, :m_b],
                    text_weights=att.text_weights.data[b, :n_b],
                    word_emoji_weights=att.word_emoji_weights.data[b, :n_b, :m_b])
                beta = ag.narrow(ag.narrow(word_emoji, 0, b * n_max, n_b),
                                 1, 0, m_b)
            else:
                explain["coarse_weights"] = coarse_weights.data[b, :m_b]
                beta = None
            outputs.append(DocOutputs(ag.narrow(states, 0, b * length, n_b),
                                      ag.narrow(probs, 0, 2 * b, 2),
                                      beta, explain))
        return outputs

    def score(self, docs: list[tuple], chunk: int = 64):
        """Yield each document's outputs from no-grad `forward_docs` passes,
        in input order.  Every scoring caller (evaluation, prediction,
        ablation) goes through here.

        Each window of `SCORE_WINDOW_CHUNKS * chunk` documents is stably
        sorted by length [text ; emoji] and cut into consecutive groups of
        `chunk`, so a group pads only to its own longest document; each
        group reaches `forward_docs` in input order.  An input of at most
        `chunk` documents is therefore one pass over the list as given.
        """
        window = SCORE_WINDOW_CHUNKS * chunk
        for start in range(0, len(docs), window):
            part = docs[start:start + window]
            order = sorted(range(len(part)),
                           key=lambda i: len(part[i][0]) + len(part[i][1]))
            outputs = [None] * len(part)
            for first in range(0, len(part), chunk):
                group = sorted(order[first:first + chunk])
                with ag.no_grad():
                    results = self.forward_docs([part[i] for i in group])
                for i, out in zip(group, results):
                    outputs[i] = out
            yield from outputs

    def doc_losses(self, outputs: DocOutputs, label: int) -> tuple[Value, Value]:
        """(cross-entropy, alignment) for one document's outputs."""
        ce = cross_entropy(outputs.probs, label, self.config.label_smoothing)
        if outputs.word_emoji_weights is None:
            return ce, ag.constant(0.0)
        return ce, alignment_loss(outputs.word_emoji_weights,
                                  outputs.text_states,
                                  self.fine_params.distance_w)

    def batch_loss(self, batch, train: bool = False,
                   dropout_rng: np.random.Generator | None = None) -> Value:
        """Mean cross-entropy plus weighted mean alignment over a batch."""
        outputs = self.forward_docs(batch.rows, train=train,
                                    dropout_rng=dropout_rng)
        losses = [self.doc_losses(out, label)
                  for out, label in zip(outputs, batch.labels)]
        ce_terms, align_terms = zip(*losses)
        inv = 1.0 / len(batch)
        ce_mean = sum(ce_terms[1:], ce_terms[0]) * inv
        align_mean = sum(align_terms[1:], align_terms[0]) * inv
        return total_loss(ce_mean, align_mean, self.config.lambda_align)

    def predict_doc(self, text_ids, emoji_ids, explain: bool = False) -> dict:
        """Inference on one document; with `explain`, attach attention dumps."""
        (out,) = self.score([(text_ids, emoji_ids)])
        return out.prediction(explain)
