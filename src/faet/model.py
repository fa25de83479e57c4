"""Full model assembly: embedding -> BiLSTM -> attention -> TextCNN.

Embedding, the BiLSTM, attention, the TextCNN head and the cross-entropy
on its logits run once per batch over zero-padded sequences with per-row
lengths; scoring softmaxes the logits outside the graph.  Only the
alignment term runs per row, as one fused node on the unpadded slices of
each row that has two words and two emojis.  The "fine" variant runs the
word-level cross-attention; the "coarse" ablation variant replaces it
with one pooled attention over emojis, keeping the classifier input width
identical (6d per position) so head capacity stays comparable.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable, Sequence
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
from .objective import alignment_loss, cross_entropy

VARIANTS = ("fine", "coarse")
# `Model.score` runs this many documents per pass, sorted by length within
# windows of `SCORE_WINDOW_CHUNKS` chunks.  The rows `Model.predictions`
# buffers until every earlier document is out keep no chunk's batch arrays
# alive, only their probabilities and any asked-for dumps as lists, so
# scoring memory stays bounded by the window, not by the input.
SCORE_CHUNK = 64
SCORE_WINDOW_CHUNKS = 4


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class NonFiniteScoreError(ArithmeticError):
    """Scoring gave a document a probability that is NaN or infinite."""


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
        if not isinstance(self.widths, Sequence):
            raise ValueError(
                f"widths must be a sequence of integers, got {self.widths!r}")
        self.widths = tuple(self.widths)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for name in ("d", "d_w", "n_filters", "batch_size", "epochs", "max_len",
                     "min_count", "seed"):
            value, low = getattr(self, name), 0 if name == "seed" else 1
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")
        for name in ("lr", "lambda_align", "dropout", "label_smoothing"):
            if not _is_real(getattr(self, name)):
                raise ValueError(
                    f"{name} must be a real number, got "
                    f"{getattr(self, name)!r}")
        if not all(_is_integer(w) for w in self.widths):
            raise ValueError(f"widths must be integers, got {self.widths}")
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
        """Build from a JSON object; a key that is not a field is a
        `ValueError` naming it."""
        unknown = sorted(set(obj) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**obj)


@dataclass
class BatchOutputs:
    """One forward pass over B documents: row b of each array is document
    b, padded past its n[b] words and m[b] emojis."""

    logits: Value                        # (B, 2)
    probs: np.ndarray                    # (B, 2), softmaxed logits
    text_states: Value                   # (B, n, 2d)
    word_emoji_weights: Value | None     # (B, n, m), fine variant only
    n: np.ndarray                        # (B,) words per row
    m: np.ndarray                        # (B,) emojis per row
    explain: Callable[[int], dict]       # row b -> its dumps, as lists


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
        model._build(config, vocab, [None] * 6)
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
        values from its own one of the six `rngs` (None: draw nothing)."""
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
        self.cnn = TextCnnParams(hidden, 2 * hidden, config.n_filters,
                                 rngs[5], config.widths)

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

    def forward_docs(self, docs: list[tuple],
                     dropout_rng: np.random.Generator | None = None
                     ) -> BatchOutputs:
        """Forward a list of (text_ids, emoji_ids) documents, with dropout
        drawn from `dropout_rng` when one is given (training).

        Ids are unpadded; this is the one place that pads.  Every layer
        runs once over the list, padded to its longest [text ; emoji]
        sequence, into one `BatchOutputs`; its `explain(b)` slices row b's
        attention dumps off the batch only when called.  A document without
        text ids is a `ValueError` naming its index.
        """
        cfg = self.config
        n = np.array([len(t) for t, _ in docs])
        if not n.all():
            raise ValueError(f"document {int(np.argmin(n))} has no text ids")
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
        seq = ag.dropout(seq, cfg.dropout, dropout_rng)  # no rng: seq itself
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
            summary, word_emoji = att.fused, att.word_emoji_weights
        else:
            context, coarse_weights = coarse_attention(
                text_states, emoji_states, self.coarse_params, n, m)
            summary = ag.concat([sentence_mean(text_states, n), context],
                                axis=1)
            word_emoji = None
        summary = ag.dropout(summary, cfg.dropout, dropout_rng)   # (B, 4d)
        logits = textcnn_forward_batch(encoded, summary, self.cnn, lengths,
                                       cfg.dropout, dropout_rng)

        def explain(b: int) -> dict:
            n_b, m_b, first = n[b], m[b], m[:b].sum()
            dumps = ({"sense_weights": senses.data[first:first + m_b]}
                     if m_b else {})
            if word_emoji is not None:
                dumps.update(
                    interaction=att.interaction.data[b, :n_b, :m_b],
                    emoji_weights=att.emoji_weights[b, :m_b],
                    text_weights=att.text_weights[b, :n_b],
                    word_emoji_weights=word_emoji.data[b, :n_b, :m_b])
            else:
                dumps["coarse_weights"] = coarse_weights.data[b, :m_b]
            return {name: values.tolist() for name, values in dumps.items()}
        return BatchOutputs(logits, ag.softmax_array(logits.data, 1),
                            text_states, word_emoji, n, m, explain)

    def score(self, docs: list[tuple]):
        """Yield (positions, outputs) per no-grad `forward_docs` pass: row k
        of `outputs` is document `positions[k]`.  Every scoring caller
        (evaluation, prediction, validation, ablation) goes through here.

        Each window of `SCORE_WINDOW_CHUNKS * SCORE_CHUNK` documents is
        stably sorted by length [text ; emoji] and cut into consecutive
        groups of `SCORE_CHUNK`, so a group pads only to its own longest
        document; each group reaches `forward_docs` in input order.  An
        input of at most `SCORE_CHUNK` documents is therefore one pass over
        the list as given.  A document without text ids is a `ValueError`
        naming its input position, before any pass.  A NaN or infinite
        probability is a `NonFiniteScoreError` naming the input position of
        the pass's first such document (numpy's warnings on the way are
        silenced: the error reports them).
        """
        for position, (text_ids, _) in enumerate(docs):
            if not len(text_ids):
                raise ValueError(f"document {position} has no text ids")
        window = SCORE_WINDOW_CHUNKS * SCORE_CHUNK
        for start in range(0, len(docs), window):
            order = sorted(range(start, min(start + window, len(docs))),
                           key=lambda i: len(docs[i][0]) + len(docs[i][1]))
            for first in range(0, len(order), SCORE_CHUNK):
                group = sorted(order[first:first + SCORE_CHUNK])
                with ag.no_grad(), np.errstate(all="ignore"):
                    outputs = self.forward_docs([docs[i] for i in group])
                finite = np.isfinite(outputs.probs).all(axis=1)
                if not finite.all():
                    bad = int(np.argmin(finite))
                    raise NonFiniteScoreError(
                        f"document {group[bad]}: non-finite probabilities "
                        f"{outputs.probs[bad].tolist()}")
                yield group, outputs

    def predictions(self, docs: list[tuple], explain: bool):
        """Yield each document's probabilities, label and, with `explain`,
        attention dumps, in input order, once every earlier one is scored."""
        done, position = {}, 0
        for group, outputs in self.score(docs):
            for b, i in enumerate(group):
                probs = outputs.probs[b]
                done[i] = {"probs": probs.tolist(),
                           "label": predict_label(probs)}
                if explain:
                    done[i]["explain"] = outputs.explain(b)
            while position in done:
                yield done.pop(position)
                position += 1

    def doc_losses(self, outputs: BatchOutputs, labels) -> tuple[Value, Value]:
        """(cross-entropy, alignment) of a batch against its `labels`, each
        summed over the rows.  Alignment runs on the unpadded slices of each
        row with at least 2 words and 2 emojis; it is 0 on every other row."""
        ce = cross_entropy(outputs.logits, labels, self.config.label_smoothing)
        align = ag.constant(0.0)
        rows = np.flatnonzero((outputs.n >= 2) & (outputs.m >= 2))
        if outputs.word_emoji_weights is None or not rows.size:
            return ce, align
        batch, n_max, m_max = outputs.word_emoji_weights.shape
        beta = ag.reshape(outputs.word_emoji_weights, (batch * n_max, m_max))
        text = ag.reshape(outputs.text_states, (batch * n_max, -1))
        for b, n, m in zip(rows, outputs.n[rows], outputs.m[rows]):
            align = ag.add(align, alignment_loss(
                ag.narrow(ag.narrow(beta, 0, b * n_max, n), 1, 0, m),
                ag.narrow(text, 0, b * n_max, n), self.fine_params.distance_w))
        return ce, align

    def batch_loss(self, batch,
                   dropout_rng: np.random.Generator | None = None) -> Value:
        """Mean cross-entropy plus weighted mean alignment over a batch,
        with dropout drawn from `dropout_rng` when one is given."""
        outputs = self.forward_docs(batch.rows, dropout_rng=dropout_rng)
        ce, align = self.doc_losses(outputs, batch.labels)
        inv = 1.0 / len(batch)
        return ag.add(ag.mul(ce, inv),
                      ag.mul(ag.mul(align, inv), self.config.lambda_align))

    def predict_doc(self, text_ids, emoji_ids) -> dict:
        """Inference on one document: probabilities and label."""
        return next(self.predictions([(text_ids, emoji_ids)], False))
