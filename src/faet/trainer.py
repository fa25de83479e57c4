"""Training loop, evaluation metrics, and the fine-vs-coarse harness."""

from __future__ import annotations

import dataclasses
import gc
import json
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import finite_difference_check
from .classifier import predict_label
from .corpus import (CorpusError, TokenizedDoc, Vocab, build_vocab,
                     encode_doc, make_batches)
from .model import VARIANTS, Model, TrainConfig
from .optim import Adam

# Published aggregate metrics for both variants on the private reference
# corpus.  Reference only: the corpus is unavailable, so these are reported
# alongside local results and never asserted against.
PUBLISHED_REFERENCE = {
    "fine_grained": {"accuracy": 0.852, "precision": 0.855, "recall": 0.856},
    "coarse_grained": {"accuracy": 0.842, "precision": 0.840, "recall": 0.845},
    "note": ("published results on a private microblog corpus with a "
             "pretrained transformer text encoder; reference only, not a "
             "reproduction target"),
}


# `ablate` lists this many test documents' predictions per variant.
ABLATE_EXAMPLES = 12


class NanLossError(ArithmeticError):
    """Training produced a non-finite loss."""


@dataclass
class MetricsReport:
    """Confusion counts plus per-class, macro, and micro aggregates.

    The positive class is label 1.  Zero-denominator metrics report 0.0 and
    are listed in `zero_division`.  For single-label binary classification
    over both classes, micro precision == micro recall == accuracy.
    """

    counts: dict
    accuracy: float
    per_class: dict
    macro: dict
    micro: dict
    zero_division: list
    n: int

    def to_dict(self) -> dict:
        return {"counts": self.counts, "accuracy": self.accuracy,
                "per_class": {str(k): v for k, v in self.per_class.items()},
                "macro": self.macro, "micro": self.micro,
                "zero_division": self.zero_division, "n": self.n}


def _prf(tp: int, fp: int, fn: int, tag: str, flags: list) -> dict:
    if tp + fp == 0:
        flags.append(f"precision_{tag}")
        precision = 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        flags.append(f"recall_{tag}")
        recall = 0.0
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        flags.append(f"f1_{tag}")
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}


def metrics_from_pairs(pairs: list[tuple[int, int]]) -> MetricsReport:
    """(predicted, true) label pairs -> full report."""
    if not pairs:
        raise ValueError("no prediction/label pairs to score")
    tp = sum(1 for p, y in pairs if p == 1 and y == 1)
    fp = sum(1 for p, y in pairs if p == 1 and y == 0)
    fn = sum(1 for p, y in pairs if p == 0 and y == 1)
    tn = sum(1 for p, y in pairs if p == 0 and y == 0)
    total = len(pairs)
    flags: list[str] = []
    per_class = {
        1: _prf(tp, fp, fn, "1", flags),
        0: _prf(tn, fn, fp, "0", flags),  # class 0 as positive: swap roles
    }
    accuracy = (tp + tn) / total
    macro = {k: (per_class[0][k] + per_class[1][k]) / 2.0
             for k in ("precision", "recall", "f1")}
    # micro: pool class-wise counts; for binary single-label this collapses
    # to accuracy on all three metrics
    micro_tp = tp + tn
    micro_fp = fp + fn
    micro = _prf(micro_tp, micro_fp, micro_fp, "micro", flags)
    return MetricsReport(
        counts={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        accuracy=accuracy, per_class=per_class, macro=macro, micro=micro,
        zero_division=flags, n=total)


def _require_labels(docs: list[TokenizedDoc], what: str) -> None:
    if not docs:
        raise CorpusError(f"{what}: empty document list")
    if any(doc.label is None for doc in docs):
        raise CorpusError(f"{what}: document without label")


def _encoded(docs: list[TokenizedDoc], vocab: Vocab, max_len: int,
             what: str) -> list[tuple[list[int], list[int]]]:
    """Every document's ids; an emoji outside `vocab` is a `CorpusError`
    naming `what` and the document's 1-based position."""
    rows = []
    for position, doc in enumerate(docs, 1):
        try:
            rows.append(encode_doc(doc, vocab, max_len))
        except CorpusError as exc:
            raise CorpusError(f"{what} document {position}: {exc}") from None
    return rows


def evaluate(model: Model, docs: list[TokenizedDoc]) -> MetricsReport:
    """Score labeled documents; never touches model parameters."""
    _require_labels(docs, "evaluate")
    rows = _encoded(docs, model.vocab, model.config.max_len, "evaluate")
    return metrics_from_pairs([(result["label"], doc.label) for result, doc
                               in zip(model.predictions(rows, False), docs)])


def _mean_loss_and_accuracy(model: Model, rows: list[tuple],
                            docs: list[TokenizedDoc]) -> tuple[float, float]:
    """Mean loss and accuracy over the groups `Model.score` forms."""
    total = 0.0
    correct = 0
    lam = model.config.lambda_align
    for group, outputs in model.score(rows):
        labels = [docs[i].label for i in group]
        with ag.no_grad():
            ce, align = model.doc_losses(outputs, labels)
        total += float(ce.data) + lam * float(align.data)
        correct += sum(predict_label(probs) == label
                       for probs, label in zip(outputs.probs, labels))
    return total / len(docs), correct / len(docs)


@dataclass
class TrainResult:
    """What `train` returns.  `model` holds no gradient buffer: training
    drops the gradients when each step ends."""

    model: Model                        # final-epoch parameters
    log: list                           # per-epoch dicts
    best_epoch: int
    best_val_acc: float
    best_state: dict                    # parameter arrays at the best epoch


# The `TrainConfig` fields that only the training loop reads.  A model
# handed to `train` must agree with its `config` on every other field.
LOOP_FIELDS = ("epochs", "batch_size", "lr", "seed", "min_count")


def _require_model_config(config: TrainConfig, model_config: TrainConfig
                          ) -> None:
    """Refuse a `config` that differs from the given model's own on a
    field the model reads, naming every such field."""
    differ = [f"{f.name} ({getattr(config, f.name)!r} != model's "
              f"{getattr(model_config, f.name)!r})"
              for f in dataclasses.fields(TrainConfig)
              if f.name not in LOOP_FIELDS
              and getattr(config, f.name) != getattr(model_config, f.name)]
    if differ:
        raise ValueError("train: config differs from the model's on "
                         + ", ".join(differ))


def _epoch_seed(base_seed: int, epoch: int) -> int:
    return int(np.random.SeedSequence([base_seed, 2, epoch]).generate_state(1)[0])


def train(train_docs: list[TokenizedDoc], val_docs: list[TokenizedDoc],
          config: TrainConfig, model: Model | None = None,
          log_path: str | None = None) -> TrainResult:
    """Epochs of forward / total loss / backward / Adam, logging one JSONL
    line per epoch; fully deterministic for a fixed seed.

    A given `model` trains under its own config: `config` may differ from
    it only on the `LOOP_FIELDS`, and any other difference is a
    `ValueError` naming each field.  Each parameter's gradient is dropped
    as soon as the Adam step that read it returns (and once before the
    first step, and when a step raises), so validation, the snapshot and
    the returned model hold no gradient buffer.

    The best-validation-accuracy parameter snapshot is returned alongside
    the final model (ties keep the earlier epoch).  The validation
    documents are encoded once, before the first epoch and before the log
    file is opened, so an emoji outside the vocabulary is refused (naming
    the document) with nothing trained or written; so is a training
    document without emojis, before the model is built.  A non-finite
    loss, or an overflow, invalid value or division by zero in a step,
    aborts with the offending batch named.
    """
    _require_labels(train_docs, "train")
    _require_labels(val_docs, "validation")
    for position, doc in enumerate(train_docs, 1):
        if not doc.emoji_tokens:
            raise CorpusError(f"train document {position}: no emoji tokens")
    if model is None:
        model = Model(config, build_vocab(train_docs,
                                          min_count=config.min_count))
    else:
        _require_model_config(config, model.config)
    val_rows = _encoded(val_docs, model.vocab, model.config.max_len,
                        "validation")
    optimizer = Adam(model.parameters(), lr=config.lr)
    dropout_rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, 1]))

    log: list[dict] = []
    best_epoch = 0
    # any accuracy beats this, so epoch 1 (there is always one) fills the
    # `best_state` snapshot; each new best refreshes it in place, as a
    # second snapshot would raise the heap's high-water mark by the model
    params = model.parameters()
    best_state = model.state()
    best_val_acc = -1.0
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None
    # step graphs are acyclic and die by reference counting, but their
    # many short-lived nodes would keep triggering cyclic collections
    gc_was_enabled = gc.isenabled()
    gc.disable()
    # a gradient lives from one backward to the end of its step: none is
    # left from the caller, and none outlives a step, normal or raised
    optimizer.zero_grad()
    try:
        for epoch in range(1, config.epochs + 1):
            batches = make_batches(train_docs, model.vocab, config.batch_size,
                                   max_len=model.config.max_len,
                                   seed=_epoch_seed(config.seed, epoch))
            loss_sum = 0.0
            for batch_index, batch in enumerate(batches):
                try:
                    with np.errstate(over="raise", invalid="raise",
                                     divide="raise"):
                        loss = model.batch_loss(batch, dropout_rng=dropout_rng)
                        loss_value = float(loss.data)
                        if not np.isfinite(loss_value):
                            raise FloatingPointError(
                                f"the loss is {loss_value}")
                        loss.backward()
                        optimizer.step()
                        optimizer.zero_grad()
                except FloatingPointError as exc:
                    raise NanLossError(f"non-finite loss at epoch {epoch}, "
                                       f"batch {batch_index}: {exc}") from exc
                del loss  # free this step's graph before the next forward
                loss_sum += loss_value * len(batch)
            val_loss, val_acc = _mean_loss_and_accuracy(model, val_rows,
                                                        val_docs)
            entry = {"epoch": epoch,
                     "train_loss": loss_sum / len(train_docs),
                     "val_loss": val_loss,
                     "val_acc": val_acc}
            log.append(entry)
            if log_file:
                log_file.write(json.dumps(entry, sort_keys=True) + "\n")
            if val_acc > best_val_acc:
                best_val_acc = val_acc
                best_epoch = epoch
                for name, p in params.items():
                    np.copyto(best_state[name], p.data)
    finally:
        optimizer.zero_grad()
        if gc_was_enabled:
            gc.enable()
        if log_file:
            log_file.close()
    return TrainResult(model=model, log=log, best_epoch=best_epoch,
                       best_val_acc=best_val_acc, best_state=best_state)


def ablate(train_docs: list[TokenizedDoc], val_docs: list[TokenizedDoc],
           test_docs: list[TokenizedDoc], config: TrainConfig) -> dict:
    """Train both variants with identical seeds and data order, score the
    best-validation snapshots on the test split, and report side by side
    with an agreement matrix and the first `ABLATE_EXAMPLES` test
    documents' predictions.

    The test documents are encoded against the training vocabulary before
    either variant trains, so an emoji outside it is refused up front.
    One variant's models are released once its predictions are lists, so
    the next variant does not train beside them."""
    _require_labels(train_docs, "train")
    _require_labels(test_docs, "test")
    vocab = build_vocab(train_docs, min_count=config.min_count)
    test_rows = _encoded(test_docs, vocab, config.max_len, "test")
    variants = {}
    predictions = {}
    for variant in VARIANTS:
        cfg = dataclasses.replace(config, variant=variant)
        result = train(train_docs, val_docs, cfg, model=Model(cfg, vocab))
        best = Model.from_state(cfg, vocab, result.best_state)
        pairs = [(pred["label"], doc.label) for pred, doc
                 in zip(best.predictions(test_rows, False), test_docs)]
        variants[variant] = {
            "metrics": metrics_from_pairs(pairs).to_dict(),
            "best_epoch": result.best_epoch,
            "best_val_acc": result.best_val_acc,
        }
        predictions[variant] = [pred for pred, _ in pairs]
        del result, best  # the next variant trains without them

    agreement = {"both_correct": 0, "only_fine": 0, "only_coarse": 0,
                 "both_wrong": 0}
    for pf, pc, doc in zip(predictions["fine"], predictions["coarse"],
                           test_docs):
        f_ok, c_ok = pf == doc.label, pc == doc.label
        if f_ok and c_ok:
            agreement["both_correct"] += 1
        elif f_ok:
            agreement["only_fine"] += 1
        elif c_ok:
            agreement["only_coarse"] += 1
        else:
            agreement["both_wrong"] += 1

    examples = []
    for i, doc in enumerate(test_docs[:ABLATE_EXAMPLES]):
        examples.append({
            "text": doc.text_tokens, "emojis": doc.emoji_tokens,
            "fine": predictions["fine"][i], "coarse": predictions["coarse"][i],
            "label": doc.label,
        })
    return {"variants": variants, "agreement": agreement,
            "examples": examples, "published_reference": PUBLISHED_REFERENCE}


def gradcheck_config() -> TrainConfig:
    """Small deterministic configuration for the gradient-integrity suite."""
    return TrainConfig(d=8, d_w=10, n_filters=4, widths=(2, 3, 4),
                       dropout=0.0, batch_size=4, epochs=1, max_len=16,
                       lambda_align=0.25, seed=0, variant="fine")


def gradient_check_report(samples_per_group: int, tolerance: float) -> dict:
    """Finite-difference check of the full loss, one entry per parameter
    group, on a seeded batch of two documents of different lengths (4 text
    tokens + 2 emojis, then 6 + 3): the shorter row comes first, so the
    BiLSTM's padded, reordered rows are under the check too.

    The documents are chosen so that every group of `gradcheck_config()`
    gets a nonzero analytic gradient.  A group whose analytic gradient is
    entirely zero (say, a filter width no window fits) would match its
    finite differences without testing anything, so it fails the report
    and is named under "zero_gradient".  A `tolerance` that is not finite
    and positive is a `ValueError`, not a failed check.
    """
    # written as a negation so that NaN fails too
    if not 0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got "
                         f"{tolerance}")
    config = gradcheck_config()
    docs = [TokenizedDoc(["t0", "t1", "t2", "t3"], ["e0", "e1"], 1),
            TokenizedDoc(["t3", "t2", "t1", "t0", "t2", "t1"],
                         ["e1", "e0", "e1"], 0)]
    vocab = build_vocab(docs)
    model = Model(config, vocab)
    (batch,) = make_batches(docs, vocab, len(docs), config.max_len,
                            shuffle=False)
    params = model.parameters()
    groups = finite_difference_check(lambda: model.batch_loss(batch), params,
                                     samples_per_group=samples_per_group)
    zero = [name for name, p in params.items() if not np.any(p.grad)]
    worst = max(groups.values())
    return {"groups": groups, "max_relative_error": worst,
            "tolerance": tolerance, "zero_gradient": zero,
            "pass": bool(worst <= tolerance and not zero)}
