"""The benchmark's workloads: seeded inputs, measurement loops and checks.

Every workload drives faet's public API from one process, as one client in
a closed loop: the next operation starts when the previous one returned.

* train-stock-short: `train()` with stock `TrainConfig` defaults on
  `gen_overfit(64)`, validated on the same documents (the acceptance
  test's workload, cut to a fixed number of epochs).
* train-small-long: `train()` at the XOR-ablation sizes (d = d_w = 32,
  16 filters, batch 32, lr 2e-3) on generated documents of 8-48 text
  tokens and 2-6 emojis.
* serve-stock-mixed: a stock-config model built from the seed, saved and
  loaded back, then scoring generated documents of 3-24 text tokens and
  0-4 emojis with `evaluate()` and per-document `predict_doc`, with
  repeated checkpoint save and load.  It builds no graph and runs no
  backward pass and no optimizer.

A training workload repeats one fixed `train()` run (same seed, same data,
same number of steps) and saves and loads the trained model, as
`faet train --out` does; the final loss and the checkpoint bytes must
repeat bit for bit.  The repeats run until the time budget is spent and at
least `min_steps` steps (`min_predicts` predictions when serving) have been
timed, so the p90 step time and the p99 prediction time each have at least
ten samples beyond them.  Warm-up runs before any timing and is excluded;
set-up (the seed's documents and a fresh model) is timed on its own,
several times per run.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from faet.checkpoint import load_checkpoint, save_checkpoint
from faet.corpus import TokenizedDoc, build_vocab, encode_doc
from faet.model import Model, TrainConfig
from faet.synthetic import EMOJIS, KEYWORDS, gen_overfit, xor_label
from faet.trainer import evaluate, train

from probes import StepClock, Tracer, installed, now

# 400-word / 12-emoji vocabulary: the XOR keywords and emojis of
# faet.synthetic plus fillers and neutral emojis
FILLERS = tuple(f"w{i:03d}" for i in range(400 - len(KEYWORDS)))
NEUTRAL_EMOJIS = tuple(f"E_N{i}" for i in range(12 - len(EMOJIS)))

# The seed makes the documents.  The model's own seed (initialization,
# dropout, batch order) stays fixed, as in the acceptance test, so every
# seed gives batches of the same lengths and hence the same work per step.
MODEL_SEED = 0
SETUP_REPEATS = 3       # timed set-ups per training run
CKPT_REPEATS = 5        # checkpoint round trips per training run
SERVE_SETUPS = 30       # timed set-ups per serving run
SERVE_CKPT_REPEATS = 3  # checkpoint round trips per scoring round
MAX_SECONDS = 120.0     # hard stop for a measurement loop


def gen_mixed(n_docs: int, text_range: tuple[int, int],
              emoji_range: tuple[int, int], seed: int) -> list[TokenizedDoc]:
    """Documents labeled by faet.synthetic's keyword-vs-emoji XOR rule.

    Each document has one keyword among fillers and, when it has emojis,
    one polar emoji among neutral ones.  Text lengths and emoji counts
    sweep their ranges in a fixed cycle, so the amount of work does not
    depend on the seed; the seed picks the tokens and their positions.
    Emoji-free documents take the keyword's polarity as their label.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    lo_t, hi_t = text_range
    lo_e, hi_e = emoji_range
    docs = []
    for i in range(n_docs):
        n_text = lo_t + (i * 7) % (hi_t - lo_t + 1)
        n_emoji = lo_e + i % (hi_e - lo_e + 1)
        keyword = KEYWORDS[int(rng.integers(2))]
        tokens = [FILLERS[j] for j in rng.integers(len(FILLERS),
                                                   size=n_text - 1)]
        tokens.insert(int(rng.integers(n_text)), keyword)
        if n_emoji:
            polar = EMOJIS[int(rng.integers(2))]
            emojis = [NEUTRAL_EMOJIS[j]
                      for j in rng.integers(len(NEUTRAL_EMOJIS),
                                            size=n_emoji - 1)]
            emojis.insert(int(rng.integers(n_emoji)), polar)
            label = xor_label(keyword, polar)
        else:
            emojis = []
            label = int(keyword == KEYWORDS[0])
        docs.append(TokenizedDoc(tokens, emojis, label))
    return docs


def stock_short_docs(seed: int, size: int = 64):
    docs = gen_overfit(size, seed=seed)
    return docs, docs


def small_long_docs(seed: int, n_train: int = 128, n_val: int = 32):
    docs = gen_mixed(n_train + n_val, (8, 48), (2, 6), seed)
    return docs[:n_train], docs[n_train:]


def serve_docs(seed: int, n_docs: int = 200) -> list[TokenizedDoc]:
    return gen_mixed(n_docs, (3, 24), (0, 4), seed)


@dataclass(frozen=True)
class TrainSpec:
    config: dict                    # TrainConfig fields besides seed, epochs
    epochs: int                     # epochs in one fixed train() run
    docs: Callable[[int], tuple]    # seed -> (train docs, validation docs)
    min_steps: int = 100


@dataclass(frozen=True)
class ServeSpec:
    docs: Callable[[int], list] = serve_docs
    min_predicts: int = 1000


SPECS = {
    "train-stock-short": TrainSpec(config={}, epochs=10,
                                   docs=stock_short_docs),
    "train-small-long": TrainSpec(
        config=dict(d=32, d_w=32, n_filters=16, batch_size=32, lr=2e-3),
        epochs=3, docs=small_long_docs),
    "serve-stock-mixed": ServeSpec(),
}


class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


@dataclass
class RunResult:
    checks: Checks
    metrics: dict        # end-to-end metrics of BENCHMARK.json
    report: dict         # the same measurements under per-workload names
    layers: dict | None = None   # per-layer metrics of a traced run
    tracer: Tracer | None = None


def percentile(values, q: float):
    """Nearest-rank percentile: at least (1-q)*n samples lie above it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name, "checkpoint") if tracer else nullcontext()


def _same_state(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a)


@dataclass
class CheckpointTimes:
    save_ns: list = field(default_factory=list)
    load_ns: list = field(default_factory=list)
    size: int = 0

    def metrics(self) -> dict:
        return {
            "ckpt_save_ms": Metric(statistics.median(self.save_ns) / 1e6,
                                   "ms", f"{len(self.save_ns)} saves"),
            "ckpt_load_ms": Metric(statistics.median(self.load_ns) / 1e6,
                                   "ms", f"{len(self.load_ns)} loads"),
        }


def checkpoint_round_trips(model: Model, path: str, repeats: int,
                           checks: Checks, tracer: Tracer | None,
                           times: CheckpointTimes) -> bytes:
    """Save and load `repeats` times; every load must restore every
    parameter bitwise.  Returns the digest of the checkpoint file."""
    state = model.state()
    for _ in range(repeats):
        # save to a fresh file: truncating the old one is file-system work,
        # not faet's, and its cost varies about twofold between runs
        if os.path.exists(path):
            os.remove(path)
        start = now()
        with _span(tracer, "checkpoint.save"):
            save_checkpoint(model, path)
        times.save_ns.append(now() - start)
        start = now()
        with _span(tracer, "checkpoint.load"):
            loaded = load_checkpoint(path)
        times.load_ns.append(now() - start)
        checks.check(_same_state(state, loaded.state()),
                     "checkpoint round trip changed a parameter")
    with open(path, "rb") as fh:
        data = fh.read()
    times.size = len(data)
    return hashlib.sha256(data).digest()


# -- training workloads ------------------------------------------------

@dataclass
class TrainJob:
    setup_ns: list
    train_ns: int
    docs: int
    loss_final: float


def _train_setup(spec: TrainSpec, seed: int):
    """Documents from the seed and a fresh model for them."""
    train_docs, val_docs = spec.docs(seed)
    config = TrainConfig(seed=MODEL_SEED, epochs=spec.epochs, **spec.config)
    model = Model(config, build_vocab(train_docs + val_docs))
    return train_docs, val_docs, config, model


def _train_job(spec: TrainSpec, seed: int, path: str, checks: Checks,
               tracer: Tracer | None, ckpt: CheckpointTimes,
               reference: dict) -> TrainJob:
    """One fixed train() run: set-up, training, checkpoint round trips."""
    setup_ns = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = now()
        train_docs, val_docs, config, model = _train_setup(spec, seed)
        setup_ns.append(now() - start)
    gc.collect()
    start = now()
    result = train(train_docs, val_docs, config, model=model)
    train_ns = now() - start
    loss_final = result.log[-1]["train_loss"]
    digest = checkpoint_round_trips(result.model, path, CKPT_REPEATS,
                                    checks, tracer, ckpt)
    # determinism contract: the same seed repeats the run bit for bit
    reference.setdefault("loss", loss_final)
    reference.setdefault("digest", digest)
    checks.check(loss_final.hex() == reference["loss"].hex(),
                 f"train_loss_final {loss_final!r} != first run's "
                 f"{reference['loss']!r}")
    checks.check(digest == reference["digest"],
                 "checkpoint bytes differ from the first run's")
    return TrainJob(setup_ns, train_ns,
                    spec.epochs * len(train_docs), loss_final)


def run_train(spec: TrainSpec, seed: int, seconds: float, trace: bool,
              path: str) -> RunResult:
    checks = Checks()
    reference: dict = {}
    ckpt = CheckpointTimes()
    # warm-up: one untimed epoch of the same training
    train_docs, val_docs, config, model = _train_setup(spec, seed)
    train(train_docs, val_docs, replace(config, epochs=1), model=model)

    # a traced run alternates untraced and traced runs of the same job, so
    # both halves see the same machine and the difference is the tracing
    clock = StepClock()
    tracer = Tracer() if trace else None
    traced_clock = StepClock(tracer)
    traced_ckpt = CheckpointTimes()
    jobs: list[TrainJob] = []
    begin = time.monotonic()
    while True:
        with installed(clock):
            jobs.append(_train_job(spec, seed, path, checks, None, ckpt,
                                   reference))
        if trace:
            with installed(traced_clock):
                _train_job(spec, seed, path, checks, tracer, traced_ckpt,
                           reference)
        elapsed = time.monotonic() - begin
        if elapsed >= MAX_SECONDS or (
                elapsed >= seconds
                and (trace or len(clock.step_ns) >= spec.min_steps)):
            break
    check_losses(clock.losses + traced_clock.losses, checks)
    steps = clock.step_ns
    setups = [ns for j in jobs for ns in j.setup_ns]

    metrics = {
        "setup_s": Metric(statistics.median(setups) / 1e9, "s",
                          f"median of {len(setups)} set-ups"),
        "docs_per_s": Metric(statistics.median(
            j.docs / j.train_ns * 1e9 for j in jobs), "docs/s",
            f"train(), median of {len(jobs)} runs of {jobs[0].docs} docs"),
        "op_ms_p50": Metric(statistics.median(steps) / 1e6, "ms",
                            f"training step, {len(steps)} steps"),
        "op_ms_p90": Metric(percentile(steps, 0.9) / 1e6, "ms",
                            f"training step, {len(steps)} steps"),
        **ckpt.metrics(),
    }
    report = {
        "setup_s": metrics["setup_s"],
        "train_docs_per_s": metrics["docs_per_s"],
        "step_ms_p50": metrics["op_ms_p50"],
        "step_ms_p90": metrics["op_ms_p90"],
        "train_loss_final": Metric(jobs[0].loss_final, "nats",
                                   f"bitwise equal across {len(jobs)} runs"
                                   if checks.failed == 0 else ""),
        "ckpt_save_ms": metrics["ckpt_save_ms"],
        "ckpt_load_ms": metrics["ckpt_load_ms"],
    }

    layers = None
    if trace:
        layers = layer_metrics(tracer, tracer.n_ops, traced_ckpt,
                               traced_clock.step_ns, steps, checks)

    metrics["peak_rss_mb"] = report["peak_rss_mb"] = Metric(peak_rss_mb(),
                                                            "MB")
    return RunResult(checks, metrics, report, layers, tracer)


# -- serving workload --------------------------------------------------

def _serve_setup(spec: ServeSpec, seed: int, path: str, checks: Checks):
    """Documents and a stock model from the seed, saved and loaded back."""
    gc.collect()
    if os.path.exists(path):
        os.remove(path)
    start = now()
    docs = spec.docs(seed)
    model = Model(TrainConfig(seed=MODEL_SEED), build_vocab(docs))
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    setup_ns = now() - start
    checks.check(_same_state(model.state(), loaded.state()),
                 "checkpoint round trip changed a parameter")
    return setup_ns, docs, loaded


@dataclass
class ServeTimes:
    predict_ns: list = field(default_factory=list)
    round_predict_ns: list = field(default_factory=list)
    eval_ns: list = field(default_factory=list)
    docs_scored: int = 0


def _serve_round(model: Model, docs: list, expected: list | None,
                 checks: Checks, tracer: Tracer | None,
                 times: ServeTimes) -> list:
    """predict_doc on every document, then evaluate() on all of them with
    the predicted labels as truth: accuracy 1.0 means both paths agree on
    every label."""
    gc.collect()
    labels = []
    round_start = now()
    for doc in docs:
        start = now()
        if tracer:
            tracer.begin_op()
        text_ids, emoji_ids = encode_doc(doc, model.vocab,
                                         model.config.max_len)
        result = model.predict_doc(text_ids, emoji_ids)
        wall = now() - start
        if tracer:
            tracer.end_op(wall)
        times.predict_ns.append(wall)
        probs = result["probs"]
        checks.check(all(math.isfinite(p) for p in probs)
                     and abs(math.fsum(probs) - 1.0) <= 1e-12,
                     f"probability row {probs!r} does not sum to 1")
        labels.append(result["label"])
    times.round_predict_ns.append(now() - round_start)
    if expected is not None:
        checks.check(labels == expected,
                     "predict_doc labels changed between rounds")
    relabeled = [TokenizedDoc(d.text_tokens, d.emoji_tokens, label)
                 for d, label in zip(docs, labels)]
    start = now()
    if tracer:
        tracer.begin_op()
    report = evaluate(model, relabeled)
    wall = now() - start
    if tracer:
        tracer.end_op(wall)
    times.eval_ns.append(wall)
    checks.check(report.n == len(docs) and report.accuracy == 1.0,
                 f"evaluate disagrees with predict_doc on "
                 f"{round((1 - report.accuracy) * report.n)} labels")
    times.docs_scored += 2 * len(docs)
    return labels


def run_serve(spec: ServeSpec, seed: int, seconds: float, trace: bool,
              path: str) -> RunResult:
    checks = Checks()
    _serve_setup(spec, seed, path, checks)  # warm-up
    # keep only the last set-up's model, so the others do not add to the
    # peak RSS
    setups = []
    for _ in range(SERVE_SETUPS):
        setup_ns, docs, model = _serve_setup(spec, seed, path, checks)
        setups.append(setup_ns)
    with open(path, "rb") as fh:
        reference = hashlib.sha256(fh.read()).digest()
    _serve_round(model, docs[:20], None, checks, None, ServeTimes())

    def score(labels, tracer, times, ckpt):
        labels = _serve_round(model, docs, labels, checks, tracer, times)
        digest = checkpoint_round_trips(model, path, SERVE_CKPT_REPEATS,
                                        checks, tracer, ckpt)
        checks.check(digest == reference,
                     "checkpoint bytes differ from the set-up's")
        return labels

    # as in training, a traced run alternates untraced and traced rounds
    times, ckpt = ServeTimes(), CheckpointTimes()
    tracer = Tracer() if trace else None
    traced, traced_ckpt = ServeTimes(), CheckpointTimes()
    labels = None
    begin = time.monotonic()
    while True:
        labels = score(labels, None, times, ckpt)
        if trace:
            # installs the tracer; the step clock never fires when serving
            with installed(StepClock(tracer)):
                score(labels, tracer, traced, traced_ckpt)
        elapsed = time.monotonic() - begin
        if elapsed >= MAX_SECONDS or (
                elapsed >= seconds
                and (trace or len(times.predict_ns) >= spec.min_predicts)):
            break
    n = len(docs)
    lat = times.predict_ns
    metrics = {
        "setup_s": Metric(statistics.median(setups) / 1e9, "s",
                          f"median of {len(setups)} set-ups"),
        "docs_per_s": Metric(statistics.median(
            n / ns * 1e9 for ns in times.eval_ns), "docs/s",
            f"evaluate(), median of {len(times.eval_ns)} calls on {n} docs"),
        "op_ms_p50": Metric(statistics.median(lat) / 1e6, "ms",
                            f"predict_doc, {len(lat)} calls"),
        "op_ms_p90": Metric(percentile(lat, 0.9) / 1e6, "ms",
                            f"predict_doc, {len(lat)} calls"),
        **ckpt.metrics(),
    }
    report = {
        "setup_s": metrics["setup_s"],
        "eval_docs_per_s": metrics["docs_per_s"],
        "predict_docs_per_s": Metric(statistics.median(
            n / ns * 1e9 for ns in times.round_predict_ns), "docs/s",
            f"median of {len(times.round_predict_ns)} passes over {n} docs"),
        "predict_ms_p50": metrics["op_ms_p50"],
        "predict_ms_p99": Metric(percentile(lat, 0.99) / 1e6, "ms",
                                 f"predict_doc, {len(lat)} calls"),
        "ckpt_save_ms": metrics["ckpt_save_ms"],
        "ckpt_load_ms": metrics["ckpt_load_ms"],
    }

    layers = None
    if trace:
        checks.check(tracer.counts["autograd.nodes"] == 0,
                     "scoring built graph nodes")
        layers = layer_metrics(tracer, traced.docs_scored, traced_ckpt,
                               traced.predict_ns, lat, checks)

    metrics["peak_rss_mb"] = report["peak_rss_mb"] = Metric(peak_rss_mb(),
                                                            "MB")
    return RunResult(checks, metrics, report, layers, tracer)


# -- traced-run summaries ----------------------------------------------

LAYER_TIMES = (
    ("embedding.fwd_ms", "embedding.fwd"), ("embedding.bwd_ms", "embedding.bwd"),
    ("encoder.fwd_ms", "encoder.fwd"), ("encoder.bwd_ms", "encoder.bwd"),
    ("attention.fwd_ms", "attention.fwd"), ("attention.bwd_ms", "attention.bwd"),
    ("objective.fwd_ms", "objective.fwd"), ("objective.bwd_ms", "objective.bwd"),
    ("classifier.fwd_ms", "classifier.fwd"),
    ("classifier.bwd_ms", "classifier.bwd"),
    ("model.fwd_self_ms", "model.fwd"), ("model.bwd_ms", "model.bwd"),
    ("optim.step_ms", "optim.step"),
    ("autograd.topo_ms", "autograd.topo"),
    ("autograd.backward_self_ms", "autograd.backward"),
)
LAYER_COUNTS = ("encoder.calls", "classifier.calls", "objective.align_pairs",
                "autograd.nodes", "autograd.gc_collections",
                "runtime.minor_faults")


def layer_metrics(tracer: Tracer, per: int, ckpt: CheckpointTimes,
                  traced_ns: list, untraced_ns: list, checks: Checks) -> dict:
    """Per-layer self times and counts per operation unit (`per` steps or
    scored documents); checkpoint figures are per save or load.  The
    tracing overhead compares the median operation time traced and not.

    Also checks that no operation's layer self times add up to more than
    its wall time.
    """
    over = sum(1 for s, w in zip(tracer.op_self, tracer.op_wall) if s > w)
    checks.check(over == 0, f"{over} operations whose layer self times "
                 "exceed their wall time")
    per = max(per, 1)
    out = {name: Metric(tracer.in_op_ns[key] / per / 1e6, "ms")
           for name, key in LAYER_TIMES}
    out.update({name: Metric(tracer.counts[name] / per, "count")
                for name in LAYER_COUNTS})
    out["autograd.gc_ms"] = Metric(
        tracer.counts["autograd.gc_ns"] / per / 1e6, "ms")
    ckpt_ms = ckpt.metrics()
    out["checkpoint.save_ms"] = Metric(ckpt_ms["ckpt_save_ms"].value, "ms")
    out["checkpoint.load_ms"] = Metric(ckpt_ms["ckpt_load_ms"].value, "ms")
    out["checkpoint.bytes"] = Metric(float(ckpt.size), "bytes")
    out["corpus.batch_ms"] = Metric(
        tracer.out_op_ns["corpus.batch"] / per / 1e6, "ms")
    out["trace.overhead_ms"] = Metric(
        (statistics.median(traced_ns) - statistics.median(untraced_ns)) / 1e6,
        "ms", "traced minus untraced median operation time")
    return out


def check_losses(losses: list, checks: Checks) -> None:
    for loss in losses:
        checks.check(math.isfinite(loss), f"non-finite step loss {loss!r}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 path: str) -> RunResult:
    spec = SPECS[name]
    runner = run_serve if isinstance(spec, ServeSpec) else run_train
    return runner(spec, seed, seconds, trace, path)
