"""Clock wrappers and the layer tracer, installed on faet from outside.

Nothing here edits faet's sources.  Each probe replaces a public function
or method with a thin wrapper for the lifetime of a `Patches` block and puts
the original back when the block ends.

* `StepClock` stamps every training step from the entry of
  `Model.batch_loss` to the return of `Adam.step`; it is present on every
  run, traced or not.
* `Tracer` adds spans around each layer's entry points (as `faet.model`
  sees them, since `model.py` imports them by name), tags every graph node
  with the layer that created it, times each node's backward rule under
  that layer, and counts garbage collections and minor page faults.  Spans
  are kept in flat integer arrays, so the spans of a whole run add no
  objects for the garbage collector to scan, and are written out once, at
  the end of the run.

Layer times accumulate only inside an operation (a training step, or one
scoring call on the serving workload): validation forwards between steps
show in throughput, not in per-step layer numbers.  `corpus` and
`checkpoint` run outside operations and are accumulated separately.
"""

from __future__ import annotations

import array
import functools
import gc
import json
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

import faet.autograd
import faet.embedding
import faet.model
import faet.optim
import faet.trainer

now = time.perf_counter_ns

# layer names are the faet module that implements the layer
MODEL = "model"


class Patches:
    """Attribute replacements that are undone, newest first, on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class StepClock:
    """Per-step wall time and loss, stamped by two thin wrappers.

    Installed last, so its stamps enclose every tracer span of the step.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self.step_ns: list[int] = []
        self.losses: list[float] = []
        self._start = 0

    def install(self, patches: Patches) -> None:
        clock = self
        batch_loss = faet.model.Model.batch_loss
        adam_step = faet.optim.Adam.step

        @functools.wraps(batch_loss)
        def timed_batch_loss(model, *args, **kwargs):
            clock._start = now()
            if clock.tracer is not None:
                clock.tracer.begin_op()
            loss = batch_loss(model, *args, **kwargs)
            clock.losses.append(float(loss.data))
            return loss

        @functools.wraps(adam_step)
        def timed_adam_step(optimizer):
            adam_step(optimizer)
            wall = now() - clock._start
            if clock.tracer is not None:
                clock.tracer.end_op(wall)
            clock.step_ns.append(wall)

        patches.set(faet.model.Model, "batch_loss", timed_batch_loss)
        patches.set(faet.optim.Adam, "step", timed_adam_step)


@contextmanager
def installed(clock: StepClock):
    """Probes on for the block: the clock's tracer, if it has one, and the
    clock itself outside it."""
    with Patches() as patches:
        tracer = clock.tracer
        if tracer is not None:
            tracer.install(patches)
        clock.install(patches)
        if tracer is not None:
            gc.callbacks.append(tracer.on_gc)
        try:
            yield
        finally:
            if tracer is not None:
                gc.callbacks.remove(tracer.on_gc)


class Tracer:
    """In-memory spans and counters for faet's layers.

    A span's self time is its duration minus the time covered by its child
    spans (and, for the backward span, by the per-node backward rules timed
    under their layers).
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one entry per span: name id, start ns, end ns, parent span index
        # (-1 for none), operation index (-1 outside operations)
        self.span_name = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("q")
        self.span_op = array.array("q")
        self._stack: list[list] = []  # [span index, start, child ns, layer]
        self.op = -1
        self.n_ops = 0
        self.op_wall = array.array("q")   # wall ns of each operation
        self.op_self = array.array("q")   # summed self ns inside it
        self._op_self = 0
        self.in_op_ns: dict[str, int] = defaultdict(int)   # "layer.phase"
        self.out_op_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._layer_of: dict[int, str] = {}  # id(node) -> creating layer
        self._gc_start = 0
        self._faults_start = 0

    # -- spans ---------------------------------------------------------
    def enter(self, name: str, layer: str) -> None:
        name_id = self._name_id.get(name)
        if name_id is None:
            name_id = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op)
        start = now()
        self.span_start[index] = start
        self._stack.append([index, start, 0, layer])

    def exit(self) -> None:
        end = now()
        index, start, child_ns, _ = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        name = self.names[self.span_name[index]]
        if self.op >= 0:
            self.in_op_ns[name] += duration - child_ns
            self._op_self += duration - child_ns
        else:
            self.out_op_ns[name] += duration - child_ns

    @contextmanager
    def span(self, name: str, layer: str):
        self.enter(name, layer)
        try:
            yield
        finally:
            self.exit()

    def layer(self) -> str:
        return self._stack[-1][3] if self._stack else MODEL

    # -- operations (steps or scoring calls) ---------------------------
    def begin_op(self) -> None:
        self.op = self.n_ops
        self._op_self = 0
        self._layer_of.clear()
        self._faults_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def end_op(self, wall_ns: int) -> None:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.counts["runtime.minor_faults"] += faults - self._faults_start
        self.op_wall.append(wall_ns)
        self.op_self.append(self._op_self)
        self.n_ops += 1
        self.op = -1

    def count(self, name: str, n: int = 1) -> None:
        if self.op >= 0:
            self.counts[name] += n

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = now()
        elif self.op >= 0:
            self.counts["autograd.gc_ns"] += now() - self._gc_start
            self.counts["autograd.gc_collections"] += 1

    # -- installation --------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, counter: str | None = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                tracer.count(counter)
            tracer.enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return traced

    def _timed_backward(self, rule, name: str):
        tracer = self

        def timed():
            start = now()
            rule()
            duration = now() - start
            tracer.in_op_ns[name] += duration
            tracer._op_self += duration
            tracer._stack[-1][2] += duration  # covered by the backward span
        return timed

    def install(self, patches: Patches) -> None:
        tracer = self
        ag = faet.autograd
        model_mod = faet.model
        wrap = self._wrap

        for fn_name, layer, counter in (
                ("bilstm_encode_batch", "encoder", "encoder.calls"),
                ("fine_attention", "attention", None),
                ("coarse_attention", "attention", None),
                ("textcnn_forward_batch", "classifier", "classifier.calls"),
                # the cross-entropy head on the classifier's softmax output
                ("cross_entropy", "classifier", None)):
            patches.set(model_mod, fn_name,
                        wrap(getattr(model_mod, fn_name), f"{layer}.fwd",
                             layer, counter))

        alignment_loss = model_mod.alignment_loss

        @functools.wraps(alignment_loss)
        def traced_alignment_loss(word_emoji_weights, text, distance_w):
            n, m = word_emoji_weights.shape
            pairs = n * (n - 1) // 2 if n >= 2 and m >= 2 else 0
            if pairs == 0:
                # the loss is the constant 0 and does no alignment work
                return alignment_loss(word_emoji_weights, text, distance_w)
            tracer.count("objective.align_pairs", pairs)
            with tracer.span("objective.fwd", "objective"):
                return alignment_loss(word_emoji_weights, text, distance_w)

        patches.set(model_mod, "alignment_loss", traced_alignment_loss)

        for owner, method, layer in (
                (faet.embedding.TextEncoder, "embed", "embedding"),
                (faet.embedding.BisenseEmojiEmbedding, "mix", "embedding"),
                (model_mod.Model, "batch_loss", MODEL),
                (model_mod.Model, "forward_docs", MODEL),
                (model_mod.Model, "doc_losses", MODEL)):
            patches.set(owner, method,
                        wrap(getattr(owner, method), f"{layer}.fwd", layer))
        patches.set(faet.optim.Adam, "step",
                    wrap(faet.optim.Adam.step, "optim.step", "optim"))
        patches.set(faet.trainer, "make_batches",
                    wrap(faet.trainer.make_batches, "corpus.batch", "corpus"))

        make_node = ag.make_node
        layer_of = self._layer_of

        @functools.wraps(make_node)
        def tagged_make_node(data, inputs, op):
            out = make_node(data, inputs, op)
            if out.requires_grad:
                layer_of[id(out)] = tracer.layer()
                tracer.count("autograd.nodes")
            return out

        patches.set(ag, "make_node", tagged_make_node)

        topo_order = ag.topo_order
        patches.set(ag, "topo_order",
                    wrap(topo_order, "autograd.topo", "autograd"))
        backward = ag.Value.backward

        @functools.wraps(backward)
        def traced_backward(loss):
            if loss.requires_grad and tracer.op >= 0:
                for node in topo_order(loss):
                    rule = node._backward
                    if rule is not None:
                        layer = layer_of.get(id(node), MODEL)
                        node._backward = tracer._timed_backward(
                            rule, f"{layer}.bwd")
            with tracer.span("autograd.backward", "autograd"):
                backward(loss)

        patches.set(ag.Value, "backward", traced_backward)

    # -- results -------------------------------------------------------
    def dump(self, path: str, extra: dict) -> None:
        """Write every span plus the run's totals as one JSON document."""
        obj = dict(extra)
        obj.update({
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": self.names,
            "spans": [list(row) for row in zip(
                self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_op)],
            "op_wall_ns": list(self.op_wall),
            "op_self_ns": list(self.op_self),
            "in_op_ns": dict(self.in_op_ns),
            "out_op_ns": dict(self.out_op_ns),
            "counts": dict(self.counts),
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
