"""Reverse-mode automatic differentiation over dense float64 arrays.

A `Value` wraps a numpy array together with an accumulated gradient and a
backward rule.  Ops take `Value` operands (an array enters as a `constant`;
only `mul` also takes a Python number, as a scale; any other operand is a
`TypeError` naming the op) and build a graph through the `_prev` links;
`Value.backward()` topologically sorts the graph and applies the chain
rule in reverse.  Everything is float64 in a fixed float order, and the
package starts no threads; only BLAS may split a matrix product over
threads, which can move its last bits.  The `faet` CLI runs on one BLAS
thread, so for a fixed seed it writes the same logs and checkpoint bytes
whatever the CPU count, for one numpy/OpenBLAS build on one CPU type.

Backward allocates only where a gradient lands (Paszke et al. 2017,
"Automatic differentiation in PyTorch"): a node, leaf or intermediate,
starts without a gradient buffer and borrows its first incoming gradient
by reference through `accumulate`; the rules that add into part of a
gradient (`narrow`, `take_rows`) first take a buffer the node owns
through `scatter_target`.  So a model that only scores never allocates a
gradient, and `zero_grad` drops a buffer instead of clearing it.  Backward
frees as it goes, too: an intermediate drops its gradient once its own
rule has run.
`narrow` and `transpose` return views of their input rather than copies.

Every op here except `narrow` and `take_rows` is a forward pass plus one
gradient function per input, wired into the graph by `_node`; the fused
BiLSTM, TextCNN, alignment and cross-entropy nodes defined elsewhere
attach a weak rule of their own, and refuse bad operands as the ops here
do (`make_node`).  `tests/test_graph_ops.py` checks the contract these
sixteen ops share as one table, and that they are exactly the ops a
training step builds.  The module keeps only ops the package calls: the
fused nodes take their sigmoid, log and sums inside, so there is no
sigmoid, log or sum op.
"""

from __future__ import annotations

import contextlib
import itertools
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

# `finite_difference_check`'s step and its coordinate-sampling seed
FD_STEP = 1e-5
FD_SEED = 0


class ShapeError(ValueError):
    """Operand shapes are invalid for the requested operation."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (evaluation fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Value:
    """Dense tensor node in the differentiation graph.

    No node allocates a gradient when it is built.  Backward hands each
    node its first gradient by reference, which may alias another node's
    gradient: treat `grad` as read-only after a backward.  Repeated
    `backward()` calls add up on grad-requiring leaves, which is the
    documented behavior (callers reset with `zero_grad`).  An
    intermediate holds its gradient only while backward runs: backward
    drops it once the node's own rule has run, so an intermediate's
    `grad` reads None afterwards.  Reading `grad` on a grad-requiring
    leaf that no gradient reached gives an exact-zero buffer of the
    leaf's own, which may be written into.  Graph code reads the `_grad`
    slot, where an unreached leaf holds None.
    """

    __slots__ = ("data", "_grad", "requires_grad", "_prev", "_backward",
                 "_op", "_owns_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False,
                 _prev: tuple = (), _op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._prev = _prev if self.requires_grad else ()
        self._grad: np.ndarray | None = None
        self._backward: Callable[[], None] | None = None
        self._op = _op
        self._owns_grad = False  # _grad is a private buffer, not borrowed

    @property
    def grad(self) -> np.ndarray | None:
        if self._grad is None and self.requires_grad and not self._prev:
            self._grad = np.zeros(self.data.shape)
            self._owns_grad = True
        return self._grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self._grad = None  # dropped, not zeroed: it may be borrowed

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable grad-requiring leaf.

        Leaf grads accumulate across calls.  An intermediate's gradient
        lives only from its first consumer's rule to its own: after its
        rule has run, or been skipped because no gradient reached it, the
        node drops it, so the sweep never holds the gradients of the nodes
        it has passed.  Rules and what they saved stay, so the graph can
        be swept again.  Raises unless `self` is scalar.
        """
        if self.size != 1:
            raise ShapeError(
                f"backward: loss must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            return
        order = topo_order(self)
        for node in order:  # a sweep that raised part-way left some behind
            if node._prev:
                node._grad = None
        accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._prev:
                if node._backward is not None and node._grad is not None:
                    node._backward()
                node._grad = None  # every consumer has run: drop it

    def __repr__(self) -> str:
        return f"Value(shape={self.shape}, op={self._op!r})"


def param(data) -> Value:
    """Create a trainable leaf."""
    return Value(data, requires_grad=True)


def constant(data) -> Value:
    return Value(data, requires_grad=False)


def topo_order(root: Value) -> list[Value]:
    """Topological order of the graph below `root` (children before parents).

    Iterative DFS: graph depth grows with sequence length, so recursion is
    off the table.  Children are tuples, which keeps the visit order (and
    hence float accumulation order) identical across runs.
    """
    order: list[Value] = []
    seen: set[int] = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in reversed(node._prev):
            if id(child) not in seen:
                stack.append((child, False))
    return order


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


def make_node(data, inputs: Sequence[Value], op: str) -> Value:
    """Graph-node constructor for every op: `_node` attaches most rules here;
    `narrow`, `take_rows` and the fused ops attach theirs via `out._backward`.
    A fused op keeps only what its rule reads: the alignment node, for one,
    only its two (n, n) arrays, not the (n, n, m) differences of its forward.

    The rule must hold `out` weakly (a `weakref.proxy` default argument):
    a strong reference would put every node in a cycle with its rule, so a
    step's graph would outlive its last reference until a full cyclic
    garbage collection.  It passes each input's gradient to `accumulate`
    (or adds into `scatter_target`), never into `grad` directly.

    `data` may be a view of an input's data, and a rule may read its
    inputs' data during backward.  That is safe because nothing writes
    into a non-leaf `Value.data`, and the optimizer writes leaves only
    after backward.  A rule reads its own node's gradient, never another
    node's: backward drops each intermediate's gradient once the node's
    rule has run, so `out.grad` holds only while that rule runs.

    Each op checks its operands itself before it builds a node: an
    operand that is not a `Value` is a `TypeError` (`_check`), and a
    misshapen operand, or bad `lengths` of a batched fused op
    (`_row_lengths`), a `ShapeError`, each naming the op."""
    needs = _grad_enabled and any(v.requires_grad for v in inputs)
    return Value(data, requires_grad=needs,
                 _prev=tuple(inputs) if needs else (), _op=op)


def _check(op: str, operands: Iterable) -> None:
    """An operand that is not a `Value` is a `TypeError` naming `op`."""
    for v in operands:
        if not isinstance(v, Value):
            raise TypeError(f"{op}: a {type(v).__name__} is not a Value")


def _axis(op: str, x: Value, axis: int) -> None:
    """An `axis` that `x` lacks is a `ShapeError` naming `op`."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"{op}: no axis {axis} in shape {x.shape}")


def _row_lengths(op: str, lengths, batch: int, length: int) -> np.ndarray:
    """A fused batched op's `lengths` as a (batch,) integer vector with
    every entry in [1, length]; anything else is a `ShapeError` naming
    `op`."""
    lengths = np.asarray(lengths)
    if (lengths.shape != (batch,) or lengths.dtype.kind not in "iu" or batch
            and not 1 <= lengths.min() <= lengths.max() <= length):
        raise ShapeError(
            f"{op}: lengths must be a ({batch},) integer vector with "
            f"entries in [1, {length}], got {lengths!r}")
    return lengths


def accumulate(node: Value, g: np.ndarray) -> None:
    """Add gradient `g` (shaped like `node`) into `node`'s gradient.

    The first gradient is kept by reference, without a copy: `g` may alias
    another node's gradient or data, so it is never written into.  A second
    gradient replaces a borrowed one with a fresh sum, which the node owns
    and adds any further gradient into in place.  Backward drops an
    intermediate's gradient after the node's rule, which releases a
    borrowed array only once no other node holds it."""
    if node._grad is None:
        node._grad = g
        node._owns_grad = False
    elif node._owns_grad:
        node._grad += g
    else:
        node._grad = node._grad + g
        node._owns_grad = True


def scatter_target(node: Value) -> np.ndarray:
    """`node`'s gradient as a writable buffer of the node's own, for rules
    that add into part of it: zeros if no gradient has arrived yet, else a
    private copy of a borrowed one."""
    if node._grad is None or not node._owns_grad:
        node._grad = (np.zeros_like(node.data) if node._grad is None
                      else node._grad.copy())
        node._owns_grad = True
    return node._grad


def _node(data, inputs: Sequence[Value], op: str, rules: Callable) -> Value:
    """An op's node.  Only when it needs a gradient does `rules()` run,
    returning one gradient function per input; the node's rule then passes
    `grads[i](g)`, for its gradient `g`, to each grad-requiring input through
    `accumulate`.  A gradient function reads only what it captured (arrays,
    shapes, the inputs), never the node, which the rule holds weakly."""
    out = make_node(data, inputs, op)
    if out.requires_grad:
        def _bw(out=weakref.proxy(out), grads=rules()):
            g = out._grad
            for v, grad in zip(inputs, grads):
                if v.requires_grad:
                    accumulate(v, grad(g))
        out._backward = _bw
    return out


def add(a: Value, b: Value) -> Value:
    _check("add", (a, b))
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape}: {exc}") from exc
    return _node(data, (a, b), "add", lambda: (
        lambda g: _unbroadcast(g, a.shape),
        lambda g: _unbroadcast(g, b.shape)))


def mul(a: Value, b: Value | float) -> Value:
    """Elementwise product; a Python number `b` is a constant scale."""
    if isinstance(b, (int, float)):
        b = constant(b)
    _check("mul", (a, b))
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape}: {exc}") from exc
    return _node(data, (a, b), "mul", lambda: (
        lambda g: _unbroadcast(g * b.data, a.shape),
        lambda g: _unbroadcast(g * a.data, b.shape)))


def matmul(a: Value, b: Value) -> Value:
    """numpy `@`: vectors, matrices, and (B, n, k) stacks, whose gradient
    with respect to a shared operand sums over the stack."""
    _check("matmul", (a, b))
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape}: {exc}") from exc

    def rules():
        # a vector acts as a one-row (left) or one-column (right) matrix
        a2 = a.data[None] if a.ndim == 1 else a.data
        b2 = b.data[:, None] if b.ndim == 1 else b.data

        def lift(g):
            g = g[..., None] if b.ndim == 1 else g
            return g[..., None, :] if a.ndim == 1 else g
        return (lambda g: _unbroadcast(lift(g) @ np.swapaxes(b2, -1, -2),
                                       a2.shape).reshape(a.shape),
                lambda g: _unbroadcast(np.swapaxes(a2, -1, -2) @ lift(g),
                                       b2.shape).reshape(b.shape))
    return _node(data, (a, b), "matmul", rules)


def concat(parts: Iterable[Value], axis: int = 0) -> Value:
    parts = list(parts)
    _check("concat", parts)
    if not parts:
        raise ShapeError("concat: no operands")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        shapes = [p.shape for p in parts]
        raise ShapeError(
            f"concat: shapes {shapes} along axis {axis}: {exc}") from exc

    def rules():
        lead = (slice(None),) * (axis % data.ndim)
        ends = itertools.accumulate(p.shape[axis] for p in parts)
        return [lambda g, sl=lead + (slice(end - p.shape[axis], end),): g[sl]
                for p, end in zip(parts, ends)]
    return _node(data, parts, "concat", rules)


def tanh(x: Value) -> Value:
    _check("tanh", (x,))
    t = np.tanh(x.data)
    return _node(t, (x,), "tanh", lambda: (lambda g: g * (1.0 - t * t),))


def softmax_array(z: np.ndarray, axis: int) -> np.ndarray:
    """`softmax`'s forward, which the loss backward and scoring share."""
    e = np.exp(z - np.max(z, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax(x: Value, axis: int) -> Value:
    """Shift-stabilized softmax along `axis`; rows sum to 1."""
    _check("softmax", (x,))
    _axis("softmax", x, axis)
    if x.shape[axis] == 0:
        raise ShapeError(f"softmax: empty axis {axis} in shape {x.shape}")
    p = softmax_array(x.data, axis)
    return _node(p, (x,), "softmax", lambda: (
        lambda g: p * (g - np.sum(g * p, axis=axis, keepdims=True)),))


def max_along(x: Value, axis: int) -> Value:
    """Max along `axis`; ties route the gradient to the first maximal index."""
    _check("max_along", (x,))
    _axis("max_along", x, axis)
    if x.shape[axis] == 0:
        raise ShapeError(f"max_along: empty axis {axis} in shape {x.shape}")

    def rules():
        sel = np.zeros(x.shape, dtype=bool)
        np.put_along_axis(sel, np.expand_dims(np.argmax(x.data, axis=axis),
                                              axis), True, axis=axis)
        return (lambda g: np.where(sel, np.expand_dims(g, axis), 0.0),)
    return _node(np.max(x.data, axis=axis), (x,), "max_along", rules)


def dropout(x: Value, rate: float, rng: np.random.Generator | None) -> Value:
    """Inverted dropout with a caller-owned seeded mask stream.

    Dropout runs exactly when a generator is passed: `rng=None` (scoring,
    gradient checks) or rate == 0 returns the input unchanged without
    consuming a stream.  A rate outside [0, 1) raises `ValueError` either
    way.
    """
    _check("dropout", (x,))
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    if rng is None or rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _node(x.data * mask, (x,), "dropout",
                 lambda: (lambda g: g * mask,))


def take_rows(table: Value, ids) -> Value:
    """Row lookup `table[ids]` by integer `ids`; the gradient scatter-adds
    into the table."""
    _check("take_rows", (table,))
    ids = np.asarray(ids)
    if table.ndim == 0 or ids.dtype.kind not in "iu":
        raise ShapeError(f"take_rows: need a table of rows and integer ids, "
                         f"got shape {table.shape} and {ids.dtype} ids")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"take_rows: ids outside [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}")
    out = make_node(table.data[ids], (table,), "take_rows")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            np.add.at(scatter_target(table), ids, out._grad)
        out._backward = _bw
    return out


def narrow(x: Value, axis: int, start: int, length: int) -> Value:
    """Contiguous slice [start, start+length) along `axis`, as a view."""
    _check("narrow", (x,))
    _axis("narrow", x, axis)
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise ShapeError(
            f"narrow: [{start}, {start + length}) outside axis {axis} "
            f"of shape {x.shape}")
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = make_node(x.data[sl], (x,), "narrow")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            scatter_target(x)[sl] += out._grad
        out._backward = _bw
    return out


def transpose(x: Value) -> Value:
    """Swap the last two axes of a matrix or of a (B, n, m) stack, as a
    view."""
    _check("transpose", (x,))
    if x.ndim not in (2, 3):
        raise ShapeError(f"transpose: need 2-D or 3-D, got {x.shape}")
    return _node(np.swapaxes(x.data, -1, -2), (x,), "transpose",
                 lambda: (lambda g: np.swapaxes(g, -1, -2),))


def reshape(x: Value, shape) -> Value:
    _check("reshape", (x,))
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(
            f"reshape: shape {x.shape} to {shape}: {exc}") from exc
    return _node(data, (x,), "reshape",
                 lambda: (lambda g: g.reshape(x.shape),))


def finite_difference_check(
    f: Callable[[], Value],
    params: dict[str, Value],
    samples_per_group: int,
) -> dict[str, float]:
    """Compare analytic gradients of `f` against central differences of
    step `FD_STEP`.

    `f` must be a deterministic closure over `params` returning a fresh
    scalar Value per call (dropout disabled).  Up to `samples_per_group`
    coordinates of every group, drawn with seed `FD_SEED`, are probed; the
    report maps group name to max relative error
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    The analytic gradients stay in each parameter's `grad`.  Fewer than
    one sample per group is a `ValueError`.
    """
    if samples_per_group < 1:
        raise ValueError(
            f"samples_per_group must be at least 1, got {samples_per_group}")
    for p in params.values():
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    rng = np.random.default_rng(FD_SEED)
    report: dict[str, float] = {}
    for name, p in params.items():
        n = p.data.size
        k = min(samples_per_group, n)
        coords = rng.choice(n, size=k, replace=False) if n > k else np.arange(n)
        worst = 0.0
        for i in coords:
            at = np.unravel_index(i, p.shape)  # a reshape may be a copy
            orig = p.data[at]
            with no_grad():
                p.data[at] = orig + FD_STEP
                f_plus = float(f().data)
                p.data[at] = orig - FD_STEP
                f_minus = float(f().data)
            p.data[at] = orig
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            ana = float(analytic[name][at])
            err = abs(ana - numeric) / max(1.0, abs(ana), abs(numeric))
            worst = max(worst, err)
        report[name] = worst
    return report
