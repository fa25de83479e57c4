"""Reverse-mode automatic differentiation over dense float64 arrays.

A `Value` wraps a numpy array together with an accumulated gradient and a
backward rule.  Operations build an implicit computation graph through the
`_prev` links; `Value.backward()` topologically sorts the graph and applies
the chain rule in reverse.  Everything is float64 and single-threaded, so a
seeded forward/backward replay is bitwise reproducible.

Backward allocates only where a gradient lands (Paszke et al. 2017,
"Automatic differentiation in PyTorch"): a node, leaf or intermediate,
starts without a gradient buffer and borrows its first incoming gradient
by reference through `accumulate`; the rules that add into part of a
gradient (`narrow`, `take_rows`) first take a buffer the node owns
through `scatter_target`.  So a model that only scores never allocates a
gradient, and `zero_grad` drops a buffer instead of clearing it.
`narrow` and `transpose` return views of their input rather than copies.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

LOG_CLAMP = 1e-12


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
    documented behavior (callers reset with `zero_grad`); an
    intermediate's gradient is reset per call.  Reading `grad` on a
    grad-requiring leaf that no gradient reached gives an exact-zero
    buffer of the leaf's own, which may be written into; an intermediate
    no gradient reached reads None.  Graph code reads the `_grad` slot,
    where an unreached leaf holds None.
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

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self._grad = None  # dropped, not zeroed: it may be borrowed

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable grad-requiring leaf.

        Intermediate grads are reset per call; leaf grads accumulate across
        calls.  A node that no gradient reaches keeps no gradient and its
        rule is skipped.  Raises unless `self` is scalar.
        """
        if self.size != 1:
            raise ShapeError(
                f"backward: loss must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            return
        order = topo_order(self)
        for node in order:
            if node._prev:
                node._grad = None
        accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node._grad is not None:
                node._backward()

    def __repr__(self) -> str:
        return f"Value(shape={self.shape}, op={self._op!r})"

    # operator sugar; everything routes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_coerce(other), -1.0))

    def __rsub__(self, other):
        return add(_coerce(other), mul(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)


def param(data) -> Value:
    """Create a trainable leaf."""
    return Value(data, requires_grad=True)


def constant(data) -> Value:
    return Value(data, requires_grad=False)


def _coerce(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


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
    """Graph-node constructor for ops (including fused ops defined outside
    this module): callers attach the backward rule via `out._backward`.

    The rule must hold `out` weakly (a `weakref.proxy` default argument):
    a strong reference would put every node in a cycle with its rule, so a
    step's graph would outlive its last reference until a full cyclic
    garbage collection.  It passes each input's gradient to `accumulate`
    (or adds into `scatter_target`), never into `grad` directly.

    `data` may be a view of an input's data, and a rule may read its
    inputs' data during backward.  That is safe because nothing writes
    into a non-leaf `Value.data`, and the optimizer writes leaves only
    after backward."""
    needs = False
    if _grad_enabled:
        for v in inputs:
            if v.requires_grad:
                needs = True
                break
    return Value(data, requires_grad=needs,
                 _prev=tuple(inputs) if needs else (), _op=op)


def accumulate(node: Value, g: np.ndarray) -> None:
    """Add gradient `g` (shaped like `node`) into `node`'s gradient.

    The first gradient is kept by reference, without a copy: `g` may alias
    another node's gradient or data, so it is never written into.  A second
    gradient replaces a borrowed one with a fresh sum, which the node owns
    and adds any further gradient into in place."""
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


def add(a, b) -> Value:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape}: {exc}") from exc
    out = make_node(data, (a, b), "add")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if a.requires_grad:
                accumulate(a, _unbroadcast(out._grad, a.shape))
            if b.requires_grad:
                accumulate(b, _unbroadcast(out._grad, b.shape))
        out._backward = _bw
    return out


def mul(a, b) -> Value:
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape}: {exc}") from exc
    out = make_node(data, (a, b), "mul")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if a.requires_grad:
                accumulate(a, _unbroadcast(out._grad * b.data, a.shape))
            if b.requires_grad:
                accumulate(b, _unbroadcast(out._grad * a.data, b.shape))
        out._backward = _bw
    return out


def matmul(a, b) -> Value:
    """numpy `@`: vectors, matrices, and (B, n, k) stacks, whose gradient
    with respect to a shared operand sums over the stack."""
    a, b = _coerce(a), _coerce(b)
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape}: {exc}") from exc
    out = make_node(data, (a, b), "matmul")
    if out.requires_grad:
        # a vector acts as a one-row (left) or one-column (right) matrix
        a2 = a.data[None] if a.ndim == 1 else a.data
        b2 = b.data[:, None] if b.ndim == 1 else b.data

        def _bw(out=weakref.proxy(out)):
            g = out._grad[..., None] if b.ndim == 1 else out._grad
            g = g[..., None, :] if a.ndim == 1 else g
            if a.requires_grad:
                accumulate(a, _unbroadcast(g @ np.swapaxes(b2, -1, -2),
                                           a2.shape).reshape(a.shape))
            if b.requires_grad:
                accumulate(b, _unbroadcast(np.swapaxes(a2, -1, -2) @ g,
                                           b2.shape).reshape(b.shape))
        out._backward = _bw
    return out


def concat(parts: Iterable[Value], axis: int = 0) -> Value:
    parts = [_coerce(p) for p in parts]
    if not parts:
        raise ShapeError("concat: no operands")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        shapes = [p.shape for p in parts]
        raise ShapeError(f"concat(axis={axis}): shapes {shapes}: {exc}") from exc
    out = make_node(data, parts, "concat")
    if out.requires_grad:
        sizes = [p.shape[axis] for p in parts]
        def _bw(out=weakref.proxy(out)):
            start = 0
            for p, length in zip(parts, sizes):
                if p.requires_grad:
                    sl = [slice(None)] * out._grad.ndim
                    sl[axis] = slice(start, start + length)
                    accumulate(p, out._grad[tuple(sl)])
                start += length
        out._backward = _bw
    return out


def sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """Logistic sigmoid written into `z` and returned, as
    0.5 * tanh(0.5 * z) + 0.5: no exp() to overflow for any input, and
    within 2.2e-16 of the two-branch exp() form."""
    z *= 0.5
    np.tanh(z, out=z)
    z *= 0.5
    z += 0.5
    return z


def sigmoid(x) -> Value:
    x = _coerce(x)
    out = make_node(sigmoid_inplace(x.data.copy()), (x,), "sigmoid")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                s = out.data
                accumulate(x, out._grad * s * (1.0 - s))
        out._backward = _bw
    return out


def tanh(x) -> Value:
    x = _coerce(x)
    out = make_node(np.tanh(x.data), (x,), "tanh")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                accumulate(x, out._grad * (1.0 - out.data * out.data))
        out._backward = _bw
    return out


def log(x) -> Value:
    """Natural log with the input clamped at LOG_CLAMP (keeps -inf out)."""
    x = _coerce(x)
    clamped = np.maximum(x.data, LOG_CLAMP)
    out = make_node(np.log(clamped), (x,), "log")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                accumulate(x, out._grad / clamped)
        out._backward = _bw
    return out


def softmax(x, axis: int = -1) -> Value:
    """Shift-stabilized softmax along `axis`; rows sum to 1."""
    x = _coerce(x)
    if x.data.shape[axis] == 0:
        raise ShapeError(f"softmax: empty axis {axis} in shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / np.sum(e, axis=axis, keepdims=True)
    out = make_node(p, (x,), "softmax")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                g = out._grad
                dot = np.sum(g * p, axis=axis, keepdims=True)
                accumulate(x, p * (g - dot))
        out._backward = _bw
    return out


def max_along(x, axis: int) -> Value:
    """Max along `axis`; ties route the gradient to the first maximal index."""
    x = _coerce(x)
    if x.data.shape[axis] == 0:
        raise ShapeError(f"max_along: empty axis {axis} in shape {x.shape}")
    idx = np.argmax(x.data, axis=axis)
    data = np.max(x.data, axis=axis)
    out = make_node(data, (x,), "max")
    if out.requires_grad:
        sel = np.zeros(x.shape, dtype=bool)
        np.put_along_axis(sel, np.expand_dims(idx, axis), True, axis=axis)
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                accumulate(x, np.where(sel, np.expand_dims(out._grad, axis),
                                       0.0))
        out._backward = _bw
    return out


def sum_along(x, axis: int | None = None) -> Value:
    x = _coerce(x)
    out = make_node(np.sum(x.data, axis=axis), (x,), "sum")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                g = (out._grad if axis is None
                     else np.expand_dims(out._grad, axis))
                accumulate(x, np.broadcast_to(g, x.shape))
        out._backward = _bw
    return out


def dropout(x, rate: float, rng: np.random.Generator) -> Value:
    """Inverted dropout with a caller-owned seeded mask stream.

    rate == 0 returns the input unchanged without consuming the stream;
    callers disable dropout entirely during evaluation and gradient checks.
    """
    x = _coerce(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    if rate == 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = make_node(x.data * mask, (x,), "dropout")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                accumulate(x, out._grad * mask)
        out._backward = _bw
    return out


def take_rows(table, ids) -> Value:
    """Row lookup `table[ids]`; the gradient scatter-adds into the table."""
    table = _coerce(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"take_rows: ids outside [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}")
    out = make_node(table.data[ids], (table,), "take_rows")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if table.requires_grad:
                np.add.at(scatter_target(table), ids, out._grad)
        out._backward = _bw
    return out


def narrow(x, axis: int, start: int, length: int) -> Value:
    """Contiguous slice [start, start+length) along `axis`, as a view."""
    x = _coerce(x)
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(
            f"narrow: [{start}, {start + length}) outside axis {axis} "
            f"of shape {x.shape}")
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = make_node(x.data[sl], (x,), "narrow")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                scatter_target(x)[sl] += out._grad
        out._backward = _bw
    return out


def transpose(x) -> Value:
    """Swap the last two axes of a matrix or of a (B, n, m) stack, as a
    view."""
    x = _coerce(x)
    if x.ndim not in (2, 3):
        raise ShapeError(f"transpose: need 2-D or 3-D, got {x.shape}")
    out = make_node(np.swapaxes(x.data, -1, -2), (x,), "transpose")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                accumulate(x, np.swapaxes(out._grad, -1, -2))
        out._backward = _bw
    return out


def reshape(x, shape) -> Value:
    x = _coerce(x)
    out = make_node(x.data.reshape(shape), (x,), "reshape")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            if x.requires_grad:
                accumulate(x, out._grad.reshape(x.shape))
        out._backward = _bw
    return out


def finite_difference_check(
    f: Callable[[], Value],
    params: dict[str, Value],
    h: float = 1e-5,
    samples_per_group: int = 8,
    seed: int = 0,
) -> dict[str, float]:
    """Compare analytic gradients of `f` against central differences.

    `f` must be a deterministic closure over `params` returning a fresh
    scalar Value per call (dropout disabled).  At least `samples_per_group`
    coordinates of every group are probed; the report maps group name to
    max relative error |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    for p in params.values():
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        k = min(max(samples_per_group, 1), n)
        coords = rng.choice(n, size=k, replace=False) if n > k else np.arange(n)
        worst = 0.0
        for i in coords:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                f_plus = float(f().data)
                flat[i] = orig - h
                f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            ana = float(analytic[name].reshape(-1)[i])
            err = abs(ana - numeric) / max(1.0, abs(ana), abs(numeric))
            worst = max(worst, err)
        report[name] = worst
    return report
