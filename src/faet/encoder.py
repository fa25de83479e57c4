"""BiLSTM over the embedded sequence [x_1..x_n, e_1..e_m].

Emoji positions are encoded in-sequence after the text positions; each
output row is the concatenation [forward hidden ; backward hidden], so the
feature size is 2d.  A batch is zero-padded to its longest row; per-row
lengths keep each row's backward direction on its own prefix.

Both directions run as one fused graph node over time-major buffers, with
the stacked direction as the leading axis: the input projection is one
GEMM per direction over all (time, row) pairs, outside the recurrence, and
one time loop steps both recurrences with a single stacked
`(2, B, d) @ (2, d, 4d)` product per step (Appleyard, Kocisky & Blunsom
2016, arXiv:1604.01946).  The backward pass is one loop over both
directions as well.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import autograd as ag
from .autograd import Value, sigmoid_inplace


class LstmParams:
    """One direction's gate parameters.

    The four gates are packed column-wise as [input | forget | output |
    cell], so one input and one recurrent matmul give all four
    pre-activations.  Weights are seeded uniform in
    [-1/sqrt(d), 1/sqrt(d)] and the forget-gate bias block starts at 1.0
    for stable early training.
    """

    def __init__(self, d: int, d_in: int, rng: np.random.Generator):
        self.d = d
        self.d_in = d_in
        scale = 1.0 / np.sqrt(d)
        self.w_in = ag.param(rng.uniform(-scale, scale, (d_in, 4 * d)))
        self.w_rec = ag.param(rng.uniform(-scale, scale, (d, 4 * d)))
        bias = np.zeros(4 * d)
        bias[d:2 * d] = 1.0
        self.bias = ag.param(bias)

    def parameters(self, prefix: str) -> dict[str, Value]:
        return {f"{prefix}.w_in": self.w_in,
                f"{prefix}.w_rec": self.w_rec,
                f"{prefix}.bias": self.bias}


def bilstm_encode_batch(seq: Value, fwd: LstmParams, bwd: LstmParams,
                        lengths=None) -> Value:
    """(B, L, d_in) padded batch with per-row `lengths` (None: all L) ->
    (B, L, 2d) features, as a single fused node.

    Row b is valid on its first `lengths[b]` positions.  The forward
    direction runs left to right over all L positions; the backward
    direction starts at each row's last valid position, so padding never
    reaches a valid output.  Each step is the standard cell update: sigmoid
    input/forget/output gates, tanh candidate, c' = f*c + i*g,
    h' = o*tanh(c').  The backward rule is hand-rolled BPTT, checked
    against a per-step reference and central differences by the test
    suite.  Gate activations overwrite the input projection in place;
    without a gradient to compute, no per-step cell, tanh(c) or hidden
    history is kept.
    """
    d = fwd.d
    batch, length, d_in = seq.shape
    params = (fwd, bwd)
    out = ag.make_node(np.empty((batch, length, 2 * d)),
                       (seq,) + tuple(v for p in params
                                      for v in (p.w_in, p.w_rec, p.bias)),
                       "bilstm")
    keep = out.requires_grad
    # step t of direction k reads position orders[k][b, t] of row b: left
    # to right, or each row's valid prefix back to front with padding in
    # place; both are their own inverse, so they also map outputs back
    steps = np.arange(length)
    valid = np.reshape(length if lengths is None else lengths, (-1, 1))
    orders = (np.broadcast_to(steps, (batch, length)),
              np.where(steps < valid, valid - 1 - steps, steps))
    rows = np.arange(batch)
    halves = (slice(0, d), slice(d, 2 * d))

    # time-major inputs, (L*B, d_in) each, and their projections
    xs = [seq.data[rows, order.T].reshape(length * batch, d_in)
          for order in orders]
    gates = np.empty((2, length, batch, 4 * d))
    for k, p in enumerate(params):
        flat = gates[k].reshape(length * batch, 4 * d)
        np.matmul(xs[k], p.w_in.data, out=flat)
        flat += p.bias.data
    w_rec = np.stack([fwd.w_rec.data, bwd.w_rec.data])          # (2, d, 4d)

    hidden = np.empty((2, length, batch, d)) if keep else None
    cells = np.empty((2, length, batch, d)) if keep else None
    tanh_c = np.empty((2, length, batch, d)) if keep else None
    c = np.zeros((2, batch, d))
    for t in range(length):
        z = gates[:, t]                                         # (2, B, 4d)
        if t:
            z += h @ w_rec
        sigmoid_inplace(z[..., :3 * d])
        np.tanh(z[..., 3 * d:], out=z[..., 3 * d:])
        i, f, o = z[..., :d], z[..., d:2 * d], z[..., 2 * d:3 * d]
        g = z[..., 3 * d:]
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        for k in range(2):
            out.data[rows, orders[k][:, t], halves[k]] = h[k]
        if keep:
            cells[:, t], tanh_c[:, t], hidden[:, t] = c, tc, h

    if keep:
        def _bw(out=weakref.proxy(out)):
            d_hidden = np.empty((2, length, batch, d))
            for k in range(2):
                d_hidden[k] = out.grad[rows, orders[k].T, halves[k]]
            d_pre = np.empty((2, length, batch, 4 * d))
            dh_rec = np.zeros((2, batch, d))
            dc_rec = np.zeros((2, batch, d))
            for t in range(length - 1, -1, -1):
                z = gates[:, t]
                i, f, o = z[..., :d], z[..., d:2 * d], z[..., 2 * d:3 * d]
                g = z[..., 3 * d:]
                tc = tanh_c[:, t]
                dh = d_hidden[:, t] + dh_rec
                dc = dh * o * (1.0 - tc * tc) + dc_rec
                blk = d_pre[:, t]
                blk[..., :d] = dc * g * i * (1.0 - i)
                blk[..., 2 * d:3 * d] = dh * tc * o * (1.0 - o)
                blk[..., 3 * d:] = dc * i * (1.0 - g * g)
                if t:
                    blk[..., d:2 * d] = dc * cells[:, t - 1] * f * (1.0 - f)
                    dc_rec = dc * f
                    for k, p in enumerate(params):
                        np.matmul(blk[k], p.w_rec.data.T, out=dh_rec[k])
                else:
                    blk[..., d:2 * d] = 0.0
            for k, p in enumerate(params):
                flat_pre = d_pre[k].reshape(length * batch, 4 * d)
                if p.w_in.requires_grad:
                    ag.accumulate(p.w_in, xs[k].T @ flat_pre)
                if p.w_rec.requires_grad and length > 1:
                    # h_{t-1} against the pre-activations of step t >= 1
                    ag.accumulate(p.w_rec, hidden[k, :-1].reshape(-1, d).T
                                  @ d_pre[k, 1:].reshape(-1, 4 * d))
                if p.bias.requires_grad:
                    ag.accumulate(p.bias, flat_pre.sum(axis=0))
                if seq.requires_grad:
                    dx = (flat_pre @ p.w_in.data.T).reshape(length, batch, d_in)
                    ag.accumulate(seq, dx[orders[k], rows[:, None]])
        out._backward = _bw
    return out
