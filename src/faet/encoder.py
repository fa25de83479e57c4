"""BiLSTM over the embedded sequence [x_1..x_n, e_1..e_m].

Emoji positions are encoded in-sequence after the text positions; each
output row is the concatenation [forward hidden ; backward hidden], so the
feature size is 2d.  A batch is zero-padded to its longest row; per-row
lengths keep both directions on each row's own prefix, and every padded
output is exactly 0.

Both directions are one fused graph node over packed time-major buffers
(Appleyard, Kocisky & Blunsom 2016, arXiv:1604.01946).  Inside the node the
rows are stably sorted longest first, so step t runs only the first a_t
rows, those longer than t, and the buffers hold just those (step, row)
pairs, step after step.  The input projection is one GEMM per direction
over all of them, outside the recurrence.  Each direction then runs a
time loop of its own that reads its own `(d, 4d)` recurrent matrix in
place, so the matrix stays cache-resident across the steps instead of
alternating with the other direction's (Diamos et al. 2016, "Persistent
RNNs").  The backward pass is one loop over both directions, which share
the packing.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import autograd as ag
from .autograd import ShapeError, Value


class LstmParams:
    """One direction's gate parameters.

    The four gates are packed column-wise as [input | forget | output |
    cell], so one input and one recurrent matmul give all four
    pre-activations.  Weights are seeded uniform in
    [-1/sqrt(d), 1/sqrt(d)] and the forget-gate bias block starts at 1.0
    for stable early training.
    """

    def __init__(self, d: int, d_in: int, rng: np.random.Generator | None):
        self.d = d
        scale = 1.0 / np.sqrt(d)
        self.w_in = ag.uniform_param(rng, -scale, scale, (d_in, 4 * d))
        self.w_rec = ag.uniform_param(rng, -scale, scale, (d, 4 * d))
        bias = np.zeros(4 * d)
        bias[d:2 * d] = 1.0
        self.bias = ag.param(bias)

    def parameters(self, prefix: str) -> dict[str, Value]:
        return {f"{prefix}.w_in": self.w_in,
                f"{prefix}.w_rec": self.w_rec,
                f"{prefix}.bias": self.bias}


def bilstm_encode_batch(seq: Value, fwd: LstmParams, bwd: LstmParams,
                        lengths) -> Value:
    """(B, L, d_in) padded batch with per-row `lengths` -> (B, L, 2d)
    features, as a single fused node.

    Row b is valid on its first `lengths[b]` positions, each an integer in
    [1, L].  The forward direction reads them left to right, the
    backward direction right to left from the row's last valid position;
    padding is never read and its outputs are 0.  Each step is
    the standard cell update: sigmoid input/forget/output gates, tanh
    candidate, c' = f*c + i*g, h' = o*tanh(c').  The backward rule is
    hand-rolled BPTT, checked against a per-step reference and central
    differences by the test suite.  Gate activations overwrite the input
    projection in place; without a gradient to compute, no per-step
    history is kept: each step's c, tanh(c) and h go into its own spent
    forget, candidate and input gate columns, and the two directions run
    one after the other through one `(total, 4d)` gate buffer.

    An operand that is not a `Value` is a `TypeError` naming `bilstm`.  A
    `seq` that is not 3-D, a direction whose `w_in`, `w_rec` and `bias`
    are not `(d_in, 4d)`, `(d, 4d)` and `(4d,)`, or bad `lengths` is a
    `ShapeError` naming `bilstm`.
    """
    params = (fwd, bwd)
    inputs = (seq,) + tuple(v for p in params
                            for v in (p.w_in, p.w_rec, p.bias))
    ag._check("bilstm", inputs)
    d = fwd.d
    shapes = [v.shape for v in inputs]
    if seq.ndim != 3 or shapes[1:] != 2 * [
            (seq.shape[2], 4 * d), (d, 4 * d), (4 * d,)]:
        raise ShapeError(
            f"bilstm: need a (B, L, d_in) seq and (d_in, 4d), (d, 4d) and "
            f"(4d,) weights per direction, d = {d}; got {shapes}")
    batch, length, d_in = seq.shape
    lengths = ag._row_lengths("bilstm", "lengths", lengths, batch, 1, length)

    # packed index p runs over (step, rank) pairs, step-major, where rank
    # orders the rows longest first; step t is the block
    # [starts[t], starts[t] + active[t]) and reads rows ranked < active[t]
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    steps = np.arange(length)
    active = (ranked > steps[:, None]).sum(axis=1)
    starts = np.concatenate(([0], np.cumsum(active)))
    total = int(starts[-1])
    step_of = np.repeat(steps, active)
    rank_of = np.arange(total) - starts[step_of]
    row_of = order[rank_of]
    # the position each direction reads at packed index p
    positions = (step_of, ranked[rank_of] - 1 - step_of)
    halves = (slice(0, d), slice(d, 2 * d))

    out = ag.make_node(np.zeros((batch, length, 2 * d)), inputs, "bilstm")
    keep = out.requires_grad
    gates = np.empty((2 if keep else 1, total, 4 * d))
    if keep:
        xs = []
        cells, tanh_c, hidden = (np.empty((2, total, d)) for _ in range(3))
    for k, p in enumerate(params):
        gk = gates[k if keep else 0]
        x = seq.data[row_of, positions[k]]                   # (N, d_in)
        np.matmul(x, p.w_in.data, out=gk)
        gk += p.bias.data
        # each step's c, tanh(c) and h: the histories when training, else
        # that step's spent forget, candidate and input gate columns
        if keep:
            xs.append(x)
            c_of, tc_of, h_of = cells[k], tanh_c[k], hidden[k]
        else:
            c_of, tc_of, h_of = gk[:, d:2 * d], gk[:, 3 * d:], gk[:, :d]
        del x  # the next direction's gather does not overlap this one
        w_rec = p.w_rec.data
        for t in range(length):
            a, lo = active[t], starts[t]
            rows = slice(lo, lo + a)
            z = gk[rows]                                     # (a_t, 4d)
            if t:
                prev = slice(starts[t - 1], starts[t - 1] + a)
                z += h_of[prev] @ w_rec
            # sigmoid(x) = 0.5 * tanh(0.5 * x) + 0.5 on the first three
            # blocks, so one tanh covers all four
            s = z[:, :3 * d]
            s *= 0.5
            np.tanh(z, out=z)
            s *= 0.5
            s += 0.5
            i, f, o = z[:, :d], z[:, d:2 * d], z[:, 2 * d:3 * d]
            g = z[:, 3 * d:]
            # when scoring, c_t is f itself: unused at t = 0, and later an
            # elementwise multiply into one of its own inputs reads each
            # element before writing it
            c_t = c_of[rows]
            if t:
                np.multiply(f, c_of[prev], out=c_t)
                c_t += i * g
            else:
                np.multiply(i, g, out=c_t)
            np.multiply(o, np.tanh(c_t, out=tc_of[rows]), out=h_of[rows])
        out.data[row_of, positions[k], halves[k]] = h_of

    if keep:
        def _bw(out=weakref.proxy(out)):
            d_hidden = np.empty((2, total, d))
            for k in range(2):
                d_hidden[k] = out.grad[row_of, positions[k], halves[k]]
            d_pre = np.empty((2, total, 4 * d))
            # rows ranked >= a_{t+1} ended at step t: no gradient from t+1
            dh_rec = np.zeros((2, batch, d))
            dc_rec = np.zeros((2, batch, d))
            for t in range(length - 1, -1, -1):
                a, lo = active[t], starts[t]
                rows = slice(lo, lo + a)
                z = gates[:, rows]
                i, f, o = z[..., :d], z[..., d:2 * d], z[..., 2 * d:3 * d]
                g = z[..., 3 * d:]
                tc = tanh_c[:, rows]
                dh = d_hidden[:, rows] + dh_rec[:, :a]
                dc = dh * o * (1.0 - tc * tc) + dc_rec[:, :a]
                blk = d_pre[:, rows]
                blk[..., :d] = dc * g * i * (1.0 - i)
                blk[..., 2 * d:3 * d] = dh * tc * o * (1.0 - o)
                blk[..., 3 * d:] = dc * i * (1.0 - g * g)
                if t:
                    prev = slice(starts[t - 1], starts[t - 1] + a)
                    blk[..., d:2 * d] = dc * cells[:, prev] * f * (1.0 - f)
                    np.multiply(dc, f, out=dc_rec[:, :a])
                    for k, p in enumerate(params):
                        np.matmul(blk[k], p.w_rec.data.T, out=dh_rec[k, :a])
                else:
                    blk[..., d:2 * d] = 0.0
            # h_{t-1} of each packed index of a step t >= 1, in order
            h_prev = np.arange(batch, total) - active[step_of[batch:] - 1]
            for k, p in enumerate(params):
                if p.w_in.requires_grad:
                    ag.accumulate(p.w_in, xs[k].T @ d_pre[k])
                if p.w_rec.requires_grad and total > batch:
                    ag.accumulate(p.w_rec,
                                  hidden[k, h_prev].T @ d_pre[k, batch:])
                if p.bias.requires_grad:
                    ag.accumulate(p.bias, d_pre[k].sum(axis=0))
                if seq.requires_grad:
                    dx = np.zeros(seq.shape)
                    dx[row_of, positions[k]] = d_pre[k] @ p.w_in.data.T
                    ag.accumulate(seq, dx)
        out._backward = _bw
    return out
