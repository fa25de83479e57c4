"""TextCNN head over the encoded sequence plus the fused attention vector.

Each position's features are its hidden state concatenated with the
fused vector, so each convolution window sees both local sequence
features and the global attention summary.  Filters of widths {2, 3, 4}
feed ReLU and max-over-time pooling; pooled features map affinely to two
logits.  Convolution, ReLU and pooling for every width are one
hand-written graph node over the padded batch, with a backward that
writes straight into the filters' parameter layout; dropout and the
output layer stay ordinary graph ops, and the head ends at the logits.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import autograd as ag
from .autograd import ShapeError, Value


class TextCnnParams:
    """Filters over positions [state ; summary].  Columns
    [i*hidden, (i+1)*hidden) of `filters[w]` act on a window's state at
    shift i.  The summary is the same at every shift, so its columns are
    stored once, summed over the shifts: `summary` rows [k*F, (k+1)*F)
    serve `widths[k]`.  A seeded build draws full-width filters
    (`set_full_width`); `rng=None` draws nothing (`ag.uniform_param`)."""

    def __init__(self, hidden: int, summary_dim: int, n_filters: int,
                 rng: np.random.Generator | None, widths):
        self.n_filters = n_filters
        self.widths = tuple(widths)
        pooled = len(self.widths) * n_filters
        self.filters = {w: ag.param(np.empty((n_filters, w * hidden)))
                        for w in self.widths}
        self.filter_bias = {w: ag.param(np.zeros(n_filters))
                            for w in self.widths}
        self.summary = ag.param(np.empty((pooled, summary_dim)))
        channels = hidden + summary_dim
        for w in self.widths if rng is not None else ():
            scale = 1.0 / np.sqrt(w * channels)
            self.set_full_width(w, rng.uniform(
                -scale, scale, (n_filters, w * channels)))
        scale = 1.0 / np.sqrt(pooled)
        self.out_w = ag.uniform_param(rng, -scale, scale, (pooled, 2))
        self.out_b = ag.param(np.zeros(2))

    def set_full_width(self, w: int, full: np.ndarray) -> None:
        """Set width `w` from an (F, w * (hidden + summary_dim)) filter with
        summary columns at every shift: copy its state columns, and sum
        its summary columns over the shifts in order into `w`'s blocks of
        `summary`."""
        state = self.filters[w].data
        f, hidden = self.n_filters, state.shape[1] // w
        full = full.reshape(f, w, -1)
        np.copyto(state.reshape(f, w, hidden), full[:, :, :hidden])
        for k in (k for k, v in enumerate(self.widths) if v == w):
            block = self.summary.data[k * f:(k + 1) * f]
            np.copyto(block, full[:, 0, hidden:])
            for i in range(1, w):
                block += full[:, i, hidden:]

    def parameters(self) -> dict[str, Value]:
        out = {}
        for w in self.widths:
            out[f"cnn.filters_w{w}"] = self.filters[w]
            out[f"cnn.bias_w{w}"] = self.filter_bias[w]
        out["cnn.summary"] = self.summary
        out["out_w"] = self.out_w
        out["out_b"] = self.out_b
        return out


def textcnn_forward_batch(states: Value, summaries: Value,
                          params: TextCnnParams, lengths,
                          dropout_rate: float = 0.0,
                          dropout_rng: np.random.Generator | None = None
                          ) -> Value:
    """(B, L, 2d) padded states + (B, 4d) summaries -> (B, 2) logits; row
    b is valid on its first `lengths[b]` positions.

    Convolution, ReLU and max-over-time pooling are one fused node (see
    `_conv_pool`); dropout at `dropout_rate` applies to the pooled
    features when `dropout_rng` is given (see `ag.dropout`).

    An operand that is not a `Value`, a weight of `params` included, is a
    `TypeError` naming `textcnn`.  States that are not 3-D, summaries
    that are not one row per state row, a weight whose shape does not fit
    them (see `TextCnnParams`), or `lengths` that are not one integer in
    [1, L] per row is a `ShapeError` naming `textcnn`.
    """
    widths, f = params.widths, params.n_filters
    weights = ([params.filters[w] for w in widths]
               + [params.filter_bias[w] for w in widths]
               + [params.summary, params.out_w, params.out_b])
    ag._check("textcnn", (states, summaries, *weights))
    pooled, shapes = len(widths) * f, [v.shape for v in weights]
    if (states.ndim != 3 or summaries.ndim != 2
            or len(summaries.data) != len(states.data)
            or shapes != [(f, w * states.shape[2]) for w in widths]
            + [(f,)] * len(widths)
            + [(pooled, summaries.shape[1]), (pooled, 2), (2,)]):
        raise ShapeError(
            f"textcnn: states {states.shape} and summaries "
            f"{summaries.shape} do not fit the filters, biases, summary "
            f"weights and output layer of widths {widths}: {shapes}")
    lengths = ag._row_lengths("textcnn", "lengths", lengths,
                              len(states.data), 1, states.shape[1])
    feats = ag.dropout(_conv_pool(states, summaries, params, lengths),
                       dropout_rate, dropout_rng)
    return ag.add(ag.matmul(feats, params.out_w), params.out_b)


def _shift_products(length: int, width: int) -> bool:
    """True when the backward of width `width` over rows of `length`
    positions takes the per-shift form: the window gradients reach
    `(length - width + 1) * width` of the `length * width` (position,
    shift) products that one GEMM over all positions covers, and the
    per-shift form covers only those.  It pays off once at most 3/4 of
    them are reached (stock rows of 4 positions: every width; long rows
    keep the one GEMM).  The forward always runs per shift."""
    return 4 * (length - width + 1) <= 3 * length


def _conv_pool(states: Value, summaries: Value, params: TextCnnParams,
               lengths) -> Value:
    """(B, L, 2d) states + (B, 4d) summaries -> (B, widths * F) pooled
    features, width by width, as one graph node.

    A window is a sum of per-shift state products plus one per-row
    summary term (see `TextCnnParams`).  The forward reads one
    time-major `(L·B, 2d)` copy of the states and builds each width's
    `(n_out, B, F)` window sums as one GEMM per shift, of the rows that
    window at that shift against that shift's state block.  The backward
    takes one of two forms per width (`_shift_products`): the same
    per-shift GEMMs, or one GEMM of all positions against every (filter,
    shift) state block.  The summary terms of all widths are one GEMM
    against `params.summary`.  Neither windows nor the broadcast summary
    are built; the states' gradient is one time-major buffer.  Max-over-time
    pools each row's valid windows: ReLU outputs are >= 0, so zeroing
    invalid windows leaves every valid maximum in place and pools a
    window-less row (or a width longer than L) to 0.  Ties route the
    gradient to the first maximal window; the winning windows are found
    only when the node can run backward.
    """
    batch, length, hidden = states.shape
    f = params.n_filters
    widths = params.widths
    filters = [params.filters[w] for w in widths]
    biases = [params.filter_bias[w] for w in widths]
    banks = [p.data.reshape(f, w, hidden) for p, w in zip(filters, widths)]
    summary_w = params.summary
    per_row = (summaries.data @ summary_w.data.T
               + np.concatenate([b.data for b in biases]))
    feats = np.zeros((batch, len(widths) * f))
    out = ag.make_node(feats, (states, summaries, *filters, summary_w,
                               *biases), "textcnn")
    # time-major rows: position t of every row is rows [t*B, (t+1)*B)
    steps = np.ascontiguousarray(states.data.transpose(1, 0, 2)).reshape(
        length * batch, hidden)
    valid = lengths[None]
    # per width, for the backward only: each (row, filter)'s winning
    # window, or None (no window fits, or no backward will run)
    args = []
    for k, (w, bank) in enumerate(zip(widths, banks)):
        n_out = length - w + 1
        if n_out < 1:
            args.append(None)
            continue
        conv = steps[:n_out * batch] @ bank[:, 0].T
        for i in range(1, w):
            conv += steps[i * batch:(i + n_out) * batch] @ bank[:, i].T
        conv = conv.reshape(n_out, batch, f)
        conv += per_row[:, k * f:(k + 1) * f]
        np.maximum(conv, 0.0, out=conv)
        conv *= (np.arange(n_out)[:, None] < valid - w + 1)[..., None]
        args.append(conv.argmax(axis=0) if out.requires_grad      # (B, F)
                    else None)
        feats[:, k * f:(k + 1) * f] = conv.max(axis=0)

    if out.requires_grad:
        # the gradient reaches a window only where it won a positive maximum
        live = feats > 0.0
        rows = np.arange(batch)[:, None]
        cols = np.arange(f)

        def _bw(out=weakref.proxy(out)):
            g = out.grad * live                          # (B, widths * F)
            if summaries.requires_grad:
                ag.accumulate(summaries, g @ summary_w.data)
            if summary_w.requires_grad:
                ag.accumulate(summary_w, g.T @ summaries.data)
            d_steps = np.zeros_like(steps) if states.requires_grad else None
            for k, (w, bank, arg) in enumerate(zip(widths, banks, args)):
                block = slice(k * f, (k + 1) * f)
                if biases[k].requires_grad:
                    ag.accumulate(biases[k], g[:, block].sum(axis=0))
                if arg is None:
                    continue  # no window: the filters get no gradient
                need = filters[k].requires_grad
                if _shift_products(length, w):
                    n_out = length - w + 1
                    grad = np.empty(bank.shape) if need else None
                    d_conv = np.zeros((n_out, batch, f))
                    d_conv[arg, rows, cols] = g[:, block]
                    d_conv = d_conv.reshape(n_out * batch, f)
                    for i in range(w):
                        window = slice(i * batch, (i + n_out) * batch)
                        if d_steps is not None:
                            d_steps[window] += d_conv @ bank[:, i]
                        if grad is not None:
                            grad[:, i] = d_conv.T @ steps[window]
                else:
                    shifts = np.arange(w)
                    d_shifted = np.zeros((length, batch, f, w))
                    d_shifted[arg[..., None] + shifts, rows[..., None],
                              cols[:, None], shifts] = g[:, block, None]
                    d_shifted = d_shifted.reshape(length * batch, f * w)
                    if d_steps is not None:
                        d_steps += d_shifted @ bank.reshape(f * w, hidden)
                    grad = d_shifted.T @ steps if need else None
                if grad is not None:
                    ag.accumulate(filters[k], grad.reshape(f, -1))
            if d_steps is not None:
                ag.accumulate(states, d_steps.reshape(
                    length, batch, hidden).transpose(1, 0, 2))
        out._backward = _bw
    return out


def predict_label(probs: np.ndarray) -> int:
    """Argmax over a probability row; an exact tie resolves to 0 (negative)."""
    return 1 if probs[1] > probs[0] else 0
