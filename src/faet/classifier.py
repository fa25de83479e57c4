"""TextCNN head over the encoded sequence plus the fused attention vector.

The fused vector is broadcast-concatenated onto every position, so each
convolution window sees both local sequence features and the global
attention summary.  Filters of widths {2, 3, 4} feed ReLU and
max-over-time pooling; pooled features map affinely to two logits.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Value

DEFAULT_WIDTHS = (2, 3, 4)


class TextCnnParams:
    def __init__(self, channels: int, n_filters: int,
                 rng: np.random.Generator, widths=DEFAULT_WIDTHS):
        self.channels = channels  # per-position features (2d + 4d)
        self.n_filters = n_filters
        self.widths = tuple(widths)
        self.filters = {}
        self.filter_bias = {}
        for w in self.widths:
            scale = 1.0 / np.sqrt(w * channels)
            self.filters[w] = ag.param(
                rng.uniform(-scale, scale, (n_filters, w * channels)))
            self.filter_bias[w] = ag.param(np.zeros(n_filters))
        pooled = len(self.widths) * n_filters
        scale = 1.0 / np.sqrt(pooled)
        self.out_w = ag.param(rng.uniform(-scale, scale, (pooled, 2)))
        self.out_b = ag.param(np.zeros(2))

    def parameters(self) -> dict[str, Value]:
        out = {}
        for w in self.widths:
            out[f"cnn.filters_w{w}"] = self.filters[w]
            out[f"cnn.bias_w{w}"] = self.filter_bias[w]
        out["out_w"] = self.out_w
        out["out_b"] = self.out_b
        return out


def textcnn_forward_batch(states: Value, summaries: Value,
                          params: TextCnnParams, dropout_rate: float = 0.0,
                          dropout_rng: np.random.Generator | None = None,
                          lengths=None) -> tuple[Value, Value]:
    """(B, L, 2d) padded states + (B, 4d) summaries -> ((B, 2) probs,
    (B, 2) logits); row b is valid on its first `lengths[b]` positions
    (all L when None).

    Filter columns [i*C, i*C + 2d) act on the state at shift i of a
    window and [i*C + 2d, (i+1)*C) on the row's summary, so a window is a
    sum of per-shift state products (one matrix product per width) plus
    one per-row summary term; neither windows nor the broadcast summary
    are built.  Max-over-time pools each row's valid windows: widths
    longer than a row contribute zero pooled features.  Dropout applies to
    the pooled features only when a rate and rng are given (training).
    """
    batch, length, hidden = states.shape
    fdim = summaries.shape[1]
    f = params.n_filters
    valid = np.reshape(length if lengths is None else lengths, (-1, 1, 1))
    flat = ag.reshape(states, (batch * length, hidden))

    pooled = []
    for w in params.widths:
        n_out = length - w + 1
        if n_out < 1:
            pooled.append(ag.constant(np.zeros((batch, f))))
            continue
        bank = ag.reshape(params.filters[w], (f, w, hidden + fdim))
        # (B, L, F, w): filter f's shift-i state block at every position
        shifted = ag.reshape(
            ag.matmul(flat, ag.transpose(ag.reshape(
                ag.narrow(bank, 2, 0, hidden), (f * w, hidden)))),
            (batch, length, f, w))
        shifts = [ag.narrow(ag.narrow(shifted, 3, i, 1), 1, i, n_out)
                  for i in range(w)]                         # (B, n_out, F, 1)
        summary_bank = ag.sum_along(ag.narrow(bank, 2, hidden, fdim), axis=1)
        per_row = ag.add(ag.matmul(summaries, ag.transpose(summary_bank)),
                         params.filter_bias[w])                  # (B, F)
        conv = ag.relu(ag.add(
            ag.reshape(sum(shifts[1:], shifts[0]), (batch, n_out, f)),
            ag.reshape(per_row, (batch, 1, f))))
        # ReLU outputs are >= 0, so zeroing invalid windows leaves every
        # valid maximum in place and pools a window-less row to 0
        mask = np.arange(n_out)[:, None] < valid - w + 1
        pooled.append(ag.max_along(ag.mul(conv, ag.constant(mask)), axis=1))
    feats = ag.concat(pooled, axis=1)  # (B, widths * n_filters)
    if dropout_rate > 0.0 and dropout_rng is not None:
        feats = ag.dropout(feats, dropout_rate, dropout_rng)
    logits = ag.add(ag.matmul(feats, params.out_w), params.out_b)
    return ag.softmax(logits, axis=1), logits


def predict_label(probs) -> int:
    """Argmax over the 2-vector; an exact tie resolves to 0 (negative)."""
    p = probs.data if isinstance(probs, Value) else np.asarray(probs)
    return 1 if p[1] > p[0] else 0
