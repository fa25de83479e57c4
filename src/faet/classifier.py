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
                          dropout_rng: np.random.Generator | None = None
                          ) -> tuple[Value, Value]:
    """(B, L, 2d) same-length states + (B, 4d) summaries -> ((B, 2) probs,
    (B, 2) logits).

    The convolution is expressed as window gathering plus one matrix
    product per width, so the whole batch reads each filter bank once.
    Widths longer than the sequence contribute zero pooled features.
    Dropout applies to the pooled features only when a rate and rng are
    given (training).
    """
    batch, length, _ = states.shape
    fdim = summaries.shape[1]
    grid = ag.broadcast_to(ag.reshape(summaries, (batch, 1, fdim)),
                           (batch, length, fdim))
    per_pos = ag.concat([states, grid], axis=2)  # (B, L, channels)
    channels = per_pos.shape[2]

    pooled = []
    for w in params.widths:
        if length >= w:
            n_out = length - w + 1
            windows = ag.concat([ag.narrow(per_pos, 1, i, n_out)
                                 for i in range(w)], axis=2)
            flat = ag.reshape(windows, (batch * n_out, w * channels))
            conv = ag.add(ag.matmul(flat, ag.transpose(params.filters[w])),
                          params.filter_bias[w])
            conv = ag.relu(ag.reshape(conv, (batch, n_out, params.n_filters)))
            pooled.append(ag.max_along(conv, axis=1))  # (B, n_filters)
        else:
            pooled.append(ag.constant(np.zeros((batch, params.n_filters))))
    feats = ag.concat(pooled, axis=1)  # (B, widths * n_filters)
    if dropout_rate > 0.0 and dropout_rng is not None:
        feats = ag.dropout(feats, dropout_rate, dropout_rng)
    logits = ag.add(ag.matmul(feats, params.out_w), params.out_b)
    return ag.softmax(logits, axis=1), logits


def predict_label(probs) -> int:
    """Argmax over the 2-vector; an exact tie resolves to 0 (negative)."""
    p = probs.data if isinstance(probs, Value) else np.asarray(probs)
    return 1 if p[1] > p[0] else 0
