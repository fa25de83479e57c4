"""Training losses: cross-entropy plus the attention-alignment term.

The alignment term rewards text-word pairs for attending to different
emojis in proportion to a learned pair distance: for each unordered pair
(i, o), loss -= d_io * sum_k (beta_ik - beta_ok)^2, with d_io the mean of
sigmoid(w . [t_i ; t_o]) and sigmoid(w . [t_o ; t_i]).  Splitting w into
its halves gives every ordered score as a_i + c_o, with a = T @ w[:2d] and
c = T @ w[2d:], so the whole sum is -0.5 * sum over all (i, o) of
s_io * sq_io, with s_io = sigmoid(a_i + c_o) and sq_io the squared
distance of rows i and o of beta: an (n, n) closed form whose diagonal is
exactly 0.  It is non-positive, bounded below by -2*C(n,2), and zero
whenever a document has a single text word or all words attend
identically.

The term is one fused graph node, like the BiLSTM and TextCNN nodes.  Its
forward runs the ufunc sequence of the generic ops it replaced, so the
value is bitwise theirs, and it keeps only the (n, n) arrays s and sq for
its backward.  With G = -0.5 g for the loss gradient g,
dz = G * sq * s * (1 - s) and P = G*s + (G*s)^T, that backward is
  d T    = outer(dz.sum(1), w[:2d]) + outer(dz.sum(0), w[2d:])
  d w    = [dz.sum(1) @ T ; dz.sum(0) @ T]
  d beta = 2 * (P.sum(1)[:, None] * beta - P @ beta),
the last on beta less its column means, which leaves it unchanged in
exact arithmetic and exactly 0 where all rows are equal.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import autograd as ag
from .autograd import ShapeError, Value


def cross_entropy(logits: Value, labels, label_smoothing: float) -> Value:
    """Sum over the rows b of (B, 2) `logits` z of logsumexp(z_b) - t_b . z_b
    (on z_b less its maximum; t_b sums to 1) as one node, whose gradient
    g * (softmax(z_b) - t_b) has no clamp; t_b is (1-s)*onehot(labels[b])
    + s/2 on both classes for smoothing s.  A non-`Value` operand is a
    `TypeError`; anything but (B, 2) logits, B 0/1 labels is a `ShapeError`."""
    ag._check("cross_entropy", (logits,))
    z, labels = logits.data, np.asarray(labels)
    if (z.ndim != 2 or z.shape[1] != 2 or labels.shape != (len(z),)
            or labels.dtype.kind not in "iu"
            or not np.isin(labels, (0, 1)).all()):
        raise ShapeError(f"cross_entropy: need (B, 2) logits and B labels "
                         f"in {{0, 1}}, got {z.shape} and {labels!r}")
    t = np.full(z.shape, label_smoothing / 2.0)
    t[np.arange(len(z)), labels] += 1.0 - label_smoothing
    shifted = z - np.max(z, axis=1, keepdims=True)
    rows = np.log(np.sum(np.exp(shifted), 1)) - np.sum(t * shifted, 1)
    out = ag.make_node(np.sum(rows), (logits,), "cross_entropy")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            ag.accumulate(logits, out._grad * (ag.softmax_array(z, 1) - t))
        out._backward = _bw
    return out


def alignment_loss(word_emoji_weights: Value, text: Value,
                   distance_w: Value) -> Value:
    """(n, m) per-word emoji distributions + (n, h) text states + (2h,)
    distance weights -> scalar <= 0, as one graph node.

    The sum runs over the (n, n) grid of ordered word pairs, so each
    unordered pair counts once per concatenation order and the factor 0.5
    gives it the mean of its two sigmoids; that makes the loss invariant
    under permuting the text words.  Operands of other shapes are a
    `ShapeError`.
    """
    ag._check("alignment", (word_emoji_weights, text, distance_w))
    beta, t, w = word_emoji_weights.data, text.data, distance_w.data
    if (beta.ndim != 2 or t.ndim != 2 or len(beta) != len(t)
            or w.shape != (2 * t.shape[1],)):
        raise ShapeError(
            f"alignment: need (n, m) weights, (n, h) text and (2h,) "
            f"distance_w, got {beta.shape}, {t.shape} and {w.shape}")
    n, m = beta.shape
    h = t.shape[1]
    a = t @ w[:h]                                         # (n,) first slot
    c = t @ w[h:]                                         # (n,) second slot
    s = np.tanh(0.5 * (a.reshape(n, 1) + c.reshape(1, n)))
    s *= 0.5
    s += 0.5                                              # sigmoid, (n, n)
    diff = beta.reshape(n, 1, m) + beta.reshape(1, n, m) * -1.0
    np.multiply(diff, diff, out=diff)
    sq = np.sum(diff, axis=2)                             # (n, n)
    del diff
    out = ag.make_node(np.sum(s * sq) * -0.5,
                       (word_emoji_weights, text, distance_w), "alignment")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            g = -0.5 * out._grad
            if text.requires_grad or distance_w.requires_grad:
                dz = g * sq
                dz *= s
                dz *= 1.0 - s
                d_a, d_c = dz.sum(axis=1), dz.sum(axis=0)
                if text.requires_grad:
                    ag.accumulate(text, np.outer(d_a, w[:h])
                                  + np.outer(d_c, w[h:]))
                if distance_w.requires_grad:
                    ag.accumulate(distance_w,
                                  np.concatenate((d_a @ t, d_c @ t)))
            if word_emoji_weights.requires_grad:
                p = g * s
                p = p + p.T
                # rows centered first: the rule is shift-invariant, and
                # near-equal rows then cancel no large terms
                centered = beta - beta.mean(axis=0)
                ag.accumulate(word_emoji_weights, 2.0 * (
                    p.sum(axis=1)[:, None] * centered - p @ centered))
        out._backward = _bw
    return out
