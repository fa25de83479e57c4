"""Training losses: cross-entropy plus the attention-alignment term.

The alignment term rewards text-word pairs for attending to different
emojis in proportion to a learned pair distance: for each unordered pair
(i, o), loss -= d_io * sum_k (beta_ik - beta_ok)^2, with d_io the mean of
sigmoid(w . [t_i ; t_o]) and sigmoid(w . [t_o ; t_i]).  Splitting w into
its halves gives every ordered score as a_i + c_o, with a = T @ w[:2d] and
c = T @ w[2d:], so the whole sum is -0.5 * sum over all (i, o) of
sigmoid(a_i + c_o) * sq_io: an (n, n) closed form whose diagonal is
exactly 0.  It is non-positive, bounded below by -2*C(n,2), and zero
whenever a document has a single text word or all words attend
identically.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Value


def cross_entropy(probs: Value, labels, label_smoothing: float) -> Value:
    """Sum over the rows b of (B, 2) `probs` of -log probs[b, labels[b]],
    with the log input clamped at 1e-12.

    With smoothing s each row's target becomes (1-s)*onehot + s/2 on both
    classes.  The sign rides on the constant target, so the loss is three
    graph nodes for any B: one `log`, one product and its sum.
    """
    target = np.full(probs.shape, label_smoothing / 2.0)
    target[np.arange(len(target)), labels] += 1.0 - label_smoothing
    return ag.sum_along(ag.mul(ag.log(probs), ag.constant(-target)))


def alignment_loss(word_emoji_weights: Value, text: Value,
                   distance_w: Value) -> Value:
    """(n, m) per-word emoji distributions + (n, 2d) text states -> scalar <= 0.

    The sum runs over the (n, n) grid of ordered word pairs, so each
    unordered pair counts once per concatenation order and the factor 0.5
    gives it the mean of its two sigmoids; that makes the loss invariant
    under permuting the text words.
    """
    n, m = word_emoji_weights.shape
    h = text.shape[1]
    a = ag.matmul(text, ag.narrow(distance_w, 0, 0, h))   # (n,) first slot
    c = ag.matmul(text, ag.narrow(distance_w, 0, h, h))   # (n,) second slot
    dist = ag.sigmoid(ag.add(ag.reshape(a, (n, 1)), ag.reshape(c, (1, n))))
    diff = ag.add(ag.reshape(word_emoji_weights, (n, 1, m)),
                  ag.mul(ag.reshape(word_emoji_weights, (1, n, m)), -1.0))
    sq = ag.sum_along(ag.mul(diff, diff), axis=2)         # (n, n)
    return ag.mul(ag.sum_along(ag.mul(dist, sq)), -0.5)

