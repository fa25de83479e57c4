"""Word-level cross-attention between text and emoji hidden states.

An interaction matrix scores every (text word, emoji) pair from the
concatenation [emoji ; word ; emoji*word].  Pooling it in both directions
gives an emoji-importance distribution (column max over text, then softmax)
and a text-importance distribution (row max over emojis, then softmax);
each weights its own hidden states into a summary vector and the two
summaries concatenate into the fused representation.  Row-softmaxed
interaction scores additionally provide each text word's distribution over
emojis, consumed by the alignment term of the objective.

The fine path is two fused nodes with closed-form backwards, the
interaction and both poolings; each forward runs the ufunc sequence of
the generic-op graph it replaced (`tests/oracles.py`), bit for bit.

A single pooled (coarse) attention over emojis is included as the ablation
variant.  Both run once per batch of padded (B, n, 2d) text and (B, m, 2d)
emoji states with per-row lengths; padded words and emojis get weight
exactly 0, and an emoji-free row (emoji length 0) gets uniform text weights
and zero emoji weights and summary.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ShapeError, Value

class FineAttentionParams:
    """Interaction scorer over 6d pair features plus the 4d pair-distance
    weights used by the alignment loss."""

    def __init__(self, hidden: int, rng: np.random.Generator | None):
        self.interaction_w = ag.uniform_param(rng, -1, 1, 3 * hidden,
                                              np.sqrt(3 * hidden))
        self.distance_w = ag.uniform_param(rng, -1, 1, 2 * hidden,
                                           np.sqrt(2 * hidden))

    def parameters(self) -> dict[str, Value]:
        return {"interaction_w": self.interaction_w,
                "distance_w": self.distance_w}


class CoarseAttentionParams:
    """Sentence-conditioned attention over emoji states (ablation variant)."""

    def __init__(self, hidden: int, rng: np.random.Generator | None):
        scale = 1.0 / np.sqrt(2 * hidden)
        self.w = ag.uniform_param(rng, -scale, scale, (2 * hidden, hidden))
        self.v = ag.uniform_param(rng, -scale, scale, hidden)

    def parameters(self) -> dict[str, Value]:
        return {"coarse_w": self.w, "coarse_v": self.v}


@dataclass
class AttentionOutputs:
    interaction: Value          # (B, n, m)
    emoji_weights: np.ndarray   # (B, m) distributions over emojis
    text_weights: np.ndarray    # (B, n) distributions over text words
    word_emoji_weights: Value   # (B, n, m) per-word distributions over emojis
    fused: Value                # (B, 4d) [text summary ; emoji summary]


def valid_mask(lengths, size: int) -> np.ndarray:
    """(B, size) bool, True on each row's first `lengths[b]` positions."""
    return np.arange(size) < np.reshape(lengths, (-1, 1))


def _masked(scores: Value, valid: np.ndarray) -> Value:
    """`scores` where `valid`, -1e30 elsewhere: exp() of that minus any real
    score is exactly 0, and a row with nothing valid stays finite."""
    return ag.add(scores, ag.constant(np.where(valid, 0.0, -1e30)))


def _pool(weights: Value, states: Value) -> Value:
    """(B, k) weights x (B, k, 2d) states -> (B, 2d) weighted sums."""
    batch, k, feat = states.shape
    return ag.reshape(ag.matmul(ag.reshape(weights, (-1, 1, k)), states),
                      (batch, feat))


def interaction(text: Value, emoji: Value, weights: Value) -> Value:
    """(B, n, 2d) text states x (B, m, 2d) emoji states -> (B, n, m)
    scores, as one graph node.  Entry (b, i, j) is w . [E_bj ; T_bi ;
    E_bj * T_bi]; with w = [w_e ; w_t ; w_p] that is
    ((T * w_p) E^T)_ij + (T w_t)_i + (E w_e)_j, so no pair features are
    built."""
    ag._check("interaction", (text, emoji, weights))
    if (text.ndim != 3 or emoji.ndim != 3 or len(text.data) != len(emoji.data)
            or emoji.shape[2] != text.shape[2]
            or weights.shape != (3 * text.shape[2],)):
        raise ShapeError(f"interaction: text {text.shape}, emoji "
                         f"{emoji.shape} and weights {weights.shape} are not "
                         f"(B, n, f), (B, m, f) and 3*features (3f,)")
    feat = text.shape[2]
    w_e, w_t, w_p = (weights.data[k * feat:(k + 1) * feat] for k in range(3))
    scaled = text.data * w_p
    out = ag.make_node(scaled @ np.swapaxes(emoji.data, -1, -2)
                       + (text.data @ w_t)[:, :, None]
                       + (emoji.data @ w_e)[:, None, :],
                       (text, emoji, weights), "interaction")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            g = out._grad
            by_word, by_emoji = g.sum(axis=2), g.sum(axis=1)
            d_scaled = g @ emoji.data                           # (B, n, f)
            if text.requires_grad:
                ag.accumulate(text, d_scaled * w_p + by_word[..., None] * w_t)
            if emoji.requires_grad:
                ag.accumulate(emoji, np.swapaxes(g, -1, -2) @ scaled
                              + by_emoji[..., None] * w_e)
            if weights.requires_grad:
                ag.accumulate(weights, np.concatenate([
                    by_emoji.reshape(-1) @ emoji.data.reshape(-1, feat),
                    by_word.reshape(-1) @ text.data.reshape(-1, feat),
                    np.einsum("bnf,bnf->f", d_scaled, text.data)]))
        out._backward = _bw
    return out


def fine_pool(scores: Value, text: Value, emoji: Value, text_lengths,
              emoji_lengths) -> tuple[Value, np.ndarray, np.ndarray]:
    """Both poolings of a (B, n, m) interaction, as one graph node ->
    ((B, 4d) [text summary ; emoji summary], (B, m) emoji weights,
    (B, n) text weights), the weights as arrays off the graph.

    Word i scores its row's maximum over the valid emojis, emoji j its
    column's over the valid words (0 in an emoji-free row, whose text
    weights are then uniform and its emoji weights 0); each softmax runs
    over the valid entries and weights its own states.  Padding gets
    weight 0 and no gradient; a tie passes its gradient to the first
    maximum."""
    ag._check("fine_pool", (scores, text, emoji))
    if (scores.ndim != 3 or 0 in scores.shape or text.ndim != 3
            or emoji.ndim != 3 or text.shape[:2] != scores.shape[:2]
            or emoji.shape != (len(text.data), scores.shape[2],
                               text.shape[2])):
        raise ShapeError(f"fine_pool: interaction {scores.shape}, text "
                         f"{text.shape} and emoji {emoji.shape} are not "
                         f"(B, n, m), (B, n, f) and (B, m, f), B, n, m > 0")
    batch, n, m = scores.shape
    valid = (valid_mask(ag._row_lengths("fine_pool", "lengths", text_lengths,
                                        batch, 1, n), n),
             valid_mask(ag._row_lengths("fine_pool", "emoji lengths",
                                        emoji_lengths, batch, 0, m), m))
    # per direction: the states pooled, the scores' axis maxed over, the
    # pooled positions' and the maxed-over positions' masks
    sides = [(text, 2, *valid), (emoji, 1, *valid[::-1])]
    weights, best, summaries = [], [], []
    for states, axis, own, other in sides:
        masked = scores.data + np.where(np.expand_dims(other, 3 - axis),
                                        0.0, -1e30)
        w = ag.softmax_array(np.max(masked, axis=axis) * other.any(
            axis=1, keepdims=True) + np.where(own, 0.0, -1e30), 1) * own
        weights.append(w)
        best.append(np.argmax(masked, axis=axis) if scores.requires_grad
                    else None)
        summaries.append((w.reshape(batch, 1, -1) @ states.data).reshape(
            batch, -1))
    out = ag.make_node(np.concatenate(summaries, axis=-1),
                       (scores, text, emoji), "fine_pool")
    if out.requires_grad:
        def _bw(out=weakref.proxy(out)):
            d_scores = np.zeros(scores.shape) if scores.requires_grad else None
            for (states, axis, _, other), w, arg, g in zip(
                    sides, weights, best, np.split(out._grad, 2, axis=1)):
                if states.requires_grad:
                    ag.accumulate(states, w[..., None] * g[:, None])
                if d_scores is not None:
                    # through the softmax to the maximum it read
                    d_w = (states.data @ g[..., None])[..., 0]
                    d_best = w * (d_w - np.sum(d_w * w, axis=1, keepdims=True))
                    at = np.expand_dims(arg, axis)
                    np.put_along_axis(d_scores, at, np.take_along_axis(
                        d_scores, at, axis) + np.expand_dims(
                        d_best * other.any(axis=1, keepdims=True), axis), axis)
            if d_scores is not None:
                ag.accumulate(scores, d_scores)
        out._backward = _bw
    return out, *weights[::-1]


def fine_attention(text: Value, emoji: Value, params: FineAttentionParams,
                   text_lengths, emoji_lengths) -> AttentionOutputs:
    """Full bidirectional pass over a batch of (B, n, 2d) text and
    (B, m, 2d) emoji states; row b is valid on its first text_lengths[b]
    words and emoji_lengths[b] emojis.  Four graph nodes: `interaction`,
    `fine_pool`, and the word-emoji softmax of the masked scores."""
    scores = interaction(text, emoji, params.interaction_w)
    fused, emoji_weights, text_weights = fine_pool(
        scores, text, emoji, text_lengths, emoji_lengths)
    emoji_valid = valid_mask(emoji_lengths, emoji.shape[1])
    return AttentionOutputs(scores, emoji_weights, text_weights, ag.softmax(
        _masked(scores, emoji_valid[:, None]), axis=2), fused)


def sentence_mean(text: Value, text_lengths) -> Value:
    """(B, n, 2d) text states -> (B, 2d) mean over each row's words."""
    valid = valid_mask(text_lengths, text.shape[1])
    return _pool(ag.constant(valid / valid.sum(axis=1, keepdims=True)), text)


def coarse_attention(text: Value, emoji: Value, params: CoarseAttentionParams,
                     text_lengths, emoji_lengths) -> tuple[Value, Value]:
    """Single sentence-conditioned attention over each row's emojis.

    Scores emoji j by v . tanh(W @ [E_j ; mean(T)]), W split into its emoji
    and sentence blocks; returns the weighted emoji contexts (B, 2d) and
    the weights (B, m), both zero for an emoji-free row.
    """
    batch, m, feat = emoji.shape
    emoji_valid = valid_mask(emoji_lengths, m)
    sentence = ag.matmul(sentence_mean(text, text_lengths),
                         ag.narrow(params.w, 0, feat, feat))    # (B, 2d)
    hidden = ag.add(ag.matmul(emoji, ag.narrow(params.w, 0, 0, feat)),
                    ag.reshape(sentence, (batch, 1, -1)))
    scores = ag.matmul(ag.tanh(hidden), params.v)               # (B, m)
    weights = ag.mul(ag.softmax(_masked(scores, emoji_valid), axis=1),
                     ag.constant(emoji_valid))
    return _pool(weights, emoji), weights
