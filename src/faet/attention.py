"""Word-level cross-attention between text and emoji hidden states.

An interaction matrix scores every (text word, emoji) pair from the
concatenation [emoji ; word ; emoji*word].  Pooling it in both directions
gives an emoji-importance distribution (column max over text, then softmax)
and a text-importance distribution (row max over emojis, then softmax);
each weights its own hidden states into a summary vector and the two
summaries concatenate into the fused representation.  Row-softmaxed
interaction scores additionally provide each text word's distribution over
emojis, consumed by the alignment term of the objective.

A single pooled (coarse) attention over emojis is included as the ablation
variant.  Both run once per batch of padded (B, n, 2d) text and (B, m, 2d)
emoji states with per-row lengths; padded words and emojis get weight
exactly 0, and an emoji-free row (emoji length 0) gets uniform text weights
and zero emoji weights and summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import ShapeError, Value

class FineAttentionParams:
    """Interaction scorer over 6d pair features plus the 4d pair-distance
    weights used by the alignment loss."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        self.interaction_w = ag.param(
            rng.uniform(-1, 1, 3 * hidden) / np.sqrt(3 * hidden))
        self.distance_w = ag.param(
            rng.uniform(-1, 1, 2 * hidden) / np.sqrt(2 * hidden))

    def parameters(self) -> dict[str, Value]:
        return {"interaction_w": self.interaction_w,
                "distance_w": self.distance_w}


class CoarseAttentionParams:
    """Sentence-conditioned attention over emoji states (ablation variant)."""

    def __init__(self, hidden: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(2 * hidden)
        self.w = ag.param(rng.uniform(-scale, scale, (2 * hidden, hidden)))
        self.v = ag.param(rng.uniform(-scale, scale, hidden))

    def parameters(self) -> dict[str, Value]:
        return {"coarse_w": self.w, "coarse_v": self.v}


@dataclass
class AttentionOutputs:
    interaction: Value          # (B, n, m)
    emoji_weights: Value        # (B, m) distributions over emojis
    text_weights: Value         # (B, n) distributions over text words
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


def interaction_matrix(text: Value, emoji: Value, weights: Value) -> Value:
    """(B, n, 2d) text states x (B, m, 2d) emoji states -> (B, n, m) scores.

    Entry (b, i, j) is w . [E_bj ; T_bi ; E_bj * T_bi].  With
    w = [w_e ; w_t ; w_p] that is (E w_e)_j + (T w_t)_i + ((T * w_p) E^T)_ij,
    so no pair features are built.
    """
    batch, n, feat = text.shape
    m = emoji.shape[1]
    if weights.shape != (3 * feat,):
        raise ShapeError(
            f"interaction: weight length {weights.shape} != 3*features "
            f"({3 * feat},)")
    w_e, w_t, w_p = (ag.narrow(weights, 0, k * feat, feat) for k in range(3))
    product = ag.matmul(ag.mul(text, w_p), ag.transpose(emoji))  # (B, n, m)
    return ag.add(ag.add(product, ag.reshape(ag.matmul(text, w_t),
                                             (batch, n, 1))),
                  ag.reshape(ag.matmul(emoji, w_e), (batch, 1, m)))


def emoji_to_text(interaction: Value, emoji: Value, text_valid: np.ndarray,
                  emoji_valid: np.ndarray) -> tuple[Value, Value]:
    """Column-max pooling over each row's text words -> (emoji weights
    (B, m), attended emoji summaries (B, 2d)); zero for an emoji-free row.
    """
    scores = ag.max_along(_masked(interaction, text_valid[..., None]), 1)
    weights = ag.mul(ag.softmax(_masked(scores, emoji_valid), axis=1),
                     ag.constant(emoji_valid))
    return weights, _pool(weights, emoji)


def text_to_emoji(interaction: Value, text: Value, text_valid: np.ndarray,
                  emoji_valid: np.ndarray) -> tuple[Value, Value]:
    """Row-max pooling over each row's emojis -> (text weights (B, n),
    attended text summaries (B, 2d)).  In an emoji-free row every word
    scores 0: uniform weights, the plain average of its text states.
    """
    scores = ag.mul(ag.max_along(_masked(interaction, emoji_valid[:, None]), 2),
                    ag.constant(emoji_valid.any(axis=1, keepdims=True)))
    weights = ag.softmax(_masked(scores, text_valid), axis=1)
    return weights, _pool(weights, text)


def word_emoji_attention(interaction: Value, emoji_valid: np.ndarray) -> Value:
    """Softmax of the interaction matrix over each row's emojis: each text
    word's distribution over the emojis (alignment-loss input)."""
    return ag.softmax(_masked(interaction, emoji_valid[:, None]), axis=2)


def fine_attention(text: Value, emoji: Value, params: FineAttentionParams,
                   text_lengths, emoji_lengths) -> AttentionOutputs:
    """Full bidirectional pass over a batch of (B, n, 2d) text and
    (B, m, 2d) emoji states; row b is valid on its first text_lengths[b]
    words and emoji_lengths[b] emojis."""
    interaction = interaction_matrix(text, emoji, params.interaction_w)
    text_valid = valid_mask(text_lengths, text.shape[1])
    emoji_valid = valid_mask(emoji_lengths, emoji.shape[1])
    emoji_weights, emoji_summary = emoji_to_text(interaction, emoji,
                                                 text_valid, emoji_valid)
    text_weights, text_summary = text_to_emoji(interaction, text,
                                               text_valid, emoji_valid)
    return AttentionOutputs(
        interaction=interaction,
        emoji_weights=emoji_weights,
        text_weights=text_weights,
        word_emoji_weights=word_emoji_attention(interaction, emoji_valid),
        fused=ag.concat([text_summary, emoji_summary], axis=-1))


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
