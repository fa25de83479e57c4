"""Seeded synthetic corpora for verification.

Two kinds: a memorization smoke set where surface tokens determine the
label, and an XOR-contrastive set whose label depends on whether the text
keyword's polarity agrees with the emoji's sense, so no additive unigram
model can represent it.
"""

from __future__ import annotations

import numpy as np

from .corpus import TokenizedDoc

POS_MARKERS = ("MARK_POS_A", "MARK_POS_B")
NEG_MARKERS = ("MARK_NEG_A", "MARK_NEG_B")
SHARED_FILLERS = ("the", "day", "it", "was", "so", "and")

KEYWORDS = ("KW_GOOD", "KW_BAD")   # polarity 1 / 0
EMOJIS = ("E_SMILE", "E_CRY")      # sense 1 / 0
TRAIN_FILLERS = tuple(f"F_TR_{i}" for i in range(8))
TEST_FILLERS = tuple(f"F_TE_{i}" for i in range(8))


def gen_overfit(size: int, seed: int) -> list[TokenizedDoc]:
    """Consistent token->label mapping: positive docs carry a positive
    marker token and E_SMILE, negative docs a negative marker and E_CRY.
    Classes are balanced and a correct training loop must memorize it."""
    if size < 16:
        raise ValueError(f"size must be >= 16, got {size}")
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(size):
        label = i % 2
        markers = POS_MARKERS if label == 1 else NEG_MARKERS
        marker = markers[int(rng.integers(len(markers)))]
        fillers = list(rng.choice(SHARED_FILLERS, size=2, replace=False))
        tokens = fillers[:]
        tokens.insert(int(rng.integers(3)), marker)
        emoji = EMOJIS[0] if label == 1 else EMOJIS[1]
        docs.append(TokenizedDoc(tokens, [emoji], label))
    return docs


def gen_xor(train_size: int, test_size: int, seed: int
            ) -> tuple[list[TokenizedDoc], list[TokenizedDoc]]:
    """Label = 1 iff the keyword polarity matches the emoji sense.

    (KW_GOOD, E_SMILE) and (KW_BAD, E_CRY) are positive; mixed pairs are
    negative.  The four combinations cycle, so classes balance within one
    document.  Filler vocabularies are disjoint between train and test
    while keywords and emojis are shared, so only the keyword-emoji
    interaction generalizes.
    """
    if train_size < 16 or test_size < 16:
        raise ValueError("train and test sizes must be >= 16")
    rng = np.random.default_rng(seed)

    def build(count, fillers):
        docs = []
        for i in range(count):
            kw_pol = (i >> 1) & 1
            em_sense = i & 1
            label = 1 if kw_pol == em_sense else 0
            keyword = KEYWORDS[0] if kw_pol == 1 else KEYWORDS[1]
            emoji = EMOJIS[0] if em_sense == 1 else EMOJIS[1]
            n_fill = int(rng.integers(2, 4))
            tokens = list(rng.choice(fillers, size=n_fill, replace=False))
            tokens.insert(int(rng.integers(n_fill + 1)), keyword)
            docs.append(TokenizedDoc(tokens, [emoji], label))
        return docs

    return build(train_size, TRAIN_FILLERS), build(test_size, TEST_FILLERS)


def xor_label(keyword: str, emoji: str) -> int:
    """The generator's labeling rule, exposed for tests."""
    return 1 if ((keyword == KEYWORDS[0]) == (emoji == EMOJIS[0])) else 0
