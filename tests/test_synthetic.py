"""Synthetic corpus generators and the unigram baseline oracle."""

import numpy as np
import pytest

from oracles import unigram_logistic_baseline

from faet.corpus import TokenizedDoc
from faet.synthetic import (
    EMOJIS, KEYWORDS, NEG_MARKERS, POS_MARKERS, TEST_FILLERS, TRAIN_FILLERS,
    gen_overfit, gen_xor, xor_label,
)


class TestOverfit:
    def test_size_and_balance(self):
        docs = gen_overfit(64, seed=0)
        assert len(docs) == 64
        labels = [d.label for d in docs]
        assert abs(sum(labels) - 32) <= 1

    def test_marker_and_emoji_consistent_with_label(self):
        for doc in gen_overfit(48, seed=1):
            markers = POS_MARKERS if doc.label == 1 else NEG_MARKERS
            assert any(t in markers for t in doc.text_tokens)
            assert doc.emoji_tokens == [EMOJIS[0] if doc.label else EMOJIS[1]]

    def test_seed_determinism(self):
        a = [d.to_json() for d in gen_overfit(32, seed=5)]
        b = [d.to_json() for d in gen_overfit(32, seed=5)]
        assert a == b

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            gen_overfit(8, seed=0)

    def test_baseline_memorizes_linearly_separable_set(self):
        docs = gen_overfit(64, seed=2)
        assert unigram_logistic_baseline(docs, docs) >= 0.99


class TestXor:
    def test_label_rule_examples(self):
        assert xor_label("KW_GOOD", "E_CRY") == 0
        assert xor_label("KW_GOOD", "E_SMILE") == 1
        assert xor_label("KW_BAD", "E_CRY") == 1
        assert xor_label("KW_BAD", "E_SMILE") == 0

    def test_generated_docs_obey_rule_and_balance(self):
        train, test = gen_xor(64, 32, seed=3)
        for docs in (train, test):
            for doc in docs:
                keyword = next(t for t in doc.text_tokens if t in KEYWORDS)
                assert doc.label == xor_label(keyword, doc.emoji_tokens[0])
            labels = [d.label for d in docs]
            assert abs(sum(labels) - len(docs) / 2) <= 1

    def test_filler_vocabularies_disjoint(self):
        train, test = gen_xor(64, 32, seed=4)
        train_fill = {t for d in train for t in d.text_tokens
                      if t not in KEYWORDS}
        test_fill = {t for d in test for t in d.text_tokens
                     if t not in KEYWORDS}
        assert train_fill <= set(TRAIN_FILLERS)
        assert test_fill <= set(TEST_FILLERS)
        assert not (train_fill & test_fill)

    def test_seed_determinism(self):
        a = gen_xor(32, 16, seed=9)
        b = gen_xor(32, 16, seed=9)
        assert [d.to_json() for part in a for d in part] == \
               [d.to_json() for part in b for d in part]

    def test_unigram_baseline_cannot_learn_it(self):
        train, test = gen_xor(512, 128, seed=0)
        assert unigram_logistic_baseline(train, test) <= 0.75


class TestBaselineOracle:
    def test_majority_on_degenerate_single_class(self):
        train = [TokenizedDoc(["a"], ["e"], 1)] * 16
        test = ([TokenizedDoc(["a"], ["e"], 1)] * 20
                + [TokenizedDoc(["b"], ["e"], 0)] * 4)
        acc = unigram_logistic_baseline(train, test)
        np.testing.assert_allclose(acc, 20 / 24)
