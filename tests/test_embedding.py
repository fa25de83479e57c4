"""Text encoder, bi-sense emoji mixing, and pretrained-vector loading."""

import numpy as np
import pytest
from oracles import sum_along

from faet import autograd as ag
from faet.corpus import (
    CorpusError, PAD_ID, TokenizedDoc, build_vocab, make_batches,
)
from faet.embedding import (
    BisenseEmojiEmbedding, TextEncoder, load_pretrained_emoji_vectors,
)
from faet.model import Model, TrainConfig


def make_table(n_emoji=3, dim=4, seed=0):
    return BisenseEmojiEmbedding(n_emoji, dim, np.random.default_rng(seed))


class TestTextEncoder:
    def test_pad_embeds_to_zero(self):
        enc = TextEncoder(dim=5, vocab_size=6, rng=np.random.default_rng(1))
        out = enc.embed([PAD_ID, 2, PAD_ID])
        np.testing.assert_array_equal(out.data[0], np.zeros(5))
        np.testing.assert_array_equal(out.data[2], np.zeros(5))
        assert np.any(out.data[1] != 0)

    def test_pad_row_receives_no_gradient(self):
        # batches hold unpadded rows and the model pads from a constant zero
        # row, so a training step on mixed lengths never reaches the PAD row
        docs = [TokenizedDoc(["a"], ["e"], 1),
                TokenizedDoc(["b", "c", "a"], ["e"], 0)]
        vocab = build_vocab(docs)
        model = Model(TrainConfig(d=3, d_w=3, n_filters=2, dropout=0.0), vocab)
        (batch,) = make_batches(docs, vocab, batch_size=2, max_len=100,
                                shuffle=False)
        assert [len(t) for t, _ in batch.rows] == [1, 3]
        model.batch_loss(batch).backward()
        grad = model.text_encoder.table.grad
        np.testing.assert_array_equal(grad[PAD_ID], np.zeros(3))
        assert np.any(grad[vocab.encode_text(["a"])[0]] != 0)

    def test_same_id_same_vector(self):
        enc = TextEncoder(dim=4, vocab_size=5, rng=np.random.default_rng(3))
        out = enc.embed([2, 3, 2])
        np.testing.assert_array_equal(out.data[0], out.data[2])


class TestBisenseMix:
    def test_equal_senses_return_that_vector(self):
        table = make_table()
        table.sense_neg.data[...] = table.sense_pos.data
        ctx = ag.constant(np.ones(4))
        mixed, _ = table.mix([0, 2], ctx)
        np.testing.assert_allclose(mixed.data, table.sense_pos.data[[0, 2]],
                                   atol=1e-12)

    def test_zero_attention_params_give_midpoint(self):
        table = make_table()
        table.att_w.data[...] = 0.0
        table.att_v.data[...] = 0.0
        ctx = ag.constant(np.zeros(4))
        mixed, weights = table.mix([1], ctx)
        np.testing.assert_allclose(weights.data, [[0.5, 0.5]], atol=1e-15)
        midpoint = 0.5 * (table.sense_pos.data[1] + table.sense_neg.data[1])
        np.testing.assert_allclose(mixed.data[0], midpoint, atol=1e-15)

    def test_weights_are_distributions_on_fuzzed_tables(self):
        rng = np.random.default_rng(10)
        for trial in range(1000):
            table = make_table(n_emoji=2, dim=3, seed=trial)
            table.att_w.data[...] = rng.uniform(-2, 2, table.att_w.shape)
            table.att_v.data[...] = rng.uniform(-2, 2, table.att_v.shape)
            ctx = ag.constant(rng.uniform(-2, 2, 3))
            with ag.no_grad():
                _, w = table.mix([0, 1], ctx)
            assert np.all(w.data > 0) and np.all(w.data < 1)
            np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-9)

    def test_output_is_convex_combination(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            table = make_table(n_emoji=4, dim=5, seed=100 + trial)
            ctx = ag.constant(rng.uniform(-1, 1, 5))
            with ag.no_grad():
                mixed, _ = table.mix([0, 1, 2, 3], ctx)
            lo = np.minimum(table.sense_pos.data, table.sense_neg.data)
            hi = np.maximum(table.sense_pos.data, table.sense_neg.data)
            assert np.all(mixed.data >= lo - 1e-12)
            assert np.all(mixed.data <= hi + 1e-12)

    def test_gradient_reaches_both_senses(self):
        table = make_table(dim=3)
        ctx = ag.constant(np.full(3, 0.2))
        mixed, weights = table.mix([1], ctx)
        assert 0 < weights.data[0, 0] < 1
        sum_along(mixed).backward()
        assert np.any(table.sense_pos.grad[1] != 0)
        assert np.any(table.sense_neg.grad[1] != 0)

    def test_score_shift_leaves_weights_unchanged(self):
        # adding a constant to both sense scores is a softmax shift
        z = np.array([0.7, -0.3])
        a = ag.softmax(ag.constant(z), axis=-1).data
        b = ag.softmax(ag.constant(z + 123.456), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_unknown_emoji_id_rejected(self):
        table = make_table(n_emoji=2)
        with pytest.raises(Exception, match="(closed|take_rows)"):
            table.mix([5], ag.constant(np.zeros(4)))

    def test_mix_gradients_match_finite_differences(self):
        table = make_table(n_emoji=2, dim=3, seed=7)
        ctx_data = np.array([0.3, -0.2, 0.5])

        def f():
            mixed, _ = table.mix([0, 1], ag.constant(ctx_data))
            return sum_along(ag.tanh(mixed))

        report = ag.finite_difference_check(f, table.parameters(),
                                            samples_per_group=8)
        assert max(report.values()) < 1e-6


class TestPretrainedLoading:
    def _vocab(self):
        return build_vocab([TokenizedDoc(["a"], ["😊", "😭"], 1)])

    def test_per_sense_initialization(self, tmp_path):
        vocab = self._vocab()
        table = make_table(n_emoji=2, dim=4)
        path = tmp_path / "vecs.txt"
        path.write_text("2 4\n"
                        "😊_pos 1 2 3 4\n"
                        "😊_neg 5 6 7 8\n")
        counts = load_pretrained_emoji_vectors(str(path), table, vocab)
        eid = vocab.emoji_to_id["😊"]
        np.testing.assert_array_equal(table.sense_pos.data[eid], [1, 2, 3, 4])
        np.testing.assert_array_equal(table.sense_neg.data[eid], [5, 6, 7, 8])
        assert counts == {"loaded": 2, "ignored": 0}

    def test_bare_token_sets_both_senses(self, tmp_path):
        vocab = self._vocab()
        table = make_table(n_emoji=2, dim=4)
        path = tmp_path / "vecs.txt"
        path.write_text("1 4\n😭 9 9 9 9\n")
        load_pretrained_emoji_vectors(str(path), table, vocab)
        eid = vocab.emoji_to_id["😭"]
        np.testing.assert_array_equal(table.sense_pos.data[eid],
                                      table.sense_neg.data[eid])

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 300\n")
        with pytest.raises(CorpusError, match="300"):
            load_pretrained_emoji_vectors(str(path), make_table(dim=4),
                                          self._vocab())

    def test_malformed_line_carries_number(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 4\n😊 1 2 3\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_pretrained_emoji_vectors(str(path), make_table(dim=4),
                                          self._vocab())

    def test_nonmatching_entries_counted(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 4\n🚀 1 1 1 1\n😊 2 2 2 2\n")
        counts = load_pretrained_emoji_vectors(str(path), make_table(dim=4),
                                               self._vocab())
        assert counts == {"loaded": 1, "ignored": 1}

    @pytest.mark.parametrize("text, counts", [
        ("5 4\n😊 1 1 1 1\n", "5 != 1"),
        ("1 4\n😊 1 1 1 1\n\n😭 2 2 2 2\n", "1 != 2")])
    def test_header_count_must_match_the_vector_lines(self, tmp_path, text,
                                                      counts):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        table = make_table(n_emoji=2, dim=4)
        before = table.sense_pos.data.copy()
        with pytest.raises(CorpusError,
                           match=f"line 1: header count {counts} vector lines"):
            load_pretrained_emoji_vectors(str(path), table, self._vocab())
        np.testing.assert_array_equal(table.sense_pos.data, before)

    @pytest.mark.parametrize("first, second", [
        ("😭", "😭"), ("😭_neg", "😭_neg"), ("😭", "😭_pos"), ("😭_neg", "😭"),
        ("🚀", "🚀_pos")])
    def test_a_sense_set_twice_names_the_later_line(self, tmp_path, first,
                                                    second):
        path = tmp_path / "vecs.txt"
        path.write_text(f"3 4\n{first} 1 1 1 1\n😊 2 2 2 2\n"
                        f"{second} 3 3 3 3\n")
        table = make_table(n_emoji=2, dim=4)
        before = table.sense_neg.data.copy()
        with pytest.raises(CorpusError,
                           match=r"line 4: \w+ sense of '.+' already set "
                                 r"on line 2"):
            load_pretrained_emoji_vectors(str(path), table, self._vocab())
        np.testing.assert_array_equal(table.sense_neg.data, before)
