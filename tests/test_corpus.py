"""Corpus ingestion, splitting, vocab, and batching."""

import json

import numpy as np
import pytest

from oracles import decode_text

from faet import corpus
from faet.corpus import (
    Batch, CorpusError, PAD_ID, TokenizedDoc, UNK_ID, build_vocab,
    encode_doc, make_batches, parse_jsonl_record, split_corpus,
    split_report, split_sizes,
)


class TestParseJsonl:
    def test_valid_record(self):
        doc = parse_jsonl_record(
            '{"text_tokens":["good","day"],"emoji_tokens":["smile"],"label":1}')
        assert doc.text_tokens == ["good", "day"]
        assert doc.emoji_tokens == ["smile"]
        assert doc.label == 1

    def test_empty_text_rejected(self):
        with pytest.raises(CorpusError, match="line 3.*text_tokens"):
            parse_jsonl_record(
                '{"text_tokens":[],"emoji_tokens":["smile"],"label":0}',
                line_number=3)

    def test_training_mode_requires_emoji(self):
        with pytest.raises(CorpusError, match="emoji"):
            parse_jsonl_record(
                '{"text_tokens":["hi"],"emoji_tokens":[],"label":1}')

    def test_predict_mode_relaxed(self):
        doc = parse_jsonl_record(
            '{"text_tokens":["hi"],"emoji_tokens":[]}', mode="predict")
        assert doc.label is None
        assert doc.emoji_tokens == []

    def test_bad_label(self):
        # 1.0 and true compare equal to 1, and 0.0 to 0, but are no labels
        for label in ("2", "1.0", "0.0", "true", '"1"'):
            with pytest.raises(CorpusError, match="label"):
                parse_jsonl_record(
                    '{"text_tokens":["x"],"emoji_tokens":["e"],"label":%s}'
                    % label)

    def test_malformed_json_carries_line(self):
        with pytest.raises(CorpusError, match="line 7"):
            parse_jsonl_record("{not json", line_number=7)

    def test_extra_fields_ignored(self):
        doc = parse_jsonl_record(
            '{"text_tokens":["x"],"emoji_tokens":["e"],"label":0,"id":"a1"}')
        assert doc.label == 0


class TestLoadAliasTable:
    """Line-numbered decoding of tab-separated side files, which are read
    through `utf8_lines`."""

    def test_non_utf8_line_names_line(self, tmp_path):
        path = tmp_path / "aliases.tsv"
        path.write_bytes(b"cry\t\xf0\x9f\x98\xad\r\nsm\xffile\t:)\r\n")
        with open(path, "rb") as fh:
            lines = corpus.utf8_lines(fh)
            assert next(lines) == (1, "cry\t\U0001F62D\r\n")
            with pytest.raises(CorpusError, match="line 2: not valid UTF-8"):
                next(lines)


def _docs(n):
    return [TokenizedDoc([f"t{i}"], [f"e{i % 3}"], i % 2) for i in range(n)]


RATIOS = (7.0, 2.0, 1.0)


class TestSplit:
    def test_reference_size_8930(self):
        assert split_sizes(8930, RATIOS) == (6251, 1786, 893)

    def test_ten_docs(self):
        assert split_sizes(10, RATIOS) == (7, 2, 1)

    @pytest.mark.parametrize("ratios", [(7.0, 2.0), (7.0, 2.0, 1.0, 1.0)])
    def test_ratios_other_than_three_rejected(self, ratios):
        with pytest.raises(ValueError, match="train:test:val"):
            split_sizes(10, ratios)

    def test_sizes_rule_over_range(self):
        for n in range(10, 10001):
            n_train, n_test, n_val = split_sizes(n, RATIOS)
            assert n_test == n * 2 // 10
            assert n_val == n // 10
            assert n_train == n - n_test - n_val
            assert n_train > 0

    def test_partition_properties(self):
        rng = np.random.default_rng(0)
        for n in rng.integers(10, 2000, size=25):
            docs = _docs(int(n))
            train, test, val = split_corpus(docs, RATIOS, int(n))
            assert (len(train), len(test), len(val)) == split_sizes(int(n),
                                                                    RATIOS)
            ids = sorted(d.text_tokens[0] for part in (train, test, val)
                         for d in part)
            assert ids == sorted(d.text_tokens[0] for d in docs)

    def test_same_seed_same_partition(self):
        docs = _docs(97)
        a = split_corpus(docs, RATIOS, 5)
        b = split_corpus(docs, RATIOS, 5)
        for part_a, part_b in zip(a, b):
            assert [d.text_tokens for d in part_a] == [d.text_tokens for d in part_b]

    def test_too_few_docs(self):
        with pytest.raises(CorpusError, match="at least 10"):
            split_corpus(_docs(9), RATIOS, 0)

    def test_report_mentions_reference_mismatch(self):
        report = split_report(8930, RATIOS)
        assert report["train"] == 6251
        assert "6250/1786/894" in report["reference_note"]
        assert "reference_note" not in split_report(1000, RATIOS)


class TestVocab:
    def test_first_seen_order(self):
        docs = [TokenizedDoc(["a", "b"], ["x"], 1), TokenizedDoc(["b"], ["x"], 0)]
        v = build_vocab(docs)
        assert v.text_to_id == {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3}

    def test_min_count_maps_to_unk(self):
        docs = [TokenizedDoc(["a", "b"], ["x"], 1), TokenizedDoc(["b"], ["x"], 0)]
        v = build_vocab(docs, min_count=2)
        assert v.encode_text(["a"]) == [UNK_ID]
        assert v.encode_text(["b"]) == [2]

    def test_literal_reserved_tokens_never_encode_to_pad(self):
        docs = [TokenizedDoc(["<pad>", "a", "<unk>"], ["x"], 1),
                TokenizedDoc(["<pad>"], ["x"], 0)]
        assert build_vocab(docs).id_to_text == ["<pad>", "<unk>", "a"]
        # rarer than min_count, or simply reserved: UNK either way
        for v in (build_vocab(docs), build_vocab(docs, min_count=3)):
            assert v.encode_text(["<pad>", "<unk>"]) == [UNK_ID, UNK_ID]
            assert PAD_ID not in v.encode_text(["<pad>", "a", "zzz"])

    def test_saved_vocab_with_duplicate_reserved_tokens_encodes_as_before(self):
        # earlier versions appended literal reserved tokens a second time;
        # models trained with those vocabularies use the later ids
        v = corpus.Vocab.from_json_dict(
            {"text": ["<pad>", "<unk>", "a", "<pad>", "<unk>"],
             "emoji": ["x"]})
        assert v.encode_text(["<pad>", "<unk>", "a", "b"]) == [3, 4, 2, UNK_ID]

    @pytest.mark.parametrize("saved, message", [
        ({"text": ["<pad>", "<unk>", 7], "emoji": ["x"]}, "7 is not a string"),
        ({"text": ["<pad>", "<unk>"], "emoji": [None]}, "None is not"),
        ({"text": ["<unk>", "<unk>", "a"], "emoji": ["x"]}, "ids 0 and 1"),
        ({"text": ["<pad>"], "emoji": ["x"]}, "ids 0 and 1"),
        ({"text": ["<pad>", "<unk>", "a", "a"], "emoji": ["x"]},
         r"listed twice: \['a'\]"),
        ({"text": ["<pad>", "<unk>"], "emoji": ["x", "<pad>", "x"]},
         r"listed twice: \['x'\]"),
    ])
    def test_saved_vocab_build_vocab_cannot_write_is_rejected(self, saved,
                                                              message):
        with pytest.raises(ValueError, match=message):
            corpus.Vocab.from_json_dict(saved)

    def test_emoji_dedup(self):
        docs = [TokenizedDoc(["a"], ["😊", "😭", "😊"], 1)]
        v = build_vocab(docs)
        assert v.n_emoji == 2

    def test_round_trip(self):
        docs = [TokenizedDoc(["alpha", "beta", "gamma"], ["e"], 1)]
        v = build_vocab(docs)
        tokens = ["alpha", "gamma", "beta"]
        assert decode_text(v, v.encode_text(tokens)) == tokens

    def test_unknown_emoji_is_error(self):
        v = build_vocab([TokenizedDoc(["a"], ["😊"], 1)])
        with pytest.raises(CorpusError, match="closed"):
            v.encode_emojis(["😭"])

    def test_json_round_trip(self):
        v = build_vocab([TokenizedDoc(["a", "b"], ["😊"], 1)])
        v2 = corpus.Vocab.from_json_dict(
            json.loads(json.dumps(v.to_json_dict())))
        assert v2.text_to_id == v.text_to_id
        assert v2.emoji_to_id == v.emoji_to_id


class TestBatches:
    def _corpus(self, n):
        return [TokenizedDoc([f"w{i}", "x"], ["😊"], i % 2) for i in range(n)]

    def test_batch_sizes_with_partial_tail(self):
        docs = self._corpus(130)
        v = build_vocab(docs)
        batches = make_batches(docs, v, batch_size=64, max_len=100, seed=1)
        assert [len(b) for b in batches] == [64, 64, 2]

    def test_truncation_to_max_len(self):
        doc = TokenizedDoc([f"t{i}" for i in range(120)], ["😊"], 1)
        v = build_vocab([doc])
        (batch,) = make_batches([doc], v, batch_size=4, max_len=100)
        assert len(batch.rows[0][0]) == 100

    def test_same_seed_identical_order(self):
        docs = self._corpus(40)
        v = build_vocab(docs)
        a = make_batches(docs, v, 8, 100, seed=3)
        b = make_batches(docs, v, 8, 100, seed=3)
        for ba, bb in zip(a, b):
            assert ba.rows == bb.rows
            assert ba.labels == bb.labels

    def test_epoch_preserves_every_pair_once(self):
        docs = self._corpus(53)
        v = build_vocab(docs)
        batches = make_batches(docs, v, 10, 100, seed=9)
        seen = []
        for b in batches:
            for (text_ids, _), label in zip(b.rows, b.labels):
                seen.append((tuple(text_ids), label))
        expected = []
        for d in docs:
            expected.append((tuple(v.encode_text(d.text_tokens)), d.label))
        assert sorted(seen) == sorted(expected)

    def test_all_oov_doc_still_valid(self):
        v = build_vocab(self._corpus(4))
        doc = TokenizedDoc(["zzz", "qqq"], ["😊"], 0)
        (batch,) = make_batches([doc], v, 2, 100, shuffle=False)
        assert batch.rows[0][0] == [UNK_ID, UNK_ID]

    def test_zero_emoji_allowed_only_in_predict(self):
        v = build_vocab(self._corpus(4))
        doc = TokenizedDoc(["w0"], [], 1)
        with pytest.raises(CorpusError, match="emoji"):
            make_batches([doc], v, 1, 100)
        # prediction encodes documents one by one, without batches
        assert encode_doc(doc, v, 100) == (v.encode_text(["w0"]), [])

    def test_padding_uses_pad_id(self):
        docs = [TokenizedDoc(["a"], ["😊"], 1), TokenizedDoc(["a", "b", "c"], ["😊"], 0)]
        v = build_vocab(docs)
        (batch,) = make_batches(docs, v, 2, 100, shuffle=False)
        # rows stay unpadded: only the model pads, from a constant zero row
        assert [len(t) for t, _ in batch.rows] == [1, 3]
        assert all(PAD_ID not in t for t, _ in batch.rows)
        assert isinstance(batch, Batch)

    def test_unlabeled_document_rejected(self):
        docs = self._corpus(4)
        v = build_vocab(docs)
        docs[2] = TokenizedDoc(["w0"], ["😊"], None)
        with pytest.raises(CorpusError, match="label"):
            make_batches(docs, v, 2, 100)
