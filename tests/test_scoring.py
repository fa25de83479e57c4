"""The one scoring path: length-sorted, chunked no-grad `Model.score`
and the input-order `Model.predictions` built on it, against one document
scored alone, on generated documents: probabilities, labels and the
per-document `--explain` payloads, the groups of documents that reach
`forward_docs`, and the memory a no-grad pass keeps."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faet import autograd as ag
from faet import model as model_module
from faet.classifier import predict_label
from faet.corpus import TokenizedDoc, build_vocab, encode_doc
from faet.model import SCORE_CHUNK, SCORE_WINDOW_CHUNKS, Model, TrainConfig

WORDS = [f"w{i}" for i in range(8)]
EMOJIS = [f"E{i}" for i in range(3)]
MAX_LEN = 6
# one-token, emoji-free, and over-long texts are always in the mix
EDGE_DOCS = [TokenizedDoc(["w1"], ["E0"], None),
             TokenizedDoc(["w2", "w3"], [], None),
             TokenizedDoc(WORDS + WORDS[:2], ["E1", "E2"], None)]


def _model(variant):
    vocab = build_vocab([TokenizedDoc(WORDS, EMOJIS, 1)])
    config = TrainConfig(d=4, d_w=4, n_filters=2, widths=(2, 3), dropout=0.0,
                         max_len=MAX_LEN, variant=variant, seed=5)
    return Model(config, vocab)


MODELS = {variant: _model(variant) for variant in ("fine", "coarse")}

docs_strategy = st.lists(
    st.builds(TokenizedDoc,
              st.lists(st.sampled_from(WORDS), min_size=1,
                       max_size=MAX_LEN + 3),
              st.lists(st.sampled_from(EMOJIS), max_size=3),
              st.none()),
    max_size=6)


@settings(max_examples=25)
@given(extra=docs_strategy, variant=st.sampled_from(sorted(MODELS)),
       data=st.data())
def test_batched_scores_match_predict_doc(extra, variant, data):
    model = MODELS[variant]
    docs = data.draw(st.permutations(EDGE_DOCS + extra))
    encoded = [encode_doc(doc, model.vocab, MAX_LEN) for doc in docs]
    # a chunk smaller than the list puts chunk boundaries between docs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "SCORE_CHUNK", 4)
        outputs = list(model.predictions(encoded, True))
    assert len(outputs) == len(docs)
    for out, (text_ids, emoji_ids) in zip(outputs, encoded):
        single = next(model.predictions([(text_ids, emoji_ids)], True))
        probs = out["probs"]
        np.testing.assert_allclose(probs, single["probs"], rtol=0, atol=1e-12)
        assert out["label"] == single["label"]
        assert abs(math.fsum(probs) - 1.0) <= 1e-12
        assert abs(math.fsum(single["probs"]) - 1.0) <= 1e-12
        # the batch's explain payload is the document's own, never padded
        n, m = len(text_ids), len(emoji_ids)
        explain = out["explain"]
        assert list(explain) == list(single["explain"])
        shapes = {"sense_weights": (m, 2), "interaction": (n, m),
                  "emoji_weights": (m,), "text_weights": (n,),
                  "word_emoji_weights": (n, m), "coarse_weights": (m,)}
        for name, values in explain.items():
            assert np.shape(values) == shapes[name], name
            np.testing.assert_allclose(values, single["explain"][name],
                                       rtol=0, atol=1e-12, err_msg=name)


def _mixed_docs(model, count, seed=0):
    """`count` encoded documents of 1..MAX_LEN words and 0..3 emojis."""
    rng = np.random.default_rng(seed)
    docs = [TokenizedDoc(list(rng.choice(WORDS, rng.integers(1, MAX_LEN + 1))),
                         list(rng.choice(EMOJIS, rng.integers(0, 4))), None)
            for _ in range(count)]
    return [encode_doc(doc, model.vocab, MAX_LEN) for doc in docs]


def _length(doc):
    return len(doc[0]) + len(doc[1])


def _padded(groups):
    return sum(len(group) * max(map(_length, group)) for group in groups)


def _record_groups(model, monkeypatch):
    """The lists `model.forward_docs` receives, in call order."""
    groups = []
    forward = model.forward_docs

    def record(docs, *args, **kwargs):
        groups.append(list(docs))
        return forward(docs, *args, **kwargs)

    monkeypatch.setattr(model, "forward_docs", record)
    return groups


class TestScoringGroups:
    CHUNK = 4
    WINDOW = SCORE_WINDOW_CHUNKS * CHUNK

    def _groups(self, monkeypatch, docs, chunk=CHUNK):
        model = MODELS["fine"]
        groups = _record_groups(model, monkeypatch)
        monkeypatch.setattr(model_module, "SCORE_CHUNK", chunk)
        assert len(list(model.predictions(docs, False))) == len(docs)
        return groups

    def test_groups_follow_length_order_within_each_window(self, monkeypatch):
        docs = _mixed_docs(MODELS["fine"], 2 * self.WINDOW + 3, seed=1)
        position = {id(doc): i for i, doc in enumerate(docs)}
        groups = self._groups(monkeypatch, docs)
        for start in range(0, len(docs), self.WINDOW):
            window = docs[start:start + self.WINDOW]
            count = -(-len(window) // self.CHUNK)
            ours, groups = groups[:count], groups[count:]
            # every document of the window exactly once, `chunk` at a time
            assert sorted(position[id(d)] for g in ours for d in g) == \
                list(range(start, start + len(window)))
            assert [len(g) for g in ours[:-1]] == [self.CHUNK] * (count - 1)
            keys = [[(_length(d), position[id(d)]) for d in g] for g in ours]
            for group_keys in keys:
                # members in input order
                assert [i for _, i in group_keys] == \
                    sorted(i for _, i in group_keys)
            for earlier, later in zip(keys, keys[1:]):
                # stable length order from group to group
                assert max(earlier) < min(later)
        assert groups == []

    def test_padded_positions_are_the_sorted_optimum(self, monkeypatch):
        docs = _mixed_docs(MODELS["fine"], 2 * self.WINDOW + 3, seed=2)
        groups = self._groups(monkeypatch, docs)
        optimum = 0
        for start in range(0, len(docs), self.WINDOW):
            lengths = sorted(map(_length, docs[start:start + self.WINDOW]))
            optimum += sum(len(lengths[i:i + self.CHUNK])
                           * max(lengths[i:i + self.CHUNK])
                           for i in range(0, len(lengths), self.CHUNK))
        assert _padded(groups) == optimum
        input_order = [docs[i:i + self.CHUNK]
                       for i in range(0, len(docs), self.CHUNK)]
        assert _padded(groups) < _padded(input_order)

    def test_no_pairing_pads_less(self, monkeypatch):
        # every split of 8 documents into 4 pairs: none pads less
        docs = _mixed_docs(MODELS["fine"], 8, seed=3)
        groups = self._groups(monkeypatch, docs, chunk=2)

        def pairings(rest):
            if not rest:
                yield []
                return
            for other in rest[1:]:
                remaining = [d for d in rest[1:] if d is not other]
                for tail in pairings(remaining):
                    yield [[rest[0], other], *tail]

        assert _padded(groups) == min(map(_padded, pairings(docs)))

    def test_at_most_one_chunk_is_passed_unchanged(self, monkeypatch):
        docs = _mixed_docs(MODELS["fine"], self.CHUNK, seed=4)
        for count in range(1, self.CHUNK + 1):
            groups = self._groups(monkeypatch, docs[:count])
            assert len(groups) == 1
            assert all(a is b for a, b in
                       itertools.zip_longest(groups[0], docs[:count]))
        # the default chunk: one pass over the list as given
        many = _mixed_docs(MODELS["fine"], 40, seed=5)
        groups = self._groups(monkeypatch, many, chunk=SCORE_CHUNK)
        assert len(groups) == 1
        assert all(a is b for a, b in itertools.zip_longest(groups[0], many))

    def test_first_output_waits_for_one_window_at_most(self, monkeypatch):
        model = MODELS["fine"]
        docs = _mixed_docs(model, 3 * self.WINDOW, seed=6)
        groups = _record_groups(model, monkeypatch)
        monkeypatch.setattr(model_module, "SCORE_CHUNK", self.CHUNK)
        scored = model.predictions(docs, False)
        next(scored)
        assert 1 <= len(groups) <= self.WINDOW // self.CHUNK
        assert len(list(scored)) == len(docs) - 1

    @pytest.mark.parametrize("variant", sorted(MODELS))
    def test_windowed_outputs_match_predict_doc(self, variant, monkeypatch):
        model = MODELS[variant]
        docs = _mixed_docs(model, 3 * self.WINDOW + 5, seed=7)
        monkeypatch.setattr(model_module, "SCORE_CHUNK", self.CHUNK)
        rows = {}
        for group, outputs in model.score(docs):
            for b, i in enumerate(group):
                assert outputs.n[b] == len(docs[i][0])
                assert outputs.m[b] == len(docs[i][1])
                rows[i] = outputs.probs[b]
        outputs = list(model.predictions(docs, False))
        assert sorted(rows) == list(range(len(docs)))
        assert len(outputs) == len(docs)
        for i, (out, (text_ids, emoji_ids)) in enumerate(zip(outputs, docs)):
            single = model.predict_doc(text_ids, emoji_ids)
            assert out["probs"] == rows[i].tolist()
            np.testing.assert_allclose(rows[i], single["probs"],
                                       rtol=0, atol=1e-12)
            assert out["label"] == predict_label(rows[i]) == single["label"]


class TestScoringMemory:
    @pytest.mark.parametrize("variant", sorted(MODELS))
    def test_no_grad_forward_keeps_batch_arrays_only(self, variant):
        # the outputs keep the padded batch arrays and build no per-document
        # object: a row's explain dumps are sliced only when asked for
        model = MODELS[variant]
        docs = _mixed_docs(model, 256, seed=8)
        tracemalloc.start()
        try:
            with ag.no_grad():
                outputs = model.forward_docs(docs)
            kept = tracemalloc.take_snapshot().statistics("filename")
        finally:
            tracemalloc.stop()
        batch, (n, m) = len(docs), (outputs.n.max(), outputs.m.max())
        length, hidden = (outputs.n + outputs.m).max(), \
            outputs.text_states.shape[2]
        # encoder output, summaries, (B, n, m) interaction and word-emoji
        # weights, emoji and text weights, sense weights and probabilities
        floats = (batch * length * hidden + batch * 2 * hidden
                  + 2 * batch * n * m + batch * (n + m)
                  + 2 * outputs.m.sum() + 2 * batch)
        assert sum(s.size for s in kept) < 8 * floats + 32 * 1024
        assert sum(s.count for s in kept) < batch // 2
