"""Full-model assembly: variants, batching equivalence, loss composition."""

import collections
import gc
import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faet import autograd as ag
from faet import classifier
from faet import model as model_mod
from faet.corpus import TokenizedDoc, build_vocab, encode_doc, make_batches
from faet.model import Model, TrainConfig
from faet.synthetic import gen_overfit, gen_xor
from oracles import (
    conv_pool_full_width, fine_attention_doc, seeded_full_width_filters,
)


def tiny_config(**overrides):
    base = dict(d=6, d_w=5, n_filters=3, widths=(2, 3), dropout=0.2,
                batch_size=4, epochs=1, max_len=20, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_corpus():
    return [
        TokenizedDoc(["good", "day", "here"], ["E_S"], 1),
        TokenizedDoc(["bad", "day"], ["E_C", "E_S"], 0),
        TokenizedDoc(["fine", "enough", "today", "yes"], ["E_S"], 1),
        TokenizedDoc(["ugh"], ["E_C"], 0),
    ]


def forward_one(m, text_ids, emoji_ids, **kwargs):
    """One document through the batched forward: a batch of one row."""
    return m.forward_docs([(text_ids, emoji_ids)], **kwargs)


@pytest.fixture
def model():
    docs = tiny_corpus()
    return Model(tiny_config(), build_vocab(docs)), docs


class TestParameters:
    def test_fine_variant_groups(self, model):
        m, _ = model
        names = set(m.parameters())
        assert {"text_embed", "emoji_sense_pos", "emoji_sense_neg",
                "sense_att_w", "sense_att_v", "interaction_w", "distance_w",
                "out_w", "out_b"} <= names
        assert any(n.startswith("lstm_fwd.") for n in names)
        assert any(n.startswith("lstm_bwd.") for n in names)
        assert any(n.startswith("cnn.") for n in names)

    def test_coarse_variant_swaps_attention_params(self):
        docs = tiny_corpus()
        m = Model(tiny_config(variant="coarse"), build_vocab(docs))
        names = set(m.parameters())
        assert "coarse_w" in names and "coarse_v" in names
        assert "interaction_w" not in names

    def test_from_state_rejects_wrong_names_and_shapes(self, model):
        m, docs = model
        other = Model(tiny_config(d=7), build_vocab(docs))
        with pytest.raises(ValueError, match="shape"):
            Model.from_state(m.config, m.vocab, other.state())
        state = m.state()
        state.pop("out_b")
        with pytest.raises(ValueError, match="names"):
            Model.from_state(m.config, m.vocab, state)

    def test_from_state_adopts_arrays_without_drawing(self, model,
                                                      monkeypatch):
        m, _ = model
        state = m.state()

        def no_draws(*args, **kwargs):
            raise AssertionError("random numbers drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(np.random, "SeedSequence", no_draws)
        adopted = Model.from_state(m.config, m.vocab, state)
        for name, p in adopted.parameters().items():
            assert p.data is state[name]

    @pytest.mark.parametrize("variant, digest", [
        ("fine",
         "3275fcd22d21f136ab5b30e5e8b36d35304f184f7b9e051d9c66af81d715c74a"),
        ("coarse",
         "866e856d64a2cbe72f93ea281f283d9d6b129d5009428b1ccfd3afff34c6b058"),
    ])
    def test_fresh_init_draws_are_pinned(self, variant, digest):
        # sha256 over sorted (name, float64 bytes): a fresh model must draw
        # the same numbers in the same order as every earlier release.
        # Those stored each TextCNN filter at full width: the model keeps
        # its state columns and the shift-sum of its summary columns.
        config = tiny_config(variant=variant)
        state = Model(config, build_vocab(tiny_corpus())).state()
        wide = seeded_full_width_filters(config.seed, config.n_filters,
                                         6 * config.d, config.widths)
        summary = state.pop("cnn.summary")
        for k, w in enumerate(config.widths):
            full = wide[w].reshape(config.n_filters, w, -1)
            name = f"cnn.filters_w{w}"
            assert state[name].tobytes() == \
                full[:, :, :2 * config.d].tobytes()
            block = full[:, 0, 2 * config.d:].copy()
            for i in range(1, w):
                block += full[:, i, 2 * config.d:]
            rows = slice(k * config.n_filters, (k + 1) * config.n_filters)
            assert summary[rows].tobytes() == block.tobytes()
            state[name] = wide[w]
        h = hashlib.sha256()
        for name in sorted(state):
            h.update(name.encode())
            h.update(state[name].tobytes())
        assert h.hexdigest() == digest


class TestFullWidthLayout:
    """A fresh model scores bitwise as the TextCNN head did over filters
    that carry their summary columns at every shift (the layout of
    checkpoint format 1), summed in shift order."""

    @pytest.mark.parametrize("config", [
        TrainConfig(),
        TrainConfig(d=5, d_w=4, n_filters=3, widths=(2, 9, 2, 3), seed=4,
                    variant="coarse"),
    ], ids=["stock", "small_coarse_repeated_and_too_wide"])
    def test_fresh_model_probabilities_match_the_oracle(self, config,
                                                        monkeypatch):
        docs = gen_overfit(16, seed=2) + gen_xor(16, 16, seed=3)[0]
        vocab = build_vocab(docs)
        rows = [encode_doc(doc, vocab, config.max_len) for doc in docs]
        rows.append((rows[0][0], []))  # no emoji
        # rows of 4-5 positions take both product forms, long ones one
        batches = [rows, [(text * 5, emoji) for text, emoji in rows[:4]]]
        model = Model(config, vocab)
        probs = [out.probs for batch in batches
                 for _, out in model.score(batch)]
        wide = seeded_full_width_filters(config.seed, config.n_filters,
                                         6 * config.d, config.widths)

        def oracle(states, summaries, params, lengths):
            biases = {w: b.data for w, b in params.filter_bias.items()}
            return ag.constant(conv_pool_full_width(
                states.data, summaries.data, params.widths, wide, biases,
                lengths))
        monkeypatch.setattr(classifier, "_conv_pool", oracle)
        expected = [out.probs for batch in batches
                    for _, out in model.score(batch)]
        assert [p.tobytes() for p in probs] == \
            [p.tobytes() for p in expected]


class TestForward:
    def test_probs_are_distributions(self, model):
        m, docs = model
        for doc in docs:
            out = forward_one(m, m.vocab.encode_text(doc.text_tokens),
                              m.vocab.encode_emojis(doc.emoji_tokens))
            np.testing.assert_allclose(out.probs.sum(), 1.0, atol=1e-9)
            assert out.probs.shape == (1, 2) and np.all(out.probs >= 0)

    def test_probs_are_the_softmaxed_logits_off_the_graph(self, model,
                                                         monkeypatch):
        # the head's graph ends at its output layer, and `probs` rounds
        # as the softmax op would
        m, docs = model
        encoded = [(m.vocab.encode_text(d.text_tokens),
                    m.vocab.encode_emojis(d.emoji_tokens)) for d in docs]
        outputs = []
        ops = _ops_built(monkeypatch,
                         lambda: outputs.append(m.forward_docs(encoded)), False)
        (out,) = outputs
        assert ops[ops.index("textcnn"):] == ["textcnn", "matmul", "add"]
        assert out.logits.shape == out.probs.shape == (len(docs), 2)
        assert out.probs.tobytes() == \
            ag.softmax(out.logits, axis=1).data.tobytes()

    def test_batched_forward_matches_per_doc(self, model):
        m, docs = model
        encoded = [(m.vocab.encode_text(d.text_tokens),
                    m.vocab.encode_emojis(d.emoji_tokens)) for d in docs]
        batched = m.forward_docs(encoded)
        for b, (tids, eids) in enumerate(encoded):
            single = forward_one(m, tids, eids)
            np.testing.assert_allclose(batched.probs[b],
                                       single.probs[0], atol=1e-12)
            np.testing.assert_allclose(batched.text_states.data[b, :len(tids)],
                                       single.text_states.data[0], atol=1e-12)

    def test_deterministic_without_dropout(self, model):
        m, docs = model
        ids = (m.vocab.encode_text(docs[0].text_tokens),
               m.vocab.encode_emojis(docs[0].emoji_tokens))
        a = forward_one(m, *ids).probs
        b = forward_one(m, *ids).probs
        np.testing.assert_array_equal(a, b)

    def test_training_dropout_changes_outputs(self, model):
        m, docs = model
        ids = (m.vocab.encode_text(docs[0].text_tokens),
               m.vocab.encode_emojis(docs[0].emoji_tokens))
        base = forward_one(m, *ids).probs
        dropped = forward_one(m, *ids,
                              dropout_rng=np.random.default_rng(0)).probs
        assert np.any(base != dropped)

    def test_no_emoji_document_predicts(self, model):
        m, _ = model
        result = m.predict_doc(m.vocab.encode_text(["good", "day"]), [])
        assert result["label"] in (0, 1)
        np.testing.assert_allclose(sum(result["probs"]), 1.0, atol=1e-9)

    @pytest.mark.parametrize("emoji_ids", [[0], []])
    def test_document_without_text_ids_is_named(self, model, emoji_ids):
        m, _ = model
        with pytest.raises(ValueError, match="document 0 has no text ids"
                           ) as caught:
            m.predict_doc([], emoji_ids)
        assert not isinstance(caught.value, ag.ShapeError)
        with pytest.raises(ValueError, match="document 1 has no text ids"):
            m.forward_docs([(m.vocab.encode_text(["good"]), [0]),
                            ([], emoji_ids)])
        # scoring sorts by length: the error names the input position, not
        # the position inside the document's length-sorted group
        docs = [(m.vocab.encode_text(["good"]), [0])] * 69 + [([], emoji_ids)]
        with pytest.raises(ValueError, match="document 69 has no text ids"):
            list(m.score(docs))

    def test_explain_payload_fine(self, model):
        m, docs = model
        result = next(m.predictions(
            [(m.vocab.encode_text(docs[1].text_tokens),
              m.vocab.encode_emojis(docs[1].emoji_tokens))], True))
        explain = result["explain"]
        assert set(explain) == {"sense_weights", "interaction",
                                "emoji_weights", "text_weights",
                                "word_emoji_weights"}
        assert len(explain["emoji_weights"]) == 2
        np.testing.assert_allclose(np.sum(explain["emoji_weights"]), 1.0,
                                   atol=1e-9)

    @pytest.mark.parametrize("variant", ["fine", "coarse"])
    def test_one_attention_call_per_batch(self, variant, monkeypatch):
        docs = tiny_corpus()
        m = Model(tiny_config(variant=variant), build_vocab(docs))
        name = f"{variant}_attention"
        calls = []
        layer = getattr(model_mod, name)
        monkeypatch.setattr(model_mod, name,
                            lambda *args: calls.append(1) or layer(*args))
        (batch,) = make_batches(docs, m.vocab, batch_size=4, max_len=100,
                                shuffle=False)
        m.batch_loss(batch)
        assert len(calls) == 1

    def test_attention_reads_each_documents_own_states(self, model,
                                                       monkeypatch):
        m, docs = model
        encoded = []
        encode = model_mod.bilstm_encode_batch
        monkeypatch.setattr(model_mod, "bilstm_encode_batch",
                            lambda *args: encoded.append(encode(*args))
                            or encoded[-1])
        rows = [(m.vocab.encode_text(d.text_tokens),
                 m.vocab.encode_emojis(d.emoji_tokens)) for d in docs]
        rows.append((m.vocab.encode_text(["good", "day"]), []))
        outputs = m.forward_docs(rows)
        states = encoded[0].data                  # (B, L, 2d), [text ; emoji]
        w = m.fine_params.interaction_w.data
        for b, (text_ids, emoji_ids) in enumerate(rows):
            n, k = len(text_ids), len(emoji_ids)
            u, emoji_w, text_w, beta, _ = fine_attention_doc(
                states[b, :n], states[b, n:n + k], w)
            explain = outputs.explain(b)
            for name, want in (("interaction", u), ("emoji_weights", emoji_w),
                               ("text_weights", text_w),
                               ("word_emoji_weights", beta)):
                np.testing.assert_allclose(np.reshape(explain[name],
                                                      np.shape(want)),
                                           want, rtol=0, atol=1e-12)

    def test_explain_payload_coarse(self):
        docs = tiny_corpus()
        m = Model(tiny_config(variant="coarse"), build_vocab(docs))
        result = next(m.predictions(
            [(m.vocab.encode_text(docs[0].text_tokens),
              m.vocab.encode_emojis(docs[0].emoji_tokens))], True))
        assert "coarse_weights" in result["explain"]
        assert "interaction" not in result["explain"]


class TestBatchLoss:
    def test_equals_mean_of_document_losses(self, model):
        m, docs = model
        vocab = m.vocab
        (batch,) = make_batches(docs, vocab, batch_size=4, max_len=100,
                                shuffle=False)
        total = float(m.batch_loss(batch).data)
        lam = m.config.lambda_align
        manual = 0.0
        for doc in docs:
            out = forward_one(m, vocab.encode_text(doc.text_tokens),
                              vocab.encode_emojis(doc.emoji_tokens))
            ce, align = m.doc_losses(out, [doc.label])
            manual += float(ce.data) + lam * float(align.data)
        np.testing.assert_allclose(total, manual / len(docs), atol=1e-12)

    def test_backward_reaches_every_parameter_group(self, model):
        m, docs = model
        (batch,) = make_batches(docs, m.vocab, batch_size=4, max_len=100,
                                shuffle=False)
        loss = m.batch_loss(batch, dropout_rng=np.random.default_rng(3))
        loss.backward()
        silent = [name for name, p in m.parameters().items()
                  if not np.any(p.grad != 0)]
        # the PAD row is frozen but every group must carry signal somewhere
        assert silent == []

    @pytest.mark.parametrize("variant", ["fine", "coarse"])
    def test_padded_batch_gradients_match_single_documents(self, variant):
        # n+m from 2 (shorter than the width-4 filters) to 8, 1 to 4 emojis
        docs = [TokenizedDoc(["good"], ["E_S"], 1),
                TokenizedDoc(["bad", "day", "here"], ["E_C", "E_S"], 0),
                TokenizedDoc(["fine", "enough", "today", "yes", "ugh"],
                             ["E_S", "E_C", "E_C"], 1),
                TokenizedDoc(["ugh", "day"], ["E_C", "E_S", "E_S", "E_C"], 0)]
        m = Model(tiny_config(variant=variant, dropout=0.0, widths=(2, 4)),
                  build_vocab(docs))
        params = m.parameters()

        def grads(batch_docs):
            for p in params.values():
                p.zero_grad()
            (batch,) = make_batches(batch_docs, m.vocab, shuffle=False,
                                    batch_size=len(batch_docs), max_len=100)
            m.batch_loss(batch).backward()
            return {name: p.grad.copy() for name, p in params.items()}

        batched = grads(docs)
        singles = [grads([doc]) for doc in docs]
        for name in params:
            mean = sum(g[name] for g in singles) / len(docs)
            np.testing.assert_allclose(batched[name], mean, rtol=0,
                                       atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("variant", ["fine", "coarse"])
    def test_step_graph_freed_without_cyclic_gc(self, variant):
        docs = tiny_corpus()
        m = Model(tiny_config(variant=variant), build_vocab(docs))
        (batch,) = make_batches(docs, m.vocab, batch_size=4, max_len=100,
                                shuffle=False)
        gc.disable()
        try:
            loss = m.batch_loss(batch, dropout_rng=np.random.default_rng(3))
            loss.backward()
            graph = [v for v in ag.topo_order(loss) if v._prev]
            ops = [v._op for v in graph]
            # the whole step's graph: the encoder, the head and one fused
            # cross-entropy for the batch, with no log or sum around it
            assert ops.count("bilstm") == 1 and ops.count("textcnn") == 1
            assert ops.count("cross_entropy") == 1
            assert "log" not in ops and "sum" not in ops
            nodes = [weakref.ref(v) for v in graph]
            del graph
            del loss
            assert [r() for r in nodes if r() is not None] == []
        finally:
            gc.enable()


def _ops_built(monkeypatch, call, grad_only):
    """The op of every graph node `call()` builds (with `grad_only`, of
    every node that requires a gradient), in build order."""
    built = []
    make_node = ag.make_node

    def counting(data, inputs, op):
        out = make_node(data, inputs, op)
        if out.requires_grad or not grad_only:
            built.append(op)
        return out

    monkeypatch.setattr(ag, "make_node", counting)
    call()
    monkeypatch.setattr(ag, "make_node", make_node)
    return built


class TestNodeCounts:
    """The loss side is batched like the layers: no op runs once per
    document, so a step's graph and a scoring pass do not grow with B."""

    WORDS = ["good", "bad", "day", "here", "fine", "ugh"]

    def _docs(self, count, emojis):
        return [TokenizedDoc(self.WORDS[:1 + i % 6], emojis(i), i % 2)
                for i in range(count)]

    @pytest.mark.parametrize("variant", ["fine", "coarse"])
    def test_step_graph_is_the_same_at_8_and_64(self, variant, monkeypatch):
        docs = self._docs(64, lambda i: [["E_S", "E_C"][i % 2]])
        m = Model(tiny_config(variant=variant), build_vocab(docs))

        def step_ops(count):
            (batch,) = make_batches(docs[:count], m.vocab, count, 100,
                                    shuffle=False)
            return _ops_built(monkeypatch, lambda: m.batch_loss(
                batch, dropout_rng=np.random.default_rng(0)).backward(), True)

        assert len(step_ops(8)) == len(step_ops(64))

    def test_alignment_adds_five_nodes_per_aligned_row(self, monkeypatch):
        # the same documents with one emoji and with two: a row with at
        # least 2 words and 2 emojis adds its 3 `narrow`s, one fused
        # `alignment` node and the `add` into the sum, and the batch the
        # two reshapes that `narrow` reads and the two scalings of the sum
        one = self._docs(64, lambda i: [["E_S", "E_C"][i % 2]])
        two = self._docs(64, lambda i: ["E_S", "E_C"])
        m = Model(tiny_config(), build_vocab(one))

        def step_ops(docs):
            (batch,) = make_batches(docs, m.vocab, len(docs), 100,
                                    shuffle=False)
            return collections.Counter(_ops_built(
                monkeypatch, lambda: m.batch_loss(
                    batch, dropout_rng=np.random.default_rng(0)).backward(),
                True))

        for count in (8, 64):
            rows = sum(len(doc.text_tokens) >= 2 for doc in two[:count])
            extra = step_ops(two[:count]) - step_ops(one[:count])
            assert extra == collections.Counter(
                narrow=3 * rows, alignment=rows, add=rows, reshape=2, mul=2)

    def test_scoring_builds_the_same_ops_for_8_and_64(self, monkeypatch):
        docs = self._docs(64, lambda i: ["E_S", "E_C", "E_S"][:i % 4])
        m = Model(tiny_config(), build_vocab(docs))
        rows = [encode_doc(doc, m.vocab, 20) for doc in docs]

        def score_ops(count):
            return _ops_built(monkeypatch,
                              lambda: list(m.score(rows[:count])), False)

        assert len(score_ops(8)) == len(score_ops(64)) > 0


WORDS = [f"w{i}" for i in range(12)]
EMOJIS = [f"E{i}" for i in range(4)]
REORDER_MODELS = {
    variant: Model(tiny_config(variant=variant, dropout=0.0, max_len=12),
                   build_vocab([TokenizedDoc(WORDS, EMOJIS, 1)]))
    for variant in ("fine", "coarse")}


@settings(max_examples=20)
@given(docs=st.lists(st.builds(
           TokenizedDoc,
           st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
           st.lists(st.sampled_from(EMOJIS), min_size=1, max_size=4),
           st.integers(0, 1)), min_size=2, max_size=6),
       variant=st.sampled_from(sorted(REORDER_MODELS)), data=st.data())
def test_batch_loss_invariant_under_reordering(docs, variant, data):
    m = REORDER_MODELS[variant]
    params = m.parameters()

    def loss_and_grads(batch_docs):
        for p in params.values():
            p.zero_grad()
        (batch,) = make_batches(batch_docs, m.vocab, shuffle=False,
                                batch_size=len(batch_docs), max_len=12)
        loss = m.batch_loss(batch)
        loss.backward()
        return float(loss.data), {name: p.grad.copy()
                                  for name, p in params.items()}

    loss, grads = loss_and_grads(docs)
    permuted_loss, permuted = loss_and_grads(data.draw(st.permutations(docs)))
    assert abs(loss - permuted_loss) <= 1e-12
    for name in params:
        np.testing.assert_allclose(permuted[name], grads[name], rtol=0,
                                   atol=1e-12, err_msg=name)
