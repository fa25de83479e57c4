"""The one scoring path: chunked no-grad `Model.score` against
`Model.predict_doc`, on generated documents: probabilities, labels and
the per-document `--explain` payloads."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from faet.classifier import predict_label
from faet.corpus import TokenizedDoc, build_vocab, encode_doc
from faet.model import Model, TrainConfig

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


@settings(max_examples=25, derandomize=True, deadline=None)
@given(extra=docs_strategy, variant=st.sampled_from(sorted(MODELS)),
       data=st.data())
def test_batched_scores_match_predict_doc(extra, variant, data):
    model = MODELS[variant]
    docs = data.draw(st.permutations(EDGE_DOCS + extra))
    encoded = [encode_doc(doc, model.vocab, MAX_LEN) for doc in docs]
    # a chunk smaller than the list puts chunk boundaries between docs
    outputs = list(model.score(encoded, chunk=4))
    assert len(outputs) == len(docs)
    for out, (text_ids, emoji_ids) in zip(outputs, encoded):
        single = model.predict_doc(text_ids, emoji_ids, explain=True)
        probs = out.probs.data
        np.testing.assert_allclose(probs, single["probs"], rtol=0, atol=1e-12)
        assert predict_label(out.probs) == single["label"]
        assert abs(math.fsum(probs) - 1.0) <= 1e-12
        assert abs(math.fsum(single["probs"]) - 1.0) <= 1e-12
        # the batch's explain payload is the document's own, never padded
        n, m = len(text_ids), len(emoji_ids)
        explain = out.prediction(explain=True)["explain"]
        assert list(explain) == list(single["explain"])
        shapes = {"sense_weights": (m, 2), "interaction": (n, m),
                  "emoji_weights": (m,), "text_weights": (n,),
                  "word_emoji_weights": (n, m), "coarse_weights": (m,)}
        for name, values in explain.items():
            assert np.shape(values) == shapes[name], name
            np.testing.assert_allclose(values, single["explain"][name],
                                       rtol=0, atol=1e-12, err_msg=name)
