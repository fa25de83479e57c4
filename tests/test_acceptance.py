"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one "[ACCEPTANCE] name: PASS" line on success (run with
-s to see them).  The published aggregate numbers for the reference corpus
are recorded as constants and never used as targets: that corpus is
private and its text encoder is out of scope, so this property suite is
the substitute.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

from oracles import (
    LstmState, accuracy_by_hand, initial_state, lstm_step, prf_by_hand,
    recount_confusion, unigram_logistic_baseline,
)

from faet import autograd as ag
from faet.attention import FineAttentionParams, fine_attention
from faet.classifier import TextCnnParams, textcnn_forward_batch
from faet.corpus import split_sizes, write_jsonl
from faet.embedding import BisenseEmojiEmbedding
from faet.encoder import LstmParams
from faet.model import TrainConfig
from faet.objective import alignment_loss
from faet.synthetic import gen_overfit, gen_xor
from faet.trainer import (
    PUBLISHED_REFERENCE, ablate, evaluate, metrics_from_pairs, train,
)


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "faet", *args],
                          capture_output=True, text=True, env=env)


def report_pass(name):
    print(f"[ACCEPTANCE] {name}: PASS")


class TestNonReproducibilityStatement:
    def test_reference_numbers_recorded_not_asserted(self):
        # fine 0.852/0.855/0.856 and coarse 0.842/0.840/0.845 come from a
        # private corpus with an out-of-scope pretrained text encoder; they
        # ride along in reports for context only
        fine = PUBLISHED_REFERENCE["fine_grained"]
        coarse = PUBLISHED_REFERENCE["coarse_grained"]
        assert (fine["accuracy"], fine["precision"], fine["recall"]) == \
            (0.852, 0.855, 0.856)
        assert (coarse["accuracy"], coarse["precision"], coarse["recall"]) == \
            (0.842, 0.840, 0.845)
        assert "not a reproduction target" in PUBLISHED_REFERENCE["note"]
        report_pass("non-reproducibility statement (property suite substitutes)")


class TestGradientIntegrity:
    def test_cli_gradcheck_all_groups_within_tolerance(self):
        start = time.monotonic()
        result = run_cli("gradcheck")
        elapsed = time.monotonic() - start
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["pass"] is True
        bad = {k: v for k, v in report["groups"].items() if v > 1e-4}
        assert bad == {}, f"groups over tolerance: {bad}"
        expected_groups = {"text_embed", "emoji_sense_pos", "emoji_sense_neg",
                           "sense_att_w", "sense_att_v", "interaction_w",
                           "distance_w", "out_w", "out_b"}
        assert expected_groups <= set(report["groups"])
        assert any(g.startswith("lstm_fwd.") for g in report["groups"])
        assert any(g.startswith("lstm_bwd.") for g in report["groups"])
        assert any(g.startswith("cnn.") for g in report["groups"])
        assert elapsed < 60.0
        report_pass(f"gradient integrity (max rel err "
                    f"{report['max_relative_error']:.2e}, {elapsed:.1f}s)")


class TestNormalizationFuzz:
    def test_every_softmax_site_normalizes(self):
        rng = np.random.default_rng(2024)
        failures = 0

        def check(dist, axis=None):
            nonlocal failures
            arr = dist.data
            sums = arr.sum(axis=axis) if axis is not None else arr.sum()
            if not (np.all(arr >= 0) and np.all(np.abs(sums - 1.0) <= 1e-6)):
                failures += 1

        for trial in range(200):  # x5 sites = 1000 fuzzed inputs
            with ag.no_grad():
                # 1. bi-sense attention over the two senses
                table = BisenseEmojiEmbedding(3, 4, np.random.default_rng(trial))
                _, alpha = table.mix([0, 1, 2],
                                     ag.constant(rng.uniform(-3, 3, 4)))
                check(alpha, axis=1)

                # 2 + 3. both pooling directions of the interaction matrix
                n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
                text = ag.constant(rng.uniform(-3, 3, (1, n, 6)))
                emoji = ag.constant(rng.uniform(-3, 3, (1, m, 6)))
                scorer = FineAttentionParams(6, None)
                scorer.interaction_w.data[:] = rng.uniform(-3, 3, 18)
                out = fine_attention(text, emoji, scorer, [n], [m])
                check(ag.constant(out.emoji_weights))
                check(ag.constant(out.text_weights))

                # 4. per-word emoji rows
                check(out.word_emoji_weights, axis=2)

                # 5. class probabilities
                params = TextCnnParams(6, 4, 3, np.random.default_rng(trial + 1),
                                       widths=(2, 3))
                logits = textcnn_forward_batch(
                    ag.constant(rng.uniform(-3, 3, (1, n + m, 6))),
                    ag.constant(rng.uniform(-3, 3, (1, 4))), params, [n + m])
                check(ag.constant(ag.softmax_array(logits.data, 1)))

        assert failures == 0
        report_pass("normalization fuzz (1000 inputs, zero failures)")


class TestMetricsOracleEquivalence:
    def test_exact_match_on_random_pairs_and_hand_case(self):
        rng = np.random.default_rng(7)
        pairs = [(int(p), int(y))
                 for p, y in zip(rng.integers(0, 2, 1000),
                                 rng.integers(0, 2, 1000))]
        report = metrics_from_pairs(pairs)
        counts = recount_confusion(pairs)
        assert report.counts == counts
        precision, recall, f1 = prf_by_hand(counts["tp"], counts["fp"],
                                            counts["fn"])
        assert report.per_class[1]["precision"] == precision
        assert report.per_class[1]["recall"] == recall
        assert report.per_class[1]["f1"] == f1
        assert report.accuracy == accuracy_by_hand(counts)

        hand = metrics_from_pairs([(1, 1)] * 3 + [(1, 0)] + [(0, 1)]
                                  + [(0, 0)] * 5)
        assert hand.per_class[1]["precision"] == 0.75
        assert hand.per_class[1]["recall"] == 0.75
        assert hand.accuracy == 0.8
        assert hand.per_class[1]["f1"] == 0.75
        report_pass("metrics oracle equivalence (1000 pairs exact + hand case)")


class TestAlignmentLossValues:
    def test_unit_values_and_bound(self):
        w0 = ag.constant(np.zeros(6))
        text1 = ag.constant(np.zeros((1, 3)))
        assert float(alignment_loss(ag.constant(np.ones((1, 2)) / 2), text1,
                                    ag.constant(np.zeros(6))).data) == 0.0

        same = ag.constant(np.tile([0.25, 0.75], (3, 1)))
        text3 = ag.constant(np.random.default_rng(0).normal(size=(3, 3)))
        assert abs(float(alignment_loss(same, text3, w0).data)) <= 1e-15

        beta = ag.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
        text2 = ag.constant(np.random.default_rng(1).normal(size=(2, 3)))
        hand = float(alignment_loss(beta, text2, w0).data)
        assert abs(hand - (-1.0)) <= 1e-9

        rng = np.random.default_rng(2)
        for _ in range(200):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            raw = rng.uniform(0, 1, (n, m)) + 1e-9
            rows = ag.constant(raw / raw.sum(axis=1, keepdims=True))
            text = ag.constant(rng.normal(size=(n, 4)))
            w = ag.constant(rng.normal(size=8))
            with ag.no_grad():
                value = float(alignment_loss(rows, text, w).data)
            assert value <= 0.0
            assert abs(value) <= 2.0 * n * (n - 1) / 2.0 + 1e-9
        report_pass("alignment-loss unit values (0 / 0 / -1.0 / bounded)")


class TestAnalyticLayerValues:
    def test_zero_parameter_lstm_and_classifier(self):
        p = LstmParams(1, 1, np.random.default_rng(0))
        p.w_in.data[...] = 0.0
        p.w_rec.data[...] = 0.0
        p.bias.data[...] = 0.0
        weights = (p.w_in, p.w_rec, p.bias)
        x = ag.constant(np.zeros(1))
        out = lstm_step(x, initial_state(1), *weights)
        assert abs(out.h.data[0]) <= 1e-12 and abs(out.c.data[0]) <= 1e-12

        prev = LstmState(ag.constant(np.zeros(1)), ag.constant([2.0]))
        out = lstm_step(x, prev, *weights)
        assert abs(out.c.data[0] - 1.0) <= 1e-12
        assert abs(out.h.data[0] - 0.5 * np.tanh(1.0)) <= 1e-12

        cnn = TextCnnParams(4, 4, 4, np.random.default_rng(1), (2, 3, 4))
        for param in cnn.parameters().values():
            param.data[...] = 0.0
        logits = textcnn_forward_batch(
            ag.constant(np.random.default_rng(2).uniform(-1, 1, (1, 5, 4))),
            ag.constant(np.random.default_rng(3).uniform(-1, 1, (1, 4))), cnn,
            [5])
        assert np.all(np.abs(ag.softmax_array(logits.data, 1) - 0.5) <= 1e-12)
        report_pass("analytic layer values (LSTM cells, classifier 0.5/0.5)")


class TestDeterminism:
    def test_identical_cli_train_runs_are_bitwise_equal(self, tmp_path):
        corpus = tmp_path / "train.jsonl"
        write_jsonl(gen_overfit(24, seed=4), str(corpus))
        flags = ["--train", str(corpus), "--val", str(corpus),
                 "--d", "6", "--d-w", "5", "--n-filters", "3",
                 "--epochs", "3", "--batch-size", "8", "--lr", "0.01",
                 "--dropout", "0.2", "--seed", "13"]
        outputs = {}
        for tag in ("a", "b"):
            out = tmp_path / f"model_{tag}.faet"
            log = tmp_path / f"log_{tag}.jsonl"
            result = run_cli("train", *flags, "--out", str(out),
                             "--log", str(log))
            assert result.returncode == 0, result.stderr
            outputs[tag] = (log.read_bytes(), out.read_bytes(),
                            (tmp_path / f"model_{tag}.faet.final").read_bytes())
        assert outputs["a"][0] == outputs["b"][0], "epoch logs differ"
        assert outputs["a"][1] == outputs["b"][1], "best checkpoints differ"
        assert outputs["a"][2] == outputs["b"][2], "final checkpoints differ"
        report_pass("determinism (bitwise-identical logs and checkpoints)")


class TestSplitConformance:
    def test_floor_rule_and_reference_discrepancy_note(self, tmp_path):
        assert split_sizes(8930, (7.0, 2.0, 1.0)) == (6251, 1786, 893)
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(gen_overfit(8930, seed=5), str(corpus))
        result = run_cli("split", "--in", str(corpus),
                         "--out-dir", str(tmp_path / "splits"), "--seed", "7")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert (report["train"], report["test"], report["val"]) == \
            (6251, 1786, 893)
        assert "6250/1786/894" in report["reference_note"]
        for name, expected in (("train", 6251), ("test", 1786), ("val", 893)):
            lines = (tmp_path / "splits" / f"{name}.jsonl").read_bytes()
            assert lines.count(b"\n") == expected
        report_pass("split conformance (6251/1786/893 + reference note)")


class TestOverfit:
    def test_memorizes_synthetic_corpus_with_stock_defaults(self):
        docs = gen_overfit(64, seed=0)
        config = TrainConfig(epochs=200, seed=0)  # all other fields default
        start = time.monotonic()
        result = train(docs, docs, config)
        elapsed = time.monotonic() - start
        accuracy = evaluate(result.model, docs).accuracy
        assert accuracy >= 0.95, f"train accuracy {accuracy}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        report_pass(f"overfit (train acc {accuracy:.3f} in {elapsed:.1f}s)")


class TestXorInteractionNecessity:
    def test_fine_model_beats_unigram_oracle(self):
        train_docs, test_docs = gen_xor(512, 128, seed=0)
        fit_docs, val_docs = train_docs[:448], train_docs[448:]
        config = TrainConfig(d=32, d_w=32, n_filters=16, dropout=0.2,
                             batch_size=32, epochs=12, lr=2e-3, seed=0)
        start = time.monotonic()
        report = ablate(fit_docs, val_docs, test_docs, config)
        elapsed = time.monotonic() - start

        fine_acc = report["variants"]["fine"]["metrics"]["accuracy"]
        coarse_acc = report["variants"]["coarse"]["metrics"]["accuracy"]
        oracle_acc = unigram_logistic_baseline(train_docs, test_docs)
        assert fine_acc >= 0.90, f"fine-variant accuracy {fine_acc}"
        assert oracle_acc <= 0.75, f"unigram oracle accuracy {oracle_acc}"
        # the coarse ablation rides along report-only, no threshold imposed
        assert 0.0 <= coarse_acc <= 1.0
        assert report["published_reference"] == PUBLISHED_REFERENCE
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        report_pass(f"xor interaction necessity (fine {fine_acc:.3f}, "
                    f"oracle {oracle_acc:.3f}, coarse {coarse_acc:.3f} "
                    f"report-only, {elapsed:.1f}s)")
