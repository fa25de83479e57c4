"""Training loop, metrics, checkpointing, and the ablation harness."""

import dataclasses
import gc
import json
import os
import struct
import weakref

import numpy as np
import pytest

from oracles import (
    accuracy_by_hand, full_width_filter, prf_by_hand, recount_confusion,
)

from faet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from faet.corpus import (CorpusError, TokenizedDoc, build_vocab, encode_doc,
                         make_batches)
from faet.model import Model, TrainConfig
from faet.optim import Adam
import faet.model
from faet.synthetic import gen_overfit, gen_xor
from faet.trainer import (
    NanLossError, PUBLISHED_REFERENCE, ablate, evaluate, gradcheck_config,
    gradient_check_report, metrics_from_pairs, train,
)


def tiny_config(**overrides):
    base = dict(d=6, d_w=5, n_filters=3, widths=(2, 3), dropout=0.0,
                batch_size=8, epochs=3, max_len=20, lr=5e-3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def _write_checkpoint(path, version: int, config: dict, vocab: dict,
                      entries) -> None:
    """Write format `version` byte by byte from (name, array) `entries`,
    in the order given."""
    blob = bytearray(b"FAET" + struct.pack("<I", version))
    for meta in (config, vocab):
        raw = json.dumps(meta, sort_keys=True, ensure_ascii=False).encode()
        blob += struct.pack("<Q", len(raw)) + raw
    blob += struct.pack("<I", len(entries))
    for name, arr in entries:
        blob += struct.pack("<H", len(name)) + name.encode()
        blob += struct.pack("<B", arr.ndim)
        blob += b"".join(struct.pack("<Q", n) for n in arr.shape)
        blob += arr.astype("<f8").tobytes()
    path.write_bytes(bytes(blob))


def _v1_entries(model):
    """`model`'s parameters as format 1 stored them, in sorted-name order:
    no `cnn.summary`, and each TextCNN filter at full width."""
    state = {k: v for k, v in model.state().items() if k != "cnn.summary"}
    for w in model.cnn.filters:
        state[f"cnn.filters_w{w}"] = full_width_filter(model.cnn, w)
    return [(name, state[name]) for name in sorted(state)]


class TestMetrics:
    def test_hand_case(self):
        pairs = [(1, 1)] * 3 + [(1, 0)] * 1 + [(0, 1)] * 1 + [(0, 0)] * 5
        report = metrics_from_pairs(pairs)
        assert report.counts == {"tp": 3, "fp": 1, "fn": 1, "tn": 5}
        assert report.per_class[1]["precision"] == 0.75
        assert report.per_class[1]["recall"] == 0.75
        assert report.accuracy == 0.8
        assert report.per_class[1]["f1"] == 0.75

    def test_perfect_classifier(self):
        report = metrics_from_pairs([(1, 1)] * 4 + [(0, 0)] * 6)
        assert report.accuracy == 1.0
        for c in (0, 1):
            assert report.per_class[c] == {"precision": 1.0, "recall": 1.0,
                                           "f1": 1.0}

    def test_all_positive_on_reference_test_composition(self):
        # 884 positive, 902 negative: predict-everything-positive baseline
        pairs = [(1, 1)] * 884 + [(1, 0)] * 902
        report = metrics_from_pairs(pairs)
        np.testing.assert_allclose(report.accuracy, 884 / 1786)
        assert report.per_class[1]["recall"] == 1.0
        assert "precision_0" in report.zero_division  # no negatives predicted

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(0)
        pairs = [(int(p), int(y))
                 for p, y in zip(rng.integers(0, 2, 1000),
                                 rng.integers(0, 2, 1000))]
        report = metrics_from_pairs(pairs)
        counts = recount_confusion(pairs)
        assert report.counts == counts
        p, r, f1 = prf_by_hand(counts["tp"], counts["fp"], counts["fn"])
        assert report.per_class[1] == {"precision": p, "recall": r, "f1": f1}
        assert report.accuracy == accuracy_by_hand(counts)

    def test_micro_equals_accuracy_for_binary(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pairs = [(int(p), int(y))
                     for p, y in zip(rng.integers(0, 2, 50),
                                     rng.integers(0, 2, 50))]
            report = metrics_from_pairs(pairs)
            assert report.micro["precision"] == report.accuracy
            assert report.micro["recall"] == report.accuracy

    def test_zero_denominators_flagged_as_zero(self):
        report = metrics_from_pairs([(0, 1)] * 5)
        assert report.per_class[1]["precision"] == 0.0
        assert "precision_1" in report.zero_division

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_pairs([])


class TestEvaluate:
    def test_never_mutates_parameters(self):
        docs = gen_overfit(16, seed=1)
        model = Model(tiny_config(), build_vocab(docs))
        before = {k: v.copy() for k, v in model.state().items()}
        evaluate(model, docs)
        after = model.state()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_requires_labels(self):
        docs = gen_overfit(16, seed=1)
        model = Model(tiny_config(), build_vocab(docs))
        docs[3] = TokenizedDoc(docs[3].text_tokens, docs[3].emoji_tokens, None)
        with pytest.raises(ValueError, match="label"):
            evaluate(model, docs)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, [])


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_and_loss_constant(self):
        docs = gen_overfit(16, seed=2)
        config = tiny_config(lr=0.0, epochs=3)
        vocab = build_vocab(docs)
        model = Model(config, vocab)
        before = model.state()
        result = train(docs, docs, config, model=model)
        after = result.model.state()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
        losses = [e["train_loss"] for e in result.log]
        assert max(losses) - min(losses) < 1e-12

    def test_same_seed_identical_logs(self):
        docs = gen_overfit(16, seed=3)
        config = tiny_config(dropout=0.2, epochs=3, seed=11)
        log_a = train(docs, docs, config).log
        log_b = train(docs, docs, config).log
        assert log_a == log_b  # exact float equality

    def test_nan_loss_aborts_with_batch_index(self):
        docs = gen_overfit(16, seed=4)
        config = tiny_config()
        model = Model(config, build_vocab(docs))
        model.parameters()["out_w"].data[0, 0] = np.nan
        with pytest.raises(NanLossError, match="epoch 1, batch 0"):
            train(docs, docs, config, model=model)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_training_leaves_no_cyclic_garbage(self, enabled, monkeypatch):
        # two emojis per document, so the alignment loss runs too
        docs = [TokenizedDoc(d.text_tokens, d.emoji_tokens + ["E_N"], d.label)
                for d in gen_overfit(16, seed=6)]
        collector_on = []
        step = Adam.step

        def recording_step(self):
            collector_on.append(gc.isenabled())
            step(self)
        monkeypatch.setattr(Adam, "step", recording_step)
        gc.collect()
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            train(docs, docs, tiny_config(dropout=0.2, epochs=2))
            assert gc.isenabled() is enabled
            assert gc.collect() == 0
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert collector_on and not any(collector_on)  # paused every step

    @pytest.mark.parametrize("enabled", [True, False])
    def test_nan_loss_restores_collector_state(self, enabled):
        docs = gen_overfit(16, seed=4)
        config = tiny_config()
        model = Model(config, build_vocab(docs))
        model.parameters()["out_w"].data[0, 0] = np.nan
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(NanLossError):
                train(docs, docs, config, model=model)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_unlabeled_document_fails_before_any_epoch(self, split, tmp_path,
                                                       monkeypatch):
        docs = gen_overfit(16, seed=10)
        unlabeled = list(docs)
        unlabeled[3] = TokenizedDoc(docs[3].text_tokens, docs[3].emoji_tokens,
                                    None)
        train_docs, val_docs = ((unlabeled, docs) if split == "train"
                                else (docs, unlabeled))
        steps = []
        monkeypatch.setattr(Adam, "step", lambda self: steps.append(self))
        log = tmp_path / "log.jsonl"
        with pytest.raises(ValueError, match="without label"):
            train(train_docs, val_docs, tiny_config(), log_path=str(log))
        assert steps == []
        assert not log.exists() or log.read_text() == ""

    def test_unknown_validation_emoji_fails_before_any_epoch(
            self, tmp_path, monkeypatch):
        docs = gen_overfit(16, seed=10)
        val_docs = list(docs)
        val_docs[3] = TokenizedDoc(docs[3].text_tokens, ["E_NEW"],
                                   docs[3].label)
        losses = []
        batch_loss = Model.batch_loss
        monkeypatch.setattr(Model, "batch_loss", lambda *args, **kwargs:
                            losses.append(1) or batch_loss(*args, **kwargs))
        log = tmp_path / "log.jsonl"
        with pytest.raises(CorpusError, match="^validation document 4: "
                           "emoji token 'E_NEW' not in vocabulary"):
            train(docs, val_docs, tiny_config(), log_path=str(log))
        assert losses == []
        assert not log.exists()

    def test_emoji_free_training_document_leaves_the_prior_log(
            self, tmp_path):
        docs = gen_overfit(16, seed=10)
        train_docs = list(docs)
        train_docs[1] = TokenizedDoc(docs[1].text_tokens, [], docs[1].label)
        log = tmp_path / "log.jsonl"
        log.write_bytes(b'{"epoch": 1}\n')
        with pytest.raises(CorpusError, match="^train document 2: "):
            train(train_docs, docs, tiny_config(), log_path=str(log))
        assert log.read_bytes() == b'{"epoch": 1}\n'

    def test_gradients_are_dropped_when_each_step_ends(self, monkeypatch):
        docs = gen_overfit(16, seed=7)
        config = tiny_config(epochs=2)
        model = Model(config, build_vocab(docs))
        params = list(model.parameters().values())
        for p in params:  # leftovers of the caller's own backward
            p.grad[...] = 1.0
        held = []  # (what began, parameters holding a gradient)

        def recorder(fn, what):
            def recorded(*args, **kwargs):
                held.append((what, sum(p._grad is not None for p in params)))
                return fn(*args, **kwargs)
            return recorded
        monkeypatch.setattr(Model, "batch_loss",
                            recorder(Model.batch_loss, "step"))
        monkeypatch.setattr(faet.trainer, "_mean_loss_and_accuracy",
                            recorder(faet.trainer._mean_loss_and_accuracy,
                                     "validation"))
        train(docs, docs, config, model=model)
        # 2 steps and a validation per epoch
        assert [what for what, _ in held] == ["step", "step", "validation"] * 2
        assert [n for _, n in held] == [0] * 6
        assert all(p._grad is None for p in params)

    def test_a_raising_step_leaves_no_gradient(self, monkeypatch):
        docs = gen_overfit(16, seed=7)
        config = tiny_config()
        model = Model(config, build_vocab(docs))
        step = Adam.step

        def overflowing_step(self):
            step(self)
            raise FloatingPointError("overflow encountered in multiply")
        monkeypatch.setattr(Adam, "step", overflowing_step)
        with pytest.raises(NanLossError, match="epoch 1, batch 0: overflow"):
            train(docs, docs, config, model=model)
        assert all(p._grad is None for p in model.parameters().values())

    @pytest.mark.parametrize("overrides, named", [
        ({"dropout": 0.1}, "dropout (0.1 != model's 0.0)"),
        ({"max_len": 12}, "max_len (12 != model's 20)"),
        ({"d": 4, "widths": (2,), "lambda_align": 0.5},
         "d (4 != model's 6), widths ((2,) != model's (2, 3)), "
         "lambda_align (0.5 != model's 0.1)"),
    ])
    def test_a_config_the_model_does_not_have_is_refused(self, overrides,
                                                         named):
        docs = gen_overfit(16, seed=7)
        model = Model(tiny_config(), build_vocab(docs))
        with pytest.raises(ValueError) as info:
            train(docs, docs, tiny_config(**overrides), model=model)
        assert str(info.value) == ("train: config differs from the model's "
                                   "on " + named)

    def test_loop_fields_may_differ_from_the_model(self):
        docs = gen_overfit(16, seed=7)
        config = tiny_config(epochs=3)
        model = Model(config, build_vocab(docs))
        loop = dataclasses.replace(config, epochs=1, batch_size=4, lr=1e-3,
                                   seed=5, min_count=2)
        result = train(docs, docs, loop, model=model)
        assert len(result.log) == 1

    def test_best_checkpoint_ties_keep_earlier_epoch(self):
        docs = gen_overfit(16, seed=5)
        config = tiny_config(lr=0.0, epochs=4)  # val accuracy constant
        result = train(docs, docs, config)
        assert result.best_epoch == 1

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_one_parameter_copy_per_best_epoch(self, epochs, monkeypatch):
        docs = gen_overfit(16, seed=5)
        copies = []
        state = Model.state

        def counting_state(self):
            copies.append(self)
            return state(self)
        monkeypatch.setattr(Model, "state", counting_state)
        # lr 0 keeps validation accuracy constant: epoch 1 is the only best
        result = train(docs, docs, tiny_config(lr=0.0, epochs=epochs))
        assert result.best_epoch == 1
        assert len(copies) == 1

    def test_snapshot_refreshed_in_place_holds_the_best_epoch(self):
        # validation accuracy improves at epochs 3 and 5 of 6
        docs, val_docs = gen_overfit(16, seed=1), gen_overfit(16, seed=101)
        config = tiny_config(epochs=6, lr=0.01, seed=1)
        result = train(docs, val_docs, config)
        assert result.best_epoch == 5
        at_best = train(docs, val_docs,
                        dataclasses.replace(config, epochs=5)).model.state()
        params = result.model.parameters()
        for name, arr in result.best_state.items():
            assert arr.tobytes() == at_best[name].tobytes(), name
            assert not np.shares_memory(arr, params[name].data), name

    def test_loss_non_increasing_after_epoch_three_across_seeds(self):
        # statistical smoke: >= 9 of 10 seeded runs are monotone past epoch 3
        good = 0
        for seed in range(10):
            docs = gen_overfit(16, seed=seed)
            config = tiny_config(epochs=8, seed=seed, lr=5e-3)
            losses = [e["train_loss"] for e in train(docs, docs, config).log]
            diffs = np.diff(losses[2:])
            good += int(np.all(diffs <= 1e-9))
        assert good >= 9


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        docs = gen_overfit(16, seed=6)
        config = tiny_config(epochs=1)
        result = train(docs, docs, config)
        path = str(tmp_path / "model.faet")
        save_checkpoint(result.model, path)
        with open(path, "rb") as fh:  # the magic, then u32 format version 2
            assert fh.read(8) == b"FAET" + struct.pack("<I", 2)
        loaded = load_checkpoint(path)
        original = result.model.state()
        for name, arr in loaded.state().items():
            np.testing.assert_array_equal(arr, original[name])
        assert loaded.config == result.model.config
        assert loaded.vocab.text_to_id == result.model.vocab.text_to_id
        assert load_checkpoint(path).config.d == config.d

    def test_scoring_models_carry_no_gradient_storage(self, tmp_path):
        docs = gen_overfit(16, seed=6)
        model = Model(tiny_config(), build_vocab(docs))
        path = str(tmp_path / "model.faet")
        save_checkpoint(model, path)
        trained = train(docs, docs, tiny_config(epochs=1)).model
        for scorer in (model, load_checkpoint(path), trained):
            params = scorer.parameters().values()
            assert all(p._grad is None for p in params)
            evaluate(scorer, docs)
            scorer.predict_doc(*encode_doc(docs[0], scorer.vocab,
                                           scorer.config.max_len))
            assert all(p._grad is None for p in params)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.faet"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="not a FAET checkpoint"):
            load_checkpoint(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        docs = gen_overfit(16, seed=7)
        model = Model(tiny_config(), build_vocab(docs))
        path = str(tmp_path / "model.faet")
        save_checkpoint(model, path)
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = (99).to_bytes(4, "little")
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        docs = gen_overfit(16, seed=8)
        model = Model(tiny_config(), build_vocab(docs))
        path = str(tmp_path / "model.faet")
        save_checkpoint(model, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_mismatched_hidden_size_rejected(self, tmp_path):
        docs = gen_overfit(16, seed=9)
        model = Model(tiny_config(d=6), build_vocab(docs))
        # lie about d in the embedded config: blob shapes no longer match
        model.config = dataclasses.replace(model.config, d=7)
        path = str(tmp_path / "model.faet")
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)

    def test_v1_file_naming_retired_config_field_loads(self, tmp_path):
        # byte layout of format 1 as earlier releases wrote it, whose config
        # JSON still carried the encoder mode, and whose TextCNN filters
        # carried their summary columns at every shift
        docs = gen_overfit(16, seed=11)
        model = Model(tiny_config(), build_vocab(docs))
        config = dict(model.config.to_json_dict(),
                      encoder_mode="trainable_table")
        path = tmp_path / "old.faet"
        _write_checkpoint(path, 1, config, model.vocab.to_json_dict(),
                          _v1_entries(model))
        loaded = load_checkpoint(str(path))
        assert loaded.config == model.config
        state, loaded_state = model.state(), loaded.state()
        assert set(loaded_state) == set(state)
        for name, arr in state.items():
            assert loaded_state[name].tobytes() == arr.tobytes()

    def test_v1_file_with_a_repeated_width_loads(self, tmp_path):
        # a repeated width's one filter serves each of its summary blocks
        docs = gen_overfit(16, seed=11)
        model = Model(tiny_config(widths=(2, 3, 2)), build_vocab(docs))
        path = tmp_path / "old.faet"
        _write_checkpoint(path, 1, model.config.to_json_dict(),
                          model.vocab.to_json_dict(), _v1_entries(model))
        state, loaded_state = model.state(), load_checkpoint(str(path)).state()
        assert set(loaded_state) == set(state)
        for name, arr in state.items():
            assert loaded_state[name].tobytes() == arr.tobytes()

    def test_duplicate_parameter_name_rejected(self, tmp_path):
        docs = gen_overfit(16, seed=13)
        model = Model(tiny_config(), build_vocab(docs))
        state = model.state()
        entries = [(name, state[name]) for name in sorted(state)]
        assert entries[0][0] == "cnn.bias_w2"
        path = tmp_path / "dup.faet"
        _write_checkpoint(path, 2, model.config.to_json_dict(),
                          model.vocab.to_json_dict(), entries[:1] + entries)
        with pytest.raises(CheckpointError,
                           match="'cnn.bias_w2' appears twice"):
            load_checkpoint(str(path))

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        docs = gen_overfit(16, seed=14)
        model = Model(tiny_config(), build_vocab(docs))
        path = str(tmp_path / "model.faet")
        save_checkpoint(model, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("random numbers drawn")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(np.random, "SeedSequence", no_draws)
        loaded = load_checkpoint(path)
        Model.from_state(loaded.config, loaded.vocab, loaded.state())

    def test_loaded_parameters_are_trainable_arrays(self, tmp_path):
        docs = gen_overfit(16, seed=15)
        vocab = build_vocab(docs)
        model = Model(tiny_config(), vocab)
        path = str(tmp_path / "model.faet")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        params = loaded.parameters()
        for name, p in params.items():
            assert p.data.dtype == np.float64, name
            assert p.data.flags.c_contiguous, name
            assert p.data.flags.writeable, name
        before = loaded.state()
        optimizer = Adam(params, lr=1e-2)
        (batch,) = make_batches(docs[:4], vocab, 4, max_len=20,
                                shuffle=False)
        loaded.batch_loss(batch).backward()
        optimizer.step()
        assert any(not np.array_equal(before[name], p.data)
                   for name, p in params.items())

    def test_failed_save_leaves_previous_file(self, tmp_path):
        docs = gen_overfit(16, seed=12)
        model = Model(tiny_config(), build_vocab(docs))
        path = tmp_path / "model.faet"
        save_checkpoint(model, str(path))
        before = path.read_bytes()
        model.cnn.filter_bias[2].data += 1.0  # first blob written
        # out_b comes mid-file in sorted-name order and cannot be encoded
        model.cnn.out_b.data = np.array(["not", "numbers"], dtype=object)
        with pytest.raises(ValueError):
            save_checkpoint(model, str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.faet"]

    def test_coarse_checkpoint_loads_and_predicts(self, tmp_path):
        docs = gen_overfit(16, seed=10)
        config = tiny_config(variant="coarse", epochs=1)
        result = train(docs, docs, config)
        path = str(tmp_path / "coarse.faet")
        save_checkpoint(result.model, path)
        loaded = load_checkpoint(path)
        pred = loaded.predict_doc(
            loaded.vocab.encode_text(docs[0].text_tokens),
            loaded.vocab.encode_emojis(docs[0].emoji_tokens))
        assert pred["label"] in (0, 1)


class TestAblate:
    def test_report_shape_and_isolation(self, monkeypatch):
        train_docs, test_docs = gen_xor(32, 16, seed=12)
        config = tiny_config(epochs=2, seed=21, batch_size=16)
        monkeypatch.setattr(faet.trainer, "ABLATE_EXAMPLES", 5)
        report = ablate(train_docs, test_docs, test_docs, config)
        assert set(report["variants"]) == {"fine", "coarse"}
        for variant in report["variants"].values():
            assert 0.0 <= variant["metrics"]["accuracy"] <= 1.0
        agreement = report["agreement"]
        assert sum(agreement.values()) == len(test_docs)
        assert len(report["examples"]) == 5
        assert report["published_reference"] == PUBLISHED_REFERENCE
        for ex in report["examples"]:
            assert {"text", "emojis", "fine", "coarse", "label"} == set(ex)

        # the coarse run is unaffected by the fine run having happened first
        coarse_cfg = dataclasses.replace(config, variant="coarse")
        standalone = train(train_docs, test_docs, coarse_cfg)
        assert (standalone.best_val_acc
                == report["variants"]["coarse"]["best_val_acc"])


    def test_a_finished_variant_is_released_before_the_next_trains(
            self, monkeypatch):
        train_docs, test_docs = gen_xor(32, 16, seed=12)
        trained = []  # weak references to each variant's trained model
        live_at_start = []

        def tracked(*args, _train=faet.trainer.train, **kwargs):
            live_at_start.append([ref() is not None for ref in trained])
            result = _train(*args, **kwargs)
            trained.append(weakref.ref(result.model))
            return result
        monkeypatch.setattr(faet.trainer, "train", tracked)
        ablate(train_docs, test_docs, test_docs, tiny_config(epochs=1))
        assert live_at_start == [[], [False]]

    def test_unknown_test_emoji_fails_before_training(self, monkeypatch):
        train_docs, test_docs = gen_xor(32, 16, seed=12)
        test_docs[2] = TokenizedDoc(test_docs[2].text_tokens, ["E_NEW"],
                                    test_docs[2].label)
        calls = []
        for owner, name in ((faet.trainer, "train"), (Model, "batch_loss")):
            def counted(*args, _original=getattr(owner, name), **kwargs):
                calls.append(name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        with pytest.raises(CorpusError, match="^test document 3: "
                           "emoji token 'E_NEW' not in vocabulary"):
            ablate(train_docs, train_docs, test_docs, tiny_config(epochs=2))
        assert calls == []


class TestGradientCheckReport:
    def test_batch_has_rows_of_different_lengths_longest_not_first(
            self, monkeypatch):
        seen = []
        encode = faet.model.bilstm_encode_batch

        def spy(seq, fwd, bwd, lengths):
            seen.append(np.array(lengths))
            return encode(seq, fwd, bwd, lengths)

        monkeypatch.setattr(faet.model, "bilstm_encode_batch", spy)
        gradient_check_report(samples_per_group=1, tolerance=1e-4)
        lengths = seen[0]
        assert len(lengths) >= 2 and len(set(lengths.tolist())) >= 2
        assert lengths[0] < lengths.max()
        assert all(np.array_equal(s, lengths) for s in seen)

    def test_every_group_has_a_nonzero_analytic_gradient(self):
        report = gradient_check_report(samples_per_group=2, tolerance=1e-4)
        assert report["zero_gradient"] == []
        assert report["pass"] is True
        assert max(report["groups"].values()) <= 1e-4

    def test_group_with_all_zero_gradient_fails_and_is_named(
            self, monkeypatch):
        # no window of width 12 fits a row of at most 9 positions, so that
        # width's filters and bias get no gradient at all
        config = dataclasses.replace(gradcheck_config(), widths=(2, 12))
        monkeypatch.setattr(faet.trainer, "gradcheck_config", lambda: config)
        report = gradient_check_report(samples_per_group=2, tolerance=1.0)
        assert report["zero_gradient"] == ["cnn.filters_w12", "cnn.bias_w12"]
        assert report["max_relative_error"] <= report["tolerance"]
        assert report["pass"] is False
