"""CLI subcommands, exit codes, and byte-level reproducibility."""

import argparse
import dataclasses
import json
import os
import struct
import subprocess
import sys

import pytest

from faet import cli, trainer
from faet.autograd import ShapeError
from faet.checkpoint import load_checkpoint, save_checkpoint
from faet.corpus import TokenizedDoc, build_vocab, encode_doc, write_jsonl
from faet.model import VARIANTS, Model, TrainConfig
from faet.synthetic import gen_overfit


def run_cli(*args, env_extra=None, cwd=None):
    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "faet", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


TRAIN_FLAGS = ["--d", "6", "--d-w", "5", "--n-filters", "3", "--epochs", "2",
               "--batch-size", "8", "--lr", "0.01", "--seed", "3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_jsonl(gen_overfit(32, seed=1), str(root / "corpus.jsonl"))
    return root


CONFIG_OPTIONS = {"--d", "--d-w", "--n-filters", "--dropout", "--batch-size",
                  "--epochs", "--max-len", "--lr", "--lambda-align",
                  "--label-smoothing", "--seed", "--variant", "--min-count",
                  "--config"}
OPTIONS = {
    "split": {"--in", "--out-dir", "--ratios", "--seed"},
    "train": {"--train", "--val", "--out", "--log", "--emoji-vectors",
              *CONFIG_OPTIONS},
    "eval": {"--model", "--data", "--pretty"},
    "predict": {"--model", "--data", "--explain"},
    "ablate": {"--train", "--val", "--test", "--pretty", *CONFIG_OPTIONS},
    "gradcheck": {"--samples", "--tolerance"},
    "gen-synthetic": {"--kind", "--out-dir", "--size", "--test-size",
                      "--seed"},
}


def test_each_subcommand_has_exactly_its_options():
    (subs,) = [action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    assert set(subs.choices) == set(OPTIONS)
    for name, sub in subs.choices.items():
        found = {flag for action in sub._actions
                 for flag in action.option_strings}
        assert found == OPTIONS[name] | {"-h", "--help"}, name


def test_variant_choices_are_the_model_variants(capsys):
    parser = cli.build_parser()
    for variant in VARIANTS:
        args = parser.parse_args(["train", "--train", "t", "--val", "v",
                                  "--out", "o", "--variant", variant])
        assert cli._resolve_config(args).variant == variant
    assert cli.main(["ablate", "--train", "t", "--val", "v", "--test", "x",
                     "--variant", "medium"]) == 1
    assert "--variant" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, workspace):
        result = run_cli("split", "--in", str(workspace / "corpus.jsonl"),
                         "--out-dir", str(workspace / "s"), "--bogus")
        assert result.returncode == 1

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli().returncode == 1

    def test_missing_file_is_data_error(self, workspace):
        result = run_cli("split", "--in", str(workspace / "nope.jsonl"),
                         "--out-dir", str(workspace / "s"))
        assert result.returncode == 2
        assert "data error" in result.stderr

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "{model}", "--data", "{dir}"],
        ["eval", "--model", "{dir}", "--data", "{corpus}"],
        ["predict", "--model", "{model}", "--data", "{dir}"],
        ["train", "--train", "{dir}", "--val", "{corpus}", "--out", "{out}"],
        ["train", "--train", "{corpus}", "--val", "{dir}", "--out", "{out}"],
        ["train", "--train", "{corpus}", "--val", "{corpus}", "--out", "{out}",
         "--config", "{dir}"],
        ["split", "--in", "{dir}", "--out-dir", "{out}"],
    ], ids=["eval_data", "eval_model", "predict_data", "train_train",
            "train_val", "train_config", "split_in"])
    def test_directory_input_path_is_data_error(self, workspace, tmp_path,
                                                capsys, argv):
        paths = {"dir": str(tmp_path), "corpus": str(workspace / "corpus.jsonl"),
                 "model": str(tmp_path / "m.faet"),
                 "out": str(tmp_path / "out")}
        save_checkpoint(Model(TrainConfig(d=3, d_w=3, n_filters=2),
                              build_vocab(gen_overfit(16, seed=1))),
                        paths["model"])
        assert cli.main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("faet: data error:") and f"'{tmp_path}'" in err

    @pytest.mark.parametrize("command", [["split", "--in", "{corpus}"],
                                         ["gen-synthetic", "--kind", "xor"]],
                             ids=["split", "gen_synthetic"])
    def test_out_dir_onto_a_file_is_data_error(self, workspace, capsys,
                                               command):
        corpus = workspace / "corpus.jsonl"
        before = corpus.read_bytes()
        argv = [arg.format(corpus=corpus) for arg in command]
        assert cli.main([*argv, "--out-dir", str(corpus)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("faet: data error:") and str(corpus) in err
        assert corpus.read_bytes() == before

    def test_path_under_a_file_is_data_error(self, workspace, capsys):
        path = str(workspace / "corpus.jsonl" / "m.faet")
        assert cli.main(["eval", "--model", path, "--data", path]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["nodir/m.faet", "."],
                             ids=["missing_directory", "a_directory"])
    def test_train_out_exits_two_before_training(self, workspace, tmp_path,
                                                 capsys, out):
        corpus = str(workspace / "corpus.jsonl")
        out = str(tmp_path / out)
        assert cli.main(["train", "--train", corpus, "--val", corpus,
                         "--out", out, "--log", str(tmp_path / "log.jsonl"),
                         *TRAIN_FLAGS]) == 2
        err = capsys.readouterr().err
        assert f"--out {out}" in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_unknown_emoji_exits_two_before_training(self, workspace,
                                                     tmp_path, capsys,
                                                     command, monkeypatch):
        corpus = workspace / "corpus.jsonl"
        changed = tmp_path / "changed.jsonl"
        changed.write_text(corpus.read_text(encoding="utf-8")
                           .replace("E_CRY", "E_NEW"), encoding="utf-8")
        out, log = tmp_path / "out", tmp_path / "log.jsonl"
        out.mkdir()
        steps = []
        batch_loss = Model.batch_loss
        monkeypatch.setattr(Model, "batch_loss", lambda *args, **kwargs:
                            steps.append(1) or batch_loss(*args, **kwargs))
        if command == "train":
            argv = ["train", "--train", str(corpus), "--val", str(changed),
                    "--out", str(out / "m.faet"), "--log", str(log)]
            named = "validation document "
        else:
            argv = ["ablate", "--train", str(corpus), "--val", str(corpus),
                    "--test", str(changed)]
            named = "test document "
        assert cli.main([*argv, *TRAIN_FLAGS]) == 2
        err = capsys.readouterr().err
        assert named in err and "'E_NEW' not in vocabulary" in err
        assert steps == []
        assert list(out.iterdir()) == [] and not log.exists()

    def test_unknown_predict_emoji_exits_two_naming_the_document(
            self, tmp_path, capsys):
        docs = gen_overfit(16, seed=1)
        model = tmp_path / "m.faet"
        save_checkpoint(Model(TrainConfig(d=3, d_w=3, n_filters=2),
                              build_vocab(docs)), str(model))
        docs[2] = TokenizedDoc(docs[2].text_tokens, ["E_NEW"], None)
        write_jsonl(docs, str(tmp_path / "new.jsonl"))
        assert cli.main(["predict", "--model", str(model),
                         "--data", str(tmp_path / "new.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "faet: data error: predict document 3: emoji token 'E_NEW' "
            "not in vocabulary")

    def test_model_too_large_to_allocate_exits_one(self, workspace,
                                                   tmp_path, capsys):
        corpus = str(workspace / "corpus.jsonl")
        # the first array at d = 10**12, about 5.7 PiB, is larger than any
        # user address space, so no machine setting can grant it
        assert cli.main(["train", "--train", corpus, "--val", corpus,
                         "--out", str(tmp_path / "m.faet"),
                         "--d", "1000000000000"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("faet: error: Unable to allocate")
        assert err.count("\n") == 1 and "shape" in err
        assert list(tmp_path.iterdir()) == []

    def test_malformed_corpus_is_data_error(self, workspace):
        bad = workspace / "bad.jsonl"
        bad.write_text('{"text_tokens": []}\n')
        result = run_cli("eval", "--model", "x", "--data", str(bad))
        assert result.returncode == 2

    def test_gradcheck_success_is_zero(self):
        result = run_cli("gradcheck", "--samples", "2")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["pass"] is True
        assert report["max_relative_error"] <= report["tolerance"]

    def test_gradcheck_impossible_tolerance_exits_three(self):
        result = run_cli("gradcheck", "--samples", "2", "--tolerance", "1e-30")
        assert result.returncode == 3

    def test_gradcheck_all_zero_group_exits_three(self, monkeypatch, capsys):
        config = dataclasses.replace(trainer.gradcheck_config(),
                                     widths=(2, 12))
        monkeypatch.setattr(trainer, "gradcheck_config", lambda: config)
        assert cli.main(["gradcheck", "--samples", "1"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["zero_gradient"] == ["cnn.filters_w12", "cnn.bias_w12"]

    @pytest.mark.parametrize("flags, value", [
        (["--samples", "0"], "0"),
        (["--samples", "-3"], "-3"),
        (["--tolerance", "nan"], "nan"),
        (["--tolerance", "-1"], "-1"),
    ])
    def test_gradcheck_bad_option_value_exits_one(self, capsys, flags, value):
        assert cli.main(["gradcheck", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert value in captured.err

    def test_closed_output_pipe_exits_141_without_a_traceback(
            self, tmp_path, capsys):
        docs = gen_overfit(16, seed=1)
        model, data = str(tmp_path / "m.faet"), str(tmp_path / "data.jsonl")
        save_checkpoint(Model(TrainConfig(d=3, d_w=3, n_filters=2),
                              build_vocab(docs)), model)
        write_jsonl(docs * 40, data)
        argv = ["predict", "--model", model, "--data", data, "--explain"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out) > 2 ** 16  # fills a pipe buffer
        proc = subprocess.Popen([sys.executable, "-m", "faet", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()  # the reader leaves, as `| head -c 100` does
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_no_stdout_at_all_still_succeeds(self, tmp_path, monkeypatch):
        # Python sets sys.stdout to None when fd 1 is closed (`faet ... >&-`)
        monkeypatch.setattr(sys, "stdout", None)
        assert cli.main(["gen-synthetic", "--kind", "overfit",
                         "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "overfit.jsonl").exists()

    def test_internal_shape_error_is_not_a_usage_error(self, monkeypatch):
        def broken(args):
            raise ShapeError("matmul: shapes (2,) and (3,)")

        monkeypatch.setitem(cli._COMMANDS, "gradcheck", broken)
        with pytest.raises(ShapeError, match="matmul"):
            cli.main(["gradcheck"])


class TestConfigValidation:
    @pytest.mark.parametrize("config, flags, name", [
        ({"lamda_align": 5}, [], "lamda_align"),
        ({"widths": [0]}, [], "widths"),
        ({"widths": []}, [], "widths"),
        (None, ["--lr", "-1"], "lr"),
        (None, ["--dropout", "1.0"], "dropout"),
        (None, ["--label-smoothing", "3"], "label_smoothing"),
        (None, ["--lambda-align", "-0.5"], "lambda_align"),
        ({"max_len": 2.5}, [], "max_len"),
        ({"min_count": 1.5}, [], "min_count"),
        ({"max_len": True}, [], "max_len"),
        ({"widths": [2, 2.5]}, [], "widths"),
        ({"widths": [2, True]}, [], "widths"),
        ({"widths": 3}, [], "widths"),
        ({"lr": True}, [], "lr"),
        ({"lambda_align": True}, [], "lambda_align"),
        ({"lr": "0.1"}, [], "lr"),
        ({"label_smoothing": "0"}, [], "label_smoothing"),
        ({"dropout": None}, [], "dropout"),
        (None, ["--seed", "-1"], "seed"),
        (None, ["--min-count", "0"], "min_count"),
        ({"min_count": -5}, [], "min_count"),
        ({"encoder_mode": "trainable_table"}, [], "encoder_mode"),
    ])
    def test_bad_value_exits_one_without_checkpoint(self, workspace, tmp_path,
                                                    config, flags, name):
        extra = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            extra = ["--config", str(tmp_path / "config.json")]
        # a flag overrides the file's value: leave out those the file sets
        unset = {"--" + key.replace("_", "-") for key in config or {}}
        train_flags = [arg for pair in zip(TRAIN_FLAGS[::2], TRAIN_FLAGS[1::2])
                       if pair[0] not in unset for arg in pair]
        corpus = str(workspace / "corpus.jsonl")
        result = run_cli("train", "--train", corpus, "--val", corpus,
                         "--out", str(tmp_path / "m.faet"), *train_flags,
                         *extra, *flags)
        assert result.returncode == 1
        assert name in result.stderr
        assert not list(tmp_path.glob("m.faet*"))

    @pytest.mark.parametrize("name", ["d", "d_w", "n_filters", "batch_size",
                                      "epochs", "max_len", "min_count",
                                      "seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_integer_fields_reject_other_types(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["lr", "lambda_align", "dropout",
                                      "label_smoothing"])
    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_real_fields_reject_other_types(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [3, None])
    def test_widths_must_be_a_sequence(self, value):
        with pytest.raises(ValueError, match="widths must be a sequence"):
            TrainConfig(widths=value)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"],
                             ids=["invalid_json", "not_an_object"])
    def test_unreadable_config_file_exits_one_naming_it(self, workspace,
                                                        tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        corpus = str(workspace / "corpus.jsonl")
        result = run_cli("train", "--train", corpus, "--val", corpus,
                         "--out", str(tmp_path / "m.faet"), *TRAIN_FLAGS,
                         "--config", str(path))
        assert result.returncode == 1
        assert str(path) in result.stderr
        assert not list(tmp_path.glob("m.faet*"))

    @pytest.mark.parametrize("flag", [["--encoder-mode", "trainable_table"],
                                      ["--text-vectors", "v.jsonl"]])
    def test_removed_flags_are_unknown(self, workspace, tmp_path, flag):
        corpus = str(workspace / "corpus.jsonl")
        result = run_cli("train", "--train", corpus, "--val", corpus,
                         "--out", str(tmp_path / "m.faet"), *TRAIN_FLAGS,
                         *flag)
        assert result.returncode == 1
        assert "unrecognized arguments" in result.stderr


class TestSplit:
    def test_outputs_and_report(self, workspace):
        out = workspace / "splits"
        result = run_cli("split", "--in", str(workspace / "corpus.jsonl"),
                         "--out-dir", str(out), "--seed", "7")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert (report["train"], report["test"], report["val"]) == (23, 6, 3)
        for name, expected in (("train", 23), ("test", 6), ("val", 3)):
            lines = (out / f"{name}.jsonl").read_text().splitlines()
            assert len(lines) == expected

    @pytest.mark.parametrize("ratios", ["inf:1:1", "nan:1:1", "7:2:inf",
                                        "1e308:1e308:1", "7:2", "7:x:1"])
    def test_bad_ratios_exit_one(self, workspace, tmp_path, ratios):
        result = run_cli("split", "--in", str(workspace / "corpus.jsonl"),
                         "--out-dir", str(tmp_path / "s"), "--ratios", ratios)
        assert result.returncode == 1
        assert "ratios" in result.stderr
        assert not (tmp_path / "s").exists()

    def test_byte_reproducible_under_fixed_seed(self, workspace, tmp_path):
        args = ("split", "--in", str(workspace / "corpus.jsonl"), "--seed", "5")
        a, b = tmp_path / "a", tmp_path / "b"
        out_a = run_cli(*args, "--out-dir", str(a))
        out_b = run_cli(*args, "--out-dir", str(b))
        assert out_a.stdout == out_b.stdout
        for name in ("train", "test", "val"):
            assert (a / f"{name}.jsonl").read_bytes() == \
                   (b / f"{name}.jsonl").read_bytes()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    write_jsonl(gen_overfit(32, seed=2), str(root / "train.jsonl"))
    write_jsonl(gen_overfit(16, seed=3), str(root / "val.jsonl"))
    result = run_cli("train", "--train", str(root / "train.jsonl"),
                     "--val", str(root / "val.jsonl"),
                     "--out", str(root / "model.faet"),
                     "--log", str(root / "log.jsonl"), *TRAIN_FLAGS)
    assert result.returncode == 0, result.stderr
    return root, json.loads(result.stdout)


class TestTrainEvalPredict:
    def test_train_writes_best_and_final(self, trained):
        root, summary = trained
        assert (root / "model.faet").exists()
        assert (root / "model.faet.final").exists()
        assert summary["best_epoch"] >= 1
        log_lines = (root / "log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        entry = json.loads(log_lines[0])
        assert set(entry) == {"epoch", "train_loss", "val_loss", "val_acc"}

    def test_eval_emits_metrics_json(self, trained):
        root, _ = trained
        result = run_cli("eval", "--model", str(root / "model.faet"),
                         "--data", str(root / "val.jsonl"))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["n"] == 16

    def test_predict_explain_singleton_emoji_weight(self, trained):
        root, _ = trained
        data = root / "one.jsonl"
        write_jsonl([TokenizedDoc(["the", "day"], ["E_SMILE"], None)],
                    str(data))
        result = run_cli("predict", "--model", str(root / "model.faet"),
                         "--data", str(data), "--explain")
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["explain"]["emoji_weights"] == [1.0]
        assert payload["label"] in (0, 1)

    def test_predict_handles_doc_without_emoji(self, trained):
        root, _ = trained
        data = root / "noemoji.jsonl"
        write_jsonl([TokenizedDoc(["the", "day"], [], None)], str(data))
        result = run_cli("predict", "--model", str(root / "model.faet"),
                         "--data", str(data))
        assert result.returncode == 0
        assert json.loads(result.stdout)["label"] in (0, 1)


    def test_predict_lines_match_single_document_predictions(self, trained):
        root, _ = trained
        docs = gen_overfit(16, seed=5) + [
            TokenizedDoc(["day"], [], None),
            TokenizedDoc(["the", "day", "was", "long"], ["E_SMILE", "E_CRY"],
                         None)]
        write_jsonl(docs, str(root / "many.jsonl"))
        result = run_cli("predict", "--model", str(root / "model.faet"),
                         "--data", str(root / "many.jsonl"))
        assert result.returncode == 0
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        model = load_checkpoint(str(root / "model.faet"))
        assert len(lines) == len(docs)
        for line, doc in zip(lines, docs):
            single = model.predict_doc(
                *encode_doc(doc, model.vocab, model.config.max_len))
            assert line["label"] == single["label"]
            assert max(abs(a - b) for a, b in
                       zip(line["probs"], single["probs"])) <= 1e-12


class TestFormatOneCheckpoint:
    """tests/data/v1_tiny.faet: a format 1 checkpoint (d 3, 2 filters,
    widths 2/3/4), trained on v1_tiny.jsonl by the release that wrote
    format 1, next to that release's `eval` and `predict --explain`
    output for it."""

    DATA = os.path.join(os.path.dirname(__file__), "data")

    @pytest.mark.parametrize("argv, expected", [
        (["eval"], "v1_tiny.eval.json"),
        (["predict", "--explain"], "v1_tiny.explain.jsonl"),
    ], ids=["eval", "predict_explain"])
    def test_output_is_byte_identical(self, capsys, argv, expected):
        assert cli.main([*argv, "--model",
                         os.path.join(self.DATA, "v1_tiny.faet"),
                         "--data", os.path.join(self.DATA, "v1_tiny.jsonl")
                         ]) == 0
        with open(os.path.join(self.DATA, expected), "rb") as fh:
            assert capsys.readouterr().out.encode() == fh.read()


def _rewrite_checkpoint(src, dst, vocab=None, first_name=None,
                        first_dim=None):
    """Copy a checkpoint, replacing its vocab JSON, the first parameter
    name's bytes, or the first parameter's first dimension."""
    blob = src.read_bytes()
    pos = 8
    blobs = []
    for _ in range(2):  # config, then vocab
        (n,) = struct.unpack_from("<Q", blob, pos)
        blobs.append(blob[pos + 8:pos + 8 + n])
        pos += 8 + n
    if vocab is not None:
        blobs[1] = json.dumps(vocab).encode()
    params = bytearray(blob[pos:])
    (name_len,) = struct.unpack_from("<H", params, 4)
    if first_name is not None:
        params[6:6 + name_len] = first_name
    if first_dim is not None:
        struct.pack_into("<Q", params, 6 + name_len + 1, first_dim)
    dst.write_bytes(blob[:8] + b"".join(
        struct.pack("<Q", len(b)) + b for b in blobs) + bytes(params))


class TestMalformedInput:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        docs = gen_overfit(16, seed=1)
        model = Model(TrainConfig(d=3, d_w=3, n_filters=2), build_vocab(docs))
        save_checkpoint(model, str(tmp_path / "good.faet"))
        write_jsonl(docs, str(tmp_path / "data.jsonl"))
        return tmp_path

    @pytest.mark.parametrize("change, message", [
        ({"vocab": {"emoji": ["E_SMILE"]}}, "metadata"),
        ({"first_dim": 2 ** 60}, "truncated"),
        ({"first_name": b"\xff"}, "UTF-8"),
        ({"vocab": {"text": ["<pad>", "<unk>"], "emoji": []}},
         "emoji vocabulary is empty"),
    ])
    def test_malformed_checkpoint_is_data_error(self, checkpoint, capsys,
                                                change, message):
        bad = checkpoint / "bad.faet"
        _rewrite_checkpoint(checkpoint / "good.faet", bad, **change)
        assert cli.main(["eval", "--model", str(bad),
                         "--data", str(checkpoint / "data.jsonl")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("part, index, token", [
        ("text", 3, "MARK_NEG_A"),  # the token of id 2 again
        ("emoji", 1, "E_CRY"),      # the emoji of id 0 again
        ("text", 0, "<unk>"),       # in place of <pad>
        ("text", 2, 1234),          # not a string
    ], ids=["duplicate_text", "duplicate_emoji", "pad_overwritten", "number"])
    def test_corrupt_vocab_is_data_error(self, checkpoint, capsys, part,
                                         index, token):
        saved = load_checkpoint(str(checkpoint / "good.faet")).vocab \
            .to_json_dict()
        saved[part][index] = token
        bad = checkpoint / "bad.faet"
        _rewrite_checkpoint(checkpoint / "good.faet", bad, vocab=saved)
        assert cli.main(["eval", "--model", str(bad),
                         "--data", str(checkpoint / "data.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("faet: data error:") and repr(token) in err

    def test_unknown_config_key_is_data_error(self, checkpoint, capsys):
        # one flipped byte turns a config field into an unknown key
        blob = (checkpoint / "good.faet").read_bytes()
        assert blob.count(b'"batch_size"') == 1
        bad = checkpoint / "bad.faet"
        bad.write_bytes(blob.replace(b'"batch_size"', b'"babch_size"'))
        assert cli.main(["eval", "--model", str(bad),
                         "--data", str(checkpoint / "data.jsonl")]) == 2
        assert "unknown config key(s): babch_size" in capsys.readouterr().err

    def test_missing_parameter_is_data_error(self, checkpoint, capsys):
        docs = gen_overfit(16, seed=1)
        model = Model(TrainConfig(d=3, d_w=3, n_filters=2), build_vocab(docs))
        full = model.parameters()
        model.parameters = lambda: {k: v for k, v in full.items()
                                    if k != "out_b"}
        bad = checkpoint / "bad.faet"
        save_checkpoint(model, str(bad))
        assert cli.main(["eval", "--model", str(bad),
                         "--data", str(checkpoint / "data.jsonl")]) == 2
        assert "missing parameters ['out_b']" in capsys.readouterr().err

    def test_non_utf8_corpus_is_data_error(self, checkpoint, capsys):
        data = checkpoint / "data.jsonl"
        lines = data.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"E_", b"\xffE_", 1)
        data.write_bytes(b"".join(lines))
        assert cli.main(["eval", "--model", str(checkpoint / "good.faet"),
                         "--data", str(data)]) == 2
        assert "line 3: not valid UTF-8" in capsys.readouterr().err

    def test_non_utf8_emoji_vectors_is_data_error(self, checkpoint, capsys):
        data = str(checkpoint / "data.jsonl")
        vec = checkpoint / "vec.txt"
        vec.write_bytes(b"1 5\nE_SMILE\xff 1 1 1 1 1\n")
        assert cli.main(["train", "--train", data, "--val", data,
                         "--out", str(checkpoint / "m.faet"),
                         "--emoji-vectors", str(vec), *TRAIN_FLAGS]) == 2
        assert "line 2: not valid UTF-8" in capsys.readouterr().err
        assert not list(checkpoint.glob("m.faet*"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_emoji_vector_is_data_error(self, checkpoint, capsys,
                                                   value):
        data = str(checkpoint / "data.jsonl")
        vec = checkpoint / "vec.txt"
        vec.write_text(f"2 5\nE_SMILE 1 1 1 1 1\nE_SAD 1 {value} 1 1 1\n")
        assert cli.main(["train", "--train", data, "--val", data,
                         "--out", str(checkpoint / "m.faet"),
                         "--emoji-vectors", str(vec), *TRAIN_FLAGS]) == 2
        assert "line 3: non-finite vector value" in capsys.readouterr().err
        assert not list(checkpoint.glob("m.faet*"))

    @pytest.mark.parametrize("text, message", [
        ("5 5\nE_SMILE 1 1 1 1 1\n",
         "line 1: header count 5 != 1 vector lines"),
        ("3 5\nE_CRY 1 1 1 1 1\nE_SMILE 1 1 1 1 1\nE_CRY_pos 2 2 2 2 2\n",
         "line 4: pos sense of 'E_CRY' already set on line 2")])
    def test_bad_emoji_vectors_count_or_repeat_is_data_error(
            self, checkpoint, capsys, text, message):
        data = str(checkpoint / "data.jsonl")
        vec = checkpoint / "vec.txt"
        vec.write_text(text)
        assert cli.main(["train", "--train", data, "--val", data,
                         "--out", str(checkpoint / "m.faet"),
                         "--emoji-vectors", str(vec), *TRAIN_FLAGS]) == 2
        assert message in capsys.readouterr().err
        assert not list(checkpoint.glob("m.faet*"))

    def test_empty_eval_data_is_data_error(self, checkpoint, capsys):
        empty = checkpoint / "empty.jsonl"
        empty.write_bytes(b"")
        assert cli.main(["eval", "--model", str(checkpoint / "good.faet"),
                         "--data", str(empty)]) == 2
        assert "evaluate: empty document list" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"", b"\n  \n"])
    def test_empty_predict_data_is_data_error(self, checkpoint, capsys,
                                              content):
        empty = checkpoint / "empty.jsonl"
        empty.write_bytes(content)
        assert cli.main(["predict", "--model", str(checkpoint / "good.faet"),
                         "--data", str(empty)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "predict: empty document list" in err

    def test_empty_val_file_is_data_error(self, checkpoint, capsys):
        empty = checkpoint / "empty.jsonl"
        empty.write_bytes(b"\n")
        assert cli.main(["train", "--train", str(checkpoint / "data.jsonl"),
                         "--val", str(empty),
                         "--out", str(checkpoint / "m.faet"),
                         *TRAIN_FLAGS]) == 2
        assert "validation: empty document list" in capsys.readouterr().err
        assert not list(checkpoint.glob("m.faet*"))

    def test_float_label_is_data_error(self, checkpoint, capsys):
        data = checkpoint / "data.jsonl"
        lines = data.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[1])
        record["label"] = float(record["label"])
        lines[1] = json.dumps(record) + "\n"
        data.write_text("".join(lines), encoding="utf-8")
        assert cli.main(["train", "--train", str(data), "--val", str(data),
                         "--out", str(checkpoint / "m.faet"),
                         *TRAIN_FLAGS]) == 2
        assert "line 2: label must be 0 or 1" in capsys.readouterr().err
        assert not list(checkpoint.glob("m.faet*"))


class TestEmojiVectors:
    def test_train_reports_loaded_and_ignored_counts(self, tmp_path):
        write_jsonl(gen_overfit(16, seed=8), str(tmp_path / "c.jsonl"))
        vec = tmp_path / "vec.txt"
        vec.write_text("2 5\n"
                       "E_SMILE_pos 1 1 1 1 1\n"
                       "E_ROCKET 0 0 0 0 0\n")
        result = run_cli("train", "--train", str(tmp_path / "c.jsonl"),
                         "--val", str(tmp_path / "c.jsonl"),
                         "--out", str(tmp_path / "m.faet"),
                         "--emoji-vectors", str(vec), "--epochs", "1",
                         *TRAIN_FLAGS[:6])
        assert result.returncode == 0, result.stderr
        summary = json.loads(result.stdout)
        assert summary["emoji_vectors"] == {"loaded": 1, "ignored": 1}

    def test_dimension_mismatch_is_data_error(self, tmp_path):
        write_jsonl(gen_overfit(16, seed=8), str(tmp_path / "c.jsonl"))
        vec = tmp_path / "vec.txt"
        vec.write_text("1 300\nE_SMILE " + " ".join(["0"] * 300) + "\n")
        result = run_cli("train", "--train", str(tmp_path / "c.jsonl"),
                         "--val", str(tmp_path / "c.jsonl"),
                         "--out", str(tmp_path / "m.faet"),
                         "--emoji-vectors", str(vec), *TRAIN_FLAGS)
        assert result.returncode == 2


class TestSeedHandling:
    def test_env_seed_fallback(self, tmp_path):
        write_jsonl(gen_overfit(16, seed=1), str(tmp_path / "c.jsonl"))
        args = ("split", "--in", str(tmp_path / "c.jsonl"))
        a = run_cli(*args, "--out-dir", str(tmp_path / "a"),
                    env_extra={"FAET_SEED": "9"})
        b = run_cli(*args, "--out-dir", str(tmp_path / "b"), "--seed", "9")
        assert a.returncode == b.returncode == 0
        assert (tmp_path / "a" / "train.jsonl").read_bytes() == \
               (tmp_path / "b" / "train.jsonl").read_bytes()

    @pytest.mark.parametrize("command", [
        ["split", "--in", "absent.jsonl"],
        ["gen-synthetic", "--kind", "overfit"]])
    @pytest.mark.parametrize("seed_flag, env_seed, name", [
        (["--seed", "-1"], None, "--seed"),
        ([], "abc", "FAET_SEED"),
        ([], "-1", "FAET_SEED"),
        ([], "2.5", "FAET_SEED")])
    def test_bad_seed_exits_one_naming_its_source(
            self, tmp_path, capsys, monkeypatch, command, seed_flag,
            env_seed, name):
        if env_seed is not None:
            monkeypatch.setenv("FAET_SEED", env_seed)
        out = tmp_path / "out"
        assert cli.main([*command, "--out-dir", str(out), *seed_flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("faet: error:") and name in err
        assert not out.exists()

    def test_env_seed_is_not_read_when_the_flag_is_given(self, monkeypatch):
        monkeypatch.setenv("FAET_SEED", "abc")
        args = cli.build_parser().parse_args(
            ["train", "--train", "t", "--val", "v", "--out", "o",
             "--seed", "2"])
        assert cli._resolve_config(args).seed == 2


class TestGenSynthetic:
    def test_overfit_manifest_and_reproducibility(self, tmp_path):
        args = ("gen-synthetic", "--kind", "overfit", "--size", "24",
                "--seed", "6")
        a = run_cli(*args, "--out-dir", str(tmp_path / "a"))
        b = run_cli(*args, "--out-dir", str(tmp_path / "b"))
        assert a.returncode == 0
        assert json.loads(a.stdout)["size"] == 24
        assert (tmp_path / "a" / "overfit.jsonl").read_bytes() == \
               (tmp_path / "b" / "overfit.jsonl").read_bytes()

    def test_xor_default_sizes(self, tmp_path, capsys):
        assert cli.main(["gen-synthetic", "--kind", "xor",
                         "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert (manifest["train_size"], manifest["test_size"]) == (512, 128)

    def test_test_size_with_overfit_exits_one(self, tmp_path, capsys):
        out = tmp_path / "g"
        assert cli.main(["gen-synthetic", "--kind", "overfit", "--test-size",
                         "3", "--out-dir", str(out)]) == 1
        assert "--test-size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--kind", "overfit", "--size", "8"],
                                       ["--kind", "xor", "--test-size", "8"]])
    def test_bad_size_exits_one_and_makes_no_directory(self, tmp_path,
                                                       capsys, flags):
        out = tmp_path / "g"
        assert cli.main(["gen-synthetic", *flags, "--out-dir", str(out)]) == 1
        assert "must be >= 16" in capsys.readouterr().err
        assert not out.exists()

    def test_xor_files(self, tmp_path):
        result = run_cli("gen-synthetic", "--kind", "xor", "--size", "32",
                         "--test-size", "16", "--seed", "6",
                         "--out-dir", str(tmp_path))
        assert result.returncode == 0
        train_lines = (tmp_path / "xor_train.jsonl").read_text().splitlines()
        test_lines = (tmp_path / "xor_test.jsonl").read_text().splitlines()
        assert (len(train_lines), len(test_lines)) == (32, 16)
        labels = [json.loads(l)["label"] for l in train_lines]
        assert abs(sum(labels) - 16) <= 1
