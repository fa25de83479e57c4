"""CLI subcommands, exit codes, and byte-level reproducibility."""

import json
import os
import struct
import subprocess
import sys

import pytest

from faet import cli
from faet.autograd import ShapeError
from faet.checkpoint import load_checkpoint, save_checkpoint
from faet.corpus import TokenizedDoc, build_vocab, encode_doc, write_jsonl
from faet.model import Model, TrainConfig
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
    ])
    def test_bad_value_exits_one_without_checkpoint(self, workspace, tmp_path,
                                                    config, flags, name):
        extra = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            extra = ["--config", str(tmp_path / "config.json")]
        corpus = str(workspace / "corpus.jsonl")
        result = run_cli("train", "--train", corpus, "--val", corpus,
                         "--out", str(tmp_path / "m.faet"), *TRAIN_FLAGS,
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
