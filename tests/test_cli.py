"""CLI subcommands, the exit codes no table row can reach, and byte-level
reproducibility; `test_exit_codes.py` holds the exit-code table."""

import argparse
import dataclasses
import json
import os
import platform
import shutil
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
                  "--label-smoothing", "--seed", "--min-count", "--config"}
OPTIONS = {
    "split": {"--in", "--out-dir", "--ratios", "--seed"},
    "train": {"--train", "--val", "--out", "--log", "--emoji-vectors",
              "--variant", *CONFIG_OPTIONS},
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


def test_variant_choices_are_the_model_variants():
    parser = cli.build_parser()
    for variant in VARIANTS:
        args = parser.parse_args(["train", "--train", "t", "--val", "v",
                                  "--out", "o", "--variant", variant])
        assert cli._resolve_config(args).variant == variant


def test_ablate_takes_a_config_file_variant(tmp_path):
    # one --config file serves `train` and `ablate`, which runs every variant
    (tmp_path / "config.json").write_text('{"variant": "coarse"}')
    args = cli.build_parser().parse_args(
        ["ablate", "--train", "t", "--val", "v", "--test", "x",
         "--config", str(tmp_path / "config.json")])
    assert cli._resolve_config(args).variant == "coarse"


class TestExitCodes:
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

    def test_gradcheck_success_is_zero(self):
        result = run_cli("gradcheck", "--samples", "2")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["pass"] is True
        assert report["max_relative_error"] <= report["tolerance"]

    def test_gradcheck_all_zero_group_exits_three(self, monkeypatch, capsys):
        config = dataclasses.replace(trainer.gradcheck_config(),
                                     widths=(2, 12))
        monkeypatch.setattr(trainer, "gradcheck_config", lambda: config)
        assert cli.main(["gradcheck", "--samples", "1"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["zero_gradient"] == ["cnn.filters_w12", "cnn.bias_w12"]

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
        script = shutil.which("faet")
        command = [script] if script else [sys.executable, "-m", "faet"]
        proc = subprocess.Popen([*command, *argv],
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


class TestOneBlasThread:
    def test_checkpoints_match_under_one_and_two_blas_threads(self, tmp_path):
        # OpenBLAS uses no more threads than CPUs: one CPU can only pass
        corpus = str(tmp_path / "overfit.jsonl")
        write_jsonl(gen_overfit(64, seed=0), corpus)
        for threads in ("1", "2"):
            result = run_cli("train", "--train", corpus, "--val", corpus,
                             "--out", str(tmp_path / f"{threads}.faet"),
                             "--epochs", "1",
                             env_extra={"OPENBLAS_NUM_THREADS": threads})
            assert result.returncode == 0, result.stderr
        assert (tmp_path / "1.faet").read_bytes() == \
            (tmp_path / "2.faet").read_bytes()

    def test_a_command_runs_on_one_thread_and_restores_the_count(
            self, monkeypatch):
        calls = cli._openblas_threads()
        if calls is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS")
        get, put = calls
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "split",
                            lambda args: seen.append(get()) or 0)
        before = get()
        put(2)
        try:
            caller = get()  # 2, or 1 on a one-CPU host
            assert cli.main(["split", "--in", "x", "--out-dir", "y"]) == 0
            assert seen == [1] and get() == caller
        finally:
            put(before)


    def test_odd_mapped_paths_do_no_harm(self, monkeypatch, tmp_path):
        # a path is the sixth field whole; a deleted or unloadable library
        # is passed over, and the command runs unpinned
        real = [line.split(maxsplit=5)[5].rstrip("\n")
                for line in open(cli._MAPS) if "openblas" in line]
        lib, maps = tmp_path / "a dir" / "libopenblas copy.so", tmp_path / "m"
        lib.parent.mkdir()
        head = "7f00-7f01 r-xp 00000000 08:01 42    "
        maps.write_text(f"{head}\n{head}{tmp_path}/libopenblas.so (deleted)\n"
                        f"{head}{lib}\n")
        monkeypatch.setattr(cli, "_MAPS", str(maps))
        assert cli._openblas_threads() is None
        assert cli.main(["gen-synthetic", "--kind", "overfit",
                         "--out-dir", str(tmp_path)]) == 0
        if real:
            lib.symlink_to(real[0])
            assert cli._openblas_threads() is not None


class TestMallocPin:
    """The console script (`faet`, `python -m faet`) pins glibc malloc's
    thresholds in its own process; `cli.main` leaves its caller's
    allocator as it is."""

    # a child that notes its minor faults at the start of each epoch and at
    # exit, around `python -m faet` run as the console script runs it
    CHILD = """
import resource, runpy, sys
import faet.trainer
seed_of, faults = faet.trainer._epoch_seed, []
def epoch_seed(base, epoch):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return seed_of(base, epoch)
faet.trainer._epoch_seed = epoch_seed
try:
    runpy.run_module("faet", run_name="__main__", alter_sys=True)
finally:
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    print(*[b - a for a, b in zip(faults, faults[1:])], file=sys.stderr)
"""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the pin is glibc's mallopt")
    def test_stock_epochs_after_the_first_average_under_50_minor_faults(
            self, tmp_path):
        # glibc's self-adjusting thresholds cost about 4 000 per epoch here;
        # pinned, an epoch reads 0 to some dozens, as the heap layout has it
        corpus = str(tmp_path / "overfit.jsonl")
        write_jsonl(gen_overfit(64, seed=0), corpus)
        result = subprocess.run(
            [sys.executable, "-c", self.CHILD, "train", "--train", corpus,
             "--val", corpus, "--out", str(tmp_path / "m.faet"),
             "--epochs", "5"], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        faults = [int(n) for n in result.stderr.split()]
        assert len(faults) == 5 and sum(faults[1:]) < 50 * 4, faults

    def test_only_the_console_entry_pins(self, monkeypatch, tmp_path):
        pinned = []
        monkeypatch.setattr(cli, "_keep_freed_memory",
                            lambda: pinned.append(True))
        argv = ["gen-synthetic", "--kind", "overfit", "--out-dir",
                str(tmp_path)]
        assert cli.main(argv) == 0 and pinned == []
        monkeypatch.setattr(sys, "argv", ["faet", *argv])
        assert cli.console_main() == 0 and pinned == [True]

    @staticmethod
    def no_c_library(name):
        raise TypeError("no C library to open by name None")

    @pytest.mark.parametrize("cdll", [lambda name: object(), no_c_library],
                             ids=["no-mallopt", "no-c-library"])
    def test_a_c_library_without_mallopt_is_left_alone(self, monkeypatch,
                                                       cdll):
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        cli._keep_freed_memory()


class TestConfigValidation:
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


class TestFormatOneCheckpoint:
    """tests/data/v1_tiny.faet: a format 1 checkpoint (d 3, 2 filters,
    widths 2/3/4), trained on v1_tiny.jsonl by the release that wrote
    format 1, next to that release's `eval` and `predict --explain`
    output for it.  The output is compared through `cli.main` and, when
    `shutil.which("faet")` finds the installed console script, through
    that script too."""

    DATA = os.path.join(os.path.dirname(__file__), "data")

    @pytest.mark.parametrize("argv, expected", [
        (["eval"], "v1_tiny.eval.json"),
        (["predict", "--explain"], "v1_tiny.explain.jsonl"),
    ], ids=["eval", "predict_explain"])
    def test_output_is_byte_identical(self, capsys, argv, expected):
        argv = [*argv, "--model", os.path.join(self.DATA, "v1_tiny.faet"),
                "--data", os.path.join(self.DATA, "v1_tiny.jsonl")]
        with open(os.path.join(self.DATA, expected), "rb") as fh:
            want = fh.read()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.encode() == want
        script = shutil.which("faet")
        if script is not None:
            result = subprocess.run([script, *argv], capture_output=True,
                                    timeout=300)
            assert (result.returncode, result.stdout) == (0, want)


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
