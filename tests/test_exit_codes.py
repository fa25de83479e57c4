"""The CLI's exit-code contract as one table: 1 usage, 2 data, 3 numeric.

Each row is a command line over a small shared workspace (a corpus, a
tiny checkpoint and an emoji-vectors file), an optional edit that writes
the row's own inputs into its directory, the exit code, and a regex for
the one line on stderr.  Every row runs through `cli.main` in process
and, when `shutil.which("faet")` finds the installed console script,
through that script again.  Each run must give:

- the row's exit code;
- nothing on stdout, or what the row's `out` regex allows;
- no stderr at all when the row's `err` is None, else exactly one line
  that carries the code's prefix (`faet: error:` or `faet <command>:
  error:` for 1, `faet: data error:` for 2, `faet: numeric failure:` for
  3) and matches `err`;
- no `Traceback`;
- the workspace and the row's directory byte for byte as they were: a
  refused command creates, changes and removes nothing.

`{corpus}` and `{model}` in a row's arguments name the workspace files,
`{tmp}` the row's directory, which is also the working directory, and
`{empty}` an empty word; in `err` they stand for the same paths,
regex-escaped.  Edits derive their files from the workspace's, the
vectors file included, or write them whole.
"""

from __future__ import annotations

import json
import re
import shutil
import struct
import subprocess
import sys
import typing

import numpy as np
import pytest

from faet import cli
from faet.checkpoint import load_checkpoint, save_checkpoint
from faet.corpus import build_vocab, write_jsonl
from faet.model import Model, TrainConfig
from faet.synthetic import gen_overfit

SCRIPT = shutil.which("faet")
PREFIX = {1: r"faet( [a-z-]+)?: error: ", 2: "faet: data error: ",
          3: "faet: numeric failure: "}

TINY = ("--d 6 --d-w 5 --n-filters 3 --epochs 2 --batch-size 8 --lr 0.01 "
        "--seed 3")
TRAIN = "train --train {corpus} --val {corpus} --out {tmp}/m.faet"


class Row(typing.NamedTuple):
    id: str
    argv: str  # split on spaces, then each word formatted
    code: int
    err: str | None  # regex for the one stderr line; None: stderr is empty
    edit: typing.Callable | None = None  # (workspace, tmp) -> None
    env: dict = {}
    out: str | None = None  # regex for stdout; None: stdout is empty


def write(name, data):
    """An edit that writes `data` (str or bytes) to the row's `name`."""
    raw = data.encode() if isinstance(data, str) else data
    return lambda ws, tmp: (tmp / name).write_bytes(raw)


def replace(src, name, old, new, line=None, count=0):
    """An edit that copies workspace file `src` to `name`, replacing the
    first `count` (0: all) matches of regex `old` on each line, or on
    1-based `line` only, with `new`."""
    def edit(ws, tmp):
        lines = (ws / src).read_bytes().splitlines(keepends=True)
        for n, text in enumerate(lines, 1):
            if line in (None, n):
                lines[n - 1] = re.sub(old, new, text, count=count)
        (tmp / name).write_bytes(b"".join(lines))
    return edit


def checkpoint(config=None, vocab=None, first_name=None, first_dim=None):
    """An edit that copies the workspace checkpoint to `bad.faet`, passing
    its config and vocab dicts through `config` and `vocab`, or replacing
    the first parameter name's bytes or the first parameter's first
    dimension."""
    def edit(ws, tmp):
        blob = (ws / "model.faet").read_bytes()
        pos = 8
        blobs = []
        for change in (config, vocab):
            (n,) = struct.unpack_from("<Q", blob, pos)
            part = blob[pos + 8:pos + 8 + n]
            blobs.append(part if change is None else
                         json.dumps(change(json.loads(part))).encode())
            pos += 8 + n
        params = bytearray(blob[pos:])
        (name_len,) = struct.unpack_from("<H", params, 4)
        if first_name is not None:
            params[6:6 + name_len] = first_name
        if first_dim is not None:
            struct.pack_into("<Q", params, 6 + name_len + 1, first_dim)
        (tmp / "bad.faet").write_bytes(blob[:8] + b"".join(
            struct.pack("<Q", len(b)) + b for b in blobs) + bytes(params))
    return edit


def vocab_entry(part, index, token):
    def change(vocab):
        vocab[part][index] = token
        return vocab
    return change


def without_out_b(ws, tmp):
    model = load_checkpoint(str(ws / "model.faet"))
    full = model.parameters()
    model.parameters = lambda: {k: v for k, v in full.items() if k != "out_b"}
    save_checkpoint(model, str(tmp / "bad.faet"))


def weight(name, value):
    """An edit that saves the workspace model with `value` in place of the
    first entry of parameter `name` as `bad.faet`."""
    def edit(ws, tmp):
        model = load_checkpoint(str(ws / "model.faet"))
        model.parameters()[name].data.flat[0] = value
        save_checkpoint(model, str(tmp / "bad.faet"))
    return edit


def config_row(id, config, name, flags=""):
    """`train` with a `--config` file (if `config` is not None) and extra
    flags, refused naming `name`; a flag overrides the file's value, so
    the tiny flags the file sets are left out."""
    words = TINY.split()
    unset = {"--" + key.replace("_", "-") for key in config or {}}
    tiny = " ".join(w for pair in zip(words[::2], words[1::2])
                    if pair[0] not in unset for w in pair)
    argv = f"{TRAIN} {tiny} {flags}"
    if config is None:
        return Row(id, argv, 1, name)
    return Row(id, argv + " --config {tmp}/config.json", 1, name,
               write("config.json", json.dumps(config)))


EVAL_BAD = "eval --model {tmp}/bad.faet --data {corpus}"
VECTORS = f"{TRAIN} {TINY} --emoji-vectors {{tmp}}/v.txt"
RATIOS = "split --in {corpus} --out-dir {tmp}/s --ratios "
NEW_EMOJI = replace("corpus.jsonl", "new.jsonl", b"E_CRY", b"E_NEW")

ROWS = [
    # --- usage (1): the command line --------------------------------------
    Row("no-subcommand", "", 1, "required: command"),
    Row("unknown-flag", "split --in {corpus} --out-dir {tmp}/s --bogus", 1,
        "unrecognized arguments: --bogus$"),
    Row("removed-flag-encoder-mode",
        f"{TRAIN} {TINY} --encoder-mode trainable_table", 1,
        "unrecognized arguments"),
    Row("removed-flag-text-vectors", f"{TRAIN} {TINY} --text-vectors v.jsonl",
        1, "unrecognized arguments"),
    Row("ablate-variant", f"ablate --train {{corpus}} --val {{corpus}} "
        f"--test {{corpus}} {TINY} --variant coarse", 1,
        "unrecognized arguments: --variant coarse$"),
    Row("ablate-variant-unknown", "ablate --train t --val v --test x "
        "--variant medium", 1, "--variant"),
    # --- usage (1): config values, from a file or a flag -------------------
    config_row("config-unknown-key", {"lamda_align": 5}, "lamda_align"),
    config_row("config-widths-zero", {"widths": [0]}, "widths"),
    config_row("config-widths-empty", {"widths": []}, "widths"),
    config_row("flag-lr-negative", None, "lr", "--lr -1"),
    config_row("flag-dropout-one", None, "dropout", "--dropout 1.0"),
    config_row("flag-label-smoothing", None, "label_smoothing",
               "--label-smoothing 3"),
    config_row("flag-lambda-align-negative", None, "lambda_align",
               "--lambda-align -0.5"),
    config_row("config-max-len-float", {"max_len": 2.5}, "max_len"),
    config_row("config-min-count-float", {"min_count": 1.5}, "min_count"),
    config_row("config-max-len-bool", {"max_len": True}, "max_len"),
    config_row("config-widths-float", {"widths": [2, 2.5]}, "widths"),
    config_row("config-widths-bool", {"widths": [2, True]}, "widths"),
    config_row("config-widths-int", {"widths": 3}, "widths"),
    config_row("config-widths-repeated", {"widths": [2, 3, 2]},
               r"widths must not repeat, got \(2, 3, 2\)$"),
    Row("ablate-config-widths-repeated", f"ablate --train {{corpus}} "
        f"--val {{corpus}} --test {{corpus}} {TINY} --config {{tmp}}/c.json",
        1, r"widths must not repeat, got \(3, 3\)$",
        write("c.json", '{"widths": [3, 3]}')),
    config_row("config-lr-bool", {"lr": True}, "lr"),
    config_row("config-lambda-align-bool", {"lambda_align": True},
               "lambda_align"),
    config_row("config-lr-string", {"lr": "0.1"}, "lr"),
    config_row("config-label-smoothing-string", {"label_smoothing": "0"},
               "label_smoothing"),
    config_row("config-dropout-null", {"dropout": None}, "dropout"),
    config_row("flag-seed-negative", None, "seed", "--seed -1"),
    config_row("flag-min-count-zero", None, "min_count", "--min-count 0"),
    config_row("config-min-count-negative", {"min_count": -5}, "min_count"),
    config_row("config-retired-key", {"encoder_mode": "trainable_table"},
               "encoder_mode"),
    Row("config-invalid-json", f"{TRAIN} {TINY} --config {{tmp}}/config.json",
        1, "{tmp}/config.json", write("config.json", "{not json")),
    Row("config-not-an-object",
        f"{TRAIN} {TINY} --config {{tmp}}/config.json", 1,
        "{tmp}/config.json", write("config.json", "[1, 2]")),
    Row("model-too-large", f"{TRAIN} {TINY} --d 1000000000000", 1,
        "^faet: error: Unable to allocate .*shape"),
    # --- usage (1): split, gen-synthetic, gradcheck, seeds -----------------
    Row("split-ratios-inf", RATIOS + "inf:1:1", 1, "ratios"),
    Row("split-ratios-nan", RATIOS + "nan:1:1", 1, "ratios"),
    Row("split-ratios-inf-last", RATIOS + "7:2:inf", 1, "ratios"),
    Row("split-ratios-sum-overflows", RATIOS + "1e308:1e308:1", 1, "ratios"),
    Row("split-ratios-two", RATIOS + "7:2", 1, "ratios"),
    Row("split-ratios-not-a-number", RATIOS + "7:x:1", 1, "ratios"),
    Row("split-ratios-not-a-number-flag", RATIOS + "7:x:1", 1, "--ratios"),
    Row("gen-synthetic-test-size-overfit", "gen-synthetic --kind overfit "
        "--test-size 3 --out-dir {tmp}/g", 1, "--test-size"),
    Row("gen-synthetic-size-small", "gen-synthetic --kind overfit --size 8 "
        "--out-dir {tmp}/g", 1, "must be >= 16"),
    Row("gen-synthetic-test-size-small", "gen-synthetic --kind xor "
        "--test-size 8 --out-dir {tmp}/g", 1, "must be >= 16"),
    Row("gradcheck-samples-zero", "gradcheck --samples 0", 1, "got 0$"),
    Row("gradcheck-samples-negative", "gradcheck --samples -3", 1,
        "got -3$"),
    Row("gradcheck-tolerance-nan", "gradcheck --tolerance nan", 1,
        "got nan$"),
    Row("gradcheck-tolerance-negative", "gradcheck --tolerance -1", 1,
        "got -1.0$"),
    *(Row(f"{command.split()[0]}-{source}", f"{command} --out-dir {{tmp}}/out"
          f"{flag}", 1, name, env=env)
      for command in ("split --in absent.jsonl", "gen-synthetic --kind overfit")
      for source, flag, env, name in [
          ("seed-negative", " --seed -1", {}, "--seed"),
          ("env-seed-word", "", {"FAET_SEED": "abc"}, "FAET_SEED"),
          ("env-seed-negative", "", {"FAET_SEED": "-1"}, "FAET_SEED"),
          ("env-seed-float", "", {"FAET_SEED": "2.5"}, "FAET_SEED")]),
    # --- data (2): paths ---------------------------------------------------
    Row("missing-file", "split --in {tmp}/nope.jsonl --out-dir {tmp}/s", 2,
        "nope.jsonl"),
    *(Row(f"directory-as-{id}", argv, 2, "'{tmp}'") for id, argv in [
        ("eval-data", "eval --model {model} --data {tmp}"),
        ("eval-model", "eval --model {tmp} --data {corpus}"),
        ("predict-data", "predict --model {model} --data {tmp}"),
        ("train-train", "train --train {tmp} --val {corpus} --out {tmp}/out"),
        ("train-val", "train --train {corpus} --val {tmp} --out {tmp}/out"),
        ("train-config", "train --train {corpus} --val {corpus} "
         "--out {tmp}/out --config {tmp}"),
        ("split-in", "split --in {tmp} --out-dir {tmp}/out")]),
    Row("split-out-dir-a-file", "split --in {corpus} --out-dir {corpus}", 2,
        "{corpus}"),
    Row("gen-synthetic-out-dir-a-file",
        "gen-synthetic --kind xor --out-dir {corpus}", 2, "{corpus}"),
    Row("path-under-a-file", "eval --model {corpus}/m.faet "
        "--data {corpus}/m.faet", 2, "{corpus}/m.faet"),
    Row("train-out-missing-directory", "train --train {corpus} --val {corpus} "
        f"--out {{tmp}}/nodir/m.faet --log {{tmp}}/log.jsonl {TINY}", 2,
        "--out {tmp}/nodir/m.faet: no directory '{tmp}/nodir'$"),
    Row("train-out-a-directory", "train --train {corpus} --val {corpus} "
        f"--out {{tmp}}/. --log {{tmp}}/log.jsonl {TINY}", 2,
        r"--out {tmp}/\. is a directory$"),
    # each checkpoint train writes, and the file each is written through
    *(Row(f"train-out{suffix.replace('.', '-')}-a-directory",
          f"{TRAIN} --log {{tmp}}/log.jsonl {TINY}", 2,
          r"--out {tmp}/m\.faet: '{tmp}/m\.faet" + re.escape(suffix)
          + "' is a directory$",
          lambda ws, tmp, suffix=suffix: (tmp / f"m.faet{suffix}").mkdir())
      for suffix in (".final", ".tmp", ".final.tmp")),
    Row("train-out-empty", "train --train {corpus} --val {corpus} "
        f"--out {{empty}} --log {{tmp}}/log.jsonl {TINY}", 1,
        "--out must name a file$"),
    # --- data (2): corpora --------------------------------------------------
    Row("corpus-record-malformed", "eval --model {model} --data {tmp}/bad.jsonl", 2,
        "{tmp}/bad.jsonl: line 1: text_tokens must be a non-empty array",
        write("bad.jsonl", '{"text_tokens": []}\n')),
    Row("corpus-not-utf8", "eval --model {model} --data {tmp}/bad.jsonl", 2,
        "{tmp}/bad.jsonl: line 3: not valid UTF-8",
        replace("corpus.jsonl", "bad.jsonl", b"E_", b"\xffE_", 3, 1)),
    Row("corpus-float-label", "train --train {tmp}/bad.jsonl "
        f"--val {{tmp}}/bad.jsonl --out {{tmp}}/m.faet {TINY}", 2,
        "{tmp}/bad.jsonl: line 2: label must be 0 or 1",
        replace("corpus.jsonl", "bad.jsonl", rb'"label": (\d)',
                rb'"label": \1.0', 2)),
    Row("eval-data-empty", "eval --model {model} --data {tmp}/empty.jsonl", 2,
        "evaluate: empty document list", write("empty.jsonl", "")),
    Row("predict-data-empty", "predict --model {model} "
        "--data {tmp}/empty.jsonl", 2, "predict: empty document list",
        write("empty.jsonl", "")),
    Row("predict-data-blank-lines", "predict --model {model} "
        "--data {tmp}/empty.jsonl", 2, "predict: empty document list",
        write("empty.jsonl", "\n  \n")),
    Row("train-val-empty", "train --train {corpus} --val {tmp}/empty.jsonl "
        f"--out {{tmp}}/m.faet {TINY}", 2, "validation: empty document list",
        write("empty.jsonl", "\n")),
    Row("predict-unknown-emoji", "predict --model {model} "
        "--data {tmp}/new.jsonl", 2, "^faet: data error: predict document 3: "
        "emoji token 'E_NEW' not in vocabulary",
        replace("corpus.jsonl", "new.jsonl", rb'"E_[A-Z]+"', b'"E_NEW"', 3)),
    Row("train-val-unknown-emoji", "train --train {corpus} --val {tmp}/new.jsonl"
        f" --out {{tmp}}/m.faet --log {{tmp}}/log.jsonl {TINY}", 2,
        "validation document 1: emoji token 'E_NEW' not in vocabulary",
        NEW_EMOJI),
    Row("ablate-test-unknown-emoji", "ablate --train {corpus} --val {corpus} "
        f"--test {{tmp}}/new.jsonl {TINY}", 2,
        "test document 1: emoji token 'E_NEW' not in vocabulary", NEW_EMOJI),
    # --- data (2): emoji vectors -------------------------------------------
    Row("vectors-not-utf8", VECTORS, 2, "{tmp}/v.txt: line 2: not valid UTF-8",
        replace("vectors.txt", "v.txt", b"E_SMILE", b"E_SMILE\xff")),
    Row("vectors-nan", VECTORS, 2,
        "{tmp}/v.txt: line 3: non-finite vector value$",
        replace("vectors.txt", "v.txt", b"E_SAD 1 1", b"E_SAD 1 nan")),
    Row("vectors-inf", VECTORS, 2,
        "{tmp}/v.txt: line 3: non-finite vector value$",
        replace("vectors.txt", "v.txt", b"E_SAD 1 1", b"E_SAD 1 inf")),
    Row("vectors-nan-line-2", VECTORS, 2, "{tmp}/v.txt: line 2: non-finite",
        write("v.txt", "1 5\nE_SMILE 1 nan 1 1 1\n")),
    Row("vectors-header-count", VECTORS, 2,
        "{tmp}/v.txt: line 1: header count 5 != 1 vector lines",
        write("v.txt", "5 5\nE_SMILE 1 1 1 1 1\n")),
    Row("vectors-sense-twice", VECTORS, 2,
        "{tmp}/v.txt: line 4: pos sense of 'E_CRY' already set on line 2",
        write("v.txt", "3 5\nE_CRY 1 1 1 1 1\nE_SMILE 1 1 1 1 1\n"
                       "E_CRY_pos 2 2 2 2 2\n")),
    Row("vectors-dimension", VECTORS, 2,
        "{tmp}/v.txt: line 1: file dimension 300 != configured dimension 5",
        write("v.txt", "1 300\nE_SMILE " + " ".join(["0"] * 300) + "\n")),
    # --- data (2): checkpoints ---------------------------------------------
    Row("checkpoint-magic", "eval --model {corpus} --data {corpus}", 2,
        "{corpus}: not a FAET checkpoint$"),
    Row("checkpoint-version", EVAL_BAD, 2,
        r"{tmp}/bad.faet: format version 3 unsupported \(expected 1 or 2\)$",
        replace("model.faet", "bad.faet", b"^FAET\x02", b"FAET\x03", 1)),
    Row("checkpoint-trailing-bytes", EVAL_BAD, 2,
        "{tmp}/bad.faet: trailing bytes after parameters$",
        lambda ws, tmp: (tmp / "bad.faet").write_bytes(
            (ws / "model.faet").read_bytes() + b"\0")),
    Row("checkpoint-unknown-parameter", EVAL_BAD, 2,
        "{tmp}/bad.faet: unknown parameter 'cnn.bias_w9'$",
        checkpoint(first_name=b"cnn.bias_w9")),
    Row("checkpoint-shape", EVAL_BAD, 2,
        r"{tmp}/bad.faet: checkpoint shape \(1,\) != model shape \(2,\) "
        "for 'cnn.bias_w2'$",
        checkpoint(first_dim=1)),
    Row("checkpoint-vocab-keys", EVAL_BAD, 2,
        "{tmp}/bad.faet: bad embedded metadata",
        checkpoint(vocab=lambda v: {"emoji": ["E_SMILE"]})),
    Row("checkpoint-size-past-end", EVAL_BAD, 2,
        "{tmp}/bad.faet: truncated checkpoint while reading data of "
        "'cnn.bias_w2'$", checkpoint(first_dim=2 ** 60)),
    Row("checkpoint-truncated-header", EVAL_BAD, 2,
        "{tmp}/bad.faet: truncated checkpoint while reading config length$",
        lambda ws, tmp: (tmp / "bad.faet").write_bytes(
            (ws / "model.faet").read_bytes()[:10])),
    Row("checkpoint-name-not-utf8", EVAL_BAD, 2,
        "{tmp}/bad.faet: parameter name is not UTF-8$",
        checkpoint(first_name=b"\xff")),
    Row("checkpoint-emoji-vocab-empty", EVAL_BAD, 2,
        "{tmp}/bad.faet: .*emoji vocabulary is empty",
        checkpoint(vocab=lambda v: {"text": ["<pad>", "<unk>"], "emoji": []})),
    *(Row(f"checkpoint-vocab-{id}", EVAL_BAD, 2,
          "^faet: data error: {tmp}/bad.faet: .*" + re.escape(repr(token)),
          checkpoint(vocab=vocab_entry(part, index, token)))
      for id, part, index, token in [
          ("duplicate-text", "text", 3, "MARK_NEG_A"),  # id 2's token again
          ("duplicate-emoji", "emoji", 1, "E_CRY"),     # id 0's emoji again
          ("pad-overwritten", "text", 0, "<unk>"),
          ("number", "text", 2, 1234)]),
    Row("checkpoint-vocab-unk-overwritten", EVAL_BAD, 2,
        r"{tmp}/bad.faet: .*must be '<pad>' and '<unk>', "
        r"got \['<pad>', '<pad>'\]",
        replace("model.faet", "bad.faet", b'"<unk>"', b'"<pad>"')),
    Row("checkpoint-config-unknown-key", EVAL_BAD, 2,
        r"{tmp}/bad.faet: .*unknown config key\(s\): babch_size",
        replace("model.faet", "bad.faet", b'"batch_size"', b'"babch_size"')),
    Row("checkpoint-missing-parameter", EVAL_BAD, 2,
        r"{tmp}/bad.faet: missing parameters \['out_b'\]", without_out_b),
    Row("checkpoint-model-too-large", EVAL_BAD, 2,
        "{tmp}/bad.faet: Unable to allocate",
        checkpoint(config=lambda c: {**c, "d": 10 ** 12})),
    # --- numeric (3) -------------------------------------------------------
    # scoring refuses a probability that is not finite, naming the first
    # document it reached: here every document's, as a NaN recurrent
    # weight or an infinite output bias reaches each
    *(Row(f"{command}-{id}-weight", f"{command} --model {{tmp}}/bad.faet "
          "--data {corpus}", 3,
          r"^faet: numeric failure: document 0: non-finite probabilities",
          weight(name, value))
      for command in ("eval", "predict")
      for id, name, value in (("nan", "lstm_fwd.w_rec", np.nan),
                              ("inf", "out_b", np.inf))),
    Row("gradcheck-tolerance-unreachable",
        "gradcheck --samples 2 --tolerance 1e-30", 3, None,
        out=r'^\{.*"pass": false.*\}\n$'),
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("workspace")
    docs = gen_overfit(16, seed=1)
    write_jsonl(docs, str(root / "corpus.jsonl"))
    save_checkpoint(Model(TrainConfig(d=3, d_w=3, n_filters=2),
                          build_vocab(docs)), str(root / "model.faet"))
    (root / "vectors.txt").write_text(
        "2 5\nE_SMILE 1 1 1 1 1\nE_SAD 1 1 1 1 1\n")
    return root


def _snapshot(*roots):
    return {path: path.read_bytes() if path.is_file() else None
            for root in roots for path in sorted(root.rglob("*"))}


def _check(row, code, out, err, paths):
    assert code == row.code
    if row.out is None:
        assert out == ""
    else:
        assert re.search(row.out, out), out
    assert "Traceback" not in err
    if row.err is None:
        assert err == ""
        return
    assert len(err.splitlines()) == 1, err
    line = err.rstrip("\n")
    assert re.match(PREFIX[row.code], line), line
    assert re.search(row.err.format(**{k: re.escape(v)
                                       for k, v in paths.items()}), line), line


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(row, workspace, tmp_path, capsys, monkeypatch):
    if row.edit is not None:
        row.edit(workspace, tmp_path)
    paths = {"corpus": str(workspace / "corpus.jsonl"),
             "model": str(workspace / "model.faet"), "tmp": str(tmp_path),
             "empty": ""}
    argv = [word.format(**paths) for word in row.argv.split()]
    before = _snapshot(workspace, tmp_path)
    monkeypatch.chdir(tmp_path)
    for name, value in row.env.items():
        monkeypatch.setenv(name, value)

    code = cli.main(argv)
    _check(row, code, *capsys.readouterr(), paths)
    assert _snapshot(workspace, tmp_path) == before
    if SCRIPT is None:
        return
    result = subprocess.run([SCRIPT, *argv], capture_output=True, text=True,
                            timeout=300)  # the environment holds row.env
    _check(row, result.returncode, result.stdout, result.stderr, paths)
    assert _snapshot(workspace, tmp_path) == before


def test_ids_are_unique():
    assert len({row.id for row in ROWS}) == len(ROWS)


def test_diverging_training_exits_three(workspace, tmp_path):
    # run apart from pytest, whose filter turns numpy's RuntimeWarning on
    # the overflowing step into an exception
    command = [SCRIPT] if SCRIPT else [sys.executable, "-m", "faet"]
    corpus = str(workspace / "corpus.jsonl")
    result = subprocess.run(
        [*command, "train", "--train", corpus, "--val", corpus,
         "--out", str(tmp_path / "m.faet"), *TINY.split(), "--lr", "1e300"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 3
    assert result.stdout == ""
    # one line: numpy's reason joins it, and no RuntimeWarning precedes it
    [line] = result.stderr.splitlines()
    assert line.startswith("faet: numeric failure: non-finite loss at epoch")
    assert list(tmp_path.iterdir()) == []
