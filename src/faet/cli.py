"""Command-line entry point: faet <subcommand>.

Exit codes: 0 success, 1 usage error (a model too large to allocate
included: its sizes come from the flags; from a checkpoint's config it is
a data error), 2 data error, 3 numeric failure
(non-finite loss or failed gradient check), 141 output pipe closed by its
reader (128 + SIGPIPE, as a shell reports a tool that SIGPIPE ended).
Every subcommand is reproducible byte for byte under a fixed --seed,
whatever the CPU or BLAS thread count, for one numpy/OpenBLAS build on
one CPU type: a command runs with OpenBLAS on one thread, because a
matrix product split over threads sums in another order (OpenBLAS still
picks its kernels per CPU type, and another BLAS is left as it is).
FAET_SEED serves as a fallback seed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import sys
import typing

from .autograd import ShapeError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .corpus import (
    CorpusError, build_vocab, read_jsonl, split_corpus, split_report,
    write_jsonl,
)
from .embedding import load_pretrained_emoji_vectors
from .model import VARIANTS, Model, TrainConfig
from .synthetic import gen_overfit, gen_xor
from .trainer import (
    NanLossError, _encoded, ablate, evaluate, gradient_check_report, train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; remap to this tool's convention
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(flag: int | None) -> int:
    """`--seed` if given, else FAET_SEED, else 0; anything but a
    non-negative integer is refused, naming the flag or the variable."""
    name, raw = (("--seed", flag) if flag is not None
                 else ("FAET_SEED", os.environ.get("FAET_SEED", "0")))
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {raw!r}")
    return seed


def _emit(obj, pretty: bool = False) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        print(json.dumps(obj, sort_keys=True, ensure_ascii=False))


def _add_config_flags(sub, *skip: str) -> None:
    # one flag per config field but `widths`, which only --config sets, and
    # those in `skip`; a --config file may still set any field
    types = typing.get_type_hints(TrainConfig)
    for field in dataclasses.fields(TrainConfig):
        if field.name != "widths" and field.name not in skip:
            sub.add_argument(
                "--" + field.name.replace("_", "-"), type=types[field.name],
                choices=VARIANTS if field.name == "variant" else None)
    sub.add_argument("--config", default=None,
                     help="JSON config file; flags override file values; "
                          "unknown keys are an error")


def _resolve_config(args) -> TrainConfig:
    values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(
                    f"{args.config}: not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a JSON object, "
                             f"got {type(loaded).__name__}")
        values.update(loaded)
    for name, value in vars(args).items():
        if name in TrainConfig.__dataclass_fields__ and value is not None:
            values[name] = value
    if "seed" not in values:  # a flag or a file value wins over FAET_SEED
        values["seed"] = _seed(None)
    config = TrainConfig.from_json_dict(values)
    # a repeated width adds no capacity (its blocks would share one filter
    # bank); refused where a model is configured, not where a file is read,
    # so checkpoints written with one still load
    if len(set(config.widths)) < len(config.widths):
        raise ValueError(f"widths must not repeat, got {config.widths}")
    return config


def build_parser() -> _Parser:
    parser = _Parser(prog="faet", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("split", parents=[], help="split a JSONL corpus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ratios", default="7:2:1")
    p.add_argument("--seed", type=int, default=None)

    p = subs.add_parser("train", help="train a model")
    p.add_argument("--train", dest="train_file", required=True)
    p.add_argument("--val", dest="val_file", required=True)
    p.add_argument("--out", required=True,
                   help="best-validation checkpoint; '<out>.final' gets the "
                        "final epoch")
    p.add_argument("--log", default=None, help="per-epoch JSONL log path")
    p.add_argument("--emoji-vectors", default=None,
                   help="word2vec-style text file initializing emoji senses "
                        "(_pos/_neg suffixes pick one sense)")
    _add_config_flags(p)

    p = subs.add_parser("eval", help="evaluate a checkpoint on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--pretty", action="store_true")

    p = subs.add_parser("predict", help="per-line predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--explain", action="store_true",
                   help="attach attention dumps per document")

    p = subs.add_parser("ablate",
                        help="train every variant side by side")
    p.add_argument("--train", dest="train_file", required=True)
    p.add_argument("--val", dest="val_file", required=True)
    p.add_argument("--test", dest="test_file", required=True)
    p.add_argument("--pretty", action="store_true")
    _add_config_flags(p, "variant")  # it trains every variant

    p = subs.add_parser("gradcheck",
                        help="finite-difference check per parameter group")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = subs.add_parser("gen-synthetic", help="emit seeded synthetic corpora")
    p.add_argument("--kind", choices=("overfit", "xor"), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--test-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_split(args) -> int:
    seed = _seed(args.seed)
    try:
        ratios = tuple(float(r) for r in args.ratios.split(":"))
    except ValueError:
        raise ValueError(f"--ratios must be train:test:val numbers, got "
                         f"{args.ratios!r}") from None
    docs = read_jsonl(args.input, mode="train")
    train_docs, test_docs, val_docs = split_corpus(docs, ratios, seed)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, part in (("train", train_docs), ("test", test_docs),
                       ("val", val_docs)):
        write_jsonl(part, os.path.join(args.out_dir, f"{name}.jsonl"))
    _emit(split_report(len(docs), ratios))
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _resolve_config(args)
    # refused before training, not when a checkpoint is written
    if not args.out:
        raise ValueError("--out must name a file")
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(
            f"--out {args.out}: no directory {out_dir!r}")
    if os.path.isdir(args.out):
        raise IsADirectoryError(f"--out {args.out} is a directory")
    final_path = args.out + ".final"
    for path in (final_path, args.out + ".tmp", final_path + ".tmp"):
        if os.path.isdir(path):
            raise IsADirectoryError(
                f"--out {args.out}: {path!r} is a directory")
    train_docs = read_jsonl(args.train_file, mode="train")
    val_docs = read_jsonl(args.val_file, mode="train")
    model = None
    loaded_vectors = None
    if args.emoji_vectors:
        vocab = build_vocab(train_docs, min_count=config.min_count)
        model = Model(config, vocab)
        loaded_vectors = load_pretrained_emoji_vectors(
            args.emoji_vectors, model.emoji_table, vocab)
    result = train(train_docs, val_docs, config, model=model,
                   log_path=args.log)
    save_checkpoint(result.model, final_path)
    save_checkpoint(Model.from_state(config, result.model.vocab,
                                     result.best_state), args.out)
    summary = {"best_epoch": result.best_epoch,
               "best_val_acc": result.best_val_acc,
               "checkpoint": args.out, "final_checkpoint": final_path,
               "epochs": config.epochs}
    if loaded_vectors is not None:
        summary["emoji_vectors"] = loaded_vectors
    _emit(summary)
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    docs = read_jsonl(args.data, mode="train")
    report = evaluate(model, docs)
    _emit(report.to_dict(), pretty=args.pretty)
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_checkpoint(args.model)
    docs = read_jsonl(args.data, mode="predict")
    if not docs:
        raise CorpusError("predict: empty document list")
    rows = _encoded(docs, model.vocab, model.config.max_len, "predict")
    for result in model.predictions(rows, args.explain):
        _emit(result)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    config = _resolve_config(args)
    report = ablate(read_jsonl(args.train_file, mode="train"),
                    read_jsonl(args.val_file, mode="train"),
                    read_jsonl(args.test_file, mode="train"),
                    config)
    _emit(report, pretty=args.pretty)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    report = gradient_check_report(args.samples, args.tolerance)
    _emit(report)
    return EXIT_OK if report["pass"] else EXIT_NUMERIC


def _cmd_gen_synthetic(args) -> int:
    seed = _seed(args.seed)
    if args.kind == "overfit" and args.test_size is not None:
        raise ValueError("--test-size applies only to --kind xor")
    # generated before the directory is made, so bad sizes leave none
    if args.kind == "overfit":
        size = args.size if args.size is not None else 64
        docs = gen_overfit(size, seed)
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "overfit.jsonl")
        write_jsonl(docs, path)
        _emit({"kind": "overfit", "size": size, "seed": seed, "path": path})
    else:
        size = args.size if args.size is not None else 512
        test_size = args.test_size if args.test_size is not None else 128
        train_docs, test_docs = gen_xor(size, test_size, seed)
        os.makedirs(args.out_dir, exist_ok=True)
        train_path = os.path.join(args.out_dir, "xor_train.jsonl")
        test_path = os.path.join(args.out_dir, "xor_test.jsonl")
        write_jsonl(train_docs, train_path)
        write_jsonl(test_docs, test_path)
        _emit({"kind": "xor", "train_size": size, "test_size": test_size,
               "seed": seed, "train_path": train_path, "test_path": test_path})
    return EXIT_OK


_COMMANDS = {
    "split": _cmd_split,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
    "gen-synthetic": _cmd_gen_synthetic,
}


_MAPS = "/proc/self/maps"  # the process's mapped files, one per line


def _openblas_threads():
    """The (get, set) thread-count calls of the OpenBLAS that numpy
    loaded, found among the process's mapped libraries, or None where
    there is none (or none that loads)."""
    try:
        with open(_MAPS, encoding="utf-8", errors="replace") as fh:
            # address perms offset dev inode path; the path may hold spaces
            fields = [line.rstrip("\n").split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5] for f in fields if len(f) == 6
                    and "openblas" in os.path.basename(f[5])
                    and not f[5].endswith(" (deleted)")})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread inside, and the caller's count again after;
    nothing changes where numpy's BLAS is not an OpenBLAS found here."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# glibc mallopt parameters (malloc.h) and the values pinned for them: no
# block is served by its own mmap below the largest threshold glibc takes
# on 64-bit, and the heap top is never trimmed, so the pages a training
# step frees are reused by the next step instead of being returned and
# faulted in again
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = (1 << 31) - 1


def _keep_freed_memory() -> None:
    """Pin glibc malloc's mmap and trim thresholds for the rest of the
    process; nothing happens where the C library has no `mallopt`."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no C library to open by name None
        return
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def console_main() -> int:
    """The `faet` console script and `python -m faet`: the process is the
    command's own, so it pins malloc's thresholds (`mallopt` cannot give
    glibc's self-adjusting ones back) before `main()` runs.  A caller of
    `main()` in its own process keeps its allocator as it is."""
    _keep_freed_memory()
    return main()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        with _one_blas_thread():
            code = _COMMANDS[args.command](args)
        if sys.stdout is not None:  # None when started without an fd 1
            sys.stdout.flush()  # here, so a closed pipe cannot fail at exit
        return code
    except BrokenPipeError:
        # the reader left (`faet predict ... | head`); what is still
        # buffered goes to devnull, and nothing goes to stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (CorpusError, CheckpointError, FileExistsError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError) as exc:
        print(f"faet: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NanLossError as exc:
        print(f"faet: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ShapeError:
        raise  # an internal bug, not a usage error: keep the traceback
    except MemoryError as exc:
        # numpy's message names the size and the shape it could not allocate
        print(f"faet: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError) as exc:
        print(f"faet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(console_main())
