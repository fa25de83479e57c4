"""Command-line entry point: faet <subcommand>.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure
(non-finite loss or failed gradient check).  Every subcommand is
reproducible byte for byte under a fixed --seed; FAET_SEED serves as a
fallback seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .autograd import ShapeError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .corpus import (
    CorpusError, SplitSpec, build_vocab, encode_doc, read_jsonl, split_corpus,
    split_report, write_jsonl,
)
from .embedding import load_pretrained_emoji_vectors
from .model import Model, TrainConfig
from .synthetic import gen_overfit, gen_xor
from .trainer import NanLossError, ablate, evaluate, gradient_check_report, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; remap to this tool's convention
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _env_seed() -> int:
    return int(os.environ.get("FAET_SEED", "0"))


def _emit(obj, pretty: bool = False) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False))
    else:
        print(json.dumps(obj, sort_keys=True, ensure_ascii=False))


_CONFIG_FLAGS = [
    ("--d", int, "d"), ("--d-w", int, "d_w"),
    ("--n-filters", int, "n_filters"), ("--dropout", float, "dropout"),
    ("--batch-size", int, "batch_size"), ("--epochs", int, "epochs"),
    ("--max-len", int, "max_len"), ("--lr", float, "lr"),
    ("--lambda-align", float, "lambda_align"),
    ("--label-smoothing", float, "label_smoothing"),
    ("--seed", int, "seed"), ("--min-count", int, "min_count"),
]


def _add_config_flags(sub) -> None:
    for flag, typ, _ in _CONFIG_FLAGS:
        sub.add_argument(flag, type=typ, default=None)
    sub.add_argument("--variant", choices=("fine", "coarse"), default=None)
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
        unknown = sorted(set(values) - set(TrainConfig.__dataclass_fields__))
        if unknown:
            raise ValueError(f"{args.config}: unknown config key(s): "
                             f"{', '.join(unknown)}")
    for _, _, name in _CONFIG_FLAGS:
        flag_value = getattr(args, name)
        if flag_value is not None:
            values[name] = flag_value
    if args.variant is not None:
        values["variant"] = args.variant
    values.setdefault("seed", _env_seed())
    return TrainConfig.from_json_dict(values)


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
                        help="train fine and coarse variants side by side")
    p.add_argument("--train", dest="train_file", required=True)
    p.add_argument("--val", dest="val_file", required=True)
    p.add_argument("--test", dest="test_file", required=True)
    p.add_argument("--pretty", action="store_true")
    _add_config_flags(p)

    p = subs.add_parser("gradcheck",
                        help="finite-difference check per parameter group")
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--tolerance", type=float, default=1e-4)

    p = subs.add_parser("gen-synthetic", help="emit seeded synthetic corpora")
    p.add_argument("--kind", choices=("overfit", "xor"), required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--test-size", type=int, default=128)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_split(args) -> int:
    ratios = tuple(float(r) for r in args.ratios.split(":"))
    if len(ratios) != 3:
        raise CorpusError(f"ratios must be train:test:val, got {args.ratios!r}")
    seed = args.seed if args.seed is not None else _env_seed()
    docs = read_jsonl(args.input, mode="train")
    train_docs, test_docs, val_docs = split_corpus(
        docs, SplitSpec(ratios=ratios, seed=seed))
    os.makedirs(args.out_dir, exist_ok=True)
    for name, part in (("train", train_docs), ("test", test_docs),
                       ("val", val_docs)):
        write_jsonl(part, os.path.join(args.out_dir, f"{name}.jsonl"))
    _emit(split_report(len(docs), ratios))
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _resolve_config(args)
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
    final_path = args.out + ".final"
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
    encoded = [encode_doc(doc, model.vocab, model.config.max_len)
               for doc in docs]
    for out in model.score(encoded):
        _emit(out.prediction(args.explain))
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
    report = gradient_check_report(samples_per_group=args.samples,
                                   tolerance=args.tolerance)
    _emit(report)
    return EXIT_OK if report["pass"] else EXIT_NUMERIC


def _cmd_gen_synthetic(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    os.makedirs(args.out_dir, exist_ok=True)
    if args.kind == "overfit":
        size = args.size if args.size is not None else 64
        path = os.path.join(args.out_dir, "overfit.jsonl")
        write_jsonl(gen_overfit(size=size, seed=seed), path)
        _emit({"kind": "overfit", "size": size, "seed": seed, "path": path})
    else:
        size = args.size if args.size is not None else 512
        train_docs, test_docs = gen_xor(train_size=size,
                                        test_size=args.test_size, seed=seed)
        train_path = os.path.join(args.out_dir, "xor_train.jsonl")
        test_path = os.path.join(args.out_dir, "xor_test.jsonl")
        write_jsonl(train_docs, train_path)
        write_jsonl(test_docs, test_path)
        _emit({"kind": "xor", "train_size": size, "test_size": args.test_size,
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (CorpusError, CheckpointError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"faet: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NanLossError as exc:
        print(f"faet: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ShapeError:
        raise  # an internal bug, not a usage error: keep the traceback
    except (ValueError, TypeError) as exc:
        print(f"faet: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
