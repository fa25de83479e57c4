"""Census of the package's defaults.

Every parameter with a default in `src/faet` is listed below, as
`module.qualified.function(parameter)`, and every dataclass field with a
default as `module.Class.field`.  A default is a mode or a value that
callers may leave out, so adding one (or removing one) means editing
these lists.  Backward-rule closures (`_bw(out=...)`) bind their node
through a default and are not counted.
"""

import ast
from pathlib import Path

import faet

EXPECTED = [
    "autograd.Value.__init__(requires_grad)",
    "autograd.Value.__init__(_prev)",
    "autograd.Value.__init__(_op)",
    "autograd.concat(axis)",
    "classifier.textcnn_forward_batch(dropout_rate)",
    "classifier.textcnn_forward_batch(dropout_rng)",
    "cli._emit(pretty)",
    "cli.main(argv)",
    "corpus.CorpusError.__init__(line_number)",
    "corpus.parse_jsonl_record(line_number)",
    "corpus.parse_jsonl_record(mode)",
    "corpus.read_jsonl(mode)",
    "corpus.build_vocab(min_count)",
    "corpus.make_batches(seed)",
    "corpus.make_batches(shuffle)",
    "model.Model.forward_docs(dropout_rng)",
    "model.Model.batch_loss(dropout_rng)",
    "trainer.train(model)",
    "trainer.train(log_path)",
]

FIELD_DEFAULTS = [
    "corpus.TokenizedDoc.label",
    "model.TrainConfig.d",
    "model.TrainConfig.d_w",
    "model.TrainConfig.n_filters",
    "model.TrainConfig.widths",
    "model.TrainConfig.dropout",
    "model.TrainConfig.batch_size",
    "model.TrainConfig.epochs",
    "model.TrainConfig.max_len",
    "model.TrainConfig.lr",
    "model.TrainConfig.lambda_align",
    "model.TrainConfig.label_smoothing",
    "model.TrainConfig.seed",
    "model.TrainConfig.variant",
    "model.TrainConfig.min_count",
]


def _trees():
    package = Path(faet.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _defaults(node, prefix):
    """`prefix.function(parameter)` for each defaulted parameter of every
    function under `node`, in source order."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defaults(child, f"{prefix}.{child.name}")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            if child.name != "_bw":
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults)
                              if d is not None]
                for arg in defaulted:
                    yield f"{name}({arg.arg})"
            yield from _defaults(child, name)
        else:
            yield from _defaults(child, prefix)


def test_parameter_defaults_are_exactly_the_listed_ones():
    found = []
    for module, tree in _trees():
        found.extend(_defaults(tree, module))
    assert found == EXPECTED


def test_dataclass_field_defaults_are_exactly_the_listed_ones():
    found = [f"{module}.{cls.name}.{stmt.target.id}"
             for module, tree in _trees() for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef)
             and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
             for stmt in cls.body
             if isinstance(stmt, ast.AnnAssign) and stmt.value is not None]
    assert found == FIELD_DEFAULTS
