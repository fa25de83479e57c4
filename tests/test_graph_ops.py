"""Every graph op's shared contract as one table.

One row per op and form.  The ten generic ops of `faet.autograd` (`add`,
`mul`, `matmul`, `concat`, `tanh`, `softmax`, `dropout`, `take_rows`,
`narrow`, `reshape`) have a row for each form they are used in; the six
fused nodes are `bilstm_encode_batch`, `textcnn_forward_batch` under
each form of its backward's state products, the fine attention's
`interaction` and `fine_pool`, `alignment_loss` and `cross_entropy`.  A
row draws valid operands of random shape from a seed, with a seeded
upstream gradient for the output, and names its references, its
tolerance, its documented bad shapes and the arguments that must be
integers.  A generic op's reference is its direct numpy forward, bitwise
(tolerance 0), and finite differences alone check its gradients; a fused
node keeps the tolerance of the per-node tests it replaced, and the
attention's two nodes match the generic-op graph they replaced bit for
bit in the forward and within 1e-12 in the gradients.  Finite
differences cannot probe an exact tie of a maximum, so a row that draws
ties names a copy of its case with each tie lowered by 1e-3 on its later
entry, which keeps the gradient's routing to the first maximum.  `close`
allows `tol` times the reference's largest magnitude, capped at `tol`,
so it is never looser than an absolute or a relative bound of `tol`, and
it wants exact zeros where the reference has them.  Backward runs from
the upstream gradient, through one product with the output (`loss_of`).
Each test below checks one property of the contract for every row; the
batched ops alone have the two on rows of a batch.  The last test ties
the table to the ops a training step builds.
"""

from __future__ import annotations

import gc
import types
import typing
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    alignment_composite, alignment_pairs, bilstm_folded, conv_pool_full_width,
    cross_entropy_composite, cross_entropy_rows, fine_attention_doc,
    fine_pool_composite, full_width_filter, interaction_composite,
    softmax_direct, step_graph, textcnn_windows,
)

from faet import autograd as ag
from faet import classifier
from faet.attention import fine_pool, interaction
from faet.autograd import ShapeError
from faet.classifier import TextCnnParams, textcnn_forward_batch
from faet.encoder import bilstm_encode_batch
from faet.objective import alignment_loss, cross_entropy


class Case(typing.NamedTuple):
    arrays: dict  # operand name -> array, in the op's operand order
    lengths: np.ndarray | None  # per-row lengths of a batched op: (B,) or
    # (B, k), one column per kind of length
    upstream: np.ndarray  # d(loss)/d(output)
    args: dict = {}  # the op's other arguments, by name


class Row(typing.NamedTuple):
    id: str
    op: str  # the node's op name, which its errors carry
    cases: st.SearchStrategy
    apply: typing.Callable  # (values, case) -> output Value
    refs: tuple  # (reference, forward tolerance); case -> (out, grads)
    tol: float
    bad: tuple  # (id, case -> case with one operand misshapen)
    # batched operands: row axis 0, then for each padded axis the column
    # of `lengths` that pads it
    padded: dict = {}
    batched: tuple = ()  # further operands with a row axis 0
    form: typing.Callable | None = None  # TextCNN backward's form
    integers: tuple = ()  # arguments that must be integers (or hold them)
    untie: typing.Callable | None = None  # case -> a copy without ties


def drawn(test):
    """`test(row, ..., data)` on 15 examples drawn through `data`."""
    return settings(max_examples=15)(given(data=st.data())(test))


def values_of(case, trainable):
    return {name: (ag.param if name in trainable else ag.constant)(a)
            for name, a in case.arrays.items()}


def loss_of(out, upstream):
    """The scalar whose gradient with respect to `out` is `upstream`."""
    return ag.matmul(ag.reshape(out, (out.size,)),
                     ag.constant(upstream.reshape(-1)))


def run(apply, case, trainable):
    """(output, trainable operands' gradients) of `apply` on `case`."""
    values = values_of(case, trainable)
    out = apply(values, case)
    if out.requires_grad:
        loss_of(out, case.upstream).backward()
    return out.data, {name: values[name].grad for name in trainable}


def graph(apply):
    """A reference built from generic graph ops, differentiated by them."""
    return lambda case: run(apply, case, case.arrays)


def close(got, want, tol):
    got, want = np.asarray(got), np.asarray(want)
    scale = min(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0, atol=tol * scale)
    assert not np.any(got[want == 0])


def edit(case, **arrays):
    return case._replace(arrays={**case.arrays, **arrays})


def columns(case):
    """The case's lengths as (B, k): one column per kind of length."""
    return np.reshape(case.lengths, (len(case.lengths), -1))


def padding(case, name, axes):
    """Where operand `name` is padding: past its row's length, column
    `axes[k]` of the lengths, on axis k + 1."""
    a, lengths = case.arrays[name], columns(case)
    pad = np.zeros(a.shape, bool)
    for axis, column in enumerate(axes, 1):
        positions = np.arange(a.shape[axis]).reshape(
            [-1 if k == axis else 1 for k in range(a.ndim)])
        pad |= positions >= lengths[:, column].reshape(
            (-1,) + (1,) * (a.ndim - 1))
    return pad


def with_args(**changes):
    """An edit that sets each named argument to `change(case)`."""
    return lambda case: case._replace(args={**case.args, **{
        name: change(case) for name, change in changes.items()}})


def nodes_built(op, call):
    """`call()`'s result and the (node, inputs) of each node it built whose
    op is `op`, or of every node when `op` is None."""
    nodes, make_node = [], ag.make_node

    def recording(data, inputs, name):
        out = make_node(data, inputs, name)
        if op in (None, name):
            nodes.append((out, inputs))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ag, "make_node", recording)
        return call(), nodes


def seeded(draw):
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


@st.composite
def row_lengths(draw):
    """Per-row lengths, and a padded length one row reaches, or none."""
    lengths = np.array(draw(st.lists(st.integers(1, 5), min_size=1,
                                     max_size=4)))
    return lengths, int(lengths.max()) + draw(st.integers(0, 1))


MISSHAPE = {
    "fewer-axes": lambda a: a[0],
    "more-axes": lambda a: a[..., None],
    "wider": lambda a: np.concatenate([a, a[..., :1]], axis=-1),
    "taller": lambda a: np.concatenate([a, a[:1]]),
    "shorter": lambda a: a[1:],
}
# lengths refused, from valid ones `n` padded to `L`
BAD_LENGTHS = {
    "past-L": lambda n, L: np.r_[L + 1, n[1:]],
    "zero": lambda n, L: np.r_[0, n[1:]],
    "negative": lambda n, L: np.r_[-1, n[1:]],
    "one-short": lambda n, L: n[:-1],
    "2d": lambda n, L: n[None],
    "float": lambda n, L: n.astype(float),
    "bool": lambda n, L: np.ones(len(n), bool),
}


def misshapen(*pairs, padded=None):
    """Edits misshaping the operands named with each (prefix, way) pair,
    and with `padded` (its axis 1 is L) one per `BAD_LENGTHS` entry."""
    edits = [(f"{prefix}-{way}", lambda c, prefix=prefix, way=MISSHAPE[way]:
              edit(c, **{name: way(a) for name, a in c.arrays.items()
                         if name.startswith(prefix)}))
             for prefix, way in pairs]
    return tuple(edits + [
        (f"lengths-{id}", lambda c, change=change: c._replace(
            lengths=change(c.lengths, c.arrays[padded].shape[1])))
        for id, change in BAD_LENGTHS.items() if padded])


def splat(op):  # `op` on the operands in order and the other arguments
    return lambda values, case: op(*values.values(), **case.args)


# --- the generic ops ------------------------------------------------------

def generic(id, operands, forward, apply=None, bad=(), integers=()):
    """The row of the op that starts `id`.  `operands(draw, rng)` draws
    its arrays and its other arguments, `forward(*arrays, **args)` is its
    numpy reference, and `apply` builds it; by default the op on the
    arrays in order and the arguments by name.  `integers` names the
    arguments that must be integers."""
    op = id.split("-")[0]

    @st.composite
    def cases(draw):
        rng = seeded(draw)
        arrays, args = operands(draw, rng)
        out = forward(*arrays.values(), **args)
        return Case(arrays, None, rng.normal(size=np.shape(out)), args)
    reference = (lambda case: (forward(*case.arrays.values(), **case.args),
                               {}), 0.0)
    return Row(id, op, cases(), apply or splat(getattr(ag, op)),
               (reference,), 0.0, bad, integers=integers)


def shaped(*forms, low=1):
    """Operands `a` (and `b`) in [-3, 3), shaped by one of `forms`: a spec
    per operand, one letter per axis.  Each letter is a size drawn in
    [low, 4], shared by the operands; the digit 1 is size 1."""
    def operands(draw, rng):
        specs = draw(st.sampled_from(forms))
        size = {c: draw(st.integers(low, 4))
                for c in sorted(set("".join(specs)) - {"1"})}
        return {name: rng.uniform(-3, 3, [size.get(c, 1) for c in spec])
                for name, spec in zip("ab", specs)}, {}
    return operands


def along_axis(draw, rng):
    """An operand `a` of 1 to 3 axes, and one of its axes."""
    a = rng.uniform(-3, 3, [draw(st.integers(1, 4))
                            for _ in range(draw(st.integers(1, 3)))])
    return {"a": a}, {"axis": draw(st.integers(-a.ndim, a.ndim - 1))}


def concatenated(draw, rng):
    ndim = draw(st.integers(2, 3))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape, parts = [draw(st.integers(1, 3)) for _ in range(ndim)], {}
    for k in range(draw(st.integers(2, 3))):
        shape[axis] = draw(st.integers(1, 3))
        parts[f"part{k}"] = rng.uniform(-3, 3, shape)
    return parts, {"axis": axis}


def narrowed(draw, rng):
    arrays, args = along_axis(draw, rng)
    size = arrays["a"].shape[args["axis"]]
    start = draw(st.integers(0, size - 1))
    return arrays, {**args, "start": start,
                    "length": draw(st.integers(1, size - start))}


def with_repeated_ids(draw, rng):
    table = along_axis(draw, rng)[0]["a"]
    ids = draw(st.lists(st.integers(0, len(table) - 1), min_size=1,
                        max_size=5))
    return {"table": table}, {"ids": np.array(ids + ids[:1])}


def reshaped(draw, rng):
    """A shape of the same size: the axes permuted, the first two maybe
    merged, one maybe given as -1."""
    arrays, _ = along_axis(draw, rng)
    shape = list(draw(st.permutations(arrays["a"].shape)))
    if len(shape) > 1 and draw(st.booleans()):
        shape[:2] = [shape[0] * shape[1]]
    if draw(st.booleans()):
        shape[draw(st.integers(0, len(shape) - 1))] = -1
    return arrays, {"shape": tuple(shape)}


def column_and_grid(draw, rng):
    """An (n,) operand, its (n, 1) shape and an (n, m) grid to add."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return ({"a": rng.uniform(-3, 3, n)},
            {"shape": (n, 1), "grid": rng.uniform(-3, 3, (n, m))})


def plus(operands, **strategies):
    """`operands` with one more argument drawn from each strategy."""
    def more(draw, rng):
        arrays, args = operands(draw, rng)
        return arrays, {**args, **{name: draw(strategy)
                                   for name, strategy in strategies.items()}}
    return more


def softmax_forward(a, axis):
    e = np.exp(a - np.max(a, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def dropout_forward(a, rate, seed):
    mask = np.random.default_rng(seed).random(a.shape) >= rate
    return a * (mask / (1.0 - rate))


def axes_outside(name="a"):
    """Edits setting `axis` just past either end of operand `name`'s axes."""
    return (("axis-past-last", with_args(axis=lambda c: c.arrays[name].ndim)),
            ("axis-before-first",
             with_args(axis=lambda c: -c.arrays[name].ndim - 1)))


AXIS_BAD = axes_outside() + (("empty-axis", lambda c: edit(c, a=np.take(
    c.arrays["a"], np.arange(0), axis=c.args["axis"]))),)
ANY = ("",), ("n",), ("nm",), ("Bnm",)
SAME = ("n", "n"), ("nm", "nm"), ("Bnm", "Bnm")
MATMUL = {"1d-1d": ("k", "k"), "2d-2d": ("nk", "kp"), "1d-2d": ("k", "kp"),
          "2d-1d": ("nk", "k"), "3d-3d": ("Bnk", "Bkp"),
          "3d-2d": ("Bnk", "kp"), "3d-1d": ("Bnk", "k"),
          "2d-3d": ("nk", "Bkp"), "1d-3d": ("k", "Bkp")}

GENERIC = [
    generic("add", shaped(*SAME, low=2), np.add,
            bad=misshapen(("b", "wider"))),
    generic("add-broadcast", shaped(("nm", "m"), ("Bnm", "m"), ("Bnm", "1m"),
                                    ("Bnm", "nm"), low=2),
            np.add, bad=misshapen(("b", "wider"))),
    generic("mul", shaped(*SAME, low=2), np.multiply,
            bad=misshapen(("b", "wider"))),
    generic("mul-column-broadcast", shaped(("n1", "nm"), ("nm", "n1"), low=2),
            np.multiply, bad=misshapen(("a", "taller"))),
    generic("mul-scale", plus(shaped(*ANY), b=st.one_of(
        st.integers(-3, 3), st.floats(-3, 3))), lambda a, b: a * b),
    *(generic(f"matmul-{form}", shaped(specs), np.matmul,
              bad=misshapen(("a", "wider")))
      for form, specs in MATMUL.items()),
    generic("concat", concatenated,
            lambda *parts, axis: np.concatenate(parts, axis),
            lambda values, case: ag.concat(values.values(), **case.args),
            misshapen(("part1", "more-axes")) + axes_outside("part0") + (
                # axis 1 when the parts join on axis 0, else axis 0
                ("part1-longer-off-axis", lambda c: edit(c, part1=np.repeat(
                    c.arrays["part1"], 2, axis=int(c.args["axis"] % c.arrays[
                        "part1"].ndim == 0)))),
                ("no-operands", lambda c: c._replace(arrays={}))),
            integers=("axis",)),
    generic("tanh", shaped(*ANY), np.tanh),
    generic("softmax", along_axis, softmax_forward, bad=AXIS_BAD,
            integers=("axis",)),
    generic("dropout-seeded-mask", plus(shaped(*ANY), rate=st.floats(0.05, 0.9),
                                        seed=st.integers(0, 2 ** 32 - 1)),
            dropout_forward,
            lambda values, case: ag.dropout(
                values["a"], case.args["rate"],
                np.random.default_rng(case.args["seed"]))),
    generic("take_rows-repeated-ids", with_repeated_ids,
            lambda table, ids: table[ids],
            bad=(("ids-float", with_args(ids=lambda c: c.args["ids"] + 0.5)),
                 ("table-scalar", lambda c: edit(
                     c, table=np.array(c.arrays["table"].flat[0]))))),
    generic("narrow", narrowed,
            lambda a, axis, start, length: np.take(
                a, np.arange(start, start + length), axis=axis),
            bad=axes_outside() + (
                ("negative-start", with_args(start=lambda c: -1)),
                ("negative-length", with_args(length=lambda c: -1)),
                ("past-end", with_args(length=lambda c: c.arrays["a"].shape[
                    c.args["axis"]] - c.args["start"] + 1))),
            integers=("axis", "start", "length")),
    generic("reshape", reshaped, lambda a, shape: a.reshape(shape),
            bad=(("size", with_args(
                shape=lambda c: (c.arrays["a"].size + 1,))),),
            integers=("shape",)),
    generic("reshape-broadcast", column_and_grid,
            lambda a, shape, grid: a.reshape(shape) + grid,
            lambda values, case: ag.add(
                ag.reshape(values["a"], case.args["shape"]),
                ag.constant(case.args["grid"])),
            (("size", with_args(
                shape=lambda c: (c.arrays["a"].size + 1, 1))),)),
]


# --- the fused nodes ------------------------------------------------------

@st.composite
def bilstm_cases(draw):
    (lengths, length), d, d_in = (draw(row_lengths()), draw(st.integers(1, 3)),
                                  draw(st.integers(1, 3)))
    rng = seeded(draw)
    arrays = {"seq": rng.normal(size=(len(lengths), length, d_in))}
    for k in ("fwd", "bwd"):
        arrays[f"{k}.w_in"] = rng.uniform(-1, 1, (d_in, 4 * d))
        arrays[f"{k}.w_rec"] = rng.uniform(-1, 1, (d, 4 * d))
        arrays[f"{k}.bias"] = rng.uniform(-1, 1, 4 * d)
    return Case(arrays, lengths,
                rng.normal(size=(len(lengths), length, 2 * d)))


def bilstm(encode):
    """`encode` on the case's sequence and two directions' weights."""
    def apply(values, case):
        fwd, bwd = (types.SimpleNamespace(
            d=values[f"{k}.w_rec"].shape[0], w_in=values[f"{k}.w_in"],
            w_rec=values[f"{k}.w_rec"], bias=values[f"{k}.bias"])
            for k in ("fwd", "bwd"))
        return encode(values["seq"], fwd, bwd, case.lengths)
    return apply


@st.composite
def textcnn_cases(draw):
    lengths, length = draw(row_lengths())
    hidden, summary_dim, f = (draw(st.integers(1, 4)) for _ in range(3))
    # a width past L pools to 0
    widths = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3,
                                 unique=True)))
    rng = seeded(draw)
    batch, pooled = len(lengths), len(widths) * f
    arrays = {"states": rng.uniform(-1, 1, (batch, length, hidden)),
              "summaries": rng.uniform(-1, 1, (batch, summary_dim))}
    for w in widths:
        arrays[f"cnn.filters_w{w}"] = rng.uniform(-1, 1, (f, w * hidden))
        arrays[f"cnn.bias_w{w}"] = rng.uniform(-0.5, 0.5, f)
    arrays["cnn.summary"] = rng.uniform(-1, 1, (pooled, summary_dim))
    arrays["out_w"] = rng.uniform(-1, 1, (pooled, 2))
    arrays["out_b"] = rng.uniform(-1, 1, 2)
    return Case(arrays, lengths, rng.normal(size=(batch, 2)),
                {"widths": widths, "n_filters": f})


def cnn(values, case):
    """`TextCnnParams` holding the case's filter values."""
    widths = case.args["widths"]
    params = TextCnnParams(0, 0, case.args["n_filters"], None, widths)
    for w in widths:
        params.filters[w] = values[f"cnn.filters_w{w}"]
        params.filter_bias[w] = values[f"cnn.bias_w{w}"]
    params.summary = values["cnn.summary"]
    params.out_w, params.out_b = values["out_w"], values["out_b"]
    return params


def textcnn(head):
    """The logits of `head` on the case's states, summaries and filters."""
    return lambda values, case: head(values["states"], values["summaries"],
                                     cnn(values, case), case.lengths)


def textcnn_full_width(case):
    """Logits from `conv_pool_full_width`, in the head's float order."""
    a, params = case.arrays, cnn(values_of(case, ()), case)
    widths = case.args["widths"]
    feats = conv_pool_full_width(
        a["states"], a["summaries"], widths,
        {w: full_width_filter(params, w) for w in widths},
        {w: a[f"cnn.bias_w{w}"] for w in widths}, case.lengths)
    return feats @ a["out_w"] + a["out_b"], {}


@st.composite
def alignment_cases(draw):
    n, m, h = (draw(st.integers(1, 48)), draw(st.integers(1, 6)),
               draw(st.integers(1, 5)))
    rng = seeded(draw)
    raw = rng.uniform(0, 1, (n, m)) + 1e-9
    return Case({"beta": raw / raw.sum(axis=1, keepdims=True),
                 "text": rng.normal(size=(n, h)),
                 "distance_w": rng.normal(size=2 * h)},
                None, rng.normal(size=()))


def alignment_by_pairs(case):
    loss, *grads = alignment_pairs(*case.arrays.values())
    return loss, dict(zip(case.arrays, (case.upstream * g for g in grads)))


@st.composite
def cross_entropy_cases(draw):
    # logits at most 8 apart: no probability falls to the composite's clamp
    batch, rng = draw(st.integers(1, 6)), seeded(draw)
    return Case({"logits": rng.uniform(-4, 4, (batch, 2))}, None,
                rng.normal(size=()),
                {"labels": rng.integers(0, 2, batch),
                 "smoothing": draw(st.sampled_from([0.0, 0.1, 0.35]))})


def fused_cross_entropy(values, case):
    return cross_entropy(values["logits"], case.args["labels"],
                         case.args["smoothing"])


def composite_cross_entropy(values, case):
    return cross_entropy_composite(ag.softmax(values["logits"], axis=1),
                                   case.args["labels"], case.args["smoothing"])


def cross_entropy_by_rows(case):
    """Per-row losses of the softmaxed logits, and their gradients taken
    back through the softmax's Jacobian."""
    p = np.array([softmax_direct(z) for z in case.arrays["logits"]])
    losses, d_p = cross_entropy_rows(p, case.args["labels"],
                                     case.args["smoothing"])
    d_z = p * (d_p - (d_p * p).sum(axis=1, keepdims=True))
    return np.sum(losses), {"logits": case.upstream * d_z}


def bad_labels(change):
    return with_args(labels=lambda case: change(case.args["labels"]))


@st.composite
def interaction_cases(draw):
    batch, n, m, f = (draw(st.integers(1, 4)) for _ in range(4))
    rng = seeded(draw)
    return Case({"text": rng.uniform(-1, 1, (batch, n, f)),
                 "emoji": rng.uniform(-1, 1, (batch, m, f)),
                 "weights": rng.uniform(-1, 1, 3 * f)},
                None, rng.normal(size=(batch, n, m)))


def interaction_by_pairs(case):
    """Each row's scores from the pair form, one (word, emoji) at a time."""
    a = case.arrays
    return np.array([fine_attention_doc(t, e, a["weights"])[0]
                     for t, e in zip(a["text"], a["emoji"])]), {}


@st.composite
def fine_pool_cases(draw):
    """A padded batch whose rows have 1 to 4 words and 0 to 3 emojis,
    emoji-free and single-emoji rows among them, scored at least 0.037
    apart; in a row with two valid words or two valid emojis a column or
    row maximum may then be copied onto a second entry, an exact tie.
    Lengths are (B, 2): words, emojis."""
    batch = draw(st.integers(1, 4))
    words = draw(st.lists(st.integers(1, 4), min_size=batch,
                          max_size=batch))
    emojis = draw(st.lists(st.sampled_from([0, 1, 1, 2, 3]), min_size=batch,
                           max_size=batch))
    n = max(words) + draw(st.integers(0, 1))
    m = max(1, max(emojis)) + draw(st.integers(0, 1))
    f, rng = draw(st.integers(1, 3)), seeded(draw)
    size = batch * n * m
    scores = ((rng.permutation(size) + rng.uniform(0, 0.5, size))
              * (6.0 / size) - 3.0).reshape(batch, n, m)
    ties = np.zeros(scores.shape, bool)
    for b, (n_b, m_b) in enumerate(zip(words, emojis)):
        # no tie, or one in a column's maximum over the words (axis 0) or
        # in a row's over the emojis (axis 1) of the row's valid block
        axis = draw(st.sampled_from([None] + [axis for axis, k in (
            (0, n_b), (1, m_b)) if k >= 2 and m_b]))
        if axis is None:
            continue
        valid = scores[b, :n_b, :m_b]     # a view: ties are made in place
        line = draw(st.integers(0, valid.shape[1 - axis] - 1))
        along = valid[:, line] if axis == 0 else valid[line]
        best = int(np.argmax(along))
        other = draw(st.sampled_from(
            [k for k in range(len(along)) if k != best]))
        along[other] = along[best]
        later = (max(best, other), line)[::1 if axis == 0 else -1]
        ties[(b, *later)] = True
    return Case({"scores": scores,
                 "text": rng.uniform(-1, 1, (batch, n, f)),
                 "emoji": rng.uniform(-1, 1, (batch, m, f))},
                np.stack([words, emojis], axis=1),
                rng.normal(size=(batch, 2 * f)), {"ties": ties})


def pool(fine):
    """The fused vector of `fine` on the case's operands and lengths."""
    return lambda values, case: fine(*values.values(), *case.lengths.T)[0]


def untied(case):
    return edit(case, scores=case.arrays["scores"] - 1e-3 * case.args["ties"])


def bad_lengths(column, change):
    """An edit of one column of the lengths, (words, emojis), to
    `change(column, case)`."""
    def edited(case):
        lengths = case.lengths.copy()
        lengths[:, column] = change(lengths[:, column], case)
        return case._replace(lengths=lengths)
    return edited


FUSED = [
    Row("bilstm", "bilstm", bilstm_cases(), bilstm(bilstm_encode_batch),
        ((graph(bilstm(bilstm_folded)), 1e-14),), 1e-14,
        misshapen(("seq", "fewer-axes"), ("seq", "wider"),
                  ("fwd.w_rec", "taller"), ("bwd.bias", "shorter"),
                  padded="seq"), padded={"seq": (0,)}),
    *(Row(f"textcnn-{form}", "textcnn", textcnn_cases(),
          textcnn(textcnn_forward_batch),
          ((graph(textcnn(textcnn_windows)), 1e-12),
           (textcnn_full_width, 1e-12)), 1e-12,
          misshapen(("states", "fewer-axes"), ("states", "wider"),
                    ("summaries", "fewer-axes"), ("summaries", "wider"),
                    ("summaries", "taller"), ("cnn.filters", "wider"),
                    ("cnn.bias", "wider"), ("cnn.summary", "taller"),
                    ("out_w", "wider"), ("out_b", "shorter"),
                    padded="states"),
          padded={"states": (0,)}, batched=("summaries",), form=rule)
      for form, rule in [("one-gemm", lambda length, width: False),
                         ("per-shift", lambda length, width: True)]),
    Row("interaction", "interaction", interaction_cases(), splat(interaction),
        ((graph(splat(interaction_composite)), 0.0),
         (interaction_by_pairs, 1e-12)), 1e-12,
        misshapen(("text", "fewer-axes"), ("text", "wider"),
                  ("emoji", "taller"), ("weights", "wider"),
                  ("weights", "more-axes"))),
    Row("fine_pool", "fine_pool", fine_pool_cases(), pool(fine_pool),
        ((graph(pool(fine_pool_composite)), 0.0),), 1e-12,
        misshapen(("scores", "fewer-axes"), ("scores", "wider"),
                  ("text", "wider"), ("text", "more-axes"),
                  ("emoji", "taller")) + (
            ("no-emoji-axis", lambda c: edit(
                c, scores=c.arrays["scores"][:, :, :0],
                emoji=c.arrays["emoji"][:, :0])),
            ("lengths-one-short", lambda c: c._replace(
                lengths=c.lengths[:-1])),
            ("lengths-float", lambda c: c._replace(
                lengths=c.lengths.astype(float))),
            ("lengths-bool", lambda c: c._replace(
                lengths=c.lengths.astype(bool))),
            ("lengths-zero", bad_lengths(0, lambda n, c: np.r_[0, n[1:]])),
            ("lengths-past-n", bad_lengths(0, lambda n, c: np.r_[
                c.arrays["text"].shape[1] + 1, n[1:]])),
            ("emoji-lengths-negative", bad_lengths(
                1, lambda m, c: np.r_[-1, m[1:]])),
            ("emoji-lengths-past-m", bad_lengths(1, lambda m, c: np.r_[
                c.arrays["emoji"].shape[1] + 1, m[1:]]))),
        padded={"scores": (0, 1), "text": (0,), "emoji": (1,)},
        untie=untied),
    Row("alignment", "alignment", alignment_cases(), splat(alignment_loss),
        ((graph(splat(alignment_composite)), 0.0),
         (alignment_by_pairs, 1e-12)), 1e-12,
        misshapen(("beta", "fewer-axes"), ("text", "more-axes"),
                  ("text", "taller"), ("distance_w", "wider"),
                  ("distance_w", "more-axes"))),
    Row("cross_entropy", "cross_entropy", cross_entropy_cases(),
        fused_cross_entropy,
        ((graph(composite_cross_entropy), 1e-12),
         (cross_entropy_by_rows, 1e-12)), 1e-12,
        misshapen(("logits", "fewer-axes"), ("logits", "more-axes"),
                  ("logits", "wider"), ("logits", "taller"),
                  ("logits", "shorter")) + (
            ("labels-one-short", bad_labels(lambda n: n[:-1])),
            ("labels-2d", bad_labels(lambda n: n[None])),
            ("labels-two", bad_labels(lambda n: np.r_[2, n[1:]])),
            ("labels-negative", bad_labels(lambda n: np.r_[-1, n[1:]])),
            ("labels-float", bad_labels(lambda n: n.astype(float))),
            ("labels-bool", bad_labels(lambda n: n.astype(bool))))),
]
ROWS = GENERIC + FUSED
BATCHED = pytest.mark.parametrize(
    "row", [row for row in ROWS if row.padded], indirect=True,
    ids=[row.id for row in ROWS if row.padded])


@pytest.fixture(scope="module", params=ROWS, ids=[row.id for row in ROWS])
def row(request):
    """The row, with its TextCNN backward form (`_shift_products`) in
    force through every backward; the forward has only one form."""
    with pytest.MonkeyPatch.context() as patch:
        if request.param.form is not None:
            patch.setattr(classifier, "_shift_products", request.param.form)
        yield request.param


@drawn
def test_forward_and_gradients_match_references_and_differences(row, data):
    case = data.draw(row.cases)
    out, grads = run(row.apply, case, case.arrays)
    for reference, tol in row.refs:
        want, want_grads = reference(case)
        close(out, want, tol)
        for name, grad in want_grads.items():
            close(grads[name], grad, row.tol)
    probed = row.untie(case) if row.untie else case
    values = values_of(probed, probed.arrays)
    report = ag.finite_difference_check(
        lambda: loss_of(row.apply(values, probed), probed.upstream), values,
        samples_per_group=8)
    assert max(report.values()) < 1e-4


@drawn
def test_gradients_go_only_where_asked_and_no_grad_is_bitwise(row, data):
    case = data.draw(row.cases)
    trainable = data.draw(st.sets(st.sampled_from(list(case.arrays))))
    out, every = run(row.apply, case, case.arrays)
    values = values_of(case, trainable)
    some, [(node, inputs)] = nodes_built(row.op,
                                         lambda: row.apply(values, case))
    with ag.no_grad():
        scored = nodes_built(row.op, lambda: row.apply(
            values_of(case, case.arrays), case))
    fixed = nodes_built(row.op, lambda: row.apply(values_of(case, ()), case))
    for result, [(unruled, _)] in (scored, fixed):
        assert not unruled.requires_grad and unruled._backward is None
        np.testing.assert_array_equal(result.data, out)
    assert some.requires_grad == bool(trainable)
    assert node.requires_grad == any(v.requires_grad for v in inputs)
    assert (node._backward is None) == (not node.requires_grad)
    if trainable:
        loss_of(some, case.upstream).backward()
    for name, value in values.items():
        if name in trainable:
            np.testing.assert_array_equal(value.grad, every[name], name)
        else:
            assert value.grad is None, name


@drawn
def test_a_non_value_operand_is_a_type_error(row, data):
    case = data.draw(row.cases)
    for name, array in case.arrays.items():
        values = {**values_of(case, case.arrays), name: array}
        with pytest.raises(TypeError, match=f"^{row.op}: "):
            row.apply(values, case)


@pytest.mark.parametrize("row, bad", [
    (row, bad) for row in ROWS for bad in row.bad], indirect=["row"],
    ids=[f"{row.id}-{id}" for row in ROWS for id, _ in row.bad])
@drawn
def test_a_bad_shape_is_a_shape_error(row, bad, data):
    id, change = bad
    case = change(data.draw(row.cases))
    lengths = "lengths" if id.startswith("lengths") else ""
    with pytest.raises(ShapeError, match=f"^{row.op}: {lengths}"):
        row.apply(values_of(case, case.arrays), case)


@pytest.mark.parametrize("row, name", [
    (row, name) for row in ROWS for name in row.integers], indirect=["row"],
    ids=[f"{row.id}-{name}-not-an-integer" for row in ROWS
         for name in row.integers])
@drawn
def test_a_non_integer_argument_is_a_type_error(row, name, data):
    # a float, even a whole one; for a shape, its last entry
    case = data.draw(row.cases)
    value = case.args[name]
    bad = ((*value[:-1], float(value[-1])) if isinstance(value, tuple)
           else float(value))
    case = with_args(**{name: lambda c: bad})(case)
    with pytest.raises(TypeError, match=f"^{row.op}: {name} .* is not "
                                        "integer$"):
        row.apply(values_of(case, case.arrays), case)


@drawn
def test_graph_freed_without_cyclic_gc(row, data):
    # a rule that held its node strongly would keep the graph alive until
    # a cyclic collection
    case = data.draw(row.cases)
    values = values_of(case, case.arrays)
    gc.disable()
    try:
        loss = loss_of(row.apply(values, case), case.upstream)
        loss.backward()
        nodes = [v for v in ag.topo_order(loss) if v._prev]
        assert row.op in [v._op for v in nodes]
        refs = [weakref.ref(v) for v in nodes]
        del nodes, loss
        assert [r() for r in refs if r() is not None] == []
    finally:
        gc.enable()


@BATCHED
@drawn
def test_each_row_equals_that_row_alone_whatever_the_padding(row, data):
    case = data.draw(row.cases)
    out, grads = run(row.apply, case, case.arrays)
    pads = {name: padding(case, name, axes)
            for name, axes in row.padded.items()}
    assert not any(np.any(grads[name][pad]) for name, pad in pads.items())
    # padding filled with other values changes no output bit
    rng = np.random.default_rng(0)
    noisy = edit(case, **{name: np.where(
        pad, rng.normal(size=pad.shape), case.arrays[name])
        for name, pad in pads.items()})
    np.testing.assert_array_equal(run(row.apply, noisy, ())[0], out)
    for b, lengths in enumerate(columns(case)):
        # each padded axis cut to the row's length, keeping one position
        alone = edit(case._replace(lengths=case.lengths[b:b + 1]), **{
            name: case.arrays[name][(slice(b, b + 1), *(
                slice(max(1, lengths[column])) for column in axes))]
            for name, axes in row.padded.items()}, **{
            name: case.arrays[name][b:b + 1] for name in row.batched})
        single, _ = run(row.apply, alone, ())
        if out.ndim == 3:   # a per-position output: padding reads 0
            n = lengths[0]
            assert not np.any(out[b, n:])
            close(out[b, :n], single[0], row.tol)
        else:
            close(out[b], single[0], row.tol)


@BATCHED
@drawn
def test_permuting_rows_permutes_outputs_and_gradients(row, data):
    case = data.draw(row.cases)
    perm = np.array(data.draw(st.permutations(range(len(case.lengths)))))
    rows = (*row.padded, *row.batched)
    out, grads = run(row.apply, case, case.arrays)
    moved = edit(case._replace(lengths=case.lengths[perm],
                               upstream=case.upstream[perm]),
                 **{name: case.arrays[name][perm] for name in rows})
    moved_out, moved_grads = run(row.apply, moved, case.arrays)
    close(moved_out, out[perm], row.tol)
    for name, grad in grads.items():
        close(moved_grads[name], grad[perm] if name in rows else grad,
              row.tol)


def test_the_table_holds_every_op_a_training_step_builds():
    built = set()
    for variant in ("fine", "coarse"):
        _, nodes = nodes_built(None, lambda: step_graph(variant)[0].backward())
        built |= {node._op for node, _ in nodes}
    assert built == {row.op for row in ROWS}
