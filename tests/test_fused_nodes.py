"""The fused graph nodes' shared contract as one table.

One row per fused op: `bilstm_encode_batch`, `textcnn_forward_batch`
under each form of its backward's state products, `alignment_loss` and
`cross_entropy`.  A row draws valid operands of random shape from a
seed, with a seeded upstream gradient for the output, and names its
references, its tolerance (that of the per-node tests it replaced) and
its documented bad shapes.  `close` allows `tol` times the reference's
largest magnitude, capped at `tol`, so it is never looser than an
absolute or a relative bound of `tol`, and it wants exact zeros where
the reference has them.  Backward runs from the upstream gradient,
through one product with the output (`loss_of`).  Each test below checks
one property of the contract for every row; the last two hold for the
batched ops only.
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
    cross_entropy_composite, cross_entropy_rows, full_width_filter,
    softmax_direct, textcnn_windows,
)

from faet import autograd as ag
from faet import classifier
from faet.autograd import ShapeError
from faet.classifier import TextCnnParams, textcnn_forward_batch
from faet.encoder import bilstm_encode_batch
from faet.objective import alignment_loss, cross_entropy


class Case(typing.NamedTuple):
    arrays: dict  # operand name -> array, in the op's operand order
    lengths: np.ndarray | None  # per-row lengths of a batched op
    upstream: np.ndarray  # d(loss)/d(output)
    widths: tuple = ()  # the TextCNN filter widths
    n_filters: int = 0  # and the filters per width
    labels: np.ndarray | None = None  # the cross-entropy's class labels
    smoothing: float = 0.0  # and its label smoothing


class Row(typing.NamedTuple):
    id: str
    op: str  # the fused node's op name, which its errors carry
    cases: st.SearchStrategy
    apply: typing.Callable  # (values, case) -> output Value
    refs: tuple  # (reference, forward tolerance); case -> (out, grads)
    tol: float
    bad: tuple  # (id, case -> case with one operand misshapen)
    padded: tuple = ()  # batched operands: row axis 0, position axis 1
    batched: tuple = ()  # further operands with a row axis 0
    form: typing.Callable | None = None  # TextCNN backward's form


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


def fused_nodes(op, call):
    """`call()`'s result and the (node, inputs) of each `op` it built."""
    nodes, make_node = [], ag.make_node

    def recording(data, inputs, name):
        out = make_node(data, inputs, name)
        if name == op:
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


def splat(op):  # `op` on the operands in order
    return lambda values, case: op(*values.values())


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
    return Case(arrays, lengths, rng.normal(size=(batch, 2)), widths, f)


def cnn(values, case):
    """`TextCnnParams` holding the case's filter values."""
    params = TextCnnParams(0, 0, case.n_filters, None, case.widths)
    for w in case.widths:
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
    feats = conv_pool_full_width(
        a["states"], a["summaries"], case.widths,
        {w: full_width_filter(params, w) for w in case.widths},
        {w: a[f"cnn.bias_w{w}"] for w in case.widths}, case.lengths)
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
                rng.normal(size=()), labels=rng.integers(0, 2, batch),
                smoothing=draw(st.sampled_from([0.0, 0.1, 0.35])))


def fused_cross_entropy(values, case):
    return cross_entropy(values["logits"], case.labels, case.smoothing)


def composite_cross_entropy(values, case):
    return cross_entropy_composite(ag.softmax(values["logits"], axis=1),
                                   case.labels, case.smoothing)


def cross_entropy_by_rows(case):
    """Per-row losses of the softmaxed logits, and their gradients taken
    back through the softmax's Jacobian."""
    p = np.array([softmax_direct(z) for z in case.arrays["logits"]])
    losses, d_p = cross_entropy_rows(p, case.labels, case.smoothing)
    d_z = p * (d_p - (d_p * p).sum(axis=1, keepdims=True))
    return np.sum(losses), {"logits": case.upstream * d_z}


def bad_labels(change):
    return lambda case: case._replace(labels=change(case.labels))


ROWS = [
    Row("bilstm", "bilstm", bilstm_cases(), bilstm(bilstm_encode_batch),
        ((graph(bilstm(bilstm_folded)), 1e-14),), 1e-14,
        misshapen(("seq", "fewer-axes"), ("seq", "wider"),
                  ("fwd.w_rec", "taller"), ("bwd.bias", "shorter"),
                  padded="seq"), padded=("seq",)),
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
          padded=("states",), batched=("summaries",), form=rule)
      for form, rule in [("one-gemm", lambda length, width: False),
                         ("per-shift", lambda length, width: True)]),
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
    values = values_of(case, case.arrays)
    report = ag.finite_difference_check(
        lambda: loss_of(row.apply(values, case), case.upstream), values)
    assert max(report.values()) < 1e-4


@drawn
def test_gradients_go_only_where_asked_and_no_grad_is_bitwise(row, data):
    case = data.draw(row.cases)
    trainable = data.draw(st.sets(st.sampled_from(list(case.arrays))))
    out, every = run(row.apply, case, case.arrays)
    values = values_of(case, trainable)
    some, [(node, inputs)] = fused_nodes(row.op,
                                         lambda: row.apply(values, case))
    with ag.no_grad():
        scored = fused_nodes(row.op, lambda: row.apply(
            values_of(case, case.arrays), case))
    fixed = fused_nodes(row.op, lambda: row.apply(values_of(case, ()), case))
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
    length = case.arrays[row.padded[0]].shape[1]
    pad = np.arange(length) >= case.lengths[:, None]
    assert not any(np.any(grads[name][pad]) for name in row.padded)
    # padding filled with other values changes no output bit
    rng = np.random.default_rng(0)
    noisy = edit(case, **{name: np.where(
        pad[..., None], rng.normal(size=case.arrays[name].shape),
        case.arrays[name]) for name in row.padded})
    np.testing.assert_array_equal(run(row.apply, noisy, ())[0], out)
    for b, n in enumerate(case.lengths):
        alone = edit(case._replace(lengths=case.lengths[b:b + 1]), **{
            name: case.arrays[name][b:b + 1, :n] for name in row.padded}, **{
            name: case.arrays[name][b:b + 1] for name in row.batched})
        single, _ = run(row.apply, alone, ())
        if out.ndim == 3:   # a per-position output: padding reads 0
            assert not np.any(out[b, n:])
            close(out[b, :n], single[0], row.tol)
        else:
            close(out[b], single[0], row.tol)


@BATCHED
@drawn
def test_permuting_rows_permutes_outputs_and_gradients(row, data):
    case = data.draw(row.cases)
    perm = np.array(data.draw(st.permutations(range(len(case.lengths)))))
    rows = row.padded + row.batched
    out, grads = run(row.apply, case, case.arrays)
    moved = edit(case._replace(lengths=case.lengths[perm],
                               upstream=case.upstream[perm]),
                 **{name: case.arrays[name][perm] for name in rows})
    moved_out, moved_grads = run(row.apply, moved, case.arrays)
    close(moved_out, out[perm], row.tol)
    for name, grad in grads.items():
        close(moved_grads[name], grad[perm] if name in rows else grad,
              row.tol)
