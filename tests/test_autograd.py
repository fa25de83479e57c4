"""Tensor core: forward values, backward rules, and the gradient oracle.

Every differentiable primitive is fuzzed against central finite
differences, which stay the independent reference throughout the suite.
"""

import contextlib
import gc
import inspect
import weakref

import numpy as np
import pytest
from oracles import adam_step, log, sum_along

from faet import autograd as ag
from faet.autograd import ShapeError, Value
from faet.optim import BLOCK, Adam


def central_diff(f, x, i, h=1e-6):
    """Scalar central difference of f at coordinate i of flat array x."""
    flat = x.reshape(-1)
    orig = flat[i]
    flat[i] = orig + h
    fp = f()
    flat[i] = orig - h
    fm = f()
    flat[i] = orig
    return (fp - fm) / (2.0 * h)


class TestForwardValues:
    def test_softmax_equal_logits(self):
        out = ag.softmax(Value([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_tanh_at_zero(self):
        assert float(ag.tanh(Value(0.0)).data) == 0.0

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 5))
        out = ag.matmul(Value(np.eye(3)), Value(a))
        np.testing.assert_array_equal(out.data, a)

    def test_log_clamped_at_floor(self):
        out = log(Value([0.0, 1.0]))
        np.testing.assert_allclose(out.data[0], np.log(1e-12))
        assert out.data[1] == 0.0

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-3, 3, size=(50, 7))
        p = ag.softmax(Value(z), axis=1).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p >= 0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(-3, 3, size=(4, 6))
        base = ag.softmax(Value(z), axis=1).data
        shifted = ag.softmax(Value(z + 17.3), axis=1).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_max_records_first_tie(self):
        x = ag.param([1.0, 3.0, 3.0, 0.0])
        out = ag.max_along(x, axis=0)
        out.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])

    def test_dropout_seeded_mask(self):
        x = Value(np.ones(1000))
        out1 = ag.dropout(x, 0.2, np.random.default_rng(7))
        out2 = ag.dropout(x, 0.2, np.random.default_rng(7))
        np.testing.assert_array_equal(out1.data, out2.data)
        kept = out1.data != 0.0
        np.testing.assert_allclose(out1.data[kept], 1.0 / 0.8)
        assert 0.7 < kept.mean() < 0.9

    def test_dropout_rate_zero_is_identity(self):
        x = Value(np.arange(4.0))
        assert ag.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_without_generator_is_identity(self):
        x = Value(np.arange(4.0))
        assert ag.dropout(x, 0.5, None) is x

    @pytest.mark.parametrize("rng", [None, np.random.default_rng(0)])
    def test_dropout_rate_outside_unit_interval_raises(self, rng):
        with pytest.raises(ValueError, match="rate 1.5"):
            ag.dropout(Value(np.arange(4.0)), 1.5, rng)


class TestShapeErrors:
    def test_matmul_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4,\)"):
            ag.matmul(Value(np.zeros((2, 3))), Value(np.zeros(4)))

    def test_add_mismatch(self):
        with pytest.raises(ShapeError, match="add"):
            ag.add(Value(np.zeros(3)), Value(np.zeros(4)))

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError, match="concat"):
            ag.concat([Value(np.zeros((2, 3))), Value(np.zeros((2, 4)))], axis=0)

    def test_softmax_empty_axis(self):
        with pytest.raises(ShapeError, match="empty"):
            ag.softmax(Value(np.zeros((3, 0))), axis=1)

    def test_nonscalar_loss(self):
        x = ag.param(np.zeros(3))
        with pytest.raises(ShapeError, match="scalar"):
            ag.mul(x, 2.0).backward()


class TestOperands:
    """Ops take `Value` operands; only `mul` also takes a number."""

    # every op, called with the operand `a` where a `Value` is due
    OPS = {
        "add": lambda x, a: ag.add(x, a),
        "mul": lambda x, a: ag.mul(a, x),
        "matmul": lambda x, a: ag.matmul(x, a),
        "concat": lambda x, a: ag.concat([x, a]),
        "tanh": lambda x, a: ag.tanh(a),
        "softmax": lambda x, a: ag.softmax(a),
        "max_along": lambda x, a: ag.max_along(a, 0),
        "dropout": lambda x, a: ag.dropout(a, 0.5, np.random.default_rng(0)),
        "take_rows": lambda x, a: ag.take_rows(a, [0]),
        "narrow": lambda x, a: ag.narrow(a, 0, 0, 1),
        "transpose": lambda x, a: ag.transpose(a),
        "reshape": lambda x, a: ag.reshape(a, (3, 1)),
    }

    def test_the_table_holds_every_op(self):
        ops = {name for name, fn in vars(ag).items()
               if inspect.isfunction(fn) and fn.__module__ == ag.__name__
               and not name.startswith("_")
               and fn.__annotations__.get("return") == "Value"}
        assert ops - {"param", "constant", "make_node"} == set(self.OPS)

    @pytest.mark.parametrize("graph", [True, False])
    @pytest.mark.parametrize("operand", [1.0, 2, np.ones(3), [1.0, 2.0, 3.0]],
                             ids=["float", "int", "ndarray", "list"])
    @pytest.mark.parametrize("name", list(OPS))
    def test_a_non_value_operand_is_a_type_error_naming_the_op(
            self, name, operand, graph):
        x = ag.param(np.ones(3))
        message = f"{name}: a {type(operand).__name__} is not a Value"
        with contextlib.nullcontext() if graph else ag.no_grad():
            with pytest.raises(TypeError, match=f"^{message}$"):
                self.OPS[name](x, operand)

    @pytest.mark.parametrize("graph", [True, False])
    @pytest.mark.parametrize("operand", [np.ones(3), [1.0, 2.0, 3.0]],
                             ids=["ndarray", "list"])
    def test_mul_takes_no_array_as_its_scale(self, operand, graph):
        # an ndarray's `.data` is a memoryview, so only the check stops it
        x = ag.param(np.ones(3))
        message = f"mul: a {type(operand).__name__} is not a Value"
        with contextlib.nullcontext() if graph else ag.no_grad():
            with pytest.raises(TypeError, match=f"^{message}$"):
                ag.mul(x, operand)

    @pytest.mark.parametrize("scale", [2, 2.0])
    def test_mul_takes_a_number_as_a_constant_scale(self, scale):
        x = ag.param([1.0, -3.0])
        out = ag.mul(x, scale)
        assert [v.requires_grad for v in out._prev] == [True, False]
        sum_along(out).backward()
        np.testing.assert_array_equal(out.data, [2.0, -6.0])
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])


class TestBackwardAnalytic:
    def test_square_at_three(self):
        x = ag.param(3.0)
        ag.mul(x, x).backward()
        np.testing.assert_allclose(x.grad, 6.0)

    def test_cross_entropy_softmax_grad_is_p_minus_y(self):
        # d(-log softmax(z)[y])/dz == p - onehot(y), checked both ways
        rng = np.random.default_rng(3)
        z = ag.param(rng.uniform(-2, 2, size=4))
        y = 2
        p = ag.softmax(z)
        loss = ag.mul(log(ag.take_rows(ag.reshape(p, (4, 1)), [y])), -1.0)
        sum_along(loss).backward()
        expected = p.data - np.eye(4)[y]
        np.testing.assert_allclose(z.grad, expected, atol=1e-12)

        def f():
            pp = ag.softmax(z)
            return -float(np.log(pp.data[y]))
        for i in range(4):
            num = central_diff(f, z.data, i)
            np.testing.assert_allclose(z.grad[i], num, atol=1e-6)

    def test_unused_leaf_gets_exact_zero(self):
        x = ag.param([1.0, 2.0])
        unused = ag.param([5.0])
        sum_along(ag.mul(x, x)).backward()
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_backward_twice_accumulates_on_leaves(self):
        x = ag.param(3.0)
        loss = ag.mul(x, x)
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(x.grad, 12.0)

    def test_shared_subexpression_accumulates(self):
        x = ag.param(2.0)
        y = ag.mul(x, x)  # used twice below
        ag.add(y, y).backward()
        np.testing.assert_allclose(x.grad, 8.0)

    def test_replay_is_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(11)
            a = ag.param(rng.normal(size=(4, 3)))
            b = ag.param(rng.normal(size=(3, 2)))
            h = ag.tanh(ag.matmul(a, b))
            loss = sum_along(ag.mul(ag.softmax(h, axis=1), h))
            loss.backward()
            return float(loss.data), a.grad.copy(), b.grad.copy()
        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(ga1, ga2)
        np.testing.assert_array_equal(gb1, gb2)

    def test_no_grad_builds_no_graph(self):
        x = ag.param([1.0, 2.0])
        with ag.no_grad():
            out = sum_along(ag.mul(x, x))
        assert not out.requires_grad
        assert out._prev == ()


class TestLazyGradients:
    """Intermediate gradients are borrowed by reference and copied only
    when a scatter rule (narrow, take_rows) adds into part of them."""

    @pytest.mark.parametrize("consumer_first", [True, False])
    @pytest.mark.parametrize("consumer", ["narrow", "take_rows", "dense"])
    def test_shared_borrowed_gradient_is_never_written(self, consumer,
                                                       consumer_first):
        # add(y, w) hands y and w one and the same gradient array; y's other
        # consumer adds into y's gradient, and w's rule runs after both
        weights = np.arange(1.0, 7.0)
        others = {
            "narrow": lambda y: ag.tanh(ag.narrow(y, 0, 1, 3)),
            "take_rows": lambda y: ag.tanh(ag.take_rows(y, [4, 0, 4])),
            "dense": ag.tanh,
        }

        def forward(a, b):
            y, w = ag.tanh(a), ag.tanh(b)
            last = sum_along(ag.mul(w, ag.constant(weights)))
            shared = sum_along(ag.tanh(ag.add(y, w)))
            other = sum_along(others[consumer](y))
            pair = (other, shared) if consumer_first else (shared, other)
            return ag.add(last, ag.add(*pair))
        _fd_fuzz(lambda r: (r.uniform(-2, 2, 6), r.uniform(-2, 2, 6)),
                 forward, 15, seed=130)

    def test_add_of_an_intermediate_to_itself(self):
        x = ag.param([0.5, -1.0, 2.0])
        y = ag.tanh(x)
        sum_along(ag.mul(ag.add(y, y), ag.constant([1.0, 2.0, 3.0]))
                  ).backward()
        np.testing.assert_allclose(
            x.grad, 2.0 * np.array([1.0, 2.0, 3.0]) * (1.0 - y.data ** 2),
            rtol=1e-15)

    def test_separate_graphs_accumulate_on_shared_leaves(self):
        x = ag.param([0.5, -1.0, 2.0])
        sum_along(ag.mul(ag.tanh(x), ag.constant([1.0, 2.0, 3.0]))
                  ).backward()
        sum_along(ag.narrow(ag.transpose(ag.reshape(x, (1, 3))), 0, 1, 2)
                  ).backward()
        expected = np.array([1.0, 2.0, 3.0]) * (1.0 - np.tanh(x.data) ** 2)
        expected[1:] += 1.0
        np.testing.assert_allclose(x.grad, expected, rtol=1e-15)

    def test_second_backward_resets_intermediates(self):
        x = ag.param([0.5, -1.0])
        y = ag.tanh(x)
        sum_along(ag.tanh(y)).backward()
        sum_along(ag.mul(y, ag.constant([3.0, 4.0]))).backward()
        np.testing.assert_array_equal(y.grad, [3.0, 4.0])

    def test_zero_grad_of_an_intermediate_never_writes_through(self):
        x = ag.param([0.5, -1.0])
        y = ag.tanh(x)
        z = ag.add(y, ag.constant(1.0))
        sum_along(ag.mul(z, ag.constant([2.0, 3.0]))).backward()
        assert y.grad is z.grad  # borrowed by reference
        y.zero_grad()
        assert y.grad is None
        np.testing.assert_array_equal(z.grad, [2.0, 3.0])

    def test_views_share_memory_with_their_input(self):
        x = ag.param(np.arange(24.0).reshape(2, 3, 4))
        assert np.shares_memory(ag.narrow(x, 2, 1, 2).data, x.data)
        assert np.shares_memory(ag.transpose(x).data, x.data)

    def test_unreached_intermediate_keeps_none_and_its_rule_is_skipped(self):
        x = ag.param([0.5, -1.0])
        y = ag.tanh(x)
        stop = ag.make_node(y.data.copy(), (y,), "stop")
        stop._backward = lambda: None  # passes no gradient on to y
        sum_along(ag.add(stop, x)).backward()
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])


class TestLeafGradientsOnDemand:
    """Leaves allocate no gradient until backward reaches them, then follow
    the intermediates' borrow-or-own rule."""

    def test_leaves_start_without_a_buffer_and_zero_grad_drops_it(self):
        x = ag.param([1.0, 2.0])
        assert x._grad is None
        loss = sum_along(ag.mul(x, ag.constant([3.0, 4.0])))
        loss.backward()
        loss.backward()  # the second gradient gives x a buffer of its own
        np.testing.assert_array_equal(x.grad, [6.0, 8.0])
        x.zero_grad()
        assert x._grad is None
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_two_leaves_borrowing_one_gradient_accumulate_separately(self):
        # add hands x and y one and the same gradient array
        x = ag.param([1.0, 2.0])
        y = ag.param([3.0, 4.0])
        c = np.array([2.0, 5.0])
        loss = sum_along(ag.mul(ag.add(x, y), ag.constant(c)))
        loss.backward()
        assert x._grad is y._grad
        first = x.grad
        for calls in (2, 3):
            loss.backward()
            np.testing.assert_array_equal(x.grad, calls * c)
            np.testing.assert_array_equal(y.grad, calls * c)
            np.testing.assert_array_equal(first, c)


# every op in the module, applied to a (2, 3) param
EVERY_OP = {
    "add": lambda x: ag.add(x, ag.constant(1.0)),
    "mul": lambda x: ag.mul(x, x),
    "matmul": lambda x: ag.matmul(x, ag.constant(np.ones((3, 2)))),
    "concat": lambda x: ag.concat([x, x], axis=1),
    "tanh": ag.tanh,
    "softmax": ag.softmax,
    "max_along": lambda x: ag.max_along(x, 1),
    "dropout": lambda x: ag.dropout(x, 0.5, np.random.default_rng(0)),
    "take_rows": lambda x: ag.take_rows(x, [1, 0, 1]),
    "narrow": lambda x: ag.narrow(x, 1, 1, 2),
    "transpose": ag.transpose,
    "reshape": lambda x: ag.reshape(x, (3, 2)),
}


@pytest.mark.parametrize("op", list(EVERY_OP))
def test_graph_freed_without_cyclic_gc(op):
    # a rule that held its node strongly would keep the graph alive until
    # a cyclic collection
    x = ag.param(np.arange(1.0, 7.0).reshape(2, 3))
    gc.disable()
    try:
        loss = sum_along(EVERY_OP[op](x))
        loss.backward()
        nodes = [weakref.ref(v) for v in ag.topo_order(loss) if v._prev]
        assert len(nodes) == 2
        del loss
        assert [r() for r in nodes if r() is not None] == []
    finally:
        gc.enable()
    assert x.grad.any()


def _fd_fuzz(make_inputs, forward, n_trials, seed, tol=1e-4, h=1e-6):
    """Fuzz one primitive: analytic grad vs central differences."""
    rng = np.random.default_rng(seed)
    for _ in range(n_trials):
        arrays = make_inputs(rng)
        params = [ag.param(a) for a in arrays]
        loss = forward(*params)
        loss.backward()
        for p in params:
            flat = p.data.reshape(-1)
            for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                def f(p=p):
                    with ag.no_grad():
                        fresh = forward(*params)
                    return float(fresh.data)
                num = central_diff(f, p.data, i, h=h)
                ana = p.grad.reshape(-1)[i]
                err = abs(ana - num) / max(1.0, abs(ana), abs(num))
                assert err < tol, f"rel err {err:.2e} at coord {i}"


class TestPrimitiveGradientFuzz:
    """Each primitive vs the finite-difference oracle, inputs in [-3, 3].

    Trial counts sum past 1000 fuzzed inputs across the primitive set.
    """

    def test_add(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (3, 4)), r.uniform(-3, 3, (3, 4))),
                 lambda a, b: sum_along(ag.tanh(ag.add(a, b))), 90, seed=100)

    def test_add_broadcast(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (3, 4)), r.uniform(-3, 3, (4,))),
                 lambda a, b: sum_along(ag.tanh(ag.add(a, b))), 80, seed=101)

    def test_mul(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (2, 5)), r.uniform(-3, 3, (2, 5))),
                 lambda a, b: sum_along(ag.tanh(ag.mul(a, b))), 90, seed=102)

    def test_mul_broadcast_column(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (4, 1)), r.uniform(-3, 3, (4, 3))),
                 lambda a, b: sum_along(ag.tanh(ag.mul(a, b))), 80, seed=103)

    def test_matmul_2d_2d(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (3, 4)), r.uniform(-3, 3, (4, 2))),
                 lambda a, b: sum_along(ag.tanh(ag.matmul(a, b))), 80, seed=104)

    def test_matmul_1d_2d(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (4,)), r.uniform(-3, 3, (4, 3))),
                 lambda a, b: sum_along(ag.tanh(ag.matmul(a, b))), 80, seed=105)

    def test_matmul_2d_1d(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (3, 4)), r.uniform(-3, 3, (4,))),
                 lambda a, b: sum_along(ag.tanh(ag.matmul(a, b))), 80, seed=106)

    def test_matmul_stacked_3d_3d(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (2, 3, 4)),
                            r.uniform(-3, 3, (2, 4, 2))),
                 lambda a, b: sum_along(ag.tanh(ag.matmul(a, b))), 40,
                 seed=121)

    def test_matmul_stacked_3d_2d(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (2, 3, 4)),
                            r.uniform(-3, 3, (4, 2))),
                 lambda a, b: sum_along(ag.tanh(ag.matmul(a, b))), 40,
                 seed=122)

    def test_matmul_stacked_3d_1d(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (2, 3, 4)),
                            r.uniform(-3, 3, (4,))),
                 lambda a, b: sum_along(ag.tanh(ag.matmul(a, b))), 40,
                 seed=123)

    def test_transpose_stacked(self):
        weights = np.arange(24.0).reshape(2, 4, 3) / 10.0
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (2, 3, 4)),),
                 lambda x: sum_along(ag.mul(ag.tanh(ag.transpose(x)),
                                            ag.constant(weights))),
                 40, seed=124)

    def test_concat(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (2, 3)), r.uniform(-3, 3, (4, 3))),
                 lambda a, b: sum_along(ag.tanh(ag.concat([a, b], axis=0))),
                 80, seed=107)

    def test_tanh(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (7,)),),
                 lambda a: sum_along(ag.tanh(a)), 80, seed=109)

    def test_log_positive_domain(self):
        _fd_fuzz(lambda r: (r.uniform(0.05, 3, (6,)),),
                 lambda a: sum_along(log(a)), 80, seed=111)

    def test_softmax(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (3, 5)),),
                 lambda a: sum_along(ag.mul(ag.softmax(a, axis=1),
                                            ag.constant(np.arange(5.0)))),
                 80, seed=113)

    def test_max_along_distinct_entries(self):
        def mk(r):
            a = r.uniform(-3, 3, (4, 5))
            return (a + np.arange(20).reshape(4, 5) * 1e-3,)  # break near-ties
        _fd_fuzz(mk, lambda a: sum_along(
                     ag.mul(ag.max_along(a, axis=1),
                            ag.constant([1.0, -2.0, 0.5, 1.5]))),
                 60, seed=114)

    def test_take_rows_with_duplicates(self):
        ids = np.array([0, 2, 2, 1])
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (4, 3)),),
                 lambda t: sum_along(ag.tanh(ag.take_rows(t, ids))),
                 60, seed=117)

    def test_narrow(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (6, 3)),),
                 lambda x: sum_along(ag.tanh(ag.narrow(x, 0, 1, 3))),
                 60, seed=118)

    def test_reshape_broadcast(self):
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (4,)),),
                 lambda x: sum_along(
                     ag.tanh(ag.add(ag.reshape(x, (4, 1)),
                                    ag.constant(np.arange(12.0).reshape(4, 3)
                                                / 10.0)))),
                 60, seed=119)

    def test_dropout_fixed_mask(self):
        def fwd(x):
            return sum_along(ag.tanh(ag.dropout(x, 0.3, np.random.default_rng(5))))
        _fd_fuzz(lambda r: (r.uniform(-3, 3, (5, 2)),), fwd, 40, seed=120)


class TestFiniteDifferenceHarness:
    def test_square_relative_error_tiny(self):
        x = ag.param(3.0)
        report = ag.finite_difference_check(lambda: ag.mul(x, x), {"x": x})
        assert report["x"] < 1e-8

    def test_covers_every_group(self):
        a = ag.param(np.full((5, 5), 0.3))
        b = ag.param(np.full(3, -0.2))
        # a column view: a reshape of it is a copy, which probes would miss
        c = ag.param(np.linspace(-1.0, 1.0, 12).reshape(3, 4)[:, :2])
        assert not c.data.flags.c_contiguous
        report = ag.finite_difference_check(
            lambda: ag.add(ag.add(sum_along(ag.tanh(a)), sum_along(ag.tanh(b))),
                           sum_along(ag.mul(c, c))),
            {"a": a, "b": b, "c": c}, samples_per_group=8)
        assert set(report) == {"a", "b", "c"}
        assert all(err < 1e-6 for err in report.values())


class TestAdam:
    def test_first_step_delta_is_minus_lr(self):
        p = ag.param(np.zeros(4))
        p.grad[...] = 1.0
        opt = Adam({"p": p}, lr=5e-4)
        opt.step()
        np.testing.assert_allclose(p.data, -5e-4, rtol=1e-6)
        assert opt.step_count == 1

    def test_zero_gradient_leaves_params_unchanged(self):
        p = ag.param([1.0, -2.0, 3.0])
        opt = Adam({"p": p}, lr=0.1)
        for _ in range(5):
            opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_identical_grads_give_identical_deltas(self):
        rng = np.random.default_rng(4)
        g = rng.normal(size=3)
        a = ag.param(np.zeros(3))
        b = ag.param(np.zeros(3))
        opt = Adam({"a": a, "b": b}, lr=1e-2)
        for _ in range(7):
            a.grad[...] = g
            b.grad[...] = g
            opt.step()
        np.testing.assert_array_equal(a.data, b.data)

    def test_step_counter_strictly_increments(self):
        p = ag.param(0.0)
        p.grad[...] = 0.5
        opt = Adam({"p": p}, lr=5e-4)
        counts = []
        for _ in range(3):
            opt.step()
            counts.append(opt.step_count)
        assert counts == [1, 2, 3]

    def test_unreached_steps_match_explicit_zero_gradients(self):
        rng = np.random.default_rng(8)
        init = rng.normal(size=3)
        grads = [None if k % 3 == 1 else rng.normal(size=3) for k in range(7)]
        reached = ag.param(init.copy())
        fed = ag.param(init.copy())
        optimizers = Adam({"p": reached}, lr=1e-2), Adam({"p": fed}, lr=1e-2)
        for g in grads:
            for opt in optimizers:
                opt.zero_grad()
            if g is not None:
                sum_along(ag.mul(reached, ag.constant(g))).backward()
            fed.grad[...] = 0.0 if g is None else g
            for opt in optimizers:
                opt.step()
        np.testing.assert_array_equal(reached.data, fed.data)

    def test_blocked_step_is_bitwise_the_whole_array_update(self):
        rng = np.random.default_rng(9)
        init = {"long": rng.normal(size=3 * BLOCK + 7),    # 4 blocks
                "scalar": np.array(0.7),
                "unreached": rng.normal(size=(5, 3)),
                "transposed": rng.normal(size=(4, 6)).T}   # not C-contiguous
        params = {k: ag.param(a.copy(order="K")) for k, a in init.items()}
        assert not params["transposed"].data.flags.c_contiguous
        opt = Adam(params, lr=3e-3)
        ref = {k: (a.copy(), np.zeros_like(a), np.zeros_like(a))
               for k, a in init.items()}
        for t in range(1, 6):
            opt.zero_grad()
            for name, p in params.items():
                g = np.zeros(p.shape)
                if name != "unreached":
                    g = rng.normal(scale=10.0 ** -t, size=p.shape)
                    p.grad[...] = g
                adam_step(*ref[name], g, t, lr=3e-3)
            opt.step()
        for name, p in params.items():
            param, m, v = ref[name]
            np.testing.assert_array_equal(p.data, param, err_msg=name)
            np.testing.assert_array_equal(opt.m[name], m, err_msg=name)
            np.testing.assert_array_equal(opt.v[name], v, err_msg=name)
            moved = not np.array_equal(p.data, init[name])
            assert moved == (name != "unreached")

    def test_zero_grad_resets(self):
        p = ag.param([1.0])
        p.grad[...] = 9.0
        Adam({"p": p}, lr=5e-4).zero_grad()
        np.testing.assert_array_equal(p.grad, [0.0])
