"""Tensor core: op semantics a numpy forward does not pin down, backward
bookkeeping, the gradient oracle and Adam.

`tests/test_graph_ops.py` checks every op's forward, gradients and
operand checks as one table, against finite differences, which stay the
independent reference throughout the suite.
"""

import contextlib

import numpy as np
import pytest
from oracles import (
    adam_step, backward_keeping_intermediates, log, step_graph, sum_along,
)

from faet import autograd as ag
from faet.autograd import ShapeError, Value
from faet.optim import BLOCK, Adam


class TestForwardValues:
    def test_softmax_equal_logits(self):
        out = ag.softmax(Value([0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

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


@pytest.mark.parametrize("graph", [True, False])
@pytest.mark.parametrize("operand", [1.0, 2, np.ones(3), [1.0, 2.0, 3.0]],
                         ids=["float", "int", "ndarray", "list"])
def test_mul_takes_a_number_only_as_its_scale(operand, graph):
    # an ndarray's `.data` is a memoryview, so only the check stops it
    x = ag.param(np.ones(3))
    calls = [lambda: ag.mul(operand, x)]
    if not isinstance(operand, (int, float)):
        calls.append(lambda: ag.mul(x, operand))
    message = f"^mul: a {type(operand).__name__} is not a Value$"
    with contextlib.nullcontext() if graph else ag.no_grad():
        for call in calls:
            with pytest.raises(TypeError, match=message):
                call()


class TestBackwardAnalytic:
    def test_square_at_three(self):
        x = ag.param(3.0)
        ag.mul(x, x).backward()
        np.testing.assert_allclose(x.grad, 6.0)

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

    def test_backward_of_a_nonscalar_is_a_shape_error(self):
        x = ag.param(np.zeros(3))
        with pytest.raises(ShapeError, match="^backward: .*scalar"):
            ag.mul(x, 2.0).backward()

    def test_no_grad_builds_no_graph(self):
        x = ag.param([1.0, 2.0])
        with ag.no_grad():
            out = sum_along(ag.mul(x, x))
        assert not out.requires_grad
        assert out._prev == ()


class TestLazyGradients:
    """Intermediate gradients are borrowed by reference, copied only when
    a scatter rule (narrow, take_rows) adds into part of them, and dropped
    once the node's own rule has run."""

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
        rng = np.random.default_rng(130)
        for _ in range(15):
            a, b = (ag.param(rng.uniform(-2, 2, 6)) for _ in range(2))
            report = ag.finite_difference_check(
                lambda: forward(a, b), {"a": a, "b": b}, samples_per_group=3)
            assert max(report.values()) < 1e-4

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
        sum_along(ag.narrow(ag.reshape(x, (3, 1)), 0, 1, 2)).backward()
        expected = np.array([1.0, 2.0, 3.0]) * (1.0 - np.tanh(x.data) ** 2)
        expected[1:] += 1.0
        np.testing.assert_allclose(x.grad, expected, rtol=1e-15)

    def test_backward_drops_every_intermediate_and_keeps_leaves_bitwise(
            self):
        loss, params = step_graph("fine")
        loss.backward()
        ops = [v._op for v in ag.topo_order(loss) if v._prev]
        assert {"bilstm", "alignment", "dropout", "cross_entropy"} <= set(ops)
        assert all(v._grad is None for v in ag.topo_order(loss) if v._prev)
        kept_loss, kept = step_graph("fine")
        backward_keeping_intermediates(kept_loss)
        for name, p in params.items():
            assert p._grad is not None, name
            assert p.grad.tobytes() == kept[name].grad.tobytes(), name

    def test_a_second_backward_still_accumulates_on_leaves(self):
        loss, params = step_graph("fine")
        loss.backward()
        once = {name: p.grad.copy() for name, p in params.items()}
        loss.backward()
        kept_loss, kept = step_graph("fine")
        for _ in range(2):
            backward_keeping_intermediates(kept_loss)
        for name, p in params.items():
            assert p.grad.tobytes() == kept[name].grad.tobytes(), name
            np.testing.assert_allclose(p.grad, 2.0 * once[name], rtol=1e-12,
                                       err_msg=name)

    def test_zero_grad_of_a_shared_gradient_never_writes_through(self):
        # `add` hands both operands its gradient by reference; y2's rule
        # runs first, and zeroing y2 from inside it leaves y1's intact
        a, b = ag.param([0.5, -1.0]), ag.param([2.0, 0.25])
        y1, y2 = ag.tanh(a), ag.tanh(b)
        loss = sum_along(ag.mul(ag.add(y1, y2), ag.constant([2.0, 3.0])))
        seen = []

        def spy(rule=y2._backward):
            rule()
            seen.append(y1._grad is y2._grad)
            y2.zero_grad()
            seen.append(y1._grad.tolist())
        y2._backward = spy
        loss.backward()
        assert seen == [True, [2.0, 3.0]]
        for leaf in (a, b):
            np.testing.assert_array_equal(
                leaf.grad, np.array([2.0, 3.0]) * (1.0 - np.tanh(leaf.data)
                                                   ** 2))

    def test_views_share_memory_with_their_input(self):
        x = ag.param(np.arange(24.0).reshape(2, 3, 4))
        assert np.shares_memory(ag.narrow(x, 2, 1, 2).data, x.data)

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


class TestFiniteDifferenceHarness:
    def test_square_relative_error_tiny(self):
        x = ag.param(3.0)
        report = ag.finite_difference_check(lambda: ag.mul(x, x), {"x": x},
                                            samples_per_group=8)
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
