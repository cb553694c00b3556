"""Autodiff ops against central finite differences, Adam, checkpoints."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smartpaste import nn
from smartpaste.oracle import finite_diff_grad

RNG = np.random.default_rng(42)


def gradcheck(build, arrays, tol=1e-7):
    """Compare analytic gradients of a scalar-valued graph builder against
    central differences over the given parameter arrays."""
    params = [nn.parameter(a.copy()) for a in arrays]
    out = build(params)
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None
                else np.zeros_like(p.data) for p in params]

    holders = [p.data for p in params]

    def f():
        fresh = [nn.parameter(h) for h in holders]
        return build(fresh).item()

    numeric = finite_diff_grad(f, holders)
    for a, n in zip(analytic, numeric):
        assert np.allclose(a, n, rtol=tol, atol=tol), (a, n)


class TestOpGradients:
    def test_add_sub_mul_scale(self):
        a, b = RNG.normal(size=5), RNG.normal(size=5)
        gradcheck(lambda p: nn.dot(nn.add(p[0], p[1]), p[0]), [a, b])
        gradcheck(lambda p: nn.dot(nn.sub(p[0], p[1]), p[1]), [a, b])
        gradcheck(lambda p: nn.dot(nn.mul(p[0], p[1]),
                                   nn.scale(p[0], 0.3)), [a, b])

    def test_matvec_dot_concat(self):
        w, x, y = RNG.normal(size=(4, 5)), RNG.normal(size=5), \
            RNG.normal(size=4)
        gradcheck(lambda p: nn.dot(nn.matmul(p[0], p[1]), p[2]), [w, x, y])
        gradcheck(lambda p: nn.dot(nn.concat([p[1], p[2]]),
                                   nn.concat([p[2], p[1]])), [w, x, y])

    def test_nonlinearities(self):
        x = RNG.normal(size=6)
        gradcheck(lambda p: nn.dot(nn.sigmoid(p[0]), nn.tanh(p[0])), [x])

    def test_mean_and_pack(self):
        a, b = RNG.normal(size=3), RNG.normal(size=3)
        gradcheck(lambda p: nn.dot(nn.mean_of([p[0], p[1], p[0]]), p[1]),
                  [a, b])
        gradcheck(lambda p: nn.dot(
            nn.pack([nn.dot(p[0], p[1]), nn.dot(p[0], p[0])]),
            nn.constant(np.array([0.7, -0.2]))), [a, b])

    def test_elementwise_max_routes_to_argmax(self):
        a = np.array([1.0, -2.0, 5.0])
        b = np.array([0.0, 3.0, 5.5])
        gradcheck(lambda p: nn.dot(nn.elementwise_max([p[0], p[1]]),
                                   nn.constant(np.ones(3))), [a, b])

    def test_elementwise_max_tie_goes_to_first(self):
        a = nn.parameter(np.array([2.0, 2.0]))
        b = nn.parameter(np.array([2.0, 1.0]))
        out = nn.dot(nn.elementwise_max([a, b]), nn.constant(np.ones(2)))
        out.backward()
        assert a.grad.tolist() == [1.0, 1.0]
        assert b.grad.tolist() == [0.0, 0.0]

    def test_softmax_xent_gradient(self):
        s = RNG.normal(size=4)

        def build(p):
            loss, _ = nn.softmax_xent(p[0], 2)
            return loss

        gradcheck(build, [s])

    def test_gru_step_gradient(self):
        rng = np.random.default_rng(0)
        cell = nn.GruCellParams(rng, 3, 3, "g")
        h, x = RNG.normal(size=3), RNG.normal(size=3)
        arrays = [h, x] + [t.data.copy() for t in cell.tensors()]

        def build(p):
            c = nn.GruCellParams.__new__(nn.GruCellParams)
            (c.wz, c.uz, c.bz, c.wr, c.ur, c.br, c.wh, c.uh, c.bh) = p[2:]
            return nn.dot(nn.gru_step(p[0], p[1], c),
                          nn.constant(np.ones(3)))

        gradcheck(build, arrays)


class TestBatchedOps:
    """The column-batch ops the encoders use, (H, B) with one example per
    column, against central differences and against per-column calls."""

    def test_matmul_batch_gradient(self):
        w, x, y = RNG.normal(size=(4, 3)), RNG.normal(size=(3, 5)), \
            RNG.normal(size=(4, 5))
        gradcheck(lambda p: _total(nn.mul(nn.matmul(p[0], p[1]), p[2])),
                  [w, x, y])

    def test_add_bias_broadcasts(self):
        x, b = RNG.normal(size=(3, 4)), RNG.normal(size=3)
        weights = RNG.normal(size=(3, 4))
        gradcheck(lambda p: _total(nn.mul(nn.add_bias(p[0], p[1]),
                                          nn.constant(weights))), [x, b])
        got = nn.add_bias(nn.constant(x), nn.constant(b)).data
        assert np.array_equal(got, x + b[:, None])

    def test_dot_against_columns(self):
        a, m = RNG.normal(size=4), RNG.normal(size=(4, 3))
        gradcheck(lambda p: nn.dot(nn.dot(p[0], p[1]),
                                   nn.constant(np.array([0.3, -1.0, 2.0]))),
                  [a, m])

    def test_columns_gradient(self):
        a, b = RNG.normal(size=3), RNG.normal(size=(3, 2))
        weights = RNG.normal(size=(3, 4))
        gradcheck(lambda p: _total(nn.mul(nn.columns([p[0], p[1], p[0]]),
                                          nn.constant(weights))), [a, b])
        with pytest.raises(nn.ShapeError):
            nn.columns([nn.constant(np.zeros(3)), nn.constant(np.zeros(2))])

    def test_gather_repeated_indices_accumulate(self):
        x = RNG.normal(size=(3, 4))
        weights = RNG.normal(size=(3, 5))
        index = [2, 0, 2, 2, 1]
        gradcheck(lambda p: _total(nn.mul(nn.gather(p[0], index),
                                          nn.constant(weights))), [x])
        src = nn.parameter(x.copy())
        _total(nn.gather(src, index)).backward()
        assert src.grad[:, 2].tolist() == [3.0, 3.0, 3.0]
        assert src.grad[:, 3].tolist() == [0.0, 0.0, 0.0]
        column = nn.gather(nn.constant(x), 1)
        assert column.shape == (3,) and np.array_equal(column.data, x[:, 1])

    def test_segment_max_gradient(self):
        x = RNG.normal(size=(3, 6))
        weights = RNG.normal(size=(3, 3))
        gradcheck(lambda p: _total(nn.mul(nn.segment_max(p[0], [0, 2, 3]),
                                          nn.constant(weights))), [x])
        got = nn.segment_max(nn.constant(x), [0, 2, 3]).data
        want = np.stack([x[:, 0:2].max(axis=1), x[:, 2],
                         x[:, 3:].max(axis=1)], axis=1)
        assert np.array_equal(got, want)

    def test_segment_max_tie_goes_to_first(self):
        x = nn.parameter(np.array([[2.0, 2.0, 1.0, 5.0],
                                   [1.0, 3.0, 3.0, 5.0]]))
        _total(nn.segment_max(x, [0, 3])).backward()
        assert x.grad.tolist() == [[1.0, 0.0, 0.0, 1.0],
                                   [0.0, 1.0, 0.0, 1.0]]

    def test_segment_max_matches_elementwise_max(self):
        parts = [RNG.normal(size=4) for _ in range(3)]
        parts[2] = parts[0].copy()  # a tie with the first part
        vecs = [nn.parameter(p.copy()) for p in parts]
        nn.dot(nn.elementwise_max(vecs), nn.constant(np.ones(4))).backward()
        batch = nn.parameter(np.stack(parts, axis=1))
        _total(nn.segment_max(batch, [0])).backward()
        for j, v in enumerate(vecs):
            assert np.array_equal(batch.grad[:, j], v.grad)

    def test_segment_max_rejects_empty_segments(self):
        x = nn.constant(np.zeros((2, 3)))
        for starts in ([0, 0, 2], [1], [0, 3], []):
            with pytest.raises((nn.ShapeError, nn.EmptyInput)):
                nn.segment_max(x, starts)

    def test_gru_step_batch_matches_columns(self):
        rng = np.random.default_rng(1)
        cell = nn.GruCellParams(rng, 3, 3, "g")
        h, x = RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))
        batch = nn.gru_step(nn.constant(h), nn.constant(x), cell).data
        for j in range(4):
            one = nn.gru_step(nn.constant(h[:, j]), nn.constant(x[:, j]),
                              cell).data
            assert np.abs(batch[:, j] - one).max() <= 1e-15

    def test_gru_step_batch_gradient(self):
        rng = np.random.default_rng(0)
        cell = nn.GruCellParams(rng, 3, 3, "g")
        h, x = RNG.normal(size=(3, 2)), RNG.normal(size=(3, 2))
        arrays = [h, x] + [t.data.copy() for t in cell.tensors()]
        weights = RNG.normal(size=(3, 2))

        def build(p):
            c = nn.GruCellParams.__new__(nn.GruCellParams)
            (c.wz, c.uz, c.bz, c.wr, c.ur, c.br, c.wh, c.uh, c.bh) = p[2:]
            return _total(nn.mul(nn.gru_step(p[0], p[1], c),
                                 nn.constant(weights)))

        gradcheck(build, arrays)


def _total(x):
    """Sum of every entry of a (H, B) tensor, as a scalar tensor."""
    rows = nn.dot(nn.constant(np.ones(x.shape[0])), x)
    return nn.dot(rows, nn.constant(np.ones(rows.shape[0])))


class TestOpSemantics:
    def test_softmax_probs_sum_to_one(self):
        p = nn.softmax_probs(RNG.normal(size=9) * 50)
        assert abs(p.sum() - 1.0) < 1e-9

    def test_softmax_shift_invariance(self):
        s = RNG.normal(size=5)
        assert np.allclose(nn.softmax_probs(s), nn.softmax_probs(s + 123.0))

    def test_softmax_xent_value(self):
        scores = nn.constant(np.array([1.0, 2.0, 3.0]))
        loss, probs = nn.softmax_xent(scores, 1)
        expect = -math.log(math.exp(2) / sum(math.exp(k) for k in (1, 2, 3)))
        assert abs(loss.item() - expect) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_softmax_xent_bad_index(self):
        with pytest.raises(IndexError):
            nn.softmax_xent(nn.constant(np.zeros(3)), 3)

    def test_zero_gru_params_halve_state(self):
        rng = np.random.default_rng(0)
        cell = nn.GruCellParams(rng, 4, 4, "g")
        for t in cell.tensors():
            t.data[...] = 0.0
        h = nn.constant(np.array([2.0, -4.0, 6.0, 0.0]))
        out = nn.gru_step(h, nn.constant(np.zeros(4)), cell)
        assert np.allclose(out.data, h.data * 0.5)

    def test_shape_errors(self):
        with pytest.raises(nn.ShapeError):
            nn.add(nn.constant(np.zeros(2)), nn.constant(np.zeros(3)))
        with pytest.raises(nn.ShapeError):
            nn.matmul(nn.constant(np.zeros((2, 3))), nn.constant(np.zeros(2)))
        with pytest.raises(nn.ShapeError):
            nn.constant(np.zeros(3)).backward()  # non-scalar output

    def test_empty_inputs(self):
        for op in (nn.concat, nn.mean_of, nn.elementwise_max, nn.pack):
            with pytest.raises(nn.EmptyInput):
                op([])

    def test_backward_visits_shared_nodes_once(self):
        x = nn.parameter(np.array([3.0]))
        y = nn.mul(x, x)           # x^2
        z = nn.dot(y, nn.constant(np.ones(1)))
        z.backward()
        assert x.grad.tolist() == [6.0]

    def test_glorot_bounds(self):
        rng = np.random.default_rng(5)
        t = nn.glorot(rng, (10, 6))
        bound = math.sqrt(6.0 / 16)
        assert np.all(np.abs(t.data) <= bound)
        assert t.requires_grad


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        p = nn.parameter(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -1.0])
        state = nn.AdamState([p])
        nn.adam_step([p], state, lr=0.1)
        g = np.array([0.5, -1.0])
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expect = np.array([1.0, 2.0]) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.data, expect, atol=1e-12)

    def test_skips_parameters_without_gradient(self):
        p = nn.parameter(np.array([7.0]))
        state = nn.AdamState([p])
        nn.adam_step([p], state)
        assert p.data.tolist() == [7.0]


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        params = {"a": nn.parameter(RNG.normal(size=(3, 2)), name="a"),
                  "b": nn.parameter(RNG.normal(size=4), name="b")}
        nn.save_checkpoint(path, params, {"note": 1})
        loaded, cfg = nn.load_checkpoint(path)
        assert cfg == {"note": 1}
        for name, t in params.items():
            assert loaded[name].data.shape == t.data.shape
            assert (loaded[name].data == t.data).all()

    def test_format_version_checked(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            json.dump({"format_version": 99, "params": {}}, f)
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)


class TestFiniteDiff:
    def test_quadratic(self):
        a = np.array([1.0, -2.0, 0.5])

        def f():
            return float((a * a).sum())

        (g,) = finite_diff_grad(f, [a])
        assert np.allclose(g, 2 * a, atol=1e-8)

    def test_coordinate_subset(self):
        a = np.zeros((2, 2))

        def f():
            return float(a.sum() ** 2 + a[0, 1])

        (g,) = finite_diff_grad(f, [a], coords=[(0, (0, 1))])
        assert abs(g[0, 1] - 1.0) < 1e-8
        assert np.isnan(g[0, 0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2,
                max_size=8),
       st.floats(min_value=-100, max_value=100))
def test_softmax_invariants(scores, shift):
    s = np.array(scores)
    p = nn.softmax_probs(s)
    assert abs(p.sum() - 1.0) < 1e-9
    assert (p >= 0).all()
    assert np.argmax(nn.softmax_probs(s + shift)) == np.argmax(p)
