"""Tensor op and autodiff tests.

Every derived expectation here is computed by an independent oracle in
this file (loop-based reference implementations, finite differences),
never copied from the library under test.
"""

import inspect
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from _reference import (
    formula_cross_entropy,
    formula_gelu,
    formula_layer_norm,
    formula_softmax,
    mul,
    old_cross_entropy_general,
    old_embedding_backward,
    reduce_sum,
)
from inkstone import tensor as T


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def matmul_oracle(a, b):
    """Triple-loop 2D matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def fd_gradient(build_loss, param, eps=1e-5):
    """Test-local central differences, independent of T.grad_check.

    Probes in float64: float32 roundoff would swamp the quotient.
    """
    saved = param.data
    param.data = param.data.astype(np.float64)
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    try:
        with T.no_grad():
            for i in range(flat.size):
                v = flat[i]
                flat[i] = v + eps
                f1 = float(build_loss().data)
                flat[i] = v - eps
                f2 = float(build_loss().data)
                flat[i] = v
                gflat[i] = (f1 - f2) / (2 * eps)
    finally:
        param.data = saved
    return grad


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.arange(9, dtype=np.float32).reshape(3, 3))
        out = T.matmul(a, T.Tensor(np.eye(3)))
        assert np.array_equal(out.data, a.data)

    def test_small_known_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0], [6.0]])
        out = T.matmul(a, b)
        assert np.array_equal(out.data, np.array([[17.0], [39.0]], dtype=np.float32))

    def test_matches_loop_oracle(self, rng):
        a = rng.standard_normal((7, 5)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        assert np.allclose(out.data, matmul_oracle(a, b), atol=1e-6)

    def test_batched_matches_per_item(self, rng):
        a = rng.standard_normal((4, 6, 5)).astype(np.float32)
        b = rng.standard_normal((4, 5, 2)).astype(np.float32)
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        for i in range(4):
            assert np.allclose(out.data[i], matmul_oracle(a[i], b[i]), atol=1e-6)

    def test_weight_gradient_of_batched_a_and_2d_b(self, rng):
        a = T.parameter(rng.standard_normal((3, 4, 5)).astype(np.float32) * 0.5)
        b = T.parameter(rng.standard_normal((5, 6)).astype(np.float32) * 0.5)

        def build():
            return T.cross_entropy_masked(T.gather(T.reshape(T.matmul(a, b), (12, 6)),
                                                   [0, 4, 7, 11]), [1, 5, 0, 3])

        assert T.grad_check(build, [a, b], eps=1e-3) < 1e-3
        g = rng.standard_normal((3, 4, 6)).astype(np.float32)
        T.backward(reduce_sum(mul(T.matmul(a, b), T.Tensor(g))))
        # the batched product summed over the batch, as before the 2-D GEMM
        summed = np.matmul(np.swapaxes(a.data, -1, -2), g).sum(axis=0)
        assert np.allclose(b.grad, summed, rtol=1e-5, atol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((4, 2)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(a, b)

    def test_associativity(self, rng):
        for _ in range(5):
            a = rng.standard_normal((4, 5)).astype(np.float32)
            b = rng.standard_normal((5, 6)).astype(np.float32)
            c = rng.standard_normal((6, 3)).astype(np.float32)
            left = T.matmul(T.matmul(T.Tensor(a), T.Tensor(b)), T.Tensor(c)).data
            right = T.matmul(T.Tensor(a), T.matmul(T.Tensor(b), T.Tensor(c))).data
            assert np.allclose(left, right, atol=1e-4)


def backprop(out, g):
    """Run backward with g as the gradient arriving at out."""
    T.backward(reduce_sum(mul(out, T.Tensor(g, dtype=g.dtype))))


class TestLinear:
    @pytest.mark.parametrize("lead", [(5,), (2, 3)])
    def test_grad_check(self, rng, lead):
        x = T.parameter(rng.standard_normal(lead + (4,)).astype(np.float32) * 0.5)
        w = T.parameter(rng.standard_normal((4, 6)).astype(np.float32) * 0.5)
        b = T.parameter(rng.standard_normal(6).astype(np.float32) * 0.1)

        def build():
            logits = T.reshape(T.linear(x, w, b), (-1, 6))
            return T.cross_entropy_masked(T.gather(logits, [0, 1, 4]), [1, 5, 0])

        assert T.grad_check(build, [x, w, b], eps=1e-3) < 1e-3

    @pytest.mark.parametrize("transposed", [False, True])
    def test_matches_matmul_plus_bias_bit_for_bit(self, rng, transposed):
        x0 = rng.standard_normal((5, 4)).astype(np.float32)
        w0 = rng.standard_normal((6, 4) if transposed else (4, 6)).astype(np.float32)
        b0 = rng.standard_normal(6).astype(np.float32)
        g = rng.standard_normal((5, 6)).astype(np.float32)
        results = []
        for op in (T.linear, lambda x, w, b: T.add(T.matmul(x, w), b)):
            x, w, b = T.parameter(x0), T.parameter(w0), T.parameter(b0)
            # a transposed view, as the tied MLM projection passes the embedding
            weight = T.transpose(w, (1, 0)) if transposed else w
            out = op(x, weight, b)
            backprop(out, g)
            results.append((out.data, x.grad, w.grad, b.grad))
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_batched_input_forms_the_weight_gradient_as_one_gemm(self, rng):
        x0 = rng.standard_normal((2, 3, 4)).astype(np.float32)
        w0 = rng.standard_normal((4, 6)).astype(np.float32)
        b0 = rng.standard_normal(6).astype(np.float32)
        g = rng.standard_normal((2, 3, 6)).astype(np.float32)
        x, w, b = T.parameter(x0), T.parameter(w0), T.parameter(b0)
        out = T.linear(x, w, b)
        backprop(out, g)
        assert np.array_equal(out.data, np.matmul(x0, w0) + b0)
        assert np.array_equal(x.grad, np.matmul(g, w0.T))
        assert np.array_equal(w.grad, x0.reshape(-1, 4).T @ g.reshape(-1, 6))
        assert np.array_equal(b.grad, g.sum(axis=(0, 1)))
        summed = np.matmul(np.swapaxes(x0, -1, -2), g).sum(axis=0)
        assert np.allclose(w.grad, summed, rtol=1e-5, atol=1e-6)

    def test_shape_mismatch_names_all_shapes(self):
        x, w = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 4)))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 4\).*\(3,\)"):
            T.linear(x, w, T.Tensor(np.zeros(3)))
        with pytest.raises(ValueError, match="linear shape mismatch"):
            T.linear(x, T.Tensor(np.zeros((4, 4))), T.Tensor(np.zeros(4)))


# One tile, and several: 5 leading rows split into tiles of 4 and 1 rows,
# and 40,000 flat elements into a full tile and a partial one.
SHAPES = [(3, 5, 16), (5, 40, 200)]


def test_multi_tile_shape_spans_tiles():
    rows, size = SHAPES[1][0], math.prod(SHAPES[1])
    assert size > T._TILE and rows % max(1, T._TILE * rows // size) != 0


class TestInPlaceKernels:
    """Each kernel against its earlier array formula (tests/_reference.py), bit for bit."""

    shape = SHAPES[0]

    @pytest.fixture(params=[np.float32, np.float64])
    def dtype(self, request):
        return request.param

    def inputs(self, rng, dtype, scale=3.0):
        x = (rng.standard_normal(self.shape) * scale).astype(dtype)
        return x, rng.standard_normal(self.shape).astype(dtype)

    @pytest.mark.parametrize("axis", [-1, 1])
    def test_softmax(self, rng, dtype, axis):
        x0, g = self.inputs(rng, dtype)
        x = T.parameter(x0, dtype=dtype)
        out = T.softmax(x, axis=axis)
        backprop(out, g)
        want, gwant = formula_softmax(x0, g, axis)
        assert np.array_equal(out.data, want) and np.array_equal(x.grad, gwant)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 40.0])
    def test_gelu(self, rng, dtype, scale):
        x0, g = self.inputs(rng, dtype, scale=scale)
        x0.reshape(-1)[:3] = (0.0, 1e-30, -1e-30)
        x = T.parameter(x0, dtype=dtype)
        out = T.gelu(x)
        backprop(out, g)
        want, gwant = formula_gelu(x0, g)
        assert np.array_equal(out.data, want) and np.array_equal(x.grad, gwant)

    def test_gelu_backward_holds_only_its_input(self, rng, dtype):
        x0, g = self.inputs(rng, dtype)
        x = T.parameter(x0, dtype=dtype)
        out = T.gelu(x)
        held = [c.cell_contents for c in out._node._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert len(held) == 1 and np.shares_memory(held[0], x.data)
        backprop(out, g)
        # the recomputed tanh gives the gradient of the formula that stores it
        assert x.grad.tobytes() == formula_gelu(x0, g)[1].tobytes()

    def test_layer_norm(self, rng, dtype):
        x0, g = self.inputs(rng, dtype)
        gamma0 = rng.standard_normal(self.shape[-1]).astype(dtype)
        beta0 = rng.standard_normal(self.shape[-1]).astype(dtype)
        x, gamma, beta = (T.parameter(a, dtype=dtype) for a in (x0, gamma0, beta0))
        out = T.layer_norm(x, gamma, beta)
        backprop(out, g)
        want = formula_layer_norm(x0, gamma0, beta0, g)
        for got, expected in zip((out.data, x.grad, gamma.grad, beta.grad), want):
            assert np.array_equal(got, expected)


class TestTiledKernels(TestInPlaceKernels):
    """The same formulas on a shape that spans several tiles."""

    shape = SHAPES[1]


class TestFusedOps:
    """Each fused node against the chain of ops it replaces, bit for bit."""

    @pytest.fixture(params=[np.float32, np.float64])
    def dtype(self, request):
        return request.param

    @pytest.fixture(params=SHAPES, ids=["one_tile", "tiles"])
    def shape(self, request):
        return request.param

    @staticmethod
    def masks(shape):
        """A per-row key mask and a causal mask shared by every row."""
        rows, q, k = shape
        key = np.zeros((rows, 1, k), dtype=np.float32)
        key[1:, :, k // 2:] = -1e9
        causal = np.triu(np.full((q, k), -1e9, dtype=np.float32), k=1)[None]
        return [key, causal]

    def test_softmax_scale_mask_matches_the_chain(self, rng, dtype, shape):
        c = 1.0 / np.sqrt(8)
        for mask in [None] + self.masks(shape):
            x0 = rng.standard_normal(shape).astype(dtype) * 4
            g = rng.standard_normal(shape).astype(dtype)
            x, y = T.parameter(x0, dtype=dtype), T.parameter(x0, dtype=dtype)
            fused = T.softmax(x, axis=-1, scale=c, mask=mask)
            chain = T.scale(y, c)
            if mask is not None:
                chain = T.add(chain, T.Tensor(mask, dtype=dtype))
            chain = T.softmax(chain, axis=-1)
            backprop(fused, g)
            backprop(chain, g)
            assert fused.dtype == dtype
            assert np.array_equal(fused.data, chain.data)
            assert np.array_equal(x.grad, y.grad)

    def test_softmax_rejects_a_mask_that_grows_the_output(self):
        with pytest.raises(ValueError, match="broadcast"):
            T.softmax(T.Tensor(np.zeros((2, 3))), mask=np.zeros((4, 2, 3)))

    def test_layer_norm_residual_matches_the_chain(self, rng, dtype, shape):
        x0, r0, g = (rng.standard_normal(shape).astype(dtype) for _ in range(3))
        gamma0, beta0 = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
        fused_in = [T.parameter(a, dtype=dtype) for a in (x0, r0, gamma0, beta0)]
        chain_in = [T.parameter(a, dtype=dtype) for a in (x0, r0, gamma0, beta0)]
        x, r, gamma, beta = fused_in
        fused = T.layer_norm(x, gamma, beta, residual=r)
        x, r, gamma, beta = chain_in
        chain = T.layer_norm(T.add(x, r), gamma, beta)
        backprop(fused, g)
        backprop(chain, g)
        assert np.array_equal(fused.data, chain.data)
        for a, b in zip(fused_in, chain_in):
            assert np.array_equal(a.grad, b.grad)

    def test_layer_norm_residual_shape_mismatch(self):
        with pytest.raises(ValueError, match="residual"):
            T.layer_norm(T.Tensor(np.zeros((2, 4))), T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)),
                         residual=T.Tensor(np.zeros((1, 4))))

    @pytest.mark.parametrize("rate", [0.1, 0.5])
    def test_dropout_matches_mul_by_a_float_mask(self, rng, dtype, shape, rate):
        x0, g = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
        x0.reshape(-1)[:3] = (np.inf, -0.0, -1.0)
        x, y = T.parameter(x0, dtype=dtype), T.parameter(x0, dtype=dtype)
        fused = T.dropout(x, rate, np.random.default_rng(9))
        keep = (np.random.default_rng(9).random(shape) >= rate).astype(dtype)
        keep /= dtype(1.0 - rate)
        chain = mul(y, T.Tensor(keep, dtype=dtype))
        backprop(fused, g)
        backprop(chain, g)
        assert np.array_equal(fused.data, chain.data, equal_nan=True)
        assert np.array_equal(np.signbit(fused.data), np.signbit(chain.data))
        assert np.array_equal(x.grad, y.grad)

    def test_dropout_is_one_node_holding_a_bool_mask(self, rng):
        x = T.parameter(rng.standard_normal((4, 8)).astype(np.float32))
        out = T.dropout(x, 0.5, rng)
        assert out._parents == (x,)
        held = [c.cell_contents for c in out._backward.__closure__]
        masks = [a for a in held if isinstance(a, np.ndarray) and a.shape == x.shape]
        assert [m.dtype for m in masks] == [np.bool_]

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_dropout_rate_outside_the_open_interval_raises(self, rate):
        with pytest.raises(ValueError, match="dropout rate"):
            T.dropout(T.Tensor(np.ones((2, 3))), rate, np.random.default_rng(0))

    def test_dropout_advances_the_rng_as_one_uniform_draw(self, rng):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        T.dropout(T.Tensor(np.ones((3, 7, 5))), 0.2, a)
        b.random((3, 7, 5))
        assert a.bit_generator.state == b.bit_generator.state

    def test_grad_check_softmax_scale_mask(self, rng):
        x = T.parameter(rng.standard_normal((2, 3, 5)))
        w = T.Tensor(rng.standard_normal((2, 3, 5)))
        mask = self.masks((2, 3, 5))[0]

        def build():
            return reduce_sum(mul(T.softmax(x, axis=-1, scale=0.7, mask=mask), w))

        assert T.grad_check(build, [x]) < 1e-4

    def test_grad_check_layer_norm_residual(self, rng):
        x, r = (T.parameter(rng.standard_normal((2, 3, 6))) for _ in range(2))
        gamma = T.parameter(rng.standard_normal(6))
        beta = T.parameter(rng.standard_normal(6))
        w = T.Tensor(rng.standard_normal((2, 3, 6)))

        def build():
            return reduce_sum(mul(T.layer_norm(x, gamma, beta, residual=r), w))

        assert T.grad_check(build, [x, r, gamma, beta]) < 1e-4

    def test_grad_check_dropout(self, rng):
        x = T.parameter(rng.standard_normal((3, 8)))
        w = T.Tensor(rng.standard_normal((3, 8)))

        def build():
            return reduce_sum(mul(T.dropout(x, 0.3, np.random.default_rng(5)), w))

        assert T.grad_check(build, [x]) < 1e-4


class TestSoftmax:
    def test_uniform_logits(self):
        out = T.softmax(T.Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-7)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 7)).astype(np.float32)
        a = T.softmax(T.Tensor(x)).data
        b = T.softmax(T.Tensor(x + 100.0)).data
        assert np.allclose(a, b, atol=1e-7)

    def test_extreme_logits_stay_finite(self):
        x = T.Tensor([[1e4, 0.0, -1e4]])
        out = T.softmax(x).data
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert abs(out.sum() - 1.0) < 1e-6

    def test_matches_scalar_oracle(self, rng):
        x = rng.standard_normal(9).astype(np.float32)
        out = T.softmax(T.Tensor(x.reshape(1, -1))).data[0]
        exps = [math.exp(float(v)) for v in x]
        denom = sum(exps)
        expect = [e / denom for e in exps]
        assert np.allclose(out, expect, atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((5, 4, 6)).astype(np.float32) * 10
        out = T.softmax(T.Tensor(x), axis=-1).data
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_row_maps_to_beta(self):
        x = T.Tensor(np.full((2, 4), 3.5))
        gamma = T.Tensor(np.ones(4))
        beta = T.Tensor(np.full(4, 0.25))
        out = T.layer_norm(x, gamma, beta).data
        assert np.allclose(out, 0.25, atol=1e-5)

    def test_zero_gamma_gives_beta(self, rng):
        x = T.Tensor(rng.standard_normal((3, 5)).astype(np.float32))
        out = T.layer_norm(x, T.Tensor(np.zeros(5)), T.Tensor(np.full(5, -1.0))).data
        assert np.allclose(out, -1.0, atol=1e-7)

    def test_matches_direct_statistics(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float32) * 3 + 1
        gamma = rng.standard_normal(8).astype(np.float32)
        beta = rng.standard_normal(8).astype(np.float32)
        out = T.layer_norm(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), eps=1e-12).data
        for i in range(4):
            row = x[i].astype(np.float64)
            mu = row.mean()
            sd = math.sqrt(((row - mu) ** 2).mean() + 1e-12)
            expect = (row - mu) / sd * gamma + beta
            assert np.allclose(out[i], expect, atol=1e-5)

    def test_affine_shape_mismatch(self):
        with pytest.raises(ValueError, match="layer_norm"):
            T.layer_norm(T.Tensor(np.zeros((2, 4))), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))


class TestGelu:
    def test_fixed_points(self):
        out = T.gelu(T.Tensor([0.0, 10.0, -10.0])).data
        assert out[0] == 0.0
        assert abs(out[1] - 10.0) < 1e-4
        assert abs(out[2]) < 1e-4

    def test_monotone_near_origin(self):
        xs = np.linspace(-0.5, 0.5, 21, dtype=np.float32)
        out = T.gelu(T.Tensor(xs)).data
        assert np.all(np.diff(out) > 0)


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 100), dtype=np.float32)
        logits[0, 7] = 20.0
        loss = T.cross_entropy_masked(T.Tensor(logits), [7])
        assert float(loss.data) < 1e-6

    def test_uniform_logits_give_log_vocab(self):
        v = 37
        loss = T.cross_entropy_masked(T.Tensor(np.zeros((3, v))), [5, 0, 36])
        assert abs(float(loss.data) - math.log(v)) < 1e-5

    def test_matches_hand_summed_oracle(self, rng):
        logits = rng.standard_normal((6, 5)).astype(np.float32)
        positions = [0, 2, 5]
        labels = [1, 4, 0]
        loss = float(T.cross_entropy_masked(T.gather(T.Tensor(logits), positions), labels).data)
        total = 0.0
        for pos, lab in zip(positions, labels):
            row = [float(v) for v in logits[pos]]
            denom = sum(math.exp(v) for v in row)
            total += -(row[lab] - math.log(denom))
        assert abs(loss - total / 3) < 1e-5

    @pytest.mark.parametrize("positions", [[0, 2, 5], [2, 2, 5]], ids=["distinct", "repeated"])
    def test_gradient_matches_softmax_oracle(self, rng, positions):
        logits = T.parameter(rng.standard_normal((6, 5)).astype(np.float32))
        labels = [1, 4, 0]
        T.backward(T.cross_entropy_masked(T.gather(logits, positions), labels))
        want = np.zeros((6, 5))
        for pos, lab in zip(positions, labels):
            row = logits.data[pos].astype(np.float64)
            p = np.exp(row - row.max())
            p /= p.sum()
            p[lab] -= 1.0
            want[pos] += p / len(positions)  # a repeated row gets both terms
        assert np.allclose(logits.grad, want, rtol=1e-5, atol=1e-7)

    def test_backward_normalises_the_forward_exp_in_place(self, rng):
        rows, v = 64, 4096
        logits0 = rng.standard_normal((rows, v)).astype(np.float32) * 3
        labels = rng.integers(0, v, rows)
        logits = T.parameter(logits0)
        loss = T.cross_entropy_masked(logits, labels)
        tracemalloc.start()
        try:
            T.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want_loss, want_grad = formula_cross_entropy(logits0, np.arange(rows), labels)
        assert np.array_equal(loss.data, want_loss) and np.array_equal(logits.grad, want_grad)
        # no zero-filled (rows, V) array
        assert peak < logits.data.nbytes / 2

    def test_empty_labels_raise(self):
        with pytest.raises(T.EmptyBatchError):
            T.cross_entropy_masked(T.Tensor(np.zeros((2, 3))), [])

    def test_label_count_must_match_the_rows(self):
        with pytest.raises(ValueError, match="2 labels for 3 rows"):
            T.cross_entropy_masked(T.Tensor(np.zeros((3, 4))), [0, 1])

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="label id"):
            T.cross_entropy_masked(T.Tensor(np.zeros((1, 3))), [3])


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = T.parameter(rng.standard_normal((3, 4)).astype(np.float32))
        T.backward(reduce_sum(x))
        assert np.array_equal(x.grad, np.ones((3, 4), dtype=np.float32))

    def test_half_squared_norm_gradient_is_x(self, rng):
        x = T.parameter(rng.standard_normal(6).astype(np.float32))
        loss = T.scale(reduce_sum(mul(x, x)), 0.5)
        T.backward(loss)
        assert np.allclose(x.grad, x.data, atol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = T.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            T.backward(mul(x, x))

    def test_reused_node_accumulates(self):
        x = T.parameter(np.array([2.0]))
        y = T.add(x, x)  # dy/dx = 2
        T.backward(reduce_sum(mul(y, y)))  # d/dx (2x)^2 = 8x
        assert np.allclose(x.grad, 8.0 * x.data, atol=1e-5)

    def test_composite_graph_matches_finite_differences(self, rng):
        w = T.parameter(rng.standard_normal((4, 3)).astype(np.float32) * 0.3)
        b = T.parameter(rng.standard_normal(3).astype(np.float32) * 0.1)
        x = T.Tensor(rng.standard_normal((5, 4)).astype(np.float32))

        def build():
            h = T.gelu(T.add(T.matmul(x, w), b))
            s = T.softmax(h, axis=-1)
            return T.cross_entropy_masked(T.gather(s, [0, 3]), [1, 2])

        w.grad = b.grad = None
        T.backward(build())
        T.backward(build())  # fresh graph, grads accumulate on the leaves
        assert np.allclose(w.grad, 2 * fd_gradient(build, w), rtol=1e-3, atol=1e-5)
        assert np.allclose(b.grad, 2 * fd_gradient(build, b), rtol=1e-3, atol=1e-5)

    def test_broadcast_add_gradient(self, rng):
        a = T.parameter(rng.standard_normal((4, 3)).astype(np.float32))
        c = T.parameter(rng.standard_normal(3).astype(np.float32))

        def build():
            return reduce_sum(mul(T.add(a, c), T.add(a, c)))

        a.grad = c.grad = None
        T.backward(build())
        assert np.allclose(a.grad, fd_gradient(build, a), rtol=1e-3, atol=1e-4)
        assert np.allclose(c.grad, fd_gradient(build, c), rtol=1e-3, atol=1e-4)

    def test_second_backward_through_a_graph_raises(self, rng):
        x = T.parameter(rng.standard_normal(6).astype(np.float32))
        loss = reduce_sum(mul(T.gelu(x), x))
        T.backward(loss)
        first = x.grad.copy()
        with pytest.raises(ValueError, match="backward already ran through this graph"):
            T.backward(loss)
        assert np.array_equal(x.grad, first)

    def test_losses_sharing_a_subgraph_take_one_backward(self, rng):
        x = T.parameter(rng.standard_normal(6).astype(np.float32))

        def losses():
            h = T.gelu(x)
            return reduce_sum(h), reduce_sum(mul(h, h))

        l1, l2 = losses()
        T.backward(l1)
        with pytest.raises(ValueError, match="already ran"):
            T.backward(l2)
        x.grad = None
        T.backward(T.add(*losses()))

        def build():
            return T.add(*losses())

        assert np.allclose(x.grad, fd_gradient(build, x), rtol=1e-3, atol=1e-4)

    def test_embedding_scatter_accumulates_repeats(self):
        table = T.parameter(np.zeros((4, 2), dtype=np.float32))
        ids = np.array([1, 1, 3])
        T.backward(reduce_sum(T.embedding(table, ids)))
        assert np.array_equal(table.grad[1], np.array([2.0, 2.0], dtype=np.float32))
        assert np.array_equal(table.grad[3], np.array([1.0, 1.0], dtype=np.float32))
        assert np.array_equal(table.grad[0], np.zeros(2, dtype=np.float32))


class TestSavedArrays:
    """An op's input array lives only as long as its caller or a backward formula needs it."""

    @staticmethod
    def run(build, drop):
        """Build, keeping the watched Tensor in a list unless drop; check its array, backprop."""
        kept = None if drop else []
        ref, loss, params = build(kept)
        assert (ref() is None) == drop
        T.backward(loss)
        return [p.grad for p in params]

    def test_scores_are_freed_after_softmax(self, rng):
        q0, k0, w0 = (rng.standard_normal(s).astype(np.float32)
                      for s in ((2, 4, 3), (2, 3, 4), (2, 4, 4)))

        def build(kept):
            q, k = T.parameter(q0), T.parameter(k0)
            scores = T.matmul(q, k)
            ref = weakref.ref(scores.data)
            probs = T.softmax(scores, scale=0.5)
            if kept is not None:
                kept.append(scores)
            del scores
            return ref, reduce_sum(mul(probs, T.Tensor(w0))), (q, k)

        for a, b in zip(self.run(build, True), self.run(build, False)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("positions", [[0, 1, 2, 3], [3, 0, 2]])
    def test_logits_are_freed_after_cross_entropy(self, rng, positions):
        h0, w0, b0 = (rng.standard_normal(s).astype(np.float32) for s in ((4, 3), (3, 6), (6,)))

        def build(kept):
            h, w, b = T.parameter(h0), T.parameter(w0), T.parameter(b0)
            logits = T.linear(h, w, b)
            ref = weakref.ref(logits.data)
            # every row goes to the loss as it is; a subset is gathered first
            rows = logits if len(positions) == 4 else T.gather(logits, positions)
            loss = T.cross_entropy_masked(rows, [1, 5, 0, 2][:len(positions)])
            if kept is not None:
                kept.append(logits)
            del logits
            return ref, loss, (h, w, b)

        for a, b in zip(self.run(build, True), self.run(build, False)):
            assert np.array_equal(a, b)


class TestGather:
    def test_picks_indexed_rows(self, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        rows, cols = np.array([1, 0, 1]), np.array([2, 0, 2])
        out = T.gather(T.Tensor(x), (rows, cols))
        assert np.array_equal(out.data, np.stack([x[1, 2], x[0, 0], x[1, 2]]))

    def test_grad_check_with_repeated_row(self, rng):
        x = T.parameter(rng.standard_normal((2, 3, 4)).astype(np.float32))
        rows, cols = np.array([1, 0, 1, 0]), np.array([2, 0, 2, 1])

        def build():
            return T.cross_entropy_masked(T.gather(x, (rows, cols)), [0, 3, 2, 1])

        assert T.grad_check(build, [x], eps=1e-3) < 1e-3
        T.backward(build())
        assert np.count_nonzero(np.abs(x.grad).sum(axis=-1)) == 3
        assert np.array_equal(x.grad[1, 1], np.zeros(4, dtype=np.float32))


class TestOneScatter:
    """gather's backward matches each row scatter it replaced, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ids", [[[4, 0, 2], [5, 1, 3]], [[4, 0, 4], [1, 1, 3]]],
                             ids=["distinct", "repeated"])
    def test_embedding_matches_its_old_scatter(self, rng, dtype, ids):
        ids = np.array(ids)
        table = T.parameter(rng.standard_normal((7, 5)), dtype=dtype)
        g = rng.standard_normal((2, 3, 5)).astype(dtype)
        T.backward(reduce_sum(mul(T.embedding(table, ids), T.Tensor(g, dtype=dtype))))
        want = old_embedding_backward(table.data, ids, g)
        assert table.grad.dtype == dtype and np.array_equal(table.grad, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooled_row_matches_the_old_scatter(self, rng, dtype):
        h = T.parameter(rng.standard_normal((3, 4, 5)), dtype=dtype)
        g = rng.standard_normal((3, 5)).astype(dtype)
        index = (np.arange(3), 0)
        T.backward(reduce_sum(mul(T.gather(h, index), T.Tensor(g, dtype=dtype))))
        assert np.array_equal(h.grad, old_embedding_backward(h.data, index, g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("positions", [[5, 0, 3, 2], [2, 5, 2, 2], [0, 1, 2, 3]],
                             ids=["distinct", "repeated", "leading-rows"])
    def test_loss_matches_its_old_general_path(self, rng, dtype, positions):
        positions, labels = np.array(positions), np.array([3, 0, 6, 6])
        logits = T.parameter(rng.standard_normal((6, 7)) * 3, dtype=dtype)
        loss = T.cross_entropy_masked(T.gather(logits, positions), labels)
        T.backward(loss)
        want_loss, want_grad = old_cross_entropy_general(logits.data, positions, labels)
        assert np.array_equal(loss.data, want_loss) and loss.dtype == dtype
        assert np.array_equal(logits.grad, want_grad) and logits.grad.dtype == dtype

    def test_distinct_rows_assign_and_repeats_accumulate(self, monkeypatch):
        calls = []
        real = np.add.at
        monkeypatch.setattr(np.add, "at", lambda *a: calls.append(1) or real(*a))
        x = T.parameter(np.ones((3, 4, 2)))
        T.backward(reduce_sum(T.gather(x, (np.array([0, 2, 1]), np.array([3, 3, 0])))))
        assert calls == []
        T.backward(reduce_sum(T.gather(x, (np.array([0, 2, 0]), np.array([3, 3, 3])))))
        assert calls == [1]


class TestGradCheck:
    def test_linear_cross_entropy_under_tolerance(self, rng):
        w = T.parameter(rng.standard_normal((6, 4)).astype(np.float32) * 0.2)
        b = T.parameter(np.zeros(4, dtype=np.float32))
        x = T.Tensor(rng.standard_normal((3, 6)).astype(np.float32))

        def build():
            return T.cross_entropy_masked(T.add(T.matmul(x, w), b), [0, 3, 1])

        assert T.grad_check(build, [w, b], eps=1e-3) < 1e-3

    def test_zero_parameter_graph_passes_vacuously(self):
        assert T.grad_check(lambda: reduce_sum(T.Tensor([1.0])), []) == 0.0

    def test_eps_validation(self):
        x = T.parameter(np.ones(2))
        with pytest.raises(ValueError, match="eps"):
            T.grad_check(lambda: reduce_sum(x), [x], eps=0.5)
        with pytest.raises(ValueError, match="floor"):
            T.grad_check(lambda: reduce_sum(x), [x], floor=0.0)

    def test_detects_deliberately_wrong_gradient(self):
        x = T.parameter(np.array([0.7, -1.2], dtype=np.float32))

        def bad_square(t):
            # claims d(t^2)/dt = 3t instead of 2t
            return T._result(t.data * t.data, (t,),
                             lambda g: (3.0 * t.data * g,))

        err = T.grad_check(lambda: reduce_sum(bad_square(x)), [x], eps=1e-4)
        assert err > 0.3

    def test_near_zero_gradients_compared_absolutely(self):
        # a parameter multiplied by zero has exactly zero gradient; the
        # difference quotient is pure roundoff and must not fail the check
        x = T.parameter(np.array([5.0, -3.0], dtype=np.float32))
        zero = T.Tensor(np.zeros(2, dtype=np.float32))

        def build():
            return reduce_sum(mul(x, zero))

        assert T.grad_check(build, [x], eps=1e-4) < 1e-3

    def test_restores_float32_storage(self, rng):
        x = T.parameter(rng.standard_normal(3).astype(np.float32))
        T.grad_check(lambda: reduce_sum(mul(x, x)), [x])
        assert x.data.dtype == np.float32


class TestHygiene:
    def test_repeated_forward_is_bit_identical(self, rng):
        x = T.Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        g = T.Tensor(np.ones(8, dtype=np.float32))
        b = T.Tensor(np.zeros(8, dtype=np.float32))
        a = T.layer_norm(T.gelu(x), g, b).data
        bdata = T.layer_norm(T.gelu(x), g, b).data
        assert np.array_equal(a, bdata)

    def test_documented_ops_finite_on_finite_inputs(self, rng):
        x = rng.standard_normal((3, 6)).astype(np.float32) * 50
        outs = [
            T.softmax(T.Tensor(x)).data,
            T.gelu(T.Tensor(x)).data,
            T.layer_norm(T.Tensor(x), T.Tensor(np.ones(6)), T.Tensor(np.zeros(6))).data,
        ]
        for o in outs:
            assert np.all(np.isfinite(o))

    def test_no_grad_blocks_recording(self):
        x = T.parameter(np.ones(3))
        with T.no_grad():
            y = reduce_sum(mul(x, x))
        assert y.requires_grad is False
        assert y._backward is None


class TestSurface:
    # scale: nothing in the pipeline calls it, but perfbench's SHAPE_OPS still names it
    UNCALLED = {"scale", "grad_check"}

    def test_the_pipeline_calls_every_public_function(self, monkeypatch):
        from inkstone.corpus import ParallelExample
        from inkstone.decode import DecodeConfig, generate_text
        from inkstone.finetune import run_task
        from inkstone.model import ModelConfig
        from inkstone.pretrain import PretrainConfig, pretrain
        from inkstone.vocab import build_vocab

        called = set()

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                called.add(name)
                return fn(*args, **kwargs)
            return wrapper

        public = {name for name, fn in vars(T).items() if inspect.isfunction(fn)
                  and fn.__module__ == T.__name__ and not name.startswith("_")}
        for name in public:
            monkeypatch.setattr(T, name, spy(name, getattr(T, name)))

        chars = list("山水风花雪月街春江夜湖海")
        vocab = build_vocab(chars)
        cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=16, num_heads=2,
                          ff_size=32, max_positions=12, dropout_rate=0.1)
        encoder = pretrain(["山水风花雪月", "街春江夜湖海"], vocab, cfg,
                           PretrainConfig(batch_size=2, max_steps=1, max_len=8, seed=1))
        texts = [("山水风", 0), ("花雪月", 1), ("街春江", 0), ("夜湖海", 1)]
        run_task("PTC", encoder, vocab, texts, texts, num_classes=2, batch_size=2,
                 epochs=1, max_len=8)
        pairs = [ParallelExample(list(s), list(s[::-1]), "CPG22") for s in ("山水风", "花雪月")]
        ckpt, _ = run_task("CPG22", encoder, vocab, pairs, pairs, batch_size=2,
                           decoder_layers=1, epochs=1, max_len=8, max_decode_len=4)
        for strategy in ("greedy", "beam"):
            generate_text(ckpt, vocab, "山水", DecodeConfig(strategy=strategy, beam_size=2,
                                                           max_decode_len=4))
        assert public - called == self.UNCALLED
