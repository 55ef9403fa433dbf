"""Adam and Noam schedule tests.

The multi-step expectation comes from a pure-python float trace written
here, not from the module under test.
"""

import math
import weakref

import numpy as np
import pytest

from _reference import formula_adam, mul, reduce_sum
from inkstone import tensor as T
from inkstone.errors import DataError, NonFiniteLossError
from inkstone.optim import AdamState, adam_step, noam_lr, train_step
from inkstone.tensor import parameter


def adam_trace_oracle(p0, grads, lr, beta1, beta2, eps, wd):
    """Scalar Adam reference in plain python floats."""
    p, m, v = p0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        if wd:
            p -= lr * wd * p
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        p -= lr * mhat / (math.sqrt(vhat) + eps)
        out.append(p)
    return out


class TestAdam:
    def test_first_step_closed_form(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        g = np.array([0.3, -2.0, 0.001], dtype=np.float32)
        p = parameter(np.zeros(3, dtype=np.float32))
        adam_step({"p": p}, {"p": g}, AdamState(), lr=0.01)
        expect = -0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.data, expect, atol=1e-7)

    def test_zero_grad_zero_decay_is_identity(self):
        p = parameter(np.array([1.5, -2.5], dtype=np.float32))
        before = p.data.copy()
        adam_step({"p": p}, {"p": np.zeros(2, dtype=np.float32)}, AdamState(), lr=0.1)
        assert np.array_equal(p.data, before)

    def test_decoupled_decay_shrinks_without_grad_signal(self):
        p = parameter(np.array([2.0], dtype=np.float32))
        state = AdamState()
        adam_step({"p": p}, {"p": np.zeros(1, dtype=np.float32)}, state, lr=0.1,
                  weight_decay=0.5)
        # decay applies before the (zero) moment update: 2 * (1 - 0.1*0.5)
        assert np.allclose(p.data, 1.9, atol=1e-6)

    def test_five_step_trace_matches_oracle(self):
        grads = [0.5, -0.25, 0.8, 0.1, -0.6]
        expect = adam_trace_oracle(1.0, grads, lr=0.05, beta1=0.9, beta2=0.999,
                                   eps=1e-8, wd=0.01)
        p = parameter(np.array([1.0], dtype=np.float32))
        state = AdamState()
        got = []
        for g in grads:
            adam_step({"p": p}, {"p": np.array([g], dtype=np.float32)}, state,
                      lr=0.05, weight_decay=0.01)
            got.append(float(p.data[0]))
        assert np.allclose(got, expect, atol=1e-6)
        assert state.t == 5

    def test_state_persists_across_steps(self):
        p = parameter(np.array([0.0], dtype=np.float32))
        state = AdamState()
        g = np.array([1.0], dtype=np.float32)
        adam_step({"p": p}, {"p": g}, state, lr=0.1)
        first = float(p.data[0])
        adam_step({"p": p}, {"p": -g}, state, lr=0.1)
        # momentum from the first step damps the reversal
        assert abs(float(p.data[0]) - first) < 0.1

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_matches_the_array_formula_bit_for_bit(self, wd):
        self.against_formula(wd, (4, 6))

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_matches_the_array_formula_over_tiles(self, wd):
        # 40,000 elements: one full tile of the flat arrays, then a partial one
        self.against_formula(wd, (250, 160))

    @staticmethod
    def against_formula(wd, shape):
        rng = np.random.default_rng(3)
        p = parameter(rng.standard_normal(shape).astype(np.float32))
        ref_p = p.data.copy()
        ref_m, ref_v = np.zeros_like(ref_p), np.zeros_like(ref_p)
        state = AdamState()
        for t in range(1, 6):
            g = (rng.standard_normal(shape) * 10.0 ** -t).astype(np.float32)
            adam_step({"p": p}, {"p": g}, state, lr=3e-3, weight_decay=wd)
            formula_adam(ref_p, g, ref_m, ref_v, t, lr=3e-3, weight_decay=wd)
            assert np.array_equal(p.data, ref_p)
            assert np.array_equal(state.m["p"], ref_m) and np.array_equal(state.v["p"], ref_v)

    def test_shape_mismatch_rejected(self):
        p = parameter(np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="shape"):
            adam_step({"p": p}, {"p": np.zeros(2, dtype=np.float32)}, AdamState(), lr=0.1)

    def test_unknown_gradient_rejected(self):
        p = parameter(np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="unknown"):
            adam_step({"p": p}, {"q": np.zeros(3, dtype=np.float32)}, AdamState(), lr=0.1)


class TestTrainStep:
    def test_matches_backward_then_adam_step(self):
        def loss_of(p):
            return reduce_sum(mul(p, p))

        a, b = parameter([1.0, -2.0]), parameter([1.0, -2.0])
        state_a, state_b = AdamState(), AdamState()
        value = train_step({"w": a}, loss_of(a), state_a, 0.1, weight_decay=0.01)
        loss_b = loss_of(b)
        T.backward(loss_b)
        adam_step({"w": b}, {"w": b.grad}, state_b, lr=0.1, weight_decay=0.01)
        assert value == float(loss_b.data) == 5.0
        assert np.array_equal(a.data, b.data)
        assert a.grad is None and state_a.t == 1

    def test_activations_are_freed_when_the_step_returns(self):
        rng = np.random.default_rng(0)
        w = parameter(rng.standard_normal((4, 3)).astype(np.float32))
        b = parameter(np.zeros(3, dtype=np.float32))
        x = T.Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        hidden = T.add(T.matmul(x, w), b)
        alive = weakref.ref(hidden.data)
        loss = T.cross_entropy_masked(T.gather(T.gelu(hidden), [0, 2]), [1, 0])
        del hidden
        assert alive() is not None  # the graph holds it until backward
        train_step({"w": w, "b": b}, loss, AdamState(), 0.1)
        assert alive() is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_loss_raises_and_changes_nothing(self, bad):
        w = parameter([1.0, -2.0])
        state = AdamState()
        train_step({"w": w}, reduce_sum(mul(w, w)), state, 0.1)
        weights, m, v = w.data.copy(), state.m["w"].copy(), state.v["w"].copy()
        loss = T.scale(reduce_sum(mul(w, w)), bad)
        with pytest.raises(NonFiniteLossError, match=str(float(loss.data))) as err:
            train_step({"w": w}, loss, state, 0.1, weight_decay=0.01)
        assert isinstance(err.value, DataError)
        assert np.array_equal(w.data, weights) and w.grad is None
        assert state.t == 1
        assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)


class TestNoam:
    def test_peak_value_at_warmup_crossover(self):
        lr = noam_lr(4000, 4000, 512)
        assert abs(lr - (512 * 4000) ** -0.5) < 1e-12  # direct formula evaluation
        assert abs(lr - 6.99e-4) < 1e-6

    def test_step_one_is_on_the_linear_ramp(self):
        assert abs(noam_lr(1, 4000, 512) - 512**-0.5 * 4000**-1.5) < 1e-12

    def test_monotone_up_then_down(self):
        warm = 100
        values = [noam_lr(s, warm, 64) for s in range(1, 301)]
        assert all(b > a for a, b in zip(values[: warm - 1], values[1:warm]))
        assert all(b < a for a, b in zip(values[warm:], values[warm + 1 :]))

    def test_continuous_at_the_crossover(self):
        before = noam_lr(99, 100, 64)
        at = noam_lr(100, 100, 64)
        after = noam_lr(101, 100, 64)
        assert abs(at - before) / at < 0.02
        assert abs(after - at) / at < 0.02

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError, match="step"):
            noam_lr(0, 4000, 512)
