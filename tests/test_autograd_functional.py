"""Unit tests for differentiable functional ops (softmax, losses, STE)."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    accuracy,
    cross_entropy,
    dropout,
    gelu,
    l2_reconstruction,
    log_softmax,
    mse,
    no_grad,
    relu,
    sigmoid,
    softmax,
    ste_hard_assign,
)

from .test_autograd_tensor import check_grad


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        out = softmax(x).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4))
        assert np.all(out > 0)

    def test_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_numerical_stability_large_values(self):
        out = softmax(Tensor([[1000.0, 1000.0]])).data
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_grad(self):
        rng = np.random.default_rng(2)
        check_grad(lambda t: (softmax(t) ** 2).sum(), rng.normal(size=(2, 4)))

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(3).normal(size=(3, 5)))
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(softmax(x).data), atol=1e-12
        )

    def test_log_softmax_grad(self):
        rng = np.random.default_rng(4)
        check_grad(lambda t: log_softmax(t).sum(), rng.normal(size=(2, 3)))


class TestActivations:
    def test_gelu_values(self):
        # GELU(0) = 0; GELU(x) ~ x for large x; ~0 for very negative x.
        out = gelu(Tensor([0.0, 10.0, -10.0])).data
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(10.0, rel=1e-3)
        assert out[2] == pytest.approx(0.0, abs=1e-3)

    def test_gelu_grad(self):
        rng = np.random.default_rng(5)
        check_grad(lambda t: gelu(t).sum(), rng.normal(size=(4,)), atol=1e-5)

    def test_gelu_without_a_tape_equals_the_taped_ops(self):
        """No grad needed, or grad mode off: the in-place numpy path gives
        the taped ops' values bit for bit, and records nothing."""
        rng = np.random.default_rng(7)
        data = rng.normal(scale=4.0, size=(33, 65))
        data[0, :4] = [0.0, -0.0, 1e-300, -30.0]
        taped = gelu(Tensor(data, requires_grad=True))
        assert taped.requires_grad
        for x in (Tensor(data), Tensor(data.T.copy()).T):
            out = gelu(x)
            assert not out.requires_grad and out._prev == ()
            assert out.data.tobytes() == taped.data.tobytes()
        with no_grad():
            quiet = gelu(Tensor(data, requires_grad=True))
        assert not quiet.requires_grad
        assert quiet.data.tobytes() == taped.data.tobytes()

    def test_relu_matches_tensor_method(self):
        x = Tensor([-1.0, 2.0])
        np.testing.assert_allclose(relu(x).data, [0, 2])

    def test_sigmoid_range_and_symmetry(self):
        out = sigmoid(Tensor([-5.0, 0.0, 5.0])).data
        assert out[1] == pytest.approx(0.5)
        assert out[0] + out[2] == pytest.approx(1.0, abs=1e-9)

    def test_sigmoid_grad(self):
        rng = np.random.default_rng(6)
        check_grad(lambda t: sigmoid(t).sum(), rng.normal(size=(3,)))


class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4))

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(7)
        targets = np.array([0, 2, 1])
        check_grad(
            lambda t: cross_entropy(t, targets), rng.normal(size=(3, 4)), atol=1e-5
        )

    def test_mse_zero_for_identical(self):
        a = Tensor(np.ones((2, 2)))
        assert mse(a, Tensor(np.ones((2, 2)))).item() == 0.0

    def test_l2_reconstruction_matches_mse(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(3, 4)))
        assert l2_reconstruction(a, b).item() == pytest.approx(mse(a, b).item())


class TestDropout:
    def test_identity_in_eval(self):
        x = Tensor(np.ones((4, 4)))
        out = dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_identity_with_zero_rate(self):
        x = Tensor(np.ones((4, 4)))
        out = dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_mask_applied_to_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones(100), requires_grad=True)
        out = dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)


class TestSTE:
    def test_forward_is_hard_value(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        hard = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(ste_hard_assign(x, hard).data, hard)

    def test_backward_is_identity(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        out = ste_hard_assign(x, np.ones((2, 2)))
        (out * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, 3 * np.ones((2, 2)))

    def test_shape_mismatch_raises(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            ste_hard_assign(x, np.ones((3, 2)))


class TestAccuracy:
    def test_perfect(self):
        logits = Tensor(np.eye(3) * 10)
        assert accuracy(logits, np.array([0, 1, 2])) == 1.0

    def test_partial(self):
        logits = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert accuracy(logits, np.array([0, 1])) == 0.5
