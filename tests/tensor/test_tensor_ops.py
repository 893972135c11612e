"""Unit tests for the core autograd tensor operations."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    concatenate,
    gradient_check,
    is_grad_enabled,
    no_grad,
    stack,
    where,
)


class TestArithmetic:
    def test_add_values(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        assert np.allclose((a + b).data, [5.0, 7.0, 9.0])

    def test_add_broadcast_gradient(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, np.full(4, 3.0))

    def test_scalar_radd_rmul(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose((3.0 + a).data, [4.0, 5.0])
        assert np.allclose((2.0 * a).data, [2.0, 4.0])

    def test_sub_neg(self, rng):
        a = Tensor(rng.standard_normal(5), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        (a - b).sum().backward()
        assert np.allclose(a.grad, np.ones(5))
        assert np.allclose(b.grad, -np.ones(5))

    def test_mul_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, b.data)
        assert np.allclose(b.grad, a.data)

    def test_div_gradient_matches_numeric(self, rng):
        a = Tensor(rng.standard_normal((3, 3)) + 3.0, requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)) + 3.0, requires_grad=True)
        assert gradient_check(lambda x, y: x / y, [a, b])

    def test_pow_gradient(self, rng):
        a = Tensor(np.abs(rng.standard_normal(6)) + 0.5, requires_grad=True)
        assert gradient_check(lambda x: x ** 3, [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestMatmul:
    def test_matmul_2d(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (3, 5)
        assert np.allclose(out.data, a.data @ b.data)
        assert gradient_check(lambda x, y: x @ y, [a, b])

    def test_matmul_batched_3d_by_2d(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 3, 5)
        assert gradient_check(lambda x, y: x @ y, [a, b])

    def test_matmul_vector(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal(4), requires_grad=True)
        out = a @ v
        assert out.shape == (3,)
        assert gradient_check(lambda x, y: x @ y, [a, v])


class TestReductions:
    def test_sum_axis(self, rng):
        a = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        out = a.sum(axis=1)
        assert out.shape == (2,)
        out.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 5)))

    def test_mean_gradient(self, rng):
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, np.full((4, 5), 1.0 / 20.0))

    def test_mean_axis_keepdims(self, rng):
        a = Tensor(rng.standard_normal((4, 5)))
        assert a.mean(axis=0, keepdims=True).shape == (1, 5)

    def test_max_gradient_goes_to_argmax(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.allclose(a.grad, expected)

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.5, 0.5]])

    def test_min_matches_numpy(self, rng):
        data = rng.standard_normal((3, 4))
        assert np.allclose(Tensor(data).min(axis=1).data, data.min(axis=1))


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (2, 6)

    def test_reshape_accepts_tuple(self, rng):
        a = Tensor(rng.standard_normal((2, 6)))
        assert a.reshape((4, 3)).shape == (4, 3)

    def test_transpose_and_T(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        assert a.T.shape == (3, 2)
        a.transpose(1, 0).sum().backward()
        assert a.grad.shape == (2, 3)

    def test_getitem_gradient_scatter(self, rng):
        a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        a[np.array([0, 0, 2])].sum().backward()
        assert np.allclose(a.grad[0], 2.0 * np.ones(3))
        assert np.allclose(a.grad[2], np.ones(3))
        assert np.allclose(a.grad[1], np.zeros(3))

    def test_index_select(self, rng):
        a = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        picked = a.index_select(np.array([5, 1, 1]))
        assert picked.shape == (3, 2)
        picked.sum().backward()
        assert np.allclose(a.grad[1], 2.0 * np.ones(2))


class TestNonLinearities:
    @pytest.mark.parametrize("name", ["exp", "tanh", "sigmoid", "relu"])
    def test_gradcheck(self, rng, name):
        a = Tensor(rng.standard_normal((3, 4)) * 0.5 + 0.1, requires_grad=True)
        assert gradient_check(lambda x: getattr(x, name)(), [a])

    def test_log_gradcheck(self, rng):
        a = Tensor(np.abs(rng.standard_normal((3, 3))) + 0.5, requires_grad=True)
        assert gradient_check(lambda x: x.log(), [a])

    def test_leaky_relu_negative_slope(self):
        a = Tensor(np.array([-2.0, 3.0]))
        assert np.allclose(a.leaky_relu(0.1).data, [-0.2, 3.0])

    def test_elu_continuity(self):
        a = Tensor(np.array([-1e-9, 1e-9]))
        out = a.elu().data
        assert abs(out[0] - out[1]) < 1e-6


class TestGraphOpsAndUtilities:
    def test_concatenate_gradients(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 8)
        out.sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (2, 5)

    def test_stack_gradients(self, rng):
        tensors = [Tensor(rng.standard_normal(4), requires_grad=True) for _ in range(3)]
        out = stack(tensors, axis=0)
        assert out.shape == (3, 4)
        out.sum().backward()
        for tensor in tensors:
            assert np.allclose(tensor.grad, np.ones(4))

    def test_where_routes_gradients(self, rng):
        condition = np.array([True, False, True])
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        where(condition, a, b).sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0, 1.0])
        assert np.allclose(b.grad, [0.0, 1.0, 0.0])

    def test_no_grad_disables_graph(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_no_grad_nests_and_restores_the_outer_state(self):
        assert is_grad_enabled()
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_the_flag_when_the_block_raises(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("inside")
        assert is_grad_enabled()
        with no_grad():
            with pytest.raises(KeyError):
                with no_grad():
                    raise KeyError("nested")
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        inside, other_thread = threading.Event(), []
        release = threading.Event()

        def hold():
            with no_grad():
                inside.set()
                release.wait(5.0)
            other_thread.append(is_grad_enabled())

        thread = threading.Thread(target=hold)
        thread.start()
        assert inside.wait(5.0)
        # The other thread is inside its block; this one still records.
        assert is_grad_enabled()
        with no_grad():
            release.set()
            thread.join(5.0)
            assert not is_grad_enabled()
        assert is_grad_enabled() and other_thread == [True]

    def test_backward_requires_scalar_or_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_detach_cuts_graph(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        detached = (a * 2).detach()
        assert not detached.requires_grad

    def test_grad_accumulates_across_uses(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        (a + a).sum().backward()
        assert np.allclose(a.grad, 2.0 * np.ones(3))

    def test_zero_grad(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        a.sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert np.allclose(Tensor.ones(2).data, [1.0, 1.0])
        assert Tensor.randn(4, rng=np.random.default_rng(0)).shape == (4,)
