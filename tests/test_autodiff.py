import numpy as np
import pytest

from freshplan import autodiff as ad
from freshplan.autodiff import Adam, ParamSet, Tensor
from freshplan.errors import InvariantError


def test_square_gradient():
    p = Tensor(3.0, requires_grad=True)
    ad.backward(p * p)
    assert p.grad == pytest.approx(6.0)


def test_backward_requires_scalar():
    v = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(InvariantError):
        ad.backward(v * v)


def test_cycle_detection():
    a = Tensor(1.0, requires_grad=True)
    b = a * a
    b._parents = (b,)  # deliberately corrupt the graph
    with pytest.raises(InvariantError, match="cycle"):
        ad.backward(b)


def test_grad_accumulates_over_shared_subexpressions():
    x = Tensor(2.0, requires_grad=True)
    y = x * x + x * x  # 2x^2, dy/dx = 4x
    ad.backward(y)
    assert x.grad == pytest.approx(8.0)


def test_matmul_batch_gradients_match_fd():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = rng.normal(size=(4, 5, 3))

    def loss_fn():
        return ad.mean(ad.matmul(Tensor(x), w) ** 2)

    assert ad.finite_difference_check(loss_fn, [w]) < 1e-6


class TestAdam:
    def test_zero_grads_leave_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam(ParamSet([("p", p)]), lr=0.1)
        opt.step()
        assert p.data.tolist() == [1.0, -2.0]

    def test_moves_against_gradient_sign(self):
        p = Tensor(0.0, requires_grad=True)
        opt = Adam(ParamSet([("p", p)]), lr=0.05)
        for _ in range(20):
            p.accumulate(np.asarray(3.0))  # constant positive gradient
            opt.step()
        assert p.data < 0.0

    def test_descends_quadratic_bowl(self):
        p = Tensor(np.array([4.0, -3.0]), requires_grad=True)
        opt = Adam(ParamSet([("p", p)]), lr=1e-2)
        losses = []
        for _ in range(50):
            loss = ad.mean(p ** 2)
            losses.append(float(loss.data))
            ad.backward(loss)
            opt.step()
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_step_zeroes_grads(self):
        p = Tensor(1.0, requires_grad=True)
        opt = Adam(ParamSet([("p", p)]))
        p.accumulate(np.asarray(1.0))
        opt.step()
        assert p.grad is None


class TestParamSet:
    def test_duplicate_names_rejected(self):
        t = Tensor(1.0, requires_grad=True)
        with pytest.raises(InvariantError):
            ParamSet([("x", t), ("x", t)])

