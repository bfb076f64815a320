import numpy as np
import pytest
from oracles import adam_reference

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


def test_tensors_that_need_no_gradient_get_none():
    x = Tensor(np.array([1.0, 2.0]))  # a raw input: not requires_grad, no backward
    w = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    ad.backward(ad.mean(x * w))
    assert x.grad is None
    assert w.grad.tolist() == [0.5, 1.0]


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

    def test_flat_step_matches_per_tensor_reference(self):
        rng = np.random.default_rng(4)
        shapes = [(3, 2), (), (4,), (2, 1, 3)]
        init = [rng.normal(size=shape) for shape in shapes]
        tensors = [Tensor(x.copy(), requires_grad=True) for x in init]
        opt = Adam(ParamSet([(f"p{i}", t) for i, t in enumerate(tensors)]), lr=0.05)
        # Tensor 1 has no gradient on every third step, the first included.
        grads = [[None if i == 1 and step % 3 == 0 else rng.normal(size=shape)
                  for i, shape in enumerate(shapes)] for step in range(20)]
        for step_grads, expected in zip(grads, adam_reference(init, grads, lr=0.05)):
            for tensor, g in zip(tensors, step_grads):
                if g is not None:
                    tensor.accumulate(g)
            opt.step()
            for tensor, want in zip(tensors, expected):
                assert tensor.data.shape == want.shape
                assert tensor.data.tobytes() == want.tobytes()

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

