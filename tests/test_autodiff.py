import numpy as np
import pytest
from oracles import adam_reference, topo_order_reference

from freshplan import autodiff as ad
from freshplan.autodiff import Adam, Tensor
from freshplan.errors import InvariantError
from freshplan.forecaster import ForecasterModel, ModelConfig
from freshplan.intervals import BootstrapConfig
from freshplan.pipeline import Normalizer


def test_square_gradient():
    p = Tensor(3.0, requires_grad=True)
    ad.backward(p ** 2)
    assert p.grad == pytest.approx(6.0)


def test_backward_requires_scalar():
    v = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(InvariantError):
        ad.backward(v ** 2)


def test_grad_accumulates_over_shared_subexpressions():
    x = Tensor(2.0, requires_grad=True)
    s = x ** 2
    y = s - (Tensor(1.0) - s)  # 2x^2 - 1, dy/dx = 4x
    ad.backward(y)
    assert x.grad == pytest.approx(8.0)


def test_tensors_that_need_no_gradient_get_none():
    x = Tensor(np.array([1.0, 2.0]))  # a raw input: not requires_grad, no backward
    w = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    ad.backward(ad.mean(w - x))
    assert x.grad is None
    assert w.grad.tolist() == [0.5, 0.5]


def test_sub_rejects_unequal_shapes():
    with pytest.raises(InvariantError, match="equal shapes"):
        Tensor(np.zeros((2, 3))) - Tensor(np.zeros(3))


@pytest.mark.parametrize("shape", ["deploy", "replica"])
@pytest.mark.parametrize("batch", [1, 64])
def test_backward_sweep_matches_topological_reference(shape, batch):
    """`backward`'s sweep over the nodes with a backward gives the bits of the
    depth-first topological order, for every parameter of the loss graph."""
    config = ModelConfig() if shape == "deploy" else BootstrapConfig().model(ModelConfig().kernel)
    model = ForecasterModel.create(Normalizer(0.0, 1.0), "G", 3, config)
    rng = np.random.default_rng(batch)
    history = Tensor(rng.uniform(0.0, 1.0, (batch, 15, 1)))
    terms = Tensor(rng.integers(0, 2, (batch, 7, 10)))
    loss = ad.mean((model.forward(history, terms) - Tensor(rng.uniform(0.0, 1.0, (batch, 7)))) ** 2)
    params = model.params()

    ad.backward(loss)
    swept = [p.grad.tobytes() for p in params]
    order = topo_order_reference(loss)
    for node in order:
        node.zero_grad()
    loss.grad = np.ones(())
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    assert [p.grad.tobytes() for p in params] == swept


class TestAdam:
    def test_zero_grads_leave_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        with pytest.raises(InvariantError, match="no gradient"):
            opt.step()
        assert p.data.tolist() == [1.0, -2.0] and opt.t == 0

    def test_moves_against_gradient_sign(self):
        p = Tensor(0.0, requires_grad=True)
        opt = Adam([p], lr=0.05)
        for _ in range(20):
            p.accumulate(np.asarray(3.0))  # constant positive gradient
            opt.step()
        assert p.data < 0.0

    def test_descends_quadratic_bowl(self):
        p = Tensor(np.array([4.0, -3.0]), requires_grad=True)
        opt = Adam([p], lr=1e-2)
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
        opt = Adam(tensors, lr=0.05)
        grads = [[rng.normal(size=shape) for shape in shapes] for _ in range(20)]
        for step_grads, expected in zip(grads, adam_reference(init, grads, lr=0.05)):
            for tensor, g in zip(tensors, step_grads):
                tensor.accumulate(g)
            opt.step()
            for tensor, want in zip(tensors, expected):
                assert tensor.data.shape == want.shape
                assert tensor.data.tobytes() == want.tobytes()

    def test_step_zeroes_grads(self):
        p = Tensor(1.0, requires_grad=True)
        opt = Adam([p])
        p.accumulate(np.asarray(1.0))
        opt.step()
        assert p.grad is None

    def test_parameter_listed_twice_rejected(self):
        t = Tensor(1.0, requires_grad=True)
        with pytest.raises(InvariantError, match="listed twice"):
            Adam([t, Tensor(2.0, requires_grad=True), t])

