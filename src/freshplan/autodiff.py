"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A `Tensor` is one node of an acyclic computation graph: it holds a value, a
gradient slot, references to its operand nodes, and a closure that applies the
local derivative during the backward sweep.  Scalars are tensors of shape ();
`backward` may only be started from one of those.  The op set is exactly what
the forecasting model's loss needs: `sub` of two tensors of equal shape,
`pow_const` and `mean`, with `-` and `**` on a left-hand `Tensor` as
shorthand.  The model itself is three kinds of single node with their own
backward (`layers.py`): a residual block, the attention fusion and the dense
head, made with the same `Tensor` constructor.

Every tensor takes a creation stamp from one counter.  A node is built after
its operands, so creation order is topological, and `backward` runs the nodes
it reaches from newest to oldest.  A tensor needs a gradient when it is
`requires_grad` or has a `_backward`; `accumulate` drops what arrives for any
other tensor (raw inputs, targets), and a backward may skip computing a
gradient for an operand that needs none.

`Adam` updates a list of distinct parameter tensors as one float64 vector: it
rebinds every parameter's `data` to a view into that vector, copies the `.grad`
slots into a matching gradient vector, and applies each of its five update
expressions once to the whole vector, in place on its moment vectors and with
the same operations in the same order as the textbook expressions.  Elementwise
IEEE arithmetic does not depend on how the elements are grouped, so this gives
the same bits as updating tensor by tensor.  Each step ends by clearing every
grad.

Gradient correctness is validated against central finite differences in the
test suite; `finite_difference_check` implements the probe.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvariantError

_stamps = itertools.count()


class Tensor:
    """Node in a reverse-mode computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_stamp")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._stamp = next(_stamps)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def needs_grad(self) -> bool:
        return self.requires_grad or self._backward is not None

    def accumulate(self, g: np.ndarray) -> None:
        if not self.needs_grad:
            return
        # Out-of-place sum: the first gradient is stored as given and may be
        # a view shared with another node, so it is never mutated.
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar -------------------------------------------------

    def __sub__(self, other):
        return sub(self, other)

    def __pow__(self, exponent):
        return pow_const(self, float(exponent))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# -- elementwise ---------------------------------------------------------


def sub(a: Tensor, b: Tensor) -> Tensor:
    """a - b for tensors of equal shape."""
    if a.data.shape != b.data.shape:
        raise InvariantError(f"sub needs equal shapes, got {a.data.shape} and {b.data.shape}")
    out_data = a.data - b.data

    def backprop(g: np.ndarray) -> None:
        a.accumulate(g)
        b.accumulate(-g)

    return Tensor(out_data, _parents=(a, b), _backward=backprop)


def pow_const(a: Tensor, exponent: float) -> Tensor:
    out_data = a.data ** exponent

    def backprop(g: np.ndarray) -> None:
        a.accumulate(g * exponent * a.data ** (exponent - 1.0))

    return Tensor(out_data, _parents=(a,), _backward=backprop)


# -- reductions ------------------------------------------------------------


def mean(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.mean())
    n = a.data.size

    def backprop(g: np.ndarray) -> None:
        a.accumulate(np.full_like(a.data, float(g) / n))

    return Tensor(out_data, _parents=(a,), _backward=backprop)


# -- backward sweep --------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Fill gradient slots of every node reachable from a scalar loss.

    Each node's backward runs after those of all nodes built from it, because
    it runs in order of creation, newest first."""
    if loss.data.shape != ():
        raise InvariantError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    reached, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in reached:
                reached[id(parent)] = parent
                stack.append(parent)
    loss.grad = np.ones(())
    for node in sorted(reached.values(), key=lambda n: n._stamp, reverse=True):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# -- optimizer -------------------------------------------------------------


class Adam:
    """Adam optimizer; step() applies the update and then zeroes the grads.

    The parameters' `data` become views into one vector owned by the
    optimizer; updates write that vector in place.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if len({id(t) for t in params}) != len(params):
            raise InvariantError("a parameter is listed twice")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._flat = np.concatenate([t.data.ravel() for t in params])
        self._parts: list[tuple[Tensor, slice]] = []
        start = 0
        for t in params:
            part = slice(start, start + t.data.size)
            t.data = self._flat[part].reshape(t.data.shape)
            self._parts.append((t, part))
            start = part.stop
        self._grad = np.zeros_like(self._flat)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)

    def step(self) -> None:
        g, m, v = self._grad, self._m, self._v
        for tensor, part in self._parts:
            if tensor.grad is None:
                raise InvariantError("a parameter has no gradient")
            g[part] = tensor.grad.reshape(-1)
        self.t += 1
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        g_sq = (1.0 - self.beta2) * g
        g_sq *= g
        v += g_sq
        update = m / (1.0 - self.beta1 ** self.t)
        update *= self.lr
        denom = v / (1.0 - self.beta2 ** self.t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        self._flat -= update
        for tensor, _ in self._parts:
            tensor.zero_grad()


# -- gradient verification ---------------------------------------------------


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: Iterable[Tensor],
    h: float = 1e-4,
) -> float:
    """Max relative error between reverse-mode grads and central differences.

    `loss_fn` must rebuild the graph from the current parameter values on every
    call.  Entries where both gradients are below 1e-7 in magnitude count as
    exact matches.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    backward(loss_fn())
    analytic = [np.array(p.grad, copy=True) if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = grad.ravel()[i]
            if abs(a) < 1e-7 and abs(numeric) < 1e-7:
                continue
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-5)
            worst = max(worst, rel)
    for p in params:
        p.zero_grad()
    return worst
