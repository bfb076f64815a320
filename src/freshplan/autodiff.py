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

`backward` runs the nodes that have a `_backward` in reverse depth-first
postorder, so each node's backward runs after those of every node built from
it; leaves are never walked.  A tensor needs a gradient when it is
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
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import InvariantError


class Tensor:
    """Node in a reverse-mode computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

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

    Each node's backward runs after those of all nodes built from it: the
    nodes run in reverse depth-first postorder, and a node is marked when it
    is visited, not when it is pushed, so a shared node still follows all of
    its consumers."""
    if loss.data.shape != ():
        raise InvariantError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order, visited = [], set()
    stack = [(loss, False)] if loss._backward is not None else []
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in visited:
            visited.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if p._backward is not None)
    loss.grad = np.ones(())
    for node in reversed(order):
        if node.grad is not None:
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
