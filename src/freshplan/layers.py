"""Neural layers for the two-branch cost model.

Causal convolutions read only the present and past: tap r of the kernel
multiplies the input delayed by r * dilation steps, with zero padding at the
start of the sequence.  `conv_forward` stacks the K delayed copies side by side
on the channel axis (an im2col on the time axis) and does one matmul of that
[B, T, K*C_in] stack against the kernel reshaped to [K*C_in, C_out], plus the
bias.

The attention fusion (`attention_forward`) concatenates the feature rows of
both branches, scores every row against the most recent cost feature with a
raw dot product, softmax-normalizes the scores, and returns the weighted sum.

On the graph, which is shaped [batch, time, channels], each residual block
(conv, bias, ReLU and the identity or projection skip) is one `Tensor` node,
the attention fusion is another and the dense head (x @ W + b on [B, F]) a
third, each with a hand-written backward.  A residual block whose input needs
no gradient (a raw data tensor, see `autodiff`) computes only its kernel, bias
and projection gradients.

The nodes keep numpy on its fast paths for the small shapes of training (batch
64, 7 to 22 rows, 1 to 48 columns).  A block runs its conv, its projection and
the input gradient's tap products as 2-D matmuls over the [B*T, .] rows, takes
the ReLU with `np.maximum` and keeps a boolean mask for its derivative.  The
attention backward forms its two outer products with `einsum` and its two
dot-product gradients as `keys @ g` and `g_sim @ keys`, and adds the query's
gradient into the last cost row in place.  Each of those gives every output
element the bits of the batched per-sample form it replaced: an outer product
is one multiplication per element, and a flat matmul computes the same dot
products, which OpenBLAS (numpy's bundled BLAS) rounds alike at these shapes.
So forward values and input gradients keep their bits; `tests/test_layers.py`
checks them against that form in `tests/oracles.py`.  Two sums changed their
rounding order: the kernel gradient and the projection gradient, each a sum
over batch and time, are now one matmul over the B*T rows where they were
per-sample matmuls summed over the batch afterwards; they agree with the old
form to about 1e-15 relative.  The bias gradient stays a sum over the batch,
then over time.  Every gradient slot receives at most two terms, and IEEE
addition of two terms does not depend on their order, so the order in which
nodes deliver gradients cannot change a bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape)


def _live_taps(taps: int, dilation: int, t: int) -> list[tuple[int, int]]:
    """(tap, delay) pairs that reach into a length-t sequence; the rest read
    only the zero padding."""
    return [(r, r * dilation) for r in range(taps) if r * dilation < t]


def conv_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                 dilation: int) -> tuple[np.ndarray, np.ndarray]:
    """Causal conv of [..., T, C_in]: the [..., T, K*C_in] tap stack and
    y[t] = sum_r x[t - r*d] @ kernel[r] + bias, zero-padded on the left.

    Channels r*C_in .. (r+1)*C_in - 1 of the stack hold x delayed by r*d steps.
    """
    k, c_in, c_out = kernel.shape
    t = x.shape[-2]
    stacked = np.zeros(x.shape[:-1] + (k * c_in,))
    for r, s in _live_taps(k, dilation, t):
        stacked[..., s:, r * c_in:(r + 1) * c_in] = x[..., :t - s, :]
    y = stacked.reshape(-1, k * c_in) @ kernel.reshape(k * c_in, c_out)
    y += bias
    return stacked, y.reshape(x.shape[:-1] + (c_out,))


@dataclass
class DenseLayer:
    """Affine map from a feature vector to the 7-day output head."""

    weights: Tensor
    bias: Tensor

    @classmethod
    def create(cls, rng: np.random.Generator, c_in: int, c_out: int) -> "DenseLayer":
        weights = Tensor(uniform_init(rng, (c_in, c_out), c_in), requires_grad=True)
        bias = Tensor(np.zeros(c_out), requires_grad=True)
        return cls(weights, bias)

    def apply(self, x: Tensor) -> Tensor:
        """x @ W + b on [B, F] as one graph node."""
        weights, bias = self.weights, self.bias

        def backprop(g: np.ndarray) -> None:
            x.accumulate(g @ weights.data.T)
            weights.accumulate(x.data.T @ g)
            bias.accumulate(g.sum(axis=0))

        return Tensor(x.data @ weights.data + bias.data, _parents=(x, weights, bias),
                      _backward=backprop)


@dataclass
class ResidualBlock:
    """ReLU-activated causal conv plus a skip path (1x1 projection on width change).

    The conv has kernel [K, C_in, C_out], bias [C_out] and dilation >= 1.
    """

    kernel: Tensor
    bias: Tensor
    dilation: int
    projection: Tensor | None = None  # [C_in, C_out] when widths differ

    @classmethod
    def create(cls, rng: np.random.Generator, kernel_size: int, c_in: int, c_out: int,
               dilation: int) -> "ResidualBlock":
        kernel = Tensor(uniform_init(rng, (kernel_size, c_in, c_out), kernel_size * c_in),
                        requires_grad=True)
        bias = Tensor(np.zeros(c_out), requires_grad=True)
        projection = None
        if c_in != c_out:
            projection = Tensor(uniform_init(rng, (c_in, c_out), c_in), requires_grad=True)
        return cls(kernel, bias, dilation, projection)

    def apply(self, x: Tensor) -> Tensor:
        """relu(conv(x)) + skip(x) on [B, T, C_in] as one graph node."""
        kernel, bias, dilation, projection = self.kernel, self.bias, self.dilation, self.projection
        k, c_in, c_out = kernel.data.shape
        t = x.data.shape[-2]
        stacked, pre = conv_forward(x.data, kernel.data, bias.data, dilation)
        mask = pre > 0.0
        out = np.maximum(pre, 0.0, out=pre)
        if projection is None:
            out += x.data
        else:
            out += (x.data.reshape(-1, c_in) @ projection.data).reshape(out.shape)

        def backprop(g: np.ndarray) -> None:
            g_pre = g * mask
            g_flat = g_pre.reshape(-1, c_out)
            bias.accumulate(g_pre.sum(axis=0).sum(axis=0))
            kernel.accumulate((stacked.reshape(-1, k * c_in).T @ g_flat)
                              .reshape(kernel.data.shape))
            if projection is not None:
                projection.accumulate(x.data.reshape(-1, c_in).T @ g.reshape(-1, c_out))
            if not x.needs_grad:
                return
            g_stacked = (g_flat @ kernel.data.reshape(k * c_in, c_out).T).reshape(stacked.shape)
            g_x = np.zeros_like(x.data)
            for r, s in _live_taps(k, dilation, t):
                g_x[..., :t - s, :] += g_stacked[..., s:, r * c_in:(r + 1) * c_in]
            g_x += g if projection is None else g @ projection.data.T
            x.accumulate(g_x)

        parents = (x, kernel, bias) if projection is None else (x, kernel, bias, projection)
        return Tensor(out, _parents=parents, _backward=backprop)


@dataclass
class TcnBranch:
    """Stack of residual dilated-conv blocks; output feature width is the last block's."""

    blocks: list[ResidualBlock]

    @classmethod
    def create(cls, rng: np.random.Generator, c_in: int, channels: int, kernel_size: int,
               dilations: list[int]) -> "TcnBranch":
        blocks = []
        width = c_in
        for d in dilations:
            blocks.append(ResidualBlock.create(rng, kernel_size, width, channels, d))
            width = channels
        return cls(blocks)

    @property
    def out_width(self) -> int:
        return self.blocks[-1].kernel.data.shape[2]

    def apply(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block.apply(x)
        return x

    def params(self) -> list[Tensor]:
        """Each block's kernel, bias and projection (if any), block by block."""
        return [p for block in self.blocks
                for p in (block.kernel, block.bias, block.projection) if p is not None]


def attention_forward(x1: np.ndarray, x2: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Keys [B, L, F], query [B, F], weights [B, L] and fused rows [B, F] of
    two branches [B, T1, F] and [B, T2, F].

    Keys are the concatenated rows of both branches, the query is the last row
    of the first branch, similarities are raw (unscaled) dot products, and the
    value rows equal the keys.
    """
    keys = np.concatenate([x1, x2], axis=-2)
    query = x1[..., -1, :]
    b, l, f = keys.shape
    sim = (keys @ query.reshape(b, -1, 1)).reshape(b, l)
    e = np.exp(sim - sim.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    return keys, query, alpha, (alpha.reshape(b, 1, l) @ keys).reshape(b, f)


def attention_fuse_graph(x1: Tensor, x2: Tensor) -> Tensor:
    """Fuse two branches ([B, T1, F] and [B, T2, F]) into one [B, F] feature
    row as one graph node."""
    keys, query, alpha, fused = attention_forward(x1.data, x2.data)
    b, l, f = keys.shape
    t1 = x1.data.shape[-2]

    def backprop(g: np.ndarray) -> None:
        g_alpha = (keys @ g.reshape(b, f, 1)).reshape(b, l)
        g_sim = alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True))
        g_keys = np.einsum("bl,bf->blf", alpha, g)
        g_keys += np.einsum("bl,bf->blf", g_sim, query)
        g_keys[:, t1 - 1, :] += (g_sim.reshape(b, 1, l) @ keys).reshape(b, f)
        x1.accumulate(g_keys[:, :t1, :])
        x2.accumulate(g_keys[:, t1:, :])

    return Tensor(fused, _parents=(x1, x2), _backward=backprop)
