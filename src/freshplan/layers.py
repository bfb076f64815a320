"""Neural layers for the two-branch cost model.

Causal convolutions read only the present and past: tap r of the kernel
multiplies the input delayed by r * dilation steps, with zero padding at the
start of the sequence.  The K delayed copies are stacked side by side on the
channel axis (`autodiff.delay_stack`, an im2col on the time axis), so a conv is
one matmul of that [B, T, K*C_in] stack against the kernel reshaped to
[K*C_in, C_out], plus the bias: four graph nodes whatever K is.

The attention fusion concatenates the feature rows of both branches, scores
every row against the most recent cost feature with a raw dot product,
softmax-normalizes the scores, and returns the weighted sum.

All layers operate on graph tensors shaped [batch, time, channels]; the
module-level `causal_conv` / `dilated_conv` / `attention_fuse` / `dense`
functions are plain-array wrappers over the same graph code for single inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InputError


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class ConvLayer:
    """Causal convolution with kernel [K, C_in, C_out], bias [C_out], dilation d >= 1."""

    kernel: Tensor
    bias: Tensor
    dilation: int = 1

    def __post_init__(self):
        if self.kernel.data.ndim != 3:
            raise InputError("kernel must have shape [K, C_in, C_out]")
        if self.dilation < 1:
            raise InputError(f"dilation must be >= 1, got {self.dilation}")

    @classmethod
    def create(cls, rng: np.random.Generator, kernel_size: int, c_in: int, c_out: int,
               dilation: int = 1) -> "ConvLayer":
        kernel = Tensor(uniform_init(rng, (kernel_size, c_in, c_out), kernel_size * c_in),
                        requires_grad=True)
        bias = Tensor(np.zeros(c_out), requires_grad=True)
        return cls(kernel, bias, dilation)

    def apply(self, x: Tensor) -> Tensor:
        """y[t] = sum_r x[t - r*d] @ kernel[r] + bias, zero-padded on the left."""
        k, c_in, c_out = self.kernel.data.shape
        stacked = ad.delay_stack(x, k, self.dilation)
        return ad.add(ad.matmul(stacked, ad.reshape(self.kernel, (k * c_in, c_out))), self.bias)


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
        return ad.add(ad.matmul(x, self.weights), self.bias)


@dataclass
class ResidualBlock:
    """ReLU-activated causal conv plus a skip path (1x1 projection on width change)."""

    conv: ConvLayer
    projection: Tensor | None = None  # [C_in, C_out] when widths differ

    @classmethod
    def create(cls, rng: np.random.Generator, kernel_size: int, c_in: int, c_out: int,
               dilation: int) -> "ResidualBlock":
        conv = ConvLayer.create(rng, kernel_size, c_in, c_out, dilation)
        projection = None
        if c_in != c_out:
            projection = Tensor(uniform_init(rng, (c_in, c_out), c_in), requires_grad=True)
        return cls(conv, projection)

    def apply(self, x: Tensor) -> Tensor:
        h = ad.relu(self.conv.apply(x))
        skip = x if self.projection is None else ad.matmul(x, self.projection)
        return ad.add(h, skip)


@dataclass
class TcnBranch:
    """Stack of residual dilated-conv blocks; output feature width is the last block's."""

    blocks: list[ResidualBlock] = field(default_factory=list)

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
        return self.blocks[-1].conv.kernel.data.shape[2]

    def apply(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block.apply(x)
        return x

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        named = []
        for i, block in enumerate(self.blocks):
            named.append((f"{prefix}.block{i}.kernel", block.conv.kernel))
            named.append((f"{prefix}.block{i}.bias", block.conv.bias))
            if block.projection is not None:
                named.append((f"{prefix}.block{i}.projection", block.projection))
        return named


def attention_fuse_graph(x1: Tensor, x2: Tensor) -> Tensor:
    """Fuse two branches ([B, T1, F] and [B, T2, F]) into one [B, F] feature row.

    Keys are the concatenated rows of both branches, the query is the last row
    of the first branch, similarities are raw (unscaled) dot products, and the
    value rows equal the keys.
    """
    keys = ad.concat_time(x1, x2)                      # [B, L, F]
    query = ad.last_step(x1)                           # [B, F]
    b, l = keys.data.shape[0], keys.data.shape[1]
    sim = ad.matmul(keys, ad.reshape(query, (b, -1, 1)))   # [B, L, 1]
    alpha = ad.softmax_last(ad.reshape(sim, (b, l)))       # [B, L]
    fused = ad.matmul(ad.reshape(alpha, (b, 1, l)), keys)  # [B, 1, F]
    return ad.reshape(fused, (b, keys.data.shape[2]))


# -- plain-array entry points ------------------------------------------------


def _as_time_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError(f"expected a [T] or [T, C] input, got shape {arr.shape}")
    return arr


def causal_conv(x, layer: ConvLayer) -> np.ndarray:
    """Causal convolution of a [T, C_in] sequence; requires dilation 1."""
    if layer.dilation != 1:
        raise InputError("causal_conv requires dilation 1; use dilated_conv")
    return dilated_conv(x, layer)


def dilated_conv(x, layer: ConvLayer) -> np.ndarray:
    """Dilated causal convolution of a [T, C_in] sequence to [T, C_out]."""
    arr = _as_time_matrix(x)
    out = layer.apply(Tensor(arr[None, :, :]))
    return out.data[0]


def attention_fuse(x1, x2) -> np.ndarray:
    """Dot-product attention fusion of two [T, F] feature matrices to one [F] row."""
    a1, a2 = _as_time_matrix(x1), _as_time_matrix(x2)
    if a1.shape[1] != a2.shape[1]:
        raise InputError("branches must share feature width")
    if a1.shape[0] < 1 or a2.shape[0] < 1:
        raise InputError("each branch needs at least one row")
    out = attention_fuse_graph(Tensor(a1[None, :, :]), Tensor(a2[None, :, :]))
    return out.data[0]


def dense(x, layer: DenseLayer) -> np.ndarray:
    """Affine head applied to one [F] feature vector."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != layer.weights.data.shape[0]:
        raise InputError(f"expected a length-{layer.weights.data.shape[0]} vector")
    return layer.apply(Tensor(arr[None, :])).data[0]
