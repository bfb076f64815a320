import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import attention_reference, conv_reference, residual_block_reference

from freshplan import autodiff as ad, layers
from freshplan.autodiff import Tensor
from freshplan.layers import DenseLayer


def conv(x, kernel, bias=None, dilation=1) -> np.ndarray:
    """`conv_forward` of one [T] or [T, C_in] sequence, as [T, C_out]."""
    x = np.asarray(x, dtype=float)
    x = x[:, None] if x.ndim == 1 else x
    kernel = np.asarray(kernel, dtype=float)
    bias = np.zeros(kernel.shape[2]) if bias is None else np.asarray(bias, dtype=float)
    return layers.conv_forward(x[None], kernel, bias, dilation)[1][0]


def fuse(x1, x2) -> np.ndarray:
    """`attention_forward` of two [T, F] branches, as one [F] row."""
    return layers.attention_forward(x1[None], x2[None])[3][0]


def dense(x, layer: DenseLayer) -> np.ndarray:
    """The dense head's node on one [F] feature vector."""
    return layer.apply(Tensor(x[None])).data[0]


class TestConvExamples:
    def test_identity_kernel(self):
        assert conv([1, 2, 3], [[[1.0]], [[0.0]]]).ravel().tolist() == [1, 2, 3]

    def test_two_tap_average(self):
        assert conv([2, 4, 6], [[[0.5]], [[0.5]]]).ravel().tolist() == [1, 3, 5]

    def test_pure_delay(self):
        assert conv([1, 0, 0], [[[0.0]], [[1.0]]]).ravel().tolist() == [0, 1, 0]

    def test_dilated_two_tap(self):
        assert conv([1, 2, 3, 4], [[[1.0]], [[1.0]]], dilation=2).ravel().tolist() == [1, 2, 4, 6]

    def test_all_taps_in_padding(self):
        assert conv([5], [[[1.0]], [[1.0]], [[1.0]]], dilation=3).ravel().tolist() == [5]


def random_case(rng):
    T = int(rng.integers(1, 12))
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 4))
    K = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    x = rng.normal(size=(T, c_in))
    kernel = rng.normal(size=(K, c_in, c_out))
    bias = rng.normal(size=c_out)
    return x, kernel, bias, d


class TestConvOracle:
    def test_matches_brute_force_on_1000_cases(self):
        rng = np.random.default_rng(20240211)
        for _ in range(1000):
            x, kernel, bias, d = random_case(rng)
            got = conv(x, kernel, bias, d)
            want = conv_reference(x, kernel, bias, d)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_causality_under_future_perturbation(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x, kernel, bias, d = random_case(rng)
            if x.shape[0] < 2:
                continue
            t = int(rng.integers(0, x.shape[0] - 1))
            disturbed = x.copy()
            disturbed[t + 1:] += rng.normal(size=disturbed[t + 1:].shape)
            assert np.array_equal(conv(x, kernel, bias, d)[:t + 1],
                                  conv(disturbed, kernel, bias, d)[:t + 1])

    def test_dilation_one_equals_causal(self):
        """At dilation 1 the conv is the plain causal one; at dilation d it is
        the causal conv of the kernel with d - 1 zero taps between its taps."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            x, kernel, bias, d = random_case(rng)
            assert np.max(np.abs(conv(x, kernel, bias, 1)
                                 - conv_reference(x, kernel, bias, 1))) < 1e-12
            spread = np.zeros(((kernel.shape[0] - 1) * d + 1,) + kernel.shape[1:])
            spread[::d] = kernel
            assert np.max(np.abs(conv(x, kernel, bias, d) - conv(x, spread, bias, 1))) < 1e-12


class TestAttention:
    def test_identical_rows_return_that_row(self):
        row = np.array([0.3, -1.0, 2.0])
        x1 = np.tile(row, (4, 1))
        x2 = np.tile(row, (2, 1))
        assert np.allclose(fuse(x1, x2), row, atol=1e-12)

    def test_dominant_row_wins(self):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=(3, 4))
        x2 = rng.normal(size=(2, 4))
        query = x1[-1]
        x2[0] = 1e6 * query  # huge positive similarity with the query
        fused = fuse(x1, x2)
        assert np.max(np.abs(fused - x2[0])) / np.max(np.abs(x2[0])) < 1e-6

    def test_two_row_softmax_by_hand(self):
        q = np.array([2.0, 0.0])
        r = np.array([0.0, 1.0])  # orthogonal to q
        fused = fuse(q[None, :], r[None, :])
        w = np.exp([q @ q, 0.0])
        w /= w.sum()
        assert w[0] > w[1]
        assert np.allclose(fused, w[0] * q + w[1] * r, atol=1e-12)

    def test_weights_valid_and_output_in_envelope(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            t1, t2, f = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 5)
            x1 = rng.normal(size=(t1, f)) * rng.uniform(0.1, 10)
            x2 = rng.normal(size=(t2, f)) * rng.uniform(0.1, 10)
            keys = np.vstack([x1, x2])
            sim = keys @ x1[-1]
            shifted = np.exp(sim - sim.max())
            alpha = shifted / shifted.sum()
            assert np.all(alpha >= 0)
            assert abs(alpha.sum() - 1.0) < 1e-9
            fused = fuse(x1, x2)
            assert np.all(fused >= keys.min(axis=0) - 1e-12)
            assert np.all(fused <= keys.max(axis=0) + 1e-12)


class TestDense:
    def test_zero_weights_give_bias(self):
        layer = DenseLayer(Tensor(np.zeros((3, 7))), Tensor(np.full(7, 2.5)))
        assert dense(np.array([1.0, -1.0, 4.0]), layer).tolist() == [2.5] * 7

    def test_broadcast_single_feature(self):
        layer = DenseLayer(Tensor(np.ones((1, 7))), Tensor(np.zeros(7)))
        assert dense(np.array([3.0]), layer).tolist() == [3.0] * 7

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(6, 7))
        b = rng.normal(size=7)
        x = rng.normal(size=6)
        layer = DenseLayer(Tensor(w), Tensor(b))
        want = np.array([x @ w[:, j] + b[j] for j in range(7)])
        assert np.allclose(dense(x, layer), want, atol=1e-12)


@settings(max_examples=50)
@given(st.integers(1, 10), st.integers(1, 3), st.integers(1, 4), st.integers(1, 3))
def test_conv_output_shape(t, c_in, c_out, k):
    rng = np.random.default_rng(t * 100 + c_in * 10 + c_out)
    assert conv(rng.normal(size=(t, c_in)), rng.normal(size=(k, c_in, c_out))).shape == (t, c_out)


def test_residual_block_gradients_match_fd():
    rng = np.random.default_rng(9)
    # (3, 3) has the identity skip, (2, 3) the projection; dilation 3 puts
    # tap 2 at delay 6 >= T = 5, so it reads only padding.
    for c_in, c_out in ((3, 3), (2, 3)):
        for dilation in (1, 3):
            for batch in (1, 3):
                block = layers.ResidualBlock.create(rng, 3, c_in, c_out, dilation)
                assert (block.projection is None) == (c_in == c_out)
                x = Tensor(rng.normal(size=(batch, 5, c_in)), requires_grad=True)
                target = Tensor(rng.normal(size=(batch, 5, c_out)))
                params = [x, block.kernel, block.bias]
                params += [] if block.projection is None else [block.projection]

                def loss_fn():
                    return ad.mean((block.apply(x) - target) ** 2)

                assert ad.finite_difference_check(loss_fn, params) < 1e-6


def test_attention_node_gradients_match_fd():
    rng = np.random.default_rng(10)
    for t1 in (1, 4):  # with T1 = 1 the query row is the only cost row
        for batch in (1, 3):
            x1 = Tensor(rng.normal(size=(batch, t1, 3)), requires_grad=True)
            x2 = Tensor(rng.normal(size=(batch, 2, 3)), requires_grad=True)
            target = Tensor(rng.normal(size=(batch, 3)))

            def loss_fn():
                return ad.mean((layers.attention_fuse_graph(x1, x2) - target) ** 2)

            assert ad.finite_difference_check(loss_fn, [x1, x2]) < 1e-6


def test_dense_node_gradients_match_fd():
    rng = np.random.default_rng(12)
    for batch in (1, 3):
        head = DenseLayer.create(rng, 4, 7)
        head.bias.data = rng.normal(size=7)
        x = Tensor(rng.normal(size=(batch, 4)), requires_grad=True)
        target = Tensor(rng.normal(size=(batch, 7)))

        def loss_fn():
            return ad.mean((head.apply(x) - target) ** 2)

        assert ad.finite_difference_check(loss_fn, [x, head.weights, head.bias]) < 1e-6


def test_block_skips_only_the_gradient_of_an_input_that_needs_none():
    rng = np.random.default_rng(11)
    for c_in, c_out in ((3, 3), (2, 3)):
        for dilation in (1, 3):
            block = layers.ResidualBlock.create(rng, 3, c_in, c_out, dilation)
            params = [block.kernel, block.bias]
            params += [] if block.projection is None else [block.projection]
            data = rng.normal(size=(2, 5, c_in))
            target = Tensor(rng.normal(size=(2, 5, c_out)))
            grads = {}
            for needs in (True, False):
                x = Tensor(data, requires_grad=needs)
                ad.backward(ad.mean((block.apply(x) - target) ** 2))
                assert (x.grad is not None) == needs
                grads[needs] = [p.grad.tobytes() for p in params]
                for p in params:
                    p.zero_grad()
            assert grads[True] == grads[False]


# C_in 1 (the cost branch) and 10 (the term branch) always project; 16 -> 16 is
# the identity skip of a deploy block after the first.  A kernel of 5 taps at
# T = 3 reaches past the start of the sequence, so its last taps read only
# padding.
BLOCK_CASES = [(c_in, c_out, 3, dilation, t)
               for c_in, c_out, t in ((1, 8, 15), (1, 16, 15), (10, 8, 7), (10, 16, 7),
                                      (16, 16, 15))
               for dilation in (1, 2)]
BLOCK_CASES += [(1, 8, 5, 1, 3), (10, 16, 5, 2, 3), (16, 16, 5, 2, 3)]


@pytest.mark.parametrize("c_in,c_out,kernel_size,dilation,t", BLOCK_CASES)
@pytest.mark.parametrize("batch", [1, 64])
def test_residual_block_matches_batched_reference(c_in, c_out, kernel_size, dilation, t, batch):
    rng = np.random.default_rng([c_in, c_out, kernel_size, dilation, t, batch])
    block = layers.ResidualBlock.create(rng, kernel_size, c_in, c_out, dilation)
    block.bias.data = rng.normal(size=c_out)
    assert (block.projection is None) == (c_in == c_out)
    x = Tensor(rng.normal(size=(batch, t, c_in)), requires_grad=True)
    g = rng.normal(size=(batch, t, c_out))
    projection = None if block.projection is None else block.projection.data
    want_out, want = residual_block_reference(x.data, block.kernel.data,
                                              block.bias.data, projection, dilation, g)

    out = block.apply(x)
    assert out.data.tobytes() == want_out.tobytes()
    out._backward(g)
    got = {"x": x.grad, "kernel": block.kernel.grad, "bias": block.bias.grad}
    if projection is not None:
        got["projection"] = block.projection.grad
    assert got.keys() == want.keys()
    for name, grad in got.items():
        assert grad.shape == want[name].shape, name
    # The same sums in the same order: the input's taps and skip, and the
    # bias's sum over time of the sum over the batch.
    for name in ("x", "bias"):
        assert got[name].tobytes() == want[name].tobytes(), name
    # Kernel and projection sums over batch and time now run as one flat GEMM,
    # whose rounding order differs from per-sample products summed afterwards.
    for name in set(got) - {"x", "bias"}:
        scale = np.max(np.abs(want[name]))
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name


@pytest.mark.parametrize("t1,t2,f", [(15, 7, 8), (15, 7, 16), (1, 3, 4)])
@pytest.mark.parametrize("batch", [1, 64])
def test_attention_node_matches_batched_reference(t1, t2, f, batch):
    rng = np.random.default_rng([t1, t2, f, batch])
    x1 = Tensor(rng.normal(size=(batch, t1, f)), requires_grad=True)
    x2 = Tensor(rng.normal(size=(batch, t2, f)), requires_grad=True)
    g = rng.normal(size=(batch, f))
    want_fused, want_g1, want_g2 = attention_reference(x1.data, x2.data, g)

    node = layers.attention_fuse_graph(x1, x2)
    assert node.data.tobytes() == want_fused.tobytes()
    node._backward(g)
    assert x1.grad.shape == want_g1.shape and x2.grad.shape == want_g2.shape
    assert x1.grad.tobytes() == want_g1.tobytes()
    assert x2.grad.tobytes() == want_g2.tobytes()
