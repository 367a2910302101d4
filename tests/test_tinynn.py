import numpy as np
import pytest

import tinynn_reference as ref
from topogate import tinynn as nn


def rand(rng, *shape):
    return rng.standard_normal(shape)


class TestLinear:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        y = nn.linear_forward(x, np.eye(3), np.zeros(3))
        assert np.array_equal(y, x)

    def test_zero_dy_zero_grads(self, rng):
        x, w = rand(rng, 4, 3), rand(rng, 2, 3)
        dx, dw, db = nn.linear_backward(x, w, np.zeros((4, 2)))
        assert not dx.any() and not dw.any() and not db.any()

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            nn.linear_forward(rand(rng, 4), rand(rng, 2, 3), np.zeros(2))

    def test_gradients(self, rng):
        x, w, b = rand(rng, 5, 3), rand(rng, 2, 3), rand(rng, 2)
        dy = rand(rng, 5, 2)
        dx, dw, db = nn.linear_backward(x, w, dy)
        ref.check_gradient(lambda v: np.sum(nn.linear_forward(v, w, b) * dy), x, dx, rtol=1e-6)
        ref.check_gradient(lambda v: np.sum(nn.linear_forward(x, v, b) * dy), w, dw, rtol=1e-6)
        ref.check_gradient(lambda v: np.sum(nn.linear_forward(x, w, v) * dy), b, db, rtol=1e-6)


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert nn.sigmoid_forward(np.zeros(1))[0] == 0.5

    def test_relu_negative(self):
        x = np.array([-3.0])
        assert nn.relu_forward(x)[0] == 0.0
        assert nn.relu_backward(x, np.ones(1))[0] == 0.0

    def test_gradients(self, rng):
        x = rand(rng, 7) + 0.05  # keep away from the relu kink
        dy = rand(rng, 7)
        ref.check_gradient(
            lambda v: np.sum(nn.relu_forward(v) * dy), x, nn.relu_backward(x, dy)
        )
        y = nn.sigmoid_forward(x)
        ref.check_gradient(
            lambda v: np.sum(nn.sigmoid_forward(v) * dy), x, nn.sigmoid_backward(y, dy)
        )


class TestSetMaxPool:
    def test_identical_rows(self):
        pts = np.tile([1.0, 2.0], (4, 1))
        y, arg = nn.set_max_pool_forward(pts)
        assert np.array_equal(y, [1.0, 2.0])
        assert np.array_equal(arg, [0, 0])  # ties go to the lowest row

    def test_permutation_invariance(self, rng):
        pts = rand(rng, 6, 3)
        y1, _ = nn.set_max_pool_forward(pts)
        y2, _ = nn.set_max_pool_forward(pts[::-1].copy())
        assert np.array_equal(y1, y2)

    def test_all_padding_fallback(self):
        # encode_pd drops padded rows, so an all-padding diagram pools zero rows
        y, arg = nn.set_max_pool_forward(np.ones((0, 2)))
        assert np.array_equal(y, [0.0, 0.0]) and np.all(arg == -1)

    def test_gradients(self, rng):
        pts = rand(rng, 5, 4)  # tie-free with probability 1
        dy = rand(rng, 4)
        _, arg = nn.set_max_pool_forward(pts)
        dx = nn.set_max_pool_backward(pts.shape, arg, dy)
        ref.check_gradient(lambda v: np.sum(nn.set_max_pool_forward(v)[0] * dy), pts, dx)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = nn.softmax_cross_entropy(np.zeros(5), 2)
        assert loss == pytest.approx(np.log(5))

    def test_margin_drives_loss_down(self):
        losses = [nn.softmax_cross_entropy(np.array([m, 0.0]), 0)[0] for m in (0, 2, 5, 10)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_gradient(self, rng):
        logits = rand(rng, 6)
        _, dlogits = nn.softmax_cross_entropy(logits, 3)
        ref.check_gradient(lambda v: nn.softmax_cross_entropy(v, 3)[0], logits, dlogits)


class TestConvAndPooling:
    def test_conv_gradients(self, rng):
        x, w, b = rand(rng, 5, 6, 2), rand(rng, 3, 2, 3, 3), rand(rng, 3)
        dy = rand(rng, 5, 6, 3)
        _, patches = nn.conv3x3_forward(x, w, b)
        dx, dw, db = nn.conv3x3_backward(x, w, patches, dy)
        assert np.array_equal(nn.conv3x3_input_backward(x.shape, w, dy), dx)
        dw1, db1 = nn.conv3x3_param_backward(w, patches, dy)
        assert np.array_equal(dw1, dw) and np.array_equal(db1, db)
        ref.check_gradient(lambda v: np.sum(nn.conv3x3_forward(v, w, b)[0] * dy), x, dx)
        ref.check_gradient(lambda v: np.sum(nn.conv3x3_forward(x, v, b)[0] * dy), w, dw)
        ref.check_gradient(lambda v: np.sum(nn.conv3x3_forward(x, w, v)[0] * dy), b, db)

    def test_maxpool_gradients(self, rng):
        x = rand(rng, 4, 6, 3)
        dy = rand(rng, 2, 3, 3)
        _, arg = nn.maxpool2x2_forward(x)
        dx = nn.maxpool2x2_backward(x.shape, arg, dy)
        ref.check_gradient(lambda v: np.sum(nn.maxpool2x2_forward(v)[0] * dy), x, dx)

    def test_maxpool_requires_even(self, rng):
        with pytest.raises(ValueError):
            nn.maxpool2x2_forward(rand(rng, 3, 4, 1))

    def test_global_avg_pool_gradients(self, rng):
        x = rand(rng, 4, 4, 2)
        dy = rand(rng, 2)
        dx = nn.global_avg_pool_backward(x.shape, dy)
        ref.check_gradient(lambda v: np.sum(nn.global_avg_pool_forward(v) * dy), x, dx)


def bits(a: np.ndarray) -> bytes:
    """dtype, shape and raw bytes: equal only if every value has the same bits."""
    a = np.ascontiguousarray(a)
    return str(a.dtype).encode() + repr(a.shape).encode() + a.tobytes()


class TestReferenceParity:
    """Bitwise agreement with the kernels in tests/tinynn_reference.py."""

    @pytest.mark.parametrize("kind", ["random", "integer-ties", "signed-zeros"])
    @pytest.mark.parametrize("shape", [(2, 2, 1), (4, 6, 3), (64, 64, 16), (32, 32, 32)])
    def test_maxpool_forward(self, rng, kind, shape):
        if kind == "random":
            x = rng.standard_normal(shape)
        elif kind == "integer-ties":
            x = rng.integers(-1, 2, shape).astype(np.float64)
        else:  # windows of -0.0, 0.0 and some ones: ties between zeros of both signs
            x = rng.choice([-0.0, 0.0, -0.0, 0.0, 1.0, -1.0], shape)
        y, arg = nn.maxpool2x2_forward(x)
        y0, arg0 = ref.maxpool2x2_forward(x)
        assert bits(y) == bits(y0)
        assert np.array_equal(arg, arg0)
        dy = rng.standard_normal(y.shape)
        for d in (dy, dy[:, ::-1]):  # the model passes strided and broadcast views too
            assert bits(nn.maxpool2x2_backward(x.shape, arg, d)) == bits(
                ref.maxpool2x2_backward(x.shape, arg0, d))

    def test_maxpool_signed_zero_tie_keeps_first(self):
        x = np.array([-0.0, 0.0, 0.0, -0.0]).reshape(2, 2, 1)
        y, arg = nn.maxpool2x2_forward(x)
        assert arg[0, 0, 0] == 0 and np.signbit(y[0, 0, 0])
        y, arg = nn.maxpool2x2_forward(x[::-1].copy())  # 0.0, -0.0, -0.0, 0.0
        assert arg[0, 0, 0] == 0 and not np.signbit(y[0, 0, 0])

    @pytest.mark.parametrize("k", range(4))
    def test_maxpool_nan_as_documented(self, k):
        """y is NaN exactly when the window's top-left element is NaN."""
        x = np.array([1.0, 3.0, 2.0, 0.5])
        x[k] = np.nan
        y, arg = nn.maxpool2x2_forward(x.reshape(2, 2, 1))
        if k == 0:
            assert np.isnan(y[0, 0, 0]) and arg[0, 0, 0] == 0
        else:
            rest = np.where(np.isnan(x), -np.inf, x)
            assert y[0, 0, 0] == rest.max() and arg[0, 0, 0] == rest.argmax()

    @pytest.mark.parametrize("shape,cout", [((64, 64, 1), 16), ((32, 32, 16), 32), ((5, 7, 2), 3)])
    def test_conv(self, rng, shape, cout):
        x = rng.random(shape)
        w, b = rng.standard_normal((cout, shape[2], 3, 3)), rng.standard_normal(cout)
        # signed zeros in dy where the mask is off
        dy = rng.standard_normal(shape[:2] + (cout,)) * (rng.random(shape[:2] + (cout,)) < 0.5)
        for xin in (x, x[:, ::-1]):  # a flipped image is a strided view
            y, patches = nn.conv3x3_forward(xin, w, b)
            y0, patches0 = ref.conv3x3_forward(xin, w, b)
            assert bits(y) == bits(y0) and bits(patches) == bits(patches0)
            expected = ref.conv3x3_backward(xin, w, patches0, dy)
            got = nn.conv3x3_backward(xin, w, patches, dy)
            assert [bits(a) for a in got] == [bits(a) for a in expected]
            # block 1 of the model takes only the parameter gradients
            assert [bits(a) for a in nn.conv3x3_param_backward(w, patches, dy)] == [
                bits(a) for a in expected[1:]]

    @pytest.mark.parametrize("x_shape", [(7, 5), (300, 5), (5,)])
    def test_linear_forward(self, rng, x_shape):
        x = rng.standard_normal(x_shape)
        w, b = rng.standard_normal((4, 5)), rng.standard_normal(4)
        assert bits(nn.linear_forward(x, w, b)) == bits(ref.linear_forward(x, w, b))


class TestComposition:
    def test_three_layer_composite(self, rng):
        """Chain-rule wiring check on linear -> relu -> linear -> sigmoid -> sum."""
        x = rand(rng, 4)
        w1, b1 = rand(rng, 5, 4), rand(rng, 5)
        w2, b2 = rand(rng, 3, 5), rand(rng, 3)

        def fwd(w1v):
            z1 = nn.linear_forward(x, w1v, b1)
            a1 = nn.relu_forward(z1)
            z2 = nn.linear_forward(a1, w2, b2)
            return np.sum(nn.sigmoid_forward(z2))

        z1 = nn.linear_forward(x, w1, b1)
        a1 = nn.relu_forward(z1)
        z2 = nn.linear_forward(a1, w2, b2)
        y = nn.sigmoid_forward(z2)
        dz2 = nn.sigmoid_backward(y, np.ones(3))
        da1, dw2, db2 = nn.linear_backward(a1, w2, dz2)
        dz1 = nn.relu_backward(z1, da1)
        dx, dw1, db1 = nn.linear_backward(x, w1, dz1)
        ref.check_gradient(fwd, w1, dw1)
        ref.check_gradient(lambda v: np.sum(
            nn.sigmoid_forward(nn.linear_forward(nn.relu_forward(nn.linear_forward(x, w1, b1)), v, b2))
        ), w2, dw2)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"p": np.array([1.0, 1.0])}
        nn.adam_step(params, {"p": np.array([0.3, -7.0])}, nn.AdamState(), 0.1)
        assert np.allclose(params["p"], [1.0 - 0.1, 1.0 + 0.1], atol=1e-6)

    def test_zero_gradient_no_move(self):
        params = {"p": np.array([2.0])}
        nn.adam_step(params, {"p": np.zeros(1)}, nn.AdamState(), 0.1)
        assert params["p"][0] == 2.0

    def test_deterministic(self, rng):
        def run():
            local = np.random.default_rng(9)
            params = {"p": local.standard_normal(4)}
            state = nn.AdamState()
            for _ in range(10):
                nn.adam_step(params, {"p": local.standard_normal(4)}, state, 0.01)
            return params["p"]

        assert np.array_equal(run(), run())


class TestPolyLr:
    def test_endpoints(self):
        assert nn.poly_lr(0.1, 0, 100) == 0.1
        assert nn.poly_lr(0.1, 100, 100) == 0.0

    def test_midpoint(self):
        assert nn.poly_lr(0.1, 50, 100) == pytest.approx(0.1 * 0.5**0.9)
