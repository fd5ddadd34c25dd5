import numpy as np
import pytest

from avsol import tensor as T


def rand(rng, *shape):
    return T.Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)


class TestForward:
    def test_softmax_of_constant_vector_is_uniform(self):
        y = T.softmax(T.Tensor(np.full(5, 3.7)), axis=0)
        assert np.allclose(y.data, 0.2)
        assert abs(y.data.sum() - 1.0) < 1e-12

    def test_softmax_sums_to_one_and_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            y = T.softmax(T.Tensor(rng.normal(size=9) * 10), axis=0)
            assert abs(y.data.sum() - 1.0) < 1e-12
            assert np.all(y.data > 0)

    def test_max_global_one_hot(self):
        x = np.zeros(6)
        x[4] = 2.5
        t = T.Tensor(x, requires_grad=True)
        m = T.max_global(t)
        assert m.data == 2.5
        T.backward(m)
        expected = np.zeros(6)
        expected[4] = 1.0
        assert np.array_equal(t.grad, expected)

    def test_conv2d_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.normal(size=(1, 7, 7)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = T.conv2d(x, T.Tensor(k), np.zeros(1))
        assert np.allclose(out.data, x.data)

    def test_conv_zero_kernel_gives_zeros(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(size=(2, 5, 5)))
        out = T.conv2d(x, T.Tensor(np.zeros((3, 2, 3, 3))), np.zeros(3))
        assert np.all(out.data == 0)

    def test_conv_superposition(self):
        # linear in both input and kernel
        rng = np.random.default_rng(4)
        x1, x2 = rng.normal(size=(2, 2, 6, 6))
        k1, k2 = rng.normal(size=(2, 3, 2, 3, 3))
        b = np.zeros(3)
        both = T.conv2d(T.Tensor(x1 + x2), T.Tensor(k1), b).data
        sep = T.conv2d(T.Tensor(x1), T.Tensor(k1), b).data + \
            T.conv2d(T.Tensor(x2), T.Tensor(k1), b).data
        assert np.allclose(both, sep)
        both_k = T.conv2d(T.Tensor(x1), T.Tensor(k1 + k2), b).data
        sep_k = T.conv2d(T.Tensor(x1), T.Tensor(k1), b).data + \
            T.conv2d(T.Tensor(x1), T.Tensor(k2), b).data
        assert np.allclose(both_k, sep_k)

    def test_shape_mismatch_raises(self):
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))))
        with pytest.raises(T.ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))
        with pytest.raises(T.ShapeError):
            T.conv2d(T.Tensor(np.zeros((2, 5, 5))), T.Tensor(np.zeros((1, 3, 3, 3))),
                     np.zeros(1))
        with pytest.raises(T.ShapeError, match=r"bias shape \(2,\) != \(1,\)"):
            T.conv2d(T.Tensor(np.zeros((3, 5, 5))), T.Tensor(np.zeros((1, 3, 3, 3))),
                     np.zeros(2))

    @pytest.mark.parametrize("magnitude", [40.0, 1000.0])
    def test_bce_is_finite_at_saturated_logits(self, magnitude):
        # sigmoid(40) rounds to exactly 1.0; the loss reads the logit instead
        x = T.Tensor(np.array([1.0, 1.0, -1.0, -1.0]) * magnitude, requires_grad=True)
        t = np.array([1.0, 0.0, 1.0, 0.0])
        loss = T.bce_loss(x, t)
        assert loss.item() == pytest.approx(2.0 * magnitude, rel=1e-12)
        T.backward(loss)
        sig = 0.5 * (1.0 + np.tanh(x.data / 2.0))  # an independent sigmoid
        assert np.all(np.isfinite(x.grad))
        assert np.allclose(x.grad, sig - t, rtol=0.0, atol=1e-15)


class TestBackward:
    def test_sum_of_parameter_gives_ones(self):
        t = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(6.0 * T.mean(t))
        assert np.allclose(t.grad, 1.0)

    def test_bce_sigmoid_canonical_identity(self):
        # d/dx BCE(sigmoid(x), 1) = sigmoid(x) - 1, with bce_loss reading x
        x = T.Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
        T.backward(T.bce_loss(x, np.ones(3)))
        sig = 1 / (1 + np.exp(-x.data))
        assert np.allclose(x.grad, sig - 1.0, atol=1e-12)

    def test_mean_axis_distributes_uniformly(self):
        t = T.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        T.backward(4.0 * T.mean(T.mean(t, axis=1)))
        assert np.array_equal(t.grad, np.full((3, 4), 1.0 / 3.0 * (4 / 4)))

    def test_non_scalar_loss_rejected(self):
        t = T.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(T.GraphError):
            T.backward(T.sigmoid(t))

    def test_second_backward_rejected(self):
        t = T.Tensor(np.zeros(3), requires_grad=True)
        loss = T.mean(T.sigmoid(t))
        T.backward(loss)
        with pytest.raises(T.GraphError):
            T.backward(loss)

    def test_random_composition_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w1, w2, w3 = rand(rng, 4, 4), rand(rng, 4, 4), rand(rng, 4)

        def fn(ts):
            h = T.tanh(T.matmul(ts[0], ts[1]))
            return T.mean(T.sigmoid(T.matmul(h, ts[2])))

        assert T.grad_check(fn, [w1, w2, w3]) <= 1e-6

    def test_linear_map_gradcheck_is_exact(self):
        rng = np.random.default_rng(8)
        a = rand(rng, 5)
        c = rng.normal(size=5)
        assert T.grad_check(lambda ts: T.mean(ts[0] * T.Tensor(c)), [a]) <= 1e-10


def reference_conv(x, w, b, r):
    """Naive 'same' convolution, one output cell and kernel tap at a time.

    Returns the output and the gradients of sum(output * r) with respect to
    x, w and b.
    """
    ksizes = w.shape[2:]
    spatial = x.shape[1:]
    out = np.zeros((w.shape[0],) + spatial)
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for p in np.ndindex(*spatial):
        for tap in np.ndindex(*ksizes):
            q = tuple(pi + ti - k // 2 for pi, ti, k in zip(p, tap, ksizes))
            if not all(0 <= qi < n for qi, n in zip(q, spatial)):
                continue
            wt = w[(slice(None), slice(None)) + tap]
            xq, rp = x[(slice(None),) + q], r[(slice(None),) + p]
            out[(slice(None),) + p] += wt @ xq
            dw[(slice(None), slice(None)) + tap] += np.outer(rp, xq)
            dx[(slice(None),) + q] += wt.T @ rp
    out += b.reshape((-1,) + (1,) * len(spatial))
    return out, dx, dw, r.reshape(r.shape[0], -1).sum(axis=1)


def assert_close(actual, expected):
    # float64 sums of up to a few thousand products taken in another order
    np.testing.assert_allclose(actual, expected, rtol=1e-10,
                               atol=1e-10 * max(1.0, np.abs(expected).max()))


class TestConvolutionAgainstReferenceLoop:
    @pytest.mark.parametrize("x_shape,w_shape", [
        ((1, 8, 24, 24), (6, 1, 1, 3, 3)),     # visual layer 1
        ((6, 8, 24, 24), (16, 6, 1, 3, 3)),    # visual layer 2
        ((6, 8, 24, 24), (8, 6, 1, 1, 1)),     # pointwise classification branch
        ((1, 16, 8), (8, 1, 3, 1)),            # audio layer 1
        ((8, 16, 8), (16, 8, 3, 1)),           # audio layer 2
        ((32, 6, 6), (16, 32, 3, 3)),          # ConvGRU gates
    ])
    def test_model_layer_shapes(self, x_shape, w_shape):
        rng = np.random.default_rng(len(x_shape) * 100 + x_shape[0])
        x, w = rand(rng, *x_shape), rand(rng, *w_shape)
        b = rand(rng, w_shape[0])
        r = rng.uniform(-1, 1, size=(w_shape[0],) + x_shape[1:])
        conv = T.conv2d if len(x_shape) == 3 else T.conv3d
        out = conv(x, w, b)
        T.backward(T.mean(out * T.Tensor(r * r.size)))
        ref_out, ref_dx, ref_dw, ref_db = reference_conv(x.data, w.data, b.data, r)
        assert_close(out.data, ref_out)
        assert_close(x.grad, ref_dx)
        assert_close(w.grad, ref_dw)
        assert_close(b.grad, ref_db)

    def test_same_kernel_on_two_sizes_in_turn(self):
        rng = np.random.default_rng(12)
        w = rng.uniform(-1, 1, size=(2, 3, 3, 3))
        for size in (5, 7, 5):
            x = rng.uniform(-1, 1, size=(3, size, size))
            out = T.conv2d(T.Tensor(x), T.Tensor(w), np.zeros(2))
            r = np.zeros((2, size, size))
            assert_close(out.data, reference_conv(x, w, np.zeros(2), r)[0])

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(13)
        x = T.Tensor(rng.uniform(-1, 1, size=(2, 4, 5)))
        w = rand(rng, 3, 2, 3, 3)
        T.backward(T.mean(T.conv2d(x, w, np.zeros(3))))
        assert x.grad is None
        assert w.grad is not None and w.grad.any()


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = T.Parameter("p", np.array([1.0, 2.0]))
        p.grad = np.zeros(2)
        T.adam_step([p], lr=1e-3)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_first_step_magnitude(self):
        # closed form: m_hat = g, v_hat = g^2, update = -lr * g/(|g|+eps)
        p = T.Parameter("p", np.zeros(1))
        p.grad = np.ones(1)
        T.adam_step([p], lr=1e-3)
        assert abs(p.data[0] + 1e-3) < 1e-6

    def test_constant_gradient_limit_approaches_lr(self):
        p = T.Parameter("p", np.zeros(1))
        prev = 0.0
        for _ in range(300):
            p.grad = np.full(1, 2.5)
            before = p.data[0]
            T.adam_step([p], lr=1e-3)
            prev = before - p.data[0]
        assert abs(prev - 1e-3) < 1e-5


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        params = [T.Parameter("a", rng.normal(size=(2, 3))),
                  T.Parameter("b", rng.normal(size=(4,)))]
        path = tmp_path / "ck.avwt"
        T.save_checkpoint(path, params)
        state = T.load_checkpoint(path)
        assert set(state) == {"a", "b"}
        assert np.array_equal(state["a"], params[0].data)
        assert np.array_equal(state["b"], params[1].data)


def composed_gru_cell(x, h, wu, bu, wr, br, wc, bc):
    """The GRU step written with separate ops, as the model composed it before
    the fused op existed: the reference gru_cell must match bit for bit."""
    d = x.shape[0]
    top, bottom = T.Tensor(np.eye(2 * d, d)), T.Tensor(np.eye(2 * d, d, -d))

    def stack(a, b):
        # [a; b] along the first axis: every entry is one product by 1 plus
        # products by 0, so the forward and both gradients are exact
        cells = a.size // d
        ab = (T.matmul(top, T.reshape(a, (d, cells)))
              + T.matmul(bottom, T.reshape(b, (d, cells))))
        return T.reshape(ab, (2 * d,) + a.shape[1:])

    xh = stack(x, h)
    z = T.sigmoid(T.conv2d(xh, wu, bu))
    r = T.sigmoid(T.conv2d(xh, wr, br))
    n = T.tanh(T.conv2d(stack(x, r * h), wc, bc))
    return (z * -1.0 + 1.0) * h + z * n


class TestGruCell:
    SHAPES = {"grid": ((3, 4, 5), (3, 6, 3, 3)), "pointwise": ((4, 1, 1), (4, 8, 1, 1))}

    def inputs(self, seed, state, h_requires_grad=True):
        rng = np.random.default_rng(seed)
        shape, wshape = self.SHAPES[state]
        arrays = [rng.normal(size=shape), rng.normal(size=shape)]
        for _ in range(3):
            arrays += [rng.normal(scale=0.5, size=wshape), rng.normal(size=shape[0])]
        scale = rng.uniform(0.5, 1.5, size=shape)
        tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
        tensors[1].requires_grad = h_requires_grad
        return tensors, scale

    @pytest.mark.parametrize("state", ["grid", "pointwise"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_identical_to_the_composed_cell(self, state, seed):
        results = []
        for cell in (T.gru_cell, composed_gru_cell):
            ts, scale = self.inputs(seed, state)
            out = cell(*ts)
            T.backward(T.mean(out * T.Tensor(scale)))
            results.append((out.data, [t.grad for t in ts]))
        (fused, fused_grads), (ref, ref_grads) = results
        assert np.abs(fused).max() > 0.1
        assert np.array_equal(fused, ref)
        for k, (got, want) in enumerate(zip(fused_grads, ref_grads)):
            assert want is not None and np.abs(want).max() > 0, k
            assert np.array_equal(got, want), k

    @pytest.mark.parametrize("state", ["grid", "pointwise"])
    def test_constant_state_gets_no_gradient(self, state):
        results = []
        for cell in (T.gru_cell, composed_gru_cell):
            ts, scale = self.inputs(5, state, h_requires_grad=False)
            T.backward(T.mean(cell(*ts) * T.Tensor(scale)))
            results.append([t.grad for t in ts])
        fused, ref = results
        assert fused[1] is None and ref[1] is None
        for got, want in zip(fused[:1] + fused[2:], ref[:1] + ref[2:]):
            assert np.array_equal(got, want)

    def test_one_node_per_step(self):
        ts, _ = self.inputs(6, "grid")
        out = T.gru_cell(*ts)
        assert out._op == "gru_cell" and out._parents == tuple(ts)

    def test_mismatched_shapes_raise(self):
        ts, _ = self.inputs(7, "grid")
        with pytest.raises(T.ShapeError, match="gru_cell"):
            T.gru_cell(ts[0], T.Tensor(np.zeros((3, 4, 4))), *ts[2:])
        with pytest.raises(T.ShapeError, match="gru_cell"):
            T.gru_cell(*ts[:4], T.Tensor(np.zeros((3, 6, 1, 3))), *ts[5:])
        ps, _ = self.inputs(7, "pointwise")
        with pytest.raises(T.ShapeError, match="gru_cell"):
            T.gru_cell(*ps[:7], T.Tensor(np.zeros(3)))
        # a (D,) state with (D, 2D) matrices is not a grid: it must be run as (D, 1, 1)
        vector = [T.Tensor(t.data[..., 0, 0] if t.data.ndim > 1 else t.data) for t in ps]
        with pytest.raises(T.ShapeError, match=r"gru_cell: input \(4,\) and state \(4,\)"):
            T.gru_cell(*vector)

    def test_non_finite_pre_activation_raises(self):
        ts, _ = self.inputs(8, "pointwise")
        ts[0] = T.Tensor(np.full((4, 1, 1), 1e308))
        ts[2] = T.Tensor(np.ones((4, 8, 1, 1)))  # update gate: 4e308 overflows
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="update gate pre-activation must be finite"):
            T.gru_cell(*ts)
