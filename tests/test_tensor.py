"""Autodiff tests: per-op gradient checks, optimizer, checkpoint container."""

import numpy as np
import pytest

from gradcheck import grad_check
from parkrank import tensor as T
from parkrank.errors import DataError, DimensionError

TOL = 1e-7


def leaf(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


class TestForwardOracles:
    def test_matmul_hand_example(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        out = T.matmul(a, b)
        assert out.data.tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_conv1d_is_sliding_dot_product(self):
        x = T.Tensor([1.0, 2.0, 3.0, 4.0])
        w = T.Tensor([[2.0, 1.0]])
        out = T.conv1d(x, w)
        # correlation semantics: out[p] = 2*x[p] + 1*x[p+1]
        assert out.data.tolist() == [[4.0, 7.0, 10.0]]

    def test_conv1d_batched_channels(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 5, 7))
        w = rng.standard_normal((4, 2))
        out = T.conv1d(T.Tensor(x), T.Tensor(w))
        assert out.shape == (3, 5, 4, 6)
        # spot-check one entry against the definition
        b, v, c, p = 1, 2, 3, 4
        expected = x[b, v, p] * w[c, 0] + x[b, v, p + 1] * w[c, 1]
        assert out.data[b, v, c, p] == pytest.approx(expected)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = T.softmax(T.Tensor(rng.standard_normal((4, 6))), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 5))
        a = T.log_softmax(T.Tensor(x), axis=-1).data
        b = np.log(T.softmax(T.Tensor(x), axis=-1).data)
        assert np.allclose(a, b, atol=1e-12)

    def test_masked_fill_replaces_only_masked(self):
        x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        out = T.masked_fill(x, mask, -5.0)
        assert out.data.tolist() == [[-5.0, 2.0], [3.0, -5.0]]


class TestShapeErrors:
    def test_matmul_mismatch_names_op(self):
        with pytest.raises(DimensionError, match="matmul"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))

    def test_add_mismatch_names_op(self):
        with pytest.raises(DimensionError, match="add"):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4,))))

    def test_conv_kernel_longer_than_input(self):
        with pytest.raises(DimensionError, match="conv1d"):
            T.conv1d(T.Tensor(np.zeros(2)), T.Tensor(np.zeros((1, 5))))

    def test_backward_requires_scalar(self):
        x = T.Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError, match="scalar"):
            T.backward(T.relu(x))


class TestGradients:
    """Central-difference checks, one op at a time."""

    def check(self, build, params):
        err = grad_check(build, params, h=1e-5)
        assert err < TOL, f"gradient error {err}"

    def test_add_sub_mul_broadcast(self):
        rng = np.random.default_rng(10)
        a = leaf(rng, 3, 4)
        b = leaf(rng, 4)
        c = leaf(rng, 3, 1)
        self.check(
            lambda: T.reduce_sum(T.mul(T.sub(T.add(a, b), c), a)), [a, b, c]
        )

    def test_matmul_batched(self):
        rng = np.random.default_rng(11)
        a = leaf(rng, 2, 3, 4)
        b = leaf(rng, 4, 5)
        self.check(lambda: T.reduce_sum(T.matmul(a, b)), [a, b])

    def test_conv1d(self):
        rng = np.random.default_rng(12)
        x = leaf(rng, 2, 3, 6)
        w = leaf(rng, 4, 2)
        self.check(lambda: T.reduce_sum(T.conv1d(x, w)), [x, w])

    def test_activations(self):
        rng = np.random.default_rng(13)
        x = leaf(rng, 3, 3)
        self.check(lambda: T.reduce_sum(T.mul(T.relu(x), x)), [x])

    def test_softmax(self):
        rng = np.random.default_rng(14)
        x = leaf(rng, 4, 5)
        w = T.Tensor(rng.standard_normal((4, 5)))
        self.check(
            lambda: T.reduce_sum(T.mul(T.softmax(x, axis=-1), w)), [x]
        )

    def test_log_softmax_with_mask(self):
        rng = np.random.default_rng(15)
        x = leaf(rng, 3, 6)
        mask = rng.random((3, 6)) < 0.3
        mask[:, 0] = False  # keep at least one live entry per row
        y = T.Tensor(np.where(mask, 0.0, rng.random((3, 6))))

        def build():
            masked = T.masked_fill(x, mask, -1e30)
            logp = T.masked_fill(T.log_softmax(masked, axis=-1), mask, 0.0)
            return T.scale(T.reduce_sum(T.mul(y, logp)), -1.0)

        self.check(build, [x])

    def test_reductions_and_reshape(self):
        rng = np.random.default_rng(16)
        x = leaf(rng, 2, 3, 4)
        self.check(
            lambda: T.reduce_sum(
                T.reduce_mean(T.reshape(x, (6, 4)), axis=1)
            ),
            [x],
        )

    def test_concat(self):
        rng = np.random.default_rng(17)
        a = leaf(rng, 2, 3)
        b = leaf(rng, 2, 3)
        self.check(
            lambda: T.reduce_sum(
                T.mul(T.concat([a, b], axis=1), T.concat([b, a], axis=1))
            ),
            [a, b],
        )

    def test_neighbor_mix(self):
        rng = np.random.default_rng(18)
        weights = rng.standard_normal((5, 5))
        x = leaf(rng, 2, 5, 3)
        self.check(lambda: T.reduce_sum(T.neighbor_mix(weights, x)), [x])

    def test_take_repeated_indices(self):
        rng = np.random.default_rng(20)
        x = leaf(rng, 4, 5, 3)
        w0 = T.Tensor(rng.standard_normal((6, 5, 3)))
        w1 = T.Tensor(rng.standard_normal((4, 7, 3)))
        rows = np.array([3, 0, 3, 1, 3, 2])
        cols = np.array([0, 4, 4, 2, 0, 0, 1])
        self.check(
            lambda: T.add(
                T.reduce_sum(T.mul(T.take(x, rows, 0), w0)),
                T.reduce_sum(T.mul(T.take(x, cols, 1), w1)),
            ),
            [x],
        )

    def test_scatter(self):
        rng = np.random.default_rng(21)
        x = leaf(rng, 2, 4)
        w = T.Tensor(rng.standard_normal((2, 9)))
        index = np.array([7, 0, 3, 5])
        self.check(
            lambda: T.reduce_sum(T.mul(T.scatter(x, index, 9), w)), [x]
        )

    def test_composite_two_layer(self):
        rng = np.random.default_rng(19)
        x = T.Tensor(rng.standard_normal((4, 3)))
        w1 = leaf(rng, 3, 5)
        b1 = leaf(rng, 5)
        w2 = leaf(rng, 5, 2)
        self.check(
            lambda: T.reduce_sum(
                T.matmul(T.relu(T.add(T.matmul(x, w1), b1)), w2)
            ),
            [w1, b1, w2],
        )


class TestBackwardSemantics:
    def test_grads_accumulate_across_calls(self):
        x = T.Tensor([2.0], requires_grad=True)
        T.backward(T.reduce_sum(T.mul(x, x)))
        first = x.grad.copy()
        T.backward(T.reduce_sum(T.mul(x, x)))
        assert np.allclose(x.grad, 2 * first)

    def test_shared_subexpression_counted_once_per_use(self):
        x = T.Tensor([3.0], requires_grad=True)
        y = T.mul(x, x)  # x^2
        z = T.reduce_sum(T.add(y, y))  # 2 x^2 -> dz/dx = 4x = 12
        T.backward(z)
        assert np.allclose(x.grad, [12.0])

    def test_grads_kept_on_leaves_only(self):
        a = T.Tensor([1.0, 2.0], requires_grad=True)
        b = T.Tensor([3.0, 4.0], requires_grad=True)
        total = T.add(a, b)  # add hands one gradient array to both
        out = T.mul(total, total)
        T.backward(T.reduce_sum(out))
        assert total.grad is None and out.grad is None
        assert np.array_equal(a.grad, [8.0, 12.0])
        assert np.array_equal(b.grad, [8.0, 12.0])
        assert not np.shares_memory(a.grad, b.grad)

    def test_constant_inputs_get_no_grad(self):
        x = T.Tensor([1.0, 2.0])
        y = T.Tensor([3.0, 4.0], requires_grad=True)
        T.backward(T.reduce_sum(T.mul(x, y)))
        assert x.grad is None
        assert np.allclose(y.grad, [1.0, 2.0])


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = T.Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        state = T.AdamState([p])
        T.adam_step([p], state)
        assert p.data.tolist() == [1.0, -2.0]
        assert p.grad is None

    def test_first_step_matches_reference(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        p = T.Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        state = T.AdamState([p], learning_rate=0.002)
        T.adam_step([p], state)
        expected = 1.0 - 0.002 * 0.5 / (0.5 + 1e-8)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)
        assert state.step_count == 1

    def test_descends_a_quadratic(self):
        p = T.Tensor([4.0], requires_grad=True)
        state = T.AdamState([p], learning_rate=0.05)
        for _ in range(500):
            T.backward(T.reduce_sum(T.mul(p, p)))
            T.adam_step([p], state)
        assert abs(p.data[0]) < 1e-2

    def test_param_count_mismatch(self):
        p = T.Tensor([1.0], requires_grad=True)
        q = T.Tensor([1.0], requires_grad=True)
        state = T.AdamState([p])
        with pytest.raises(DimensionError, match="adam_step"):
            T.adam_step([p, q], state)


class TestGradCheckHarness:
    def test_reports_deliberately_broken_gradient(self):
        x = T.Tensor([1.5], requires_grad=True)

        def build():
            out = T.mul(x, x)
            # sabotage: double the true gradient
            original = out._backward_fn
            out._backward_fn = lambda g: tuple(
                2 * gg for gg in original(g)
            )
            return T.reduce_sum(out)

        assert grad_check(build, [x]) > 0.5

    def test_kink_filter_skips_hinge_entries(self):
        # w[0] sits within the probe step of the relu hinge; every other
        # entry is smooth, so the filtered check stays tight
        data = np.linspace(-2.0, 2.0, 24)  # even count: no exact zero
        data[0] = 2.5e-6
        w = T.Tensor(data, requires_grad=True)

        def build():
            return T.reduce_sum(T.relu(w))

        assert grad_check(build, [w]) > 0.1
        assert grad_check(build, [w], kink_filter=True) < 1e-8

    def test_kink_filter_refuses_saturated_inputs(self):
        w = T.Tensor(np.full(4, 1e-6), requires_grad=True)

        def build():
            return T.reduce_sum(T.relu(w))

        with pytest.raises(DimensionError, match="hinge"):
            grad_check(build, [w], kink_filter=True)

    def test_kink_filter_still_reports_sabotage(self):
        x = T.Tensor([1.5, -0.75], requires_grad=True)

        def build():
            out = T.mul(x, x)
            original = out._backward_fn
            out._backward_fn = lambda g: tuple(
                2 * gg for gg in original(g)
            )
            return T.reduce_sum(out)

        assert grad_check(build, [x], kink_filter=True) > 0.5


class TestCheckpoint:
    def entries(self):
        rng = np.random.default_rng(30)
        return {
            "layer.weight": rng.standard_normal((3, 4)),
            "layer.bias": rng.standard_normal(4),
            "scalar": np.array(2.5),
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "model.bin"
        manifest = {"alpha": 2, "activation": "relu"}
        T.save_checkpoint(path, self.entries(), manifest)
        loaded, got_manifest = T.load_checkpoint(path)
        assert got_manifest == manifest
        for name, arr in self.entries().items():
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].shape == arr.shape

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        manifest = {"b": 1, "a": 2}
        T.save_checkpoint(a, self.entries(), manifest)
        T.save_checkpoint(b, self.entries(), dict(sorted(manifest.items())))
        assert a.read_bytes() == b.read_bytes()

    def test_magic_is_validated(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            T.load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        T.save_checkpoint(path, self.entries(), {})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(DataError, match="truncated"):
            T.load_checkpoint(path)

    def test_magic_prefix(self, tmp_path):
        path = tmp_path / "model.bin"
        T.save_checkpoint(path, self.entries(), {})
        assert path.read_bytes().startswith(b"OPRLTR1")
