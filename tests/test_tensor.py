"""Autodiff tests: per-op gradient checks, optimizer, checkpoint container."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
import unfused_oracle
from gradcheck import grad_check
from unfused_oracle import reshape, take
from parkrank import model
from parkrank import tensor as T
from parkrank.errors import DataError, DimensionError

TOL = 1e-7
# six cells of a 3 x 4 grid, row-major: two in row 0, one in row 1, three
# in row 2
GRID = np.array([1, 3, 6, 8, 9, 11])
PAIRS = T.Pairs(GRID, (3, 4))


def leaf(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


class TestForwardOracles:
    def test_matmul_hand_example(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        out = T.matmul(a, b)
        assert out.data.tolist() == [[19.0, 22.0], [43.0, 50.0]]

    def test_conv1d_is_sliding_dot_product(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        w = T.Tensor([[2.0, 1.0]])
        out = T.conv1d(x, w, T.Tensor([0.5]))
        # correlation semantics: out[p] = 2*x[p] + 1*x[p+1] + 0.5
        assert out.data.tolist() == [[4.5, 7.5, 10.5]]

    def test_conv1d_batched_channels(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 5, 7))
        w, bias = rng.standard_normal((4, 2)), rng.standard_normal(4)
        out = T.conv1d(x, T.Tensor(w), T.Tensor(bias))
        assert out.shape == (3, 5, 4, 6)
        # spot-check one entry against the definition
        b, v, c, p = 1, 2, 3, 4
        expected = x[b, v, p] * w[c, 0] + x[b, v, p + 1] * w[c, 1] + bias[c]
        assert out.data[b, v, c, p] == pytest.approx(expected)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = T.softmax(T.Tensor(rng.standard_normal((4, 6))), PAIRS)
        rows = GRID // 4
        for r in range(3):
            assert np.allclose(out.data[:, rows == r].sum(axis=-1), 1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 6))
        a = T.log_softmax(T.Tensor(x), PAIRS).data
        b = np.log(T.softmax(T.Tensor(x), PAIRS).data)
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
            T.conv1d(np.zeros(2), T.Tensor(np.zeros((1, 5))), np.zeros(1))

    @pytest.mark.parametrize("bias", [(), (3,), (2, 1), (1, 2)])
    def test_conv1d_bias_mismatch_names_op(self, bias):
        with pytest.raises(DimensionError, match="conv1d: bias"):
            T.conv1d(np.zeros((3, 6)), T.Tensor(np.zeros((2, 2))),
                     T.Tensor(np.zeros(bias)))

    def test_dense_relu_mismatch_names_op(self):
        x, w = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 4)))
        with pytest.raises(DimensionError, match="dense_relu: inner"):
            T.dense_relu(x, T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros(2)))
        with pytest.raises(DimensionError, match="dense_relu: bias"):
            T.dense_relu(x, w, T.Tensor(np.zeros(3)))

    @pytest.mark.parametrize(
        "item, bias, grid",
        [
            pytest.param((2, 3, 5), (4,), (3, 3), id="features"),
            pytest.param((2, 3, 4), (5,), (3, 3), id="bias"),
            pytest.param((2, 3, 4), (4,), (4, 4), id="table-size"),
            pytest.param((2, 3, 4), (4,), (3, 4), id="grid-width"),
        ],
    )
    def test_pair_readout_mismatch_names_op(self, item, bias, grid):
        q = T.Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(DimensionError, match="pair_readout"):
            T.pair_readout(
                q, T.Tensor(np.zeros(item)), T.Tensor(np.zeros(bias)),
                T.Pairs([1, 2], grid),
            )

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
        # the input is a constant array: only the kernel and the bias have
        # gradients
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 6))
        w, b = leaf(rng, 4, 2), leaf(rng, 4)
        u = T.Tensor(rng.standard_normal((2, 3, 4, 5)))
        self.check(lambda: T.reduce_sum(T.mul(T.conv1d(x, w, b), u)), [w, b])

    def test_activations(self):
        rng = np.random.default_rng(13)
        x = leaf(rng, 3, 3)
        self.check(lambda: T.reduce_sum(T.mul(T.relu(x), x)), [x])

    def test_softmax(self):
        rng = np.random.default_rng(14)
        x = leaf(rng, 4, 6)
        w = T.Tensor(rng.standard_normal((4, 6)))
        self.check(
            lambda: T.reduce_sum(T.mul(T.softmax(x, PAIRS), w)), [x]
        )

    def test_log_softmax_with_mask(self):
        # the grid cells off the index are the masked ones
        rng = np.random.default_rng(15)
        x = leaf(rng, 3, 6)
        y = T.Tensor(rng.random((3, 6)))

        def build():
            logp = T.log_softmax(x, PAIRS)
            return T.mul(T.reduce_sum(T.mul(y, logp)), -1.0)

        self.check(build, [x])

    def test_row_sum(self):
        rng = np.random.default_rng(22)
        x = leaf(rng, 2, 6)
        w = T.Tensor(rng.standard_normal((2, 3)))
        self.check(
            lambda: T.reduce_sum(T.mul(T.row_sum(x, PAIRS), w)), [x]
        )

    def test_reductions_and_reshape(self):
        rng = np.random.default_rng(16)
        x = leaf(rng, 2, 3, 4)
        self.check(
            lambda: T.reduce_sum(
                T.reduce_mean(reshape(x, (6, 4)), axis=1)
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
        table, _ = dense_oracle.mix_tables(weights + weights.T)
        x = leaf(rng, 2, 5, 3)
        u = T.Tensor(rng.standard_normal((2, 5, 3)))
        self.check(
            lambda: T.reduce_sum(T.mul(T.neighbor_mix(table, x), u)), [x]
        )

    def test_take_repeated_indices(self):
        rng = np.random.default_rng(20)
        x = leaf(rng, 4, 5, 3)
        w0 = T.Tensor(rng.standard_normal((6, 5, 3)))
        w1 = T.Tensor(rng.standard_normal((4, 7, 3)))
        rows = [3, 0, 3, 1, 3, 2]
        cols = [0, 4, 4, 2, 0, 0, 1]
        self.check(
            lambda: T.add(
                T.reduce_sum(T.mul(take(x, rows, 0), w0)),
                T.reduce_sum(T.mul(take(x, cols, 1), w1)),
            ),
            [x],
        )

    def test_dense_relu(self):
        rng = np.random.default_rng(24)
        x, w, b = leaf(rng, 2, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
        u = T.Tensor(rng.standard_normal((2, 3, 5)))
        self.check(
            lambda: T.reduce_sum(T.mul(T.dense_relu(x, w, b), u)), [x, w, b]
        )

    def test_pair_readout(self):
        rng = np.random.default_rng(25)
        q, item, bias = leaf(rng, 2, 4, 3), leaf(rng, 2, 4, 3), leaf(rng, 3)
        # rows 0 and 1 hold two pairs each, row 3 and column 1 three
        pairs = T.Pairs([0, 1, 5, 7, 10, 12, 13, 15], (4, 4))
        u = T.Tensor(rng.standard_normal((2, 8)))
        self.check(
            lambda: T.reduce_sum(
                T.mul(T.pair_readout(q, item, bias, pairs), u)
            ),
            [q, item, bias],
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


def forward_and_grad(op, x, g):
    """op(x) and the gradient it hands x for the upstream gradient g."""
    leaf_x = T.Tensor(x, requires_grad=True)
    out = op(leaf_x)
    T.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
    return out.data, leaf_x.grad


def signed_zeros(rng, shape):
    """Normal draws with about a third of them +0.0 or -0.0."""
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape) < 0.2] = -0.0
    return x


def table_sum_oracle(index, size, values, axis, sources=None, weights=None):
    """NeighborTable.sum by a Python loop: entry by entry, in entry order,
    (the weight times) the source's slice of values added onto its target,
    which starts at +0.0. With index alone this is also take's backward,
    the unbuffered in-order sum np.add.at defines."""
    axis %= values.ndim
    at = (slice(None),) * axis
    out = np.zeros(values.shape[:axis] + (size,) + values.shape[axis + 1 :])
    for e, target in enumerate(index):
        term = values[at + (e if sources is None else sources[e],)]
        out[at + (target,)] += term if weights is None else weights[e] * term
    return out


class TestOrderedTables:
    """neighbor_mix, NeighborTable.sum and the take backward against the
    sums they stand for, bit for bit (tobytes): np.einsum over every
    column for the mix, a Python loop for the table and the gather."""

    def mix_weights(self, rng, n):
        """A symmetric matrix with some zero weights, an all-zero row and
        column, and a -0.75 pair."""
        w = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
        w = np.triu(w) + np.triu(w, 1).T
        w[1] = w[:, 1] = 0.0
        w[0, 2] = w[2, 0] = -0.75
        return w

    @pytest.mark.parametrize("shape", [(7, 3), (4, 7, 5), (2, 7, 16)])
    def test_neighbor_mix_matches_einsum(self, shape):
        rng = np.random.default_rng(30)
        w = self.mix_weights(rng, 7)
        x = rng.standard_normal(shape)
        g = rng.standard_normal(shape)
        table, _ = dense_oracle.mix_tables(w)
        out, gx = forward_and_grad(lambda t: T.neighbor_mix(table, t), x, g)
        want = np.einsum("ij,...jd->...id", w, x)
        want_gx = np.einsum("ji,...jd->...id", w, g)
        assert out.tobytes() == want.tobytes()
        assert gx.tobytes() == want_gx.tobytes()

    @pytest.mark.parametrize(
        "shape, index, axis",
        [
            ((6, 3), [3, 0, 3, 1, 3, 2, 0], 0),
            ((2, 5, 3), [4, 4, 0, 2, 0, 0, 1], 1),
            ((2, 3, 5), [2, 4, 2, 2, 0], -1),  # vertex 1 and 3 never hit
            ((2, 3, 5), [], -1),
        ],
    )
    def test_take_backward_matches_add_at(self, shape, index, axis):
        rng = np.random.default_rng(31)
        index = np.array(index, dtype=np.intp)
        x = signed_zeros(rng, shape)
        g = signed_zeros(rng, np.take(x, index, axis=axis).shape)
        out, gx = forward_and_grad(lambda t: take(t, index, axis), x, g)
        want = table_sum_oracle(index, shape[axis], g, axis)
        assert out.tobytes() == np.take(x, index, axis=axis).tobytes()
        assert gx.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_take_backward_property(self, data):
        ndim = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=ndim,
                                         max_size=ndim)))
        axis = data.draw(st.integers(-ndim, ndim - 1))
        index = np.array(
            data.draw(st.lists(st.integers(0, shape[axis] - 1), max_size=9)),
            dtype=np.intp,
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal(shape)
        g = signed_zeros(rng, np.take(x, index, axis=axis).shape)
        _, gx = forward_and_grad(lambda t: take(t, index, axis), x, g)
        want = table_sum_oracle(index, shape[axis], g, axis)
        assert gx.tobytes() == want.tobytes()

    # snapshots per np.take in NeighborTable.sum, as GATHER_BYTES set
    # from the bytes of one snapshot's terms: one, two (the last block
    # holds the rest), or all
    REGIMES = {"one": 0, "two": 2, "all": 1 << 30}

    def gathers(self, monkeypatch, regime, table, tail):
        """Set the gather budget for regime; the returned list collects
        the snapshot count of each np.take that NeighborTable.sum makes."""
        budget = self.REGIMES[regime] * 8 * table.slots.size * math.prod(tail)
        monkeypatch.setattr(T, "GATHER_BYTES", budget)
        counts, real_take = [], np.take

        def counting_take(a, indices, *args, **kwargs):
            if "out" in kwargs:
                counts.append(len(a))
            return real_take(a, indices, *args, **kwargs)

        monkeypatch.setattr(np, "take", counting_take)
        return counts

    @staticmethod
    def blocks(regime, snapshots):
        """The snapshot count of each block of a sum in regime."""
        block = {"one": 1, "two": 2, "all": snapshots}[regime]
        starts = range(0, snapshots, block)
        return [min(block, snapshots - lo) for lo in starts]

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize(
        "shape", [(7, 3), (1, 7, 5), (3, 7, 2), (2, 3, 7, 2)]
    )
    def test_neighbor_mix_gather_regimes(self, monkeypatch, regime, shape):
        rng = np.random.default_rng(32)
        # row and column 3, and row and column 1, hold K = 5 weights,
        # every other row and column fewer; the einsum also reads the
        # -0.0 weights off the mask, and -0.0 inputs give -0.0 terms
        mask = np.eye(7, k=1, dtype=bool)
        mask[3, [0, 2, 5, 6]] = True
        mask[[0, 2, 4, 5, 6], 1] = True
        mask |= mask.T
        w = rng.standard_normal((7, 7))
        w = (w + w.T) * mask
        x, g = signed_zeros(rng, shape), signed_zeros(rng, shape)
        table, _ = dense_oracle.mix_tables(w)
        assert len(table.slots) == 5
        counts = self.gathers(monkeypatch, regime, table, shape[-1:])
        out, gx = forward_and_grad(lambda t: T.neighbor_mix(table, t), x, g)
        assert counts == self.blocks(regime, math.prod(shape[:-2])) * 2
        assert out.tobytes() == np.einsum("ij,...jd->...id", w, x).tobytes()
        assert gx.tobytes() == np.einsum("ji,...jd->...id", w, g).tobytes()

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize(
        "shape, index, axis",
        [
            ((2, 1, 3), [0] * 9, 1),  # one target hit 9 times
            ((1, 4), [1, 3, 1, 1, 0, 1, 3, 1, 1, 1], -1),
            ((6, 1), [3, 0, 3, 1, 3, 2, 0, 3, 3, 5, 3, 3, 3], 0),
            ((5, 2, 3), [1, 0, 1, 1, 1, 0, 1, 1], 1),  # five snapshots
        ],
    )
    def test_take_backward_gather_regimes(
        self, monkeypatch, regime, shape, index, axis
    ):
        # the gather-sum of a take backward, NeighborTable.sum over the
        # index, unweighted and weighted, in each gather regime; take's
        # own np.add.at backward gives the unweighted bits
        rng = np.random.default_rng(33)
        index = np.array(index, dtype=np.intp)
        size = shape[axis]
        x = signed_zeros(rng, shape)
        g = signed_zeros(rng, np.take(x, index, axis=axis).shape)
        weights = signed_zeros(rng, index.shape)
        tables = {
            None: T.NeighborTable(index, size),
            "weighted": T.NeighborTable(index, size, weights=weights),
        }
        assert tables[None].slots.shape[0] >= 6
        axis %= len(shape)
        tail = shape[axis + 1 :]
        counts = self.gathers(monkeypatch, regime, tables[None], tail)
        for kind, table in tables.items():
            w = None if kind is None else weights
            want = table_sum_oracle(index, size, g, axis, weights=w)
            assert table.sum(g, axis).tobytes() == want.tobytes(), kind
        assert counts == self.blocks(regime, math.prod(shape[:axis])) * 2
        _, gx = forward_and_grad(lambda t: take(t, index, axis), x, g)
        want = table_sum_oracle(index, size, g, axis)
        assert gx.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sum_matches_oracle_in_every_block(self, data):
        # one-target tables whose tail is all ones, where a block's slot
        # sum would have a single output if the table had no spare
        # column, among others; K up to 17 covers the pairwise sum's
        # blocks of 8 and the einsum's unrolled loops
        size = data.draw(st.integers(1, 3))
        tail = data.draw(st.sampled_from([(), (1,), (1, 1), (2,), (3, 1)]))
        lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        counts = data.draw(
            st.lists(st.integers(0, 17), min_size=size, max_size=size)
        )
        source_len = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        index = rng.permutation(np.repeat(np.arange(size), counts))
        source = rng.integers(0, source_len, index.size)
        weights = signed_zeros(rng, index.shape)
        if data.draw(st.booleans()):
            weights = None
        table = T.NeighborTable(index, size, source, weights)
        values = signed_zeros(rng, lead + (source_len,) + tail)
        axis = data.draw(st.sampled_from([len(lead), len(lead) - values.ndim]))
        want = table_sum_oracle(index, size, values, axis, source, weights)
        padded = data.draw(st.booleans())
        if padded:
            zero = np.zeros(lead + (1,) + tail)
            values = np.concatenate([values, zero], axis)
        per_block = data.draw(st.sampled_from([0, 2, 1 << 30]))
        budget = per_block * 8 * table.slots.size * math.prod(tail)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(T, "GATHER_BYTES", budget)
            got = table.sum(values, axis, padded)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_sum_of_padded_values(self, axis):
        # values that already end with the zero slice padding reads sum
        # to the same bits, weighted or not
        rng = np.random.default_rng(38)
        values = signed_zeros(rng, (6, 6, 6))
        zero_shape = list(values.shape)
        zero_shape[axis] = 1
        padded = np.concatenate([values, np.zeros(zero_shape)], axis)
        index = [3, 0, 3, 1, 3, 2]
        weighted, _ = dense_oracle.mix_tables(self.mix_weights(rng, 6))
        for table in (T.NeighborTable(index, 6), weighted):
            want = table.sum(values, axis)
            assert table.sum(padded, axis, padded=True).tobytes() == (
                want.tobytes()
            )

    def test_index_out_of_range_rejected(self):
        x = T.Tensor(np.ones((2, 3)))
        with pytest.raises(DimensionError, match="out of range"):
            T.NeighborTable([0, 3], 3)
        with pytest.raises(DimensionError, match="take"):
            take(x, [0, 3], 1)


DYADIC = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


def dyadic_mix(rng, shape, share):
    """Normal draws with about share of them from DYADIC, whose sums of a
    few terms are exact, so pre-activations land on +0.0 and -0.0."""
    x = rng.standard_normal(shape)
    pick = rng.random(shape) < share
    x[pick] = rng.choice(DYADIC, size=shape)[pick]
    return x


def fused_and_unfused(fused, unfused, arrays, g):
    """For each of the two ops, run on fresh leaves holding arrays with
    the upstream gradient g: the bytes of its output and of every leaf's
    gradient."""
    got = []
    for op in (fused, unfused):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        T.backward(T.reduce_sum(T.mul(out, T.Tensor(g))))
        got.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
    return got


class TestFusedOps:
    """pair_readout, dense_relu and conv1d against the chains of
    primitive ops in unfused_oracle, bit for bit (tobytes): the output and
    every gradient, at +0.0, -0.0, negative and positive pre-activations,
    with and without dropout."""

    def readout_case(self, rng, arrays, pairs, dropout):
        n = arrays[0].shape[-2]
        # the distinct pairs, row-major
        pairs = T.Pairs(sorted({i * n + j for i, j in pairs}), (n, n))
        g = signed_zeros(rng, arrays[0].shape[:-2] + pairs.src.shape)
        seed = int(rng.integers(2**32))

        def wrap(op):
            def run(q, item, bias):
                if dropout:  # as graph_rounds drops z before the readout
                    item = model._dropout(
                        item, dropout, np.random.default_rng(seed)
                    )
                return op(q, item, bias, pairs)
            return run

        return fused_and_unfused(
            wrap(T.pair_readout), wrap(unfused_oracle.pair_readout), arrays, g
        )

    def dense_case(self, rng, arrays, dropout):
        g = signed_zeros(rng, arrays[0].shape[:-1] + arrays[1].shape[-1:])
        seed = int(rng.integers(2**32))

        def wrap(op):
            def run(x, w, b):
                z = op(x, w, b)
                if dropout:  # as graph_rounds drops each round's output
                    z = model._dropout(z, dropout, np.random.default_rng(seed))
                return z
            return run

        return fused_and_unfused(
            wrap(T.dense_relu), wrap(unfused_oracle.dense_relu), arrays, g
        )

    def conv_case(self, rng, x, arrays):
        w = arrays[0]
        positions = x.shape[-1] - w.shape[-1] + 1
        g = signed_zeros(rng, x.shape[:-1] + (w.shape[0], positions))

        def wrap(op):
            return lambda w, b: op(x, w, b)

        return fused_and_unfused(
            wrap(T.conv1d), wrap(unfused_oracle.conv1d), arrays, g
        )

    # batch, vertex and position axes of size 1, which add's _unbroadcast
    # leaves out of the bias sum, and position axes of 8 and more
    @pytest.mark.parametrize(
        "shape, k",
        [((1, 5, 4), 2), ((3, 1, 4), 2), ((3, 5, 2), 2), ((1, 1, 2), 2),
         ((2, 4, 9), 2), ((2, 30, 12), 3), ((1, 120, 10), 2), ((7,), 3),
         ((4, 10), 1)],
    )
    @pytest.mark.parametrize("share", [0.0, 1.0])
    def test_conv1d_matches_composition(self, shape, k, share):
        rng = np.random.default_rng(38)
        x = dyadic_mix(rng, shape, share)
        arrays = [dyadic_mix(rng, (3, k), share), dyadic_mix(rng, (3,), share)]
        fused, unfused = self.conv_case(rng, x, arrays)
        assert fused == unfused

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_conv1d_matches_composition_property(self, data):
        lead = tuple(data.draw(st.lists(st.integers(1, 4), max_size=2)))
        k = data.draw(st.integers(1, 3))
        length = k + data.draw(st.integers(0, 10))
        channels = data.draw(st.integers(1, 4))
        share = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = dyadic_mix(rng, lead + (length,), share)
        arrays = [dyadic_mix(rng, shape, share)
                  for shape in ((channels, k), (channels,))]
        fused, unfused = self.conv_case(rng, x, arrays)
        assert fused == unfused

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_pair_readout_matches_composition(self, data):
        lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        n, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=12))
        share = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        dropout = data.draw(st.sampled_from([0.0, 0.4]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shapes = (lead + (n, d), lead + (n, d), (d,))
        arrays = [dyadic_mix(rng, shape, share) for shape in shapes]
        fused, unfused = self.readout_case(rng, arrays, pairs, dropout)
        assert fused == unfused

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_dense_relu_matches_composition(self, data):
        lead = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        n, m, d = (data.draw(st.integers(1, 6)) for _ in range(3))
        share = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        dropout = data.draw(st.sampled_from([0.0, 0.4]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shapes = (lead + (n, m), (m, d), (d,))
        arrays = [dyadic_mix(rng, shape, share) for shape in shapes]
        fused, unfused = self.dense_case(rng, arrays, dropout)
        assert fused == unfused

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_signed_zero_preactivations(self, dropout):
        # all-dyadic inputs make sure of the cases the property tests may
        # draw: without dropout, the readout's pre-activations hold
        # negatives, positives, +0.0 and -0.0 (a sum is -0.0 only if every
        # term is, as the (0, 0) pair's first feature is made here), and
        # the dense layer's negatives, positives and +0.0 (its matmul
        # never gives -0.0)
        rng = np.random.default_rng(36)
        pairs = [(i, j) for i in range(5) for j in range(5) if abs(i - j) < 3]
        q, item = dyadic_mix(rng, (2, 4, 5, 6), 1.0), dyadic_mix(
            rng, (2, 4, 5, 6), 1.0
        )
        bias = dyadic_mix(rng, (6,), 1.0)
        q[..., 0, 0] = item[..., 0, 0] = bias[0] = -0.0
        x, w, b = (dyadic_mix(rng, shape, 1.0)
                   for shape in ((4, 5, 3), (3, 6), (6,)))
        src, dst = np.array(pairs).T
        pres = {
            "readout": q[..., src, :] + item[..., dst, :] + bias,
            "dense": x @ w + b,
        }
        kinds = {
            "negative": lambda pre: pre < 0,
            "positive": lambda pre: pre > 0,
            "+0.0": lambda pre: (pre == 0) & ~np.signbit(pre),
            "-0.0": lambda pre: (pre == 0) & np.signbit(pre),
        }
        for name, pre in pres.items():
            for kind, where in kinds.items():
                if name == "dense" and kind == "-0.0":
                    continue
                assert where(pre).any(), (name, kind)
        fused, unfused = self.readout_case(
            rng, [q, item, bias], pairs, dropout
        )
        assert fused == unfused
        fused, unfused = self.dense_case(rng, [x, w, b], dropout)
        assert fused == unfused


class TestNumpyEquivalents:
    """conv1d's strided window view and reduce_mean's add.reduce against
    the numpy helpers they stand for, bit for bit (tobytes)."""

    @pytest.mark.parametrize(
        "shape, k",
        [((4,), 2), ((3, 5, 7), 2), ((2, 120, 2), 2), ((2, 3, 9), 9),
         ((5, 6), 1)],
    )
    def test_conv1d_matches_sliding_window_view(self, shape, k):
        rng = np.random.default_rng(34)
        w, b = rng.standard_normal((4, k)), signed_zeros(rng, 4)
        base = signed_zeros(rng, shape + (2,))
        # a contiguous input, and one whose last axis is strided
        for x in (np.ascontiguousarray(base[..., 0]), base[..., 1]):
            window = np.lib.stride_tricks.sliding_window_view(x, k, axis=-1)
            want = np.einsum("...pk,mk->...mp", window, w) + b[:, None]
            out = T.conv1d(x, T.Tensor(w), T.Tensor(b)).data
            assert out.tobytes() == want.tobytes()

    # 130 and 300 terms cross numpy's 128-term pairwise summation block
    @pytest.mark.parametrize("shape", [(5,), (3, 130), (2, 4, 300), (1, 1)])
    @pytest.mark.parametrize("axis", [None, 0, -1])
    def test_reduce_mean_matches_np_mean(self, shape, axis):
        rng = np.random.default_rng(35)
        x = signed_zeros(rng, shape) * 1e3
        out = T.reduce_mean(T.Tensor(x), axis).data
        want = np.mean(x, axis=axis)
        assert np.shape(out) == np.shape(want)
        assert np.asarray(out).tobytes() == np.asarray(want).tobytes()


def loop_row_sums(values, rows, count):
    """Per row, a plain Python sum of its cells from +0.0, left to right in
    pair order: [..., cells] -> [..., count]; rows gives each cell's row."""
    lead = values.shape[:-1]
    flat = values.reshape(-1, values.shape[-1])
    out = np.zeros((len(flat), count))
    for b, cells in enumerate(flat.tolist()):
        sums = [0.0] * count
        for row, value in zip(rows.tolist(), cells):
            sums[row] += value
        out[b] = sums
    return out.reshape(lead + (count,))


class TestRowOps:
    """row_sum, softmax and log_softmax over the cells of a grid: bit for
    bit (tobytes) against a row sum in pair order, and within 1e-12 against
    the dense zero-filled (or -1e30-filled) arrays they stand for."""

    @staticmethod
    def cells(rng, lead, shape, density):
        """Increasing positions (at least one per row, one row left empty
        when there are several) and values for them."""
        rows, width = shape
        keep = rng.random(shape) < density
        keep[:, 0] = True
        if rows > 2:
            keep[1] = False
        index = np.flatnonzero(keep)
        return index, rng.standard_normal(lead + index.shape)

    @staticmethod
    def dense(values, index, shape, fill=0.0):
        out = np.full(values.shape[:-1] + (shape[0] * shape[1],), fill)
        out[..., index] = values
        return out.reshape(values.shape[:-1] + tuple(shape))

    # leading axes, grid; 130 columns cross numpy's 128-term pairwise block
    SHAPES = [
        ((), (1, 1)), ((3,), (4, 7)), ((2, 5), (30, 30)), ((4,), (9, 130)),
    ]

    @pytest.mark.parametrize("lead, shape", SHAPES)
    def test_row_sum_matches_dense_sum(self, lead, shape):
        rng = np.random.default_rng(40)
        index, x = self.cells(rng, lead, shape, 0.2)
        g = rng.standard_normal(lead + (shape[0],))
        want = self.dense(x, index, shape).sum(-1)
        pairs = T.Pairs(index, shape)
        out, gx = forward_and_grad(lambda t: T.row_sum(t, pairs), x, g)
        dense_oracle.assert_close(out, want)
        assert gx.tobytes() == g[..., index // shape[1]].tobytes()

    def test_row_sum_of_signed_zeros(self):
        # rows of zero terms only: every cell -0.0 (row 0), -0.0 and +0.0
        # cells (row 1), -0.0 cells among zero fill (rows 2 and 3)
        shape = (4, 4)
        index = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 13])
        x = np.array([[-0.0] * 5 + [0.0] + [-0.0] * 5])
        for values in (x, np.stack([x, -x])):
            want = self.dense(values, index, shape).sum(-1)
            out = T.row_sum(T.Tensor(values), T.Pairs(index, shape)).data
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead, shape", SHAPES)
    def test_softmax_matches_dense(self, lead, shape):
        rng = np.random.default_rng(41)
        index, x = self.cells(rng, lead, shape, 0.2)
        g = rng.standard_normal(x.shape)
        pairs = T.Pairs(index, shape)
        for op, oracle in (
            (T.softmax, dense_oracle.softmax),
            (T.log_softmax, dense_oracle.log_softmax),
        ):
            out, gx = forward_and_grad(lambda t: op(t, pairs), x, g)
            want, want_gx = forward_and_grad(
                oracle, self.dense(x, index, shape, -1e30),
                self.dense(g, index, shape),
            )
            for got, grid in ((out, want), (gx, want_gx)):
                dense_oracle.assert_close(
                    got, grid.reshape(lead + (-1,))[..., index]
                )

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_rows_sum_in_pair_order(self, lead):
        # row 0: 20 cells, where numpy's pairwise order (8 lanes) differs
        # from left to right; row 1: no cell; row 2: 9 cells; row 3: one;
        # row 4: -0.0 cells only, which sum to +0.0
        shape = (5, 24)
        index = np.concatenate([
            np.arange(20), 48 + np.arange(1, 24, 2)[:9], [80],
            96 + np.arange(0, 24, 4),
        ])
        rows = index // shape[1]
        rng = np.random.default_rng(42)
        size = lead + index.shape
        values = rng.choice([-1.0, 1.0], size)
        values *= 10.0 ** rng.uniform(-8, 8, size)
        values[..., rows == 4] = -0.0
        g = rng.standard_normal(lead + (shape[0],))
        pairs = T.Pairs(index, shape)
        out, gx = forward_and_grad(lambda t: T.row_sum(t, pairs), values, g)
        want = loop_row_sums(values, rows, shape[0])
        assert out.tobytes() == want.tobytes()
        assert gx.tobytes() == g[..., rows].tobytes()
        assert not np.signbit(out[..., [1, 4]]).any()

        # softmax and log_softmax, forward and backward, with each row sum
        # taken left to right; the max and every other step are per cell
        x = rng.standard_normal(size) * 4.0
        g = rng.standard_normal(size)
        shifted = x - self.dense(x, index, shape, -np.inf).max(-1)[..., rows]
        e = np.exp(shifted)

        def row_sum_at_cells(v):
            return loop_row_sums(v, rows, shape[0])[..., rows]

        soft = e / row_sum_at_cells(e)
        soft_gx = soft * (g - row_sum_at_cells(g * soft))
        log_soft = shifted - np.log(row_sum_at_cells(e))
        log_gx = g - np.exp(log_soft) * row_sum_at_cells(g)
        for op, want, want_gx in (
            (T.softmax, soft, soft_gx), (T.log_softmax, log_soft, log_gx),
        ):
            out, gx = forward_and_grad(lambda t: op(t, pairs), x, g)
            assert out.tobytes() == want.tobytes(), op.__name__
            assert gx.tobytes() == want_gx.tobytes(), op.__name__

    @pytest.mark.parametrize("op", [T.row_sum, T.softmax, T.log_softmax])
    def test_bad_positions_rejected(self, op):
        # the Pairs constructor checks the positions once; each op checks
        # that its input holds one cell per pair
        for index in ([4, 1, 4], [1, 4, 4]):
            with pytest.raises(DimensionError, match="distinct"):
                T.Pairs(index, (2, 3))
        with pytest.raises(DimensionError, match="increasing"):
            T.Pairs([4, 1, 2], (2, 3))
        for index in ([0, 1, 6], [-1, 0, 1]):
            with pytest.raises(DimensionError, match="out of range"):
                T.Pairs(index, (2, 3))
        with pytest.raises(DimensionError, match="1-D"):
            T.Pairs([[0, 1]], (2, 3))
        pairs = T.Pairs([0, 1], (2, 3))
        with pytest.raises(DimensionError, match=f"{op.__name__}: 2 pairs"):
            op(T.Tensor(np.ones((2, 3))), pairs)


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

    # each op with the operand shapes it takes
    RULES = {
        "matmul": (T.matmul, [(2, 3, 4), (4, 5)]),
        "mul": (T.mul, [(3, 4), (4,)]),
        "sub": (T.sub, [(3, 4), (3, 1)]),
        "dense_relu": (T.dense_relu, [(2, 3, 4), (4, 5), (5,)]),
        "pair_readout": (
            lambda q, item, bias: T.pair_readout(
                q, item, bias, T.Pairs([1, 2, 3], (2, 2))
            ),
            [(3, 2, 4), (3, 2, 4), (4,)],
        ),
    }

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_constant_operands_get_no_gradient_computed(self, name):
        # each operand in turn is the only leaf; the rule computes nothing
        # for the constants
        op, shapes = self.RULES[name]
        rng = np.random.default_rng(37)
        for lone in range(len(shapes)):
            args = [
                T.Tensor(rng.standard_normal(shape), requires_grad=i == lone)
                for i, shape in enumerate(shapes)
            ]
            out = op(*args)
            grads = out._backward_fn(np.ones(out.shape))
            assert [g is not None for g in grads] == [
                i == lone for i in range(len(shapes))
            ]
            assert grads[lone].shape == shapes[lone]

    def test_leaf_sums_consumers_newest_first(self):
        # three consumers made in this order hand x 1.0, 1e16 and -1e16;
        # only the newest-first order keeps the 1.0
        x = T.Tensor([1.0], requires_grad=True)
        oldest, middle, newest = (T.mul(x, k) for k in (1.0, 1e16, -1e16))
        T.backward(T.reduce_sum(T.add(T.add(oldest, middle), newest)))
        assert (1.0 + 1e16) + -1e16 == 0.0
        assert x.grad.tobytes() == np.array([(-1e16 + 1e16) + 1.0]).tobytes()

    def test_unused_forward_is_freed(self):
        # no list of nodes outlives the graph: a forward that is never
        # backpropagated goes when its last holder does
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        middle = T.mul(x, x)
        out = T.reduce_sum(middle)
        freed = weakref.ref(middle.data)
        del middle, out
        assert freed() is None
        T.backward(T.reduce_sum(T.mul(x, 3.0)))
        assert np.array_equal(x.grad, [3.0, 3.0])

    def test_interleaved_graphs_backpropagate_independently(self):
        x = T.Tensor([1.0], requires_grad=True)
        twice, thrice = T.mul(x, 2.0), T.mul(x, 3.0)
        first, second = T.reduce_sum(twice), T.reduce_sum(thrice)
        T.backward(first)
        assert np.array_equal(x.grad, [2.0])
        T.backward(second)  # the earlier pass left this graph whole
        assert np.array_equal(x.grad, [5.0])
        T.backward(first)
        assert np.array_equal(x.grad, [7.0])

    def test_no_grad_records_nothing_and_restores(self):
        y = T.Tensor([3.0, 4.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                inner = T.mul(y, y)
            outer = T.reduce_sum(T.mul(y, y))
        assert not inner.requires_grad and not outer.requires_grad
        assert outer._parents == () and outer._backward_fn is None
        assert np.array_equal(outer.data, 25.0)
        T.backward(outer)  # a constant: nothing to accumulate
        assert y.grad is None
        with pytest.raises(DimensionError), T.no_grad():
            T.add(y, T.Tensor([1.0, 2.0, 3.0]))
        T.backward(T.reduce_sum(T.mul(y, y)))  # recording is back on
        assert np.array_equal(y.grad, [6.0, 8.0])


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = T.Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        state = T.AdamState([p], learning_rate=0.002)
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
        state = T.AdamState([p], learning_rate=0.002)
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

    def test_deeply_nested_manifest_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        deep = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(
            T.CHECKPOINT_MAGIC + len(deep).to_bytes(4, "little") + deep
        )
        with pytest.raises(DataError, match="model.bin: .*recursion"):
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
