"""Model tests: the forward stages (gate, event embedding, graph rounds)
and masked scoring."""

import numpy as np
import pytest

from parkrank import esgraph, ingest, model, train
from parkrank import tensor as T
from parkrank.errors import ConfigError, DataError

TANH_2 = 0.9640275800758169


def grid_graph(n=9):
    locs = ingest.synth_locations(
        ingest.SynthConfig(num_locations=n, num_intervals=1)
    )
    return ingest.build_adjacency(locs)


def make_params(graph, seed=0, **kw):
    cfg = model.ModelConfig(**kw)
    return model.ModelParams(cfg, graph, np.random.default_rng(seed))


def embed_single_channel(windows, kernel):
    """event_embed of one snapshot through a single conv channel with the
    given kernel and zero bias, one value per vertex."""
    windows = np.asarray(windows, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    params = make_params(
        grid_graph(windows.shape[0]),
        alpha=windows.shape[1],
        kernel_len=kernel.size,
        conv_channels=1,
        embed_dim=2,
    )
    params.get("conv.weight").data = kernel.reshape(1, -1)
    return model.event_embed(params, windows[np.newaxis]).data[0, :, 0]


class TestGluGate:
    """The tanh gate at the front of event_embed, read through a kernel
    that picks out one event position."""

    def test_vacant_two_intervals(self):
        h = embed_single_channel([[0.0, 2.0]], [0.0, 1.0])
        assert h[0] == pytest.approx(TANH_2, abs=1e-12)

    def test_occupied_negates(self):
        assert embed_single_channel([[-2.0, 3.0]], [1.0, 0.0])[0] == 0.0
        h = embed_single_channel([[-2.0, 3.0]], [-1.0, 0.0])
        assert h[0] == pytest.approx(TANH_2, abs=1e-12)
        assert embed_single_channel([[-2.0, 3.0]], [0.0, 1.0])[0] > 0

    def test_padding_maps_to_zero(self):
        for kernel in ([1.0, 0.0], [-1.0, 0.0]):
            assert embed_single_channel([[0.0, 5.0]], kernel)[0] == 0.0

    def test_output_bounded(self):
        rng = np.random.default_rng(0)
        windows = rng.integers(-50, 50, (6, 4)).astype(float)
        for kernel in ([1.0], [-1.0]):
            h = embed_single_channel(windows, kernel)
            assert ((h >= 0.0) & (h <= 1.0)).all()


class TestEventAggregate:
    def test_identity_kernel_single_channel(self):
        # kernel [1], bias 0: embedding is the mean of the (non-negative)
        # gated entries, since ReLU passes them through
        windows = np.array(
            [
                [0.2, 0.5, 0.9],
                [0.0, 0.1, 0.4],
                [0.3, 0.3, 0.3],
                [0.0, 0.0, 0.7],
            ]
        )
        h = embed_single_channel(windows, [1.0])
        assert h.shape == (4,)
        assert np.allclose(h, np.tanh(windows).mean(axis=1), atol=1e-12)

    def test_negative_inputs_clipped_before_pooling(self):
        windows = np.array([[-0.5, 0.5], [0.0, 0.0], [-1.0, -1.0], [0.2, 0.4]])
        h = embed_single_channel(windows, [1.0])
        assert np.allclose(
            h, np.maximum(np.tanh(windows), 0.0).mean(axis=1), atol=1e-12
        )

    def test_valid_conv_output_positions(self):
        graph = grid_graph(4)
        params = make_params(graph, alpha=5, kernel_len=2, conv_channels=3)
        windows = np.random.default_rng(1).random((4, 5))
        conv = T.conv1d(T.Tensor(windows), params.get("conv.weight"))
        assert conv.shape == (4, 3, 4)  # alpha - kernel_len + 1 positions
        h = model.event_embed(params, windows[np.newaxis])
        assert h.shape == (1, 4, 3)


class TestNormalizedAdjacency:
    def dense_oracle(self, graph):
        n = graph.num_vertices
        a = np.zeros((n, n))
        for i, j in graph.edges:
            a[i, j] = 1.0
            a[j, i] = 1.0
        for i in range(n):
            a[i, i] = 1.0
        d = a.sum(axis=1)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = a[i, j] / np.sqrt(d[i] * d[j])
        return out

    def test_matches_dense_oracle(self):
        graph = grid_graph(9)
        assert np.allclose(
            model.normalized_adjacency(graph),
            self.dense_oracle(graph),
            atol=1e-10,
        )

    def test_isolated_vertex_self_weight_one(self):
        locs = [
            ingest.MeterLocation("a", 22.30, 114.17),
            ingest.MeterLocation("b", 22.40, 114.30),
        ]
        graph = ingest.build_adjacency(locs, 50.0)
        adj = model.normalized_adjacency(graph)
        assert np.allclose(adj, np.eye(2))

    def test_rows_scaled_symmetrically(self):
        graph = grid_graph(9)
        adj = model.normalized_adjacency(graph)
        assert np.allclose(adj, adj.T)


class TestGcnUpdate:
    def test_isolated_vertex_reduces_to_dense_layer(self):
        locs = [ingest.MeterLocation("a", 22.30, 114.17)]
        graph = ingest.build_adjacency(locs, 50.0)
        params = make_params(
            graph, alpha=2, beta=1, conv_channels=3, embed_dim=4
        )
        h = np.random.default_rng(2).random((1, 3))
        rt = np.array([[1.0, 0.5]])
        z = model.graph_rounds(params, rt[np.newaxis], h[np.newaxis]).data[0]
        z0 = rt @ params.get("gcn.input").data
        mixed = z0 @ params.get("gcn.mix.1").data  # adj is [[1.0]]
        expected = np.maximum(
            np.concatenate([mixed, h], axis=-1)
            @ params.get("gcn.weight.1").data
            + params.get("gcn.bias.1").data,
            0.0,
        )
        assert np.allclose(z, expected, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        n = 9
        graph = grid_graph(n)
        params = make_params(graph, alpha=2, beta=2, conv_channels=3, embed_dim=4)
        h = rng.random((n, 3))
        rt = rng.random((n, 2))
        z = model.graph_rounds(params, rt[np.newaxis], h[np.newaxis]).data[0]

        perm = rng.permutation(n)
        inv = np.argsort(perm)
        # relabel vertex i as inv[i] so row perm[k] of the original becomes row k
        locs = [graph.vertices[i] for i in perm]
        relabeled = [
            ingest.MeterLocation(f"m{k:03d}", loc.lat, loc.lon)
            for k, loc in enumerate(locs)
        ]
        graph_p = ingest.build_adjacency(relabeled)
        params_p = make_params(
            graph_p, alpha=2, beta=2, conv_channels=3, embed_dim=4
        )
        for name, t in params.named.items():
            if name != "mask.weights":
                params_p.get(name).data = t.data.copy()
        z_p = model.graph_rounds(
            params_p, rt[perm][np.newaxis], h[perm][np.newaxis]
        ).data[0]
        assert np.allclose(z_p, z[perm], atol=1e-10)

    def test_beta_rounds_widen_reach(self):
        # a chain: information from one end reaches the other only with
        # enough mixing rounds
        locs = [
            ingest.MeterLocation(f"m{i}", 22.28, 114.16 + i * 0.0003)
            for i in range(5)
        ]
        graph = ingest.build_adjacency(locs, 35.0)
        h = np.zeros((2, 5, 2))
        rt = np.zeros((2, 5, 2))
        rt[1, 4] = 7.0  # flip the far end only, in the second snapshot
        for beta in (1, 2, 4):
            params = make_params(
                graph, alpha=2, beta=beta, conv_channels=2, embed_dim=3
            )
            za, zb = model.graph_rounds(params, rt, h).data
            diff = np.abs(za - zb).sum(axis=1)
            # beta rounds reach exactly the vertices within beta hops
            assert (diff[: 4 - beta] == 0.0).all()
            assert diff[4 - beta] > 0


class TestForwardScores:
    def test_structural_zeros_relu(self):
        graph = grid_graph(9)
        params = make_params(graph, alpha=2)
        rng = np.random.default_rng(4)
        windows = rng.integers(-5, 5, (3, 9, 2)).astype(float)
        current = rng.integers(1, 5, (3, 9)).astype(float)
        states = rng.random((3, 9)) < 0.5
        scores = model.forward_scores(params, windows, current, states).data
        outside = ~params.allowed
        assert (scores[:, outside] == 0.0).all()
        assert np.isfinite(scores).all()

    def test_structural_zeros_softmax(self):
        graph = grid_graph(9)
        params = make_params(graph, alpha=2, score_activation="softmax")
        rng = np.random.default_rng(5)
        windows = rng.integers(-5, 5, (2, 9, 2)).astype(float)
        current = rng.integers(1, 5, (2, 9)).astype(float)
        states = rng.random((2, 9)) < 0.5
        scores = model.forward_scores(params, windows, current, states).data
        assert (scores[:, ~params.allowed] == 0.0).all()
        assert np.allclose(scores.sum(axis=-1), 1.0)

    def test_single_vertex_graph(self):
        locs = [ingest.MeterLocation("a", 22.30, 114.17)]
        graph = ingest.build_adjacency(locs, 50.0)
        params = make_params(graph, alpha=2, beta=1)
        table = esgraph.RunTable(np.array([[0, 1, 0]], dtype=bool))
        window = table.window_at(2, 2)
        scores = model.forward_scores(
            params,
            window.signed_durations[np.newaxis],
            window.current_signed_duration[np.newaxis],
            table.states[:, 2][np.newaxis],
        ).data
        assert scores.shape == (1, 1, 1)
        assert scores[0, 0, 0] >= 0.0

    def test_dropout_needs_rng_and_is_seeded(self):
        graph = grid_graph(4)
        params = make_params(graph, alpha=2, beta=1)
        rng = np.random.default_rng(6)
        windows = rng.integers(-4, 4, (2, 4, 2)).astype(float)
        current = np.ones((2, 4))
        states = np.zeros((2, 4), dtype=bool)
        with pytest.raises(ConfigError):
            model.forward_scores(
                params, windows, current, states, training=True,
                dropout_rate=0.5,
            )
        a = model.forward_scores(
            params, windows, current, states, training=True,
            dropout_rate=0.5, rng=np.random.default_rng(9),
        ).data
        b = model.forward_scores(
            params, windows, current, states, training=True,
            dropout_rate=0.5, rng=np.random.default_rng(9),
        ).data
        assert np.array_equal(a, b)

    def test_gradients_flow_to_all_params(self):
        graph = grid_graph(9)
        params = make_params(graph, alpha=3, beta=2, conv_channels=4, embed_dim=4)
        rng = np.random.default_rng(7)
        windows = rng.integers(-5, 5, (2, 9, 3)).astype(float)
        current = rng.integers(1, 6, (2, 9)).astype(float)
        states = rng.random((2, 9)) < 0.5
        scores = model.forward_scores(params, windows, current, states)
        T.backward(T.reduce_sum(T.mul(scores, scores)))
        for name, t in params.named.items():
            assert t.grad is not None, name

    def test_mask_grads_zero_outside_allowed(self):
        graph = grid_graph(9)
        params = make_params(graph, alpha=2)
        rng = np.random.default_rng(8)
        windows = rng.integers(-5, 5, (2, 9, 2)).astype(float)
        current = rng.integers(1, 6, (2, 9)).astype(float)
        states = rng.random((2, 9)) < 0.5
        scores = model.forward_scores(params, windows, current, states)
        T.backward(T.reduce_sum(scores))
        grad = params.get("mask.weights").grad
        assert (grad[~params.allowed] == 0.0).all()


def dense_readout_scores(params, windows, current, states, rate, rng):
    """Oracle: forward_scores with the dense [batch, n, n, embed_dim] pair
    readout over every (query, candidate) pair, masked afterwards."""
    batch, n, d = windows.shape[0], params.num_vertices, params.config.embed_dim
    h = model.event_embed(params, windows, rate, rng)
    z = model.graph_rounds(
        params, model.real_time_features(current, states), h, rate, rng
    )
    query_feat = np.concatenate(
        [np.tanh(windows), np.tanh(current)[..., None]], -1
    )
    q = T.matmul(T.Tensor(query_feat), params.get("readout.query"))
    item = T.matmul(z, params.get("readout.item"))
    pair = T.add(
        T.reshape(q, (batch, n, 1, d)), T.reshape(item, (batch, 1, n, d))
    )
    pair = T.relu(T.add(pair, params.get("readout.bias")))
    raw = T.reduce_sum(pair, axis=-1)
    mask = T.mul(
        params.get("mask.weights"), T.Tensor(params.allowed.astype(float))
    )
    pre = T.mul(raw, mask)
    if params.config.score_activation == "relu":
        return T.relu(pre)
    pre = T.masked_fill(pre, ~params.allowed, model.MASK_FILL)
    return T.softmax(pre, axis=-1)


def graph_of(kind):
    if kind == "single-vertex":
        return ingest.build_adjacency([ingest.MeterLocation("a", 22.3, 114.17)])
    if kind == "no-edges":
        return ingest.build_adjacency(
            [ingest.MeterLocation(f"m{i}", 22.3 + 0.01 * i, 114.17)
             for i in range(4)]
        )
    if kind == "complete":
        return ingest.build_adjacency(
            [ingest.MeterLocation(f"m{i}", 22.3 + 1e-5 * i, 114.17)
             for i in range(5)]
        )
    return grid_graph(9)


class TestEdgeListReadout:
    """The edge-list readout against the dense-readout oracle: equal bits
    for the scores, the loss and every parameter gradient, with no
    [batch, n, n, embed_dim] array built on the way."""

    @pytest.mark.parametrize("activation", ["relu", "softmax"])
    @pytest.mark.parametrize(
        "kind", ["single-vertex", "no-edges", "grid", "complete"]
    )
    def test_matches_dense_oracle(self, monkeypatch, activation, kind):
        graph = graph_of(kind)
        n = graph.num_vertices
        params = make_params(
            graph, alpha=3, beta=2, conv_channels=3, embed_dim=4,
            score_activation=activation,
        )
        rng = np.random.default_rng(11)
        for t in params.tensors:
            t.data = rng.standard_normal(t.shape)
        # training keeps mask weights outside the neighborhoods at zero
        params.get("mask.weights").data[~params.allowed] = 0.0
        batch = 6
        signs = rng.choice([-1.0, 1.0], (batch, n, 3))
        windows = rng.integers(1, 7, (batch, n, 3)) * signs
        current = rng.integers(1, 5, (batch, n)).astype(float)
        states = rng.random((batch, n)) < 0.5
        labels = train.make_labels(
            graph, rng.random((batch, n)) < 0.6,
            rng.integers(1, 15, (batch, n)), 0.5, 0.5, 12,
        )
        dense_shape = (batch, n, n, 4)

        def run(forward):
            shapes = []
            make_node = T._node

            def recording_node(data, parents, backward_fn):
                shapes.append(np.shape(data))

                def bw(g):
                    grads = backward_fn(g)
                    shapes.extend(np.shape(pg) for pg in grads)
                    return grads

                return make_node(data, parents, bw)

            monkeypatch.setattr(T, "_node", recording_node)
            scores = forward(np.random.default_rng(5))
            loss = train.training_loss(
                labels, scores, params, 0.3, 1e-4, params.allowed
            )
            T.backward(loss)
            monkeypatch.setattr(T, "_node", make_node)
            grads = {k: t.grad for k, t in params.named.items()}
            for t in params.tensors:
                t.grad = None
            return scores.data, loss.data, grads, shapes

        scores, loss, grads, shapes = run(
            lambda r: model.forward_scores(
                params, windows, current, states, training=True,
                dropout_rate=0.3, rng=r,
            )
        )
        want_scores, want_loss, want_grads, oracle_shapes = run(
            lambda r: dense_readout_scores(
                params, windows, current, states, 0.3, r
            )
        )
        assert scores.tobytes() == want_scores.tobytes()
        assert loss.tobytes() == want_loss.tobytes()
        for name, want in want_grads.items():
            assert grads[name].tobytes() == want.tobytes(), name
        assert dense_shape in oracle_shapes  # the recorder sees it
        assert dense_shape not in shapes


class TestRecommendTopN:
    def test_ties_break_by_hop_then_index(self):
        locs = [
            ingest.MeterLocation(f"m{i}", 22.28, 114.16 + i * 0.0003)
            for i in range(4)
        ]
        graph = ingest.build_adjacency(locs, 35.0)  # chain 0-1-2-3
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert model.recommend_top_n(scores, 2, graph, 4) == [2, 1, 3, 0]

    def test_higher_score_wins_regardless_of_hop(self):
        locs = [
            ingest.MeterLocation(f"m{i}", 22.28, 114.16 + i * 0.0003)
            for i in range(3)
        ]
        graph = ingest.build_adjacency(locs, 35.0)
        scores = np.array([0.1, 0.2, 0.9])
        assert model.recommend_top_n(scores, 0, graph, 2) == [2, 1]

    def test_n_truncated_to_vertex_count(self):
        graph = grid_graph(4)
        out = model.recommend_top_n(np.ones(4), 0, graph, 99)
        assert len(out) == 4

    def test_invalid_n(self):
        graph = grid_graph(4)
        with pytest.raises(ConfigError):
            model.recommend_top_n(np.ones(4), 0, graph, 0)


class TestModelConfig:
    def test_kernel_longer_than_alpha_rejected(self):
        with pytest.raises(ConfigError, match="kernel_len"):
            model.ModelConfig(alpha=2, kernel_len=3)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ConfigError, match="score_activation"):
            model.ModelConfig(score_activation="sigmoid")

    def test_beta_must_be_positive(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(beta=0)


class TestSaveLoad:
    def test_round_trip_preserves_everything(self, tmp_path):
        graph = grid_graph(9)
        params = make_params(graph, seed=3, alpha=3, beta=2)
        path = tmp_path / "model.bin"
        params.save(path, extra_manifest={"horizon_intervals": 4})
        loaded, manifest = model.ModelParams.load(path, graph)
        assert manifest["horizon_intervals"] == 4
        assert manifest["score_activation"] == "relu"
        for name, t in params.named.items():
            assert np.array_equal(loaded.get(name).data, t.data)

    def test_vertex_count_mismatch_rejected(self, tmp_path):
        params = make_params(grid_graph(9))
        path = tmp_path / "model.bin"
        params.save(path)
        with pytest.raises(DataError, match="vertices"):
            model.ModelParams.load(path, grid_graph(4))
