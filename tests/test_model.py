"""Model tests: the forward stages (gate, event embedding, graph rounds)
and scoring over the allowed pairs."""

import re
from dataclasses import asdict

import numpy as np
import pytest

import dense_oracle
import unfused_oracle
from parkrank import cli, esgraph, ingest, model, train
from parkrank import tensor as T
from parkrank.errors import ConfigError, DataError, DimensionError

TANH_2 = 0.9640275800758169


def grid_graph(n=9):
    locs = ingest.synth_locations(
        ingest.SynthConfig(num_locations=n, num_intervals=1)
    )
    return ingest.build_adjacency(locs)


# a small model; ModelConfig has no defaults of its own
SMALL_MODEL = dict(
    alpha=2, beta=3, conv_channels=16, embed_dim=16, kernel_len=2,
    score_activation="relu",
)


def make_params(graph, seed=0, **kw):
    cfg = model.ModelConfig(**{**SMALL_MODEL, **kw})
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
        conv = T.conv1d(
            windows, params.get("conv.weight"), params.get("conv.bias")
        )
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

    @staticmethod
    def scattered(graph):
        """The edge-list weights placed into a dense [n, n] matrix."""
        src, dst = graph.allowed_pairs()
        adj = np.zeros((graph.num_vertices,) * 2)
        adj[src, dst] = model.normalized_adjacency(src, dst)
        return adj

    def test_matches_dense_oracle(self):
        graph = grid_graph(9)
        adj = self.scattered(graph)
        assert np.allclose(adj, self.dense_oracle(graph), atol=1e-10)
        # the bits of the dense normalization, read at the allowed pairs
        want = dense_oracle.normalized_adjacency(graph)
        assert adj.tobytes() == want.tobytes()

    def test_isolated_vertex_self_weight_one(self):
        locs = [
            ingest.MeterLocation("a", 22.30, 114.17),
            ingest.MeterLocation("b", 22.40, 114.30),
        ]
        graph = ingest.build_adjacency(locs, 50.0)
        weights = model.normalized_adjacency(*graph.allowed_pairs())
        assert weights.tolist() == [1.0, 1.0]

    def test_rows_scaled_symmetrically(self):
        adj = self.scattered(grid_graph(9))
        assert adj.tobytes() == adj.T.tobytes()

    @pytest.mark.parametrize(
        "kind", ["single-vertex", "no-edges", "grid", "complete", "synth-85m"]
    )
    def test_mix_table_matches_dense_tables(self, kind):
        # the one edge-list table neighbor_mix sums through both ways is
        # the dense matrix's by-row table and its by-column table, slot
        # for slot and weight for weight
        graph = graph_of(kind)
        table = make_params(graph).mix_table
        tables = dense_oracle.mix_tables(
            dense_oracle.normalized_adjacency(graph)
        )
        for want in tables:
            assert table.slots.tobytes() == want.slots.tobytes()
            assert table.weights.tobytes() == want.weights.tobytes()


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
        for name, arr in params.snapshot().items():
            if name != "mask.weights":
                params_p.get(name).data = arr
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
                params, windows, current, states, dropout_rate=0.5
            )
        a = model.forward_scores(
            params, windows, current, states, dropout_rate=0.5,
            rng=np.random.default_rng(9),
        ).data
        b = model.forward_scores(
            params, windows, current, states, dropout_rate=0.5,
            rng=np.random.default_rng(9),
        ).data
        assert np.array_equal(a, b)

    def test_records_no_tape(self, monkeypatch):
        """Every op node made inside forward_scores is a constant, so no
        tape keeps an intermediate alive; edge_scores alone still records
        one, with the same scores."""
        graph = grid_graph(9)
        params = make_params(graph, alpha=2, score_activation="softmax")
        rng = np.random.default_rng(7)
        windows = rng.integers(-5, 5, (2, 9, 2)).astype(float)
        current = rng.integers(1, 5, (2, 9)).astype(float)
        states = rng.random((2, 9)) < 0.5
        made = []
        node = T._node

        def spy(*args):
            made.append(node(*args))
            return made[-1]

        monkeypatch.setattr(T, "_node", spy)
        scores = model.forward_scores(params, windows, current, states)
        assert made
        assert not any(
            t.requires_grad or t._parents or t._backward_fn for t in made
        )
        assert not scores.requires_grad
        tape = model.edge_scores(params, windows, current, states)
        assert tape.requires_grad and tape._parents
        assert scores.data[:, params.allowed].tobytes() == tape.data.tobytes()

    def test_recording_resumes_after_error(self):
        graph = grid_graph(4)
        params = make_params(graph, alpha=2)
        with pytest.raises(DimensionError):
            model.forward_scores(
                params, np.zeros((1, 3, 2)), np.zeros((1, 3)),
                np.zeros((1, 3), dtype=bool),
            )
        out = T.relu(params.get("readout.bias"))
        assert out.requires_grad and out._parents

    def test_gradients_flow_to_all_params(self):
        graph = grid_graph(9)
        params = make_params(graph, alpha=3, beta=2, conv_channels=4, embed_dim=4)
        rng = np.random.default_rng(7)
        windows = rng.integers(-5, 5, (2, 9, 3)).astype(float)
        current = rng.integers(1, 6, (2, 9)).astype(float)
        states = rng.random((2, 9)) < 0.5
        scores = model.edge_scores(params, windows, current, states)
        T.backward(T.reduce_sum(T.mul(scores, scores)))
        for name in params.snapshot():
            assert params.get(name).grad is not None, name

    @pytest.mark.parametrize("activation", ["relu", "softmax"])
    def test_mask_grads_match_dense_oracle(self, monkeypatch, activation):
        # the [pairs] gradient is the dense oracle's [n, n] mask gradient
        # at the allowed cells, in pair order, and the dense gradient is
        # zero at every other cell; relu has no row sum on the path, so
        # its bits agree
        graph = grid_graph(9)
        params = make_params(graph, alpha=2, score_activation=activation)
        rng = np.random.default_rng(8)
        params.get("mask.weights").data = rng.standard_normal(
            len(params.pairs.positions)
        )
        windows = rng.integers(-5, 5, (3, 9, 2)).astype(float)
        current = rng.integers(1, 6, (3, 9)).astype(float)
        states = rng.random((3, 9)) < 0.5
        u = rng.standard_normal((3, 9, 9))
        scores = model.edge_scores(params, windows, current, states)
        edge_u = u[:, params.pairs.src, params.pairs.dst]
        T.backward(T.reduce_sum(T.mul(scores, edge_u)))
        grad = params.get("mask.weights").grad

        mask = T.Tensor(dense_oracle.dense_mask(params).data, True)
        monkeypatch.setattr(dense_oracle, "dense_mask", lambda _: mask)
        dense = dense_oracle.scores(params, windows, current, states)
        T.backward(T.reduce_sum(T.mul(dense, u)))
        assert grad.shape == (len(params.pairs.positions),)
        assert (mask.grad[~params.allowed] == 0.0).all()
        if activation == "relu":
            assert grad.tobytes() == mask.grad[params.allowed].tobytes()
        else:
            dense_oracle.assert_close(grad, mask.grad[params.allowed])


def graph_of(kind):
    if kind == "synth-85m":  # up to 13 candidates, 12 of them neighbours
        locs = ingest.synth_locations(
            ingest.SynthConfig(num_locations=30, num_intervals=1)
        )
        return ingest.build_adjacency(locs, 85.0)
    if kind == "single-vertex":
        return ingest.build_adjacency([ingest.MeterLocation("a", 22.3, 114.17)])
    if kind == "no-edges":
        return ingest.build_adjacency(
            [ingest.MeterLocation(f"m{i}", 22.3 + 0.01 * i, 114.17)
             for i in range(5)]
        )
    if kind == "complete":
        return ingest.build_adjacency(
            [ingest.MeterLocation(f"m{i}", 22.3 + 1e-5 * i, 114.17)
             for i in range(5)]
        )
    return grid_graph(9)


class TestEdgeListReadout:
    """The edge-list scores, labels and loss against their dense oracles,
    with no [batch, n, n, embed_dim] or [batch, n, n] array built on the
    way: equal bits for the labels and the relu scores, and within 1e-12
    for what runs through a per-query row sum (softmax scores, the loss
    and every parameter gradient)."""

    @pytest.mark.parametrize("activation", ["relu", "softmax"])
    @pytest.mark.parametrize(
        "kind", ["single-vertex", "no-edges", "grid", "complete"]
    )
    def test_matches_dense_oracle(self, monkeypatch, activation, kind):
        graph = graph_of(kind)
        n = graph.num_vertices
        # widths that no vertex count here equals, so an [batch, n, n]
        # shape can only be the dense one
        params = make_params(
            graph, alpha=3, beta=2, conv_channels=3, embed_dim=7,
            score_activation=activation,
        )
        rng = np.random.default_rng(11)
        for t in params.tensors:
            t.data = rng.standard_normal(t.shape)
        batch = 6
        signs = rng.choice([-1.0, 1.0], (batch, n, 3))
        windows = rng.integers(1, 7, (batch, n, 3)) * signs
        current = rng.integers(1, 5, (batch, n)).astype(float)
        states = rng.random((batch, n)) < 0.5
        label_args = (
            rng.random((batch, n)) < 0.6, rng.integers(1, 15, (batch, n)),
            0.5, 0.5, 12,
        )
        dense_labels = dense_oracle.labels(graph, *label_args)
        edge_labels = train.edge_labels(graph, *label_args)
        assert train.make_labels(graph, *label_args).tobytes() == (
            dense_labels.tobytes()
        )
        assert edge_labels.tobytes() == (
            dense_labels[:, params.pairs.src, params.pairs.dst].tobytes()
        )

        def run(forward, labels, loss_fn, sum_squares):
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
            penalty = sum_squares(params.tensors)  # first, as in train_loop
            scores = forward(
                params, windows, current, states, 0.3,
                np.random.default_rng(5),
            )
            loss = loss_fn(labels, scores, params, penalty, 0.3, 1e-4)
            T.backward(loss)
            monkeypatch.setattr(T, "_node", make_node)
            grads = {k: params.get(k).grad for k in params.snapshot()}
            for t in params.tensors:
                t.grad = None
            return scores.data, loss.data, grads, shapes

        scores, loss, grads, shapes = run(
            model.edge_scores, edge_labels, train.training_loss,
            T.sum_squares,
        )
        want_scores, want_loss, want_grads, oracle_shapes = run(
            dense_oracle.scores, dense_labels, dense_oracle.training_loss,
            unfused_oracle.sum_squares,
        )
        dense_scores = model.forward_scores(
            params, windows, current, states, 0.3,
            np.random.default_rng(5),
        ).data
        edge_want = want_scores[:, params.pairs.src, params.pairs.dst]
        for got, want in ((scores, edge_want), (dense_scores, want_scores)):
            if activation == "relu":  # no row sum on the scores' path
                assert got.tobytes() == want.tobytes()
            else:
                dense_oracle.assert_close(got, want)
        dense_oracle.assert_close(loss, want_loss)
        for name, want in want_grads.items():
            dense_oracle.assert_close(grads[name], want)
        for dense in ((batch, n, n, 7), (batch, n, n)):
            assert dense in oracle_shapes  # the recorder sees it
            assert dense not in shapes


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


class TestRankCandidates:
    def test_one_row_matches_broadcast_lexsort(self):
        """A 1-D row ranks as the broadcast lexsort of [batch, n, n] does,
        bit for bit, on score ties, -0.0 against 0.0 and equal hops."""
        rng = np.random.default_rng(36)
        n = 12
        scores = rng.integers(-2, 3, (6, n)) / 2.0  # many ties
        scores[scores == 0.0] = rng.choice([0.0, -0.0], (scores == 0.0).sum())
        scores[0] = 0.0
        scores[1] = -0.0
        hops = rng.integers(0, 3, (6, n))
        hops[2] = 1  # every hop equal
        ids = np.broadcast_to(np.arange(n), scores.shape)
        want = np.lexsort((ids, hops, -scores))
        for row in range(6):
            got = model.rank_candidates(scores[row], hops[row])
            assert got.tobytes() == want[row].tobytes()
        assert (
            dense_oracle.rank_rows(scores, hops).tobytes() == want.tobytes()
        )


class TestModelConfig:
    def test_kernel_longer_than_alpha_rejected(self):
        with pytest.raises(ConfigError, match="kernel_len"):
            model.ModelConfig(**{**SMALL_MODEL, "kernel_len": 3})

    def test_unknown_activation_rejected(self):
        with pytest.raises(ConfigError, match="score_activation"):
            model.ModelConfig(
                **{**SMALL_MODEL, "score_activation": "sigmoid"}
            )

    def test_beta_must_be_positive(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(**{**SMALL_MODEL, "beta": 0})


def save_trained(path, graph, seed=0, **settings):
    """A checkpoint as train writes it: the model built from a TrainConfig,
    saved with that config's manifest."""
    cfg = train.TrainConfig(**settings)
    params = model.ModelParams(
        cfg.model_config(), graph, np.random.default_rng(seed)
    )
    params.save(path, {"train": cfg.to_manifest()})
    return params, cfg


class TestSaveLoad:
    def test_round_trip_preserves_everything(self, tmp_path):
        graph = grid_graph(9)
        path = tmp_path / "model.bin"
        params, cfg = save_trained(
            path, graph, seed=3, alpha=3, beta=2, horizon_intervals=4
        )
        loaded, loaded_cfg = cli.load_checkpoint_bundle(path, graph)
        assert loaded_cfg == cfg
        assert loaded.config == params.config
        for name, arr in params.snapshot().items():
            assert np.array_equal(loaded.get(name).data, arr)

    def test_vertex_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_trained(path, grid_graph(9))
        with pytest.raises(
            DataError, match="trained on 9 vertices but the graph has 4"
        ):
            cli.load_checkpoint_bundle(path, grid_graph(4))

    def test_tensors_follow_param_shapes(self):
        graph = grid_graph(9)
        params = make_params(graph)
        pairs = len(graph.allowed_pairs()[0])
        layout = list(model.param_shapes(params.config, pairs))
        assert layout[-1] == ("mask.weights", (pairs,))
        assert [(k, v.shape) for k, v in params.snapshot().items()] == layout
        for name, shape in layout:
            data = params.get(name).data
            if name == "mask.weights":
                assert data.tobytes() == np.ones(pairs).tobytes()
            elif len(shape) == 1:
                assert not data.any()
            else:
                assert data.std() > 0

    def test_check_weights_reports_first_problem_in_layout_order(self):
        graph = grid_graph(9)
        pairs = len(graph.allowed_pairs()[0])
        params = make_params(graph)
        manifest = {**asdict(params.config), "num_vertices": 9}
        entries = {"zzz": np.zeros(1), **params.snapshot()}
        entries["conv.weight"] = entries["conv.weight"][:, :1]
        del entries["gcn.bias.2"]
        entries["readout.item"][0, 0] = np.inf
        entries["mask.weights"] = np.ones((9, 9))  # the dense layout
        # each problem, in layout order, then its mend (None: drop it)
        problems = [
            ("conv.weight", np.ones((16, 2)),
             "tensor 'conv.weight' has shape (16, 1), expected (16, 2)"),
            ("gcn.bias.2", np.zeros(16), "missing tensor 'gcn.bias.2'"),
            ("readout.item", np.ones((16, 16)),
             "tensor 'readout.item' is not finite"),
            ("mask.weights", np.ones(pairs),
             f"tensor 'mask.weights' has shape (9, 9), expected ({pairs},)"),
            ("zzz", None, "unknown tensor 'zzz'"),
        ]
        for name, mended, says in problems:
            for order in (entries, dict(reversed(entries.items()))):
                with pytest.raises(DataError, match=re.escape(says)):
                    model.check_weights(order, manifest, params.config, graph)
            if mended is None:
                del entries[name]
            else:
                entries[name] = mended
        model.check_weights(entries, manifest, params.config, graph)

    def test_check_weights_counts_the_graphs_pairs(self):
        # nine vertices either way, but 85 m allows more pairs than 50 m
        locs = ingest.synth_locations(
            ingest.SynthConfig(num_locations=9, num_intervals=1)
        )
        near, wide = (ingest.build_adjacency(locs, m) for m in (50.0, 85.0))
        near_pairs, wide_pairs = (
            len(g.allowed_pairs()[0]) for g in (near, wide)
        )
        assert near_pairs < wide_pairs
        params = make_params(near)
        manifest = {**asdict(params.config), "num_vertices": 9}
        says = (
            f"tensor 'mask.weights' has shape ({near_pairs},), expected "
            f"({wide_pairs},)"
        )
        with pytest.raises(DataError, match=re.escape(says)):
            model.check_weights(
                params.snapshot(), manifest, params.config, wide
            )
