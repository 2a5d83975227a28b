"""Label construction, loss closed forms, splits, and a short training run."""

import math

import numpy as np
import pytest

import baseline_oracle
import dense_oracle
import unfused_oracle
from parkrank import evaluate, ingest, model, train
from parkrank import tensor as T
from parkrank.errors import ConfigError, DataError


def chain_graph(n=4):
    locs = [
        ingest.MeterLocation(f"m{i:03d}", 22.28, 114.16 + i * 0.0003)
        for i in range(n)
    ]
    return ingest.build_adjacency(locs, 35.0)


class TestMakeLabels:
    def test_vacant_beats_occupied(self):
        g = chain_graph(3)
        vacant = np.array([True, False, True])
        rem = np.array([5, 5, 5])
        y = train.make_labels(g, vacant, rem, 0.5, 0.5, 12)
        assert y[1, 0] > 0 and y[1, 2] > 0
        assert y[1, 1] == 0.0

    def test_nearer_beats_farther(self):
        # both neighbors vacant with equal duration: self outranks neighbor
        g = chain_graph(3)
        vacant = np.ones(3, dtype=bool)
        rem = np.full(3, 6)
        y = train.make_labels(g, vacant, rem, 0.5, 0.5, 12)
        assert y[1, 1] > y[1, 0]
        assert y[1, 0] == y[1, 2]

    def test_longer_vacancy_beats_shorter(self):
        g = chain_graph(3)
        vacant = np.ones(3, dtype=bool)
        rem = np.array([2, 1, 9])
        y = train.make_labels(g, vacant, rem, 0.5, 0.5, 12)
        assert y[1, 2] > y[1, 0]

    def test_duration_capped(self):
        g = chain_graph(3)
        vacant = np.ones(3, dtype=bool)
        y_a = train.make_labels(g, vacant, np.array([1, 1, 12]), 0.5, 0.5, 12)
        y_b = train.make_labels(g, vacant, np.array([1, 1, 500]), 0.5, 0.5, 12)
        assert y_a[1, 2] == y_b[1, 2]

    def test_row_peak_is_exactly_one(self):
        g = chain_graph(4)
        vacant = np.array([True, True, False, True])
        rem = np.array([3, 8, 2, 4])
        y = train.make_labels(g, vacant, rem, 0.5, 0.5, 12)
        for q in range(4):
            row = y[q]
            if row.max() > 0:
                assert row.max() == 1.0

    def test_all_occupied_row_stays_zero(self):
        g = chain_graph(3)
        y = train.make_labels(
            g, np.zeros(3, dtype=bool), np.full(3, 4), 0.5, 0.5, 12
        )
        assert not y.any()

    def test_blocked_pairs_stay_zero(self):
        g = chain_graph(4)  # 0 and 3 are two hops apart
        vacant = np.ones(4, dtype=bool)
        y = train.make_labels(g, vacant, np.full(4, 6), 0.5, 0.5, 12)
        assert y[0, 3] == 0.0 and y[3, 0] == 0.0

    def test_batched_matches_single(self):
        g = chain_graph(3)
        rng = np.random.default_rng(0)
        vac = rng.random((5, 3)) < 0.5
        rem = rng.integers(1, 10, (5, 3))
        batch = train.make_labels(g, vac, rem, 0.5, 0.5, 12)
        for b in range(5):
            single = train.make_labels(g, vac[b], rem[b], 0.5, 0.5, 12)
            assert np.array_equal(batch[b], single)

    @pytest.mark.parametrize("prox_weight", [0.5, 0.3, 1.7])
    def test_labels_build_no_hop_table(self, prox_weight):
        # an allowed pair is 0 hops (the query itself) or 1 (a neighbour),
        # so the labels read src != dst, not the hop table, and keep the
        # bits of the hop-table formula
        locs = ingest.synth_locations(
            ingest.SynthConfig(num_locations=20, num_intervals=1)
        )
        rng = np.random.default_rng(9)
        args = (
            rng.random((4, 20)) < 0.6, rng.integers(1, 20, (4, 20)),
            prox_weight, 0.5, 12,
        )
        g = ingest.build_adjacency(locs, 85.0)
        edge, dense = train.edge_labels(g, *args), train.make_labels(g, *args)
        assert "_hops" not in vars(g)
        src, dst = g.allowed_pairs()
        want = dense_oracle.labels(g, *args)  # reads all_hop_distances()
        assert dense.tobytes() == want.tobytes()
        assert edge.tobytes() == want[:, src, dst].tobytes()


ROW_OF_2 = T.Pairs(np.arange(2), (1, 2))  # one query, both pairs allowed


class TestLossClosedForms:
    def test_squared_error_unit_example(self):
        got = train.squared_error([1.0, 0.0], [0.0, 1.0], ROW_OF_2).item()
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_squared_error_batch_mean(self):
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        s = np.array([[0.0, 1.0], [0.0, 2.0]])
        # rows cost 2 and 4, mean 3
        got = train.squared_error(y, s, ROW_OF_2).item()
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_listwise_confident_correct(self):
        got = train.listwise_nll([1.0, 0.0], [10.0, -10.0], ROW_OF_2).item()
        assert abs(got - math.log1p(math.exp(-20.0))) < 1e-12

    def test_listwise_uniform_scores(self):
        # equal scores over k candidates cost log k per unit of label
        got = train.listwise_nll(
            [1.0, 0.0, 0.0], [3.0, 3.0, 3.0], T.Pairs(np.arange(3), (1, 3))
        ).item()
        assert got == pytest.approx(math.log(3.0), abs=1e-12)

    def test_listwise_mask_excludes_blocked(self):
        # the third candidate is blocked: it has no pair to score
        got = train.listwise_nll(
            [1.0, 0.0], [0.0, 0.0], T.Pairs([0, 1], (1, 3))
        ).item()
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def chain_params(self):
        cfg = train.TrainConfig(alpha=2, beta=1, conv_channels=2, embed_dim=2,
                                kernel_len=2)
        return model.ModelParams(
            cfg.model_config(), chain_graph(3), np.random.default_rng(0)
        )

    @staticmethod
    def loss(labels, scores, params, softmax_weight, l2_coeff):
        """training_loss with the L2 node built first, as train_loop does;
        scores is called after it."""
        penalty = T.sum_squares(params.tensors)
        return train.training_loss(
            labels, scores(), params, penalty, softmax_weight, l2_coeff
        )

    def test_perfect_scores_zero_loss(self):
        params = self.chain_params()
        y = np.random.default_rng(1).random((2, len(params.pairs.src)))
        total = self.loss(y, y.copy, params, 0.0, 0.0).item()
        assert total == 0.0

    def test_l2_counts_once(self):
        params = self.chain_params()
        y = np.zeros((1, len(params.pairs.src)))
        base = self.loss(y, y.copy, params, 0.0, 0.0).item()
        with_l2 = self.loss(y, y.copy, params, 0.0, 0.5).item()
        expected = 0.5 * sum(
            float((p.data ** 2).sum()) for p in params.tensors
        )
        assert base == 0.0
        assert with_l2 == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def tape_size(loss):
        """The op-made nodes that backward visits from loss."""
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if node._backward_fn is not None and id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        return len(seen)

    @staticmethod
    def c8_batch():
        """Labels and model scores of 16 snapshots, and the criterion-8
        model's 16 tensors, on a small synthetic city."""
        matrix, graph = small_world(seed=2)
        cfg = train.TrainConfig(alpha=2, beta=3, kernel_len=2)
        ds = train.build_dataset(matrix, cfg)
        params = model.ModelParams(
            cfg.model_config(), graph, np.random.default_rng(3)
        )
        batch = ds.train_idx[:16]
        labels = train.edge_labels(graph, *train._label_args(ds, batch, cfg))
        return labels, params, lambda: model.edge_scores(
            params, *train._inputs(ds, batch)
        )

    def test_sum_squares_matches_unfused_chain(self, monkeypatch):
        # every tensor gets its model gradient first, then g * p twice:
        # the L2 node is older than the forward, and backward runs newest
        # first
        labels, params, scores = self.c8_batch()
        assert len(params.tensors) == 16

        def step():
            loss = self.loss(labels, scores, params, 0.1, 1e-3)
            T.backward(loss)
            grads = [p.grad for p in params.tensors]
            for p in params.tensors:
                p.grad = None
            return loss, grads

        loss, grads = step()
        monkeypatch.setattr(T, "sum_squares", unfused_oracle.sum_squares)
        want_loss, want_grads = step()
        assert loss.data.tobytes() == want_loss.data.tobytes()
        for got, want in zip(grads, want_grads, strict=True):
            assert got.tobytes() == want.tobytes()
        # the chain records 49 nodes where the fused penalty records 3
        base = self.tape_size(self.loss(labels, scores, params, 0.1, 0.0))
        assert self.tape_size(want_loss) - base == 49
        assert self.tape_size(loss) - base == 3

    def test_no_l2_adds_no_node(self):
        labels, params, scores = self.c8_batch()
        s = scores()
        loss = self.loss(labels, lambda: s, params, 0.1, 0.0)
        nll = train.listwise_nll(labels, s, params.pairs)
        alone = T.add(
            train.squared_error(labels, s, params.pairs), T.mul(nll, 0.1)
        )
        assert self.tape_size(loss) == self.tape_size(alone)
        assert loss.data.tobytes() == alone.data.tobytes()


class TestConfig:
    def test_manifest_round_trip(self):
        cfg = train.TrainConfig(alpha=3, iterations=7, softmax_weight=0.25)
        again = train.TrainConfig.from_manifest(cfg.to_manifest())
        assert again == cfg

    def test_unknown_manifest_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown training fields"):
            train.TrainConfig.from_manifest({"alpha": 2, "bogus": 1})

    def test_missing_manifest_field_rejected(self):
        # a default in place of a lost setting once loaded without a word
        manifest = train.TrainConfig(horizon_intervals=2).to_manifest()
        del manifest["horizon_intervals"], manifest["prox_weight"]
        with pytest.raises(
            ConfigError,
            match=r"^missing training fields: "
            r"\['horizon_intervals', 'prox_weight'\]$",
        ):
            train.TrainConfig.from_manifest(manifest)

    def test_validation(self):
        with pytest.raises(ConfigError):
            train.TrainConfig(horizon_intervals=0)
        with pytest.raises(ConfigError):
            train.TrainConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            train.TrainConfig(prox_weight=0.0, dur_weight=0.0)
        with pytest.raises(ConfigError):
            train.TrainConfig(learning_rate=0.0)


def by_vertex(batch):
    """[Q, n] labels of a pack, each at its candidate's vertex id."""
    out = np.zeros((len(batch), batch.num_vertices))
    rows, slots = np.nonzero(batch.vertex >= 0)
    out[rows, batch.vertex[rows, slots]] = batch.labels[rows, slots]
    return out


def small_world(seed=0, locs=6, intervals=120):
    cfg = ingest.SynthConfig(
        num_locations=locs, num_intervals=intervals, rng_seed=seed
    )
    locations, matrix = ingest.synth_generate(cfg)
    return matrix, ingest.build_adjacency(locations)


class TestDataset:
    def test_split_sizes_floor(self):
        assert train.split_sizes(100) == (80, 10, 10)
        assert train.split_sizes(57) == (45, 5, 7)

    def test_chronological_split(self):
        matrix, graph = small_world()
        cfg = train.TrainConfig(alpha=3, horizon_intervals=2)
        ds = train.build_dataset(matrix, cfg)
        usable = matrix.states.shape[1] - 2 - 1
        assert len(ds.times) == usable
        assert ds.times[0] == 1
        assert len(ds.train_idx) == int(usable * 0.8)
        # strictly ordered, no overlap
        assert ds.train_idx[-1] < ds.val_idx[0] <= ds.val_idx[-1] < ds.test_idx[0]

    def test_future_columns(self):
        matrix, _ = small_world()
        cfg = train.TrainConfig(alpha=3, horizon_intervals=4)
        ds = train.build_dataset(matrix, cfg)
        i = 10
        t = int(ds.times[i])
        assert np.array_equal(ds.vacant_future[i], ~matrix.states[:, t + 4])
        # the signed age of the current run is negative while occupied
        assert np.array_equal(ds.current_signed[i] < 0, matrix.states[:, t])

    def test_too_short_rejected(self):
        matrix, _ = small_world(intervals=6)
        with pytest.raises(DataError, match="usable"):
            train.build_dataset(matrix, train.TrainConfig(horizon_intervals=4))


class TestTrainLoop:
    def test_deterministic_given_seed(self):
        matrix, graph = small_world()
        cfg = train.TrainConfig(
            alpha=3, beta=1, conv_channels=3, embed_dim=4, kernel_len=2,
            horizon_intervals=2, iterations=6, batch_size=16, eval_every=3,
            rng_seed=11,
        )
        a = train.train_loop(matrix, graph, cfg)
        b = train.train_loop(matrix, graph, cfg)
        assert a.log == b.log
        for name, arr in a.params.snapshot().items():
            assert np.array_equal(arr, b.params.get(name).data)

    def test_loss_decreases_on_tiny_overfit(self):
        matrix, graph = small_world(seed=3, locs=4, intervals=60)
        cfg = train.TrainConfig(
            alpha=3, beta=1, conv_channels=4, embed_dim=8, kernel_len=2,
            horizon_intervals=2, iterations=120, batch_size=8, eval_every=40,
            rng_seed=5, softmax_weight=0.1,
        )
        result = train.train_loop(matrix, graph, cfg)
        first_loss = result.log[0][1]
        last_loss = result.log[-1][1]
        assert last_loss < first_loss
        assert result.best_val_ndcg1 > 0.0

    def test_best_checkpoint_restored(self):
        matrix, graph = small_world(seed=7)
        cfg = train.TrainConfig(
            alpha=3, beta=1, conv_channels=3, embed_dim=4, kernel_len=2,
            horizon_intervals=2, iterations=9, batch_size=16, eval_every=3,
            rng_seed=2,
        )
        result = train.train_loop(matrix, graph, cfg)
        ds = result.dataset
        val = train.split_ndcg(result.params, ds, graph, ds.val_idx, cfg)
        assert val == pytest.approx(result.best_val_ndcg1, abs=1e-12)

    def test_split_results_shape_and_reuse(self):
        matrix, graph = small_world(seed=1)
        cfg = train.TrainConfig(
            alpha=3, beta=1, conv_channels=3, embed_dim=4, kernel_len=2,
            horizon_intervals=2, iterations=3, batch_size=16, eval_every=3,
        )
        result = train.train_loop(matrix, graph, cfg)
        ds = result.dataset
        res = train.split_results(result.params, ds, graph, ds.val_idx, cfg)
        assert len(res) == 1
        rows = sum(len(batch) for batch in res)
        assert rows == len(ds.val_idx) * graph.num_vertices
        report = evaluate.summarize(res, matrix, "model")
        assert report.num_queries == rows
        base = train.baseline_split_results(
            "persistence", matrix, ds, graph, ds.val_idx, cfg
        )
        assert sum(len(batch) for batch in base) == rows
        for field in ("query_vertex", "query_time", "horizon_time"):
            assert np.array_equal(
                np.concatenate([getattr(b, field) for b in base]),
                np.concatenate([getattr(b, field) for b in res]),
            )
        # the same candidates and labels, each pack in its own rank order
        assert np.array_equal(by_vertex(base[0]), by_vertex(res[0]))
        assert (by_vertex(res[0]) == train.make_labels(
            graph, *train._label_args(ds, ds.val_idx, cfg)
        ).reshape(rows, -1)).all()

    @pytest.mark.parametrize("threshold", [50.0, 85.0])
    @pytest.mark.parametrize("activation", ["relu", "softmax"])
    def test_split_results_match_dense_oracle(self, activation, threshold):
        # the pack of the edge-list ranking against the pack of whole rows
        # ranked by dense_oracle.rank_rows, on briefly trained weights; at
        # 85 m neighborhoods hold up to 9 candidates
        locations, matrix = ingest.synth_generate(ingest.SynthConfig(
            num_locations=12, num_intervals=200, rng_seed=5
        ))
        graph = ingest.build_adjacency(locations, threshold)
        cfg = train.TrainConfig(
            alpha=3, beta=2, conv_channels=3, embed_dim=4, kernel_len=2,
            horizon_intervals=2, iterations=6, batch_size=16, eval_every=3,
            score_activation=activation, rng_seed=3,
        )
        result = train.train_loop(matrix, graph, cfg)
        ds = result.dataset
        for idx in (ds.val_idx, ds.test_idx):
            args = (result.params, ds, graph, idx, cfg)
            (got,) = train.split_results(*args)
            (want,) = dense_oracle.split_results(*args)
            dense_oracle.assert_same_pack(got, evaluate._concat([want]))
            assert np.float64(train.split_ndcg(*args)).tobytes() == (
                np.float64(dense_oracle.split_ndcg(*args)).tobytes()
            )
            for name in evaluate.BASELINE_NAMES:
                args = (name, matrix, ds, graph, idx, cfg)
                (got,) = train.baseline_split_results(*args)
                (want,) = baseline_oracle.baseline_split_results(*args)
                dense_oracle.assert_same_pack(got, evaluate._concat([want]))

    def test_eval_and_validation_stay_on_the_edge_list(self, monkeypatch):
        # no whole ranking row, dense label table or hop table
        matrix, graph = small_world(seed=2)
        cfg = train.TrainConfig(
            alpha=3, beta=1, conv_channels=3, embed_dim=4, kernel_len=2,
            horizon_intervals=2, iterations=3, batch_size=16, eval_every=3,
        )
        result = train.train_loop(matrix, graph, cfg)
        ds = result.dataset

        def forbidden(*args, **kwargs):
            raise AssertionError("dense ranking path called")

        for owner, name in ((model, "rank_candidates"),
                            (model, "forward_scores"),
                            (train, "make_labels"),
                            (ingest.SpatialGraph, "all_hop_distances"),
                            (ingest.SpatialGraph, "hop_distances")):
            monkeypatch.setattr(owner, name, forbidden)
        args = (result.params, ds, graph, ds.test_idx, cfg)
        train.split_results(*args)
        train.split_ndcg(*args)
        for name in evaluate.BASELINE_NAMES:
            train.baseline_split_results(name, matrix, ds, graph,
                                         ds.test_idx, cfg)

    def test_split_ndcg_grades_through_rank_metrics(self, monkeypatch):
        # validation reads NDCG@1 from the metric pass eval uses
        matrix, graph = small_world(seed=2)
        cfg = train.TrainConfig(
            alpha=3, beta=1, conv_channels=3, embed_dim=4, kernel_len=2,
            horizon_intervals=2, iterations=3, batch_size=16, eval_every=3,
        )
        result = train.train_loop(matrix, graph, cfg)
        args = (result.params, result.dataset, graph, result.dataset.val_idx,
                cfg)
        calls, real = [], evaluate.rank_metrics

        def spy(batch, ns):
            calls.append(ns)
            return real(batch, ns)

        monkeypatch.setattr(evaluate, "rank_metrics", spy)
        train.split_ndcg(*args)
        assert calls == [(1,)]

    def test_split_results_blocks_fill_one_batch(self, monkeypatch):
        # ranked 4 snapshots at a time, the split's batch has the bytes of
        # the split ranked in one block
        matrix, graph = small_world(seed=3)
        cfg = train.TrainConfig(
            alpha=3, beta=1, conv_channels=3, embed_dim=4, kernel_len=2,
            horizon_intervals=2, iterations=3, batch_size=16, eval_every=3,
        )
        result = train.train_loop(matrix, graph, cfg)
        ds = result.dataset
        assert len(ds.train_idx) > 8
        args = (result.params, ds, graph, ds.train_idx, cfg)
        (whole,) = train.split_results(*args)
        monkeypatch.setattr(model, "RANK_BLOCK", 4)
        (blocked,) = train.split_results(*args)
        for field in ("query_vertex", "query_time", "horizon_time",
                      "vertex", "position", "labels"):
            a, b = getattr(whole, field), getattr(blocked, field)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "variant",
        [{}, {"score_activation": "softmax", "dropout_rate": 0.3, "beta": 2}],
        ids=["relu", "softmax-dropout"],
    )
    def test_edge_list_training_matches_dense(self, monkeypatch, variant):
        # criterion 9's shape and settings, trained on the edge list and
        # then with the dense scores, labels and loss patched in
        matrix, graph = small_world(seed=4, locs=9, intervals=150)
        settings = dict(
            alpha=3, beta=1, conv_channels=3, embed_dim=4, kernel_len=2,
            horizon_intervals=2, batch_size=8, iterations=6, eval_every=3,
            rng_seed=1,
        )
        cfg = train.TrainConfig(**{**settings, **variant})
        edge = train.train_loop(matrix, graph, cfg)
        for owner, name, oracle in (
            (model, "edge_scores", dense_oracle.scores),
            (model, "forward_scores", dense_oracle.scores),
            (train, "edge_labels", dense_oracle.labels),
            (train, "make_labels", dense_oracle.labels),
            (train, "training_loss", dense_oracle.training_loss),
            (T, "sum_squares", unfused_oracle.sum_squares),
            (train, "split_ndcg", dense_oracle.split_ndcg),
        ):
            monkeypatch.setattr(owner, name, oracle)
        dense = train.train_loop(matrix, graph, cfg)
        # the loss sums each query's pairs, so the log and the weights
        # agree within 1e-12; the selected step is the same
        assert edge.best_step == dense.best_step
        assert [row[0] for row in edge.log] == [row[0] for row in dense.log]
        dense_oracle.assert_close(
            [row[1:] for row in edge.log], [row[1:] for row in dense.log]
        )
        got, want = edge.params.snapshot(), dense.params.snapshot()
        assert list(got) == list(want)
        for name in want:
            dense_oracle.assert_close(got[name], want[name])

    def test_neighbour_tables_built_only_with_params(self, monkeypatch):
        # building the tables inside each op call made recommend slower
        builds = {"with params": 0, "elsewhere": 0}
        building = []
        init_table = T.NeighborTable.__init__
        init_params = model.ModelParams.__init__

        def counting_table(self, *args, **kwargs):
            builds["with params" if building else "elsewhere"] += 1
            init_table(self, *args, **kwargs)

        def marked_params(self, *args, **kwargs):
            building.append(True)
            try:
                init_params(self, *args, **kwargs)
            finally:
                building.pop()

        monkeypatch.setattr(T.NeighborTable, "__init__", counting_table)
        monkeypatch.setattr(model.ModelParams, "__init__", marked_params)
        matrix, graph = small_world(seed=2)
        cfg = train.TrainConfig(
            alpha=3, beta=2, conv_channels=3, embed_dim=4, kernel_len=2,
            horizon_intervals=2, iterations=3, batch_size=16, eval_every=3,
        )
        result = train.train_loop(matrix, graph, cfg)
        ds = result.dataset
        i = ds.test_idx[:1]
        model.forward_scores(
            result.params, ds.windows[i], ds.current_signed[i],
            ds.current_signed[i] < 0,
        )
        assert builds["with params"] > 0
        assert builds["elsewhere"] == 0
