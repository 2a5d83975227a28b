"""Dense [batch, query, candidate] oracles for the edge-list scores, labels
and loss, dense [query, candidate] oracles for the ranking and
waiting-time metrics, whole-row rankings of a split for the edge-list
ranking and its neighborhood pack, and the dense normalized adjacency
with its by-row and by-column neighbour tables for the one edge-list mix
table.

These compute over every (query, candidate) pair and mask the pairs
outside the neighborhoods afterwards, as parkrank did before it kept
training, ranking and scoring on the edge list and the neighborhood
pack. The production path matches them bit for bit in the labels, the
relu scores, every ranking's pack and every metric. Where a per-query
row sum is on the path (softmax scores, the loss and every parameter
gradient) it agrees within 1e-12 (assert_close): production adds each
row's pairs in pair order, the dense arrays in numpy's pairwise order.
The dense scores read the model's one mask weight per allowed pair
scattered into its [n, n] cells (dense_mask).

The all-pairs hop table has the dense-frontier BFS it replaced, equal
byte for byte. The synthetic generator's chain has a dense oracle too:
an [m, m] neighbour matrix and a mat-vec per interval, as the generator
ran before it read an [m, K] neighbour table; its occupancy matrix is
equal byte for byte.
"""

import math

import numpy as np

import unfused_oracle
from parkrank import evaluate, ingest, kernels, model, train
from parkrank import tensor as T
from parkrank.errors import ConfigError, DataError

# pre-activation fill for masked softmax entries; -inf would poison grads
MASK_FILL = -1e30


def adjacency(graph) -> np.ndarray:
    """The [n, n] bool adjacency of a graph, from its edge list."""
    adj = np.zeros((graph.num_vertices,) * 2, dtype=bool)
    for i, j in graph.edges:
        adj[i, j] = adj[j, i] = True
    return adj


def hop_table(graph) -> np.ndarray:
    """SpatialGraph.all_hop_distances as it was built before it expanded
    a sparse frontier: a BFS from every source at once, whose frontier row
    s holds the vertices first reached from s at the current depth. Each
    level is a grouped OR over the allowed pairs: v is reached from s when
    some allowed pair (v, w) has w in s's frontier. Every vertex has its
    self pair, so each of the n segments of src is non-empty."""
    n = graph.num_vertices
    src, dst = graph.allowed_pairs()
    rows = np.searchsorted(src, np.arange(n))
    frontier = np.eye(n, dtype=np.bool_)
    hops = np.where(frontier, 0, n + 1).astype(np.int64)
    depth = 0
    while frontier.any():
        depth += 1
        reached = np.logical_or.reduceat(frontier[:, dst], rows, axis=1)
        frontier = reached & (hops > n)
        hops[frontier] = depth
    return hops


def normalized_adjacency(graph) -> np.ndarray:
    """The dense [n, n] symmetric-normalized adjacency plus self-loops."""
    a = graph.allowed_mask().astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def mix_tables(weights):
    """The nonzeros of a square weight matrix, row-major, as two weighted
    NeighborTables: by row (the mix) and by column (its transpose)."""
    rows, cols = np.nonzero(weights)
    w, n = weights[rows, cols], len(weights)
    return T.NeighborTable(rows, n, cols, w), T.NeighborTable(cols, n, rows, w)


def softmax(x) -> T.Tensor:
    """Softmax over the last axis of a dense array."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return T._node(out, (x,), bw)


def log_softmax(x) -> T.Tensor:
    """Log-softmax over the last axis of a dense array."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return T._node(out, (x,), bw)


def dense_mask(params) -> T.Tensor:
    """The [n, n] mask: params' [pairs] mask.weights scattered into their
    cells at params.pairs.positions, zero at every other cell. The
    backward gathers the gradient at those cells."""
    weights, positions = params.get("mask.weights"), params.pairs.positions
    n = params.num_vertices
    dense = np.zeros(n * n)
    dense[positions] = weights.data

    def bw(g):
        return (g.reshape(n * n)[positions],)

    return T._node(dense.reshape(n, n), (weights,), bw)


def scores(params, windows, current, states, dropout_rate=0.0, rng=None):
    """forward_scores with the dense [batch, n, n, embed_dim] pair readout
    over every (query, candidate) pair, masked afterwards."""
    batch, n, d = windows.shape[0], params.num_vertices, params.config.embed_dim
    h = model.event_embed(params, windows, dropout_rate, rng)
    real_time = model.real_time_features(current, states)
    z = model.graph_rounds(params, real_time, h, dropout_rate, rng)
    query_feat = np.concatenate(
        [np.tanh(windows), np.tanh(current)[..., None]], -1
    )
    q = T.matmul(T.Tensor(query_feat), params.get("readout.query"))
    item = T.matmul(z, params.get("readout.item"))
    pair = T.add(
        unfused_oracle.reshape(q, (batch, n, 1, d)),
        unfused_oracle.reshape(item, (batch, 1, n, d)),
    )
    pair = T.relu(T.add(pair, params.get("readout.bias")))
    raw = T.reduce_sum(pair, axis=-1)
    pre = T.mul(raw, dense_mask(params))
    if params.config.score_activation == "relu":
        return T.relu(pre)
    return softmax(T.masked_fill(pre, ~params.allowed, MASK_FILL))


def labels(
    spatial, vacant_future, remaining_future, prox_weight, dur_weight,
    duration_cap,
):
    """Relevance grades for every (query, candidate) pair."""
    vacant = np.atleast_2d(np.asarray(vacant_future, dtype=bool))
    rem = np.atleast_2d(np.asarray(remaining_future, dtype=np.float64))
    allowed = spatial.allowed_mask()
    hops = spatial.all_hop_distances()
    prox_term = np.where(allowed, prox_weight / (1.0 + hops), 0.0)
    dur = dur_weight * np.minimum(rem, duration_cap) / duration_cap
    y = prox_term[np.newaxis] + np.where(
        allowed[np.newaxis], dur[:, np.newaxis, :], 0.0
    )
    y = y * vacant[:, np.newaxis, :]
    peak = y.max(axis=-1, keepdims=True)
    y = np.divide(y, peak, out=np.zeros_like(y), where=peak > 0)
    if np.asarray(vacant_future).ndim == 1:
        return y[0]
    return y


def squared_error(labels, scores) -> T.Tensor:
    diff = T.sub(T.Tensor(np.asarray(labels, dtype=np.float64)), scores)
    return T.reduce_mean(T.reduce_sum(T.mul(diff, diff), axis=-1))


def listwise_nll(labels, scores, allowed) -> T.Tensor:
    blocked = ~np.broadcast_to(allowed, scores.shape)
    logp = log_softmax(T.masked_fill(scores, blocked, MASK_FILL))
    logp = T.masked_fill(logp, blocked, 0.0)
    weighted = T.reduce_sum(T.mul(T.Tensor(labels), logp), axis=-1)
    return T.mul(T.reduce_mean(weighted), -1.0)


def training_loss(
    labels, scores, params, penalty, softmax_weight, l2_coeff
) -> T.Tensor:
    """The training loss over dense labels and scores; penalty is the L2
    node, built before scores as train.train_loop builds it."""
    total = squared_error(labels, scores)
    if softmax_weight > 0:
        nll = listwise_nll(labels, scores, params.allowed)
        total = T.add(total, T.mul(nll, softmax_weight))
    if l2_coeff > 0:
        total = T.add(total, T.mul(penalty, l2_coeff))
    return total


def ndcg_at(ranking, labels, n):
    """evaluate.ndcg_at over whole [..., n] rows."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    labels = np.asarray(labels, dtype=np.float64)
    ranking = np.asarray(ranking, dtype=np.int64)
    discounts = 1.0 / np.log2(np.arange(2, n + 2, dtype=np.float64))
    gains = np.take_along_axis(labels, ranking[..., :n], axis=-1)
    dcg = (gains * discounts[: gains.shape[-1]]).sum(axis=-1)
    ideal = np.sort(labels, axis=-1)[..., ::-1][..., :n]
    idcg = (ideal * discounts[: ideal.shape[-1]]).sum(axis=-1)
    out = np.divide(dcg, idcg, out=np.ones_like(dcg), where=idcg != 0.0)
    return float(out) if out.ndim == 0 else out


def map_at(ranking, labels, n):
    """evaluate.map_at over whole [..., n] rows."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    relevant = np.asarray(labels, dtype=np.float64) > 0.0
    ranking = np.asarray(ranking, dtype=np.int64)
    hits = np.take_along_axis(relevant, ranking[..., :n], axis=-1)
    precision = np.cumsum(hits, axis=-1) / np.arange(1, hits.shape[-1] + 1)
    ap = np.cumsum(np.where(hits, precision, 0.0), axis=-1)[..., -1]
    denom = np.minimum(relevant.sum(axis=-1), n)
    out = np.divide(ap, denom, out=np.zeros_like(ap), where=denom > 0)
    return float(out) if out.ndim == 0 else out


def best_waits(batch, matrix, max_wait):
    """evaluate._best_waits as [Q, n] rows: the neighborhood's candidates
    packed to the front of each ranking by a stable argsort, the rest
    waiting max_wait."""
    if max_wait < 1:
        raise ConfigError("max_wait must be at least 1")
    waits = np.minimum(kernels.next_vacant_steps(matrix.states), max_wait)
    ranked = waits[batch.ranking, batch.horizon_time[:, np.newaxis]]
    in_hood = np.take_along_axis(batch.neighborhood, batch.ranking, axis=-1)
    if not in_hood.any(axis=-1).all():
        raise DataError("every query needs a non-empty neighborhood")
    packed = np.argsort(~in_hood, axis=-1, kind="stable")
    ranked = np.where(in_hood, ranked, max_wait)
    return np.minimum.accumulate(np.take_along_axis(ranked, packed, -1), -1)


def rank_rows(scores: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """model.rank_candidates row by row along the last axis: score
    descending, ties by hop then by index. hops broadcast to the scores'
    shape, so one [n, n] hop table serves a [batch, n, n] batch."""
    ids = np.broadcast_to(np.arange(scores.shape[-1]), scores.shape)
    return np.lexsort((ids, np.broadcast_to(hops, scores.shape), -scores))


def rank_by_vertex_score(scores: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """model.rank_candidates of every query's row of one shared score.

    scores is [..., n], one score per vertex per snapshot; hops is the
    [n, n] hop table. The result is [..., n, n]: row q of a snapshot
    orders the candidates by score descending, then by hops[q], then by
    index, the bits that rank_candidates gives for the score row
    broadcast to every query.

    Every score gets a dense descending rank, shared by all rows, from
    np.unique: -0.0 and +0.0 tie, and so do NaNs, after every number, as
    they do in lexsort. Each (snapshot, query, candidate) then packs
    (score rank, hop, id) into one integer key, high bits to low, so one
    in-place integer sort of the keys orders each row as the lexsort
    would; masking off the high bits leaves the candidate ids.
    """
    n = hops.shape[-1]
    rank = np.unique(-scores, return_inverse=True)[1].reshape(scores.shape)
    id_bits = (n - 1).bit_length()
    hop_bits = int(hops.max(initial=0)).bit_length()
    lead = (rank << (hop_bits + id_bits)) | np.arange(n)
    keys = np.empty(scores.shape[:-1] + hops.shape, dtype=np.intp)
    np.add(lead[..., np.newaxis, :], hops << id_bits, out=keys)
    keys.sort(axis=-1)
    keys &= (1 << id_bits) - 1
    return keys


def query_results(dataset, spatial, idx, cfg, rankings):
    """One dense batch of the (snapshot, query) pairs of idx from [B, n, n]
    rankings, with train.make_labels' [B, n, n] labels."""
    labels = train.make_labels(spatial, *train._label_args(dataset, idx, cfg))
    width = dataset.num_vertices
    times = np.repeat(dataset.times[idx], width)
    return evaluate.QueryResults(
        query_vertex=np.tile(np.arange(width), len(idx)),
        query_time=times,
        horizon_time=times + dataset.horizon,
        ranking=rankings.reshape(-1, width),
        labels=labels.reshape(-1, width),
        neighborhood=np.tile(spatial.allowed_mask(), (len(idx), 1)),
    )


def split_results(params, dataset, spatial, split_idx, cfg):
    """train.split_results as whole rows: model.forward_scores' [B, n, n]
    scores ranked by rank_rows, one block at a time."""
    hops = spatial.all_hop_distances()
    rankings = np.empty((len(split_idx), *hops.shape), dtype=np.intp)
    for lo in range(0, len(split_idx), model.RANK_BLOCK):
        idx = split_idx[lo : lo + model.RANK_BLOCK]
        scores = model.forward_scores(params, *train._inputs(dataset, idx))
        rankings[lo : lo + len(idx)] = rank_rows(scores.data, hops)
    return [query_results(dataset, spatial, split_idx, cfg, rankings)]


def split_ndcg(params, dataset, spatial, split_idx, cfg):
    """train.split_ndcg over the whole rows of split_results."""
    (batch,) = split_results(params, dataset, spatial, split_idx, cfg)
    ndcg = ndcg_at(batch.ranking, batch.labels, 1)
    return float(np.add.accumulate(ndcg)[-1]) / len(ndcg)


def assert_same_pack(got, want):
    """Two evaluate.Candidates batches are equal field by field, in dtype,
    shape and bytes."""
    assert got.num_vertices == want.num_vertices
    for field in ("query_vertex", "query_time", "horizon_time", "vertex",
                  "position", "labels"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


def assert_close(got, want):
    """Equal shapes and values within 1e-12, the bound where a per-query
    sum in pair order meets numpy's pairwise sum over the dense row."""
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def neighbor_matrix(neighbors) -> np.ndarray:
    """The dense [rows, rows] float neighbour matrix of an [rows, K]
    neighbour table padded with rows."""
    rows = len(neighbors)
    dense = np.zeros((rows, rows + 1))
    np.add.at(dense, (np.arange(rows)[:, None], neighbors), 1.0)
    return dense[:, :rows]


def markov_occupancy(
    init_u,
    step_u,
    sin_mod,
    neighbor_w,
    neighbor_cnt,
    base,
    gamma,
    rho0,
    hazard_base,
    hazard_slope,
    hazard_max,
    switch_cap,
):
    """The generator's two-state chain with a dense [rows, rows] neighbour
    matrix: one mat-vec and every term recomputed at each step."""
    rows = init_u.shape[0]
    steps = step_u.shape[0] + 1
    occ = np.empty((rows, steps), dtype=np.bool_)
    occ[:, 0] = init_u < base
    prev = occ[:, 0].astype(np.float64)
    age = np.ones(rows, dtype=np.float64)
    for t in range(1, steps):
        nbr_sum = neighbor_w @ prev
        nbr_mean = np.where(
            neighbor_cnt > 0.0, nbr_sum / np.maximum(neighbor_cnt, 1.0), base
        )
        p_occ = base + sin_mod[t] + gamma * (nbr_mean - base)
        p_occ = np.minimum(np.maximum(p_occ, 0.0), 1.0)
        hazard = rho0 * np.minimum(hazard_max, hazard_base + hazard_slope * age)
        q = np.where(prev == 1.0, hazard * (1.0 - p_occ), hazard * p_occ)
        q = np.minimum(q, switch_cap)
        switch = step_u[t - 1] < q
        cur = np.where(switch, 1.0 - prev, prev)
        age = np.where(switch, 1.0, age + 1.0)
        occ[:, t] = cur == 1.0
        prev = cur
    return occ


def markov_block(rows, slots) -> int:
    """Steps per block of kernels.markov_occupancy for rows and K = slots:
    as many as fit BLOCK_BYTES of uniforms and switch tables."""
    cells = 2 * (slots + 1) ** 2
    return max(1, kernels.BLOCK_BYTES // (8 * (rows + cells)))


def synth_states(cfg) -> np.ndarray:
    """The occupancy states of ingest.synth_generate(cfg), from the dense
    [m, m] matrix of grid steps and the dense chain."""
    side = math.ceil(math.sqrt(cfg.num_locations))
    m = cfg.num_locations
    r, c = np.divmod(np.arange(m), side)
    adj = (abs(r[:, None] - r) + abs(c[:, None] - c) == 1).astype(np.float64)
    base = cfg.base_occupancy_rate
    amp = ingest.DIURNAL_AMP_FRAC * min(base, 1.0 - base)
    period = 24 * 60 // ingest.DEFAULT_INTERVAL_MINUTES
    phase = 2.0 * np.pi * (np.arange(cfg.num_intervals) % period) / period
    rng = np.random.default_rng(cfg.rng_seed)
    init_u = rng.random(m)
    step_u = rng.random((cfg.num_intervals - 1, m))
    return markov_occupancy(
        init_u, step_u, amp * np.sin(phase), adj, adj.sum(axis=1), base,
        cfg.spatial_correlation, ingest.TURNOVER_RATE, ingest.HAZARD_BASE,
        ingest.HAZARD_SLOPE, ingest.HAZARD_MAX, ingest.SWITCH_CAP,
    )
