"""Kernel tests against independent oracles."""

import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from parkrank import ingest, kernels


def rle_oracle(seq):
    """Reference run-length encoding via itertools.groupby."""
    return [(bool(value), len(list(group))) for value, group in groupby(seq)]


def make_rows(rng, rows, cols, p=0.5):
    return rng.random((rows, cols)) < p


class TestEncodeRuns:
    def test_matches_groupby_oracle(self):
        rng = np.random.default_rng(11)
        states = make_rows(rng, 20, 137)
        counts, starts, lengths, run_states, run_of = kernels.encode_runs(states)
        for i in range(states.shape[0]):
            expected = rle_oracle(states[i].tolist())
            k = int(counts[i])
            assert k == len(expected)
            got = [
                (bool(run_states[i, r]), int(lengths[i, r])) for r in range(k)
            ]
            assert got == expected

    def test_starts_and_run_of_consistent(self):
        rng = np.random.default_rng(3)
        states = make_rows(rng, 7, 64)
        counts, starts, lengths, run_states, run_of = kernels.encode_runs(states)
        for i in range(7):
            k = int(counts[i])
            assert starts[i, 0] == 0
            assert int(lengths[i, :k].sum()) == 64
            for r in range(1, k):
                assert starts[i, r] == starts[i, r - 1] + lengths[i, r - 1]
            for t in range(64):
                r = run_of[i, t]
                assert starts[i, r] <= t < starts[i, r] + lengths[i, r]

    def test_constant_row_single_run(self):
        states = np.ones((1, 9), dtype=bool)
        counts, starts, lengths, run_states, run_of = kernels.encode_runs(states)
        assert counts[0] == 1
        assert lengths[0, 0] == 9
        assert bool(run_states[0, 0]) is True
        assert (run_of[0] == 0).all()

    def test_one_column_matrix(self):
        states = np.array([[True], [False], [True]])
        counts, starts, lengths, run_states, run_of = kernels.encode_runs(states)
        assert counts.tolist() == [1, 1, 1]
        assert starts.tolist() == [[0], [0], [0]]
        assert lengths.tolist() == [[1], [1], [1]]
        assert run_states.tolist() == [[True], [False], [True]]
        assert run_of.tolist() == [[0], [0], [0]]

    def test_one_row_matrix(self):
        states = np.array([[0, 1, 1, 0, 0, 0, 1]], dtype=bool)
        table = kernels.encode_runs(states)
        assert [a.dtype for a in table] == [np.int64] * 3 + [bool, np.int64]
        counts, starts, lengths, run_states, run_of = table
        assert counts.tolist() == [4]
        assert starts.tolist() == [[0, 1, 3, 6]]
        assert lengths.tolist() == [[1, 2, 3, 1]]
        assert run_states.tolist() == [[False, True, False, True]]
        assert run_of.tolist() == [[0, 1, 1, 2, 2, 2, 3]]

    def test_padding_is_zero(self):
        # row 0 has 3 runs, row 1 one: its slots 1 and 2 are padding
        states = np.array([[1, 0, 0, 1], [1, 1, 1, 1]], dtype=bool)
        counts, starts, lengths, run_states, _ = kernels.encode_runs(states)
        assert counts.tolist() == [3, 1]
        assert starts.tolist() == [[0, 1, 3], [0, 0, 0]]
        assert lengths.tolist() == [[1, 2, 1], [4, 0, 0]]
        assert run_states.tolist() == [[True, False, True], [True, False, False]]

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_property_reconstruction(self, bits):
        states = np.array([bits], dtype=bool)
        counts, starts, lengths, run_states, _ = kernels.encode_runs(states)
        k = int(counts[0])
        rebuilt = np.concatenate(
            [np.full(lengths[0, r], run_states[0, r], dtype=bool) for r in range(k)]
        )
        assert np.array_equal(rebuilt, states[0])


def windows(row, t, alpha):
    """extract_windows of one-row matrix row at t, through its
    preceding_runs table."""
    _, starts, lengths, run_states, run_of = kernels.encode_runs(row)
    preceding = kernels.preceding_runs(lengths, run_states, alpha)
    return kernels.extract_windows(
        preceding, starts, run_states, run_of.T[t], t
    )


class TestExtractWindows:
    def test_hand_example(self):
        # row: vacant 2, occupied 3, vacant 1 (current)
        row = np.array([[0, 0, 1, 1, 1, 0]], dtype=bool)
        signed, current = windows(row, t=5, alpha=5)
        assert signed[0].tolist() == [0.0, 0.0, 0.0, 2.0, -3.0]
        assert current[0] == 1.0

    def test_alpha_truncates_to_newest(self):
        row = np.array([[0, 1, 0, 1, 0, 1]], dtype=bool)
        signed, current = windows(row, t=5, alpha=2)
        # newest two completed runs are (vacant 1) then (occupied 1)... the
        # final occupied run is current, so completed are runs 3 and 4.
        assert signed[0].tolist() == [-1.0, 1.0]
        assert current[0] == -1.0

    def test_reference_mid_matrix(self):
        row = np.array([[1, 1, 0, 0, 0, 1, 0]], dtype=bool)
        signed, current = windows(row, t=3, alpha=3)
        assert signed[0].tolist() == [0.0, 0.0, -2.0]
        assert current[0] == 2.0

    def test_preceding_runs_zero_padding(self):
        # row 0: occupied 2, vacant 1, occupied 3; row 1: vacant 6, one run
        rows = np.array([[1, 1, 0, 1, 1, 1], [0] * 6], dtype=bool)
        _, _, lengths, run_states, _ = kernels.encode_runs(rows)
        table = kernels.preceding_runs(lengths, run_states, 2)
        assert table.shape == (2, 3, 2) and table.dtype == np.float64
        # run r lists runs r - 2 and r - 1; zeros stand for runs before
        # the first, and for the padded slots of the one-run row
        assert table[0].tolist() == [[0.0, 0.0], [0.0, -2.0], [-2.0, 1.0]]
        assert table[1].tolist() == [[0.0, 0.0], [0.0, 6.0], [6.0, 0.0]]
        assert not np.signbit(table[table == 0]).any()


class TestNextVacantSteps:
    def test_scan_oracle(self):
        rng = np.random.default_rng(5)
        ends_occupied = make_rows(rng, 1, 20, p=0.6)
        ends_occupied[0, -3:] = True
        inputs = [
            make_rows(rng, 12, 90, p=0.6),
            np.ones((1, 1), dtype=bool),
            np.zeros((1, 1), dtype=bool),
            np.zeros((1, 15), dtype=bool),  # all vacant
            ends_occupied,
        ]
        for states in inputs:
            rows, cols = states.shape
            steps = kernels.next_vacant_steps(states)
            assert steps.shape == states.shape and steps.dtype == np.int64
            for i in range(rows):
                for t in range(cols):
                    expected = kernels.NEVER_VACANT
                    for u in range(t, cols):
                        if not states[i, u]:
                            expected = u - t
                            break
                    assert steps[i, t] == expected

    def test_all_occupied_row(self):
        states = np.ones((1, 6), dtype=bool)
        steps = kernels.next_vacant_steps(states)
        assert (steps == kernels.NEVER_VACANT).all()

    def test_worked_example(self):
        # occupied at t, t+1; vacant at t+2 -> distance 2
        states = np.array([[1, 1, 0]], dtype=bool)
        steps = kernels.next_vacant_steps(states)
        assert steps[0].tolist() == [2, 1, 0]


class TestMarkovOccupancy:
    def _inputs(self, rng, rows=9, steps=400):
        side = 3
        neighbors = np.full((rows, 4), rows)
        for i in range(rows):
            r, c = divmod(i, side)
            for k, (dr, dc) in enumerate(((1, 0), (-1, 0), (0, 1), (0, -1))):
                rr, cc = r + dr, c + dc
                if 0 <= rr < side and 0 <= cc < side:
                    neighbors[i, k] = rr * side + cc
        sin_mod = 0.1 * np.sin(2 * np.pi * (np.arange(steps) % 96) / 96)
        return dict(
            init_u=rng.random(rows),
            step_u=rng.random((steps - 1, rows)),
            sin_mod=sin_mod,
            neighbors=neighbors,
            base=0.45,
            gamma=0.5,
            rho0=0.3,
            hazard_base=0.6,
            hazard_slope=0.25,
            hazard_max=1.8,
            switch_cap=0.95,
        )

    def check_dense(self, rows, k, steps, base, gamma, amp, seed):
        """The chain on a random [rows, k] table, padding, repeats and
        self entries included, equals the dense [rows, rows] chain it
        stands for, byte for byte."""
        rng = np.random.default_rng(seed)
        kw = self._inputs(rng, rows=rows, steps=steps)
        kw.update(
            neighbors=rng.integers(0, rows + 1, (rows, k)),
            base=base,
            gamma=gamma,
            sin_mod=amp * np.sin(rng.random(steps) * 2 * np.pi),
        )
        got = kernels.markov_occupancy(**kw)
        dense = dense_oracle.neighbor_matrix(kw.pop("neighbors"))
        want = dense_oracle.markov_occupancy(
            neighbor_w=dense, neighbor_cnt=dense.sum(axis=1), **kw
        )
        assert got.shape == want.shape == (rows, steps)
        assert got.tobytes() == want.tobytes()

    @given(
        st.integers(1, 12), st.integers(0, 5), st.integers(1, 60),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.floats(0.0, 1.0), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_dense_oracle(
        self, rows, k, steps, base, gamma, amp, seed
    ):
        self.check_dense(rows, k, steps, base, gamma, amp, seed)

    @given(
        st.one_of(st.integers(1, 12), st.just(200)), st.integers(0, 5),
        st.integers(0, 4), st.sampled_from([0.0, 1.0, 0.45]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_block_edges_match_dense_oracle(self, rows, k, edge, base, seed):
        # the chain tabulates per block of steps: no step, one step short
        # of a block, one block, one step into the next, 5 into the third
        block = dense_oracle.markov_block(rows, k)
        steps = 1 + (0, block - 1, block, block + 1, 2 * block + 5)[edge]
        self.check_dense(rows, k, steps, base, 0.5, 0.3, seed)

    @pytest.mark.parametrize("meters", [120, 1200])
    def test_peak_is_the_output(self, monkeypatch, meters):
        # no [steps, rows] temporary besides the bool output: the traced
        # peak of one call stays within 256 KB of it
        seen = []
        chain = kernels.markov_occupancy

        def spy(*args):
            seen.append(args)
            return chain(*args)

        monkeypatch.setattr(ingest.kernels, "markov_occupancy", spy)
        ingest.synth_generate(
            ingest.SynthConfig(num_locations=meters, num_intervals=2016)
        )
        tracemalloc.start()
        try:
            occ = chain(*seen[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert occ.shape == (meters, 2016)
        assert peak < occ.nbytes + 256 * 1024

    def test_zero_base_rate_all_vacant(self):
        # amplitude scales with min(base, 1-base) upstream, so it is 0 here
        rng = np.random.default_rng(0)
        kw = self._inputs(rng)
        kw["base"] = 0.0
        kw["sin_mod"] = np.zeros_like(kw["sin_mod"])
        occ = kernels.markov_occupancy(**kw)
        assert not occ.any()

    def test_full_base_rate_all_occupied(self):
        rng = np.random.default_rng(0)
        kw = self._inputs(rng)
        kw["base"] = 1.0
        kw["sin_mod"] = np.zeros_like(kw["sin_mod"])
        occ = kernels.markov_occupancy(**kw)
        assert occ.all()

    def test_occupancy_near_base_rate(self):
        rng = np.random.default_rng(1)
        kw = self._inputs(rng, rows=9, steps=4000)
        occ = kernels.markov_occupancy(**kw)
        assert abs(occ.mean() - kw["base"]) < 0.12

    def test_deterministic_given_uniforms(self):
        rng = np.random.default_rng(2)
        kw = self._inputs(rng)
        a = kernels.markov_occupancy(**kw)
        b = kernels.markov_occupancy(**kw)
        assert np.array_equal(a, b)
