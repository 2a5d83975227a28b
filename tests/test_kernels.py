"""Kernel tests against independent oracles."""

from itertools import groupby

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parkrank import kernels


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


class TestExtractWindows:
    def test_hand_example(self):
        # row: vacant 2, occupied 3, vacant 1 (current)
        row = np.array([[0, 0, 1, 1, 1, 0]], dtype=bool)
        table = kernels.encode_runs(row)
        signed, current = kernels.extract_windows(*table[1:], t=5, alpha=5)
        assert signed[0].tolist() == [0.0, 0.0, 0.0, 2.0, -3.0]
        assert current[0] == 1.0

    def test_alpha_truncates_to_newest(self):
        row = np.array([[0, 1, 0, 1, 0, 1]], dtype=bool)
        table = kernels.encode_runs(row)
        signed, current = kernels.extract_windows(*table[1:], t=5, alpha=2)
        # newest two completed runs are (vacant 1) then (occupied 1)... the
        # final occupied run is current, so completed are runs 3 and 4.
        assert signed[0].tolist() == [-1.0, 1.0]
        assert current[0] == -1.0

    def test_reference_mid_matrix(self):
        row = np.array([[1, 1, 0, 0, 0, 1, 0]], dtype=bool)
        table = kernels.encode_runs(row)
        signed, current = kernels.extract_windows(*table[1:], t=3, alpha=3)
        assert signed[0].tolist() == [0.0, 0.0, -2.0]
        assert current[0] == 2.0


class TestNextVacantSteps:
    def test_scan_oracle(self):
        rng = np.random.default_rng(5)
        states = make_rows(rng, 12, 90, p=0.6)
        steps = kernels.next_vacant_steps(states)
        for i in range(12):
            for t in range(90):
                expected = kernels.NEVER_VACANT
                for u in range(t, 90):
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
        adj = np.zeros((rows, rows))
        for i in range(rows):
            r, c = divmod(i, side)
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < side and 0 <= cc < side:
                    adj[i, rr * side + cc] = 1.0
        sin_mod = 0.1 * np.sin(2 * np.pi * (np.arange(steps) % 96) / 96)
        return dict(
            init_u=rng.random(rows),
            step_u=rng.random((steps - 1, rows)),
            sin_mod=sin_mod,
            neighbor_w=adj,
            neighbor_cnt=adj.sum(axis=1),
            base=0.45,
            gamma=0.5,
            rho0=0.3,
            hazard_base=0.6,
            hazard_slope=0.25,
            hazard_max=1.8,
            switch_cap=0.95,
        )

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
