"""Participation trace generators: distributional and structural checks."""
from __future__ import annotations

import csv

import numpy as np
import pytest

from pmfl.participation import (
    ParticipationSchedule,
    export_trace_csv,
    markov_exit_probability,
    markov_stationary,
)

from oracles import looped_export_trace_csv


def bernoulli_sigma(p: float, rounds: int) -> float:
    return np.sqrt(p * (1.0 - p) / rounds)


def markov_sigma(p: float, p01: float, rounds: int) -> float:
    """Std of the time-average of a two-state chain at stationarity.

    The i.i.d. variance picks up the usual autocorrelation factor
    (2 - p01 - p10) / (p01 + p10).
    """
    p10 = markov_exit_probability(p, p01)
    pi1 = markov_stationary(p, p01)
    var = pi1 * (1.0 - pi1) * (2.0 - p01 - p10) / (p01 + p10) / rounds
    return float(np.sqrt(var))


def schedule(pattern, freqs, seed=0, **kw) -> ParticipationSchedule:
    return ParticipationSchedule(pattern, np.asarray(freqs, dtype=float), seed, **kw)


class TestValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            schedule("weekly", [0.5])
        with pytest.raises(ValueError):
            schedule("bernoulli", [])
        with pytest.raises(ValueError):
            schedule("bernoulli", [1.5])
        with pytest.raises(ValueError):
            schedule("bernoulli", [-0.1])
        with pytest.raises(ValueError):
            schedule("cyclic", [0.5], cycle_length=0)
        with pytest.raises(ValueError):
            schedule("markovian", [0.5], p01=0.0)
        with pytest.raises(ValueError):
            schedule("bernoulli", [0.5]).node_trace(0, -1)

    def test_zero_rounds_gives_empty_trace(self):
        assert schedule("bernoulli", [0.5]).node_trace(0, 0).size == 0


class TestBernoulli:
    def test_degenerate_frequencies(self):
        sched = schedule("bernoulli", [0.0, 1.0])
        np.testing.assert_array_equal(sched.node_trace(0, 500), 0)
        np.testing.assert_array_equal(sched.node_trace(1, 500), 1)

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.9])
    def test_empirical_frequency_within_three_sigma(self, p):
        trace = schedule("bernoulli", [p], seed=13).node_trace(0, 20000)
        assert abs(trace.mean() - p) < 3 * bernoulli_sigma(p, 20000)

    def test_rounds_are_uncorrelated(self):
        trace = schedule("bernoulli", [0.4], seed=14).node_trace(0, 50000).astype(float)
        a, b = trace[:-1], trace[1:]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(trace.size)

    def test_deterministic_and_node_keyed(self):
        sched = schedule("bernoulli", [0.5, 0.5], seed=15)
        again = schedule("bernoulli", [0.5, 0.5], seed=15)
        np.testing.assert_array_equal(sched.node_trace(0, 100), again.node_trace(0, 100))
        assert np.any(sched.node_trace(0, 100) != sched.node_trace(1, 100))


class TestMarkovian:
    def test_stationary_closed_form(self):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert markov_stationary(p, 0.05) == pytest.approx(1.0 / (2.0 - p), rel=1e-15)
        assert markov_exit_probability(0.3, 0.05) == pytest.approx(0.7 * 0.05)

    def test_full_frequency_locks_on(self):
        trace = schedule("markovian", [1.0], seed=16).node_trace(0, 300)
        np.testing.assert_array_equal(trace, 1)

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.6])
    def test_long_run_rate_is_stationary_not_nominal(self, p):
        rounds = 100_000
        trace = schedule("markovian", [p], seed=17).node_trace(0, rounds)
        target = markov_stationary(p, 0.05)
        assert abs(trace.mean() - target) < 3 * markov_sigma(p, 0.05, rounds)
        if p < 1.0:
            # emphatically not the nominal frequency
            assert abs(trace.mean() - p) > 10 * markov_sigma(p, 0.05, rounds)

    def test_lag_one_autocorrelation(self):
        p, p01, rounds = 0.3, 0.05, 200_000
        trace = schedule("markovian", [p], seed=18).node_trace(0, rounds).astype(float)
        want = 1.0 - p01 - markov_exit_probability(p, p01)
        got = np.corrcoef(trace[:-1], trace[1:])[0, 1]
        assert got == pytest.approx(want, abs=0.02)

    def test_transition_rates_match_parameters(self):
        p, p01, rounds = 0.4, 0.1, 200_000
        trace = schedule("markovian", [p], seed=19, p01=p01).node_trace(0, rounds)
        prev, nxt = trace[:-1], trace[1:]
        entry = nxt[prev == 0].mean()
        exit_ = 1.0 - nxt[prev == 1].mean()
        assert entry == pytest.approx(p01, abs=0.01)
        assert exit_ == pytest.approx(markov_exit_probability(p, p01), abs=0.01)

    def test_deterministic(self):
        a = schedule("markovian", [0.3], seed=20).node_trace(0, 1000)
        b = schedule("markovian", [0.3], seed=20).node_trace(0, 1000)
        np.testing.assert_array_equal(a, b)


class TestCyclic:
    def test_exact_count_per_cycle(self):
        L = 10
        sched = schedule("cyclic", [0.3], seed=21, cycle_length=L)
        trace = sched.node_trace(0, 40 * L)
        per_cycle = trace.reshape(40, L).sum(axis=1)
        np.testing.assert_array_equal(per_cycle, 3)

    def test_fractional_window_rounds_up(self):
        L = 8
        trace = schedule("cyclic", [0.3], seed=22, cycle_length=L).node_trace(0, 8 * L)
        # 0.3 * 8 = 2.4 -> phases {0, 1, 2} are on
        assert trace.reshape(8, L).sum(axis=1).tolist() == [3] * 8

    def test_periodic_with_cycle_length(self):
        L = 17
        trace = schedule("cyclic", [0.4], seed=23, cycle_length=L).node_trace(0, 5 * L)
        np.testing.assert_array_equal(trace[:-L], trace[L:])

    def test_on_window_is_contiguous_mod_cycle(self):
        L = 20
        trace = schedule("cyclic", [0.25], seed=24, cycle_length=L).node_trace(0, L)
        on = np.flatnonzero(trace)
        assert on.size == 5
        gaps = np.diff(np.concatenate([on, [on[0] + L]]))
        assert (gaps == 1).sum() == on.size - 1  # one wraparound jump at most

    def test_degenerate_frequencies(self):
        sched = schedule("cyclic", [0.0, 1.0], seed=25, cycle_length=10)
        np.testing.assert_array_equal(sched.node_trace(0, 100), 0)
        np.testing.assert_array_equal(sched.node_trace(1, 100), 1)

    def test_offsets_vary_per_node(self):
        sched = schedule("cyclic", [0.5] * 12, seed=26, cycle_length=50)
        first_on = [np.flatnonzero(sched.node_trace(k, 100))[0] for k in range(12)]
        assert len(set(first_on)) > 1


class TestMatrixAndExport:
    def test_matrix_columns_match_node_traces(self):
        sched = schedule("bernoulli", [0.2, 0.5, 0.8], seed=27)
        mat = sched.trace_matrix(200)
        assert mat.shape == (200, 3)
        assert mat.dtype == np.int8
        for k in range(3):
            np.testing.assert_array_equal(mat[:, k], sched.node_trace(k, 200))

    def test_csv_round_trip(self, tmp_path):
        sched = schedule("cyclic", [0.3, 0.7], seed=28, cycle_length=10)
        mat = sched.trace_matrix(30)
        path = tmp_path / "trace.csv"
        export_trace_csv(mat, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "node_0", "node_1"]
        assert len(rows) == 31
        back = np.array([[int(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(back, mat)


def _traces():
    """(name, matrix) pairs: every pattern, empty shapes and other dtypes."""
    rng = np.random.default_rng(29)
    freqs = rng.uniform(0.0, 1.0, 250)
    yield "bernoulli", schedule("bernoulli", freqs, seed=30).trace_matrix(400)
    yield "markovian", schedule("markovian", freqs[:30], seed=31).trace_matrix(120)
    yield "cyclic", schedule("cyclic", freqs[:7], seed=32, cycle_length=9).trace_matrix(50)
    yield "no_rounds", schedule("bernoulli", freqs[:5], seed=33).trace_matrix(0)
    yield "no_nodes", np.zeros((4, 0), dtype=np.int8)
    yield "wide_ints", rng.integers(-1000, 10**12, size=(6, 5))
    yield "bools", rng.random((5, 4)) < 0.5
    yield "integral_floats", rng.integers(-3, 4, size=(5, 4)).astype(np.float64)


TRACES = dict(_traces())


class TestMatchesTheLoopedWriter:
    """The participation CSV against the row-by-row csv.writer it replaced."""

    @pytest.mark.parametrize("trace", list(TRACES.values()), ids=list(TRACES))
    def test_same_bytes(self, tmp_path, trace):
        export_trace_csv(trace, tmp_path / "got.csv")
        looped_export_trace_csv(trace, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.5])
    def test_refuses_a_value_that_is_not_an_integer(self, tmp_path, bad):
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="integers only"):
            export_trace_csv(np.array([[0.0, 1.0], [1.0, bad]]), path)
        assert list(tmp_path.iterdir()) == []
