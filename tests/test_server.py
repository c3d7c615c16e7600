"""Aggregation: interval weights, smoothing schedule and baselines."""
from __future__ import annotations

import numpy as np
import pytest

from pmfl.nn import ModelSpec, flatten, init_params, unflatten
from pmfl.server import (
    AggregatorState,
    aggregate,
    baseline_aggregate,
    history_coefficient,
    update_weights,
)

from oracles import expected_weight, interval_lengths

TINY = ModelSpec(input_dim=2, encoder=(), projection=(), classifier=(2,))
DIM = TINY.num_params  # 6


def make_state(num_nodes, horizon=10, base=None, **kw) -> AggregatorState:
    if base is None:
        base = np.zeros(DIM)
    return AggregatorState(
        num_nodes=num_nodes,
        global_model=unflatten(TINY, np.asarray(base, dtype=float)),
        horizon=horizon,
        **kw,
    )


def run_trace(state: AggregatorState, trace: np.ndarray) -> None:
    """Feed a (rounds, nodes) indicator matrix through the weight bookkeeping."""
    for row in trace:
        update_weights(state, row)


def zero_updates(num_nodes) -> dict[int, np.ndarray]:
    return {k: np.zeros(DIM) for k in range(num_nodes)}


class TestHistoryCoefficient:
    def test_exact_endpoints(self):
        assert history_coefficient(0, 100) == 0.5
        assert history_coefficient(99, 100) == 0.0
        assert history_coefficient(0, 2) == 0.5
        assert history_coefficient(1, 2) == 0.0

    def test_strictly_decreasing(self):
        vals = [history_coefficient(t, 50) for t in range(50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_midpoint(self):
        assert history_coefficient(50, 101) == pytest.approx(0.25, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            history_coefficient(0, 1)
        with pytest.raises(ValueError):
            history_coefficient(5, 5)
        with pytest.raises(ValueError):
            history_coefficient(-1, 5)


class TestUpdateWeights:
    def test_hand_trace_running_mean(self):
        # events at rounds 2, 7, 11 -> interval lengths 3, 5, 4
        state = make_state(1, cutoff=None)
        trace = np.zeros((12, 1), dtype=int)
        trace[[2, 7, 11], 0] = 1
        run_trace(state, trace[:3])
        assert state.weights[0] == 3.0
        run_trace(state, trace[3:8])
        assert state.weights[0] == 4.0  # (3 + 5) / 2
        run_trace(state, trace[8:])
        assert state.weights[0] == 4.0  # (3 + 5 + 4) / 3
        assert state.event_counts[0] == 3
        assert state.rounds_waiting[0] == 0

    def test_initial_weight_is_one_until_first_event(self):
        state = make_state(1, cutoff=None)
        run_trace(state, np.zeros((30, 1), dtype=int))
        assert state.weights[0] == 1.0
        assert state.event_counts[0] == 0
        assert state.rounds_waiting[0] == 30

    def test_cutoff_closes_silent_intervals(self):
        state = make_state(1, cutoff=50)
        run_trace(state, np.zeros((49, 1), dtype=int))
        assert state.weights[0] == 1.0  # not yet
        run_trace(state, np.zeros((1, 1), dtype=int))
        assert state.weights[0] == 50.0
        run_trace(state, np.zeros((50, 1), dtype=int))
        assert state.weights[0] == 50.0  # mean of two cutoff-length intervals
        assert state.event_counts[0] == 2

    def test_participation_at_cutoff_counts_once(self):
        state = make_state(1, cutoff=5)
        trace = np.zeros((5, 1), dtype=int)
        trace[4, 0] = 1
        run_trace(state, trace)
        assert state.weights[0] == 5.0
        assert state.event_counts[0] == 1

    def test_every_round_participation_pins_weight_at_one(self):
        state = make_state(3, cutoff=50)
        run_trace(state, np.ones((40, 3), dtype=int))
        np.testing.assert_array_equal(state.weights, 1.0)

    @pytest.mark.parametrize("cutoff", [2, 5, 50, None])
    def test_matches_brute_force_oracle(self, cutoff):
        rng = np.random.default_rng(31)
        for _ in range(25):
            nodes = int(rng.integers(1, 6))
            rounds = int(rng.integers(1, 400))
            trace = (rng.random((rounds, nodes)) < rng.uniform(0.0, 0.3)).astype(int)
            state = make_state(nodes, cutoff=cutoff)
            run_trace(state, trace)
            for k in range(nodes):
                want = expected_weight(trace[:, k], cutoff)
                assert state.weights[k] == pytest.approx(want, rel=1e-12), (
                    f"node {k} cutoff {cutoff}"
                )
                assert state.event_counts[k] == len(interval_lengths(trace[:, k], cutoff))

    def test_validation(self):
        state = make_state(2)
        with pytest.raises(ValueError):
            update_weights(state, np.array([1, 0, 1]))
        with pytest.raises(ValueError):
            update_weights(state, np.array([2, 0]))


class TestAggregate:
    def test_corrected_closed_form(self):
        state = make_state(2, base=np.arange(DIM, dtype=float), history_size=0)
        state.weights[:] = [2.0, 3.0]
        u0 = np.full(DIM, 1.0)
        u1 = np.full(DIM, -2.0)
        new = aggregate(state, {0: u0, 1: u1}, mode="corrected")
        want = np.arange(DIM) + 0.5 * (2.0 * u0 + 3.0 * u1)
        np.testing.assert_array_equal(flatten(new), want)
        assert state.round_idx == 1

    def test_literal_mode_subtracts_raw_weighted_sum(self):
        state = make_state(2, base=np.arange(DIM, dtype=float), history_size=0,
                           global_lr=0.5)
        state.weights[:] = [1.0, 4.0]
        u0 = np.full(DIM, 3.0)
        u1 = np.full(DIM, 1.0)
        new = aggregate(state, {0: u0, 1: u1}, mode="literal")
        np.testing.assert_array_equal(
            flatten(new), np.arange(DIM) - 0.5 * (3.0 + 4.0)
        )

    def test_weights_override_replaces_adaptive_weights(self):
        state = make_state(2, base=np.zeros(DIM), history_size=0)
        state.weights[:] = [7.0, 9.0]  # must be ignored
        u = {0: np.ones(DIM), 1: np.ones(DIM)}
        new = aggregate(state, u, weights_override=np.ones(2))
        np.testing.assert_array_equal(flatten(new), 1.0)

    def test_smoothing_closed_forms(self):
        horizon = 5
        state = make_state(1, horizon=horizon, base=np.zeros(DIM), history_size=3)
        # round 0: no history yet, candidate adopted unmixed
        g1 = flatten(aggregate(state, {0: np.full(DIM, 1.0)}))
        np.testing.assert_array_equal(g1, 1.0)
        # round 1: psi = 0.5 - 1/8; history mean is the zero model
        psi1 = history_coefficient(1, horizon)
        g2 = flatten(aggregate(state, {0: np.full(DIM, 1.0)}))
        np.testing.assert_allclose(g2, (1.0 - psi1) * (g1 + 1.0), rtol=1e-15)
        # round 2: history holds both older globals
        psi2 = history_coefficient(2, horizon)
        g3 = flatten(aggregate(state, {0: np.full(DIM, 1.0)}))
        want = (1.0 - psi2) * (g2 + 1.0) + psi2 * (0.0 + g1) / 2.0
        np.testing.assert_allclose(g3, want, rtol=1e-15)

    def test_history_never_exceeds_size_minus_one(self):
        state = make_state(1, horizon=20, history_size=3)
        for _ in range(8):
            aggregate(state, {0: np.ones(DIM)})
        assert len(state.history) == 2

    def test_zero_updates_are_a_fixed_point(self):
        base = np.arange(DIM, dtype=float)
        # exact without smoothing; within an ulp with it ((1-psi)v + psi*v rounds)
        state = make_state(2, horizon=8, base=base, history_size=0)
        for _ in range(8):
            np.testing.assert_array_equal(flatten(aggregate(state, zero_updates(2))), base)
        smoothed = make_state(2, horizon=8, base=base, history_size=3)
        for _ in range(8):
            np.testing.assert_allclose(
                flatten(aggregate(smoothed, zero_updates(2))), base,
                rtol=1e-14, atol=1e-15,
            )

    def test_history_disabled_values(self):
        for hs in (0, 1):
            state = make_state(1, horizon=4, base=np.zeros(DIM), history_size=hs)
            for _ in range(3):
                new = aggregate(state, {0: np.full(DIM, 2.0)})
            np.testing.assert_array_equal(flatten(new), 6.0)
            assert len(state.history) == 0

    def test_update_dict_order_is_irrelevant(self):
        ua = {0: np.full(DIM, 1.0), 1: np.full(DIM, 2.0), 2: np.full(DIM, 3.0)}
        ub = {2: np.full(DIM, 3.0), 0: np.full(DIM, 1.0), 1: np.full(DIM, 2.0)}
        sa = make_state(3, history_size=0)
        sb = make_state(3, history_size=0)
        np.testing.assert_array_equal(
            flatten(aggregate(sa, ua)), flatten(aggregate(sb, ub))
        )

    def test_validation(self):
        state = make_state(2)
        with pytest.raises(ValueError):
            aggregate(state, {0: np.zeros(DIM)})  # node 1 missing
        with pytest.raises(ValueError):
            aggregate(state, {0: np.zeros(DIM), 1: np.zeros(3)})
        with pytest.raises(ValueError):
            aggregate(state, zero_updates(2), mode="averaged")
        with pytest.raises(ValueError):
            aggregate(state, zero_updates(2), weights_override=np.ones(3))


class TestStateValidation:
    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            make_state(0)
        with pytest.raises(ValueError):
            make_state(1, horizon=-1)
        with pytest.raises(ValueError):
            make_state(1, cutoff=0)
        with pytest.raises(ValueError):
            make_state(1, global_lr=0.0)
        with pytest.raises(ValueError):
            make_state(1, horizon=1, history_size=2)  # psi undefined

    def test_smoothing_disabled_allows_tiny_horizons(self):
        assert make_state(1, horizon=0, history_size=0).horizon == 0
        assert make_state(1, horizon=1, history_size=1).horizon == 1


class TestBaselines:
    def test_uniform_average_over_participants_only(self):
        state = make_state(3, base=np.zeros(DIM), history_size=0)
        updates = {0: np.full(DIM, 3.0), 1: np.full(DIM, 5.0), 2: np.full(DIM, 100.0)}
        new = baseline_aggregate(
            "uniform_average", state, updates, np.array([1, 1, 0])
        )
        np.testing.assert_array_equal(flatten(new), 4.0)

    def test_uniform_average_no_participants_keeps_model(self):
        base = np.arange(DIM, dtype=float)
        state = make_state(2, base=base, history_size=0)
        new = baseline_aggregate(
            "uniform_average", state, zero_updates(2), np.array([0, 0])
        )
        np.testing.assert_array_equal(flatten(new), base)
        assert state.round_idx == 1

    def test_cached_update_replays_stale_updates(self):
        state = make_state(3, base=np.zeros(DIM), history_size=0)
        u0 = np.full(DIM, 3.0)
        u1 = np.full(DIM, -6.0)
        g1 = baseline_aggregate(
            "cached_update", state,
            {0: u0, 1: np.zeros(DIM), 2: np.zeros(DIM)}, np.array([1, 0, 0]),
        )
        np.testing.assert_array_equal(flatten(g1), 1.0)  # 3/3
        g2 = baseline_aggregate(
            "cached_update", state,
            {0: np.zeros(DIM), 1: u1, 2: np.zeros(DIM)}, np.array([0, 1, 0]),
        )
        # cache now holds u0 (stale) and u1: (3 - 6)/3 = -1 on top of 1
        np.testing.assert_array_equal(flatten(g2), 0.0)
        np.testing.assert_array_equal(state.cached_updates[2], 0.0)

    def test_cached_update_refreshes_on_reparticipation(self):
        state = make_state(1, base=np.zeros(DIM), history_size=0)
        baseline_aggregate("cached_update", state, {0: np.full(DIM, 2.0)}, np.array([1]))
        baseline_aggregate("cached_update", state, {0: np.full(DIM, 8.0)}, np.array([1]))
        np.testing.assert_array_equal(state.cached_updates[0], 8.0)

    def test_cached_equals_uniform_under_full_participation(self):
        rng = np.random.default_rng(32)
        sa = make_state(3, base=np.zeros(DIM), history_size=0)
        sb = make_state(3, base=np.zeros(DIM), history_size=0)
        for _ in range(5):
            updates = {k: rng.standard_normal(DIM) for k in range(3)}
            ga = baseline_aggregate("cached_update", sa, updates, np.ones(3, dtype=int))
            gb = baseline_aggregate("uniform_average", sb, updates, np.ones(3, dtype=int))
            np.testing.assert_array_equal(flatten(ga), flatten(gb))

    def test_corrected_with_unit_weights_equals_uniform_when_all_attend(self):
        rng = np.random.default_rng(34)
        sa = make_state(3, base=np.zeros(DIM), history_size=0, cutoff=None)
        sb = make_state(3, base=np.zeros(DIM), history_size=0, cutoff=None)
        for _ in range(6):
            ind = np.ones(3, dtype=int)
            updates = {k: rng.standard_normal(DIM) for k in range(3)}
            update_weights(sa, ind)
            update_weights(sb, ind)
            ga = aggregate(sa, updates, mode="corrected")
            gb = baseline_aggregate("uniform_average", sb, updates, ind)
            np.testing.assert_array_equal(flatten(ga), flatten(gb))

    def test_validation(self):
        state = make_state(2)
        with pytest.raises(ValueError):
            baseline_aggregate("median", state, zero_updates(2), np.array([1, 1]))
        with pytest.raises(ValueError):
            baseline_aggregate("uniform_average", state, zero_updates(2), np.array([1]))
