"""Aggregation: interval weights, smoothing schedule and every variant's rule."""
from __future__ import annotations

import copy

import numpy as np
import pytest

from pmfl.nn import ModelSpec, flatten, init_params, unflatten
from pmfl.participation import ParticipationSchedule
from pmfl.server import (
    AGGREGATION_MODES,
    VARIANTS,
    AggregatorState,
    aggregate,
    history_coefficient,
    replay_weights,
    update_weights,
)

from oracles import expected_weight, interval_lengths, padded_aggregate

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


def zero_updates(num_nodes) -> tuple[np.ndarray, np.ndarray]:
    """Zero updates from every node, as (updates, participants)."""
    return np.zeros((num_nodes, DIM)), np.arange(num_nodes)


def everyone(*rows) -> tuple[np.ndarray, np.ndarray]:
    """One row per node, every node attending, as (updates, participants)."""
    return np.stack(rows), np.arange(len(rows))


NOBODY = (np.zeros((0, DIM)), np.array([], dtype=np.int64))


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

    @pytest.mark.parametrize("bad", [-1, 0.5, np.nan, 2])
    def test_a_value_other_than_0_or_1_is_refused_and_changes_nothing(self, bad):
        state = make_state(3, cutoff=2)
        run_trace(state, np.array([[1, 0, 0], [0, 0, 1], [1, 0, 0]]))
        before = [a.copy() for a in (state.weights, state.rounds_waiting, state.event_counts)]
        for row in ([bad, 0, 1], [1, 1, bad]):
            with pytest.raises(ValueError, match="0/1"):
                update_weights(state, np.array(row))
        after = (state.weights, state.rounds_waiting, state.event_counts)
        for was, now in zip(before, after):
            np.testing.assert_array_equal(now.view(np.int64), was.view(np.int64))

    @pytest.mark.parametrize("dtype", [bool, np.int8])
    def test_bool_and_int8_rows_give_the_int64_weights(self, dtype):
        rng = np.random.default_rng(32)
        trace = (rng.random((80, 5)) < 0.3).astype(np.int64)
        want, got = make_state(5, cutoff=6), make_state(5, cutoff=6)
        run_trace(want, trace)
        run_trace(got, trace.astype(dtype))
        np.testing.assert_array_equal(got.weights.view(np.int64), want.weights.view(np.int64))
        np.testing.assert_array_equal(got.rounds_waiting, want.rounds_waiting)
        np.testing.assert_array_equal(got.event_counts, want.event_counts)


class TestReplayWeights:
    """The weights replayed from the trace are the live run's, bit for bit."""

    @pytest.mark.parametrize("pattern", ["bernoulli", "markovian", "cyclic"])
    @pytest.mark.parametrize("cutoff", [None, 6])
    def test_replay_after_every_round_matches_the_live_state(self, pattern, cutoff):
        rounds, nodes = 60, 12
        frequencies = np.linspace(0.05, 0.9, nodes)
        trace = ParticipationSchedule(pattern, frequencies, root_seed=3,
                                      cycle_length=10).trace_matrix(rounds)
        live = make_state(nodes, horizon=rounds, cutoff=cutoff)
        cutoff_events = np.zeros(nodes, dtype=bool)
        for t in range(rounds):
            update_weights(live, trace[t].astype(np.int64))  # as a round calls it
            cutoff_events |= (live.rounds_waiting == 0) & (trace[t] == 0)
            replayed = make_state(nodes, horizon=rounds, cutoff=cutoff, history_size=0)
            yielded = list(replay_weights(replayed, trace[: t + 1]))
            assert len(yielded) == t + 1 and yielded[-1] is replayed.weights
            np.testing.assert_array_equal(
                replayed.weights.view(np.int64), live.weights.view(np.int64))
            np.testing.assert_array_equal(replayed.rounds_waiting, live.rounds_waiting)
            np.testing.assert_array_equal(replayed.event_counts, live.event_counts)
        # with a cutoff, some interval is closed by the cutoff, not by attending
        assert cutoff_events.any() == (cutoff is not None)


class TestAggregate:
    def test_corrected_closed_form(self):
        state = make_state(2, base=np.arange(DIM, dtype=float), history_size=0)
        state.weights[:] = [2.0, 3.0]
        u0 = np.full(DIM, 1.0)
        u1 = np.full(DIM, -2.0)
        new = aggregate(state, *everyone(u0, u1), mode="corrected")
        want = np.arange(DIM) + 0.5 * (2.0 * u0 + 3.0 * u1)
        np.testing.assert_array_equal(flatten(new), want)
        assert state.round_idx == 1

    def test_literal_mode_subtracts_raw_weighted_sum(self):
        state = make_state(2, base=np.arange(DIM, dtype=float), history_size=0,
                           global_lr=0.5)
        state.weights[:] = [1.0, 4.0]
        u0 = np.full(DIM, 3.0)
        u1 = np.full(DIM, 1.0)
        new = aggregate(state, *everyone(u0, u1), mode="literal")
        np.testing.assert_array_equal(
            flatten(new), np.arange(DIM) - 0.5 * (3.0 + 4.0)
        )

    def test_wo_awc_weighs_every_node_one(self):
        state = make_state(2, base=np.zeros(DIM), history_size=0)
        state.weights[:] = [7.0, 9.0]  # must be ignored
        new = aggregate(state, *everyone(np.ones(DIM), np.ones(DIM)), "wo_awc")
        np.testing.assert_array_equal(flatten(new), 1.0)

    def test_smoothing_closed_forms(self):
        horizon = 5
        state = make_state(1, horizon=horizon, base=np.zeros(DIM), history_size=3)
        # round 0: no history yet, candidate adopted unmixed
        g1 = flatten(aggregate(state, *everyone(np.full(DIM, 1.0))))
        np.testing.assert_array_equal(g1, 1.0)
        # round 1: psi = 0.5 - 1/8; history mean is the zero model
        psi1 = history_coefficient(1, horizon)
        g2 = flatten(aggregate(state, *everyone(np.full(DIM, 1.0))))
        np.testing.assert_allclose(g2, (1.0 - psi1) * (g1 + 1.0), rtol=1e-15)
        # round 2: history holds both older globals
        psi2 = history_coefficient(2, horizon)
        g3 = flatten(aggregate(state, *everyone(np.full(DIM, 1.0))))
        want = (1.0 - psi2) * (g2 + 1.0) + psi2 * (0.0 + g1) / 2.0
        np.testing.assert_allclose(g3, want, rtol=1e-15)

    def test_history_never_exceeds_size_minus_one(self):
        state = make_state(1, horizon=20, history_size=3)
        for _ in range(8):
            aggregate(state, *everyone(np.ones(DIM)))
        assert len(state.history) == 2

    def test_zero_updates_are_a_fixed_point(self):
        base = np.arange(DIM, dtype=float)
        # exact without smoothing; within an ulp with it ((1-psi)v + psi*v rounds)
        state = make_state(2, horizon=8, base=base, history_size=0)
        for _ in range(8):
            np.testing.assert_array_equal(flatten(aggregate(state, *zero_updates(2))), base)
        smoothed = make_state(2, horizon=8, base=base, history_size=3)
        for _ in range(8):
            np.testing.assert_allclose(
                flatten(aggregate(smoothed, *zero_updates(2))), base,
                rtol=1e-14, atol=1e-15,
            )

    def test_history_disabled_values(self):
        for hs in (0, 1):
            state = make_state(1, horizon=4, base=np.zeros(DIM), history_size=hs)
            for _ in range(3):
                new = aggregate(state, *everyone(np.full(DIM, 2.0)))
            np.testing.assert_array_equal(flatten(new), 6.0)
            assert len(state.history) == 0

    def test_rows_follow_the_participant_ids(self):
        # row i carries the weight of node participants[i]
        rows = np.stack([np.full(DIM, 1.0), np.full(DIM, 2.0)])
        for part, want in (([0, 2], 1.0 * 1 + 3.0 * 2), ([1, 2], 2.0 * 1 + 3.0 * 2)):
            state = make_state(3, history_size=0)
            state.weights[:] = [1.0, 2.0, 3.0]
            new = aggregate(state, rows, np.array(part))
            np.testing.assert_array_equal(flatten(new), (1.0 / 3.0) * want)

    def test_validation(self):
        state = make_state(2)
        with pytest.raises(ValueError):
            aggregate(state, np.zeros((1, DIM)), np.arange(2))  # node 1's row missing
        with pytest.raises(ValueError):
            aggregate(state, np.zeros((2, 3)), np.arange(2))

    @pytest.mark.parametrize("variant, mode", [
        ("fedavg", "corrected"),
        ("pmfl", "averaged"),
        ("cached_update", "averaged"),  # checked although the rule ignores it
    ])
    def test_unknown_variant_or_mode_is_rejected(self, variant, mode):
        state = make_state(2)
        with pytest.raises(ValueError):
            aggregate(state, *zero_updates(2), variant, mode)
        assert state.round_idx == 0
        assert state.cached_updates is None


def random_round(rng, num_nodes, dim, share):
    """(updates, participants) of a round where each node attends with ``share``."""
    part = np.flatnonzero(rng.random(num_nodes) < share)
    return rng.standard_normal((part.size, dim)), part


class TestParticipantsOnly:
    """Rounds carry only the participants' rows; the zero-padded weighted sum
    of :func:`oracles.padded_aggregate` is the reference."""

    SPEC = ModelSpec(input_dim=40, encoder=(30,), projection=(), classifier=(10,))

    def _pair(self, num_nodes, rng, **kw):
        base = rng.standard_normal(self.SPEC.num_params)
        return [
            AggregatorState(
                num_nodes=num_nodes,
                global_model=unflatten(self.SPEC, base),
                horizon=30,
                **kw,
            )
            for _ in range(2)
        ]

    @pytest.mark.parametrize("case", ["corrected", "literal", "unit_weights"])
    def test_partial_rounds_match_zero_padding(self, case):
        rng = np.random.default_rng(60)
        variant = "wo_awc" if case == "unit_weights" else "pmfl"
        mode = "corrected" if case == "unit_weights" else case
        for num_nodes in (4, 37, 250):
            ours, padded = self._pair(num_nodes, rng, history_size=3, global_lr=0.7)
            for _ in range(12):
                share = rng.uniform(0.02, 0.5)
                updates, part = random_round(rng, num_nodes, self.SPEC.num_params, share)
                indicators = np.zeros(num_nodes, dtype=np.int64)
                indicators[part] = 1
                for state in (ours, padded):
                    update_weights(state, indicators)
                got = aggregate(ours, updates, part, variant, mode)
                want = padded_aggregate(padded, updates, part, variant, mode)
                # entries that cancel to near zero get the model's scale as a floor
                scale = np.abs(flatten(want)).max()
                np.testing.assert_allclose(
                    flatten(got), flatten(want), rtol=1e-12, atol=1e-12 * scale
                )
                # the next round starts from the padded result
                ours.global_model = want.copy()
                ours.history.rows = padded.history.rows

    @pytest.mark.parametrize("mode", ["corrected", "literal"])
    def test_full_attendance_matches_zero_padding_bit_for_bit(self, mode):
        rng = np.random.default_rng(61)
        for num_nodes in (1, 5, 40):
            ours, padded = self._pair(num_nodes, rng, history_size=3)
            for _ in range(6):
                ind = np.ones(num_nodes, dtype=np.int64)
                update_weights(ours, ind)
                update_weights(padded, ind)
                updates = rng.standard_normal((num_nodes, self.SPEC.num_params))
                part = np.arange(num_nodes)
                got = aggregate(ours, updates, part, mode=mode)
                want = padded_aggregate(padded, updates, part, mode=mode)
                np.testing.assert_array_equal(flatten(got), flatten(want))

    @pytest.mark.parametrize("variant, mode", [
        (variant, mode)
        for variant, row in VARIANTS.items()
        for mode in (AGGREGATION_MODES if row.rule == "weighted" else ("corrected",))
    ])
    def test_every_variant_matches_zero_padding_bit_for_bit(self, variant, mode):
        # the padded weighted sum adds zero rows in between, which moves its
        # bits unless everyone attends; the mean and cached rules pad nothing
        rng = np.random.default_rng(62)
        weighted = VARIANTS[variant].rule == "weighted"
        for num_nodes in (3, 37, 250):
            history_size = 3 if VARIANTS[variant].history else 0
            ours, padded = self._pair(num_nodes, rng, history_size=history_size)
            # uneven attendance first, so that the interval weights are not all one
            warmup = (rng.random((20, num_nodes)) < 0.3).astype(int)
            for state in (ours, padded):
                run_trace(state, warmup)
            for _ in range(10):
                share = 1.0 if weighted else rng.uniform(0.0, 0.6)
                updates, part = random_round(rng, num_nodes, self.SPEC.num_params, share)
                indicators = np.zeros(num_nodes, dtype=np.int64)
                indicators[part] = 1
                for state in (ours, padded):
                    update_weights(state, indicators)
                got = aggregate(ours, updates, part, variant, mode)
                want = padded_aggregate(padded, updates, part, variant, mode)
                np.testing.assert_array_equal(flatten(got), flatten(want))
            np.testing.assert_array_equal(ours.cached_updates, padded.cached_updates)

    @pytest.mark.parametrize("variant", ["pmfl", "wo_awc"])
    def test_empty_round_only_smooths(self, variant):
        horizon = 6
        state = make_state(3, horizon=horizon, base=np.zeros(DIM), history_size=3)
        for _ in range(2):
            aggregate(state, *everyone(*np.full((3, DIM), 1.0)))
        current = flatten(state.global_model).copy()
        older = state.history.rows.copy()
        psi = history_coefficient(2, horizon)
        new = aggregate(state, *NOBODY, variant)
        want = (1.0 - psi) * current + psi * older.mean(axis=0)
        np.testing.assert_array_equal(flatten(new), want)
        assert state.round_idx == 3
        # without smoothing the model stays exactly where it was
        still = make_state(3, base=np.arange(DIM, dtype=float), history_size=0)
        np.testing.assert_array_equal(flatten(aggregate(still, *NOBODY)), np.arange(DIM))

    @pytest.mark.parametrize("call", [
        lambda state, u, p: aggregate(state, u, p),
        lambda state, u, p: aggregate(state, u, p, "uniform_average"),
        lambda state, u, p: aggregate(state, u, p, "cached_update"),
    ])
    @pytest.mark.parametrize("updates, participants, problem", [
        (np.zeros((2, DIM)), [0, 1, 2], "row count"),
        (np.zeros((3, DIM)), [0, 1], "row count"),
        (np.zeros((2, DIM - 1)), [0, 1], "width"),
        (np.zeros(DIM), [0], "a vector, not rows"),
        (np.zeros((2, DIM)), [1, 1], "duplicated"),
        (np.zeros((2, DIM)), [2, 0], "unsorted"),
        (np.zeros((1, DIM)), [4], "out of range"),
        (np.zeros((1, DIM)), [-1], "negative"),
        (np.zeros((1, DIM)), [0.0], "not integer ids"),
        (np.zeros((1, DIM)), [[0]], "not 1-D"),
    ])
    def test_validation(self, call, updates, participants, problem):
        state = make_state(4)
        with pytest.raises(ValueError):
            call(state, updates, np.array(participants))
        assert state.round_idx == 0, problem


class TestPureRounds:
    """A round replaces the state's arrays and never writes them, so a round
    played on a shallow copy leaves the original as it was."""

    @staticmethod
    def arrays(state: AggregatorState) -> dict:
        return {"rounds_waiting": state.rounds_waiting, "event_counts": state.event_counts,
                "weights": state.weights, "cached_updates": state.cached_updates,
                "history": state.history.rows, "global_model": state.global_model.vector}

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_a_round_on_a_copy_leaves_the_original_bit_for_bit(self, variant):
        rng = np.random.default_rng(23)
        state = make_state(4, horizon=8, base=rng.standard_normal(DIM), cutoff=2,
                           history_size=3)
        # with participants, without any, everyone, then nobody twice: the cutoff fires
        trace = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 0],
                          [0, 0, 0, 0], [0, 0, 0, 0]])
        for indicators in trace:
            kept = self.arrays(state)
            bits = {name: None if a is None else a.tobytes() for name, a in kept.items()}
            played = copy.copy(state)
            update_weights(played, indicators)
            part = np.flatnonzero(indicators)
            aggregate(played, rng.standard_normal((part.size, DIM)), part, variant)
            assert state.round_idx == played.round_idx - 1
            for name, now in self.arrays(state).items():
                assert now is kept[name], name
                assert (None if now is None else now.tobytes()) == bits[name], name
            state = played
        assert state.round_idx == len(trace) and len(state.history) == 2


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
        updates = np.stack([np.full(DIM, 3.0), np.full(DIM, 5.0)])
        new = aggregate(state, updates, np.array([0, 1]), "uniform_average")
        np.testing.assert_array_equal(flatten(new), 4.0)

    def test_uniform_average_no_participants_keeps_model(self):
        base = np.arange(DIM, dtype=float)
        state = make_state(2, base=base, history_size=0)
        new = aggregate(state, *NOBODY, "uniform_average")
        np.testing.assert_array_equal(flatten(new), base)
        assert state.round_idx == 1

    def test_cached_update_replays_stale_updates(self):
        state = make_state(3, base=np.zeros(DIM), history_size=0)
        u0 = np.full(DIM, 3.0)
        u1 = np.full(DIM, -6.0)
        g1 = aggregate(state, u0[None], np.array([0]), "cached_update")
        np.testing.assert_array_equal(flatten(g1), 1.0)  # 3/3
        g2 = aggregate(state, u1[None], np.array([1]), "cached_update")
        # cache now holds u0 (stale) and u1: (3 - 6)/3 = -1 on top of 1
        np.testing.assert_array_equal(flatten(g2), 0.0)
        np.testing.assert_array_equal(state.cached_updates[2], 0.0)

    def test_cached_update_refreshes_on_reparticipation(self):
        state = make_state(1, base=np.zeros(DIM), history_size=0)
        aggregate(state, *everyone(np.full(DIM, 2.0)), "cached_update")
        aggregate(state, *everyone(np.full(DIM, 8.0)), "cached_update")
        np.testing.assert_array_equal(state.cached_updates[0], 8.0)

    def test_cached_equals_uniform_under_full_participation(self):
        rng = np.random.default_rng(32)
        sa = make_state(3, base=np.zeros(DIM), history_size=0)
        sb = make_state(3, base=np.zeros(DIM), history_size=0)
        for _ in range(5):
            updates = everyone(*rng.standard_normal((3, DIM)))
            ga = aggregate(sa, *updates, "cached_update")
            gb = aggregate(sb, *updates, "uniform_average")
            np.testing.assert_array_equal(flatten(ga), flatten(gb))

    def test_corrected_with_unit_weights_equals_uniform_when_all_attend(self):
        rng = np.random.default_rng(34)
        sa = make_state(3, base=np.zeros(DIM), history_size=0, cutoff=None)
        sb = make_state(3, base=np.zeros(DIM), history_size=0, cutoff=None)
        for _ in range(6):
            ind = np.ones(3, dtype=int)
            updates = everyone(*rng.standard_normal((3, DIM)))
            update_weights(sa, ind)
            update_weights(sb, ind)
            ga = aggregate(sa, *updates, mode="corrected")
            gb = aggregate(sb, *updates, "uniform_average")
            np.testing.assert_array_equal(flatten(ga), flatten(gb))

    def test_validation(self):
        state = make_state(2)
        with pytest.raises(ValueError):
            aggregate(state, *zero_updates(2), "median")
        with pytest.raises(ValueError):
            aggregate(state, np.zeros((2, DIM)), np.array([1]), "uniform_average")
