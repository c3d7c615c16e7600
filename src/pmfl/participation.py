"""Round-by-round participation indicator generators.

Three trace families share one interface: independent Bernoulli draws, a
two-state Markov chain whose stay/leave probabilities derive from the node's
frequency, and a deterministic cyclic on/off window with a random offset.
Every node draws from its own named RNG stream, so traces are reproducible
and independent of how many nodes exist or in which order they are generated.
:func:`export_trace_csv` checks and converts the whole (rounds, nodes) matrix
in one pass, refusing a value that is not an integer, and formats each row
in one operation.

Note the Markov construction: with entry probability ``p01`` and exit
probability ``(1 - p_k) * p01`` the chain's stationary participation rate is
``p01 / (p01 + p10) = 1 / (2 - p_k)``, not ``p_k`` itself.  That is a property
of the generator as defined, and the tests pin it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_open
from .rng import stream

PATTERNS = ("bernoulli", "markovian", "cyclic")


def markov_exit_probability(p_k: float, p01: float) -> float:
    """Probability of leaving the participating state: (1 - p_k) * p01."""
    return (1.0 - p_k) * p01


def markov_stationary(p_k: float, p01: float) -> float:
    """Long-run participation rate of the two-state chain: 1 / (2 - p_k)."""
    p10 = markov_exit_probability(p_k, p01)
    return p01 / (p01 + p10)


@dataclass
class ParticipationSchedule:
    """Deterministic trace generator for all nodes of one run."""

    pattern: str
    frequencies: np.ndarray  # (num_nodes,)
    root_seed: int
    cycle_length: int = 100
    p01: float = 0.05

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        if self.frequencies.ndim != 1 or self.frequencies.size == 0:
            raise ValueError("frequencies must be a non-empty vector")
        if (self.frequencies < 0).any() or (self.frequencies > 1).any():
            raise ValueError("frequencies must lie in [0, 1]")
        if self.cycle_length < 1:
            raise ValueError("cycle_length must be >= 1")
        if not 0.0 < self.p01 <= 1.0:
            raise ValueError("p01 must lie in (0, 1]")

    @property
    def num_nodes(self) -> int:
        return int(self.frequencies.size)

    def node_trace(self, node_id: int, rounds: int) -> np.ndarray:
        """0/1 participation indicators for one node over ``rounds`` rounds."""
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        p = float(self.frequencies[node_id])
        rng = stream(self.root_seed, "participation", self.pattern, node_id)
        if self.pattern == "bernoulli":
            return (rng.random(rounds) < p).astype(np.int8)
        if self.pattern == "markovian":
            p10 = markov_exit_probability(p, self.p01)
            u = rng.random(rounds + 1)
            trace = np.zeros(rounds, dtype=np.int8)
            state = u[0] < markov_stationary(p, self.p01)
            for t in range(rounds):
                if t > 0:
                    state = (u[t] >= p10) if state else (u[t] < self.p01)
                trace[t] = state
            return trace
        # cyclic: on for the first ceil(p * cycle) offsets of each cycle
        offset = int(rng.integers(0, self.cycle_length))
        t = np.arange(rounds)
        phase = (t - offset) % self.cycle_length
        return (phase < p * self.cycle_length).astype(np.int8)

    def trace_matrix(self, rounds: int) -> np.ndarray:
        """(rounds, num_nodes) 0/1 matrix; column k is node k's trace."""
        cols = [self.node_trace(k, rounds) for k in range(self.num_nodes)]
        return np.stack(cols, axis=1) if cols else np.zeros((rounds, 0), dtype=np.int8)


def export_trace_csv(trace: np.ndarray, path) -> None:
    """Write a (rounds, nodes) indicator matrix as round-per-row CSV.

    The whole matrix is converted to integers in one pass, so a value that
    is not an integer (NaN, say) is refused with a ``ValueError`` before
    anything is written; each row is then one format operation.
    """
    trace = np.asarray(trace)
    if trace.dtype.kind == "f" and not (np.isfinite(trace) & (trace == np.trunc(trace))).all():
        raise ValueError("a participation trace holds integers only")
    rounds, nodes = trace.shape
    table = np.column_stack([np.arange(rounds), trace.astype(np.int64)])
    row = ",".join(["%d"] * (nodes + 1)) + "\r\n"  # csv.writer's line end
    with atomic_open(path, "w", newline="") as fh:
        fh.write(",".join(["round"] + [f"node_{k}" for k in range(nodes)]) + "\r\n")
        for values in table.tolist():
            fh.write(row % tuple(values))
