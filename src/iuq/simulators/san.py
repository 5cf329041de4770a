"""Stochastic activity network testbed.

A directed acyclic graph of activities with independent exponential
durations.  The run outputs are Y = V * 1{T < threshold} and A = the
indicator, where V is the longest-path time from the source to the sink and
T is the time to complete every activity feeding a designated node set.
Both come from the critical-path rule: each arc is relaxed after every arc
into its tail, in the one topological order ``SanConfig`` computes.

The default 13-arc, 9-node topology below is calibrated so that
P(T < 2.4) at unit rates is approximately 0.091 (Monte Carlo over 10^6
runs gives 0.090); substitute an exact topology with an edge-list file if
one is available.
"""

import math
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

import numpy as np

from ..input_models import IndependentExponentials
from . import Testbed

DEFAULT_ARCS = (
    ("a", "b"),
    ("a", "c"),
    ("b", "c"),
    ("b", "d"),
    ("b", "f"),
    ("c", "f"),
    ("d", "e"),
    ("d", "g"),
    ("e", "f"),
    ("e", "h"),
    ("f", "i"),
    ("g", "h"),
    ("h", "i"),
)


@dataclass(frozen=True)
class SanConfig:
    """Activity network topology plus the conditioning rule.

    ``arcs`` may be listed in any order: arc k is parameter coordinate k
    whatever its place in the network.  ``nodes`` is the network's
    topological order and ``arc_order`` the arc positions sorted by the
    rank of each arc's tail in it, the order in which the critical-path
    rule relaxes the arcs.  ``t_nodes`` are the nodes whose completion
    defines T; the conditioning event is T < ``threshold``.
    """

    arcs: tuple
    source: str = "a"
    sink: str = "i"
    t_nodes: tuple = ("d", "f")
    threshold: float = 2.4
    nodes: tuple = field(init=False)
    arc_order: tuple = field(init=False)

    def __post_init__(self):
        if not self.threshold > 0:  # T >= 0, so no run would be in the event
            raise ValueError(f"threshold must be > 0 and not NaN, got {self.threshold!r}")
        arcs = tuple((str(u), str(v)) for u, v in self.arcs)
        sorter = TopologicalSorter()
        for u, v in arcs:
            sorter.add(v, u)
        try:
            nodes = tuple(sorter.static_order())
        except CycleError:
            raise ValueError("activity network contains a cycle") from None
        rank = {v: i for i, v in enumerate(nodes)}
        arc_order = tuple(sorted(range(len(arcs)), key=lambda k: rank[arcs[k][0]]))
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "t_nodes", tuple(self.t_nodes))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arc_order", arc_order)
        if self.source not in rank or self.sink not in rank:
            raise ValueError("source/sink must be nodes of the network")
        for t in self.t_nodes:
            if t not in rank:
                raise ValueError(f"T-node {t!r} is not a node of the network")
        # every arc into a tail comes earlier in arc_order, every arc out of
        # a head later, so one sweep each way finds what the source reaches
        # and what reaches the sink
        ordered = [arcs[k] for k in arc_order]
        from_source, to_sink = {self.source}, {self.sink}
        for u, v in ordered:
            if u in from_source:
                from_source.add(v)
        for u, v in reversed(ordered):
            if v in to_sink:
                to_sink.add(u)
        for u, v in arcs:
            if u not in from_source or v not in to_sink:
                raise ValueError(f"arc {u}->{v} lies on no source-to-sink path")

    @property
    def dim(self):
        return len(self.arcs)

    @classmethod
    def default(cls):
        return cls(arcs=DEFAULT_ARCS)

    @classmethod
    def from_edge_list(cls, path, **kwargs):
        """Load a topology from a plain-text file of ``src dst`` lines.

        Lines may come in any order; line k (blank and ``#`` comment lines
        not counted) is arc k, parameter coordinate k.  Keyword arguments
        go to the constructor.
        """
        arcs = []
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"malformed edge line: {line!r}")
                arcs.append((parts[0], parts[1]))
        return cls(arcs=tuple(arcs), **kwargs)


class SanTestbed(Testbed):
    """Conditional expectation of the source-to-sink completion time."""

    name = "san"

    def __init__(self, config=None):
        self.config = config or SanConfig.default()
        self.input_model = IndependentExponentials(self.config.dim)
        self.trace_model = self.input_model
        self.true_theta = np.ones(self.config.dim)
        order = {v: i for i, v in enumerate(self.config.nodes)}
        arcs = self.config.arcs
        self._arc_idx = [(k, order[arcs[k][0]], order[arcs[k][1]]) for k in self.config.arc_order]
        self._sink = order[self.config.sink]
        self._t_idx = [order[t] for t in self.config.t_nodes]

    def path_times(self, durations):
        """Longest-path completion times (V, T) for given arc durations.

        ``durations`` has shape (runs, n_arcs), column k the duration of
        arc k; the arcs are relaxed in ``config.arc_order``.  Exposed as a
        test hook for degenerate and hand-built duration patterns.
        """
        durations = np.atleast_2d(np.asarray(durations, dtype=float))
        comp = np.zeros((durations.shape[0], len(self.config.nodes)))
        for k, u, v in self._arc_idx:
            np.maximum(comp[:, v], comp[:, u] + durations[:, k], out=comp[:, v])
        v_time = comp[:, self._sink]
        t_time = comp[:, self._t_idx].max(axis=1)
        return v_time, t_time

    def _runs(self, theta, n_runs, rng):
        # one C-order fill of (n, n_runs, d): row i's draws are those of a
        # call at row i alone
        n, d = theta.shape
        durations = rng.exponential(1.0 / theta[:, None, :], size=(n, n_runs, d))
        durations = durations.reshape(n * n_runs, d)
        v_time, t_time = self.path_times(durations)
        a = (t_time < self.config.threshold).astype(float)
        y = v_time * a
        # one draw per arc: the counts are a read-only view of a single 1.0
        return y, a, np.broadcast_to(1.0, durations.shape), durations
