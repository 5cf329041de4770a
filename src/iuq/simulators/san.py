"""Stochastic activity network testbed.

A directed acyclic graph of activities with independent exponential
durations.  The run outputs are Y = V * 1{T < threshold} and A = the
indicator, where V is the longest-path time from the source to the sink and
T is the time to complete every activity feeding a designated node set.

The default 13-arc, 9-node topology below is calibrated so that
P(T < 2.4) at unit rates is approximately 0.091 (Monte Carlo over 10^6
runs gives 0.090); substitute an exact topology with an edge-list file if
one is available.
"""

from dataclasses import dataclass, field

import numpy as np

from ..input_models import IndependentExponentials

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


def _topological_order(nodes, arcs):
    indeg = {v: 0 for v in nodes}
    succ = {v: [] for v in nodes}
    for u, v in arcs:
        indeg[v] += 1
        succ[u].append(v)
    ready = [v for v in nodes if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if len(order) != len(nodes):
        raise ValueError("activity network contains a cycle")
    return order


def _reachable(start, adjacency):
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacency.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@dataclass(frozen=True)
class SanConfig:
    """Activity network topology plus the conditioning rule.

    ``t_nodes`` are the nodes whose completion defines T; the conditioning
    event is T < ``threshold``.
    """

    arcs: tuple
    source: str = "a"
    sink: str = "i"
    t_nodes: tuple = ("d", "f")
    threshold: float = 2.4
    nodes: tuple = field(init=False)

    def __post_init__(self):
        arcs = tuple((str(u), str(v)) for u, v in self.arcs)
        nodes = sorted({u for u, _ in arcs} | {v for _, v in arcs})
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "nodes", tuple(_topological_order(nodes, arcs)))
        if self.source not in nodes or self.sink not in nodes:
            raise ValueError("source/sink must be nodes of the network")
        for t in self.t_nodes:
            if t not in nodes:
                raise ValueError(f"T-node {t!r} is not a node of the network")
        succ = {}
        pred = {}
        for u, v in arcs:
            succ.setdefault(u, []).append(v)
            pred.setdefault(v, []).append(u)
        from_source = _reachable(self.source, succ)
        to_sink = _reachable(self.sink, pred)
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
    def from_edge_list(cls, path, source="a", sink="i", t_nodes=("d", "f"), threshold=2.4):
        """Load a topology from a plain-text file of ``src dst`` lines."""
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
        return cls(arcs=tuple(arcs), source=source, sink=sink, t_nodes=tuple(t_nodes),
                   threshold=threshold)


class SanTestbed:
    """Conditional expectation of the source-to-sink completion time."""

    name = "san"

    def __init__(self, config=None):
        self.config = config or SanConfig.default()
        self.input_model = IndependentExponentials(self.config.dim)
        self.trace_model = self.input_model
        self.true_theta = np.ones(self.config.dim)
        order = {v: i for i, v in enumerate(self.config.nodes)}
        self._arc_idx = [(order[u], order[v]) for u, v in self.config.arcs]
        self._sink = order[self.config.sink]
        self._t_idx = [order[t] for t in self.config.t_nodes]

    def lr_param(self, theta):
        return np.asarray(theta, dtype=float)

    def path_times(self, durations):
        """Longest-path completion times (V, T) for given arc durations.

        ``durations`` has shape (runs, n_arcs); exposed as a test hook for
        degenerate and hand-built duration patterns.
        """
        durations = np.atleast_2d(np.asarray(durations, dtype=float))
        comp = np.zeros((durations.shape[0], len(self.config.nodes)))
        for k, (u, v) in enumerate(self._arc_idx):
            np.maximum(comp[:, v], comp[:, u] + durations[:, k], out=comp[:, v])
        v_time = comp[:, self._sink]
        t_time = comp[:, self._t_idx].max(axis=1)
        return v_time, t_time

    def simulate(self, theta, n_runs, rng):
        from . import SimBatch

        theta = self.input_model.check_theta(theta)
        durations = rng.exponential(1.0 / theta, size=(int(n_runs), self.config.dim))
        v_time, t_time = self.path_times(durations)
        a = (t_time < self.config.threshold).astype(float)
        y = v_time * a
        # one draw per arc: the counts are a read-only view of a single 1.0
        counts = np.broadcast_to(1.0, durations.shape)
        return SimBatch(y=y, a=a, counts=counts, sums=durations)
