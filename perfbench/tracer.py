"""In-memory span tracing around the calls into each ``iuq`` layer.

The tracer replaces functions and methods at the place where the pipeline
looks them up (``iuq.harness`` binds most design and estimator functions by
name at import; the MVEE and the ellipsoid sampler are looked up in
``iuq.design``; ``simulate``, ``query`` and ``log_weights`` are methods), so
nothing inside ``iuq`` changes.  Spans are kept in flat arrays and written
to a side file when the run ends.
"""

import gzip
import time
from array import array
from collections import Counter

MACRO = "harness.macro"


class Tracer:
    """Spans (name, start, end, parent, macro id) plus per-layer counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.macro = array("l")
        self.counts = Counter()
        self.macro_id = -1
        self._stack = []
        self._patches = []

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.macro.append(self.macro_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def patch(self, owner, attr, name=None, on_result=None):
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name`` (none if ``name`` is None) and passes each result to
        ``on_result(counts, result)`` outside the span."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                result = tracer.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        """Wrap every layer entry point of the ``iuq`` pipeline where the
        pipeline looks it up."""
        from iuq import design, estimators, harness, input_models
        from iuq.simulators import erm, mm1, san

        sites = (
            ("design.bootstrap_params", harness, "bootstrap_params", None),
            ("design.sample_sim_params", harness, "sample_sim_params", _count_kept),
            ("design.min_enclosing_ellipsoid", design, "min_enclosing_ellipsoid",
             _count_log_volume),
            (None, design, "sample_in_ellipsoid", _count_drawn),
            ("design.cv_select_k", harness, "cv_select_k", None),
            ("estimators.build_run_table", harness, "build_run_table", None),
            ("simulators.simulate", mm1.Mm1Testbed, "simulate", _count_runs),
            ("simulators.simulate", san.SanTestbed, "simulate", _count_runs),
            ("simulators.simulate", erm.ErmTestbed, "simulate", _count_runs),
            ("estimators.klr_ratio", harness, "klr_ratio", _count_clamped),
            ("estimators.klr_fallback_k1", harness, "klr_fallback_k1", _count_fallback),
            ("estimators.NeighborIndex.query", estimators.NeighborIndex, "query", None),
            ("input_models.log_weights", input_models.IndependentExponentials,
             "log_weights", None),
            ("input_models.log_weights", input_models.MultivariateNormalKnownCov,
             "log_weights", None),
            ("estimators.std_ratio", harness, "std_ratio", None),
            ("ci.percentile_ci", harness, "percentile_ci", None),
        )
        for name, owner, attr, on_result in sites:
            self.patch(owner, attr, name, on_result)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-span duration minus the part of it covered by its children.

        Spans are stored in start order, so each parent's children arrive
        sorted by start; overlapping children are merged, not double
        counted.
        """
        n = len(self.start)
        covered = [0.0] * n
        reach = {}  # parent -> end of the child cover so far
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            s = max(self.start[i], self.start[p], reach.get(p, float("-inf")))
            e = min(self.end[i], self.end[p])
            if e > s:
                covered[p] += e - s
                reach[p] = e
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def totals(self):
        """Summed self seconds and call counts per span name."""
        seconds = Counter()
        calls = Counter()
        for i, st in enumerate(self.self_times()):
            name = self.names[self.name[i]]
            seconds[name] += st
            calls[name] += 1
        return seconds, calls

    def write(self, path):
        """Write every span as one CSV line to a gzip file."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,macro\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]},{self.start[i] - t0!r},"
                    f"{self.end[i] - t0!r},{self.parent[i]},{self.macro[i]}\n"
                )


def _count_kept(counts, sim):
    if sim.mode == "ellipsoid":
        counts["ellipsoid_kept"] += sim.params.shape[0]


def _count_drawn(counts, points):
    counts["ellipsoid_drawn"] += points.shape[0]


def _count_log_volume(counts, ellipsoid):
    counts["log_volume"] += ellipsoid.log_volume()


def _count_runs(counts, batch):
    counts["runs"] += batch.y.shape[0]


def _count_clamped(counts, estimate):
    counts["clamped_weights"] += estimate.clamped_weights


def _count_fallback(counts, estimate):
    counts["fallbacks"] += 1
    _count_clamped(counts, estimate)


# per-layer metric -> unit; every ".s" metric is self seconds per macro
PER_LAYER_UNITS = {
    "design.bootstrap_params.s": "s",
    "design.sample_sim_params.s": "s",
    "design.min_enclosing_ellipsoid.s": "s",
    "design.min_enclosing_ellipsoid.log_volume": "ln",
    "design.ellipsoid_accept_ratio": "ratio",
    "design.cv_select_k.s": "s",
    "design.cv_select_k.calls": "count",
    "estimators.build_run_table.s": "s",
    "simulators.simulate.s": "s",
    "simulators.runs": "count",
    "simulators.runs_per_s": "1/s",
    "estimators.klr_ratio.s": "s",
    "estimators.klr_ratio.calls": "count",
    "estimators.NeighborIndex.query.s": "s",
    "estimators.NeighborIndex.query.calls": "count",
    "input_models.log_weights.s": "s",
    "input_models.log_weights.calls": "count",
    "estimators.clamped_weights": "count",
    "estimators.std_ratio.s": "s",
    "estimators.fallbacks": "count",
    "ci.percentile_ci.s": "s",
    "harness.self.s": "s",
}


def layer_metrics(tracer, macros):
    """Per-macro per-layer values of every ``PER_LAYER_UNITS`` metric.

    Ratios and the mean log-volume read 0 where the layer never ran.
    """
    seconds, calls = tracer.totals()
    counts = tracer.counts
    values = {}
    for metric in PER_LAYER_UNITS:
        span, _, kind = metric.rpartition(".")
        if kind == "s":
            values[metric] = seconds[MACRO if span == "harness.self" else span] / macros
        elif kind == "calls":
            values[metric] = calls[span] / macros
    mvee_calls = calls["design.min_enclosing_ellipsoid"]
    values["design.min_enclosing_ellipsoid.log_volume"] = (
        counts["log_volume"] / mvee_calls if mvee_calls else 0.0
    )
    drawn = counts["ellipsoid_drawn"]
    values["design.ellipsoid_accept_ratio"] = counts["ellipsoid_kept"] / drawn if drawn else 0.0
    values["simulators.runs"] = counts["runs"] / macros
    sim_s = seconds["simulators.simulate"]
    values["simulators.runs_per_s"] = counts["runs"] / sim_s if sim_s else 0.0
    values["estimators.clamped_weights"] = counts["clamped_weights"] / macros
    values["estimators.fallbacks"] = counts["fallbacks"] / macros
    return values


def baseline_shares(values):
    """Shares of the mean traced macro wall time (the sum of all self
    times) in the ROADMAP Baseline columns."""
    macro_s = sum(v for k, v in values.items() if k.endswith(".s"))
    groups = {
        "ellipsoid": ("design.sample_sim_params.s", "design.min_enclosing_ellipsoid.s"),
        "klr est.": (
            "estimators.klr_ratio.s",
            "estimators.NeighborIndex.query.s",
            "input_models.log_weights.s",
        ),
        "CV of k": ("design.cv_select_k.s",),
        "simulate": ("simulators.simulate.s",),
    }
    return {col: sum(values[k] for k in keys) / macro_s for col, keys in groups.items()}
