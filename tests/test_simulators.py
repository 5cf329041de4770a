import dataclasses
import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iuq.design import PilotResult
from iuq.harness import run_pilot
from iuq.input_models import EstimationError, pack_stats
from iuq.simulators import (
    ErmConfig,
    ErmTestbed,
    Mm1Testbed,
    QueueConfig,
    SanConfig,
    SanTestbed,
    bs_price,
    make_testbed,
    mm1_steady_state_mean,
    true_eta_oracle,
)
from iuq.simulators.mm1 import EXP_BLOCK, MAX_CYCLE_DRAWS

# the two ways ``simulate`` rejects a parameter, before any draw
SHAPE = "parameter must have shape"
SUPPORT = "outside the support"


def assert_rejected_without_draw(testbed, theta, message, n_runs=1):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=message):
        testbed.simulate(theta, n_runs, rng)
    assert rng.random() == np.random.default_rng(0).random()  # no draw was made


@pytest.mark.parametrize("testbed", [SanTestbed, Mm1Testbed, ErmTestbed],
                         ids=["san", "mm1", "erm"])
@pytest.mark.parametrize("n_runs", [-1, 2.7, True], ids=["negative", "fraction", "bool"])
def test_run_count_must_be_an_integer_of_at_least_zero(testbed, n_runs):
    tb = testbed()
    message = re.escape(f"n_runs must be an integer >= 0, got {n_runs!r}")
    assert_rejected_without_draw(tb, tb.true_theta, message, n_runs)


class ScriptedRng:
    """Test double serving a fixed script through the generator interface
    ``simulate`` reads: blocks of ``standard_exponential`` draws and a
    ``bit_generator.state`` to save and restore.  The state is the script
    position, so ``position`` after a call counts the draws it kept; reads
    past the script's end return 1.0 and leave ``position`` beyond it."""

    def __init__(self, values):
        self.values = list(values)
        self.position = 0
        self.bit_generator = self

    @property
    def state(self):
        return self.position

    @state.setter
    def state(self, position):
        self.position = position

    def standard_exponential(self, size):
        lo, self.position = self.position, self.position + size
        block = self.values[lo : self.position]
        return np.array(block + [1.0] * (size - len(block)))


class RecordingRng:
    """Wraps a generator and records each ``exponential`` draw by its scale."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = {}

    def exponential(self, scale):
        x = self.rng.exponential(scale)
        self.draws.setdefault(scale, []).append(x)
        return x


def reference_cycle(lam, mu, capacity, rng):
    """One regenerative cycle with one ``rng.exponential(scale)`` call per
    draw: the scalar reference ``Mm1Testbed.simulate`` must equal bit for
    bit.  Returns (Y, A, interarrival count, interarrival sum, service
    count, service sum)."""
    ia_scale = 1.0 / lam
    sv_scale = 1.0 / mu
    ia_count = sv_count = 0
    ia_sum = sv_sum = 0.0

    def draw_ia():
        nonlocal ia_count, ia_sum
        x = rng.exponential(ia_scale)
        ia_count += 1
        ia_sum += x
        return x

    def draw_sv():
        nonlocal sv_count, sv_sum
        x = rng.exponential(sv_scale)
        sv_count += 1
        sv_sum += x
        return x

    n_sys = 1
    pending = deque()
    dep_next = draw_sv()
    arr_next = draw_ia()
    t_prev = 0.0
    area = 0.0
    while True:
        if arr_next < dep_next:
            area += n_sys * (arr_next - t_prev)
            t_prev = arr_next
            if n_sys == 0:
                cycle_len = arr_next
                break
            arr_next = t_prev + draw_ia()
            if n_sys < capacity:
                pending.append(draw_sv())
                n_sys += 1
            if ia_count + sv_count > MAX_CYCLE_DRAWS:
                raise EstimationError(
                    f"M/M/1 cycle at arrival rate {lam!r}, service rate {mu!r} "
                    f"exceeded {MAX_CYCLE_DRAWS} draws"
                )
        else:
            area += n_sys * (dep_next - t_prev)
            t_prev = dep_next
            n_sys -= 1
            dep_next = t_prev + pending.popleft() if n_sys >= 1 else math.inf
    return area, cycle_len, ia_count, ia_sum, sv_count, sv_sum


def reference_batch(lam, mu, capacity, n_runs, rng):
    """(y, a, counts, sums) of ``n_runs`` reference cycles, arrival first."""
    cycles = [reference_cycle(lam, mu, capacity, rng) for _ in range(n_runs)]
    out = np.array(cycles, dtype=float).reshape(n_runs, 6)
    return out[:, 0], out[:, 1], out[:, [2, 4]], out[:, [3, 5]]


# four parameters per testbed; the third mm1 row is above unit load
PARAMETER_ROWS = {
    "san": np.linspace(0.7, 1.3, 4 * 13).reshape(4, 13),
    "mm1": np.array([[0.5, 1.5], [0.9, 1.1], [1.2, 1.0], [0.3, 2.0]]),
    "erm": np.array([[0.05, 0.1], [-0.2, 0.3], [0.4, -0.1], [0.0, 0.0]]),
}


def per_row_batches(testbed, rows, n_runs, rng):
    """(y, a, counts, sums) of one ``simulate`` call per row, concatenated."""
    batches = [testbed.simulate(row, n_runs, rng) for row in rows]
    return [np.concatenate([getattr(b, f) for b in batches])
            for f in ("y", "a", "counts", "sums")]


class TestParameterBatches:
    """One call at n parameters is n calls at one parameter each."""

    @pytest.mark.parametrize("n_runs", [1, 7, 99])
    @pytest.mark.parametrize("name", sorted(PARAMETER_ROWS))
    def test_rows_equal_per_row_calls(self, name, n_runs):
        tb, rows = make_testbed(name), PARAMETER_ROWS[name]
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        batch = tb.simulate(rows, n_runs, rng)
        want = per_row_batches(tb, rows, n_runs, ref_rng)
        for field, ref in zip(("y", "a", "counts", "sums"), want):
            got = getattr(batch, field)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), field
        assert batch.y.shape == (len(rows) * n_runs,)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_runaway_row_fails_where_the_per_row_calls_fail(self, monkeypatch):
        # row 2 cannot empty its queue; rows 0 and 1 finish and row 3 never starts
        import iuq.simulators.mm1 as mm1

        monkeypatch.setattr(mm1, "MAX_CYCLE_DRAWS", 5000)
        rows = np.array([[0.5, 1.5], [0.8, 1.0], [14.7, 1.0], [0.5, 1.5]])
        message = r"arrival rate 14\.7, service rate 1\.0 exceeded 5000 draws"
        tb, rng, ref_rng = Mm1Testbed(), np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(EstimationError, match=message):
            tb.simulate(rows, 5, rng)
        for row in rows[:2]:
            tb.simulate(row, 5, ref_rng)
        with pytest.raises(EstimationError, match=message):
            tb.simulate(rows[2], 5, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize(
        "name, j, bad",
        [("san", 2, 0.0), ("san", 0, -1.0), ("mm1", 1, np.nan), ("mm1", 3, np.inf),
         ("erm", 3, np.inf), ("erm", 1, np.nan)],
    )
    def test_bad_row_is_named_before_any_draw(self, name, j, bad):
        rows = PARAMETER_ROWS[name].copy()
        rows[j, -1] = bad
        message = f"parameter row {j} .* outside the support"
        assert_rejected_without_draw(make_testbed(name), rows, message, n_runs=3)

    @pytest.mark.parametrize("name", sorted(PARAMETER_ROWS))
    def test_one_row_array_is_the_one_parameter(self, name):
        tb, theta = make_testbed(name), PARAMETER_ROWS[name][1]
        batch = tb.simulate(theta[None], 5, np.random.default_rng(2))
        single = tb.simulate(theta, 5, np.random.default_rng(2))
        assert batch.y.tobytes() == single.y.tobytes()
        assert batch.sums.tobytes() == single.sums.tobytes()

    def test_no_rows_make_an_empty_batch_without_a_draw(self):
        rng = np.random.default_rng(0)
        batch = Mm1Testbed().simulate(np.empty((0, 2)), 4, rng)
        assert batch.y.shape == (0,) and batch.counts.shape == (0, 2)
        assert rng.random() == np.random.default_rng(0).random()


class TestSanTopology:
    def test_default_is_13_arcs_9_nodes(self):
        cfg = SanConfig.default()
        assert cfg.dim == 13
        assert len(cfg.nodes) == 9

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            SanConfig(arcs=(("a", "b"), ("b", "c"), ("c", "a"), ("a", "i")))

    def test_dangling_arc_rejected(self):
        # d -> e reaches no sink
        with pytest.raises(ValueError, match="no source-to-sink"):
            SanConfig(arcs=(("a", "b"), ("b", "i"), ("d", "e")), t_nodes=("b",))

    def test_edge_list_loader(self, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("# tiny chain\na b\nb c\n")
        cfg = SanConfig.from_edge_list(path, source="a", sink="c", t_nodes=("b",))
        assert cfg.dim == 2

    def test_unknown_t_node_rejected(self):
        with pytest.raises(ValueError, match="T-node"):
            SanConfig(arcs=(("a", "b"),), source="a", sink="b", t_nodes=("z",))

    @pytest.mark.parametrize("threshold", [math.nan, np.float64("nan"), 0.0, -1.0],
                             ids=["nan", "numpy-nan", "zero", "negative"])
    def test_nan_threshold_rejected_at_build(self, threshold):
        # T >= 0, so every run's A would be 0; an infinite threshold stays legal
        with pytest.raises(ValueError, match="threshold must be > 0 and not NaN"):
            dataclasses.replace(SanConfig.default(), threshold=threshold)
        assert dataclasses.replace(SanConfig.default(), threshold=math.inf).threshold == math.inf


class TestSanRuns:
    def test_zero_durations_hook(self):
        tb = SanTestbed()
        v, t = tb.path_times(np.zeros((1, 13)))
        assert v[0] == 0.0 and t[0] == 0.0
        a = float(t[0] < tb.config.threshold)
        assert a == 1.0 and v[0] * a == 0.0

    def test_three_node_chain_longest_path(self, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text("a b\nb c\n")
        cfg = SanConfig.from_edge_list(path, source="a", sink="c", t_nodes=("b",))
        tb = SanTestbed(cfg)
        v, t = tb.path_times(np.array([[1.0, 2.0]]))
        assert v[0] == pytest.approx(3.0)
        assert t[0] == pytest.approx(1.0)

    def test_lines_out_of_topological_order(self, tmp_path):
        # line k is still arc k: duration 1 on b->i, 2 on a->b
        path = tmp_path / "reversed.txt"
        path.write_text("b i\na b\n")
        cfg = SanConfig.from_edge_list(path, source="a", sink="i", t_nodes=("b",))
        assert cfg.arcs == (("b", "i"), ("a", "b"))
        v, t = SanTestbed(cfg).path_times(np.array([[1.0, 2.0]]))
        assert v[0] == 3.0 and t[0] == 2.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_line_order_matches_brute_force_paths(self, data):
        n = data.draw(st.integers(2, 8), label="nodes")
        # arcs i->j with i < j form a DAG; every node but the source gets an
        # arc in and every node but the sink an arc out, so each arc lies on a
        # path from node 0 to node n-1
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        arcs = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="arcs")
        arcs += [(0, j) for j in range(1, n) if all(b != j for _, b in arcs)]
        arcs += [(i, n - 1) for i in range(n - 1) if all(a != i for a, _ in arcs)]
        names = data.draw(st.permutations("abcdefgh"[:n]), label="names")
        durations = data.draw(
            st.lists(st.floats(0.0, 10.0), min_size=len(arcs), max_size=len(arcs)),
            label="durations",
        )
        t_nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True),
                            label="t_nodes")

        def longest(target, node=0, length=0.0):
            # brute force: the maximum over every path from the source
            best = length if node == target else -math.inf
            for k, (a, b) in enumerate(arcs):
                if a == node:
                    best = max(best, longest(target, b, length + durations[k]))
            return best

        lines = data.draw(st.permutations(range(len(arcs))), label="line order")
        cfg = SanConfig(arcs=tuple((names[arcs[k][0]], names[arcs[k][1]]) for k in lines),
                        source=names[0], sink=names[n - 1],
                        t_nodes=tuple(names[t] for t in t_nodes))
        v_time, t_time = SanTestbed(cfg).path_times(np.array([[durations[k] for k in lines]]))
        assert v_time[0] == longest(n - 1)
        assert t_time[0] == max(longest(t) for t in t_nodes)

    def test_parallel_paths_take_maximum(self, tmp_path):
        path = tmp_path / "diamond.txt"
        path.write_text("a b\na c\nb d\nc d\n")
        cfg = SanConfig.from_edge_list(path, source="a", sink="d", t_nodes=("b",))
        tb = SanTestbed(cfg)
        v, _ = tb.path_times(np.array([[1.0, 5.0, 10.0, 2.0]]))
        assert v[0] == pytest.approx(11.0)

    def test_trace_is_one_draw_per_arc(self, rng):
        tb = SanTestbed()
        batch = tb.simulate(tb.true_theta, 1, rng)
        assert batch.counts.tolist() == [[1.0] * 13]
        assert batch.sums.shape == (1, 13) and np.all(batch.sums > 0)
        # the sums are the arc durations themselves
        v, t = tb.path_times(batch.sums)
        assert batch.a[0] == float(t[0] < tb.config.threshold)
        assert batch.y[0] == v[0] * batch.a[0]

    def test_y_is_v_times_indicator(self, rng):
        tb = SanTestbed()
        batch = tb.simulate(tb.true_theta, 2000, rng)
        assert set(np.unique(batch.a)) <= {0.0, 1.0}
        assert np.all(batch.y[batch.a == 0.0] == 0.0)
        assert np.all(batch.y[batch.a == 1.0] > 0.0)

    def test_conditioning_probability_near_target(self, rng):
        tb = SanTestbed()
        batch = tb.simulate(tb.true_theta, 200_000, rng)
        assert batch.a.mean() == pytest.approx(0.091, abs=0.006)

    def test_completion_dominates_every_arc(self, rng):
        # every arc lies on some source-to-sink path, so the network
        # completion time is at least each single duration
        tb = SanTestbed()
        durations = rng.exponential(1.0, size=(500, 13))
        v, _ = tb.path_times(durations)
        assert np.all(v >= durations.max(axis=1) - 1e-12)

    def test_reproducible_runs(self):
        tb = SanTestbed()
        b1 = tb.simulate(tb.true_theta, 1, np.random.default_rng(7))
        b2 = tb.simulate(tb.true_theta, 1, np.random.default_rng(7))
        for field in ("y", "a", "counts", "sums"):
            assert np.array_equal(getattr(b1, field), getattr(b2, field))

    @pytest.mark.parametrize(
        "theta, message",
        [(np.ones(12), SHAPE), (np.ones((2, 12)), SHAPE), (1.0, SHAPE),
         ([0.0] + [1.0] * 12, SUPPORT), ([1.0] * 12 + [-0.0], SUPPORT),
         ([1.0] * 6 + [-0.5] + [1.0] * 6, SUPPORT), ([np.inf] + [1.0] * 12, SUPPORT),
         ([1.0] * 12 + [np.nan], SUPPORT)],
        ids=["twelve-rates", "2d", "scalar", "zero", "negative-zero", "negative", "inf", "nan"],
    )
    def test_rates_outside_the_support_raise(self, theta, message):
        assert_rejected_without_draw(SanTestbed(), theta, message)


def replay_cycle(interarrivals, services, capacity):
    """Independent reconstruction of (Y, A) from a cycle's recorded draws.

    Builds admitted customers' departure times with the FIFO recursion
    dep_j = max(arr_j, dep_{j-1}) + service_j and integrates the step
    function of the head count between events.
    """
    arrivals = np.cumsum(interarrivals)
    cycle_end = arrivals[-1]  # the arrival that finds the system empty
    svc = list(services)
    admitted = [0.0]
    deps = [svc.pop(0)]  # initial customer enters service at time 0
    for t in arrivals[:-1]:
        occupancy = sum(1 for x in admitted if x <= t) - sum(1 for d in deps if d <= t)
        if occupancy < capacity:
            admitted.append(t)
            deps.append(max(t, deps[-1]) + svc.pop(0))
    assert not svc, "replay must consume every service draw"
    assert max(deps) <= cycle_end, "system must be empty when the cycle ends"
    events = sorted([(t, +1) for t in admitted] + [(d, -1) for d in deps])
    area = 0.0
    n = 0
    prev = 0.0
    for t, step in events:
        area += n * (t - prev)
        n += step
        prev = t
    area += n * (cycle_end - prev)
    return area, cycle_end


def reference_rows(rows, capacity, n_runs, rng):
    """``reference_batch`` at each (arrival rate, service rate) row in turn,
    on one generator, concatenated."""
    batches = [reference_batch(lam, mu, capacity, n_runs, rng) for lam, mu in rows]
    return [np.concatenate(field) for field in zip(*batches)]


class TestOneCustomerCycles:
    """Cycles of one customer are rebuilt from the draws, the others kept
    from the event loop; every mix of the two equals the per-draw
    reference, row by row, generator end state included."""

    @staticmethod
    def simulate_against_reference(rows, capacity, n_runs, seed):
        rows = np.asarray(rows, dtype=float)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = Mm1Testbed(QueueConfig(capacity)).simulate(rows, n_runs, rng)
        want = reference_rows(rows, capacity, n_runs, ref_rng)
        for field, ref in zip(("y", "a", "counts", "sums"), want):
            got = getattr(batch, field)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), field
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        return batch

    def test_no_one_customer_cycle(self):
        # capacity 1 at load >= 20: the second arrival nearly always comes
        # first, is blocked, and the cycle reads three draws or more
        rows = [[20.0, 1.0], [45.0, 1.5], [12.5, 0.5]]
        batch = self.simulate_against_reference(rows, 1, 10, seed=1)
        assert (batch.counts.sum(axis=1) > 2).all()

    def test_no_busy_cycle(self):
        rows = [[1e-3, 1.0], [2e-3, 2.0], [5e-4, 0.5]]
        batch = self.simulate_against_reference(rows, 10, 50, seed=4)
        assert (batch.counts == 1).all()

    def test_one_customer_cycle_across_a_block_boundary(self):
        # a cycle whose service draw ends one block and whose interarrival
        # draw opens the next; only a blocked arrival makes a cycle's draw
        # count odd, so the capacity is small
        batch = self.simulate_against_reference([[0.5, 1.0]], 2, 300, seed=3)
        draws = batch.counts.sum(axis=1)
        offsets = np.cumsum(draws) - draws
        straddles = (draws == 2) & (offsets % EXP_BLOCK == EXP_BLOCK - 1)
        assert straddles.any()

    @pytest.mark.parametrize("n, n_runs", [(14, 146), (292, 7)], ids=["std", "klr"])
    def test_benchmark_chunk_shapes(self, n, n_runs):
        # the chunks build_run_table simulates for the m=800 workloads, at
        # parameters around the true load 1/3
        noise = np.exp(0.1 * np.random.default_rng(n).standard_normal((n, 2)))
        batch = self.simulate_against_reference([0.5, 1.5] * noise, 10, n_runs, seed=n)
        assert 0 < (batch.counts.sum(axis=1) == 2).mean() < 1


class TestMm1Cycle:
    def test_single_customer_cycle(self):
        tb = Mm1Testbed()
        # draw order: initial service, then interarrival
        rng = ScriptedRng([2.0, 5.0])
        batch = tb.simulate(np.array([1.0, 1.0]), 1, rng)
        assert batch.y[0] == pytest.approx(2.0)
        assert batch.a[0] == pytest.approx(5.0)
        assert batch.counts[0].tolist() == [1.0, 1.0]
        assert batch.sums[0].tolist() == [5.0, 2.0]
        assert rng.position == 2  # the stream ends after the draws used

    def test_two_customer_overlap_cycle(self):
        # hand trace: arrivals at 0 and 1; services 3.0 (first) and 1.0
        # (second, starts at 3); head count is 1 on [0,1), 2 on [1,3),
        # 1 on [3,4), 0 on [4,11); area 1 + 4 + 1 = 6
        tb = Mm1Testbed()
        rng = ScriptedRng([3.0, 1.0, 10.0, 1.0])
        batch = tb.simulate(np.array([1.0, 1.0]), 1, rng)
        assert batch.y[0] == pytest.approx(6.0)
        assert batch.a[0] == pytest.approx(11.0)
        # interarrivals 1 + 10, services 3 + 1
        assert batch.counts[0].tolist() == [2.0, 2.0]
        assert batch.sums[0].tolist() == [11.0, 4.0]
        assert rng.position == 4

    def test_blocked_arrivals_consume_no_service(self):
        # capacity 1: the second arrival (t=1) is blocked; only draws are
        # the initial service, two interarrivals
        tb = Mm1Testbed(QueueConfig(capacity=1))
        rng = ScriptedRng([3.0, 1.0, 9.0])
        batch = tb.simulate(np.array([1.0, 1.0]), 1, rng)
        assert batch.counts[0].tolist() == [2.0, 1.0]
        assert batch.sums[0].tolist() == [10.0, 3.0]
        assert batch.y[0] == pytest.approx(3.0)
        assert batch.a[0] == pytest.approx(10.0)
        assert rng.position == 3

    def test_replay_oracle_agrees(self, rng):
        tb = Mm1Testbed()
        theta = np.array([0.9, 1.1])  # high load exercises blocking
        for _ in range(300):
            rec = RecordingRng(np.random.default_rng())
            rec.rng.bit_generator.state = rng.bit_generator.state
            batch = tb.simulate(theta, 1, rng)
            # the scalar reference on the same stream gives the same bits
            # and records each draw
            y, a, _, _, _, _ = reference_cycle(*theta, 10, rec)
            assert (batch.y[0], batch.a[0]) == (y, a)
            assert rng.random() == rec.rng.random()
            # distinct rates keep the two draw streams apart by scale
            interarrivals = rec.draws[1.0 / theta[0]]
            services = rec.draws[1.0 / theta[1]]
            y, a = replay_cycle(interarrivals, services, 10)
            assert batch.y[0] == pytest.approx(y)
            assert batch.a[0] == pytest.approx(a)
            assert batch.counts[0].tolist() == [len(interarrivals), len(services)]
            assert batch.sums[0] == pytest.approx([sum(interarrivals), sum(services)])

    @settings(max_examples=120, deadline=None)
    @given(
        capacity=st.sampled_from([1, 2, 3, 10]),
        mu=st.floats(0.2, 5.0),
        load=st.floats(0.05, 1.5),
        n_runs=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_scalar_reference_bit_for_bit(self, capacity, mu, load, n_runs, seed):
        lam = load * mu
        rng = np.random.default_rng(seed)
        tb = Mm1Testbed(QueueConfig(capacity=capacity))
        batch = tb.simulate([lam, mu], n_runs, rng)
        ref_rng = np.random.default_rng(seed)
        y, a, counts, sums = reference_batch(lam, mu, capacity, n_runs, ref_rng)
        assert batch.y.tobytes() == y.tobytes()
        assert batch.a.tobytes() == a.tobytes()
        assert batch.counts.tobytes() == counts.tobytes()
        assert batch.sums.tobytes() == sums.tobytes()
        # the generator stands exactly where per-draw calls leave it
        assert rng.random() == ref_rng.random()

    def test_cycles_longer_than_a_block_match_the_reference(self):
        # at load 1.4 and capacity 10 a busy period spans many blocks
        tb = Mm1Testbed(QueueConfig(capacity=10))
        rng = np.random.default_rng(11)
        batch = tb.simulate([1.4, 1.0], 30, rng)
        ref_rng = np.random.default_rng(11)
        y, a, counts, sums = reference_batch(1.4, 1.0, 10, 30, ref_rng)
        assert batch.counts.sum(axis=1).max() > 4 * EXP_BLOCK
        assert batch.y.tobytes() == y.tobytes() and batch.a.tobytes() == a.tobytes()
        assert batch.counts.tobytes() == counts.tobytes()
        assert batch.sums.tobytes() == sums.tobytes()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("capacity", [1, 2, 10])
    @pytest.mark.parametrize("cap", [3, 4, 5, 7])
    def test_small_draw_caps_fail_where_the_reference_fails(self, monkeypatch, cap, capacity):
        # below 4 draws the cap fires at a busy cycle's second arrival
        import iuq.simulators.mm1 as mm1

        monkeypatch.setattr(mm1, "MAX_CYCLE_DRAWS", cap)
        monkeypatch.setitem(globals(), "MAX_CYCLE_DRAWS", cap)  # read by reference_cycle
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        tb = Mm1Testbed(QueueConfig(capacity=capacity))
        with pytest.raises(EstimationError) as got:
            tb.simulate([2.0, 1.0], 50, rng)
        with pytest.raises(EstimationError) as want:
            reference_batch(2.0, 1.0, capacity, 50, ref_rng)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"exceeded {cap} draws")
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_pilot_result_unchanged(self):
        # the values the per-draw simulation gave: the pilot interleaves
        # bootstrap and simulation draws on one generator
        assert run_pilot("mm1", 50, seed=3, b=20, s0=10) == PilotResult(
            r=34, final_s=30, zeta_y=0.10064864744035884, zeta_a=0.9882061467237451
        )

    def test_invariants_over_random_cycles(self, rng):
        tb = Mm1Testbed()
        batch = tb.simulate(np.array([0.8, 1.0]), 2000, rng)
        assert np.all(batch.a > 0)
        assert np.all(batch.y >= 0)
        assert np.all(batch.y <= 10 * batch.a + 1e-12)
        # at least one interarrival (the cycle-ending one), one service
        assert np.all(batch.counts[:, 0] >= 1)
        assert np.all(batch.counts[:, 1] >= 1)

    def test_batch_stats_match_single_runs(self):
        tb = Mm1Testbed()
        theta = np.array([0.5, 1.5])
        batch = tb.simulate(theta, 5, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        rec = RecordingRng(np.random.default_rng(3))
        for j in range(5):
            rec.draws.clear()
            single = tb.simulate(theta, 1, rng)
            reference_cycle(*theta, 10, rec)
            assert single.y[0] == batch.y[j] and single.a[0] == batch.a[j]
            assert batch.counts[j, 0] == len(rec.draws[1.0 / theta[0]])
            assert batch.sums[j, 1] == pytest.approx(sum(rec.draws[1.0 / theta[1]]))

    def test_long_run_mean_matches_closed_form(self, rng):
        tb = Mm1Testbed()
        res = true_eta_oracle(tb, np.array([0.5, 1.5]), 100_000, rng)
        assert abs(res.eta - mm1_steady_state_mean(0.5, 1.5)) < 4 * res.se

    def test_runaway_cycle_raises(self, rng):
        # at lambda/mu = 14.7 a full queue takes about 14.7^10 events to
        # empty; the draw cap turns that hang into a per-macro failure
        ref_rng = np.random.default_rng()
        ref_rng.bit_generator.state = rng.bit_generator.state
        message = r"arrival rate 14\.7, service rate 1\.0 exceeded 1000000 draws"
        with pytest.raises(EstimationError, match=message):
            Mm1Testbed().simulate([14.7, 1.0], 1, rng)
        with pytest.raises(EstimationError, match=message):
            reference_cycle(14.7, 1.0, 10, ref_rng)
        # the failed call also leaves the stream after its last draw
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize(
        "theta, message",
        [(0.5, SHAPE), ([0.5], SHAPE), ([0.5, 1.5, 1.0], SHAPE), ([[0.5, 1.5, 1.0]], SHAPE),
         ([[[0.5, 1.5]]], SHAPE), ([0.0, 1.5], SUPPORT), ([0.5, -0.0], SUPPORT),
         ([-0.5, 1.5], SUPPORT), ([0.5, -2.0], SUPPORT), ([np.inf, 1.5], SUPPORT),
         ([0.5, -np.inf], SUPPORT), ([np.nan, 1.5], SUPPORT), ([0.5, np.nan], SUPPORT)],
        ids=["scalar", "one-rate", "three-rates", "2d", "3d", "zero-arrival",
             "negative-zero-service", "negative-arrival", "negative-service", "inf-arrival",
             "minus-inf-service", "nan-arrival", "nan-service"],
    )
    def test_rates_outside_the_support_raise(self, theta, message):
        assert_rejected_without_draw(Mm1Testbed(), theta, message)

    @pytest.mark.parametrize("capacity", [0, -1, 2.5, True, "3", None],
                             ids=["zero", "negative", "fraction", "bool", "str", "none"])
    def test_capacity_must_be_an_integer_of_at_least_one(self, capacity):
        message = re.escape(f"capacity must be an integer >= 1, got {capacity!r}")
        with pytest.raises(ValueError, match=message):
            QueueConfig(capacity=capacity)
        with pytest.raises(ValueError, match=message):
            mm1_steady_state_mean(0.5, 1.5, capacity)

    def test_numpy_integer_capacity_is_stored_as_int(self):
        assert type(QueueConfig(np.int64(3)).capacity) is int
        assert mm1_steady_state_mean(0.5, 1.5, np.int64(10)) == mm1_steady_state_mean(0.5, 1.5)

    def test_closed_form_value(self):
        # rho = 1/3, capacity 10: sum(n rho^n)/sum(rho^n)
        assert mm1_steady_state_mean(0.5, 1.5) == pytest.approx(0.4999379, abs=1e-6)

    @pytest.mark.parametrize("lam, mu, capacity, want",
                             [(1e31, 1.0, 10, 10.0), (2.0, 1.0, 1023, 1022.0)],
                             ids=["rho-1e31", "capacity-1023"])
    def test_closed_form_past_the_float_range_of_rho_powers(self, lam, mu, capacity, want):
        # rho^capacity (or capacity * rho^capacity) overflows; the mirrored
        # law (1/rho)^n does not, and its mean lies just below capacity
        assert mm1_steady_state_mean(lam, mu, capacity) == want

    def test_closed_form_above_unit_load_is_the_mirrored_mean(self):
        # rho = 3: capacity less the mean at rho = 1/3, bit for bit the
        # direct sum(n rho^n)/sum(rho^n)
        n = np.arange(11)
        w = 3.0 ** n
        assert mm1_steady_state_mean(3.0, 1.0) == float((n * w).sum() / w.sum())
        assert mm1_steady_state_mean(3.0, 1.0) == 9.500062095672495

    @pytest.mark.parametrize(
        "lam, mu",
        [(0.0, 1.5), (0.5, -1.0), (np.nan, 1.5), (0.5, np.nan), (np.inf, 1.5), (0.5, np.inf)],
        ids=["zero-arrival", "negative-service", "nan-arrival", "nan-service",
             "inf-arrival", "inf-service"],
    )
    def test_closed_form_rejects_rates_outside_the_support(self, lam, mu):
        with pytest.raises(ValueError, match=SUPPORT):
            mm1_steady_state_mean(lam, mu)


class TestBlackScholes:
    def test_reference_price(self):
        assert bs_price("call", 100.0, 100.0, 0.02, 0.2, 1.0) == pytest.approx(
            8.916, abs=1e-3
        )

    def test_deep_itm_low_vol_limit(self):
        got = bs_price("call", 100.0, 40.0, 0.02, 1e-6, 0.5)
        assert got == pytest.approx(100.0 - 40.0 * math.exp(-0.01), abs=1e-8)

    def test_zero_ttm_intrinsic(self):
        assert bs_price("call", 105.0, 100.0, 0.02, 0.2, 0.0) == 5.0
        assert bs_price("put", 95.0, 100.0, 0.02, 0.2, 0.0) == 5.0

    def test_put_call_parity(self, rng):
        spots = rng.uniform(50.0, 150.0, size=200)
        for strike in (80.0, 100.0, 120.0):
            call = bs_price("call", spots, strike, 0.02, 0.3, 1.5)
            put = bs_price("put", spots, strike, 0.02, 0.3, 1.5)
            parity = spots - strike * math.exp(-0.02 * 1.5)
            assert np.max(np.abs(call - put - parity)) < 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bs_price("call", -1.0, 100.0, 0.02, 0.2, 1.0)
        with pytest.raises(ValueError):
            bs_price("straddle", 100.0, 100.0, 0.02, 0.2, 1.0)
        nan = math.nan
        # spot, strike, rate, vol, ttm; each has one input that is not finite
        bad = [([100.0, nan], 100.0, 0.02, 0.2, 1.0), (100.0, nan, 0.02, 0.2, 1.0),
               (100.0, 100.0, nan, 0.2, 1.0), (100.0, 100.0, 0.02, nan, 1.0),
               (100.0, 100.0, 0.02, 0.2, nan), (math.inf, 100.0, 0.02, 0.2, 1.0)]
        for args in bad:
            with pytest.raises(ValueError, match="require finite inputs"):
                bs_price("call", *args)


class TestErm:
    def test_infinite_threshold_makes_indicator_one(self, rng):
        tb = ErmTestbed(ErmConfig.default(k_star=np.inf))
        batch = tb.simulate(tb.true_theta, 500, rng)
        assert np.all(batch.a == 1.0)

    def test_trace_is_one_vector_draw(self, rng):
        tb = ErmTestbed()
        batch = tb.simulate(tb.true_theta, 1, rng)
        assert batch.counts.tolist() == [[1.0, 1.0]]
        # the sums are the drifts the run's log-price increments z imply,
        # z / tau + vol**2 / 2; mapped back, they give the run's spots
        z = (batch.sums - 0.5 * np.asarray(tb.config.vols) ** 2) * tb.config.horizon
        spots = np.asarray(tb.config.s0) * np.exp(z)
        assert batch.a[0] == float(spots.sum() < tb.config.k_star)
        assert batch.y[0] == pytest.approx(tb.portfolio_value(spots)[0] * batch.a[0])

    def test_threshold_is_sum_of_marginal_quantiles(self):
        cfg = ErmConfig.default()
        # P(S_tau^l < q_l) = 5% per stock under the true drifts
        assert cfg.k_star == pytest.approx(93.6647 + 85.4970, abs=0.001)

    def test_unconditional_value_matches_direct_average(self, rng):
        # with an infinite threshold, eta is the unconditional expected
        # portfolio value: cross-check against pricing lognormal draws
        tb = ErmTestbed(ErmConfig.default(k_star=np.inf))
        res = true_eta_oracle(tb, tb.true_theta, 200_000, rng)
        drifts = tb.trace_model.sample(tb.true_theta, rng, size=200_000)
        z = (drifts - 0.5 * np.asarray(tb.config.vols) ** 2) * tb.config.horizon
        direct = tb.portfolio_value(np.asarray(tb.config.s0) * np.exp(z))
        se = direct.std(ddof=1) / math.sqrt(direct.size)
        assert abs(res.eta - direct.mean()) < 4 * math.hypot(se, res.se)

    def test_batch_matches_single_run(self):
        tb = ErmTestbed()
        batch = tb.simulate(tb.true_theta, 3, np.random.default_rng(11))
        single = tb.simulate(tb.true_theta, 1, np.random.default_rng(11))
        assert single.a[0] == batch.a[0]
        assert single.y[0] == pytest.approx(batch.y[0], rel=1e-12)
        assert single.sums[0] == pytest.approx(batch.sums[0], rel=1e-12)

    @pytest.mark.parametrize(
        "theta, message",
        [(0.05, SHAPE), ([0.05, 0.1, 0.0], SHAPE), ([[0.05, 0.1, 0.0]], SHAPE),
         ([np.nan, 0.1], SUPPORT), ([0.05, np.inf], SUPPORT), ([-np.inf, 0.1], SUPPORT)],
        ids=["scalar", "three-drifts", "2d", "nan-drift", "inf-drift", "minus-inf-drift"],
    )
    def test_drifts_outside_the_support_raise(self, theta, message):
        assert_rejected_without_draw(ErmTestbed(), theta, message)

    @pytest.mark.parametrize(
        "change, message",
        [({"expiry": math.inf}, "expiry < inf"), ({"vols": (0.15, math.nan)}, "volatilities"),
         ({"call_strikes": (80.0, -1.0)}, "strikes"), ({"put_strikes": (math.nan,)}, "strikes"),
         ({"rate": math.nan}, "rate")],
        ids=["inf-expiry", "nan-vol", "negative-strike", "nan-strike", "nan-rate"],
    )
    def test_config_rejects_option_terms_bs_price_would(self, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ErmConfig.default(), **change)

    @pytest.mark.parametrize(
        "change, message",
        [({"s0": (-100.0, 100.0)}, "s0"), ({"s0": (100.0, math.nan)}, "s0"),
         ({"s0": (math.inf, 100.0)}, "s0"), ({"k_star": math.nan}, "k_star"),
         ({"k_star": 0.0}, "k_star must be > 0"), ({"k_star": -1.0}, "k_star must be > 0"),
         ({"true_theta": (math.nan, 0.1)}, "true_theta"),
         ({"true_theta": (0.05, -math.inf)}, "true_theta")],
        ids=["negative-spot", "nan-spot", "inf-spot", "nan-k-star", "zero-k-star",
             "negative-k-star", "nan-drift", "inf-drift"],
    )
    def test_config_rejects_what_every_run_would_fail_on(self, change, message):
        # a bad spot fails every simulate call; spots are positive, so a NaN
        # or non-positive k_star makes every A 0
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ErmConfig.default(), **change)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
    def test_portfolio_rejects_spots_bs_price_would(self, bad):
        with pytest.raises(ValueError, match="require finite spots > 0"):
            ErmTestbed().portfolio_value(np.array([[100.0, 100.0], [100.0, bad]]))

    def test_overflowing_spot_outside_the_event_raises(self, rng):
        # a drift of 1e5 overflows the first spot to inf; inf < k_star is
        # false, so the run is not priced, but its spot is still checked
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match="require finite spots > 0"):
                ErmTestbed().simulate([1e5, 0.0], 3, rng)

    @pytest.mark.parametrize("k_star, priced", [(None, "some"), (math.inf, "all"),
                                                (1.0, "none")],
                             ids=["default", "inf", "one"])
    def test_trace_sums_map_back_to_the_priced_increments(self, k_star, priced, monkeypatch):
        # each row's log-increments are N((theta - vol**2 / 2) tau, tau cov);
        # the trace sums are the drifts z / tau + vol**2 / 2 they imply, and
        # the trace model's LR between two drifts is the increments' own
        from scipy.stats import multivariate_normal

        tb = ErmTestbed(ErmConfig.default(k_star))
        priced_rows, value = [], tb.portfolio_value

        def counted_value(spots):
            priced_rows.append(len(spots))
            return value(spots)

        monkeypatch.setattr(tb, "portfolio_value", counted_value)
        cfg, tau = tb.config, tb.config.horizon
        half_var = 0.5 * np.array([0.15, 0.35]) ** 2
        theta = np.array([[0.05, 0.10], [0.3, -0.2]])
        batch = tb.simulate(theta, 50, np.random.default_rng(3))
        normals = np.random.default_rng(3).standard_normal((2, 50, 2))
        means = (theta - half_var) * tau
        z = (means[:, None, :] + normals @ np.linalg.cholesky(tau * cfg.cov).T).reshape(100, 2)
        np.testing.assert_allclose(batch.sums, z / tau + half_var, rtol=1e-12)
        # only the runs in the event are priced; Y is exactly value * A,
        # with +0.0 outside the event
        spots = np.asarray(cfg.s0) * np.exp(z)
        np.testing.assert_array_equal(batch.a, spots.sum(axis=1) < cfg.k_star)
        hits = int(batch.a.sum())
        assert {"some": 0 < hits < 100, "all": hits == 100, "none": hits == 0}[priced]
        assert priced_rows == [hits]
        expected = value(spots) * batch.a
        np.testing.assert_array_equal(batch.y, expected)
        np.testing.assert_array_equal(np.signbit(batch.y), np.signbit(expected))
        stats = pack_stats(batch.counts, batch.sums)[:, None, :]  # one run per batch
        coefs = tb.trace_model.coefficients(np.repeat(theta, 50, axis=0))
        got = tb.trace_model.log_weights(stats, coefs, theta[1])[:, 0]
        density = [multivariate_normal(mean, tau * cfg.cov).logpdf for mean in means]
        own = np.concatenate([density[0](z[:50]), density[1](z[50:])])
        np.testing.assert_allclose(got, density[1](z) - own, rtol=1e-9, atol=1e-9)


class TestOracle:
    def test_rejects_small_budget(self, rng):
        tb = Mm1Testbed()
        for budget in (100, 10_000.9, True):
            with pytest.raises(ValueError):
                true_eta_oracle(tb, tb.true_theta, budget, rng)

    def test_chunked_sums_match_a_two_pass_reference(self, monkeypatch):
        import iuq.simulators as simulators

        monkeypatch.setattr(simulators, "ORACLE_CHUNK", 10_000)
        tb = SanTestbed()
        res = true_eta_oracle(tb, tb.true_theta, 50_000, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        batches = [tb.simulate(tb.true_theta, 10_000, rng) for _ in range(5)]
        sum_y = sum_a = 0.0
        for batch in batches:
            sum_y += batch.y.sum()
            sum_a += batch.a.sum()
        eta = sum_y / sum_a
        g2 = sum(np.sum((b.y - eta * b.a) ** 2) for b in batches)
        se = np.sqrt(g2 / 50_000) / (sum_a / 50_000) / np.sqrt(50_000)
        assert res.eta == eta
        assert res.se == pytest.approx(se, rel=1e-9)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2)], ids=["two-rows", "one-row"])
    def test_rejects_parameter_arrays(self, shape):
        # runs at several parameters would pool into one ratio
        rng = np.random.default_rng(0)
        message = re.escape(f"parameter must have shape (2,), got {shape}")
        with pytest.raises(ValueError, match=message):
            true_eta_oracle(Mm1Testbed(), np.full(shape, 0.5), 10_000, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_all_zero_denominator_fails(self, rng):
        # the testbeds reject an impossible event at build, so a stand-in
        # testbed returns A = 0 for every run
        from iuq import IndependentExponentials
        from iuq.simulators import Testbed

        class NoEvent(Testbed):
            input_model = IndependentExponentials(2)

            def _runs(self, theta, n_runs, rng):
                zeros = np.zeros(len(theta) * n_runs)
                return zeros, zeros, np.ones((zeros.size, 2)), np.ones((zeros.size, 2))

        with pytest.raises(EstimationError, match="denominator outputs are all zero"):
            true_eta_oracle(NoEvent(), [1.0, 2.0], 10_000, rng)

    def test_make_testbed_names(self):
        assert make_testbed("san").name == "san"
        assert make_testbed("mm1").name == "mm1"
        assert make_testbed("erm").name == "erm"
        with pytest.raises(ValueError):
            make_testbed("queueing")
