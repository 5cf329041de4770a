"""Benchmark of the iuq interval procedure, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

A run repeats single-macro experiments of the workload's config through the
public API (``ExperimentConfig`` -> ``run_macro_experiment`` ->
``emit_report``) for about ``--seconds``, then checks the emitted rows (see
``verify.py``).  BLAS/OpenMP threads are pinned to one.

``--trace 0`` reports the end-to-end metrics: ``macro_s`` (median seconds
per macro), ``peak_rss_mb`` (peak resident memory of this process) and
``setup_s`` (median over fresh processes of importing iuq, building the
config and testbed and looking up eta_ref).  Both times are wall times
converted to a fixed host speed by ``clock.RefClock``; the raw wall median
is printed beside them.  ``--trace 1`` wraps every
layer entry point (see ``tracer.py``), reports per-layer metrics per macro,
prints the layer shares and the tracing overhead and writes the spans to
``perfbench/_out``.  ``all`` runs every workload in its own process and
prints one table.  The last stdout line is the JSON result.
"""

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import KERNELS, RefClock
from workloads import (
    DEFAULT_SEED,
    SEED_STRIDE,
    THREAD_VARS,
    WORKLOADS,
    environment,
    experiment_seed,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_PROBES = 4  # fresh processes timing set-up, besides the measuring one
SETUP_INTERVAL = 0.02  # seconds between host-speed samples during set-up
# glibc mallopt parameters and the values the measuring process pins
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 4 << 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_allocator():
    """Fix glibc's mmap threshold at 4 MiB (and the heap trim threshold at
    twice that, as glibc's own sliding rule would), so that freed arrays of
    4 MiB or more go back to the OS at once.  With the sliding thresholds,
    heap retention moved peak RSS by up to 16% between identical runs.
    Returns the mmap threshold set, or None where ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ok = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    ok = ok and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD) == 1
    return MMAP_THRESHOLD if ok else None


def set_up(workload):
    """Import iuq, build the config and testbed, look up eta_ref.  Returns
    the reference seconds this took (see ``clock.py``), iuq and eta_ref."""
    ref = RefClock(interval=SETUP_INTERVAL)
    ref.start()
    try:
        t0 = time.perf_counter()
        import iuq

        cfg = iuq.ExperimentConfig(**workload.config_kwargs(), macros=1)
        iuq.make_testbed(cfg.model)
        eta_ref = iuq.reference_eta(cfg.model)
        t1 = time.perf_counter()
    finally:
        ref.stop()
    return ref.span(t0, t1)[1], iuq, eta_ref


def probe_set_up(name):
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def run_macros(iuq, workload, seed, seconds, tracer=None, limit=SEED_STRIDE):
    """Single-macro experiments j = 0, 1, ... while the next one is expected
    to end within ``seconds`` (at least one), at most ``limit``.  Returns
    (spans, rows, failures), a span being a macro's (start, end) time."""
    from tracer import MACRO

    spans, rows, failures = [], [], []
    start = time.perf_counter()
    for j in range(limit):
        elapsed = time.perf_counter() - start
        if j and elapsed + elapsed / j > seconds:
            break
        cfg = iuq.ExperimentConfig(
            **workload.config_kwargs(), macros=1, seed=experiment_seed(seed, j)
        )
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = iuq.run_macro_experiment(cfg)
            else:
                tracer.macro_id = j
                result = tracer.call(MACRO, iuq.run_macro_experiment, cfg)
        except iuq.EstimationError as exc:
            failures.append((cfg.seed, str(exc)))
        else:
            rows.extend(result.rows)
        spans.append((t0, time.perf_counter()))
    return spans, rows, failures


def check_report(iuq, workload, seed, walls, rows, failures, eta_ref):
    """Emit the report, read it back and check it; returns the error list."""
    import verify
    from iuq.harness import summarize

    if not rows:
        return ["every macro failed; nothing to report"]
    cfg = iuq.ExperimentConfig(**workload.config_kwargs(), macros=len(walls), seed=seed)
    result = iuq.MacroResult(
        rows=tuple(rows),
        failures=tuple(failures),
        summary=summarize(rows, failures, cfg, eta_ref),
    )
    OUT.mkdir(exist_ok=True)
    csv_path, _ = iuq.emit_report(result, str(OUT / f"{workload.name}-seed{seed}"))
    emitted = iuq.load_report(csv_path)
    errors = verify.invariant_errors(emitted, eta_ref)
    if seed == DEFAULT_SEED:
        errors += verify.pinned_errors(emitted, verify.load_expected()[workload.name])
    return errors


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args):
    workload = WORKLOADS[args.workload]
    mmap_threshold = pin_allocator()
    if args.setup_probe:
        print(repr(set_up(workload)[0]))
        return 0
    setups = [probe_set_up(workload.name) for _ in range(SETUP_PROBES)]
    own_setup, iuq, eta_ref = set_up(workload)
    setups.append(own_setup)
    if Path(iuq.__file__).resolve().parent != SRC / "iuq":
        print(f"error: imported iuq from {iuq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = {**environment(), "malloc_mmap_threshold": mmap_threshold}
    print("env:", json.dumps(env, sort_keys=True))

    if args.trace:
        metrics, walls, rows, failures = traced_run(iuq, workload, args)
    else:
        ref = RefClock(kernels=[KERNELS[k] for k in workload.kernels])
        ref.start()
        try:
            spans, rows, failures = run_macros(iuq, workload, args.seed, args.seconds)
        finally:
            ref.stop()
        walls = [t1 - t0 for t0, t1 in spans]
        macro_s = statistics.median(ref.span(t0, t1)[1] for t0, t1 in spans)
        setup_s = statistics.median(setups)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "macro_s": metric(macro_s, "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
            "setup_s": metric(setup_s, "s"),
        }
        print(
            f"{workload.name} seed={args.seed}: "
            f"macro_s={macro_s:.4f} s (median of {len(walls)} at reference speed; "
            f"wall median {statistics.median(walls):.4f} s, max {max(walls):.4f} s, "
            f"kernels at {ref.speed():.2f}x their reference time) "
            f"peak_rss_mb={peak_mb:.1f} MB "
            f"setup_s={setup_s:.4f} s (median of {len(setups)}) "
            f"fail_ratio={len(failures) / len(walls):.4f} ({len(failures)}/{len(walls)})"
        )
    errors = check_report(iuq, workload, args.seed, walls, rows, failures, eta_ref)
    for err in errors:
        print(f"check failed: {err}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(walls),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if errors else 0


def traced_run(iuq, workload, args):
    """Per-layer metrics of a traced run, plus the tracing overhead measured
    by re-running the first experiments untraced."""
    import tracer as tr

    tracer = tr.Tracer()
    tracer.install()
    try:
        spans, rows, failures = run_macros(iuq, workload, args.seed, args.seconds, tracer)
    finally:
        tracer.restore()
    walls = [t1 - t0 for t0, t1 in spans]
    plain, _, _ = run_macros(iuq, workload, args.seed, args.seconds / 2, limit=len(walls))
    plain = [t1 - t0 for t0, t1 in plain]
    values = tr.layer_metrics(tracer, len(walls))
    overhead = statistics.median(walls[: len(plain)]) - statistics.median(plain)
    shares = tr.baseline_shares(values)
    print("| config | mean wall/macro | " + " | ".join(shares) + " |")
    print(
        f"| {workload.name} | {statistics.fmean(walls):.3f} s | "
        + " | ".join(f"{100 * v:.0f}%" for v in shares.values()) + " |"
    )
    print(
        f"tracing overhead: {overhead:+.4f} s per macro (traced minus untraced "
        f"median over the first {len(plain)} experiments)"
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}-seed{args.seed}.spans.csv.gz")
    metrics = {k: metric(values[k], unit) for k, unit in tr.PER_LAYER_UNITS.items()}
    return metrics, walls, rows, failures


def run_all(args):
    """Every workload in its own process; one table of the results."""
    table = []
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode:
            print(out.stderr, file=sys.stderr)
            status = 1
        if not lines or not lines[-1].startswith("{"):
            status = 1
            continue
        res = json.loads(lines[-1])
        table.append((name, res))
    if not args.trace:
        print("| workload | macro_s [s] | peak_rss_mb [MB] | setup_s [s] | fail_ratio [ratio] |")
        for name, res in table:
            m = res["metrics"]
            print(
                f"| {name} | {m['macro_s']['value']:.4f} | {m['peak_rss_mb']['value']:.1f} | "
                f"{m['setup_s']['value']:.4f} | {res['failed'] / res['attempted']:.4f} |"
            )
    print(json.dumps({
        "correct": status == 0 and all(res["correct"] for _, res in table),
        "attempted": sum(res["attempted"] for _, res in table),
        "failed": sum(res["failed"] for _, res in table),
        "metrics": {name: res["metrics"] for name, res in table},
    }))
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "iuq" / "__init__.py").is_file():
        print(f"error: no iuq sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
