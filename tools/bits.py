"""Report digests and coverage, to tell whether two checkouts write the
same reports and how well their intervals cover.

Run from the root of a checkout (no install needed; ``iuq`` is imported
from the checkout's ``src``):

    python tools/bits.py digest [--out DIR]
    python tools/bits.py compare DIR_A DIR_B [--rel REL]
    python tools/bits.py coverage

``digest`` runs every model x estimator x sampling config at m=20, 3 macros
and seed 5, each on 1 and on 2 workers, and prints one line per config:
model, estimator, sampling and the sha256 of the config's CSV and JSON
report bytes.  A last line ``all <sha256>`` hashes the per-config lines.
Two checkouts' outputs then diff config by config.  A config whose 2-worker
reports differ from its 1-worker ones is printed with ``WORKERS DIFFER``
and makes the command exit 1.  A config that fails with an
``EstimationError`` hashes the error's message instead of reports.
``--out DIR`` keeps each config's 1-worker reports as
``DIR/<model>-<estimator>-<sampling>.csv`` and ``.json``; ``--model``,
``--estimator``, ``--sampling`` (each repeatable) and ``--macros`` narrow
the grid.

``compare`` reads two ``digest --out`` directories and prints one line per
config found in either: ``<config> same`` when both reports' bytes are
equal, or else the largest relative move of the interval ends and of the
width (the rows' widths and the summary's mean width and its standard
error), as ``<config> lower <rel> upper <rel> width <rel>``.  Every other
field, the integer ones, the failures and the coverage among them, must be
equal; the line of a config where one is not ends with ``DIFFER <fields>``,
and a config that only one directory holds prints ``<config> only in
<dir>``.  It exits 1 on any of these, or on a move above ``--rel``, by
default 1e-9, the tolerance ``perfbench/verify.py`` allows the benchmark's
pinned rows.

``coverage`` runs the mm1 and san models with the klr and std-even
estimators at m = 20 and 50, each at 200 macros, seed 1 and 2 workers, with
the default sampling (ellipsoid for klr; std-even always uses bootstrap).
Per config it prints one line,

    <model> <estimator> <sampling> m=<m> coverage <c> +- <se> width <w> +- <se> median <w50> failed <f> of <macros>

with the summary's coverage and mean interval width, each with its standard
error, and the median width of the completed macros (a few wide intervals
can pull the mean far above it), followed by one indented ``<count>
<reason>`` line per distinct failure reason, most frequent first, with
every run of digits masked as ``#`` (the M/M/1 cycle cap names each
macro's rates).  An experiment in
which more than 10% of the macros fail is aborted; its line then ends with
``error:`` and the ``EstimationError`` message.  ``--model``,
``--estimator``, ``--m`` (each repeatable) and ``--macros`` narrow the grid.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import re
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from iuq.harness import (  # noqa: E402
    ESTIMATORS,
    SAMPLING_MODES,
    ExperimentConfig,
    emit_report,
    load_report,
    run_macro_experiment,
)
from iuq.input_models import EstimationError  # noqa: E402
from iuq.simulators import TESTBEDS  # noqa: E402

M, MACROS, SEED = 20, 3, 5
COVERAGE_MODELS, COVERAGE_ESTIMATORS, COVERAGE_M = ("mm1", "san"), ("klr", "std-even"), (20, 50)
COVERAGE_MACROS, COVERAGE_SEED, COVERAGE_WORKERS = 200, 1, 2
# report fields that compare lets move, and the move each one counts under
MOVES = {"lower": "lower", "upper": "upper", "width": "width",
         "mean_width": "width", "width_se": "width"}


def report_bytes(cfg, base):
    """The CSV and JSON bytes of ``cfg``'s reports written at ``base``, or
    the message of the ``EstimationError`` that ended the experiment."""
    try:
        result = run_macro_experiment(cfg)
    except EstimationError as exc:
        return f"error: {exc}\n".encode()
    csv_path, json_path = emit_report(result, base)
    return Path(csv_path).read_bytes() + Path(json_path).read_bytes()


def digest(args):
    lines, same = [], True
    with tempfile.TemporaryDirectory() as tmp:
        for model in args.model or TESTBEDS:
            for estimator in args.estimator or ESTIMATORS:
                for sampling in args.sampling or SAMPLING_MODES:
                    name = f"{model}-{estimator}-{sampling}"
                    out = {}
                    for workers in (1, 2):
                        cfg = ExperimentConfig(model=model, m=M, estimator=estimator,
                                               sampling=sampling, macros=args.macros,
                                               seed=SEED, workers=workers)
                        base = Path(args.out if args.out and workers == 1 else tmp) / name
                        out[workers] = report_bytes(cfg, base)
                    line = f"{model} {estimator} {sampling} {hashlib.sha256(out[1]).hexdigest()}"
                    lines.append(line)
                    if out[2] != out[1]:
                        same = False
                        line += " WORKERS DIFFER"
                    print(line, flush=True)
    print("all", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0 if same else 1


def rel_move(old, new):
    """|old - new| relative to the larger magnitude; inf unless both are finite."""
    if old == new:
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(old - new) / max(abs(old), abs(new))


def report_fields(base):
    """The rows of the report at ``base``, each as a dict, and its summary."""
    rows = [dataclasses.asdict(row) for row in load_report(f"{base}.csv")]
    return rows, json.loads(Path(f"{base}.json").read_text())


def compare(args):
    dirs = Path(args.dir_a), Path(args.dir_b)
    for folder in dirs:
        if not folder.is_dir():
            raise SystemExit(f"compare: {folder} is not a directory")
    ok = True
    for name in sorted({path.stem for folder in dirs for path in folder.glob("*.csv")}):
        held = [folder for folder in dirs if (folder / f"{name}.csv").exists()]
        if len(held) == 1:
            print(f"{name} only in {held[0]}", flush=True)
            ok = False
            continue
        if all((dirs[0] / f"{name}{ext}").read_bytes() == (dirs[1] / f"{name}{ext}").read_bytes()
               for ext in (".csv", ".json")):
            print(f"{name} same", flush=True)
            continue
        (old_rows, old_summary), (new_rows, new_summary) = (report_fields(folder / name)
                                                            for folder in dirs)
        differ = {"rows"} if len(old_rows) != len(new_rows) else set()
        if old_summary.keys() != new_summary.keys():
            differ.add("summary keys")
        moves = dict.fromkeys(("lower", "upper", "width"), 0.0)
        for old, new in [*zip(old_rows, new_rows), (old_summary, new_summary)]:
            for key in old.keys() & new.keys():
                if key in MOVES:
                    moves[MOVES[key]] = max(moves[MOVES[key]], rel_move(old[key], new[key]))
                elif old[key] != new[key]:
                    differ.add(key)
        line = name + "".join(f" {key} {move:.2g}" for key, move in moves.items())
        if differ:
            line += " DIFFER " + ",".join(sorted(differ))
        ok = ok and not differ and max(moves.values()) <= args.rel
        print(line, flush=True)
    return 0 if ok else 1


def coverage(args):
    # every config is built first, so a bad --m fails before the first run
    configs = [ExperimentConfig(model=model, m=m, estimator=estimator, macros=args.macros,
                                seed=COVERAGE_SEED, workers=COVERAGE_WORKERS)
               for model in args.model or COVERAGE_MODELS
               for estimator in args.estimator or COVERAGE_ESTIMATORS
               for m in args.m or COVERAGE_M]
    for cfg in configs:
        name = f"{cfg.model} {cfg.estimator} {cfg.sampling} m={cfg.m}"
        try:
            result = run_macro_experiment(cfg)
        except EstimationError as exc:
            print(f"{name} error: {exc}", flush=True)
            continue
        s = result.summary
        median = statistics.median(row.width for row in result.rows) if result.rows else math.nan
        print(f"{name} coverage {s['coverage']:.3f} +- {s['coverage_se']:.3f} "
              f"width {s['mean_width']:.4g} +- {s['width_se']:.2g} median {median:.4g} "
              f"failed {s['failed']} of {s['macros']}", flush=True)
        reasons = Counter(re.sub(r"\d+", "#", reason) for _, reason in result.failures)
        for reason, count in reasons.most_common():
            print(f"  {count} {reason}", flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bits.py", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("digest", help="sha256 of each config's report bytes")
    cmd.add_argument("--model", action="append", choices=TESTBEDS)
    cmd.add_argument("--estimator", action="append", choices=ESTIMATORS)
    cmd.add_argument("--sampling", action="append", choices=SAMPLING_MODES)
    cmd.add_argument("--macros", type=int, default=MACROS)
    cmd.add_argument("--out", help="directory that keeps the 1-worker reports")
    cmd.set_defaults(run=digest)
    cmd = sub.add_parser("compare", help="moves between two digest --out directories")
    cmd.add_argument("dir_a")
    cmd.add_argument("dir_b")
    cmd.add_argument("--rel", type=float, default=1e-9,
                     help="largest relative move of an interval end or width allowed")
    cmd.set_defaults(run=compare)
    cmd = sub.add_parser("coverage", help="coverage, width and failures of each config")
    cmd.add_argument("--model", action="append", choices=TESTBEDS)
    cmd.add_argument("--estimator", action="append", choices=ESTIMATORS)
    cmd.add_argument("--m", action="append", type=int)
    cmd.add_argument("--macros", type=int, default=COVERAGE_MACROS)
    cmd.set_defaults(run=coverage)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
