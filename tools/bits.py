"""Report digests and coverage, to tell whether two checkouts write the
same reports and how well their intervals cover.

Run from the root of a checkout (no install needed; ``iuq`` is imported
from the checkout's ``src``):

    python tools/bits.py digest [--out DIR]
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

``coverage`` runs the mm1 and san models with the klr and std-even
estimators at m = 20 and 50, each at 200 macros, seed 1 and 2 workers, with
the default sampling (ellipsoid for klr; std-even always uses bootstrap).
Per config it prints one line,

    <model> <estimator> <sampling> m=<m> coverage <c> +- <se> width <w> +- <se> failed <f> of <macros>

with the summary's coverage and mean interval width, each with its standard
error, followed by one indented ``<count> <reason>`` line per distinct
failure reason, most frequent first, with every run of digits masked as
``#`` (the M/M/1 cycle cap names each macro's rates).  An experiment in
which more than 10% of the macros fail is aborted; its line then ends with
``error:`` and the ``EstimationError`` message.  ``--model``,
``--estimator``, ``--m`` (each repeatable) and ``--macros`` narrow the grid.
"""

import argparse
import hashlib
import re
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
    run_macro_experiment,
)
from iuq.input_models import EstimationError  # noqa: E402
from iuq.simulators import TESTBEDS  # noqa: E402

M, MACROS, SEED = 20, 3, 5
COVERAGE_MODELS, COVERAGE_ESTIMATORS, COVERAGE_M = ("mm1", "san"), ("klr", "std-even"), (20, 50)
COVERAGE_MACROS, COVERAGE_SEED, COVERAGE_WORKERS = 200, 1, 2


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
        print(f"{name} coverage {s['coverage']:.3f} +- {s['coverage_se']:.3f} "
              f"width {s['mean_width']:.4g} +- {s['width_se']:.2g} "
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
