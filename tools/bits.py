"""Report digests, to tell whether two checkouts write the same reports.

Run from the root of a checkout (no install needed; ``iuq`` is imported
from the checkout's ``src``):

    python tools/bits.py digest [--out DIR]

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
"""

import argparse
import hashlib
import sys
import tempfile
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


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bits.py", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("digest", help="sha256 of each config's report bytes")
    cmd.add_argument("--model", action="append", choices=TESTBEDS)
    cmd.add_argument("--estimator", action="append", choices=ESTIMATORS)
    cmd.add_argument("--sampling", action="append", choices=SAMPLING_MODES)
    cmd.add_argument("--macros", type=int, default=MACROS)
    cmd.add_argument("--out", help="directory that keeps the 1-worker reports")
    args = parser.parse_args(argv)
    return digest(args)


if __name__ == "__main__":
    sys.exit(main())
