"""Command-line interface.

Subcommands:

``iuq run``     macro coverage experiment, writes <out>.csv and <out>.json
``iuq pilot``   variance-ratio pilot that suggests the replication count r
``iuq oracle``  brute-force reference value of the target ratio

A flat ``key=value`` config file can prefill any flag of ``run`` (keys are
the flags' dest names, plus ``cv.folds`` and ``cv.grid``); explicit
command-line flags take precedence.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from .harness import (
    ESTIMATORS,
    SAMPLING_MODES,
    ExperimentConfig,
    emit_report,
    run_macro_experiment,
    run_pilot,
)
from .input_models import EstimationError
from .simulators import TESTBEDS, make_testbed, true_eta_oracle


def parse_config_file(path):
    """Read a flat key=value config file; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _parse_r(text):
    return "auto" if text == "auto" else int(text)


def _parse_grid(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _run_flags():
    """The ``run`` flags, one per ExperimentConfig field of the same name."""
    d = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}  # quoted in help
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--model", choices=TESTBEDS)
    p.add_argument("--m", type=int, help="input data size")
    p.add_argument("--alpha", type=float, help=f"1 - nominal coverage (default {d['alpha']})")
    p.add_argument("--estimator", choices=ESTIMATORS)
    p.add_argument("--sampling", choices=SAMPLING_MODES)
    p.add_argument("--r", type=_parse_r, help="runs per simulation parameter or 'auto' "
                   "(the pinned pilot value; for san, the default network's)")
    p.add_argument("--macros", type=int, help=f"number of macro runs (default {d['macros']})")
    p.add_argument("--seed", type=int, help=f"master seed (default {d['seed']})")
    p.add_argument("--out", help="output base path for .csv/.json reports")
    p.add_argument("--san-topology", dest="san_topology", help="edge-list file")
    p.add_argument("--workers", type=int, help=f"parallel macro workers (default {d['workers']})")
    p.add_argument("--eta-ref", dest="eta_ref", type=float,
                   help="override the pinned reference value; required with a "
                   "--san-topology other than the default network (else exit 2)")
    return p


RUN_FLAGS = _run_flags()


def _config_file_keys():
    """Config-file key -> (ExperimentConfig field, converter): every ``run``
    flag's dest, parsed as its flag parses it, plus the CV settings."""
    keys = {a.dest: (a.dest, a.type or str) for a in RUN_FLAGS._actions}
    keys["cv.folds"] = ("cv_folds", int)
    keys["cv.grid"] = ("cv_grid", _parse_grid)
    return keys


def build_experiment_config(args):
    """Merge config-file values and command-line flags into a config."""
    merged = {}
    if args.config:
        keys = _config_file_keys()
        raw = parse_config_file(args.config)
        unknown = set(raw) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, text in raw.items():
            field, convert = keys[key]
            merged[field] = convert(text)
    for action in RUN_FLAGS._actions:
        value = getattr(args, action.dest)
        if value is not None:
            merged[action.dest] = value
    if "model" not in merged or "m" not in merged:
        raise ValueError("--model and --m are required (by flag or config file)")
    return ExperimentConfig(**merged)


def _cmd_run(args):
    cfg = build_experiment_config(args)
    result = run_macro_experiment(cfg)
    if cfg.out:
        csv_path, json_path = emit_report(result, cfg.out)
        print(f"wrote {csv_path} and {json_path}")
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    return 0


_PILOT_SIZES = ("b", "s0", "ds", "c_zeta", "max_s")


def _cmd_pilot(args):
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    # only the sizes given on the command line; anova_select_r holds the defaults
    sizes = {k: v for k, v in vars(args).items() if k in _PILOT_SIZES}
    results = [run_pilot(args.model, args.m, seed=args.seed + rep,
                         san_topology=args.san_topology, **sizes)
               for rep in range(args.repeats)]
    last = results[-1]
    out = {
        "model": args.model,
        "m": args.m,
        "repeats": args.repeats,
        "r_mean": float(np.mean([res.r for res in results])),
        "r_last": last.r,
        "final_s": last.final_s,
        "zeta_y": last.zeta_y,
        "zeta_a": last.zeta_a,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_oracle(args):
    testbed = make_testbed(args.model, san_topology=args.san_topology)
    theta = testbed.true_theta
    if args.theta:
        theta = np.array([float(t) for t in args.theta.replace(",", " ").split()])
    rng = np.random.default_rng(args.seed)
    res = true_eta_oracle(testbed, theta, args.budget, rng)
    out = {
        "model": args.model,
        "theta": list(map(float, np.atleast_1d(theta))),
        "budget": res.budget,
        "eta": res.eta,
        "se": res.se,
        "seed": args.seed,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="iuq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[RUN_FLAGS], help="macro coverage experiment")
    p.add_argument("--config", help="flat key=value config file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("pilot", help="variance-ratio pilot for r")
    p.add_argument("--model", required=True, choices=TESTBEDS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--b", type=int, default=argparse.SUPPRESS)
    p.add_argument("--s0", type=int, default=argparse.SUPPRESS)
    p.add_argument("--ds", type=int, default=argparse.SUPPRESS)
    p.add_argument("--c-zeta", dest="c_zeta", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-s", dest="max_s", type=int, default=argparse.SUPPRESS)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--san-topology", dest="san_topology")
    p.set_defaults(func=_cmd_pilot)

    p = sub.add_parser("oracle", help="brute-force reference ratio")
    p.add_argument("--model", required=True, choices=TESTBEDS)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", help="comma-separated parameter override")
    p.add_argument("--san-topology", dest="san_topology")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None):
    """Run one subcommand; exit code 0 on success, 1 when an estimate cannot
    be computed, 2 on bad input."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
