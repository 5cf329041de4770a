"""Command-line interface.

Subcommands:

``iuq run``     macro coverage experiment, writes <out>.csv and <out>.json
``iuq pilot``   variance-ratio pilot that suggests the replication count r
``iuq oracle``  brute-force reference value of the target ratio

A flat ``key=value`` config file can prefill any flag of ``run``; explicit
command-line flags take precedence.
"""

import argparse
import json
import sys

import numpy as np

from .harness import (
    ESTIMATORS,
    SAMPLING_MODES,
    ExperimentConfig,
    PilotSettings,
    emit_report,
    run_macro_experiment,
    run_pilot,
)
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


_CONFIG_KEYS = {
    "model": str,
    "m": int,
    "alpha": float,
    "estimator": str,
    "sampling": str,
    "r": str,
    "macros": int,
    "seed": int,
    "out": str,
    "san_topology": str,
    "workers": int,
    "eta_ref": float,
    "pilot.b": int,
    "pilot.s0": int,
    "pilot.ds": int,
    "pilot.c_zeta": float,
    "pilot.max_s": int,
    "cv.folds": int,
    "cv.grid": str,
}


def _parse_r(text):
    return "auto" if text == "auto" else int(text)


def _parse_grid(text):
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def build_experiment_config(args):
    """Merge config-file values and command-line flags into a config."""
    merged = {}
    if args.config:
        raw = parse_config_file(args.config)
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, text in raw.items():
            merged[key] = _CONFIG_KEYS[key](text)
    cli_values = {
        "model": args.model,
        "m": args.m,
        "alpha": args.alpha,
        "estimator": args.estimator,
        "sampling": args.sampling,
        "r": args.r,
        "macros": args.macros,
        "seed": args.seed,
        "out": args.out,
        "san_topology": args.san_topology,
        "workers": args.workers,
        "eta_ref": args.eta_ref,
    }
    merged.update({k: v for k, v in cli_values.items() if v is not None})
    if "model" not in merged or "m" not in merged:
        raise ValueError("--model and --m are required (by flag or config file)")
    pilot = PilotSettings(
        b=merged.pop("pilot.b", PilotSettings.b),
        s0=merged.pop("pilot.s0", PilotSettings.s0),
        ds=merged.pop("pilot.ds", PilotSettings.ds),
        c_zeta=merged.pop("pilot.c_zeta", PilotSettings.c_zeta),
        max_s=merged.pop("pilot.max_s", PilotSettings.max_s),
    )
    cv_folds = merged.pop("cv.folds", 5)
    cv_grid = merged.pop("cv.grid", None)
    if isinstance(cv_grid, str):
        cv_grid = _parse_grid(cv_grid)
    if isinstance(merged.get("r"), str):
        merged["r"] = _parse_r(merged["r"])
    return ExperimentConfig(pilot=pilot, cv_folds=cv_folds, cv_grid=cv_grid, **merged)


def _add_run_parser(sub):
    p = sub.add_parser("run", help="macro coverage experiment")
    p.add_argument("--model", choices=TESTBEDS)
    p.add_argument("--m", type=int, help="input data size")
    p.add_argument("--alpha", type=float, help="1 - nominal coverage (default 0.05)")
    p.add_argument("--estimator", choices=ESTIMATORS)
    p.add_argument("--sampling", choices=SAMPLING_MODES)
    p.add_argument("--r", type=_parse_r, help="runs per simulation parameter or 'auto'")
    p.add_argument("--macros", type=int, help="number of macro runs (default 200)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--out", help="output base path for .csv/.json reports")
    p.add_argument("--san-topology", dest="san_topology", help="edge-list file")
    p.add_argument("--workers", type=int, help="parallel macro workers (default 1)")
    p.add_argument("--eta-ref", dest="eta_ref", type=float,
                   help="override the pinned reference value")
    p.add_argument("--config", help="flat key=value config file")
    return p


def _cmd_run(args):
    cfg = build_experiment_config(args)
    result = run_macro_experiment(cfg)
    if cfg.out:
        csv_path, json_path = emit_report(result, cfg.out)
        print(f"wrote {csv_path} and {json_path}")
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    return 0


def _cmd_pilot(args):
    settings = PilotSettings(b=args.b, s0=args.s0, ds=args.ds,
                             c_zeta=args.c_zeta, max_s=args.max_s)
    rs = []
    last = None
    for rep in range(args.repeats):
        last = run_pilot(args.model, args.m, seed=args.seed + rep, settings=settings,
                         san_topology=args.san_topology)
        rs.append(last.r)
    out = {
        "model": args.model,
        "m": args.m,
        "repeats": args.repeats,
        "r_mean": float(np.mean(rs)),
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


def main(argv=None):
    parser = argparse.ArgumentParser(prog="iuq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)

    p = sub.add_parser("pilot", help="variance-ratio pilot for r")
    p.add_argument("--model", required=True, choices=TESTBEDS)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--b", type=int, default=PilotSettings.b)
    p.add_argument("--s0", type=int, default=PilotSettings.s0)
    p.add_argument("--ds", type=int, default=PilotSettings.ds)
    p.add_argument("--c-zeta", dest="c_zeta", type=float, default=PilotSettings.c_zeta)
    p.add_argument("--max-s", dest="max_s", type=int, default=PilotSettings.max_s)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--san-topology", dest="san_topology")

    p = sub.add_parser("oracle", help="brute-force reference ratio")
    p.add_argument("--model", required=True, choices=TESTBEDS)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", help="comma-separated parameter override")
    p.add_argument("--san-topology", dest="san_topology")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "pilot":
            return _cmd_pilot(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
