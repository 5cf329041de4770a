"""Correctness checks on the rows a benchmark run emits.

Any seed: every endpoint finite, ``lower <= upper``, ``width`` exactly
``upper - lower`` and ``covered`` consistent with the reference value.
Default seed: the rows of the first experiments also match the pinned rows
in ``expected_rows.json`` (integer and text columns exactly, endpoints
within ``REL_TOL``).

Run ``python3 perfbench/verify.py`` to regenerate the pinned rows; per the
ROADMAP, only do so for a change that CHANGES.md says moves output bytes.
"""

import json
import math
import os
import sys
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected_rows.json")

# endpoints may move by a few ulps when arithmetic is reordered
REL_TOL = 1e-9
EXACT_FIELDS = ("estimator", "sampling", "m", "n", "n_tilde", "r", "k_y", "k_a",
                "covered", "sims_used", "seed")
CLOSE_FIELDS = ("lower", "upper")


def invariant_errors(rows, eta_ref):
    errors = []
    for row in rows:
        tag = f"seed {row.seed}"
        if not (math.isfinite(row.lower) and math.isfinite(row.upper)):
            errors.append(f"{tag}: non-finite endpoint")
            continue
        if row.lower > row.upper:
            errors.append(f"{tag}: lower {row.lower!r} > upper {row.upper!r}")
        if row.width != row.upper - row.lower:
            errors.append(f"{tag}: width {row.width!r} != upper - lower")
        if row.covered != int(row.lower <= eta_ref <= row.upper):
            errors.append(f"{tag}: covered={row.covered} disagrees with eta_ref {eta_ref!r}")
    return errors


def pinned_errors(rows, expected):
    """Mismatches between emitted rows and the pinned rows of the same seed.

    ``expected`` is a list of row dicts; rows whose seed has no pinned row
    are not compared, but the first pinned row must have been emitted.
    """
    by_seed = {row.seed: row for row in rows}
    errors = []
    if expected and expected[0]["seed"] not in by_seed:
        errors.append(f"pinned seed {expected[0]['seed']} produced no row")
    for want in expected:
        row = by_seed.get(want["seed"])
        if row is None:
            continue
        for f in EXACT_FIELDS:
            if getattr(row, f) != want[f]:
                errors.append(f"seed {row.seed}: {f}={getattr(row, f)!r}, pinned {want[f]!r}")
        for f in CLOSE_FIELDS:
            if not math.isclose(getattr(row, f), want[f], rel_tol=REL_TOL, abs_tol=0.0):
                errors.append(f"seed {row.seed}: {f}={getattr(row, f)!r}, pinned {want[f]!r}")
    return errors


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def pin_all():
    """Recompute the pinned rows of every workload at the default seed."""
    from workloads import DEFAULT_SEED, THREAD_VARS, WORKLOADS, experiment_seed

    os.environ.update(THREAD_VARS)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import iuq

    pinned = {}
    for w in WORKLOADS.values():
        rows = []
        for j in range(w.pinned):
            cfg = iuq.ExperimentConfig(**w.config_kwargs(), macros=1,
                                       seed=experiment_seed(DEFAULT_SEED, j))
            rows.extend(iuq.run_macro_experiment(cfg).rows)
        pinned[w.name] = [
            {f: getattr(r, f) for f in EXACT_FIELDS + CLOSE_FIELDS} for r in rows
        ]
        print(w.name, len(rows), "rows", flush=True)
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    pin_all()
