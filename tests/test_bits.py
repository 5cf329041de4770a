"""``tools/bits.py`` runs in a checkout: ``digest`` prints one hash a config,
``compare`` one line of moves a config, ``coverage`` one summary line a
config."""

import dataclasses
import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from iuq.harness import ExperimentConfig, MacroResult, MacroRow, emit_report, summarize

ROOT = Path(__file__).resolve().parents[1]


def test_digest_prints_a_hash_per_config_and_one_over_all(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bits.py"), "digest", "--model", "mm1",
         "--estimator", "klr", "--sampling", "ellipsoid", "--macros", "1",
         "--out", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2, done.stdout
    assert re.fullmatch(r"mm1 klr ellipsoid [0-9a-f]{64}", lines[0])
    assert re.fullmatch(r"all [0-9a-f]{64}", lines[1])
    # the config's hash is that of its kept report bytes
    kept = (tmp_path / "mm1-klr-ellipsoid.csv").read_bytes()
    kept += (tmp_path / "mm1-klr-ellipsoid.json").read_bytes()
    assert lines[0].split()[-1] == hashlib.sha256(kept).hexdigest()


def test_coverage_prints_a_summary_line_per_config(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bits.py"), "coverage", "--model", "mm1",
         "--estimator", "std-even", "--m", "20", "--macros", "3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    number = r"-?[0-9.]+(e[-+][0-9]+)?|nan"
    assert re.fullmatch(
        rf"mm1 std-even bootstrap m=20 coverage ({number}) \+- ({number}) "
        rf"width ({number}) \+- ({number}) failed [0-3] of 3", lines[0]), done.stdout
    # the rest are failure reasons, counted, with their digits masked
    for line in lines[1:]:
        assert re.fullmatch(r"  [1-3] [^0-9]+", line), done.stdout


def write_report(folder, **change):
    """A two-macro mm1 klr report in ``folder``, its second row with ``change``."""
    rows = [MacroRow(macro_id=i, estimator="klr", sampling="ellipsoid", m=20, n=36,
                     n_tilde=1000, r=7, k_y=16, k_a=4, lower=0.25, upper=3.25 + i,
                     width=3.0 + i, covered=1, sims_used=252, seed=5) for i in range(2)]
    rows[1] = dataclasses.replace(rows[1], **change)
    cfg = ExperimentConfig(model="mm1", m=20, estimator="klr", macros=2, seed=5)
    emit_report(MacroResult(rows=tuple(rows), failures=(), summary=summarize(rows, (), cfg, 1.0)),
                folder / "mm1-klr-ellipsoid")


@pytest.mark.parametrize("change, rel, code, line", [
    ({}, "1e-9", 0, r"mm1-klr-ellipsoid same"),
    (dict(upper=4.25 * (1 + 1e-12), width=4.0 + 4.25e-12), "1e-9", 0,
     r"mm1-klr-ellipsoid lower 0 upper 1e-12 width 4\.2e-12"),
    (dict(upper=4.25 * (1 + 1e-12), width=4.0 + 4.25e-12), "1e-13", 1,
     r"mm1-klr-ellipsoid lower 0 upper 1e-12 width 4\.2e-12"),
    (dict(k_y=8), "1e-9", 1, r"mm1-klr-ellipsoid lower 0 upper 0 width 0 DIFFER k_y"),
], ids=["equal", "1e-12 move", "move above --rel", "changed k_y"])
def test_compare_prints_moves_and_flags_exact_fields(tmp_path, change, rel, code, line):
    # a 4.25e-12 longer second interval moves the widths' standard error,
    # half their difference, by 4.25e-12 relative
    old, new = tmp_path / "old", tmp_path / "new"
    write_report(old)
    write_report(new, **change)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bits.py"), "compare", str(old), str(new),
         "--rel", rel],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    assert re.fullmatch(line, done.stdout.strip()), done.stdout


def test_compare_rejects_a_missing_directory(tmp_path):
    # a mistyped path would otherwise compare nothing and exit 0
    write_report(tmp_path / "old")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bits.py"), "compare", str(tmp_path / "old"),
         str(tmp_path / "missing")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "is not a directory" in done.stderr
