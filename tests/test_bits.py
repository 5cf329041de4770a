"""``tools/bits.py`` runs in a checkout: ``digest`` prints one hash a config,
``coverage`` one summary line a config."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

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
