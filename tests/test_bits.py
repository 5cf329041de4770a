"""``tools/bits.py digest`` runs in a checkout and prints one hash a config."""

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
