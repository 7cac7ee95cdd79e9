"""tests/cross_python.py on this interpreter, so the script cannot rot
between the runs made with other Pythons."""

import shutil
import subprocess
import sys
from pathlib import Path

import cross_python

SCRIPT = Path(cross_python.__file__)


def test_golden_run_matches_on_this_python():
    proc = subprocess.run([sys.executable, str(SCRIPT), sys.executable],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "golden run matches" in proc.stdout


def test_a_changed_expected_file_is_reported(tmp_path):
    golden = tmp_path / "golden_run"
    shutil.copytree(cross_python.GOLDEN, golden)
    daily = golden / "expected" / "daily.csv"
    daily.write_bytes(daily.read_bytes() + b"\n")
    assert cross_python.check(sys.executable, golden) == \
        ["daily.csv differs from the golden copy"]
