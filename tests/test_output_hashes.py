"""tools/output_hashes.py: two fresh processes write the same bytes for its whole CLI matrix."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"


def hash_run(out, *extra):
    return subprocess.run([sys.executable, str(TOOL), str(out), *extra], capture_output=True,
                          text=True, timeout=300)


def test_two_fresh_processes_write_the_same_bytes(tmp_path):
    first = hash_run(tmp_path / "a")
    assert first.returncode == 0, first.stderr
    second = hash_run(tmp_path / "b", "--compare", str(tmp_path / "a"))
    assert second.returncode == 0, second.stdout + second.stderr
    sums = (tmp_path / "a" / "SHA256SUMS").read_text().splitlines()
    assert len(sums) >= 300 and sums == (tmp_path / "b" / "SHA256SUMS").read_text().splitlines()
    # every run of the matrix ends with exit 0, and the edge runs are there
    consoles = sorted((tmp_path / "a").glob("*/console.txt"))
    assert len(consoles) > 80
    assert all(c.read_text().startswith("exit 0\n") for c in consoles)
    assert ",,,,,,,,2\n" in (tmp_path / "a" / "welfare-all-failed" / "summary.csv").read_text()


def test_compare_lists_a_file_that_differs(tmp_path):
    assert hash_run(tmp_path / "a").returncode == 0
    sums = tmp_path / "a" / "SHA256SUMS"
    lines = sums.read_text().splitlines()
    path = lines[0].split("  ", 1)[1]
    sums.write_text("\n".join(["0" * 64 + "  " + path, *lines[1:]]) + "\n")
    second = hash_run(tmp_path / "b", "--compare", str(tmp_path / "a"))
    assert second.returncode == 1
    assert f"differs: {path}" in second.stdout
