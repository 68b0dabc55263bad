"""Self-test of the benchmark: checks pass on correct runs and catch one
corrupted output byte.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

It runs every workload twice at the pinned seed (about a minute).
"""

import os
import re
import shutil
import struct
import subprocess
import sys

import pytest

import run
from layertrace import parse_importtime
from workloads import PINNED_SEED, WORKLOADS, load_digests


def _flip(path: str, offset: int) -> None:
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0x01]))


def _offset_of(path: str, pattern: str) -> int:
    with open(path) as f:
        m = re.search(pattern, f.read(), re.MULTILINE)
    return m.end(1) - 1


def _corrupt_csv_ratio(outdir):  # last digit of the last row's ratio
    _flip(os.path.join(outdir, "ratios.csv"), _offset_of(
        os.path.join(outdir, "ratios.csv"), r"^\d+,\d+,([0-9.]+),[^\n]*\n\Z"))


def _corrupt_json_ratio(outdir):  # last digit of the first ratio
    path = os.path.join(outdir, "ratios.json")
    _flip(path, _offset_of(path, r'"ratios": \[\s*\[\s*([0-9.]+)'))


def _corrupt_bin_plane(outdir):  # a byte inside the first color's v plane
    path = os.path.join(outdir, "sample.bin")
    with open(path, "rb") as f:
        meta_len = struct.unpack("<I", f.read(24)[20:24])[0]
    _flip(path, 24 + meta_len + 8)


def _corrupt_case_count(outdir):  # last digit of the first case count
    path = os.path.join(outdir, "report.json")
    _flip(path, _offset_of(path, r'"cases": (\d+)'))


CORRUPTIONS = {
    "converge-s6v": _corrupt_csv_ratio,
    "converge-hammersley-w2": _corrupt_json_ratio,
    "sample-colored-io": _corrupt_bin_plane,
    "verify-battery": _corrupt_case_count,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_correct_run_passes_and_corrupted_byte_fails(name):
    w = WORKLOADS[name]
    pinned = load_digests()[name]
    ok = run.run_invocation(w, PINNED_SEED, False, pinned)
    assert ok.problems == [], ok.problems
    assert ok.record["wall_s"] > 0 and ok.record["setup_s"] > 0
    bad = run.run_invocation(w, PINNED_SEED, False, pinned, tamper=CORRUPTIONS[name])
    assert bad.problems, "a corrupted output byte passed the check"


def test_worker_override_is_not_passed_on(monkeypatch):
    monkeypatch.setenv("SIXVERTEX_WORKERS", "1")
    assert "SIXVERTEX_WORKERS" not in run._child_env()


def test_exits_nonzero_without_sources(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_importtime_of_lazily_imported_module():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |        400 |       pkg.stats._a",
        "import time:        10 |         10 |         pkg.stats._b",
        "import time:        20 |        500 |       pkg.stats._c",
        "import time:        30 |       1000 |     user",
    ])
    got = parse_importtime(stderr, ("numpy", "pkg.stats"))
    assert got == {"numpy": 300e-6, "pkg.stats": 900e-6}
