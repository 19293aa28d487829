"""The benchmark harness still runs on the package.

`perfbench/` reaches into the package by name: it wraps functions such as
`star_product`, `conjugated_order_zero` and `compute_H`, and calls
`SurfacePoint.north`, `assemble_p1(..., path=, frame=)` and `H_b`.  Its
self-test runs every workload once at tiny sizes (a few seconds), so a
change that breaks the benchmark fails here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selftest passed")
