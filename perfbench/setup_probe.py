"""Time one set-up of zollforms in a fresh interpreter and print the seconds.

Run by `run.py`, once per set-up sample: a fresh process is the only way
to import the package anew.  Usage: python3 perfbench/setup_probe.py SRC_DIR
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import set_up  # noqa: E402  (no numpy or zollforms at import)

t0 = time.perf_counter()
set_up(sys.argv[1])
print(repr(time.perf_counter() - t0))
