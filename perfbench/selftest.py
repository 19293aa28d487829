"""Quick self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with 3 geodesics at
N = 256 (polar: two rungs), one set-up sample and no time budget, and
checks that:
  - each run is correct and prints exactly the metrics BENCHMARK.json names;
  - the layer self times add up to the traced report time;
  - a traced run leaves no wrapper behind in the package;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def tiny(name, out_dir):
    if name == "polar":
        return workloads.PolarWorkload(name, 256, seeded_rungs=(1e-1,), fixed_rungs=(1e-3,))
    mode = "verify" if name == "verify" else "invariants"
    return workloads.CliWorkload(name, mode, 3, 512 if name == "invariants-fine" else 256, out_dir)


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from the harness's")
    names = {False: {m["name"] for m in spec["end_to_end"]},
             True: {m["name"] for m in spec["per_layer"]}}
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            result, details = run.run(name, seed=7, seconds=0.0, traced=traced,
                                      setup_samples=1, make=tiny)
            label = f"{name} trace={int(traced)}"
            expect(result["correct"], f"{label}: {details['problems']}")
            expect(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: {result}")
            expect(set(result["metrics"]) == names[traced],
                   f"{label}: metrics {sorted(set(result['metrics']) ^ names[traced])} "
                   "differ from BENCHMARK.json")
            if traced:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                self_sum = sum(v for k, v in m.items()
                               if k.endswith("_s") and not k.startswith("trace.")) \
                    + m["trace.harness_self_s"]
                expect(abs(self_sum - m["trace.report_s"]) <= 1e-9 * m["trace.report_s"],
                       f"{label}: self times {self_sum} vs traced {m['trace.report_s']}")
                flow = sys.modules["zollforms.surface"].flow
                expect(not hasattr(flow, "__wrapped__"), f"{label}: wrapper left installed")
            print(f"ok  {label}: attempted {result['attempted']}")

    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  bare directory: exit {proc.returncode}")
    print("selftest passed")


if __name__ == "__main__":
    main()
