"""The benchmark's workloads: their inputs, one timed report each, output checks.

Every workload runs on Zoll metrics near h(x) = -0.3 x + 0.3 x^3.  A run
turns its `--seed` into a stream of report seeds, and each report makes
its inputs from its own seed, so no two reports in a run repeat an input;
the same `--seed` always gives the same stream.

The CLI workloads keep the CLI's default geodesic sample (its --seed 0)
and draw the profile per report, each odd coefficient within
PROFILE_JITTER of the reference.  A report's cost is set mostly by which
geodesics it samples: over CLI sample seeds 0-7 the median `invariants`
report ranged from 1.02 s to 1.21 s, so a new sample per report would tie
the report time to the seed.  A profile within 5 % keeps the cost steady
while every report still computes new numbers.

Outputs are checked against properties the method must have, not against
stored copies of earlier output.

This module imports nothing from numpy, scipy or zollforms at load time,
so that `set_up` times the package's whole import.
"""

import importlib
import json
import math
import os
import random
import sys

H_ODD = (-0.3, 0.3)
PROFILE_JITTER = 0.05
CLI_SAMPLE_SEED = 0
IDENTITY_TOL = 1e-6       # the CLI's default normalized residual tolerance
CLOSURE_MAX = 1e-10
H_RELATION_TOL = 1e-9     # |H_b + 16 pi c0|
EQUATOR_TOL = 1e-10       # |c0(equator) - (h'(0)^2 - 1)/8|
VANISHING_TOL = 1e-10     # first-obstruction and off-diagonal means

# polar: Clairaut constants on a log ladder.  Rungs above the fault's
# threshold take a seeded start; the threshold rungs are fixed (equator,
# phi = 0), because whether a start near c = 1e-6 passes the identity
# suite depends on its base point.
POLAR_SEEDED_RUNGS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
POLAR_FIXED_RUNGS = (1e-6, 1e-7)
POLAR_FAULT_THRESHOLD = 1e-6
C0_APPROACH = 1.0         # |c0(c) - c0(meridian)| <= C0_APPROACH c^2 + VANISHING_TOL


def set_up(src):
    """Import zollforms and finish its lazy set-up; returns the package modules.

    The set-up derives the constants table and runs the public pipeline
    once on the equator at the smallest grid, which fills the exact
    graded expansion cache and every other lazy state of the libraries.
    """
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"zollforms.{name}")
            for name in ("cli", "surface", "geodesic", "jacobi", "identities",
                         "normalform", "expansion")}
    mods["expansion"].constants_report()
    metric = mods["surface"].MetricModel.zoll_revolution(H_ODD)
    start = mods["geodesic"].canonical_initial_conditions()[0][1]
    path = mods["geodesic"].trace_geodesic(metric, start, 256)
    frame = mods["jacobi"].solve_fundamental(path)
    mods["identities"].run_all_checks(path, frame)
    mods["normalform"].assemble_p1(metric, start, 256, path=path, frame=frame)
    return mods


def report_seeds(seed):
    """Endless, reproducible stream of per-report seeds for one run."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


def equator_c0(h_odd):
    """c0 on the equator, where tau = 1: (h'(0)^2 - 1) / 8."""
    return (h_odd[0] ** 2 - 1.0) / 8.0


class Outcome:
    """What one report attempted and produced, for checking after the clock stops."""

    def __init__(self, attempted, failed, data, bytes_written=0):
        self.attempted = attempted
        self.failed = failed
        self.data = data
        self.bytes_written = bytes_written


class CliWorkload:
    """One `zollforms verify|invariants` report through `zollforms.cli.main`."""

    def __init__(self, name, mode, geodesics, grid, out_dir):
        self.name, self.mode = name, mode
        self.geodesics, self.grid = geodesics, grid
        self.out_path = os.path.join(out_dir, f"{name}.json")

    def run(self, mods, report_seed):
        rng = random.Random(report_seed)
        h_odd = [a * (1.0 + rng.uniform(-PROFILE_JITTER, PROFILE_JITTER)) for a in H_ODD]
        code = mods["cli"].main([
            self.mode, "--metric", "zoll:" + ",".join(repr(a) for a in h_odd),
            "--geodesics", str(self.geodesics), "--grid", str(self.grid),
            "--seed", str(CLI_SAMPLE_SEED), "--out", self.out_path])
        return code, h_odd

    def outcome(self, raw):
        code, h_odd = raw
        with open(self.out_path) as fh:
            report = json.load(fh)
        failed = {f["geodesic"] for f in report["summary"]["failures"]}
        data = {"code": code, "h_odd": h_odd, "report": report}
        return Outcome(self.geodesics, len(failed), data, os.path.getsize(self.out_path))

    def check(self, outcome):
        """Problems with one report; geodesics the program itself failed are skipped."""
        report = outcome.data["report"]
        problems = []
        records = report["geodesics"]
        if len(records) != self.geodesics:
            problems.append(f"{len(records)} geodesics reported, {self.geodesics} asked")
        failed = {f["geodesic"] for f in report["summary"]["failures"]}
        if outcome.data["code"] != (1 if failed else 0):
            problems.append(f"exit code {outcome.data['code']} with {len(failed)} failures")
        for rec in records:
            gid = rec["geodesic_id"]
            if gid in failed:
                continue
            if self.mode == "verify":
                problems.extend(self._check_verify(gid, rec, report["header"]["config"]["tol"]))
            else:
                problems.extend(self._check_invariants(gid, rec, outcome.data["h_odd"]))
        return problems

    @staticmethod
    def _check_verify(gid, rec, tol):
        out = []
        if not rec["closure_defect"] <= CLOSURE_MAX:
            out.append(f"{gid}: closure defect {rec['closure_defect']:.3e}")
        for c in rec["checks"]:
            if not c["normalized"] < tol:
                out.append(f"{gid}: {c['name']} normalized residual {c['normalized']:.3e}")
        return out

    @staticmethod
    def _check_invariants(gid, rec, h_odd):
        inv = rec["invariants"]
        out = []
        relation = abs(inv["H_b"] + 16.0 * math.pi * inv["c0"])
        if not relation <= H_RELATION_TOL:
            out.append(f"{gid}: |H_b + 16 pi c0| = {relation:.3e}")
        if gid == "equator" and not abs(inv["c0"] - equator_c0(h_odd)) <= EQUATOR_TOL:
            out.append(f"{gid}: c0 {inv['c0']!r} != (h'(0)^2 - 1)/8 = {equator_c0(h_odd)!r}")
        for key in ("first_obstruction_max", "offdiag_max"):
            if not inv[key] <= VANISHING_TOL:
                out.append(f"{gid}: {key} {inv[key]:.3e}")
        return out


class PolarWorkload:
    """Near-meridian starts through the public library functions, one pass per report.

    Each start runs trace_geodesic -> solve_fundamental -> run_all_checks
    -> assemble_p1.  A start fails when the identity suite rejects it at
    the CLI's default tolerance or a pipeline stage raises.
    """

    def __init__(self, name, grid, seeded_rungs=POLAR_SEEDED_RUNGS,
                 fixed_rungs=POLAR_FIXED_RUNGS):
        self.name, self.grid = name, grid
        self.seeded_rungs, self.fixed_rungs = seeded_rungs, fixed_rungs

    def starts(self, mods, report_seed):
        """(label, Clairaut constant, initial condition) for one pass; meridian first."""
        SurfacePoint = mods["surface"].SurfacePoint
        rng = random.Random(report_seed)
        out = [("meridian", 0.0, mods["geodesic"].canonical_initial_conditions()[1][1])]
        for rung in self.seeded_rungs:
            c = rung * 10.0 ** rng.uniform(0.0, 0.5)
            r0 = rng.uniform(0.35 * math.pi, 0.65 * math.pi)
            theta = math.asin(c / math.sin(r0))
            if rng.random() < 0.5:
                theta = math.pi - theta
            out.append((f"c={c:.3e}", c, (SurfacePoint.north(r0, rng.uniform(0.0, 2.0 * math.pi)),
                                          (math.cos(theta), math.sin(theta)))))
        for c in self.fixed_rungs:
            theta = math.asin(c)
            out.append((f"c={c:.0e}", c, (SurfacePoint.north(math.pi / 2, 0.0),
                                          (math.cos(theta), math.sin(theta)))))
        return out

    def run(self, mods, report_seed):
        starts = self.starts(mods, report_seed)
        metric = mods["surface"].MetricModel.zoll_revolution(H_ODD)
        trace, solve = mods["geodesic"].trace_geodesic, mods["jacobi"].solve_fundamental
        checks, assemble = mods["identities"].run_all_checks, mods["normalform"].assemble_p1
        # numerical failures of one start are recorded and the pass goes on,
        # as the CLI does for a geodesic
        errors = (mods["surface"].IntegrationError, mods["normalform"].FirstObstructionError)
        results = []
        for label, c, ic in starts:
            try:
                path = trace(metric, ic, self.grid, enforce_closure=False)
                frame = solve(path)
                worst = max(r.normalized for r in checks(path, frame))
                rec = assemble(metric, ic, self.grid, path=path, frame=frame)
                results.append({"label": label, "c": c, "worst": worst,
                                "c0": rec.c0, "H_b": rec.H_b})
            except errors as exc:
                results.append({"label": label, "c": c, "error": f"{type(exc).__name__}: {exc}"})
        return results

    def outcome(self, results):
        failed = sum(1 for r in results if self._failed(r))
        return Outcome(len(results), failed, results)

    @staticmethod
    def _failed(r):
        return "error" in r or not r["worst"] < IDENTITY_TOL

    def check(self, outcome):
        """Passing starts keep H_b = -16 pi c0 and their c0 tends to the meridian's
        as c^2; only starts at or below the fault's threshold may fail."""
        problems = []
        meridian = outcome.data[0]
        if self._failed(meridian):
            return ["meridian start failed"]
        for r in outcome.data:
            if self._failed(r):
                if r["c"] > POLAR_FAULT_THRESHOLD:
                    problems.append(f"{r['label']}: failed above the threshold "
                                    f"({r.get('error') or r['worst']})")
                continue
            relation = abs(r["H_b"] + 16.0 * math.pi * r["c0"])
            if not relation <= H_RELATION_TOL:
                problems.append(f"{r['label']}: |H_b + 16 pi c0| = {relation:.3e}")
            gap = abs(r["c0"] - meridian["c0"])
            if not gap <= C0_APPROACH * r["c"] ** 2 + VANISHING_TOL:
                problems.append(f"{r['label']}: |c0 - c0(meridian)| = {gap:.3e}")
        return problems


def make(name, out_dir):
    """The named workload at its benchmark size."""
    if name == "verify":
        return CliWorkload(name, "verify", 32, 2048, out_dir)
    if name == "invariants":
        return CliWorkload(name, "invariants", 32, 2048, out_dir)
    if name == "invariants-fine":
        return CliWorkload(name, "invariants", 32, 32768, out_dir)
    if name == "polar":
        return PolarWorkload(name, 2048)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify", "invariants", "invariants-fine", "polar")
