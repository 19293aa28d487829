"""Deterministic experiment CLI: constants, verify, invariants.

Configuration comes from a JSON file plus flag overrides; reports are
schema-versioned JSON with a content digest, encoded once (`Report`), and
the invariants command additionally writes plot-ready CSV rows (one per
geodesic).

Exit codes: 0 pass, 1 check failure, 2 config error, 3 numerical failure.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from . import __version__
from .expansion import constants_report
from .geodesic import (CLOSURE_TOL, MAX_GRID, MIN_GRID, canonical_initial_conditions,
                       sample_initial_conditions, trace_geodesic)
from .identities import DEFAULT_TOLERANCE, run_all_checks
from .jacobi import solve_fundamental
from .normalform import FirstObstructionError, assemble_p1
from .surface import IntegrationError, MetricModel

__all__ = ["main", "RunConfig", "build_report", "metric_from_spec"]

SCHEMA_VERSION = 8
H_RELATION_TOL = 1e-9     # residual of the paper's c0 = -H/(16 pi), see InvariantRecord.h_relation

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated run configuration (unknown keys rejected)."""

    metric: dict = field(default_factory=lambda: {"kind": "round"})
    geodesics: int = 32
    grid: int = 2048
    tol: float = DEFAULT_TOLERANCE
    seed: int = 0
    out: str = None
    csv: str = None

    KEYS = ("metric", "geodesics", "grid", "tol", "seed", "out", "csv")
    TYPES = {"geodesics": (Integral, "an integer"), "grid": (Integral, "an integer"),
             "seed": (Integral, "an integer"), "tol": (Real, "a number"),
             "out": (str, "a string or null"), "csv": (str, "a string or null")}

    @classmethod
    def load(cls, config_path=None, overrides=None):
        data = {}
        if config_path:
            try:
                with open(config_path) as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {config_path}: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(data) - set(cls.KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in (overrides or {}).items():
            if value is not None:
                data[key] = value
        for key, (kind, what) in cls.TYPES.items():
            if data.get(key) is not None and not _is_a(data[key], kind):
                raise ConfigError(f"{key} must be {what}, got {data[key]!r}")
        cfg = cls(**{k: v for k, v in data.items() if v is not None})
        if cfg.geodesics < 1:
            raise ConfigError("geodesics must be >= 1")
        if cfg.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not MIN_GRID <= cfg.grid <= MAX_GRID or (cfg.grid & (cfg.grid - 1)) != 0:
            raise ConfigError(f"grid must be a power of two in [{MIN_GRID}, {MAX_GRID}]")
        if not (0.0 < cfg.tol < 1.0):
            raise ConfigError("tol must be in (0, 1)")
        cfg.metric_model = metric_from_spec(cfg.metric)
        return cfg

    def echo(self, mode):
        """The config a report of `mode` depends on: `tol` only in
        `verify`, the one mode that reads it."""
        out = {"metric": self.metric, "geodesics": self.geodesics,
               "grid": self.grid, "seed": self.seed}
        if mode == "verify":
            out["tol"] = self.tol
        return out


def _is_a(value, kind):
    """isinstance, except that a JSON true or false is no number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def metric_from_spec(spec):
    """MetricModel from a config dict; unknown keys rejected."""
    if not isinstance(spec, dict):
        raise ConfigError("metric spec must be an object")
    kind = spec.get("kind")
    if kind == "round":
        extra = set(spec) - {"kind"}
        if extra:
            raise ConfigError(f"round metric takes no keys {sorted(extra)}")
        return MetricModel.round()
    if kind == "zoll_revolution":
        extra = set(spec) - {"kind", "h_odd_coeffs", "h_even_coeffs"}
        if extra:
            raise ConfigError(f"unknown metric keys {sorted(extra)}")
        for key in ("h_odd_coeffs", "h_even_coeffs"):
            coeffs = spec.get(key, ())
            if not isinstance(coeffs, (list, tuple)) or not all(_is_a(a, Real) for a in coeffs):
                raise ConfigError(f"{key} must be a list of numbers, got {coeffs!r}")
        try:
            return MetricModel.zoll_revolution(
                spec.get("h_odd_coeffs", ()), spec.get("h_even_coeffs", ()))
        except ValueError as exc:
            raise ConfigError(str(exc))
    raise ConfigError(f"unknown metric kind {kind!r}")


def parse_metric_flag(text):
    """--metric value: 'round' or 'zoll:a1,a2,...' (odd profile coefficients)."""
    if text == "round":
        return {"kind": "round"}
    if text.startswith("zoll:"):
        try:
            coeffs = [float(x) for x in text[5:].split(",")]
        except ValueError:
            raise ConfigError(f"bad metric flag {text!r}")
        return {"kind": "zoll_revolution", "h_odd_coeffs": coeffs}
    raise ConfigError(f"bad metric flag {text!r} (use round or zoll:a1,a2,...)")


def _initial_conditions(cfg):
    named = canonical_initial_conditions()
    count = cfg.geodesics
    out = [(name, ic) for name, ic in named[:count]]
    extra = sample_initial_conditions(max(count - len(out), 0), seed=cfg.seed)
    out.extend((f"random-{i:03d}", ic) for i, ic in enumerate(extra))
    return out[:count]


def _encode(obj):
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def _digest(obj):
    return hashlib.sha256(_encode(obj).encode()).hexdigest()


@lru_cache(maxsize=1)
def _constants_digest():
    """Digest of the constants table, which no config changes: once per process."""
    return _digest(constants_report())


def _header(cfg, mode):
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "constants_digest": _constants_digest(),
        "config": cfg.echo(mode),
    }


def _init_fields(ic):
    point, tangent = ic
    return {"r0": point.r, "phi0": point.phi,
            "theta0": math.atan2(tangent[1], tangent[0]) % (2.0 * math.pi)}


def build_report(cfg, mode):
    """Run `verify` or `invariants` over the geodesic sample; returns (report, exit_code).

    Each start is traced by `trace_geodesic`, without its closure gate,
    and processed before the next, which is traced only once the path
    and frame before it are gone.  A closure or Poincare defect above
    CLOSURE_TOL (or NaN) is the geodesic's `closure` failure, in both
    modes, and its checks or invariants are still computed.  A geodesic
    that fails is recorded and the run goes on; the exit code is
    EXIT_NUMERICAL_FAILURE if any geodesic raised IntegrationError, its
    `integration` failure.
    """
    records = []
    failures = []
    for name, ic in _initial_conditions(cfg):
        record = {"geodesic_id": name, **_init_fields(ic)}
        try:
            _fill_record(cfg, mode, name, ic, record, failures)
        except FirstObstructionError as exc:
            record["first_obstruction_failure"] = str(exc)
            failures.append((name, "first_obstruction", abs(exc.value)))
        except IntegrationError as exc:
            record["integration_failure"] = str(exc)
            failures.append((name, "integration", None))
        records.append(record)
    if any(check == "integration" for _, check, _ in failures):
        code = EXIT_NUMERICAL_FAILURE
    else:
        code = EXIT_CHECK_FAILURE if failures else EXIT_PASS
    return _assemble_report(cfg, mode, records, failures), code


def _fill_record(cfg, mode, name, ic, record, failures):
    """Trace one start and write its defects and its checks or invariants
    into `record`, its failures into `failures`; its path and frame are
    freed on return."""
    path = trace_geodesic(cfg.metric_model, ic, cfg.grid, enforce_closure=False)
    record["closure_defect"] = path.closure_defect
    frame = solve_fundamental(path)
    # np.max keeps a NaN, which Python's max drops unless it comes first
    record["poincare_defect"] = float(np.max(np.abs(frame.poincare - np.eye(2))))
    defect = float(np.max([path.closure_defect, record["poincare_defect"]]))
    if not defect <= CLOSURE_TOL:
        failures.append((name, "closure", defect))
    if mode == "verify":
        checks = run_all_checks(path, frame)
        record["checks"] = [c.as_dict() for c in checks]
        for c in checks:
            if not c.passed(cfg.tol):
                failures.append((name, c.name, c.normalized))
    else:
        rec = assemble_p1(cfg.metric_model, ic, cfg.grid, path=path, frame=frame)
        record["invariants"] = rec.as_dict()
        if not rec.h_relation <= H_RELATION_TOL:
            failures.append((name, "h_relation", rec.h_relation))


CHECK_PRIORITY = ["closure", "check_cube", "check_tau_s", "check_quartic", "check_4id_im",
                  "check_4id_relation", "first_obstruction", "h_relation", "integration"]


def _assemble_report(cfg, mode, records, failures):
    # report failures in check priority order so the most basic broken
    # condition is named first: a geodesic that does not close, then the
    # cube integral, the first obstruction
    def priority(item):
        _, check, _ = item
        return (CHECK_PRIORITY.index(check) if check in CHECK_PRIORITY else 99)

    failures = sorted(failures, key=priority)
    summary = {"mode": mode, "geodesic_count": len(records),
               "failures": [{"geodesic": g, "check": c, "value": v}
                            for g, c, v in failures]}
    # numpy's max and ptp propagate a NaN, which Python's max drops unless it comes first
    closures = [r["closure_defect"] for r in records if "closure_defect" in r]
    if closures:
        summary["max_closure_defect"] = float(np.max(closures))
    if mode == "verify":
        residuals = {}
        for r in records:
            for c in r.get("checks", ()):
                residuals.setdefault(c["name"], []).append(c["normalized"])
        summary["max_normalized_residuals"] = {k: float(np.max(v)) for k, v in residuals.items()}
    else:
        invs = [r["invariants"] for r in records if "invariants" in r]
        if invs:
            summary["c0_spread"] = float(np.ptp([i["c0"] for i in invs]))
            summary["H_spread"] = float(np.ptp([i["H_b"] for i in invs]))
            summary["c2_max"] = float(np.max(np.abs([i["c2"] for i in invs])))
            summary["c01_max"] = float(np.max(np.abs([i["c01"] for i in invs])))
            summary["offdiag_max"] = float(np.max([i["offdiag_max"] for i in invs]))
    return Report({"header": _header(cfg, mode), "geodesics": records, "summary": summary})


class Report(dict):
    """A report with its "digest" entry, and `text`, its JSON encoding.

    The body is encoded once, with sorted keys: the digest is the sha256
    of that text, and `text` is the same text with the digest spliced in
    as its first key, so `text == json.dumps(report, sort_keys=True)`.
    A body holding a NaN or infinite float is encoded again after
    `_strict_json`, which writes each such value as null.
    """

    def __init__(self, body):
        try:
            body_text = _encode(body)
        except ValueError:   # a non-finite float, which strict JSON cannot hold
            body = _strict_json(body)
            body_text = _encode(body)
        digest = hashlib.sha256(body_text.encode()).hexdigest()
        super().__init__(body, digest=digest)
        # "digest" sorts before every key of the body
        self.text = f'{{"digest": "{digest}", {body_text[1:]}'


def _strict_json(obj):
    """obj with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_strict_json(v) for v in obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_report(text, out_path):
    """Write one encoded JSON document to `out_path`, or to stdout."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


CSV_HEADER = ["geodesic_id", "r0", "phi0", "theta0", "closure_defect",
              "c0", "c01", "c2", "offdiag_max", "H_reading_b"]


def _write_csv(report, csv_path):
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in report["geodesics"]:
            inv = rec.get("invariants", {})
            writer.writerow([
                rec["geodesic_id"], rec.get("r0"), rec.get("phi0"), rec.get("theta0"),
                rec.get("closure_defect"),
                inv.get("c0"), inv.get("c01"), inv.get("c2"),
                inv.get("offdiag_max"), inv.get("H_b"),
            ])


def cmd_constants(args):
    """One JSON document, to --out or else to stdout, as the other commands."""
    _write_report(json.dumps(constants_report(), sort_keys=True, indent=2, allow_nan=False),
                  args.out)
    return EXIT_PASS


def _run_config(args):
    overrides = {
        "geodesics": args.geodesics, "grid": args.grid, "tol": args.tol,
        "seed": args.seed, "out": args.out,
        "csv": getattr(args, "csv", None),
    }
    if args.metric:
        overrides["metric"] = parse_metric_flag(args.metric)
    return RunConfig.load(args.config, overrides)


def cmd_run(args):
    """`verify` or `invariants`, the mode being the command's name; the CSV
    rows are written in invariants mode only.

    Each output path is opened for appending before the first geodesic is
    traced, so an unwritable one ends the command before the run; that
    creates a missing file empty and leaves an existing one as it is.
    """
    cfg = _run_config(args)
    csv_path = cfg.csv if args.command == "invariants" else None
    for path in filter(None, (cfg.out, csv_path)):
        open(path, "a").close()
    report, code = build_report(cfg, args.command)
    _write_report(report.text, cfg.out)
    if csv_path:
        _write_csv(report, csv_path)
    failures = report["summary"]["failures"]
    if code != EXIT_PASS and failures:
        first = failures[0]
        value = "" if first["value"] is None else f" value {first['value']:.3e}"
        print(f"FAIL: geodesic {first['geodesic']} check {first['check']}{value}",
              file=sys.stderr)
    return code


def _add_run_flags(parser, with_csv=False):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--metric", help="round or zoll:a1,a2,... (odd profile)")
    parser.add_argument("--geodesics", type=int, help="number of geodesics")
    parser.add_argument("--grid", type=int,
                        help=f"grid size (power of two from {MIN_GRID} to {MAX_GRID})")
    parser.add_argument("--tol", type=float,
                        help="normalized residual tolerance of the verify checks "
                             "(invariants reads none)")
    parser.add_argument("--seed", type=int, help="random seed for initial conditions")
    parser.add_argument("--out", help="write the JSON report here")
    if with_csv:
        parser.add_argument("--csv", help="write per-geodesic CSV rows here")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="zollforms",
        description="Degree-2 quantum Birkhoff normal form invariants on Zoll surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="print the derived universal constants")
    p_const.add_argument("--out", help="write the JSON table here")
    p_const.set_defaults(fn=cmd_constants)

    for mode, what in (("verify", "run the integral-identity suite"),
                       ("invariants", "assemble the p1 invariant per geodesic")):
        p_run = sub.add_parser(mode, help=what)
        _add_run_flags(p_run, with_csv=mode == "invariants")
        p_run.set_defaults(fn=cmd_run)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:   # the config is read above; this is an output path
        print(f"config error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
