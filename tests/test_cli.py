"""CLI: config validation, determinism, reports, CSV, exit codes."""

import csv
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref

import pytest

from zollforms import cli, normalform, surface
from zollforms.cli import (
    CSV_HEADER,
    EXIT_CHECK_FAILURE,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_FAILURE,
    EXIT_PASS,
    ConfigError,
    RunConfig,
    _digest,
    build_report,
    main,
    metric_from_spec,
    parse_metric_flag,
)
from zollforms.expansion import constants_report
from zollforms.normalform import FirstObstructionError
from zollforms.surface import IntegrationError


@functools.lru_cache(maxsize=None)
def _default_invariants_report(spec):
    """(report, exit code) of `invariants` on the default config of `spec`,
    built once per spec; read it, do not change it."""
    cfg = RunConfig.load(None, {"metric": parse_metric_flag(spec)})
    return build_report(cfg, "invariants")


def _fail_flow_with(monkeypatch, fails):
    """Make the flow of every start (p, v) with `fails(p, v)` raise."""
    real_flow = surface.flow

    def flow(metric, start, n):
        if fails(*start):
            raise IntegrationError("forced failure")
        return real_flow(metric, start, n)

    monkeypatch.setattr(surface, "flow", flow)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig.load(None, {})
        assert cfg.geodesics == 32 and cfg.grid == 2048

    def test_unknown_keys_rejected(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"metric": {"kind": "round"}, "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig.load(str(bad), {})

    def test_bad_grid_rejected(self, monkeypatch, capsys):
        """A grid that is no power of two, or one above MAX_GRID = 2^20, is a
        config error (exit 2) before any sample is allocated."""
        monkeypatch.setattr(surface, "flow", lambda *args: pytest.fail("a geodesic was traced"))
        for grid in (1000, 2**21):
            with pytest.raises(ConfigError, match="grid"):
                RunConfig.load(None, {"grid": grid})
        assert main(["invariants", "--metric", "round", "--geodesics", "1",
                     "--grid", str(2**21)]) == EXIT_CONFIG_ERROR
        assert "grid must be a power of two in [256, 1048576]" in capsys.readouterr().err

    def test_metric_specs(self):
        m = metric_from_spec({"kind": "round"})
        assert m.h_odd_coeffs == () and m.h_even_coeffs == ()
        m = metric_from_spec({"kind": "zoll_revolution", "h_odd_coeffs": [0.1]})
        assert m.h_odd_coeffs == (0.1,)
        with pytest.raises(ConfigError):
            metric_from_spec({"kind": "zoll_revolution", "nope": 1})
        with pytest.raises(ConfigError):
            metric_from_spec({"kind": "flat"})

    @pytest.mark.parametrize("entry", [
        {"grid": 2048.0}, {"grid": True}, {"geodesics": "4"}, {"geodesics": True},
        {"seed": "x"}, {"seed": 1.5}, {"tol": "1e-6"}, {"tol": True}, {"out": 3},
        {"csv": ["a.csv"]},
        {"metric": {"kind": "zoll_revolution", "h_odd_coeffs": 0.1}},
        {"metric": {"kind": "zoll_revolution", "h_odd_coeffs": "0"}},
        {"metric": {"kind": "zoll_revolution", "h_odd_coeffs": [True]}},
        {"metric": {"kind": "zoll_revolution", "h_odd_coeffs": ["0.1"]}},
        {"metric": {"kind": "zoll_revolution", "h_odd_coeffs": [0.1], "h_even_coeffs": 0.1}},
    ])
    def test_wrong_json_type_is_a_config_error(self, tmp_path, capsys, entry):
        """A config value of the wrong JSON type ends in exit 2 before any
        geodesic is traced, not in a traceback or a misread run."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metric": {"kind": "round"}, "geodesics": 1, "grid": 256,
                                   **entry}))
        with pytest.raises(ConfigError):
            RunConfig.load(str(cfg))
        assert main(["verify", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        """A negative seed, from the flag or from a config file, is a config
        error (exit 2), not a traceback from the random generator."""
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.load(None, {"seed": -1})
        assert main(["verify", "--metric", "round", "--geodesics", "2", "--grid", "256",
                     "--seed", "-1"]) == EXIT_CONFIG_ERROR
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metric": {"kind": "round"}, "geodesics": 2, "grid": 256,
                                   "seed": -5}))
        assert main(["invariants", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.count("seed must be >= 0") == 2

    def test_metric_flag(self):
        assert parse_metric_flag("round") == {"kind": "round"}
        assert parse_metric_flag("zoll:-0.3,0.3") == {
            "kind": "zoll_revolution", "h_odd_coeffs": [-0.3, 0.3]}
        for bad in ("torus", "zoll:0.5,,0.3", "zoll:-0.3,0.3,"):
            with pytest.raises(ConfigError):
                parse_metric_flag(bad)


class TestConstantsCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["constants", "--out", str(out_a)]) == EXIT_PASS
        assert main(["constants", "--out", str(out_b)]) == EXIT_PASS
        assert out_a.read_bytes() == out_b.read_bytes()
        assert capsys.readouterr().out == ""
        text = out_a.read_text()
        assert '"g00_y2 (C1)": "(1)*tau"' in text
        assert "e2_zero" in text

    def test_stdout_is_one_json_document(self, tmp_path, capsys):
        """Without --out the table goes to stdout, and nothing else does: the
        text parses as JSON and equals the --out file's contents."""
        assert main(["constants"]) == EXIT_PASS
        text = capsys.readouterr().out
        out = tmp_path / "c.json"
        main(["constants", "--out", str(out)])
        assert json.loads(text) == constants_report()
        assert text == out.read_text()

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        """An --out path in a missing directory ends in one config error line
        and exit code 2, not in a traceback."""
        out = tmp_path / "missing" / "c.json"
        assert main(["constants", "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.strip() == f"config error: cannot write {out}: No such file or directory"

    def test_report_values(self, tmp_path):
        out = tmp_path / "c.json"
        main(["constants", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["metric_jets"]["g00_y2 (C1)"] == "(1)*tau"
        assert "1/3" in data["metric_jets"]["g00_y3 (C2)"]
        assert data["assertions"]["e2_zero"] == "0"
        assert data["assertions"]["d0_zero"] == "0"


class TestVerifyCommand:
    def test_round_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--metric", "round", "--geodesics", "3",
                     "--grid", "512", "--out", str(out)])
        assert code == EXIT_PASS
        report = json.loads(out.read_text())
        assert report["summary"]["failures"] == []
        assert len(report["geodesics"]) == 3

    def test_zoll_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--metric", "zoll:-0.3,0.3", "--geodesics", "3",
                     "--grid", "512", "--out", str(out)])
        assert code == EXIT_PASS

    def test_negative_control_names_cube(self, tmp_path, capsys):
        """A non-Zoll metric: the failure line names the first geodesic that
        does not close, and the first identity check the report names is
        the cube integral, the first obstruction."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "metric": {"kind": "zoll_revolution",
                       "h_odd_coeffs": [0.05], "h_even_coeffs": [0.1]},
            "geodesics": 3, "grid": 512}))
        out = tmp_path / "verify.json"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CHECK_FAILURE
        err = capsys.readouterr().err
        assert "geodesic meridian check closure" in err
        checks = [f["check"] for f in json.loads(out.read_text())["summary"]["failures"]]
        assert [c for c in checks if c != "closure"][0] == "check_cube"

    def test_every_check_fails_on_a_non_zoll_metric(self):
        """The negative control: on h = 0.3 (x^3 - x) plus the even term
        0.05 x^0, each of the five identity checks fails on at least one of
        8 geodesics at N = 2048 (measured: 6 or 7 of 8 each, worst 9.0e-3
        for check_4id_im up to 0.24 for check_cube), and so does the
        closure gate.  A check that cannot fail shows here."""
        cfg = RunConfig.load(None, {
            "metric": {"kind": "zoll_revolution", "h_odd_coeffs": [-0.3, 0.3],
                       "h_even_coeffs": [0.05]},
            "geodesics": 8, "grid": 2048})
        report, code = build_report(cfg, "verify")
        assert code == EXIT_CHECK_FAILURE
        failed = {f["check"] for f in report["summary"]["failures"]}
        names = {c["name"] for c in report["geodesics"][0]["checks"]}
        assert len(names) == 5
        assert failed == names | {"closure"}

    @pytest.mark.parametrize("mode", ["verify", "invariants"])
    def test_closure_is_gated(self, tmp_path, capsys, mode):
        """A closure or Poincare defect above CLOSURE_TOL is a named failure,
        `closure` (exit 1), in both modes.  The meridian of the non-Zoll
        metric below has closure defect 0.157 and Poincare defect 0.314;
        on it the first obstruction cannot fire (tau_nu = 0), and
        `invariants` reported c0 = -0.1155 with exit 0."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "metric": {"kind": "zoll_revolution", "h_odd_coeffs": [-0.3, 0.3],
                       "h_even_coeffs": [0.05]},
            "geodesics": 2, "grid": 512}))
        out = tmp_path / "report.json"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == EXIT_CHECK_FAILURE
        assert "FAIL: geodesic meridian check closure value 3.142e-01" in capsys.readouterr().err
        report = json.loads(out.read_text())
        meridian = report["geodesics"][1]
        assert meridian["closure_defect"] > 0.1 and meridian["poincare_defect"] > 0.3
        assert report["summary"]["failures"][0] == {
            "geodesic": "meridian", "check": "closure", "value": meridian["poincare_defect"]}
        assert "closure" not in {f["check"] for f in report["summary"]["failures"]
                                 if f["geodesic"] == "equator"}

    def test_nan_closure_defect_fails(self, monkeypatch):
        """A NaN closure defect fails the closure gate, and the failure's
        value is written as null."""
        from dataclasses import replace

        real = cli.trace_geodesic

        def forced(metric, ic, *args, **kwargs):
            out = real(metric, ic, *args, **kwargs)
            return replace(out, closure_defect=math.nan) if ic[1][0] == 1.0 else out

        monkeypatch.setattr(cli, "trace_geodesic", forced)
        cfg = RunConfig.load(None, {"metric": parse_metric_flag("zoll:-0.3,0.3"),
                                    "geodesics": 3, "grid": 256})
        report, code = build_report(cfg, "verify")
        assert code == EXIT_CHECK_FAILURE
        assert report["summary"]["failures"] == [
            {"geodesic": "meridian", "check": "closure", "value": None}]

    @pytest.mark.parametrize("mode", ["verify", "invariants"])
    def test_one_traced_path_alive_at_a_time(self, monkeypatch, mode):
        """Each geodesic's path, and the frame that holds it, are gone
        before the next start is traced."""
        real, paths, alive = cli.trace_geodesic, [], []

        def traced(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in paths))
            path = real(*args, **kwargs)
            paths.append(weakref.ref(path))
            return path

        monkeypatch.setattr(cli, "trace_geodesic", traced)
        cfg = RunConfig.load(None, {"metric": parse_metric_flag("zoll:-0.3,0.3"),
                                    "geodesics": 4, "grid": 8192})
        _, code = build_report(cfg, mode)
        assert code == EXIT_PASS
        assert alive == [0, 0, 0, 0]

    def test_config_error_exit_code(self, tmp_path):
        assert main(["verify", "--metric", "nonsense"]) == EXIT_CONFIG_ERROR

    def test_nan_profile_is_a_config_error(self, capsys):
        code = main(["invariants", "--metric", "zoll:nan", "--geodesics", "2",
                     "--grid", "256"])
        assert code == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_integration_failure_does_not_stop_the_run(self, monkeypatch):
        _fail_flow_with(monkeypatch, lambda p, v: v[0] == 1.0)   # the meridian start
        cfg = RunConfig.load(None, {"metric": {"kind": "round"}, "geodesics": 3,
                                    "grid": 256})
        report, code = build_report(cfg, "verify")
        assert code == EXIT_NUMERICAL_FAILURE
        assert [r["geodesic_id"] for r in report["geodesics"]] == [
            "equator", "meridian", "random-000"]
        assert "integration_failure" in report["geodesics"][1]
        assert "checks" in report["geodesics"][2]
        assert [f["check"] for f in report["summary"]["failures"]] == ["integration"]


    def test_integration_failure_is_strict_json(self, monkeypatch, tmp_path, capsys):
        """A failed geodesic's value is written as null, never as a bare NaN."""
        _fail_flow_with(monkeypatch, lambda p, v: v[0] == 1.0)   # the meridian start
        out = tmp_path / "verify.json"
        code = main(["verify", "--metric", "round", "--geodesics", "3",
                     "--grid", "256", "--out", str(out)])
        assert code == EXIT_NUMERICAL_FAILURE

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["summary"]["failures"] == [
            {"geodesic": "meridian", "check": "integration", "value": None}]
        assert "check integration" in capsys.readouterr().err

    def test_flow_failure_stays_with_its_geodesic(self, monkeypatch):
        """A flow that raises ends its own geodesic with a named integration
        failure, and the run goes on (exit 3): the meridian and the first
        sampled start of h = 0.1 x fail, and the equator passes its checks."""
        cfg = RunConfig.load(None, {"metric": parse_metric_flag("zoll:0.1"), "geodesics": 3,
                                    "grid": 512})
        sampled_point = cli._initial_conditions(cfg)[2][1][0]
        _fail_flow_with(monkeypatch, lambda p, v: v[0] == 1.0 or p == sampled_point)
        report, code = build_report(cfg, "verify")
        assert code == EXIT_NUMERICAL_FAILURE
        records = report["geodesics"]
        assert all(c["normalized"] < cfg.tol for c in records[0]["checks"])
        for record in records[1:]:
            assert record["integration_failure"] == "forced failure"
        assert report["summary"]["failures"] == [
            {"geodesic": name, "check": "integration", "value": None}
            for name in ("meridian", "random-000")]

    def test_non_zoll_control_fails_closure(self, tmp_path):
        """With an even profile term the geodesics do not close: their closure
        and Poincare defects, read at theta0 + 2*pi, the end of one turn of
        the Clairaut angle, are far from zero (the equator closes by
        symmetry), and the identity suite fails (exit 1)."""
        cfg = RunConfig.load(None, {
            "metric": {"kind": "zoll_revolution", "h_odd_coeffs": [0.05], "h_even_coeffs": [0.1]},
            "geodesics": 3, "grid": 512})
        report, code = build_report(cfg, "verify")
        assert code == EXIT_CHECK_FAILURE
        equator, *others = report["geodesics"]
        assert equator["closure_defect"] < 1e-12 and equator["poincare_defect"] < 1e-12
        for record in others:
            assert record["closure_defect"] > 0.1 and record["poincare_defect"] > 0.1

    def test_nan_obstruction_value_is_null(self, monkeypatch, tmp_path):
        def assemble(*args, **kwargs):
            raise FirstObstructionError((2, 1), complex(math.nan))

        monkeypatch.setattr(cli, "assemble_p1", assemble)
        out = tmp_path / "inv.json"
        code = main(["invariants", "--metric", "round", "--geodesics", "1",
                     "--grid", "256", "--out", str(out)])
        assert code == EXIT_CHECK_FAILURE
        text = out.read_text()
        assert "NaN" not in text
        assert json.loads(text)["summary"]["failures"][0]["value"] is None


    def test_nan_residual_reaches_the_summary(self, monkeypatch, tmp_path):
        """A NaN check on the meridian is null in its record and in the
        summary maximum, which Python's max would fill from the others."""
        from zollforms import identities

        real = identities.check_tau_s

        def check_tau_s(path, frame):
            result = real(path, frame)
            if path.init[1][0] == 1.0:   # the meridian start
                return identities.CheckResult(result.name, math.nan, result.scale)
            return result

        monkeypatch.setattr(identities, "check_tau_s", check_tau_s)
        out = tmp_path / "verify.json"
        code = main(["verify", "--metric", "zoll:-0.3,0.3", "--geodesics", "4",
                     "--grid", "256", "--out", str(out)])
        assert code == EXIT_CHECK_FAILURE
        report = json.loads(out.read_text())
        meridian = next(r for r in report["geodesics"] if r["geodesic_id"] == "meridian")
        assert next(c for c in meridian["checks"] if c["name"] == "check_tau_s")["normalized"] is None
        assert report["summary"]["max_normalized_residuals"]["check_tau_s"] is None


class TestInvariantsCommand:
    def test_round_run(self, tmp_path):
        out = tmp_path / "inv.json"
        csv_path = tmp_path / "inv.csv"
        code = main(["invariants", "--metric", "round", "--geodesics", "4",
                     "--grid", "512", "--seed", "1",
                     "--out", str(out), "--csv", str(csv_path)])
        assert code == EXIT_PASS
        report = json.loads(out.read_text())
        assert report["summary"]["c2_max"] < 1e-7
        assert report["summary"]["c0_spread"] < 1e-9
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 4

    def test_unwritable_csv_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        """A --csv path in a missing directory ends in one config error line
        and exit code 2 before any geodesic is traced; the report path,
        checked first, is left empty."""
        traced = []
        monkeypatch.setattr(cli, "trace_geodesic", lambda *args, **kwargs: traced.append(args))
        out, csv_path = tmp_path / "inv.json", tmp_path / "missing" / "inv.csv"
        code = main(["invariants", "--metric", "round", "--geodesics", "1", "--grid", "256",
                     "--out", str(out), "--csv", str(csv_path)])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.strip() == f"config error: cannot write {csv_path}: No such file or directory"
        assert traced == []
        assert out.read_text() == ""

    @pytest.mark.parametrize("mode", ["verify", "invariants"])
    def test_unwritable_out_costs_no_run(self, tmp_path, capsys, monkeypatch, mode):
        """An --out path in a missing directory ends the command before any
        geodesic is traced, and an existing CSV file is left as it is."""
        traced = []
        monkeypatch.setattr(cli, "trace_geodesic", lambda *args, **kwargs: traced.append(args))
        out, csv_path = tmp_path / "missing" / "inv.json", tmp_path / "inv.csv"
        csv_path.write_text("earlier rows\n")
        flags = ["--csv", str(csv_path)] if mode == "invariants" else []
        code = main([mode, "--metric", "round", "--geodesics", "1", "--grid", "256",
                     "--out", str(out), *flags])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.strip() == f"config error: cannot write {out}: No such file or directory"
        assert traced == []
        assert csv_path.read_text() == "earlier rows\n"

    def test_failure_line_carries_the_value(self, tmp_path, capsys):
        """The stderr FAIL line names the geodesic, the check and its value,
        in invariants mode as in verify mode."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "metric": {"kind": "zoll_revolution",
                       "h_odd_coeffs": [0.05], "h_even_coeffs": [0.1]},
            "geodesics": 3, "grid": 256}))
        code = main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "inv.json")])
        assert code == EXIT_CHECK_FAILURE
        report = json.loads((tmp_path / "inv.json").read_text())
        first = report["summary"]["failures"][0]
        assert first["check"] == "closure"
        assert capsys.readouterr().err.strip().splitlines()[-1] == (
            f"FAIL: geodesic {first['geodesic']} check closure value {first['value']:.3e}")

    def test_csv_only_in_invariants_mode(self, tmp_path):
        rows = tmp_path / "rows.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metric": {"kind": "round"}, "geodesics": 1, "grid": 256,
                                   "csv": str(rows)}))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v.json")]) == EXIT_PASS
        assert not rows.exists()
        assert main(["invariants", "--config", str(cfg), "--out", str(tmp_path / "i.json")]) == EXIT_PASS
        assert rows.exists()

    def test_report_digest_repeats(self):
        cfg = RunConfig.load(None, {"metric": parse_metric_flag("zoll:-0.3,0.3"),
                                    "geodesics": 2, "grid": 256})
        first, _ = build_report(cfg, "invariants")
        second, _ = build_report(cfg, "invariants")
        assert first["digest"] == second["digest"]

    def test_engine_diagnostics_reach_the_report(self, tmp_path):
        """first_obstruction_max, the engine's one diagnostic, is written per
        geodesic as a finite number, and two runs of one config still give
        one digest.  What the conjugation leaves at weight -1/2 is exactly
        the means of the odd term, so no residual is reported beside it,
        and the record has no diagnostics block."""
        digests = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["invariants", "--metric", "zoll:-0.3,0.3", "--geodesics", "3",
                         "--grid", "512", "--out", str(out)])
            assert code == EXIT_PASS
            report = json.loads(out.read_text())
            for rec in report["geodesics"]:
                inv = rec["invariants"]
                assert "diagnostics" not in inv
                assert isinstance(inv["first_obstruction_max"], float)
                assert inv["first_obstruction_max"] <= 1e-8
            digests.append(report["digest"])
        assert digests[0] == digests[1]

    def test_only_verify_echoes_tol(self, tmp_path):
        """`invariants` reads no tolerance, so two runs that differ only in
        --tol write byte-identical reports, without `tol` in the config
        echo; two such `verify` runs echo their own `tol` and differ."""
        for mode in ("invariants", "verify"):
            texts = []
            for tol in ("1e-6", "1e-5"):
                out = tmp_path / f"{mode}-{tol}.json"
                assert main([mode, "--metric", "round", "--geodesics", "2", "--grid", "256",
                             "--tol", tol, "--out", str(out)]) == EXIT_PASS
                texts.append(out.read_text())
                config = json.loads(texts[-1])["header"]["config"]
                assert config.get("tol") == (float(tol) if mode == "verify" else None)
            assert (texts[0] == texts[1]) == (mode == "invariants"), mode

    def test_digest_covers_the_whole_report(self):
        """A report is its header, geodesics and summary, all under the
        digest (no run-dependent block is left outside it), and two runs
        give one digest."""
        cfg = RunConfig.load(None, {"metric": parse_metric_flag("zoll:-0.309,0.294"),
                                    "geodesics": 4, "grid": 512})
        first, _ = build_report(cfg, "invariants")
        second, _ = build_report(cfg, "invariants")
        assert first["digest"] == second["digest"]
        assert first["header"]["schema_version"] == 8
        assert set(first) == {"header", "geodesics", "summary", "digest"}
        body = {k: v for k, v in first.items() if k != "digest"}
        assert first["digest"] == _digest(body)

    def test_report_is_encoded_once(self, tmp_path, monkeypatch):
        """A run encodes its report once.  The file is json.dumps(report,
        sort_keys=True), compact, with the digest first, and the digest is
        the sha256 of the same text without its digest entry."""
        cli._constants_digest()   # once per process, outside the count
        calls = []
        real = json.dumps

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        out = tmp_path / "inv.json"
        assert main(["invariants", "--metric", "zoll:-0.3,0.3", "--geodesics", "2",
                     "--grid", "256", "--out", str(out)]) == EXIT_PASS
        assert len(calls) == 1
        monkeypatch.undo()
        text = out.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        report = json.loads(text)
        assert text[:-1] == json.dumps(report, sort_keys=True)
        assert text.startswith('{"digest": "')
        body = {k: v for k, v in report.items() if k != "digest"}
        assert report["digest"] == hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()

    def test_strongly_warped_meridian_is_resolved(self, tmp_path):
        """h = -0.99 x brings f = 1 + h down to 0.01 at the north pole.  At
        the default grid the run passes, and the meridian reads the
        converged c0 = -44.52771388243 with c2 = 0: sampled uniformly in
        arclength it read c0 = -34.888 and c2 = -3464.8, and 4 other
        geodesics failed the first obstruction."""
        out = tmp_path / "inv.json"
        code = main(["invariants", "--metric", "zoll:-0.99", "--geodesics", "8",
                     "--grid", "2048", "--seed", "0", "--out", str(out)])
        assert code == EXIT_PASS
        report = json.loads(out.read_text())
        assert report["summary"]["failures"] == []
        meridian = report["geodesics"][1]
        assert meridian["geodesic_id"] == "meridian"
        assert abs(meridian["invariants"]["c0"] + 44.52771388243) <= 1e-9
        assert abs(meridian["invariants"]["c2"]) <= 1e-9

    def test_h_relation_is_gated(self, monkeypatch):
        """Each record carries |c0 + H/(16 pi)| relative to the scale of H's
        integrand; above 1e-9 it is a named failure (exit 1), and the
        summary carries the spread of H."""
        cfg = RunConfig.load(None, {"metric": parse_metric_flag("zoll:-0.3,0.3"),
                                    "geodesics": 3, "grid": 256})
        report, code = build_report(cfg, "invariants")
        assert code == EXIT_PASS
        invs = [r["invariants"] for r in report["geodesics"]]
        assert max(i["h_relation"] for i in invs) <= 1e-11
        hs = [i["H_b"] for i in invs]
        assert report["summary"]["H_spread"] == max(hs) - min(hs)

        real_H = normalform.compute_H

        def perturbed_H(path, frame):
            H, scale = real_H(path, frame)
            return H * (1.0 + 1e-8), scale

        monkeypatch.setattr(normalform, "compute_H", perturbed_H)
        report, code = build_report(cfg, "invariants")
        assert code == EXIT_CHECK_FAILURE
        assert [f["check"] for f in report["summary"]["failures"]] == ["h_relation"] * 3
        assert all(1e-9 < f["value"] < 2e-8 for f in report["summary"]["failures"])

    def test_h_relation_sees_a_wrong_engine_coefficient(self, tmp_path, monkeypatch):
        """A mutation of the engine alone: the coefficient of tau in the
        (0, 0) row of D0's Gram plan, raised by 1e-7 of itself, moves c0
        by 1e-7 of D0's tau term, where compute_H does not move; then
        `zollforms invariants` on the default config names an h_relation
        failure on every geodesic and exits 1 (measured: 2.0e-7 each)."""
        import dataclasses

        stage = normalform._symbols()
        row = stage.d0_parts.index(((0, 0), 1))
        column = stage.d0_monomials.index((("tau", 1),))
        coeffs = stage.d0_coeffs.copy()
        coeffs[row, column] *= 1.0 + 1e-7
        mutated = dataclasses.replace(stage, d0_coeffs=coeffs)
        monkeypatch.setattr(normalform, "_symbols", lambda: mutated)
        out = tmp_path / "inv.json"
        assert main(["invariants", "--out", str(out)]) == EXIT_CHECK_FAILURE
        failures = json.loads(out.read_text())["summary"]["failures"]
        assert [f["check"] for f in failures] == ["h_relation"] * 32
        assert all(1e-7 < f["value"] < 4e-7 for f in failures)

    def test_h_relation_where_c0_vanishes(self, tmp_path):
        """On the equator of a profile with h'(0) = 1, c0 = (h'(0)^2 - 1)/8
        is 0 and H sums terms of size 1: the residual of c0 = -H/(16 pi) is
        roundoff relative to them, which divided by |c0| read as 2.5."""
        out = tmp_path / "inv.json"
        assert main(["invariants", "--metric", "zoll:1,-0.5", "--geodesics", "2",
                     "--grid", "256", "--out", str(out)]) == EXIT_PASS
        equator = json.loads(out.read_text())["geodesics"][0]
        assert equator["geodesic_id"] == "equator"
        assert abs(equator["invariants"]["c0"]) < 1e-15
        assert equator["invariants"]["h_relation"] < 1e-14

    def test_header_constants_digest(self):
        cfg = RunConfig.load(None, {"geodesics": 1, "grid": 256})
        report, _ = build_report(cfg, "invariants")
        assert report["header"]["constants_digest"] == _digest(constants_report())

    def test_constants_digest_is_pinned(self):
        """The table is exact rational text, so its digest is the same on
        every platform; any change to the derivation that moves one
        constant, or one character of its text, shows here."""
        assert _digest(constants_report()) == (
            "d0097e8521cac44a6465dc73121282888ac315113e82425d8e6d0a5a5c95a187")

    def test_determinism(self, tmp_path):
        outs = []
        for name in ("x.json", "y.json"):
            out = tmp_path / name
            main(["invariants", "--metric", "zoll:0.1", "--geodesics", "3",
                  "--grid", "512", "--seed", "9", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("spec", ["zoll:-0.3,0.3", "zoll:0.1"])
    def test_offdiagonal_keys_do_not_depend_on_roundoff(self, spec):
        """Every geodesic of the default 32-geodesic report carries the same
        six keys, the off-diagonal entries of the order-zero symbol, which
        has even degree only, also where a mean comes out exactly 0."""
        report, code = _default_invariants_report(spec)
        assert code == EXIT_PASS
        expected = {"2,0", "0,2", "3,1", "1,3", "4,0", "0,4"}
        for record in report["geodesics"]:
            assert set(record["invariants"]["offdiag"]) == expected

    def test_no_invariant_is_constant_or_repeated(self):
        """On the default 32-geodesic report no leaf of an invariants record
        (an offdiag entry taken as its [re, im] pair) takes one value on
        every geodesic, and none repeats a field of the enclosing record:
        a field the construction fixes carries nothing."""
        report, code = _default_invariants_report("zoll:-0.3,0.3")
        assert code == EXIT_PASS
        values = {}
        for record in report["geodesics"]:
            inv = record["invariants"]
            assert not set(inv) & set(record), sorted(set(inv) & set(record))
            for key, value in inv.items():
                leaves = value.items() if isinstance(value, dict) else [(None, value)]
                for sub, leaf in leaves:
                    values.setdefault((key, sub), set()).add(json.dumps(leaf))
        constant = sorted(key for key, seen in values.items() if len(seen) == 1)
        assert not constant, constant

    @pytest.mark.parametrize("key, summary_key", [
        ("c0", "c0_spread"), ("H_b", "H_spread"), ("c2", "c2_max"), ("c01", "c01_max"),
        ("offdiag", "offdiag_max"), ("closure_defect", "max_closure_defect")])
    def test_nan_reaches_the_summary(self, monkeypatch, key, summary_key):
        """A NaN in one geodesic's record, not the first, makes the summary
        maximum or spread over it NaN, written as null."""
        from dataclasses import replace

        nan = {"offdiag": {(2, 0): complex(math.nan)}}.get(key, math.nan)
        owner = "trace_geodesic" if key == "closure_defect" else "assemble_p1"
        real = getattr(cli, owner)

        def forced(metric, ic, *args, **kwargs):
            out = real(metric, ic, *args, **kwargs)
            return replace(out, **{key: nan}) if ic[1][0] == 1.0 else out   # the meridian

        monkeypatch.setattr(cli, owner, forced)
        cfg = RunConfig.load(None, {"metric": parse_metric_flag("zoll:-0.3,0.3"),
                                    "geodesics": 3, "grid": 256})
        report, _ = build_report(cfg, "invariants")
        assert report["summary"][summary_key] is None

    def test_offdiagonal_summary(self, tmp_path):
        out = tmp_path / "inv.json"
        code = main(["invariants", "--metric", "zoll:-0.3,0.3", "--geodesics", "3",
                     "--grid", "512", "--out", str(out)])
        assert code == EXIT_PASS
        report = json.loads(out.read_text())
        assert report["summary"]["offdiag_max"] < 1e-6


class TestEntryPoint:
    def test_console_script(self):
        # the child imports the same package as this process, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "zollforms.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "constants" in proc.stdout
