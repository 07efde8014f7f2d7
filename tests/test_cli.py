"""End-to-end checks of the command-line front end.

Every test drives ``cli.main`` in process with configs written under a
temporary directory, so the suite exercises the same argument parsing,
schema validation, exit codes, and CSV/JSON writers as the installed
``elastoscat`` entry point.
"""
import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from elastoscat import cli
from elastoscat.bounds import REGIME_NONRADIATING

MEDIUM = {"lam": 2.0, "mu": 1.0, "omega": 2.0}


def write_cfg(root, name, cfg):
    path = Path(root) / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return header, [dict(zip(header, r)) for r in rows[1:]]


def sweep_cfg(**over):
    cfg = {
        "schema_version": 1,
        "experiment": "sweep-small",
        "medium": dict(MEDIUM),
        "seed": 7,
        "sweep": {"epsilons": [0.05, 0.1, 0.2, 0.1],
                  "amplitudes": [[1, 0], [1, 0], [1, 0], [0, 0]]},
        "criterion": {"delta": 1.0, "c_fit": 1.0},
        "mesh": {"n_radial": 24, "n_angular": 48},
        "directions": 64,
    }
    cfg.update(over)
    return cfg


def cgo_cfg():
    return {
        "schema_version": 1,
        "experiment": "cgo-verify",
        "medium": dict(MEDIUM),
        "seed": 5,
        "probes": {"tau_ratios": [2, 10], "angles": [0.0, 0.9],
                   "residual_ppw": 400, "points_per_side": 8},
        "paraboloid": {"K_values": [1.0, 5.0], "tau_values": [4.0, 12.0],
                       "dims": [2, 3], "samples": 50000},
    }


def dist_cfg():
    return {
        "schema_version": 1,
        "experiment": "distinguish",
        "medium": dict(MEDIUM),
        "seed": 1,
        "pair": {"radius_scale": 0.05, "separation_scale": 3.0,
                 "amplitude": [1, 0]},
        "mesh": {"n_radial": 24, "n_angular": 48},
        "directions": 128,
    }


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-sweep")
    cfg_path = write_cfg(root, "sweep.json", sweep_cfg())
    prefix = root / "out" / "sw"
    rc = cli.main(["sweep-small", "--config", cfg_path, "--out", str(prefix)])
    assert rc == 0
    return prefix


@pytest.fixture(scope="module")
def cgo_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-cgo")
    cfg_path = write_cfg(root, "cgo.json", cgo_cfg())
    runs = {}
    for tag, extra in (("w1", ["--workers", "1"]),
                       ("w6", ["--workers", "6"]),
                       ("reseeded", ["--workers", "2", "--seed", "123"])):
        prefix = root / tag / "run"
        rc = cli.main(["cgo-verify", "--config", cfg_path,
                       "--out", str(prefix)] + extra)
        assert rc == 0
        runs[tag] = prefix
    return runs


# ---------------------------------------------------------------------------
# happy path: tables, report, formatting
# ---------------------------------------------------------------------------

def test_sweep_small_writes_table_and_report(sweep_run):
    csv_path = Path(f"{sweep_run}_sweep.csv")
    report_path = Path(f"{sweep_run}_report.json")
    assert csv_path.is_file() and report_path.is_file()

    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["artifact"] == "elastoscat"
    assert report["experiment"] == "sweep-small"
    assert report["seed"] == 7
    assert report["config_echo"] == sweep_cfg()
    assert report["tables"] == {"sweep": "sw_sweep.csv"}
    assert report["summary"]["points"] == 4
    assert report["wall_clock_sec"] > 0.0

    header, rows = read_table(csv_path)
    assert header == ["index", "epsilon", "radius", "amp_x", "amp_y",
                      "farfield_norm", "criterion_lhs", "criterion_rhs",
                      "ratio", "regime"]
    assert len(rows) == 4
    # small constant-amplitude disks are loud: criterion flags every one
    for row in rows[:3]:
        assert row["regime"] == "radiating-asserted"
        assert float(row["farfield_norm"]) > 0.0


def test_csv_uses_crlf_and_17_digit_floats(sweep_run):
    data = Path(f"{sweep_run}_sweep.csv").read_bytes()
    assert data.endswith(b"\r\n")
    assert data.count(b"\n") == data.count(b"\r\n")
    # floats are emitted at 17 significant digits so replays round-trip
    text = data.decode("utf-8")
    assert "0.050000000000000003" in text  # %.17g of 0.05
    assert "0.10000000000000001" in text   # %.17g of 0.1


def test_zero_amplitude_point_is_flagged_nonradiating(sweep_run):
    _, rows = read_table(Path(f"{sweep_run}_sweep.csv"))
    row = rows[3]
    assert row["amp_x"] == "0" and row["amp_y"] == "0"
    assert float(row["farfield_norm"]) == 0.0
    assert float(row["ratio"]) == 0.0
    assert row["regime"] == REGIME_NONRADIATING


def test_stdout_prints_report_path_on_success(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "dist.json", dist_cfg())
    prefix = tmp_path / "out" / "d"
    rc = cli.main(["distinguish", "--config", cfg_path, "--out", str(prefix)])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("d_report.json")


def test_distinguish_clears_noise_floor(tmp_path):
    cfg_path = write_cfg(tmp_path, "dist.json", dist_cfg())
    prefix = tmp_path / "out" / "d"
    assert cli.main(["distinguish", "--config", cfg_path,
                     "--out", str(prefix)]) == 0
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    assert report["summary"]["distinct"] is True
    assert report["summary"]["margin"] > 1.0
    header, rows = read_table(Path(f"{prefix}_distinguish.csv"))
    assert header == ["separation", "radius", "diff_norm", "noise", "margin"]
    assert float(rows[0]["diff_norm"]) > 10.0 * float(rows[0]["noise"])


# ---------------------------------------------------------------------------
# invalid configs -> exit 2
# ---------------------------------------------------------------------------

def test_rejects_wrong_schema_version(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "bad.json", sweep_cfg(schema_version=2))
    rc = cli.main(["sweep-small", "--config", cfg_path,
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_rejects_config_for_other_experiment(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "sweep.json", sweep_cfg())
    rc = cli.main(["distinguish", "--config", cfg_path,
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "sweep-small" in capsys.readouterr().err


def test_rejects_missing_config_file(tmp_path, capsys):
    rc = cli.main(["sweep-small", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_rejects_malformed_json(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json", encoding="utf-8")
    rc = cli.main(["sweep-small", "--config", str(cfg_path),
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_rejects_missing_experiment_block(tmp_path, capsys):
    cfg = sweep_cfg()
    del cfg["sweep"]
    cfg_path = write_cfg(tmp_path, "nosweep.json", cfg)
    rc = cli.main(["sweep-small", "--config", cfg_path,
                   "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "'sweep'" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--config", str(tmp_path / "x.json")])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# numerical failures -> exit 3, no stray outputs
# ---------------------------------------------------------------------------

def test_impossible_tolerance_fails_validation_and_writes_nothing(tmp_path,
                                                                  capsys):
    # a 1e-30 tolerance makes the refinement self-check unsatisfiable
    cfg_path = write_cfg(tmp_path, "tight.json", sweep_cfg(tolerance=1e-30))
    prefix = tmp_path / "fail" / "run"
    rc = cli.main(["sweep-small", "--config", cfg_path, "--out", str(prefix)])
    assert rc == 3
    assert "numerical validation failed" in capsys.readouterr().err
    assert not (tmp_path / "fail").exists()


def test_toolkit_errors_map_to_exit_3(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "experiment": "identity-check",
        "medium": dict(MEDIUM),
        "seed": 1,
        # K below the admissible floor for the frequency selection rule
        "caps": {"K_values": [2.0], "L": 3.0, "M": 4.0, "varsigma": 0.9,
                 "cubic": 1.5, "amplitude": [1.0, 0.5], "alpha": 1.0},
    }
    cfg_path = write_cfg(tmp_path, "lowK.json", cfg)
    rc = cli.main(["identity-check", "--config", cfg_path,
                   "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "numerical validation failed" in capsys.readouterr().err


def test_failed_report_write_cleans_partial_csvs(tmp_path):
    cfg_path = write_cfg(tmp_path, "dist.json", dist_cfg())
    prefix = tmp_path / "out" / "d"
    # squat on the report path so the final write blows up after the CSV
    # has already landed; the CSV must be removed again
    (tmp_path / "out").mkdir()
    Path(f"{prefix}_report.json").mkdir()
    with pytest.raises(OSError):
        cli.main(["distinguish", "--config", cfg_path, "--out", str(prefix)])
    assert not Path(f"{prefix}_distinguish.csv").exists()


def test_failed_csv_write_leaves_no_partial_file(tmp_path, monkeypatch):
    cfg_path = write_cfg(tmp_path, "dist.json", dist_cfg())
    prefix = tmp_path / "out" / "d"

    def write_then_fail(path, header, rows):
        Path(path).write_text("separation,rad", encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_csv", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        cli.main(["distinguish", "--config", cfg_path, "--out", str(prefix)])
    assert list((tmp_path / "out").glob("d_*")) == []


# ---------------------------------------------------------------------------
# determinism: workers and seeds
# ---------------------------------------------------------------------------

def test_worker_count_does_not_change_output_bytes(cgo_runs):
    for table in ("probes", "paraboloid"):
        one = Path(f"{cgo_runs['w1']}_{table}.csv").read_bytes()
        six = Path(f"{cgo_runs['w6']}_{table}.csv").read_bytes()
        assert one == six
    rep1 = json.loads(Path(f"{cgo_runs['w1']}_report.json").read_text())
    rep6 = json.loads(Path(f"{cgo_runs['w6']}_report.json").read_text())
    rep1.pop("wall_clock_sec")
    rep6.pop("wall_clock_sec")
    assert rep1 == rep6


def test_seed_flag_overrides_config_seed(cgo_runs):
    report = json.loads(Path(f"{cgo_runs['reseeded']}_report.json").read_text())
    assert report["seed"] == 123
    # Monte Carlo columns move with the master seed ...
    base = Path(f"{cgo_runs['w1']}_paraboloid.csv").read_bytes()
    other = Path(f"{cgo_runs['reseeded']}_paraboloid.csv").read_bytes()
    assert base != other
    # ... while the deterministic probe table does not
    assert (Path(f"{cgo_runs['w1']}_probes.csv").read_bytes()
            == Path(f"{cgo_runs['reseeded']}_probes.csv").read_bytes())


def test_cgo_verify_probe_errors_are_tiny(cgo_runs):
    _, rows = read_table(Path(f"{cgo_runs['w1']}_probes.csv"))
    assert len(rows) == 4
    for row in rows:
        assert float(row["xi_xi_err"]) < 1e-10
        assert float(row["xi_eta_err"]) < 1e-10
        assert float(row["residual"]) < 1e-3


# ---------------------------------------------------------------------------
# remaining experiments, one end-to-end run each
# ---------------------------------------------------------------------------

def test_identity_check_table(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "identity-check",
        "medium": dict(MEDIUM),
        "seed": 1,
        "caps": {"K_values": [10, 30], "L": 3.0, "M": 4.0, "varsigma": 0.9,
                 "cubic": 1.5, "amplitude": [1.0, 0.5],
                 "linear": [[0.3, -0.2], [0.1, 0.4]],
                 "alpha": 1.0, "node_budget": 1000000},
        "tolerance": 0.01,
    }
    cfg_path = write_cfg(tmp_path, "ident.json", cfg)
    prefix = tmp_path / "out" / "id"
    assert cli.main(["identity-check", "--config", cfg_path,
                     "--out", str(prefix)]) == 0
    header, rows = read_table(Path(f"{prefix}_identity.csv"))
    assert header[:3] == ["K", "zeta", "tau"]
    assert len(rows) == 2
    for row in rows:
        assert float(row["residual_rel"]) < 0.01
        assert 0 < int(row["nodes_used"]) <= 1000000
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    assert report["summary"]["worst_residual_rel"] < 0.01


def test_kpoint_decay_calibrations(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "kpoint-decay",
        "medium": dict(MEDIUM),
        "seed": 1,
        "caps": {"K_values": [10, 30], "zeta_values": [0.5],
                 "L": 3.0, "M": 4.0, "varsigma": 0.9, "cubic": 1.5,
                 "amplitude": [1.0, 0.5], "alpha": 1.0, "beta": 1.0,
                 "node_budget": 500000},
    }
    cfg_path = write_cfg(tmp_path, "kpt.json", cfg)
    prefix = tmp_path / "out" / "kp"
    assert cli.main(["kpoint-decay", "--config", cfg_path,
                     "--out", str(prefix)]) == 0
    _, rows = read_table(Path(f"{prefix}_decay.csv"))
    assert len(rows) == 2
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    for term in ("i2", "i3", "i4"):
        calib = report["summary"][term]
        assert calib["fit_method"] == "max-ratio"
        assert calib["violations"] == 0
        assert calib["constant_fit"] > 0.0


def test_medium_demo_table(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "medium-demo",
        "medium": dict(MEDIUM),
        "seed": 1,
        "scatterer": {"radius": 0.45, "v0_values": [0.05, 0.3],
                      "h": 0.04, "s": 1.0,
                      "incident": {"kind": "pressure-plane",
                                   "direction": [1, 0]}},
        "tolerance": 0.01,
    }
    cfg_path = write_cfg(tmp_path, "med.json", cfg)
    prefix = tmp_path / "out" / "md"
    assert cli.main(["medium-demo", "--config", cfg_path,
                     "--out", str(prefix)]) == 0
    _, rows = read_table(Path(f"{prefix}_medium.csv"))
    assert len(rows) == 2
    for row in rows:
        assert row["out_of_regime"] == "false"
        # the two solver modes agree once the series converges
        assert float(row["mode_gap"]) < 1e-6
        assert 0.0 <= float(row["contraction"]) < 1.0
        assert float(row["ratio_total"]) > 0.0
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    assert "contraction_scale" in report["summary"]
    assert report["summary"]["lattice_residual_max"] < 0.01


def _medium_cfg(**over):
    cfg = {
        "schema_version": 1,
        "experiment": "medium-demo",
        "medium": dict(MEDIUM),
        "seed": 1,
        "scatterer": {"radius": 0.45, "v0_values": [0.2], "h": 0.05, "s": 1.0},
        "tolerance": 0.01,
    }
    cfg.update(over)
    return cfg


def test_medium_demo_solves_each_contrast_once_per_mode(tmp_path, monkeypatch):
    modes = []
    solve_medium = cli.solve_medium

    def counted(*args, **kwargs):
        modes.append(kwargs["mode"])
        return solve_medium(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_medium", counted)
    cfg_path = write_cfg(tmp_path, "med.json", _medium_cfg())
    prefix = tmp_path / "out" / "md"
    assert cli.main(["medium-demo", "--config", cfg_path,
                     "--out", str(prefix)]) == 0
    # the PDE self-check reads the first point's own direct solve
    assert modes == ["direct-dense", "neumann-series"]
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    assert report["summary"]["lattice_residual_max"] < 0.01


def test_medium_demo_failed_self_check_writes_nothing(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "tight.json", _medium_cfg(tolerance=1e-30))
    prefix = tmp_path / "fail" / "md"
    rc = cli.main(["medium-demo", "--config", cfg_path, "--out", str(prefix)])
    assert rc == 3
    assert "lattice residual" in capsys.readouterr().err
    assert not (tmp_path / "fail").exists()


def test_nonradiating_audit_nullity(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "nonradiating-audit",
        "medium": dict(MEDIUM),
        "seed": 3,
        "family": [
            {"kind": "disk", "radius": 0.3, "amplitude": [1, 0]},
            {"kind": "disk", "radius": 0.5, "amplitude": [0.5, 1.0],
             "linear": [[0.3, -0.2], [0.1, 0.4]]},
            {"kind": "ellipse", "a": 0.4, "b": 0.25, "amplitude": [1, 0.5]},
        ],
        "criterion": {"delta": 1.0},
        "mesh": {"n_radial": 32, "n_angular": 64},
        "directions": 96,
        "tolerance": 1e-8,
    }
    cfg_path = write_cfg(tmp_path, "audit.json", cfg)
    prefix = tmp_path / "out" / "au"
    assert cli.main(["nonradiating-audit", "--config", cfg_path,
                     "--out", str(prefix)]) == 0
    _, rows = read_table(Path(f"{prefix}_audit.csv"))
    assert [row["kind"] for row in rows] == ["disk", "disk", "ellipse"]
    for row in rows:
        assert float(row["nullity"]) < 1e-8
        assert float(row["diameter"]) >= float(row["diameter_bound"])
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    assert report["summary"]["diameter_violations"] == 0


def test_module_entry_point_help(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "elastoscat.cli", "--help"],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0
    for name in cli.EXPERIMENTS:
        assert name in proc.stdout
