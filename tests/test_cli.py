"""End-to-end checks of the command-line front end.

Every test drives ``cli.main`` in process with configs written under a
temporary directory, so the suite exercises the same argument parsing,
schema validation, exit codes, and CSV/JSON writers as the installed
``elastoscat`` entry point.
"""
import ast
import copy
import csv
import dataclasses
import importlib.util
import inspect
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator, validators
from jsonschema.exceptions import best_match

import elastoscat
from elastoscat import cli, scattering
from elastoscat.bounds import REGIME_NONRADIATING

ROOT = Path(__file__).resolve().parents[1]

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


def self_checks(prefix):
    """The run's ``self_checks`` from its report, by check name."""
    report = json.loads(Path(f"{prefix}_report.json").read_text(encoding="utf-8"))
    return {check["name"]: check for check in report["self_checks"]}


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


def kpoint_cfg():
    return {
        "schema_version": 1,
        "experiment": "kpoint-decay",
        "medium": dict(MEDIUM),
        "seed": 1,
        "caps": {"K_values": [10, 30], "zeta_values": [0.5],
                 "L": 3.0, "M": 4.0, "varsigma": 0.9, "cubic": 1.5,
                 "amplitude": [1.0, 0.5], "alpha": 1.0, "beta": 1.0,
                 "node_budget": 500000},
    }


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


def test_report_records_the_config_with_defaults(sweep_run):
    report = json.loads(Path(f"{sweep_run}_report.json").read_text())
    effective = report["config_effective"]
    assert {k: effective[k] for k in sweep_cfg()} == sweep_cfg()
    assert effective["tolerance"] == 1e-6
    assert effective["output"] == "out/sweep-small"


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


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_distinguish_null_sources_are_not_distinct(tmp_path):
    cfg = dist_cfg()
    cfg["pair"]["amplitude"] = [0, 0]
    prefix = tmp_path / "out" / "d"
    assert cli.main(["distinguish", "--config", write_cfg(tmp_path, "dist.json", cfg),
                     "--out", str(prefix)]) == 0
    report = json.loads(Path(f"{prefix}_report.json").read_text(),
                        parse_constant=_strict_constant)
    assert report["summary"]["margin"] == 0.0
    assert report["summary"]["distinct"] is False
    _, rows = read_table(Path(f"{prefix}_distinguish.csv"))
    assert [float(rows[0][k]) for k in ("diff_norm", "noise", "margin")] == [0.0] * 3


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


def tiny_sweep_cfg():
    """A sweep-small config that runs in a few milliseconds."""
    return sweep_cfg(sweep={"epsilons": [0.1, 0.2], "amplitudes": [[1, 0], [0, 1]]},
                     mesh={"n_radial": 8, "n_angular": 16}, directions=16)


def nonradiating_cfg():
    return {"schema_version": 1, "experiment": "nonradiating-audit",
            "medium": dict(MEDIUM), "seed": 3,
            "family": [{"kind": "disk", "radius": 0.3},
                       {"kind": "ellipse", "a": 0.4, "b": 0.25}]}


def edit(cfg, path, value):
    """``cfg`` with the value at ``path`` (a list of keys) replaced."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


# (config, path to the bad value, the JSON path the message must name)
EXIT_2_CASES = {
    "epsilon-not-a-number": (sweep_cfg, ["sweep", "epsilons"],
                             ["abc", 0.1, 0.2, 0.1], "sweep/epsilons/0"),
    "one-element-amplitude": (sweep_cfg, ["sweep", "amplitudes"],
                              [[1], [1, 0], [1, 0], [0, 0]], "sweep/amplitudes/0"),
    "zero-n_radial": (sweep_cfg, ["mesh", "n_radial"], 0, "mesh/n_radial"),
    "directions-not-a-count": (sweep_cfg, ["directions"], "many", "directions"),
    "cgo-angles-a-string": (cgo_cfg, ["probes", "angles"], "ab", "probes/angles"),
    "contrast-not-a-number": (_medium_cfg, ["scatterer", "v0_values"], ["x"],
                              "scatterer/v0_values/0"),
    "three-component-amplitude": (dist_cfg, ["pair", "amplitude"], [1, 0, 0],
                                  "pair/amplitude"),
    "non-convex-medium": (sweep_cfg, ["medium", "lam"], -5, "medium"),
    "three-dimensional-medium": (sweep_cfg, ["medium", "dim"], 3, "medium/dim"),
    "negative-epsilon": (sweep_cfg, ["sweep", "epsilons"], [-0.05, 0.1, 0.2, 0.1],
                         "sweep/epsilons/0"),
    # a subnormal epsilon ran to an infinite ratio (1e-310) or a zero radius
    # (5e-324); the schema's positive bound lets both through to the runner
    **{f"subnormal-epsilon-{value}": (tiny_sweep_cfg, ["sweep", "epsilons", 1], value,
                                      "sweep/epsilons/1") for value in (1e-310, 5e-324)},
    # a tiny normal epsilon left the quadrature self-check's Gauss mesh with
    # weights and spacing 0, and its resolution check divided by zero
    **{f"tiny-epsilon-{value}": (tiny_sweep_cfg, ["sweep", "epsilons", 0], value,
                                 "sweep/epsilons/0") for value in (1e-300, 1e-307)},
    "holder-exponent-above-one": (sweep_cfg, ["criterion", "delta"], 2,
                                  "criterion/delta"),
    "paraboloid-dimension-4": (cgo_cfg, ["paraboloid", "dims"], [4],
                               "paraboloid/dims/0"),
    "zero-lattice-spacing": (_medium_cfg, ["scatterer", "h"], 0, "scatterer/h"),
    "misspelt-key": (sweep_cfg, ["mesh"], {"n_radail": 24, "n_angular": 48},
                     "'n_radail' was unexpected"),
    "K_values-a-string": (cgo_cfg, ["paraboloid", "K_values"], "10",
                          "paraboloid/K_values"),
    "unknown-incident-kind": (_medium_cfg, ["scatterer", "incident"],
                              {"kind": "spherical", "direction": [1, 0]},
                              "scatterer/incident/kind"),
    "ellipse-without-b": (nonradiating_cfg, ["family", 1],
                          {"kind": "ellipse", "a": 0.4}, "family/1"),
    # json.dumps writes NaN and Infinity, which Python's json reads back
    "tolerance-NaN": (_medium_cfg, ["tolerance"], float("nan"), "NaN"),
    "lattice-spacing-Infinity": (_medium_cfg, ["scatterer", "h"], float("inf"),
                                 "Infinity"),
    "non-unit-incident-direction": (_medium_cfg, ["scatterer", "incident"],
                                    {"kind": "pressure-plane", "direction": [2, 0]},
                                    "scatterer/incident"),
    "point-source-inside-scatterer": (_medium_cfg, ["scatterer", "incident"],
                                      {"kind": "point-source", "origin": [0.1, 0.0]},
                                      "scatterer/incident/origin"),
}


@pytest.mark.parametrize("case", list(EXIT_2_CASES))
def test_config_defects_exit_2(tmp_path, capsys, case):
    make, path, value, where = EXIT_2_CASES[case]
    cfg = edit(make(), path, value)
    cfg_path = write_cfg(tmp_path, "bad.json", cfg)
    rc = cli.main([cfg["experiment"], "--config", cfg_path,
                   "--out", str(tmp_path / "out" / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and where in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Python's json reads a number past the float range, such as 1e400, as inf
@pytest.mark.parametrize("number", ["1e400", "-1e400"])
@pytest.mark.parametrize("path", [["tolerance"], ["sweep", "epsilons", 1]],
                         ids=["tolerance", "array-entry"])
def test_numbers_that_overflow_exit_2(tmp_path, capsys, path, number):
    text = json.dumps(edit(tiny_sweep_cfg(), path, "overflow"))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text.replace('"overflow"', number), encoding="utf-8")
    rc = cli.main(["sweep-small", "--config", str(cfg_path),
                   "--out", str(tmp_path / "out" / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and f"non-finite number {number}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_finite_numbers_read_as_without_the_overflow_hook(tmp_path, monkeypatch):
    cfg = edit(dict(tiny_sweep_cfg(), tolerance=1e-3), ["sweep", "epsilons"],
               [0.1, 0.30000000000000004])
    path = write_cfg(tmp_path, "cfg.json", cfg)
    hooked = cli.load_config(path, "sweep-small")
    monkeypatch.setattr(cli, "_finite_float", float)
    assert json.dumps(hooked) == json.dumps(cli.load_config(path, "sweep-small"))
    assert hooked[0] == cfg
    # and a run writes the same config_effective
    prefix = tmp_path / "out" / "sw"
    assert cli.main(["sweep-small", "--config", path, "--out", str(prefix)]) == 0
    report = json.loads(Path(f"{prefix}_report.json").read_text(encoding="utf-8"))
    assert json.dumps(report["config_effective"], sort_keys=True) \
        == json.dumps(hooked[1], sort_keys=True)


def test_integral_float_counts_are_accepted(tmp_path):
    # JSON Schema's "integer" admits 8.0; the runners cast before numpy
    csvs = []
    for tag, n_radial in (("int", 8), ("float", 8.0)):
        cfg_path = write_cfg(tmp_path, f"{tag}.json",
                             edit(tiny_sweep_cfg(), ["mesh", "n_radial"], n_radial))
        prefix = tmp_path / tag / "sw"
        assert cli.main(["sweep-small", "--config", cfg_path,
                         "--out", str(prefix)]) == 0
        csvs.append(Path(f"{prefix}_sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


def _value_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _value_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _value_paths(value, path + (i,))
    if path:
        yield path


# st.builds, not st.just: a config read from JSON never shares one {} or []
# between two keys, and a shared one would take the defaults filled into both
_WRONG_VALUES = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(), st.builds(dict), st.builds(list),
    st.integers(-3, 3), st.floats(-10.0, 10.0),
    st.lists(st.integers(-2, 2), max_size=3))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_bad_value_never_escapes_as_a_crash(data):
    cfg = tiny_sweep_cfg()
    path = data.draw(st.sampled_from(list(_value_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        # misspell the key instead of changing its value
        parent[path[-1] + data.draw(st.sampled_from(["s", "_", "x"]))] = \
            parent.pop(path[-1])
    else:
        parent[path[-1]] = data.draw(_WRONG_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_cfg(tmp, "cfg.json", cfg)
        rc = cli.main(["sweep-small", "--config", cfg_path,
                       "--out", str(Path(tmp) / "out" / "x")])
    assert rc in (0, 2, 3)


def test_config_schemas_are_valid_and_cover_every_experiment():
    assert set(cli.CONFIG_SCHEMAS) == set(cli.EXPERIMENTS) == set(cli.RUNNERS)
    for schema in cli.CONFIG_SCHEMAS.values():
        # the CLI never checks its schemas against the metaschema itself
        Draft202012Validator.check_schema(schema)


def test_cgo_samples_minimum_follows_the_batch_count():
    # a schema-valid sample count must never fail the Monte Carlo's own
    # check (exit 3 instead of 2)
    cgo = elastoscat.cgo
    least = cli.CONFIG_SCHEMAS["cgo-verify"]["properties"]["paraboloid"][
        "properties"]["samples"]["minimum"]
    assert least == 2 * cgo._MC_BATCHES
    xi = [1j * 4.0, -4.0]
    cgo.paraboloid_integral_mc(xi, 1.0, 2, samples=least)
    with pytest.raises(elastoscat.errors.InvalidParameter):
        cgo.paraboloid_integral_mc(xi, 1.0, 2, samples=least - 1)


def test_readme_sweep_example_is_a_valid_config(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"\(`sweep\.json`\):\s*```json\n(.*?)```", readme, re.S)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(example.group(1), encoding="utf-8")
    as_read, _ = cli.load_config(str(cfg_path), "sweep-small")
    assert as_read["experiment"] == "sweep-small"


def test_load_config_fills_defaults_in_a_copy(tmp_path):
    minimal = {"schema_version": 1, "experiment": "distinguish",
               "medium": dict(MEDIUM)}
    cfg_path = write_cfg(tmp_path, "min.json", minimal)
    as_read, effective = cli.load_config(cfg_path, "distinguish")
    assert as_read == minimal
    assert effective == {**minimal, "seed": 0, "output": "out/distinguish",
                         "pair": {"radius_scale": 0.05, "separation_scale": 3.0,
                                  "amplitude": [1.0, 0.0]},
                         "mesh": {"n_radial": 32, "n_angular": 64},
                         "directions": 256}
    # the defaults handed out are copies, never the schema's own values
    effective["pair"]["amplitude"].append(5.0)
    assert cli.load_config(cfg_path, "distinguish")[1]["pair"]["amplitude"] == [1.0, 0.0]


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_configs_load(tmp_path):
    workloads = _benchmark_workloads()
    configs = [cfg for name in workloads.WORKLOADS
               for cfg in workloads.covering_configs(name)]
    configs += [cfg for name in workloads.WORKLOADS for seed in range(501, 511)
                for cfg in workloads.generate(name, seed)]
    for i, cfg in enumerate(configs):
        cli.load_config(write_cfg(tmp_path, f"{i}.json", cfg), cfg["experiment"])


def test_benchmark_traced_functions_exist(monkeypatch):
    # the benchmark's tracer reports a function it cannot find, or a counter
    # whose arguments no longer bind, as absent rather than failing
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)   # for its dataclass
    spec.loader.exec_module(tracer)
    reads = set()
    for qual, counters in tracer.COUNTERS.items():
        mod_name, fn_name = qual.split(".")
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        fn = getattr(module, fn_name, None)
        assert callable(fn), qual
        # an argument a counter subscripts is still a parameter of its function
        # (``a.get`` reads, such as the Hoelder pair budget, may be absent)
        params = set(inspect.signature(fn).parameters)
        for name, count in counters.items():
            read = set(re.findall(r'\ba\["(\w+)"\]', inspect.getsource(count)))
            assert read <= params, (qual, name, read - params)
            reads |= read
    assert reads == {"diffs", "ys", "mesh", "samples", "fld", "path"}
    corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    fld = elastoscat.SampledVectorField(corners, corners)
    bound = inspect.signature(elastoscat.holder_seminorm).bind(fld, 1.0)
    bound.apply_defaults()
    result = elastoscat.holder_seminorm(fld, 1.0)
    counters = tracer.COUNTERS["elastic.holder_seminorm"]
    assert {name: count(bound.arguments, result) for name, count in counters.items()} \
        == {"pairs": 3, "all_pairs": 3}


def test_unknown_subcommand_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--config", str(tmp_path / "x.json")])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# numerical failures -> exit 3, no stray outputs
# ---------------------------------------------------------------------------

def test_impossible_tolerance_fails_validation_and_writes_nothing(tmp_path,
                                                                  capsys):
    # on a 2x4 Gauss mesh the quadrature misses the closed-form far field by
    # about 1.5e-10 relative (a converged mesh leaves only round-off), so a
    # 1e-30 tolerance makes the quadrature self-check fail for a real reason
    mesh = {"n_radial": 2, "n_angular": 4}
    cfg_path = write_cfg(tmp_path, "tight.json",
                         sweep_cfg(tolerance=1e-30, mesh=mesh))
    prefix = tmp_path / "fail" / "run"
    rc = cli.main(["sweep-small", "--config", cfg_path, "--out", str(prefix)])
    assert rc == 3
    assert "numerical validation failed" in capsys.readouterr().err
    assert not (tmp_path / "fail").exists()
    # the same config passes at a reachable tolerance
    cfg_path = write_cfg(tmp_path, "loose.json",
                         sweep_cfg(tolerance=1e-6, mesh=mesh))
    rc = cli.main(["sweep-small", "--config", cfg_path,
                   "--out", str(tmp_path / "ok" / "run")])
    assert rc == 0


def test_wrong_closed_form_fails_the_quadrature_check(tmp_path, monkeypatch,
                                                      capsys):
    real = cli.farfield_of_disk

    def off(*args, **kwargs):
        ff = real(*args, **kwargs)
        return elastoscat.FarFieldPattern(ff.directions, ff.up_inf * (1.0 + 1e-5),
                                          ff.us_inf * (1.0 + 1e-5))

    monkeypatch.setattr(cli, "farfield_of_disk", off)
    cfg_path = write_cfg(tmp_path, "sweep.json", tiny_sweep_cfg())
    rc = cli.main(["sweep-small", "--config", cfg_path,
                   "--out", str(tmp_path / "fail" / "run")])
    assert rc == 3
    assert "quadrature misses the closed form" in capsys.readouterr().err
    assert not (tmp_path / "fail").exists()


def test_disk_beyond_the_closed_form_budget_exits_3(tmp_path, capsys):
    # schema-valid: epsilons have no upper bound, and only the first
    # radiating row meets the quadrature check
    cfg = tiny_sweep_cfg()
    cfg["sweep"]["epsilons"][1] = 1e7
    rc = cli.main(["sweep-small", "--config", write_cfg(tmp_path, "huge.json", cfg),
                   "--out", str(tmp_path / "fail" / "run")])
    assert rc == 3
    assert "QuadratureBudgetExceeded" in capsys.readouterr().err
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
# determinism: seeds
# ---------------------------------------------------------------------------

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


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "cgo.json", cgo_cfg())
    rc = cli.main(["cgo-verify", "--config", cfg_path, "--seed", "-1",
                   "--out", str(tmp_path / "out" / "c")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cgo.json"]


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
    checks = self_checks(prefix)
    assert checks["identity residual exceeds tolerance"]["value"] < 0.01
    # the refinement self-check's two values, row 0 at refine 1 and 2
    row0 = checks["row 0 residual exceeds 1.5 times its refined value"]
    assert row0["value"] == float(rows[0]["residual_rel"])
    assert 0.0 < row0["reference"] < 1e-12


def test_under_resolved_panel_rule_fails_the_refinement_check(tmp_path, monkeypatch,
                                                              capsys):
    # 6-point panels leave a residual of 2.4e-7 at K = 10, well inside the
    # 1e-2 tolerance; the refined audit of that cap reaches 1.9e-12
    monkeypatch.setattr(cli.cgo, "_PANEL_POINTS", 6)
    cfg_path = write_cfg(tmp_path, "ident.json", _identity_cfg())
    rc = cli.main(["identity-check", "--config", cfg_path,
                   "--out", str(tmp_path / "fail" / "run")])
    assert rc == 3
    assert "exceeds 1.5 times its refined value" in capsys.readouterr().err
    assert not (tmp_path / "fail").exists()


def test_kpoint_decay_calibrations(tmp_path):
    cfg_path = write_cfg(tmp_path, "kpt.json", kpoint_cfg())
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
    assert self_checks(prefix)["lattice residual exceeds tolerance"]["value"] < 0.01


def test_medium_demo_solves_each_contrast_once_per_mode(tmp_path, monkeypatch):
    sweeps = []
    sweep = cli.solve_medium_sweep

    def counted(scatterer, amplitudes, incident, mesh, mode, **kwargs):
        sweeps.append((mode, list(amplitudes)))
        return sweep(scatterer, amplitudes, incident, mesh, mode, **kwargs)

    monkeypatch.setattr(cli, "solve_medium_sweep", counted)
    cfg = _medium_cfg()
    cfg["scatterer"]["v0_values"] = MIXED_REGIME_V0
    cfg_path = write_cfg(tmp_path, "med.json", cfg)
    prefix = tmp_path / "out" / "md"
    assert cli.main(["medium-demo", "--config", cfg_path,
                     "--out", str(prefix)]) == 0
    # one direct sweep over every contrast, one Neumann sweep over the
    # in-regime ones; the PDE self-check reads the first direct solve
    assert sweeps == [("direct-dense", [0.2, 0.8, 0.05]),
                      ("neumann-series", [0.2, 0.05])]
    assert self_checks(prefix)["lattice residual exceeds tolerance"]["value"] < 0.01


# v0 = 0.8 on disk(0.45) with omega = 2 and s = 1 is out of regime:
# diameter * omega * v_sup = 1.8 * 0.7989 > 1
MIXED_REGIME_V0 = [0.2, 0.8, 0.05]


def test_medium_demo_builds_one_operator_and_estimates_only_reported_rows(
        tmp_path, monkeypatch):
    from elastoscat import scattering

    built, estimates = [], []
    init, estimate = scattering.LatticeOperator.__init__, scattering._norm_estimate

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_estimate(*args, **kwargs):
        estimates.append(1)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(scattering.LatticeOperator, "__init__", counted_init)
    monkeypatch.setattr(scattering, "_norm_estimate", counted_estimate)
    cfg = _medium_cfg()
    cfg["scatterer"]["v0_values"] = MIXED_REGIME_V0
    prefix = tmp_path / "out" / "md"
    assert cli.main(["medium-demo", "--config", write_cfg(tmp_path, "m.json", cfg),
                     "--workers", "1", "--out", str(prefix)]) == 0
    _, rows = read_table(Path(f"{prefix}_medium.csv"))
    assert [r["out_of_regime"] for r in rows] == ["false", "true", "false"]
    assert built == [1]
    # the power iteration runs for the out-of-regime row only
    assert estimates == [1]
    # pinned before the operator was shared and the estimate made lazy
    assert rows[1]["contraction"] == "0.14539574550951292"
    assert rows[1]["series_terms"] == "1"
    assert rows[1]["mode_gap"] == "nan"


POINT_SOURCE = {"kind": "point-source", "origin": [1.0, 0.0]}


def test_medium_demo_evaluates_the_incident_and_builds_the_phases_once(
        tmp_path, monkeypatch):
    from elastoscat import scattering, source

    evaluated, built = [], []
    call, phase_matrix = scattering.IncidentWave.__call__, source._phase_matrix

    def counted_call(self, pts):
        evaluated.append(1)
        return call(self, pts)

    def counted_phases(kappa, *args):
        built.append(kappa)
        return phase_matrix(kappa, *args)

    monkeypatch.setattr(scattering.IncidentWave, "__call__", counted_call)
    monkeypatch.setattr(source, "_phase_matrix", counted_phases)
    cfg = _medium_cfg()
    cfg["scatterer"].update(v0_values=MIXED_REGIME_V0, incident=POINT_SOURCE)
    prefix = tmp_path / "out" / "md"
    assert cli.main(["medium-demo", "--config", write_cfg(tmp_path, "m.json", cfg),
                     "--workers", "1", "--out", str(prefix)]) == 0
    _, rows = read_table(Path(f"{prefix}_medium.csv"))
    assert len(rows) == len(MIXED_REGIME_V0)
    # five solves and three far fields, one point-source evaluation and one
    # block of phases (64 directions on 256 nodes), its kappa_p and kappa_s
    # matrices
    assert evaluated == [1]
    med = cli._medium_from(cfg)
    assert built == [med.kappa_p, med.kappa_s]


def test_medium_demo_radiates_the_direct_solves_only(tmp_path, monkeypatch):
    from elastoscat import scattering

    calls = []
    real = scattering._patterns

    def counted(medium, mesh, dirs, intensities):
        calls.append(len(intensities))
        return real(medium, mesh, dirs, intensities)

    monkeypatch.setattr(scattering, "_patterns", counted)
    cfg = _medium_cfg()
    cfg["scatterer"]["v0_values"] = MIXED_REGIME_V0
    assert cli.main(["medium-demo", "--config", write_cfg(tmp_path, "m.json", cfg),
                     "--workers", "1", "--out", str(tmp_path / "out" / "md")]) == 0
    # one pass radiates the three direct solves; the Neumann sweep of the
    # two in-regime rows radiates nothing
    assert calls == [len(MIXED_REGIME_V0)]


def test_medium_demo_masks_the_v_sup_draw_once(tmp_path, monkeypatch):
    from elastoscat import scattering

    masked = []
    sample = scattering._v_sup_sample

    def counted(domain):
        masked.append(1)
        return sample(domain)

    # the runner's own mask is the only one; a scatterer masking for itself
    # would call the module's
    monkeypatch.setattr(cli, "_v_sup_sample", counted)
    monkeypatch.setattr(scattering, "_v_sup_sample", None)
    cfg = _medium_cfg()
    cfg["scatterer"]["v0_values"] = MIXED_REGIME_V0
    prefix = tmp_path / "out" / "md"
    assert cli.main(["medium-demo", "--config", write_cfg(tmp_path, "m.json", cfg),
                     "--workers", "1", "--out", str(prefix)]) == 0
    assert masked == [1]
    # pinned before the mask was shared
    _, rows = read_table(Path(f"{prefix}_medium.csv"))
    assert [r["v_sup"] for r in rows] == ["0.1997264747751423", "0.79890589910056919",
                                          "0.049931618693785575"]


def test_medium_demo_failed_self_check_writes_nothing(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "tight.json", _medium_cfg(tolerance=1e-30))
    prefix = tmp_path / "fail" / "md"
    rc = cli.main(["medium-demo", "--config", cfg_path, "--out", str(prefix)])
    assert rc == 3
    assert "lattice residual" in capsys.readouterr().err
    assert not (tmp_path / "fail").exists()


@pytest.fixture(scope="module")
def audit_runs(tmp_path_factory):
    """One nonradiating-audit config on a 32x64 mesh run with two seeds."""
    root = tmp_path_factory.mktemp("cli-audit")
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
    cfg_path = write_cfg(root, "audit.json", cfg)
    prefixes = []
    for seed in ("1", "2"):
        prefix = root / f"seed{seed}" / "au"
        assert cli.main(["nonradiating-audit", "--config", cfg_path,
                         "--out", str(prefix), "--seed", seed]) == 0
        prefixes.append(prefix)
    return prefixes


def test_nonradiating_audit_nullity(audit_runs):
    prefix = audit_runs[0]
    _, rows = read_table(Path(f"{prefix}_audit.csv"))
    assert [row["kind"] for row in rows] == ["disk", "disk", "ellipse"]
    for row in rows:
        assert float(row["nullity"]) < 1e-8
        assert float(row["diameter"]) >= float(row["diameter_bound"])
    report = json.loads(Path(f"{prefix}_report.json").read_text())
    assert report["summary"]["diameter_violations"] == 0


def test_nonradiating_audit_does_not_depend_on_the_seed(audit_runs):
    # the Holder seminorm is exact over all 2,096,128 node pairs
    one, two = (Path(f"{prefix}_audit.csv").read_bytes() for prefix in audit_runs)
    assert one == two


def _identity_cfg():
    return {"schema_version": 1, "experiment": "identity-check",
            "medium": dict(MEDIUM), "seed": 1,
            "caps": {"K_values": [10, 30], "node_budget": 100000}}


# (config, and the calls each counted function must see for it): every
# self-check reads the first row instead of computing it again
CALL_COUNTS = {
    "nonradiating-audit": (
        lambda: dict(nonradiating_cfg(), mesh={"n_radial": 16, "n_angular": 32}),
        lambda cfg: {"make_nonradiating": len(cfg["family"]) + 1,
                     "holder_seminorm": len(cfg["family"])}),
    "sweep-small": (
        tiny_sweep_cfg,
        lambda cfg: {"farfield_of_disk": sum(1 for amp in cfg["sweep"]["amplitudes"]
                                             if any(amp)),
                     "farfield_of_source": 1}),
    "identity-check": (
        _identity_cfg,
        lambda cfg: {"integral_identity_check": len(cfg["caps"]["K_values"]) + 1}),
    "cgo-verify": (
        cgo_cfg,
        lambda cfg: {"make_cgo": len(cfg["probes"]["tau_ratios"])
                     * len(cfg["probes"]["angles"])}),
}


@pytest.mark.parametrize("case", list(CALL_COUNTS))
def test_self_checks_reuse_the_first_row(tmp_path, monkeypatch, case):
    make, expect = CALL_COUNTS[case]
    cfg = make()
    expected = expect(cfg)
    calls = dict.fromkeys(expected, 0)
    for name in expected:
        owner = cli if hasattr(cli, name) else cli.cgo

        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    cfg_path = write_cfg(tmp_path, "cfg.json", cfg)
    assert cli.main([case, "--config", cfg_path,
                     "--out", str(tmp_path / "out" / "x")]) == 0
    assert calls == expected


def _scaled(owner, name, factor):
    """A defect: ``owner.name`` returns ``factor`` times its true value."""
    def inject(monkeypatch):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: factor * real(*args))
    return inject


def _closed_form_off(monkeypatch):
    real = cli.farfield_of_disk

    def off(*args):
        ff = real(*args)
        return elastoscat.FarFieldPattern(ff.directions, ff.up_inf * (1.0 + 1e-5),
                                          ff.us_inf * (1.0 + 1e-5))

    monkeypatch.setattr(cli, "farfield_of_disk", off)


def _coarse_nullity_mesh(refined):
    """A defect: the configured (or the refined) nullity mesh is a 2x4 Gauss
    mesh, on which the far field of a null source reads 2.1e-3."""
    def inject(monkeypatch):
        real = cli._gauss
        monkeypatch.setattr(cli, "_gauss", lambda dom, cfg, fine=False: (
            cli.gauss_mesh(dom, n_radial=2, n_angular=4) if fine == refined
            else real(dom, cfg, fine)))
    return inject


def _probe_off(monkeypatch):
    # xi off by 1e-3: the first probe's residual goes from 4.0e-4 to 4.7e-4
    # when refined; a 1e-4 error still halves it
    real = cli.cgo.make_cgo

    def off(*args):
        probe = real(*args)
        return dataclasses.replace(probe, xi=probe.xi * (1.0 + 1e-3))

    monkeypatch.setattr(cli.cgo, "make_cgo", off)


def _six_point_panels(monkeypatch):
    monkeypatch.setattr(cli.cgo, "_PANEL_POINTS", 6)


# (check name, experiment): (config, a defect that fails that check alone)
DEFECTS = {
    ("quadrature misses the closed form", "sweep-small"): (tiny_sweep_cfg, _closed_form_off),
    ("configured nullity exceeds tolerance", "nonradiating-audit"): (
        nonradiating_cfg, _coarse_nullity_mesh(False)),
    ("refined nullity exceeds tolerance", "nonradiating-audit"): (
        nonradiating_cfg, _coarse_nullity_mesh(True)),
    ("probe residual does not halve when refined", "cgo-verify"): (cgo_cfg, _probe_off),
    # a closed form 2 % off gives residual_rel 0.0196 at refine 1 and 2 alike
    ("identity residual exceeds tolerance", "identity-check"): (
        _identity_cfg, _scaled(cli.cgo, "paraboloid_integral_closed", 1.02)),
    ("row 0 residual exceeds 1.5 times its refined value", "identity-check"): (
        _identity_cfg, _six_point_panels),
    ("row 0 residual exceeds 1.5 times its refined value", "kpoint-decay"): (
        kpoint_cfg, _six_point_panels),
    # without the singular cell the residual is 0.021 (1.9e-3 with it)
    ("lattice residual exceeds tolerance", "medium-demo"): (
        _medium_cfg, _scaled(scattering, "singular_cell_integral", 0.0)),
}
# a check's first row is known by its name, a later one by its experiment too
DEFECT_IDS = []
for _name, _experiment in DEFECTS:
    DEFECT_IDS.append(f"{_name} ({_experiment})" if _name in DEFECT_IDS else _name)
CHECK_NAMES = list(dict.fromkeys(name for name, _ in DEFECTS))


@pytest.mark.parametrize("name, experiment", list(DEFECTS), ids=DEFECT_IDS)
def test_each_self_check_fails_its_defect_alone(tmp_path, monkeypatch, capsys, name,
                                                experiment):
    make, inject = DEFECTS[name, experiment]
    cfg_path = write_cfg(tmp_path, "cfg.json", make())
    inject(monkeypatch)
    rc = cli.main([experiment, "--config", cfg_path, "--out", str(tmp_path / "fail" / "x")])
    assert rc == 3
    err = capsys.readouterr().err
    assert [check for check in CHECK_NAMES if check in err] == [name], err
    assert not (tmp_path / "fail").exists()


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    seen = []
    execute = cli._execute

    def record(experiment, as_read, cfg, out_prefix, seed):
        seen.append((experiment, out_prefix, seed))
        return execute(experiment, as_read, cfg, out_prefix, seed)

    monkeypatch.setattr(cli, "_execute", record)
    cli._parser.cache_clear()
    sweep_prefix, dist_prefix = tmp_path / "sw" / "x", tmp_path / "di" / "x"
    assert cli.main(["sweep-small", "--config",
                     write_cfg(tmp_path, "sw.json", tiny_sweep_cfg()),
                     "--out", str(sweep_prefix), "--seed", "4", "--workers", "2"]) == 0
    assert cli.main(["distinguish", "--config", write_cfg(tmp_path, "di.json", dist_cfg()),
                     "--out", str(dist_prefix)]) == 0
    # --workers is accepted and ignored
    assert seen == [("sweep-small", sweep_prefix, 4), ("distinguish", dist_prefix, 1)]
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_module_entry_point_help(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "elastoscat.cli", "--help"],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0
    for name in cli.EXPERIMENTS:
        assert name in proc.stdout


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.linalg and scipy.sparse.linalg would add to the start-up cost of
    # every experiment too
    for module in ("scipy.optimize", "scipy.linalg", "scipy.sparse.linalg"):
        code = f"import sys, elastoscat.cli; print({module!r} in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False", module
    # nor any other SciPy module: each experiment loads the ones it calls
    code = ("import sys, elastoscat.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_scipy_sparse_or_jsonschema():
    # the package's one Krylov solver is its own shifted GMRES, its Hankel
    # functions are greens._hankel01, and its one config validator is
    # cli._errors: SciPy and jsonschema are the tests' references
    for path in sorted((ROOT / "src" / "elastoscat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
        names |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module
                  for alias in node.names}
        assert not {name for name in names
                    if name.split(".")[0] in ("jsonschema", "scipy")}, path.name


def test_medium_demo_runs_without_scipy(tmp_path):
    # sys.modules["scipy"] = None makes every SciPy import fail
    prefix = tmp_path / "out" / "medium-demo"
    code = ("import sys; sys.modules['scipy'] = None; from elastoscat import cli; "
            "sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "medium-demo", "--config",
         write_cfg(tmp_path, "medium.json", _medium_cfg()), "--out", str(prefix)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert Path(f"{prefix}_medium.csv").exists()


def test_only_execute_raises_numerical_validation_failure():
    # runners return their self-checks as records; one place fails a run
    tree = ast.parse((ROOT / "src" / "elastoscat" / "cli.py").read_text(encoding="utf-8"))
    raises = {node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and node.exc is not None
              and "NumericalValidationFailure" in ast.unparse(node.exc)}
    execute = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_execute")
    assert len(raises) == 1 and raises <= set(ast.walk(execute)), \
        [node.lineno for node in raises]


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # the Gauss-Legendre rules are built on first use
    code = "import sys, elastoscat.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_jsonschema_fractions_and_futures_unloaded():
    # jsonschema is a test-only reference, fractions serves one cap routine,
    # and nothing needs concurrent.futures (which loads logging)
    modules = ("jsonschema", "fractions", "concurrent.futures", "logging")
    code = f"import sys, elastoscat.cli; print([m in sys.modules for m in {modules!r}])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([False] * len(modules))


# ---------------------------------------------------------------------------
# reachability: each public function serves an experiment or a criterion
# ---------------------------------------------------------------------------

# Public functions that no experiment calls and no acceptance criterion
# imports, with the reason each stays public.
KEEP = {
    "kpoint_criterion": "the paper's high-curvature criterion for a source",
    "medium_kpoint_criterion": "the paper's high-curvature criterion for a "
                               "medium, for a cap medium scatterer to report",
    "helmholtz_fundamental": "the scalar kernel that test_greens.py checks "
                             "the Kupradze tensor against",
    "signed_distance": "wrapped by perfbench/tracer.py; ROADMAP item 17 retires it",
}

# one small config per experiment
REACH_CONFIGS = {
    "sweep-small": tiny_sweep_cfg,
    "nonradiating-audit": CALL_COUNTS["nonradiating-audit"][0],
    "cgo-verify": cgo_cfg,
    "identity-check": _identity_cfg,
    "kpoint-decay": kpoint_cfg,
    "medium-demo": _medium_cfg,
    "distinguish": dist_cfg,
}


# The SciPy subpackages each experiment loads in a fresh interpreter; the
# experiments not named here load no SciPy module at all.
SCIPY_LOADED = {}
SCIPY_WATCHED = ("scipy.special", "scipy.sparse.linalg", "scipy.optimize")


def _cold_run(tmp_path, name, cfg, returncode=0):
    """Run one experiment in a fresh interpreter; return the SciPy modules it
    loaded, whether it loaded jsonschema, its output prefix and its stderr."""
    prefix = tmp_path / "out" / name
    code = ("import sys; from elastoscat import cli; "
            "rc = cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('jsonschema' in sys.modules); "
            "sys.exit(rc)")
    proc = subprocess.run(
        [sys.executable, "-c", code, name, "--config",
         write_cfg(tmp_path, f"{name}.json", cfg), "--out", str(prefix)],
        capture_output=True, text=True)
    assert proc.returncode == returncode, proc.stderr
    scipy_line, jsonschema_line = proc.stdout.splitlines()[-2:]
    return (set(ast.literal_eval(scipy_line)), jsonschema_line == "True", prefix,
            proc.stderr)


@pytest.mark.parametrize("name", list(REACH_CONFIGS))
def test_each_experiment_loads_only_the_scipy_it_calls(tmp_path, name):
    loaded, jsonschema_loaded, _, _ = _cold_run(tmp_path, name, REACH_CONFIGS[name]())
    expected = SCIPY_LOADED.get(name, set())
    assert {m for m in SCIPY_WATCHED if m in loaded} == expected
    if not expected:
        assert loaded == set()
    # a valid config needs no jsonschema
    assert not jsonschema_loaded


@pytest.mark.parametrize("case", ["misspelt-key", "ellipse-without-b"])
def test_rejected_config_names_its_path_without_jsonschema(tmp_path, case):
    make, path, value, where = EXIT_2_CASES[case]
    cfg = edit(make(), path, value)
    _, jsonschema_loaded, prefix, err = _cold_run(tmp_path, cfg["experiment"], cfg,
                                                  returncode=2)
    assert not jsonschema_loaded
    assert err.startswith("config error: config rejected by schema") and where in err
    assert not prefix.parent.exists()


def _edit_once(data, cfg) -> None:
    """One bad edit of ``cfg`` in place: a wrong value, a misspelt key or a
    deleted key, at a drawn path."""
    path = data.draw(st.sampled_from(list(_value_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    how = data.draw(st.sampled_from(["value", "misspell", "delete"])) \
        if isinstance(parent, dict) else "value"
    if how == "misspell":
        parent[path[-1] + data.draw(st.sampled_from(["s", "_", "x"]))] = \
            parent.pop(path[-1])
    elif how == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_WRONG_VALUES)


def _reference_errors(schema, cfg):
    """The reference check: jsonschema's Draft 2020-12 validator, extended to
    fill defaults.  Returns every error it finds in a filled copy of ``cfg``,
    and that copy."""

    def fill_defaults(validator, properties, instance, schema):
        """The ``properties`` keyword, after setting each absent key's default."""
        if validator.is_type(instance, "object"):
            for key, sub in properties.items():
                if "default" in sub and key not in instance:
                    instance[key] = copy.deepcopy(sub["default"])
        yield from Draft202012Validator.VALIDATORS["properties"](
            validator, properties, instance, schema)

    validator = validators.extend(Draft202012Validator, {"properties": fill_defaults})
    filled = copy.deepcopy(cfg)
    return list(validator(schema).iter_errors(filled)), filled


def _where(path):
    return "/".join(str(p) for p in path) or "top level"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_checker_agrees_with_jsonschema(data):
    name = data.draw(st.sampled_from(list(REACH_CONFIGS)))
    cfg = REACH_CONFIGS[name]()
    for _ in range(data.draw(st.integers(1, 2))):
        _edit_once(data, cfg)
    schema = cli.CONFIG_SCHEMAS[name]
    errors, reference = _reference_errors(schema, cfg)
    # the walker finds every error jsonschema finds, in its order and words
    assert list(cli._errors(schema, copy.deepcopy(cfg))) == [
        (tuple(e.absolute_path), e.message) for e in errors]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            _, effective = cli.load_config(write_cfg(tmp, "cfg.json", cfg), name)
        except cli.ConfigInvalid as exc:
            reported = str(exc)
        else:
            reported = None
    if reported is None:
        assert errors == [] and effective == reference
    elif cfg.get("experiment") not in (None, name):
        # load_config names the other experiment; the schema's const fails
        assert reported.startswith("config is for") and errors
    else:
        best = best_match(errors)
        assert reported.startswith(
            f"config rejected by schema at {_where(best.absolute_path)}: ")
        assert reported in {f"config rejected by schema at {_where(e.absolute_path)}: "
                            f"{e.message}" for e in errors}


@pytest.mark.parametrize("name", list(REACH_CONFIGS))
def test_config_checker_fills_the_defaults_jsonschema_fills(name):
    cfg = REACH_CONFIGS[name]()
    schema = cli.CONFIG_SCHEMAS[name]
    errors, reference = _reference_errors(schema, cfg)
    filled = copy.deepcopy(cfg)
    assert errors == [] and list(cli._errors(schema, filled)) == []
    assert filled == reference != cfg


def _subschemas(schema):
    yield schema
    for key, arg in schema.items():
        if key == "properties":
            for sub in arg.values():
                yield from _subschemas(sub)
        elif key in ("items", "if", "then", "else"):
            yield from _subschemas(arg)


def test_config_checker_knows_every_schema_keyword():
    # a keyword the checker lacks raises rather than passing unchecked; each
    # one in CONFIG_SCHEMAS, alone, must be one it knows
    for schema in cli.CONFIG_SCHEMAS.values():
        for sub in _subschemas(schema):
            for key, arg in sub.items():
                for probe in (None, 0, "x", [], {}):
                    list(cli._errors({key: arg}, probe))
                if key in ("const", "enum"):
                    # the checker compares scalars only
                    assert all(isinstance(v, (str, int, float))
                               for v in (arg if key == "enum" else [arg]))
    with pytest.raises(ValueError, match="pattern"):
        list(cli._errors({"pattern": "^a"}, "a"))


def _acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.startswith("elastoscat")
            for alias in node.names}


def _method_code(member):
    """Code object of a class member that is a method, or of a property's
    getter; None for any other attribute."""
    fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
    return fn.__code__ if inspect.isfunction(fn) else None


def test_every_public_function_is_reached_or_kept(tmp_path):
    assert set(REACH_CONFIGS) == set(cli.EXPERIMENTS)
    # code objects, not names: a function and a method can share a name
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exits = {name: cli.main([name, "--config",
                                 write_cfg(tmp_path, f"{name}.json", make()),
                                 "--workers", "1", "--out", str(tmp_path / name / "x")])
                 for name, make in REACH_CONFIGS.items()}
    finally:
        sys.setprofile(previous)
    assert set(exits.values()) == {0}, exits
    unreached = {name for name in elastoscat.__all__
                 if inspect.isfunction(fn := getattr(elastoscat, name))
                 and fn.__code__ not in called}
    assert unreached - _acceptance_imports() == set(KEEP)
    # every public method of an exported class runs too, with no exemptions
    unreached_methods = {f"{name}.{attr}" for name in elastoscat.__all__
                         if inspect.isclass(cls := getattr(elastoscat, name))
                         for attr, member in vars(cls).items()
                         if not attr.startswith("_")
                         and (code := _method_code(member)) is not None
                         and code not in called}
    assert unreached_methods == set()
