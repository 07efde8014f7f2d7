"""Output check behind the benchmark's failure count.

An invocation passes when it exited 0 (every runner self-check passed) and
its CSV tables hold up against two kinds of evidence:

* deterministic columns match the reference row captured from a trusted
  commit (``reference.json``), within the tolerance stated per column below;
* estimator columns (the sampled Hoelder seminorm behind ``criterion_lhs``,
  ``ratio`` and ``diameter_bound``, and the Monte-Carlo columns) and
  round-off-level columns are checked by invariants that any correct
  implementation keeps, so an exact Hoelder seminorm or another random
  stream still passes.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SAME = "same"            # cell text must match: labels, exact counts, flags
INVARIANT = "invariant"  # not compared; the table's invariant checks it
ECHO = 1e-12             # inputs and closed forms echoed into the table
QUAD = 1e-9              # deterministic quadrature
SOLVE = 1e-6             # medium solves: the solve's own residual gate is 1e-8
PROBE_FD = 1e-6          # finite-difference probe residual

_I_COLS = ("lhs_abs", "i1_abs", "i2_abs", "i3_abs", "i4_abs")
_DECAY_COLS = ("lhs_abs", "i2_abs", "i3_abs", "i4_abs")

# Per table and column: SAME, INVARIANT, a relative tolerance r
# (|x - ref| <= r |ref|), or (r, cols) for a column that can cancel towards
# zero (|x - ref| <= r * max |ref[c]| over cols).  ``index`` is the row's
# position and is checked by the invariants.
COLUMNS = {
    "sweep": {
        "index": INVARIANT, "epsilon": ECHO, "radius": ECHO, "amp_x": ECHO,
        "amp_y": ECHO, "farfield_norm": QUAD, "criterion_lhs": ECHO,
        "criterion_rhs": ECHO, "ratio": ECHO, "regime": SAME},
    "audit": {
        "index": INVARIANT, "kind": SAME, "diameter": QUAD, "epsilon": QUAD,
        "phi_l2": QUAD, "farfield_norm": INVARIANT, "nullity": INVARIANT,
        "criterion_lhs": INVARIANT, "criterion_rhs": QUAD,
        "ratio": INVARIANT, "diameter_bound": INVARIANT},
    "distinguish": {
        "separation": ECHO, "radius": ECHO, "diff_norm": QUAD,
        "noise": (QUAD, ("diff_norm",)), "margin": INVARIANT},
    "identity": {
        "K": ECHO, "zeta": ECHO, "tau": ECHO, "lhs_abs": QUAD,
        **{c: (QUAD, _I_COLS) for c in _I_COLS[1:]},
        "residual_abs": INVARIANT, "residual_rel": INVARIANT,
        "nodes_used": SAME},
    "decay": {
        "K": ECHO, "zeta": ECHO, "tau": ECHO, "lhs_abs": QUAD,
        **{c: (QUAD, _DECAY_COLS) for c in _DECAY_COLS[1:]},
        "i2_bound": QUAD, "i3_bound": QUAD, "i4_bound": QUAD},
    "probes": {
        "tau_ratio": ECHO, "angle": ECHO, "tau": ECHO,
        "xi_xi_err": INVARIANT, "xi_eta_err": INVARIANT, "residual": PROBE_FD},
    "paraboloid": {
        "dim": SAME, "K": ECHO, "tau": ECHO,
        "closed_re": (ECHO, ("closed_re", "closed_im")),
        "closed_im": (ECHO, ("closed_re", "closed_im")),
        "mc_re": INVARIANT, "mc_im": INVARIANT, "stderr": INVARIANT,
        "z": INVARIANT},
    "medium": {
        "index": INVARIANT, "v0": ECHO, "epsilon": ECHO, "v_sup": ECHO,
        "upsilon": ECHO, "ratio_scattered": SOLVE, "ratio_total": SOLVE,
        "farfield_norm": SOLVE, "series_terms": INVARIANT, "contraction": SOLVE,
        "mode_gap": INVARIANT, "out_of_regime": SAME},
}

MAX_Z = 5.0
MAX_MODE_GAP = 1e-6
MAX_PROBE_ALGEBRA_ERR = 1e-10


def read_table(path: Path):
    """``(header, rows)`` of a CSV table, cells as text."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _close(x: float, ref: float, scale: float) -> bool:
    return math.isfinite(x) and abs(x - ref) <= scale


def _rel(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def _invariants(table: str, i: int, row: dict, ref: dict, cfg: dict):
    """Names of the invariants that ``row`` (position ``i``) breaks."""
    f = {k: float(v) for k, v in row.items()
         if k not in ("kind", "regime", "out_of_regime")}
    broken = []

    def need(cond: bool, what: str):
        if not cond:
            broken.append(what)

    if "index" in f:
        need(f["index"] == i, "index is the row position")
    if table == "sweep":
        need(f["farfield_norm"] > 0.0, "farfield_norm > 0")
    elif table == "audit":
        tol = float(cfg.get("tolerance", 1e-8))
        need(f["nullity"] < tol, f"nullity < {tol}")
        need(f["farfield_norm"] <= tol * f["phi_l2"], "farfield_norm <= tol * phi_l2")
        need(0.0 < f["criterion_lhs"] < math.inf, "criterion_lhs finite and > 0")
        need(_rel(f["ratio"], f["criterion_lhs"] / f["criterion_rhs"], 1e-12),
             "ratio = criterion_lhs / criterion_rhs")
        need(f["diameter_bound"] > 0.0
             and f["diameter"] >= f["diameter_bound"] * (1.0 - 1e-9),
             "diameter >= diameter_bound > 0")
    elif table == "distinguish":
        margin = f["diff_norm"] / (10.0 * f["noise"]) if f["noise"] > 0 else math.inf
        need(f["margin"] == margin or _rel(f["margin"], margin, 1e-9),
             "margin = diff_norm / (10 noise)")
    elif table == "identity":
        tol = float(cfg.get("tolerance", 1e-2))
        need(f["residual_rel"] < tol, f"residual_rel < {tol}")
        need(f["residual_abs"] <= tol * f["lhs_abs"], "residual_abs <= tol * lhs_abs")
    elif table == "probes":
        need(f["xi_xi_err"] < MAX_PROBE_ALGEBRA_ERR
             and f["xi_eta_err"] < MAX_PROBE_ALGEBRA_ERR, "probe algebra errors")
    elif table == "paraboloid":
        miss = math.hypot(f["mc_re"] - f["closed_re"], f["mc_im"] - f["closed_im"])
        need(f["stderr"] > 0.0, "stderr > 0")
        need(f["z"] <= MAX_Z, f"|z| <= {MAX_Z}")
        need(f["stderr"] > 0.0 and _rel(f["z"], miss / f["stderr"], 1e-9),
             "z = |mc - closed| / stderr")
    elif table == "medium":
        need(row["out_of_regime"] == "false", "contrast in regime")
        need(f["mode_gap"] < MAX_MODE_GAP, f"mode_gap < {MAX_MODE_GAP}")
        need(abs(f["series_terms"] - float(ref["series_terms"])) <= 1,
             "series_terms within 1 of the reference")
    return broken


def check_table(table: str, path: Path, keys: list, ref_table: dict,
                cfg: dict) -> list:
    """Problems found in one CSV table; empty when it passes."""
    header, rows = read_table(path)
    if header != ref_table["header"]:
        return [f"{path.name}: header {header} differs from the reference"]
    if len(rows) != len(keys):
        return [f"{path.name}: {len(rows)} rows, expected {len(keys)}"]
    rules = COLUMNS[table]
    problems = []
    for i, (cells, key) in enumerate(zip(rows, keys)):
        ref_cells = ref_table["rows"].get(key)
        if ref_cells is None:
            problems.append(f"{path.name} row {i}: no reference row for {key}")
            continue
        row = dict(zip(header, cells))
        ref = dict(zip(header, ref_cells))
        for col in header:
            rule = rules.get(col)
            if rule is None:
                problems.append(f"{path.name}: no rule for column {col!r}")
            elif rule == INVARIANT:
                continue
            elif rule == SAME:
                if row[col] != ref[col]:
                    problems.append(f"{path.name} row {i} {col}: "
                                    f"{row[col]} != reference {ref[col]}")
            else:
                rtol, scale_cols = rule if isinstance(rule, tuple) else (rule, (col,))
                scale = rtol * max(abs(float(ref[c])) for c in scale_cols)
                if not _close(float(row[col]), float(ref[col]), scale):
                    problems.append(f"{path.name} row {i} {col}: {row[col]} "
                                    f"vs reference {ref[col]} (tol {rtol:g})")
        problems += [f"{path.name} row {i}: {what}"
                     for what in _invariants(table, i, row, ref, cfg)]
    return problems


def check_invocation(prefix: Path, cfg: dict, keys: dict, reference: dict) -> list:
    """Problems in the outputs written under ``prefix`` by one invocation.

    ``keys`` is ``workloads.row_keys(cfg)`` and ``reference`` the workload's
    entry of ``reference.json``.
    """
    problems = []
    report = Path(f"{prefix}_report.json")
    try:
        json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{report.name}: {exc}")
    for table, table_keys in keys.items():
        path = Path(f"{prefix}_{table}.csv")
        try:
            problems += check_table(table, path, table_keys, reference[table], cfg)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: {type(exc).__name__}: {exc}")
    return problems
