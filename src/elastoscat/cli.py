"""Command-line front end for the standard desk-scale experiments.

Usage::

    elastoscat <subcommand> --config cfg.json [--out PREFIX] [--seed N]

``--workers K`` is accepted and ignored: every run is one thread.

Subcommands
-----------
``sweep-small``
    Far-field norms and small-support criterion reports for an epsilon sweep
    of constant-intensity disk sources.  The norms come from the closed-form
    disk pattern; the first radiating disk's quadrature on the configured
    Gauss mesh must match it within ``tolerance``.
``nonradiating-audit``
    Manufactures non-radiating sources, verifies far-field nullity,
    calibrates the smallness constant and audits the diameter lower bound.
``cgo-verify``
    Probe algebra and PDE residuals, plus closed-form versus Monte-Carlo
    comparisons of the paraboloid region integral.
``identity-check``
    The four-term integral identity on cap domains across a K-grid.  The
    first cap is audited once more at twice every quadrature density; its
    configured residual must stay within 1.5 times the refined one plus
    64 machine epsilons.
``kpoint-decay``
    Identity term magnitudes against their structural bounds on a
    (K, zeta) grid, with per-term constant calibration; the first cap is
    audited once more at twice every quadrature density, as in
    ``identity-check``.
``medium-demo``
    Volume-integral-equation solves (GMRES, and the Neumann series where
    the contraction regime holds; each mode runs one Krylov sweep over
    every contrast amplitude), contraction diagnostics and a fitted
    contraction scale over a contrast-amplitude sweep, guarded by a lattice
    PDE-residual self-check.  ``criterion.delta`` is only echoed into the
    summary; no smallness criterion is evaluated.
``distinguish``
    Far-field difference of two separated small disk sources (closed form)
    against a noise level: the configured quadrature's miss of the closed
    form, floored at 64 machine epsilons times the pattern norm.  Two null
    sources (zero amplitude) read margin 0.

Configs are JSON validated against the subcommand's schema in
``CONFIG_SCHEMAS``, the reference for every key, its type, range and default
(``schema_version`` must be 1, ``experiment`` must match the subcommand and
unknown keys are rejected).  One small checker of the schema keywords used
there fills the defaults and finds every failure, in jsonschema's words; a
rejected config is reported at the failure that jsonschema's ``best_match``
would pick (jsonschema itself is the tests' reference, not a dependency).
Every run writes ``<prefix>_<table>.csv`` tables (RFC 4180, ``\\r\\n`` line
endings, floats at 17 significant digits, fixed column order documented per
runner) plus ``<prefix>_report.json`` echoing the config as read and with
its defaults filled in, seed, artifact version, summary statistics, the
self-checks (``self_checks``: each one's name, value, reference and limit),
and wall clock.  Replaying a config with the same seed
reproduces the CSV bytes exactly; per-point seeds derive from the master
seed and the point index.

Exit codes: 0 success, 2 invalid config (a schema violation, or a medium
with 2 lam + 2 mu <= 0), 3 numerical-validation failure: a ``ToolkitError``
raised mid-run, or a failed self-check.  Each runner returns its self-checks
as ``Check`` records, and ``_execute`` alone fails the run, naming every
check whose value is not at most its limit, before any file is written;
partial outputs of a failed write are removed.
"""
from __future__ import annotations

import argparse
import copy
import csv
import functools
import json
import math
import operator
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, bounds, cgo
from .bumps import polynomial_bump
from .elastic import field_norms, holder_seminorm, make_medium
from .errors import (
    ConfigInvalid,
    NumericalValidationFailure,
    OutOfRegime,
    ToolkitError,
)
from .geometry import (
    boundary_mesh,
    diameter,
    disk,
    ellipse,
    gauss_mesh,
    inside,
    make_cap_domain,
    volume_mesh,
)
from .scattering import (
    LatticeOperator,
    MediumScatterer,
    contraction_report,
    lattice_pde_residual,
    make_incident,
    solve_medium_sweep,
)
from .source import (
    SourceProblem,
    directions_circle,
    farfield_norm,
    farfield_of_disk,
    farfield_of_source,
    make_nonradiating,
)

# ---------------------------------------------------------------------------
# config schemas: each key appears once, with its type, range and default
# ---------------------------------------------------------------------------

def _number(default=None, **bounds) -> dict:
    return {"type": "number", **bounds, **_default(default)}


def _positive(default=None) -> dict:
    return _number(default, exclusiveMinimum=0)


def _unit(default: float) -> dict:
    """A number in (0, 1], such as a Holder exponent."""
    return _number(default, exclusiveMinimum=0, maximum=1)


def _integer(minimum: int, default: int) -> dict:
    return {"type": "integer", "minimum": minimum, "default": default}


def _array(items: dict, default=None) -> dict:
    return {"type": "array", "items": items, "minItems": 1, **_default(default)}


def _obj(required=(), default=None, **properties) -> dict:
    return {"type": "object", "properties": properties, "required": list(required),
            "additionalProperties": False, **_default(default)}


def _default(value) -> dict:
    return {} if value is None else {"default": value}


_VEC2 = {"type": "array", "items": _number(), "minItems": 2, "maxItems": 2}
_MAT2 = dict(_VEC2, items=_VEC2)
_CRITERION = _obj(default={}, delta=_unit(1.0))


def _by_kind(tag: str, then: dict, otherwise: dict, **properties) -> dict:
    """An object with the keys of ``then`` when its ``kind`` is ``tag`` and
    those of ``otherwise`` when not (or when it has no ``kind``).  Not a
    oneOf: a failed oneOf fails every branch, so its errors would come from
    branches whose ``kind`` does not match; here only the branch that the
    ``kind`` picks is checked, and every error is about that branch."""
    return {"type": "object", "properties": properties, "then": then, "else": otherwise,
            "if": {"required": ["kind"], "properties": {"kind": {"const": tag}}}}


_SHAPE_KEYS = dict(kind={}, center=_VEC2, amplitude=_VEC2, linear=_MAT2)
_SHAPE = _by_kind(
    "ellipse", _obj(("a", "b"), a=_positive(), b=_positive(), **_SHAPE_KEYS),
    _obj(("radius",), radius=_positive(), **_SHAPE_KEYS),
    kind={"enum": ["disk", "ellipse"], "default": "disk"},
    amplitude={"default": [1.0, 0.0]})
_INCIDENT = dict(_by_kind(
    "point-source", _obj(("kind", "origin"), kind={}, origin=_VEC2),
    _obj(("kind", "direction"), kind={}, direction=_VEC2),
    kind={"enum": ["pressure-plane", "shear-plane", "point-source"]}),
    default={"kind": "pressure-plane", "direction": [1.0, 0.0]})


def _mesh(radial: int, angular: int) -> dict:
    return _obj(default={}, n_radial=_integer(1, radial), n_angular=_integer(1, angular))


def _caps(**extra) -> dict:
    """Cap-domain block of the identity experiments.  The K >= e floor is a
    precondition of the frequency rule and stays in the library (exit 3)."""
    return _obj(("K_values",), K_values=_array(_positive()), L=_positive(3.0),
                M=_number(4.0, minimum=1), varsigma=_unit(0.9), cubic=_number(1.5),
                amplitude=dict(_VEC2, default=[1.0, 0.5]), linear=_MAT2,
                alpha=_unit(1.0), beta=_unit(1.0), node_budget=_integer(1, 2_000_000),
                **extra)


def _experiment(name: str, **blocks) -> dict:
    """Top level of a config; a block without a default is required."""
    required = [key for key, blk in blocks.items() if "default" not in blk]
    return {"$schema": "https://json-schema.org/draft/2020-12/schema",
            **_obj(("schema_version", "experiment", "medium", *required),
                   schema_version={"const": 1}, experiment={"const": name},
                   medium=_obj(("lam", "mu", "omega"), lam=_number(), mu=_positive(),
                               omega=_positive(), dim={"const": 2}),
                   seed=_integer(0, 0),
                   output={"type": "string", "default": f"out/{name}"}, **blocks)}


# each experiment's blocks beside schema_version, experiment, medium, seed and output
_BLOCKS = {
    "sweep-small": dict(
        sweep=_obj(("epsilons",), epsilons=_array(_positive()),
                   amplitudes=_array(_VEC2)),
        criterion=_obj(default={}, delta=_unit(1.0), c_fit=_positive(1.0)),
        mesh=_mesh(32, 64), directions=_integer(1, 128), tolerance=_positive(1e-6)),
    "nonradiating-audit": dict(
        family=_array(_SHAPE), criterion=_CRITERION, mesh=_mesh(40, 80),
        directions=_integer(1, 128), tolerance=_positive(1e-8)),
    # tau = ratio * kappa_s must exceed kappa_s; the residual stencil needs 3
    # points a side and the Monte Carlo two samples in each of its batches
    "cgo-verify": dict(
        probes=_obj(tau_ratios=_array(_number(exclusiveMinimum=1), [2.0, 10.0, 100.0]),
                    angles=_array(_number(), [0.0, 0.9, 2.2]),
                    residual_ppw=_positive(400.0), points_per_side=_integer(3, 8)),
        paraboloid=_obj(default={}, K_values=_array(_positive(), [1.0, 5.0, 20.0]),
                        tau_values=_array(_positive(), [4.0, 12.0, 40.0]),
                        dims=_array({"enum": [2, 3]}, [2, 3]),
                        samples=_integer(2 * cgo._MC_BATCHES, 200_000))),
    "identity-check": dict(caps=_caps(zeta=_positive()), tolerance=_positive(1e-2)),
    "kpoint-decay": dict(caps=_caps(zeta_values=_array(_positive(), [0.35, 0.5, 0.65]))),
    "medium-demo": dict(
        scatterer=_obj(("v0_values",), v0_values=_array(_number()),
                       radius=_positive(0.45), h=_positive(0.05), s=_positive(1.0),
                       incident=_INCIDENT),
        criterion=_CRITERION, tolerance=_positive(1e-2)),
    "distinguish": dict(
        pair=_obj(default={}, radius_scale=_positive(0.05),
                  separation_scale=_number(3.0, minimum=0),
                  amplitude=dict(_VEC2, default=[1.0, 0.0])),
        mesh=_mesh(32, 64), directions=_integer(1, 256)),
}
CONFIG_SCHEMAS = {name: _experiment(name, **blocks) for name, blocks in _BLOCKS.items()}
EXPERIMENTS = tuple(CONFIG_SCHEMAS)


def _is_type(value, name: str) -> bool:
    """JSON Schema's ``type``: a bool is no number, and ``integer`` admits 8.0."""
    if name in ("number", "integer"):
        return type(value) in (int, float) and (name == "number" or value % 1 == 0)
    return isinstance(value, {"object": dict, "array": list, "string": str}[name])


_RANGES = {"minimum": (operator.ge, "is less than the minimum of"),
           "exclusiveMinimum": (operator.gt, "is less than or equal to the minimum of"),
           "maximum": (operator.le, "is greater than the maximum of")}


def _errors(schema: dict, value, path: tuple = ()):
    """Yield ``(path, message)`` for each keyword of ``schema`` that ``value``
    fails, in jsonschema's order (the schema's own, depth first) and in its
    4.x wording.  Each absent key's ``default`` is filled into ``value``
    before that key's subschema is checked, as a jsonschema validator whose
    ``properties`` fills defaults does.  It knows only the keywords of
    ``CONFIG_SCHEMAS``; ``then`` and ``else`` belong to ``if``, and
    ``default`` and ``$schema`` check nothing."""
    is_obj, is_list = isinstance(value, dict), isinstance(value, list)
    for key, arg in schema.items():
        if key == "type":
            if not _is_type(value, arg):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key in ("const", "enum"):  # of scalars, where a bool equals only a bool
            if not any(isinstance(value, bool) == isinstance(each, bool) and value == each
                       for each in (arg if key == "enum" else [arg])):
                yield path, (f"{value!r} is not one of {arg!r}" if key == "enum"
                             else f"{arg!r} was expected")
        elif key == "minItems":
            if is_list and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems":
            if is_list and len(value) > arg:
                yield path, f"{value!r} is too long"
        elif key in _RANGES:
            holds, phrase = _RANGES[key]
            if _is_type(value, "number") and not holds(value, arg):
                yield path, f"{value!r} {phrase} {arg!r}"
        elif key == "items":
            for i, item in enumerate(value if is_list else ()):
                yield from _errors(arg, item, (*path, i))
        elif key == "properties":
            for name, sub in arg.items() if is_obj else ():
                if "default" in sub and name not in value:
                    value[name] = copy.deepcopy(sub["default"])
                if name in value:
                    yield from _errors(sub, value[name], (*path, name))
        elif key == "required":
            for name in arg if is_obj else ():
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties":  # always false in CONFIG_SCHEMAS
            extra = sorted(set(value) - set(schema.get("properties", ()))) if is_obj else ()
            if extra:
                names, verb = ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "if":
            branch = "then" if next(_errors(arg, value), None) is None else "else"
            yield from _errors(schema.get(branch, {}), value, path)
        elif key not in ("then", "else", "default", "$schema"):
            raise ValueError(f"the config checker lacks the schema keyword {key!r}")


def _reject_constant(name: str):
    # Python's json reads NaN and Infinity, which no schema range rejects
    raise ValueError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    # and it reads a number past the float range, such as 1e400, as inf
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


def load_config(path: str, experiment: str) -> tuple:
    """Read a JSON config for ``experiment`` and validate it against
    ``CONFIG_SCHEMAS[experiment]``.

    Returns ``(as_read, effective)``: the parsed file, and a copy with every
    default filled in.  Raises ConfigInvalid, naming the JSON path of the
    offending value, on any defect.
    """
    try:
        as_read = json.loads(Path(path).read_text(encoding="utf-8"),
                             parse_float=_finite_float, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # malformed JSON or UTF-8
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from None
    found = as_read.get("experiment") if isinstance(as_read, dict) else None
    if found not in (None, experiment):
        raise ConfigInvalid(f"config is for {found!r}, not {experiment!r}")
    effective = copy.deepcopy(as_read)
    # jsonschema's best_match: the shallowest failure, the greatest path among equals
    error = max(_errors(CONFIG_SCHEMAS[experiment], effective),
                key=lambda e: (-len(e[0]), e[0]), default=None)
    if error is not None:
        where = "/".join(map(str, error[0])) or "top level"
        raise ConfigInvalid(f"config rejected by schema at {where}: {error[1]}")
    return as_read, effective


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _medium_from(cfg: dict):
    m = cfg["medium"]
    try:
        return make_medium(m["lam"], m["mu"], m["omega"], dim=2)
    except ToolkitError as exc:
        # 2 lam + 2 mu > 0 ties two keys together, beyond the schema
        raise ConfigInvalid(f"medium: {exc}") from None


def _gauss(dom, cfg: dict, refined: bool = False):
    """The config's Gauss mesh on ``dom``, or the refined (n_radial + 16,
    2 n_angular) mesh that the nullity self-check compares against."""
    nr, na = int(cfg["mesh"]["n_radial"]), int(cfg["mesh"]["n_angular"])
    if refined:
        nr, na = nr + 16, 2 * na
    return gauss_mesh(dom, n_radial=nr, n_angular=na)


def _disk_farfield(med, cfg: dict, radius: float, amplitude, center=(0.0, 0.0)):
    """Far field, in the config's directions, of a constant-amplitude disk
    source by quadrature on the config's Gauss mesh: the self-checks compare
    it with the closed form :func:`farfield_of_disk`."""
    dom = disk(radius, center)
    vec = np.asarray(amplitude, dtype=complex)

    def phi(pts):
        return np.broadcast_to(vec, (pts.shape[0], 2)).copy()

    return farfield_of_source(SourceProblem(dom, med, phi), _gauss(dom, cfg),
                              directions_circle(int(cfg["directions"])))


class Check(NamedTuple):
    """One self-check of a run, named after the fault it catches: the run
    fails unless ``value <= limit`` (so a NaN fails).  ``reference`` is the
    value that ``value`` was compared with, or None against a tolerance."""

    name: str
    value: float
    reference: float | None
    limit: float


def _pattern_gap(a, b) -> float:
    """L2 norm of the difference of two patterns over the same directions,
    with :func:`farfield_norm`'s equal weights."""
    total = np.sum(np.abs(a.up_inf - b.up_inf) ** 2) \
        + np.sum(np.abs(a.us_inf - b.us_inf) ** 2)
    return float(np.sqrt(2.0 * np.pi / len(a.directions) * total))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_sweep_small(cfg: dict, seed: int) -> dict:
    """Columns: index, epsilon, radius, amp_x, amp_y, farfield_norm,
    criterion_lhs, criterion_rhs, ratio, regime."""
    med = _medium_from(cfg)
    sweep = cfg["sweep"]
    eps_list = [float(e) for e in sweep["epsilons"]]
    amps = sweep.get("amplitudes", [[1.0, 0.0]] * len(eps_list))
    if len(amps) != len(eps_list):
        raise ConfigInvalid("sweep/amplitudes must match sweep/epsilons in length")
    # a disk of radius R has R^2 times the Gauss weights of the unit disk
    unit_weight = float(np.min(_gauss(disk(1.0), cfg).weights))
    for i, eps in enumerate(eps_list):
        # a subnormal epsilon overflows the criterion ratio, and a tiny one
        # leaves the quadrature self-check's Gauss mesh with weights, and a
        # spacing, of zero
        radius = eps / (2.0 * med.omega)
        if min(eps, radius * radius * unit_weight) < sys.float_info.min:
            raise ConfigInvalid(f"sweep/epsilons/{i}: {eps} is so small that the "
                                f"Gauss weights on its disk of radius epsilon / "
                                f"(2 omega) are below the normal floats")
    delta = float(cfg["criterion"]["delta"])
    c_fit = float(cfg["criterion"]["c_fit"])
    dirs = directions_circle(int(cfg["directions"]))

    def point(i):
        eps, amp = eps_list[i], amps[i]
        radius = eps / (2.0 * med.omega)
        anorm = float(np.hypot(amp[0], amp[1]))
        if anorm == 0.0:
            rhs = bounds.small_support_rhs(eps, delta, 2)
            return [i, eps, radius, amp[0], amp[1], 0.0, 0.0, rhs, 0.0,
                    bounds.REGIME_NONRADIATING], None
        pattern = farfield_of_disk(med, radius, amp, dirs)
        ffn = farfield_norm(pattern)
        rep = bounds.small_support_criterion(anorm, 0.0, anorm, delta, eps, 2,
                                             omega=med.omega, c_fit=c_fit)
        return [i, eps, radius, amp[0], amp[1], ffn, rep.lhs,
                rep.rhs_structural, rep.ratio, rep.regime], pattern

    results = [point(i) for i in range(len(eps_list))]
    rows = [row for row, _ in results]
    # quadrature self-check on the first radiating point: the configured
    # Gauss mesh against the closed form
    checks = []
    for (row, exact), amp in zip(results, amps):
        if exact is not None:
            gap = _pattern_gap(_disk_farfield(med, cfg, row[2], amp), exact)
            checks.append(Check("quadrature misses the closed form", gap, row[5],
                                cfg["tolerance"] * max(row[5], 1e-300)))
            break
    header = ["index", "epsilon", "radius", "amp_x", "amp_y", "farfield_norm",
              "criterion_lhs", "criterion_rhs", "ratio", "regime"]
    return {"tables": {"sweep": (header, rows)}, "checks": checks,
            "summary": {"points": len(rows), "delta": delta, "c_fit": c_fit}}


def _domain_from_spec(spec: dict):
    center = tuple(spec.get("center", (0.0, 0.0)))
    if spec["kind"] == "disk":
        return disk(float(spec["radius"]), center)
    return ellipse(float(spec["a"]), float(spec["b"]), center)


def run_nonradiating_audit(cfg: dict, seed: int) -> dict:
    """Columns: index, kind, diameter, epsilon, phi_l2, farfield_norm,
    nullity, criterion_lhs, criterion_rhs, ratio, diameter_bound."""
    med = _medium_from(cfg)
    family = cfg["family"]
    delta = float(cfg["criterion"]["delta"])
    dirs = directions_circle(int(cfg["directions"]))
    tol = float(cfg["tolerance"])

    def null_source(i, refined=False):
        """Member i's non-radiating source, its mesh and its far-field norm."""
        spec = family[i]
        dom = _domain_from_spec(spec)
        lin = spec.get("linear")
        bump = polynomial_bump(dom, amplitude=tuple(spec["amplitude"]),
                               linear=None if lin is None else np.asarray(lin, float))
        mesh = _gauss(dom, cfg, refined)
        phi_field, _ = make_nonradiating(dom, bump, med, mesh)
        ffn = farfield_norm(farfield_of_source(SourceProblem(dom, med, phi_field),
                                               mesh, dirs))
        return dom, bump, mesh, phi_field, ffn

    def point(i):
        dom, bump, mesh, phi_field, ffn = null_source(i)
        phi_l2, phi_linf = field_norms(phi_field, mesh)
        d = diameter(dom)
        eps = d * med.omega
        bnodes = boundary_mesh(dom, h=0.02 * d).nodes
        sup_b = float(np.max(np.linalg.norm(
            bump.source_density(bnodes, med), axis=-1)))
        sem = holder_seminorm(phi_field, delta)
        rep = bounds.small_support_criterion(sup_b, sem, phi_linf, delta, eps,
                                             2, omega=med.omega)
        return [i, family[i]["kind"], d, eps, phi_l2, ffn,
                ffn / phi_l2, rep.lhs, rep.rhs_structural, rep.ratio]

    rows = [point(i) for i in range(len(family))]
    # nullity self-check: the first configuration must stay null when refined
    _, _, mesh_f, phi_f, ffn_f = null_source(0, refined=True)
    checks = [Check("configured nullity exceeds tolerance", rows[0][6], None, tol),
              Check("refined nullity exceeds tolerance",
                    ffn_f / field_norms(phi_f, mesh_f)[0], None, tol)]
    calib = bounds.calibrate_constant([(r[7], r[8]) for r in rows])
    c_diam = 1.0 / (3.0 * calib.constant_fit)
    diam_violations = 0
    for r in rows:
        bound = bounds.diameter_lower_bound(r[7], delta, med.omega, c_diam)
        r.append(bound)
        if r[2] < bound * (1.0 - 1e-9):
            diam_violations += 1
    header = ["index", "kind", "diameter", "epsilon", "phi_l2",
              "farfield_norm", "nullity", "criterion_lhs", "criterion_rhs",
              "ratio", "diameter_bound"]
    return {"tables": {"audit": (header, rows)}, "checks": checks,
            "summary": {"calibration": calib.to_json_dict(),
                        "diameter_c_fit": c_diam,
                        "diameter_violations": diam_violations}}


def run_cgo_verify(cfg: dict, seed: int) -> dict:
    """Tables: probes (tau_ratio, angle, tau, xi_xi_err, xi_eta_err,
    residual) and paraboloid (dim, K, tau, closed_re, closed_im, mc_re,
    mc_im, stderr, z)."""
    med = _medium_from(cfg)
    probes = cfg["probes"]
    ppw = float(probes["residual_ppw"])
    pts_side = int(probes["points_per_side"])

    combos = [(float(r), float(a)) for r in probes["tau_ratios"]
              for a in probes["angles"]]

    def probe_point(i):
        ratio, ang = combos[i]
        d = np.array([math.cos(ang), math.sin(ang)])
        dp = np.array([-math.sin(ang), math.cos(ang)])
        tau = ratio * med.kappa_s
        pr = cgo.make_cgo(d, dp, tau, med)
        err1 = abs(complex(pr.xi @ pr.xi) + med.kappa_s ** 2)
        err2 = abs(complex(pr.xi @ pr.eta))
        s = math.sqrt(med.kappa_s ** 2 + tau ** 2)
        grid = cgo.probe_grid(pr, spacing=2.0 * math.pi / (s * ppw),
                              points_per_side=pts_side)
        res = cgo.cgo_residual(pr, med, grid)
        return [ratio, ang, tau, err1, err2, res], pr, s

    built = [probe_point(i) for i in range(len(combos))]
    probe_rows = [row for row, _, _ in built]
    # residual refinement self-check on the first probe
    row0, pr0, s0 = built[0]
    grid_fine = cgo.probe_grid(pr0, spacing=2.0 * math.pi / (s0 * 2 * ppw),
                               points_per_side=pts_side)
    checks = [Check("probe residual does not halve when refined",
                    cgo.cgo_residual(pr0, med, grid_fine), row0[5], 0.5 * row0[5])]

    para = cfg["paraboloid"]
    grid = [(int(dim), float(K), float(tau)) for dim in para["dims"]
            for K in para["K_values"] for tau in para["tau_values"]]

    def para_point(i):
        dim, K, tau = grid[i]
        s = math.sqrt(med.kappa_s ** 2 + tau ** 2)
        xi = np.zeros(dim, dtype=complex)
        xi[0] = 1j * s
        xi[-1] = -tau
        closed = cgo.paraboloid_integral_closed(xi, K, dim)
        est, se = cgo.paraboloid_integral_mc(xi, K, dim, samples=int(para["samples"]),
                                             seed=_point_seed(seed, i))
        z = abs(est - closed) / se if se > 0 else 0.0
        return [dim, K, tau, closed.real, closed.imag, est.real, est.imag,
                se, z]

    para_rows = [para_point(i) for i in range(len(grid))]
    worst_z = max((r[8] for r in para_rows), default=0.0)
    return {"tables": {
                "probes": (["tau_ratio", "angle", "tau", "xi_xi_err",
                            "xi_eta_err", "residual"], probe_rows),
                "paraboloid": (["dim", "K", "tau", "closed_re", "closed_im",
                                "mc_re", "mc_im", "stderr", "z"], para_rows)},
            "checks": checks,
            "summary": {"worst_residual": max(r[5] for r in probe_rows),
                        "worst_z": worst_z}}


# the round-off floor of the self-checks, relative to the value they check
_NOISE_FLOOR = 64.0 * sys.float_info.epsilon


def _identity_point(med, caps: dict, K: float, zeta: float, refine: float = 1.0):
    tau = cgo.select_tau(K, zeta)
    pr = cgo.make_cgo(np.array([0.0, -1.0]), np.array([1.0, 0.0]), tau, med)
    dom = make_cap_domain(K=K, L=float(caps["L"]), M=float(caps["M"]),
                          varsigma=float(caps["varsigma"]), cubic=float(caps["cubic"]))
    lin = caps.get("linear")
    bump = polynomial_bump(dom, amplitude=tuple(caps["amplitude"]),
                           linear=None if lin is None else np.asarray(lin, float),
                           whole_boundary=False)
    bd = cgo.integral_identity_check(dom, bump, pr, med, node_budget=int(caps["node_budget"]),
                                     refine=refine)
    return tau, dom, bd


def _refinement_check(med, caps: dict, K: float, zeta: float, residual_rel: float) -> Check:
    """Row 0's cap audited again at twice every quadrature density: an
    under-resolved configured rule misses the refined residual by far more
    than 1.5 times it."""
    refined = _identity_point(med, caps, K, zeta, refine=2.0)[2].residual_rel
    return Check("row 0 residual exceeds 1.5 times its refined value", residual_rel,
                 refined, 1.5 * refined + _NOISE_FLOOR)


def run_identity_check(cfg: dict, seed: int) -> dict:
    """Columns: K, zeta, tau, lhs_abs, i1_abs, i2_abs, i3_abs, i4_abs,
    residual_abs, residual_rel, nodes_used."""
    med = _medium_from(cfg)
    caps = cfg["caps"]
    k_values = [float(k) for k in caps["K_values"]]
    zeta = caps.get("zeta")
    zeta = cgo.zeta_default(float(caps["alpha"]), float(caps["varsigma"]), 2) \
        if zeta is None else float(zeta)

    def point(i):
        K = k_values[i]
        tau, _, bd = _identity_point(med, caps, K, zeta)
        return [K, zeta, tau, abs(bd.lhs), abs(bd.i1), abs(bd.i2),
                abs(bd.i3), abs(bd.i4), bd.residual_abs, bd.residual_rel,
                bd.nodes_used]

    rows = [point(i) for i in range(len(k_values))]
    # np.max, unlike max, carries a NaN residual through to the check
    checks = [Check("identity residual exceeds tolerance",
                    float(np.max([r[9] for r in rows])), None, float(cfg["tolerance"])),
              _refinement_check(med, caps, k_values[0], zeta, rows[0][9])]
    header = ["K", "zeta", "tau", "lhs_abs", "i1_abs", "i2_abs", "i3_abs",
              "i4_abs", "residual_abs", "residual_rel", "nodes_used"]
    return {"tables": {"identity": (header, rows)}, "checks": checks, "summary": {}}


def run_kpoint_decay(cfg: dict, seed: int) -> dict:
    """Columns: K, zeta, tau, i2_abs, i2_bound, i3_abs, i3_bound, i4_abs,
    i4_bound, lhs_abs."""
    med = _medium_from(cfg)
    caps = cfg["caps"]
    cubic = float(caps["cubic"])
    grid = [(float(K), float(z)) for K in caps["K_values"]
            for z in caps["zeta_values"]]

    def point(i):
        K, zeta = grid[i]
        tau, dom, bd = _identity_point(med, caps, K, zeta)
        b = 1.0 / K
        rho = dom.chart.rho
        k_lo, k_hi = K - cubic * rho, K + cubic * rho
        i2_bound = cgo.shell_integral(max(k_lo, 0.5 * K), k_hi, tau, b, 2)
        _, i3_bound = cgo.tail_and_holder_bounds(tau, b, K, float(caps["alpha"]), 2)
        i4_bound = cgo.boundary_term_bound(tau, b, K, float(caps["beta"]), 1.0, 2)
        return [K, zeta, tau, abs(bd.i2), i2_bound, abs(bd.i3), i3_bound,
                abs(bd.i4), i4_bound, abs(bd.lhs)], bd.residual_rel

    rows, residuals = zip(*(point(i) for i in range(len(grid))))
    summary = {}
    for label, (col_meas, col_bound) in {"i2": (3, 4), "i3": (5, 6),
                                         "i4": (7, 8)}.items():
        calib = bounds.calibrate_constant(
            [(r[col_meas], r[col_bound]) for r in rows])
        summary[label] = calib.to_json_dict()
    header = ["K", "zeta", "tau", "i2_abs", "i2_bound", "i3_abs", "i3_bound",
              "i4_abs", "i4_bound", "lhs_abs"]
    return {"tables": {"decay": (header, list(rows))},
            "checks": [_refinement_check(med, caps, *grid[0], residuals[0])],
            "summary": summary}


def run_medium_demo(cfg: dict, seed: int) -> dict:
    """Columns: index, v0, epsilon, v_sup, upsilon, ratio_scattered,
    ratio_total, farfield_norm, series_terms, contraction, mode_gap,
    out_of_regime."""
    med = _medium_from(cfg)
    blk = cfg["scatterer"]
    radius = float(blk["radius"])
    v0_values = [complex(v) for v in blk["v0_values"]]
    dom = disk(radius)
    mesh = volume_mesh(dom, h=float(blk["h"]))
    try:
        incident = make_incident(blk["incident"]["kind"], blk["incident"], med)
    except ToolkitError as exc:
        # a unit direction ties the vector's entries together, beyond the schema
        raise ConfigInvalid(f"scatterer/incident: {exc}") from None
    if incident.origin is not None and bool(inside(dom, incident.origin[None, :])[0]):
        # the origin and the radius are two keys, beyond the schema
        raise ConfigInvalid("scatterer/incident/origin: point-source origin must "
                            "lie outside the scatterer")

    def contrast(pts):
        r2 = np.sum(np.asarray(pts) ** 2, axis=-1)
        return np.where(r2 < radius ** 2, (1.0 - r2 / radius ** 2) ** 2, 0.0).astype(complex)

    # every contrast is v0 times one profile: one scatterer, and everything
    # that varies by contrast takes the amplitudes v0
    profile = MediumScatterer(dom, med, contrast)
    # one FFT operator and one sample of the incident wave for every solve
    # of the run
    ui = incident.sample(mesh)
    shared = dict(operator=LatticeOperator(mesh, med), incident_values=ui)
    sup_i = float(np.max(np.linalg.norm(ui.values, axis=1)))
    reports = contraction_report(profile, v0_values, s=float(blk["s"]))
    # one Krylov sweep per mode
    direct = solve_medium_sweep(profile, v0_values, incident, mesh, "direct-dense", **shared)
    in_regime = [i for i, rep in enumerate(reports) if not rep.out_of_regime]
    series = dict(zip(in_regime, solve_medium_sweep(
        profile, [v0_values[i] for i in in_regime], incident, mesh, "neumann-series",
        **shared)))

    def point(i):
        sol, rep = direct[i], reports[i]
        sup_s = float(np.max(np.linalg.norm(sol.u_scattered.values, axis=1)))
        sup_t = float(np.max(np.linalg.norm(sol.u_total.values, axis=1)))
        mode_gap = float("nan")
        if rep.out_of_regime:
            # the direct solve's power iteration runs only for these rows
            terms, contraction = sol.series_terms_used, sol.contraction_estimate
        else:
            sol_n = series[i]
            num = np.linalg.norm(sol_n.u_total.values - sol.u_total.values)
            mode_gap = float(num / np.linalg.norm(sol.u_total.values))
            terms, contraction = sol_n.series_terms_used, sol_n.contraction_estimate
        ffn = farfield_norm(sol.farfield)
        return [i, abs(v0_values[i]), rep.epsilon, rep.v_sup, rep.upsilon,
                sup_s / sup_i, sup_t / sup_i, ffn, terms, contraction,
                mode_gap, rep.out_of_regime]

    rows = [point(i) for i in range(len(v0_values))]
    # PDE self-check: the first direct solve must satisfy the perturbed
    # system on its own lattice
    max_rel, _, _ = lattice_pde_residual(profile, v0_values[0], mesh,
                                         direct[0].u_total.values)
    checks = [Check("lattice residual exceeds tolerance", max_rel, None,
                    float(cfg["tolerance"]))]

    entries = [(r[2], r[3], r[5], r[6]) for r in rows if not r[11]]
    summary = {"delta": float(cfg["criterion"]["delta"])}
    if entries:
        try:
            calib = bounds.calibrate_contraction_scale(entries)
            summary["contraction_scale"] = calib.to_json_dict()
        except (OutOfRegime, ToolkitError) as exc:
            summary["contraction_scale_error"] = str(exc)
    header = ["index", "v0", "epsilon", "v_sup", "upsilon", "ratio_scattered",
              "ratio_total", "farfield_norm", "series_terms", "contraction",
              "mode_gap", "out_of_regime"]
    return {"tables": {"medium": (header, rows)}, "checks": checks, "summary": summary}


def run_distinguish(cfg: dict, seed: int) -> dict:
    """Columns: separation, radius, diff_norm, noise, margin."""
    med = _medium_from(cfg)
    blk = cfg["pair"]
    radius = float(blk["radius_scale"]) / med.omega
    sep = float(blk["separation_scale"]) / med.omega

    amp = blk["amplitude"]
    dirs = directions_circle(int(cfg["directions"]))
    left, right = (-sep / 2.0, 0.0), (sep / 2.0, 0.0)
    p1 = farfield_of_disk(med, radius, amp, dirs, left)
    p2 = farfield_of_disk(med, radius, amp, dirs, right)
    diff = _pattern_gap(p1, p2)
    # the configured quadrature's miss of the closed form, floored at a
    # round-off level so that margin does not swing with the last bits
    noise = max(_pattern_gap(p1, _disk_farfield(med, cfg, radius, amp, left)),
                _NOISE_FLOOR * farfield_norm(p1))
    # noise is 0 only for null sources, whose patterns cannot differ
    margin = diff / (10.0 * noise) if noise > 0 else 0.0
    rows = [[sep, radius, diff, noise, margin]]
    return {"tables": {"distinguish": (["separation", "radius", "diff_norm",
                                        "noise", "margin"], rows)}, "checks": [],
            "summary": {"diff_norm": diff, "noise": noise, "margin": margin,
                        "distinct": margin > 1.0}}


RUNNERS = {
    "sweep-small": run_sweep_small,
    "nonradiating-audit": run_nonradiating_audit,
    "cgo-verify": run_cgo_verify,
    "identity-check": run_identity_check,
    "kpoint-decay": run_kpoint_decay,
    "medium-demo": run_medium_demo,
    "distinguish": run_distinguish,
}


def _execute(experiment: str, as_read: dict, cfg: dict, out_prefix: Path,
             seed: int) -> Path:
    started = time.monotonic()
    result = RUNNERS[experiment](cfg, seed)
    failed = [c for c in result["checks"] if not c.value <= c.limit]
    if failed:  # before any file is made
        raise NumericalValidationFailure("; ".join(
            f"{c.name} (value {c.value}, reference {c.reference}, limit {c.limit})"
            for c in failed))
    written = []
    try:
        out_prefix.parent.mkdir(parents=True, exist_ok=True)
        tables = {}
        for name, (header, rows) in result["tables"].items():
            path = Path(f"{out_prefix}_{name}.csv")
            written.append(path)
            write_csv(path, header, rows)
            tables[name] = path.name
        report = {
            "artifact": "elastoscat",
            "version": __version__,
            "experiment": experiment,
            "seed": seed,
            "config_echo": as_read,
            "config_effective": cfg,
            "tables": tables,
            "summary": result["summary"],
            "self_checks": [check._asdict() for check in result["checks"]],
            "wall_clock_sec": time.monotonic() - started,
        }
        report_path = Path(f"{out_prefix}_report.json")
        written.append(report_path)
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
    except BaseException:
        # a path is listed before its write starts, so a half-written file
        # goes too; anything else squatting on the path is left alone
        for path in written:
            if path.is_file():
                path.unlink()
        raise
    return report_path


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="elastoscat",
        description="Desk-scale elastic scattering experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--workers", type=int, default=1,
                       help="ignored: accepted so that older command lines still run")
        p.add_argument("--out", default=None,
                       help="output prefix (default from config or ./out/<name>)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        as_read, cfg = load_config(args.config, args.experiment)
        seed = args.seed if args.seed is not None else int(cfg["seed"])
        if seed < 0:
            raise ConfigInvalid(f"--seed must be a nonnegative integer, got {seed}")
        report = _execute(args.experiment, as_read, cfg, Path(args.out or cfg["output"]), seed)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalValidationFailure as exc:
        print(f"numerical validation failed: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"numerical validation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
