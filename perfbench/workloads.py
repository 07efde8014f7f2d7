"""Seeded workload generator for the elastoscat benchmark.

A workload is a list of CLI invocations ``(experiment, config)``.  The seed
picks values from the fixed menus below (contrast amplitudes, epsilons,
source amplitudes, the K and zeta grids, probe angles, incident waves) and
the CLI ``seed``; it never changes a size: node counts, direction counts and
Monte-Carlo sample counts are the same for every seed.  Every menu value was
chosen so that the generated configs stay valid: contrasts keep
``diameter * omega * v0 < 1`` (in regime), K stays above the admissible
floor ``e``, and every first point passes its runner's self-check.

Because every seeded value comes from a finite menu, the output check can
compare each CSV row with a reference row captured once per menu entry
(``capture_reference.py`` builds configs that cover every entry).
``row_keys`` names the reference row each output row must match.
"""
from __future__ import annotations

import json
import random

MEDIUM = {"lam": 2.0, "mu": 1.0, "omega": 2.0}
WORKLOADS = ("medium-fine", "medium-sweep", "criteria-audit")

# medium-fine: disk of radius 0.45 at h = 0.03 (701 nodes), plane waves.
FINE_H = 0.03
FINE_V0 = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
FINE_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6))

# medium-sweep: the same disk at h = 0.05 (256 nodes), exterior point sources.
SWEEP_H = 0.05
SWEEP_V0 = tuple(round(0.02 * k, 2) for k in range(1, 21))
SWEEP_ORIGINS = ((1.0, 0.0), (0.0, 1.2), (-0.9, 0.6), (0.8, -0.8))

# criteria-audit menus
AUDIT_EPSILONS = tuple(round(0.05 * k, 2) for k in range(1, 17))
AUDIT_AMPLITUDES = ((1.0, 0.0), (0.0, 1.0), (1.0, 0.5), (0.5, -1.0))
AUDIT_FAMILY = (
    {"kind": "disk", "radius": 0.3},
    {"kind": "disk", "radius": 0.5, "linear": [[0.3, -0.2], [0.1, 0.4]]},
    {"kind": "ellipse", "a": 0.4, "b": 0.25},
)
AUDIT_FAMILY_AMPLITUDES = ((1.0, 0.0), (0.5, 1.0), (1.0, 0.5))
PAIR_RADIUS_SCALES = (0.04, 0.05, 0.06)
PAIR_SEPARATION_SCALES = (2.5, 3.0, 3.5)
PAIR_AMPLITUDES = ((1.0, 0.0), (0.0, 1.0))
CAP_K = (4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0)
CAP_ZETAS = (0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65)
PROBE_TAU_RATIOS = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
PROBE_ANGLES = (0.0, 0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.2, 2.6, 3.0)
PARA_K = (1.0, 2.0, 5.0, 10.0, 20.0)
PARA_TAU = (4.0, 8.0, 12.0, 20.0, 40.0)

CAPS = {"L": 3.0, "M": 4.0, "varsigma": 0.9, "cubic": 1.5,
        "amplitude": [1.0, 0.5], "linear": [[0.3, -0.2], [0.1, 0.4]],
        "alpha": 1.0, "beta": 1.0}


def _config(experiment: str, seed: int, **blocks) -> dict:
    return {"schema_version": 1, "experiment": experiment,
            "medium": dict(MEDIUM), "seed": seed, **blocks}


def _medium_demo(seed: int, h: float, v0_values, incident: dict) -> dict:
    return _config("medium-demo", seed, tolerance=0.01,
                   scatterer={"radius": 0.45, "h": h, "s": 1.0,
                              "v0_values": list(v0_values),
                              "incident": incident})


def _plane(direction) -> dict:
    return {"kind": "pressure-plane", "direction": list(direction)}


def _point_source(origin) -> dict:
    return {"kind": "point-source", "origin": list(origin)}


def _sweep_small(seed, epsilons, amplitudes) -> dict:
    return _config("sweep-small", seed,
                   sweep={"epsilons": list(epsilons),
                          "amplitudes": [list(a) for a in amplitudes]},
                   criterion={"delta": 1.0, "c_fit": 1.0},
                   mesh={"n_radial": 32, "n_angular": 64}, directions=256)


def _nonradiating(seed, family) -> dict:
    return _config("nonradiating-audit", seed, family=list(family),
                   criterion={"delta": 1.0},
                   mesh={"n_radial": 32, "n_angular": 64}, directions=96,
                   tolerance=1e-8)


def _family_member(index: int, amplitude) -> dict:
    return dict(AUDIT_FAMILY[index], amplitude=list(amplitude))


def _distinguish(seed, radius_scale, separation_scale, amplitude) -> dict:
    return _config("distinguish", seed,
                   pair={"radius_scale": radius_scale,
                         "separation_scale": separation_scale,
                         "amplitude": list(amplitude)},
                   mesh={"n_radial": 24, "n_angular": 48}, directions=128)


def _identity(seed, k_values) -> dict:
    return _config("identity-check", seed, tolerance=0.01,
                   caps=dict(CAPS, K_values=list(k_values)))


def _decay(seed, k_values, zetas) -> dict:
    return _config("kpoint-decay", seed,
                   caps=dict(CAPS, K_values=list(k_values),
                             zeta_values=list(zetas)))


def _cgo(seed, ratios, angles, para_k, para_tau) -> dict:
    return _config("cgo-verify", seed,
                   probes={"tau_ratios": list(ratios), "angles": list(angles),
                           "residual_ppw": 400.0, "points_per_side": 8},
                   paraboloid={"K_values": list(para_k),
                               "tau_values": list(para_tau),
                               "dims": [2, 3], "samples": 200_000})


def generate(workload: str, seed: int) -> list:
    """The invocations of one pass of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")

    def cli_seed():
        return rng.randrange(2 ** 31)

    if workload == "medium-fine":
        return [_medium_demo(cli_seed(), FINE_H,
                             rng.sample(FINE_V0, 2),
                             _plane(rng.choice(FINE_DIRECTIONS)))]
    if workload == "medium-sweep":
        return [_medium_demo(cli_seed(), SWEEP_H,
                             rng.sample(SWEEP_V0, 12),
                             _point_source(rng.choice(SWEEP_ORIGINS)))]
    return [
        _sweep_small(cli_seed(), rng.sample(AUDIT_EPSILONS, 8),
                     [rng.choice(AUDIT_AMPLITUDES) for _ in range(8)]),
        _nonradiating(cli_seed(), [
            _family_member(i, rng.choice(AUDIT_FAMILY_AMPLITUDES))
            for i in range(len(AUDIT_FAMILY))]),
        _distinguish(cli_seed(), rng.choice(PAIR_RADIUS_SCALES),
                     rng.choice(PAIR_SEPARATION_SCALES),
                     rng.choice(PAIR_AMPLITUDES)),
        _identity(cli_seed(), rng.sample(CAP_K, 5)),
        _decay(cli_seed(), rng.sample(CAP_K, 5), rng.sample(CAP_ZETAS, 3)),
        _cgo(cli_seed(), rng.sample(PROBE_TAU_RATIOS, 3),
             rng.sample(PROBE_ANGLES, 3), rng.sample(PARA_K, 3),
             rng.sample(PARA_TAU, 3)),
    ]


def covering_configs(workload: str) -> list:
    """Configs whose rows cover every menu entry of ``workload`` once."""
    if workload == "medium-fine":
        return [_medium_demo(0, FINE_H, FINE_V0, _plane(d))
                for d in FINE_DIRECTIONS]
    if workload == "medium-sweep":
        return [_medium_demo(0, SWEEP_H, SWEEP_V0, _point_source(o))
                for o in SWEEP_ORIGINS]
    if workload != "criteria-audit":
        raise ValueError(f"unknown workload {workload!r}")
    pairs = [(e, a) for e in AUDIT_EPSILONS for a in AUDIT_AMPLITUDES]
    return [
        _sweep_small(0, [e for e, _ in pairs], [a for _, a in pairs]),
        _nonradiating(0, [_family_member(i, a)
                          for i in range(len(AUDIT_FAMILY))
                          for a in AUDIT_FAMILY_AMPLITUDES]),
        *[_distinguish(0, r, s, a) for r in PAIR_RADIUS_SCALES
          for s in PAIR_SEPARATION_SCALES for a in PAIR_AMPLITUDES],
        _identity(0, CAP_K),
        _decay(0, CAP_K, CAP_ZETAS),
        _cgo(0, PROBE_TAU_RATIOS, PROBE_ANGLES, PARA_K, PARA_TAU),
    ]


def _key(*values) -> str:
    return json.dumps(values, sort_keys=True)


def row_keys(cfg: dict) -> dict:
    """``{table: [reference key of each output row, in row order]}``."""
    exp = cfg["experiment"]
    if exp == "medium-demo":
        blk = cfg["scatterer"]
        return {"medium": [_key(blk["incident"], v) for v in blk["v0_values"]]}
    if exp == "sweep-small":
        sw = cfg["sweep"]
        return {"sweep": [_key(e, a) for e, a in
                          zip(sw["epsilons"], sw["amplitudes"])]}
    if exp == "nonradiating-audit":
        return {"audit": [_key(spec) for spec in cfg["family"]]}
    if exp == "distinguish":
        return {"distinguish": [_key(cfg["pair"])]}
    caps = cfg.get("caps", {})
    if exp == "identity-check":
        return {"identity": [_key(k) for k in caps["K_values"]]}
    if exp == "kpoint-decay":
        return {"decay": [_key(k, z) for k in caps["K_values"]
                          for z in caps["zeta_values"]]}
    if exp == "cgo-verify":
        pr, pa = cfg["probes"], cfg["paraboloid"]
        return {"probes": [_key(r, a) for r in pr["tau_ratios"]
                           for a in pr["angles"]],
                "paraboloid": [_key(d, k, t) for d in pa["dims"]
                               for k in pa["K_values"]
                               for t in pa["tau_values"]]}
    raise ValueError(f"no row keys for experiment {exp!r}")
