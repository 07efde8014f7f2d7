"""Medium scattering via the volume integral (Lippmann-Schwinger) equation.

A density contrast ``V`` supported in the domain scatters an incident entire
solution ``u_i`` according to ``u_t + omega^2 P(V u_t) = u_i`` where ``P``
maps a source to its outgoing solution (``P f = -G * f`` with the kernel
normalized against ``-delta``); the scattered field is ``u = u_t - u_i`` and
its far field is the pattern of the equivalent source ``-omega^2 V u_t``.
The equation is collocated at the nodes of a cell mesh on one h-lattice,
where the volume potential is block Toeplitz and is applied by FFT on a
padded grid.  That operator (``LatticeOperator``) depends only on the mesh
and the medium, so one is built per (mesh, medium) and reused across
solves.  GMRES solves the collocated system for any contrast, and the
Neumann-series mode exists to exercise the contraction regime and its
a-priori bounds.  Every solve is a sweep over the amplitudes ``a`` of one
contrast profile ``q`` (``solve_medium_sweep``; ``solve_medium`` is the
sweep over ``a = 1``), and a sweep shares one Krylov space: the systems
``(I + a A) u_t = u_i``, ``A = omega^2 P diag(q)``, all have the space of
``A`` from ``u_i``, so one Arnoldi process serves every amplitude's GMRES
and one sequence of powers ``(-A)^k u_i`` every amplitude's Neumann series.
The same Arnoldi process, run on the residual, restarts an amplitude that
one cycle leaves unsolved.  The direct mode's power-iteration contraction
estimate is made once per sweep, on ``A``, and only where it is read; the
far fields of a sweep are radiated together, on the first read of any.
Meshes whose nodes are not on one h-lattice are rejected with
``MeshMismatch``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Optional, Union

import numpy as np

from .bounds import upsilon
from .elastic import LameMedium, SampledVectorField, _lame_stencil
from .errors import (
    CoincidentPoints,
    DimensionMismatch,
    InvalidDirection,
    InvalidParameter,
    MeshMismatch,
    QuadratureBudgetExceeded,
    SeriesDiverges,
    SingularSystem,
    UnsupportedDimension,
)
from .geometry import (
    DomainGeometry,
    QuadratureMesh,
    diameter,
    inside,
)
from .greens import kupradze_batch, singular_cell_integral
from .source import (
    FarFieldPattern,
    _check_mesh_resolution,
    _patterns,
    _unit_directions,
    directions_circle,
)

_SERIES_MAX_TERMS = 200
# the Neumann series stops before a term below this fraction of |u_i|
_SERIES_TOL = 1e-12
# lattice_pde_residual counts a node when every lattice point within this many
# cells of it is a mesh node
_RESIDUAL_MARGIN_CELLS = 6
_GMRES_RTOL = 1e-12
_GMRES_RESTART = 50
_GMRES_MAX_CYCLES = 20      # restart cycles: at most 20 x 51 matvecs
# nodes may sit off the h-lattice by this fraction of h (round-off of the
# cell-centre coordinates is about 1e-14)
_LATTICE_TOL = 1e-9
# memory of a solve: the peak while the kernel table is built, per cell of
# the padded FFT grid (about 460 bytes measured), plus GMRES's Krylov basis,
# restart + 1 vectors of 2N complex entries
_GRID_BYTES_PER_CELL = 512
_BASIS_BYTES_PER_NODE = (_GMRES_RESTART + 1) * 2 * 16
_SOLVE_BUDGET = 1 << 30
# uniform points in the domain's bounding box that MediumScatterer.v_sup draws
_V_SUP_SAMPLES = 4096
_V_SUP_SEED = 7
# steps and seed of the direct mode's power-iteration contraction estimate
_NORM_ITERS = 12
_NORM_SEED = 3


@dataclass
class MediumScatterer:
    """Density perturbation ``(1 + V)`` supported in the domain.

    ``contrast`` maps batched points to complex values (scalar field); it is
    taken to vanish outside the domain, which the potential assembly enforces
    by meshing the domain only.
    """

    domain: DomainGeometry
    medium: LameMedium
    contrast: Callable

    def contrast_on(self, pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.contrast(pts), dtype=complex)
        if vals.shape != pts.shape[:-1]:
            raise DimensionMismatch(
                f"contrast returned shape {vals.shape}, expected {pts.shape[:-1]}")
        return vals

    def v_sup(self) -> float:
        """Sampled sup of |V| over the domain: the largest |V| at the points
        of a seeded uniform draw in its bounding box that lie inside it."""
        lo, hi = self.domain.shape.bbox()
        pts = np.random.default_rng(_V_SUP_SEED).uniform(
            lo, hi, size=(_V_SUP_SAMPLES, self.domain.dim))
        pts = pts[inside(self.domain, pts)]
        if not len(pts):
            return 0.0
        return float(np.max(np.abs(self.contrast_on(pts))))


@dataclass(frozen=True)
class IncidentWave:
    """Entire solution of the homogeneous system used as illumination."""

    kind: str                       # "pressure-plane" | "shear-plane" | "point-source"
    direction: Optional[np.ndarray]
    origin: Optional[np.ndarray]
    medium: LameMedium

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        med = self.medium
        if self.kind == "pressure-plane":
            d = self.direction
            phase = np.exp(1j * med.kappa_p * (pts @ d))
            return phase[:, None] * d
        if self.kind == "shear-plane":
            d = self.direction
            dperp = np.array([-d[1], d[0]])
            phase = np.exp(1j * med.kappa_s * (pts @ d))
            return phase[:, None] * dperp
        # point-source: Green-tensor column against the unit force e_1
        return kupradze_batch(pts - self.origin, med)[:, :, 0]

    def sample(self, mesh: QuadratureMesh) -> SampledVectorField:
        """The wave at the mesh nodes, read-only and tied to the mesh: the
        ``incident_values`` that every :func:`solve_medium` on it can share."""
        values = self(mesh.nodes)
        values.flags.writeable = False
        return SampledVectorField(nodes=mesh.nodes, values=values, mesh_ref=mesh.mesh_id)


class MediumSolve:
    """Total/scattered fields on the mesh plus the far field and diagnostics.

    ``farfield`` and ``contraction_estimate`` may each be given as a
    callable: it then runs on the first read and its value is kept, so a
    far field or an estimate that is never read costs nothing.
    """

    def __init__(self, u_total: SampledVectorField, u_scattered: SampledVectorField,
                 farfield: Union[FarFieldPattern, Callable[[], FarFieldPattern]],
                 series_terms_used: int,
                 contraction_estimate: Union[float, Callable[[], float]]):
        self.u_total = u_total
        self.u_scattered = u_scattered
        self.series_terms_used = series_terms_used
        self._farfield = farfield
        self._contraction = contraction_estimate

    @property
    def farfield(self) -> FarFieldPattern:
        if callable(self._farfield):
            self._farfield = self._farfield()
        return self._farfield

    @property
    def contraction_estimate(self) -> float:
        if callable(self._contraction):
            self._contraction = self._contraction()
        return self._contraction


@dataclass(frozen=True)
class ContractionReport:
    """A-priori smallness diagnostics for the fixed-point argument.

    ``upsilon = eps * v_sup / (s - eps * v_sup)`` (``bounds.upsilon``) bounds
    the scattered-to-incident ratio and ``bound_ut = s / (s - eps * v_sup)``
    the total-to-incident ratio, for the ``s`` passed to
    ``contraction_report``; both blow up as the product approaches ``s``,
    and once it is reached the regime flag trips and both read infinity.
    """

    epsilon: float
    v_sup: float
    upsilon: float
    bound_ut: float
    out_of_regime: bool


def make_incident(kind: str, params: dict, medium: LameMedium) -> IncidentWave:
    if medium.dim != 2:
        raise UnsupportedDimension("incident fields are 2-D only")
    if kind in ("pressure-plane", "shear-plane"):
        d = np.asarray(params.get("direction"), dtype=float)
        if d.shape != (2,) or abs(d @ d - 1.0) > 1e-10:
            raise InvalidDirection("direction must be a 2-D unit vector")
        return IncidentWave(kind=kind, direction=d, origin=None, medium=medium)
    if kind == "point-source":
        origin = np.asarray(params.get("origin"), dtype=float)
        if origin.shape != (2,):
            raise InvalidDirection("point-source origin must be a 2-D point")
        return IncidentWave(kind=kind, direction=None, origin=origin, medium=medium)
    raise InvalidDirection(f"unknown incident kind {kind!r}")


def _fast_length(m: int) -> int:
    """Smallest ``2^a 3^b 5^c >= m``: a length that ``np.fft`` transforms fast."""
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _lattice_keys(mesh: QuadratureMesh) -> np.ndarray:
    """Integer lattice index ``(N, 2)`` of each node of a cell mesh, counted
    from the corner of the nodes' bounding box.

    Raises ``MeshMismatch`` unless the nodes lie on one h-lattice with
    weights ``h^2``, and ``CoincidentPoints`` when two nodes share a key.
    """
    if mesh.style != "cell":
        raise MeshMismatch("the medium solve needs a cell-style mesh")
    h = mesh.h
    scaled = (mesh.nodes - mesh.nodes.min(axis=0)) / h
    keys = np.round(scaled).astype(int)
    on_lattice = np.max(np.abs(scaled - keys)) <= _LATTICE_TOL
    if not on_lattice or not np.allclose(mesh.weights, h * h, rtol=1e-12, atol=0.0):
        raise MeshMismatch(
            "the medium solve needs a cell mesh on one h-lattice with weights "
            "h^2, such as the volume mesh of a disk or an ellipse")
    _, first, counts = np.unique(keys[:, 0] * (keys[:, 1].max() + 1) + keys[:, 1],
                                 return_index=True, return_counts=True)
    if counts.size < keys.shape[0]:
        crowded = np.argmax(counts > 1)
        raise CoincidentPoints(
            f"mesh node {first[crowded]} coincides with {counts[crowded]} mesh nodes")
    return keys


class LatticeOperator:
    """The volume-potential quadrature on the nodes of one cell mesh, applied
    by FFT; built once per (mesh, medium) and shared by every solve on them.

    ``apply`` maps an (N, 2) array ``x`` to ``P x`` with row ``i`` equal to
    :func:`potential_row` at node ``y_i`` times ``x``: block ``(i, k)`` is
    ``h^2 G(y_i - y_k)``, and the singular-cell integral when ``i = k``.  On
    a cell mesh whose nodes lie on one h-lattice with weights ``h^2`` that
    block depends only on the integer offset ``key_i - key_k`` (``keys``, the
    nodes' lattice index), so ``P`` is block Toeplitz.  Its kernel table over
    the ``(2nx - 1) x (2ny - 1)`` offsets is evaluated once, here, embedded
    in a circulant padded to fast FFT lengths, and applied by ``fft2``
    (Vainikko 2000).

    Meshes that are not lattice subsets raise ``MeshMismatch``; repeated
    lattice keys raise ``CoincidentPoints``; a padded grid that would need
    more than ``_SOLVE_BUDGET`` bytes with the solver's Krylov basis raises
    ``QuadratureBudgetExceeded``.
    """

    def __init__(self, mesh: QuadratureMesh, medium: LameMedium):
        h = mesh.h
        keys = _lattice_keys(mesh)
        nx, ny = keys.max(axis=0) + 1
        mx, my = _fast_length(2 * nx - 1), _fast_length(2 * ny - 1)
        nbytes = mx * my * _GRID_BYTES_PER_CELL + keys.shape[0] * _BASIS_BYTES_PER_NODE
        if nbytes > _SOLVE_BUDGET:
            raise QuadratureBudgetExceeded(
                f"a solve on the {mx} x {my} FFT grid ({keys.shape[0]} nodes) would "
                f"take {nbytes / 2**30:.1f} GiB; coarsen the mesh or bring its "
                f"nodes closer together")
        # kernel table over the offsets; the origin is the singular cell
        ox, oy = np.meshgrid(np.arange(1 - nx, nx), np.arange(1 - ny, ny), indexing="ij")
        offsets = np.stack([ox.ravel(), oy.ravel()], axis=1)
        origin = (nx - 1) * (2 * ny - 1) + ny - 1
        live = np.arange(offsets.shape[0]) != origin
        kernel = np.empty((offsets.shape[0], 2, 2), dtype=complex)
        kernel[live] = kupradze_batch(offsets[live] * h, medium) * (h * h)
        kernel[origin] = singular_cell_integral(medium, h)
        # circulant: offset o at index o mod m, in a grid padded to fast FFT lengths
        spectrum = np.zeros((2, 2, mx, my), dtype=complex)
        spectrum[:, :, ox % mx, oy % my] = np.moveaxis(
            kernel.reshape(ox.shape + (2, 2)), (2, 3), (0, 1))
        del kernel
        self.mesh_id = mesh.mesh_id
        self.medium = medium
        self.keys = keys
        self._spectrum = np.fft.fft2(spectrum)

    def check(self, mesh: QuadratureMesh, medium: LameMedium) -> None:
        """Raise ``MeshMismatch`` unless built for this mesh and medium."""
        if mesh.mesh_id != self.mesh_id or medium != self.medium:
            raise MeshMismatch("the lattice operator was built for another "
                               "mesh or medium")

    def apply(self, x: np.ndarray) -> np.ndarray:
        spectrum = self._spectrum
        at = (slice(None), self.keys[:, 0], self.keys[:, 1])
        grid = np.zeros((2,) + spectrum.shape[2:], dtype=complex)
        grid[at] = x.T
        src = np.fft.fft2(grid)
        out = np.fft.ifft2(spectrum[:, 0] * src[0] + spectrum[:, 1] * src[1])
        return out[at].T


def _contrast_ops(operator: LatticeOperator, vvals: np.ndarray):
    """``omega^2 P V`` and its adjoint for the contrast values ``vvals``
    (N, 1), on node-major flat vectors."""
    n = vvals.shape[0]
    scale = -operator.medium.omega ** 2

    # omega^2 P V collocates to -omega^2 pot V
    def op(x):
        return (scale * operator.apply(vvals * x.reshape(n, 2))).ravel()

    def op_adjoint(x):
        # pot is complex symmetric, so pot^H x = conj(pot conj(x))
        return (np.conj(vvals) * scale
                * np.conj(operator.apply(np.conj(x).reshape(n, 2)))).ravel()

    return op, op_adjoint


def _gmres(op: Callable, b: np.ndarray, x: np.ndarray, cycles: int,
           info: int = 0) -> np.ndarray:
    """Restarted GMRES on ``(I + op) x = b`` from ``x``: while the true
    residual is above ``_GMRES_RTOL |b|``, at most ``cycles`` more cycles
    (none for 0), each one :func:`_shifted_gmres` cycle on the residual
    system; then the gate: ``SingularSystem`` unless the true relative
    residual is at most 1e-8."""
    scale = max(float(np.linalg.norm(b)), 1e-300)
    for cycle in range(cycles + 1):
        r = b - (x + op(x))
        resid = float(np.linalg.norm(r)) / scale
        # a NaN residual stops here too, and fails the gate
        if cycle == cycles or not resid > _GMRES_RTOL:
            break
        [(dx, info)] = _shifted_gmres(op, r, [1.0])
        x = x + dx
    if not np.isfinite(resid) or resid > 1e-8:
        raise SingularSystem(f"collocation residual {resid:.2e} "
                             f"(GMRES info {info})")
    return x


class _Series:
    """A Neumann series ``u_i + sum of terms`` under its stopping rule,
    divergence test and term cap."""

    def __init__(self, b: np.ndarray):
        self.total = b.copy()
        self.base = self.prev = float(np.linalg.norm(b))
        self.ratios = []
        self.terms = 1

    def add(self, term: np.ndarray) -> bool:
        """Add the next term; ``False``, adding nothing, once it is below
        ``_SERIES_TOL`` times ``|u_i|``."""
        cur = float(np.linalg.norm(term))
        if cur <= _SERIES_TOL * self.base:
            return False                    # next term negligible: not counted
        if self.prev > 0.0:
            self.ratios.append(cur / self.prev)
        if len(self.ratios) >= 2 and min(self.ratios[-2:]) >= 1.0:
            raise SeriesDiverges(f"correction ratio {self.ratios[-1]:.3f} >= 1 "
                                 f"at term {self.terms + 1}")
        self.total = self.total + term
        self.prev = cur
        self.terms += 1
        if self.terms > _SERIES_MAX_TERMS:
            raise SeriesDiverges(f"no convergence within {_SERIES_MAX_TERMS} terms")
        return True

    def result(self):
        """The sum, its term count and the largest correction ratio."""
        return self.total, self.terms, float(max(self.ratios, default=0.0))


def solve_medium(scatterer: MediumScatterer, incident: IncidentWave,
                 mesh: QuadratureMesh, mode: str = "direct-dense",
                 directions=None, operator: Optional[LatticeOperator] = None,
                 incident_values: Optional[SampledVectorField] = None
                 ) -> MediumSolve:
    """Solve the volume integral equation on the mesh.

    Both modes apply the collocated operator ``omega^2 P V`` through the FFT
    lattice potential (:class:`LatticeOperator`), so the mesh must be a
    cell mesh on one h-lattice with weights ``h^2``, such as the volume mesh
    of a disk or an ellipse.  Other meshes raise ``MeshMismatch``.  The
    operator depends only on the mesh and the medium: pass ``operator`` to
    reuse one across solves (contrasts, incident waves, modes), or leave it
    ``None`` to build one.  An operator
    built for another mesh or medium raises ``MeshMismatch``.  Memory grows
    with the padded FFT grid (about 5N cells for a disk of N nodes) and the
    GMRES basis; a solve that would need more than 1 GiB raises
    ``QuadratureBudgetExceeded``, which allows about 250,000 nodes on a
    disk.

    What every solve on one mesh shares is passed in, not rebuilt:
    ``incident_values``, the wave at the nodes (``incident.sample(mesh)``,
    read-only; values tied to another mesh raise ``MeshMismatch``, and the
    point-source origin is still checked on ``incident``).

    ``direct-dense`` (the name is historical) solves the 2N x 2N system
    ``(I + omega^2 P V) u_t = u_i`` by restarted GMRES and raises
    ``SingularSystem`` unless the true relative residual is at most 1e-8;
    its contraction estimate is a power-iteration estimate of the operator
    2-norm, run only when ``contraction_estimate`` is first read.
    ``neumann-series`` iterates the fixed point
    ``u_t <- u_i - omega^2 P(V u_t)`` and reports the observed contraction
    ratio, refusing to continue when successive corrections grow.  The far
    field is radiated by the equivalent source ``-omega^2 V u_t``, with the
    bits of :func:`~elastoscat.source.farfield_of_source` of that source; it
    is computed on the first read of ``farfield``, but ``directions`` and the
    mesh resolution it needs are checked here.

    This is :func:`solve_medium_sweep` over the one amplitude 1.
    """
    return solve_medium_sweep(scatterer, [1.0], incident, mesh, mode, directions,
                              operator, incident_values)[0]


def solve_medium_sweep(scatterer: MediumScatterer, amplitudes, incident: IncidentWave,
                       mesh: QuadratureMesh, mode: str, directions=None,
                       operator: Optional[LatticeOperator] = None,
                       incident_values: Optional[SampledVectorField] = None
                       ) -> list[MediumSolve]:
    """:func:`solve_medium` for the contrasts ``a * scatterer.contrast``, one
    :class:`MediumSolve` per amplitude ``a`` of ``amplitudes``, in order.

    The arguments and their checks are those of :func:`solve_medium`.  With
    ``A = omega^2 P diag(q)`` for the scatterer's contrast ``q``, every
    system ``(I + a A) u_t = u_i`` has the Krylov space of ``A`` from
    ``u_i``, so the sweep runs one Krylov process for all amplitudes
    (shifted GMRES, Frommer and Glaessner 1998).  ``direct-dense`` runs one
    Arnoldi cycle (:func:`_shifted_gmres`); an amplitude whose residual is
    still above ``_GMRES_RTOL |u_i|`` after ``_GMRES_RESTART`` steps
    restarts from its iterate (:func:`_gmres`), within the same cycle
    budget, and each amplitude keeps the 1e-8 gate on its true residual.
    Amplitude ``a`` reports ``|a|`` times one power-iteration estimate on
    ``A``, made on the first read of any amplitude's
    ``contraction_estimate``: the power iteration on ``a A`` takes the same
    steps.  ``neumann-series`` forms the powers ``(-A)^k u_i`` once, one at
    a time, and each amplitude adds ``a^k`` times each power under its own
    stopping rule, divergence test and term cap.  The sweep raises
    ``SingularSystem`` or ``SeriesDiverges`` where the sweep of any one of
    its amplitudes raises it.  The first read of any amplitude's
    ``farfield`` radiates every amplitude's equivalent source in one pass
    over the blocks of directions, each block's two phase matrices built
    once for all of them, and each amplitude keeps its pattern.
    """
    med = scatterer.medium
    if med.dim != 2:
        raise UnsupportedDimension("medium solves are 2-D only")
    if mode not in ("direct-dense", "neumann-series"):
        raise InvalidParameter(f"unknown mode {mode!r}")
    if incident.kind == "point-source" and bool(
            inside(scatterer.domain, incident.origin[None, :])[0]):
        raise InvalidDirection("point-source origin must lie outside the scatterer")
    if directions is None:
        directions = _default_directions(med, scatterer.domain)
    directions = _unit_directions(directions)
    _check_mesh_resolution(mesh, med)
    if incident_values is not None and incident_values.mesh_ref != mesh.mesh_id:
        raise MeshMismatch("the incident values are tied to another mesh")
    if operator is None:
        operator = LatticeOperator(mesh, med)
    operator.check(mesh, med)
    nodes = mesh.nodes
    q = scatterer.contrast_on(nodes)[:, None]
    ui = incident(nodes) if incident_values is None else incident_values.values
    b = ui.ravel()
    op, op_adjoint = _contrast_ops(operator, q)
    if mode == "neumann-series":
        series = [_Series(b) for _ in amplitudes]
        power, k, live = b, 0, list(range(len(amplitudes)))
        while live:
            power, k = -op(power), k + 1
            live = [i for i in live if series[i].add(amplitudes[i] ** k * power)]
        results = [sum_.result() for sum_ in series]
    else:
        estimate = cache(partial(_norm_estimate, op, op_adjoint, b.size))
        results = []
        for a, (ut_flat, info) in zip(amplitudes, _shifted_gmres(op, b, amplitudes)):
            # an amplitude that one cycle left unsolved restarts from its iterate
            ut_flat = _gmres(_contrast_ops(operator, a * q)[0], b, ut_flat,
                             info and _GMRES_MAX_CYCLES - 1, info)
            results.append((ut_flat, 1, lambda a=a: float(abs(a)) * estimate()))
    fields = [ut_flat.reshape(nodes.shape) for ut_flat, _, _ in results]
    # the equivalent sources -omega^2 V u_t, checked finite here
    sources = [SampledVectorField(nodes=nodes, values=-med.omega ** 2 * (a * q) * ut,
                                  mesh_ref=mesh.mesh_id).values
               for a, ut in zip(amplitudes, fields)]
    patterns = cache(partial(_patterns, med, mesh, directions, sources))
    return [MediumSolve(
        u_total=SampledVectorField(nodes=nodes, values=ut, mesh_ref=mesh.mesh_id),
        u_scattered=SampledVectorField(nodes=nodes, values=ut - ui, mesh_ref=mesh.mesh_id),
        farfield=lambda k=k: patterns()[k],
        series_terms_used=terms, contraction_estimate=contraction)
        for k, (ut, (_, terms, contraction)) in enumerate(zip(fields, results))]


def _shifted_gmres(op: Callable, b: np.ndarray, amps: list):
    """One GMRES cycle for every system ``(I + a op) x = b``, ``a`` in ``amps``.

    One Arnoldi process (modified Gram-Schmidt) builds the basis ``V`` and
    the Hessenberg matrix ``H`` of ``op`` from ``b``, with
    ``op V_j = V_{j+1} H_j``.  Each amplitude minimizes
    ``| |b| e_1 - (I_j + a H_j) y |`` by its own Givens rotations, updated
    one column per step as GMRES does, and stops at the first step whose
    residual is at most ``_GMRES_RTOL |b|``.  A zero ``H[j + 1, j]`` means
    the space is invariant under ``op``: every residual is then 0, and the
    process stops there.  Returns ``(V y, info)`` per amplitude after at
    most ``_GMRES_RESTART`` steps, ``info`` 0 if it stopped there and 1 if
    not.
    """
    amps = np.asarray(amps, dtype=complex)
    beta = float(np.linalg.norm(b))
    basis = np.empty((_GMRES_RESTART + 1, b.size), dtype=complex)
    basis[0] = b / beta
    rot_f, rot_e = (np.empty((amps.size, _GMRES_RESTART), dtype=complex) for _ in "fe")
    tri = np.zeros((amps.size, _GMRES_RESTART, _GMRES_RESTART), dtype=complex)
    g = np.zeros((amps.size, _GMRES_RESTART + 1), dtype=complex)
    g[:, 0] = beta
    stop = np.zeros(amps.size, dtype=int)      # the step each amplitude stopped at
    j, invariant = 0, False
    while j < _GMRES_RESTART and not stop.all() and not invariant:
        w = op(basis[j])
        h = np.zeros(j + 2, dtype=complex)
        for k in range(j + 1):
            h[k] = np.vdot(basis[k], w)
            w -= h[k] * basis[k]
        h[j + 1] = np.linalg.norm(w)
        invariant = not h[j + 1]
        if not invariant:
            basis[j + 1] = w / h[j + 1]
        col = amps[:, None] * h
        col[:, j] += 1.0
        for k in range(j):
            f, e = col[:, k], col[:, k + 1]
            col[:, k], col[:, k + 1] = (rot_f[:, k] * f + rot_e[:, k] * e,
                                        np.conj(rot_f[:, k]) * e - np.conj(rot_e[:, k]) * f)
        # the unitary [[f*, e*], [-e, f]] / |(f, e)| zeroes the subdiagonal e
        f, e = col[:, j], col[:, j + 1]
        d = np.hypot(np.abs(f), np.abs(e))
        rot_f[:, j], rot_e[:, j] = np.conj(f) / d, np.conj(e) / d
        col[:, j] = d
        tri[:, :j + 1, j] = col[:, :j + 1]
        g[:, j], g[:, j + 1] = rot_f[:, j] * g[:, j], -e / d * g[:, j]
        j += 1
        stop[(stop == 0) & (np.abs(g[:, j]) <= _GMRES_RTOL * beta)] = j
    return [(np.einsum("k,kn->n", np.linalg.solve(tri[i, :m, :m], g[i, :m]), basis[:m]),
             int(stop[i] == 0)) for i, m in enumerate(np.where(stop > 0, stop, j))]


def _norm_estimate(op: Callable, op_adjoint: Callable, size: int) -> float:
    """Power-iteration estimate of the operator 2-norm (diagnostic only):
    ``_NORM_ITERS`` steps from a seeded random start."""
    rng = np.random.default_rng(_NORM_SEED)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(_NORM_ITERS):
        w = op_adjoint(op(v))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        sigma = np.sqrt(nw)
        v = w / nw
    return float(sigma)


def _default_directions(medium: LameMedium, domain: DomainGeometry) -> np.ndarray:
    count = max(64, int(np.ceil(4.0 * medium.kappa_s * diameter(domain))) + 16)
    return directions_circle(count)


def contraction_report(scatterer: MediumScatterer, amplitudes,
                       s: float = 1.0) -> list[ContractionReport]:
    """Evaluate the smallness product and the a-priori field-size bounds for
    the contrasts ``a * scatterer.contrast``, one report per amplitude ``a``
    of ``amplitudes``, in order.

    ``epsilon = diameter * omega``; ``v_sup`` is ``|a|`` times the
    scatterer's one :meth:`MediumScatterer.v_sup`.  The bounds use the
    supplied constant ``s`` (calibrate it with the bounds module; the
    analysis only guarantees one exists).  Out-of-regime inputs are flagged,
    not rejected, and the ratio fields are set to infinity there.
    """
    if not s > 0.0:
        raise InvalidParameter(f"s must be positive, got {s}")
    eps = diameter(scatterer.domain) * scatterer.medium.omega
    profile_sup = scatterer.v_sup()
    reports = []
    for a in amplitudes:
        v = float(abs(a)) * profile_sup
        prod = eps * v
        out = prod >= s
        reports.append(ContractionReport(
            epsilon=eps, v_sup=v, upsilon=np.inf if out else upsilon(eps, v, s),
            bound_ut=np.inf if out else s / (s - prod), out_of_regime=out))
    return reports


def lattice_pde_residual(scatterer: MediumScatterer, amplitude: complex,
                         mesh: QuadratureMesh, u_total_values: np.ndarray):
    """Discrete PDE residual of a solved total field on its own mesh lattice,
    for the contrast ``V = amplitude * scatterer.contrast``.

    Second differences taken directly between lattice neighbors at the mesh
    spacing measure how well the sampled field satisfies the perturbed system
    (elastic operator plus ``omega^2 (1+V)``).  Only interior nodes count:
    those whose every lattice point within ``_RESIDUAL_MARGIN_CELLS`` cells
    (Euclidean) is a mesh node, since the quadrature error concentrates at
    the boundary.  That set is an erosion of the mesh's lattice by a disk,
    found from the lattice alone, and each of its nodes has a complete
    stencil.
    Returns ``(max_rel, median_rel, n_interior)`` with the residual
    normalized by ``omega^2 |u|`` per node.  The mesh must pass the solve's
    lattice checks (:func:`_lattice_keys`).
    """
    m = _RESIDUAL_MARGIN_CELLS
    keys = _lattice_keys(mesh) + m
    nodes = mesh.nodes
    ut = np.asarray(u_total_values)
    if ut.shape != nodes.shape:
        raise DimensionMismatch(
            f"field shape {ut.shape} does not match mesh {nodes.shape}")
    if not np.all(np.isfinite(ut)):
        raise DimensionMismatch("field contains non-finite entries")
    med = scatterer.medium
    # the field scattered into a lattice padded with m cells of NaN: NaN
    # marks a point that is no mesh node, for the stencil and the erosion
    lattice = np.full(tuple(keys.max(axis=0) + m + 1) + (ut.shape[1],), np.nan,
                      dtype=np.result_type(ut, float))
    lattice[tuple(keys.T)] = ut

    def shifted(o):
        return lattice[tuple((keys + o).T)]

    res = _lame_stencil(shifted, med, mesh.h, order=2) \
        + med.omega ** 2 * (amplitude * scatterer.contrast_on(nodes))[:, None] * ut
    rel = np.linalg.norm(res, axis=1) / (med.omega ** 2 * np.linalg.norm(ut, axis=1))
    # the erosion: AND of the meshed-point grid over the disk's shifts
    meshed = ~np.isnan(lattice[..., 0])
    nx, ny = meshed.shape
    eroded = np.logical_and.reduce([meshed[m + i:nx - m + i, m + j:ny - m + j]
                                    for i in range(-m, m + 1) for j in range(-m, m + 1)
                                    if i * i + j * j <= m * m])
    rels = rel[eroded[tuple((keys - m).T)] & np.all(np.isfinite(res), axis=1)]
    if not rels.size:
        raise MeshMismatch(
            f"no interior lattice nodes beyond {_RESIDUAL_MARGIN_CELLS} cells; refine the mesh")
    return float(rels.max()), float(np.median(rels)), int(rels.size)
