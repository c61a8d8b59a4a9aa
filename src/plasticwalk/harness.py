"""Convergence experiments: walk trajectories against reference evolutions.

For each epsilon in a sweep the walk is run to the target time and compared
against the evolution it tends to, which the scaling exponent and the speed
profile fix (``ExperimentSpec.resolved_reference``; there is no other
choice): the lattice Hamiltonian on the same grid (alpha = 1,
``lattice_exact``), the continuum Dirac evolution (alpha < 1, homogeneous
speed, ``dirac_momentum``), or the pseudo-spectral curved Dirac evolution
(alpha < 1, inhomogeneous speed, ``curved_fine_grid``).
The lattice reference, flat or curved, is one Chebyshev propagation of the
lattice Hamiltonian (``evolve_exact``). The flat continuum reference is
propagated per ring momentum with closed-form 2x2 blocks, as the walk's
homogeneous trajectory is (``walk.MomentumOperator``). The curved continuum
reference is a Chebyshev propagation on a grid of the ring. A sweep moves a
field between grids in one place only, ``_reference_evolution``: the field
is resampled to n sites, propagated there and resampled back. A row's
coarser reference grid, the curved reference's 2x twin and the
cross-validation's 8x lattice (below) all run there, and it alone decides
whether a coarser grid may be used.

Each sweep runs one audit of its reference, right after its first completed
row, the coarsest grid. A curved sweep records the reference's own error:
the distance to the same propagation on a 2x refined grid (its twin). Every
row solves the same continuous problem, and a finer grid resolves it at
least as well, so the coarsest row's error bounds the others'. Where that
error sits at or below ``NOISE_FLOOR`` the coarsest grid N0 becomes the
sweep's reference grid: each later row propagates its initial field there,
at O(N0^2 log N0 + N log N) instead of O(N^2 log N), unless restricting the
field to it drops more than ``NOISE_FLOOR`` of it. Otherwise, and on every
row of a sweep whose error is above the floor, the reference runs on the
row's own grid; ``SweepRow.reference_N`` records the grid each row used. At
alpha = 0 the two homogeneous references are cross-validated instead: the
lattice one on an 8x refined grid, resampled back to the row's grid, must
agree with the row's own continuum one. Both numbers pass one gate: above
max(smallest walk error / 10, ``NOISE_FLOOR``) each adds a flag and fails
its check. An audit that cannot run fails its own check, never a row. The
same floor decides exactness: a sweep is exact iff every completed error
sits at or below it, and one with only some there is flagged and fits no
order. The harness decides every check of a sweep from its numbers,
``min_order`` too; ``SweepReport.checks`` carries them.

Grids. ``_grid`` is the one grid rule: every command passes each epsilon
through it, and it returns the snapped ``ScalingParams`` or refuses a grid
the walk cannot step.

Comparison frame. The walk does not converge to the references in the raw
component basis: its step operator is a frame conjugation of the reference
generator by exact, parameter-free unitaries of the model itself. Measured
on this package (flat case, c=0.5, m=0.2, L=64, T=4), raw L2 errors
plateau (fitted orders ~0.33 at alpha=1, ~0.45 at alpha=0.5, ~0.00 at
alpha=0) while the framed comparison converges at first order or better.
The frames are:

* alpha in (0, 1]: ``dressed-encoding`` G = Lambda^(-kappa) F E, where E is
  the half-step encoding that advances the plus component by one site (the
  same encoding that relates the automaton's one-particle sector to the
  walk), and F = exp(-i c kappa / 2 sigma_y) undoes the O(kappa) tilt the
  mixing power imprints on the step's eigenbasis. Both tend to the
  identity as epsilon -> 0. F is real: G^dag = E^dag F^T Lambda^kappa.
* alpha = 0: ``polarization-rotation`` G = [[s, c], [-c, s]] pointwise,
  s = sqrt(1 - c^2): kappa stays 1, the mixing matrix never weakens, and
  the walk realizes the continuum dynamics in this rotated spin basis.

A frame holds G^dag's pointwise entries as the walk holds its operators, and
applies them as the walk does (``walk._mix``); E^dag then moves the plus
component back one site. Errors are reported for G^dag(walk output) against
the reference evolution of G^dag(initial field), i.e. both sides are
expressed in the reference's own basis before taking norms.
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import time
from dataclasses import asdict, dataclass, field as dc_field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__ as _code_version, _csv
from .errors import BudgetError, DomainError, PlasticWalkError, ResolutionError
from .fields import CProfile, SpinorField
from .hamiltonians import (
    _check_term_budget,
    _gershgorin_radius,
    _spectral_radius,
    curved_dirac_reference,
    dirac_propagator,
    evolve_exact,
    lattice_hamiltonian_curved,
    resample,
)
from .hamiltonians import trig_interpolate  # not called here; perfbench/probes.py patches it on this module
from .scaling import ScalingParams, derive_angle_arrays
from .walk import _entries, _mix, _product, evolve_walk, lambda_power, momentum_block, ring_momenta


# ---------------------------------------------------------------------------
# experiment description


@dataclass
class ExperimentSpec:
    """One convergence sweep: physics, grid, initial packet, epsilon list."""

    alpha: float
    m: float
    cprofile: CProfile
    length: float
    T: float
    epsilon_list: list[float]
    x0: float
    w: float
    k0: float
    chirality_mix: float = 0.5
    reference: str = "auto"  # or exactly resolved_reference(); nothing else is accepted
    _planned: list = dc_field(init=False, repr=False, compare=False)  # _plan(), built once

    def __post_init__(self):
        """Refuse a spec whose rows would all fail or whose order fit would."""
        self._planned = plan = self._plan()  # _grid refuses a grid the walk cannot step
        _check_packet(self.x0, self.w, self.k0, self.chirality_mix, self.length)
        derived = self.resolved_reference()
        if self.reference not in ("auto", derived):
            raise DomainError(f"reference {self.reference!r} is not the walk's limit here; "
                              f"this spec's reference is {derived!r} (or 'auto')")
        if len(self.epsilon_list) < 1:
            raise DomainError("epsilon_list must not be empty")
        if not self.cprofile.static:
            raise DomainError(
                f"profile {self.cprofile.name!r} is not static in t, but every reference freezes "
                f"c at t = 0; a custom profile that ignores t can be built with static=True"
            )
        if derived == "curved_fine_grid":
            seam = abs(self.cprofile(0.0, self.length) - self.cprofile(0.0, 0.0))
            if seam > 1e-12:
                raise DomainError(
                    f"reference 'curved_fine_grid' needs a speed profile periodic on the ring; "
                    f"|c(0, {self.length}) - c(0, 0)| = {seam:.3g}"
                )
        snapped = [row.epsilon for _, row, _ in plan]
        if any(b >= a for a, b in zip(snapped, snapped[1:])):
            raise DomainError(
                f"epsilon_list must be strictly decreasing on the grid; it snaps to {snapped}"
            )
        self._check_reference_terms(derived)

    def _check_reference_terms(self, kind: str) -> None:
        """Refuse (BudgetError) a sweep whose Chebyshev references cannot run within the term budget.

        A row whose reference is over the budget fails alone, so the sweep is
        refused when every row's is. The coarsest row also runs one more
        propagation, the curved reference's 2x twin or the cross-validation's
        8x lattice, and a sweep whose one is over the budget is refused too.
        """
        rows = [row for _, row, _ in self._planned]
        bounds = [(_reference_radius(kind, self.m, self.cprofile, r.N, r.dx), r.time_reached) for r in rows]
        _check_term_budget(*min(bounds, key=lambda b: b[0] * b[1]))
        first = rows[0]
        if kind == "curved_fine_grid":
            radius = _reference_radius(kind, self.m, self.cprofile, 2 * first.N, first.dx / 2.0)
            _check_term_budget(radius, first.time_reached)
        if self._cross_validated():
            radius = _reference_radius("lattice_exact", self.m, self.cprofile, 8 * first.N, first.dx / 8.0)
            _check_term_budget(radius, first.time_reached)

    def _cross_validated(self) -> bool:
        """Whether the sweep cross-validates its two homogeneous references (alpha = 0, flat)."""
        return self.alpha == 0.0 and self.cprofile.homogeneous

    def _plan(self) -> list[tuple[ScalingParams, SweepRow, list[str]]]:
        """Each epsilon's snapped scaling and row before it runs, from ``_grid``, and its notes."""
        plan = []
        for eps in self.epsilon_list:
            params, n, steps, t_reach, notes = _grid(self.m, self.cprofile, self.alpha, self.length, self.T, eps)
            row = SweepRow(epsilon=params.epsilon, dt=params.dt, dx=params.dx, N=n, steps=steps,
                           time_reached=t_reach)
            plan.append((params, row, notes))
        return plan

    def resolved_reference(self) -> str:
        """The walk's limit: the lattice at alpha = 1, else the flat or curved continuum."""
        if self.alpha == 1.0:
            return "lattice_exact"
        return "dirac_momentum" if self.cprofile.homogeneous else "curved_fine_grid"

    def canonical_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "m": self.m,
            "profile": {"name": self.cprofile.name, "params": self.cprofile.params},
            "length": self.length,
            "T": self.T,
            "epsilon_list": list(self.epsilon_list),
            "x0": self.x0,
            "w": self.w,
            "k0": self.k0,
            "chirality_mix": self.chirality_mix,
            "reference": self.resolved_reference(),
        }

    def spec_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class SweepRow:
    """One epsilon of a sweep; the error fields stay NaN until the row has run."""

    epsilon: float
    dt: float
    dx: float
    N: int
    steps: int
    error_l2: float = float("nan")
    error_max: float = float("nan")
    walltime_s: float = 0.0
    # where walltime_s went, and |norm(walked) - norm(psi0)|; JSON only
    walk_s: float = dc_field(default=0.0, metadata={"csv": False})
    frame_s: float = dc_field(default=0.0, metadata={"csv": False})
    reference_s: float = dc_field(default=0.0, metadata={"csv": False})
    norm_drift: float = dc_field(default=float("nan"), metadata={"csv": False})
    time_reached: float = dc_field(default=0.0, metadata={"csv": False})
    # sites of the grid the reference ran on: N, or the sweep's reference grid (see _reference_evolution)
    reference_N: int | None = dc_field(default=None, metadata={"csv": False})
    failure: str | None = dc_field(default=None, metadata={"csv": False})


_CSV_FIELDS = tuple(f.name for f in fields(SweepRow) if f.metadata.get("csv", True))


_CHECKOUT = Path(__file__).resolve().parents[2]  # src/plasticwalk/harness.py -> the source tree


def _git_commit(checkout: Path) -> str | None:
    """The commit checked out in ``checkout``, read from its ``.git`` directory.

    Reads HEAD, then the branch's loose ref or its line in ``packed-refs``;
    no process is started. None outside a git checkout, or where the commit
    cannot be read this way (a ``.git`` file, an unborn branch).
    """
    git = checkout / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached HEAD
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@functools.cache
def _environment() -> tuple[tuple[str, str | None], ...]:
    """Versions of plasticwalk, Python, NumPy and NumPy's BLAS, and the commit, read once per process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no mode argument
        blas_name = "unknown"
    return (
        ("plasticwalk", _code_version),
        ("python", platform.python_version()),
        ("numpy", np.__version__),
        ("blas", blas_name),
        ("commit", _git_commit(_CHECKOUT)),
    )


@dataclass
class SweepReport:
    rows: list[SweepRow]
    fitted_order: float | None
    fitted_ci: float | None
    exact: bool
    reference: str
    frame: str
    spec_hash: str
    code_version: str
    adjustments: list[str] = dc_field(default_factory=list)
    flags: list[str] = dc_field(default_factory=list)
    crossval_gap: float | None = None  # alpha = 0 homogeneous sweeps only
    # curved_fine_grid sweeps only: the coarsest completed row's reference against its 2x refined twin
    reference_error: float | None = None
    kappa_range: list[float] | None = None  # [min, max] of kappa = epsilon^alpha over the rows
    predicted_order: float | None = None  # _predicted_order(alpha); None at alpha 0 and 1
    # what produced the report; not part of the spec, so not in spec_hash
    environment: dict = dc_field(default_factory=lambda: dict(_environment()))
    checks: list[dict] = dc_field(default_factory=list)  # each {"name", "passed", "detail"}, decided here

    CSV_HEADER = ",".join(_CSV_FIELDS)

    def to_csv(self) -> str:
        # the integer fields N and steps print as str(int) does
        table = np.array([[getattr(r, name) for name in _CSV_FIELDS] for r in self.rows], dtype=float)
        return self.CSV_HEADER + "\n" + _csv.rows(table.reshape(len(self.rows), len(_CSV_FIELDS)))

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# initial data


def _check_packet(x0: float, w: float, k0: float, chirality_mix: float, length: float) -> int:
    """The packet's own ranges: finite x0 and k0, w in (0, length], chirality_mix in [0, 1].

    Returns the number of ring images on each side that ``make_wavepacket``
    sums. Its phases reach about k0 (x0 + (images + 1) length), and it forms
    k0 s and k0 x0 / length on the way; a packet whose bound on these,
    k0 (|x0| + (images + 1) length) / min(1, length), is not finite is
    refused, before any of them overflows.
    """
    if not (np.isfinite(w) and w > 0):
        raise DomainError(f"w must be finite and positive, got {w}")
    if w > length * (1.0 + 1e-12):  # a snapped grid's N dx may sit an ulp below the configured length
        raise DomainError(f"w = {w} exceeds the ring length {length}")
    for name, value in (("x0", x0), ("k0", k0)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not 0.0 <= chirality_mix <= 1.0:
        raise DomainError(f"chirality_mix must lie in [0, 1], got {chirality_mix}")
    images = max(2, int(np.ceil(12.2 * w / length)))
    if not np.isfinite(abs(k0) * ((abs(x0) + (images + 1) * length) / min(1.0, length))):
        raise DomainError(f"k0 = {k0} at x0 = {x0} on a ring of length {length} gives the packet "
                          f"a phase past the float range")
    return images


def make_wavepacket(
    N: int, dx: float, x0: float, w: float, k0: float, chirality_mix: float = 0.5
) -> SpinorField:
    """Normalized Gaussian packet exp(-(x-x0)^2/(4 w^2)) e^{i k0 x}.

    ``chirality_mix`` splits the weight between the components: 1 puts all
    of it on plus, 0 on minus. The whole wave, phase included, is
    periodized by summing its images over the ring lengths |s| <=
    max(2, ceil(12.2 w / length)), so a k0 that is not a ring momentum
    leaves no phase jump at the seam and the first image left out weighs
    under 2^-53. x0 = x0' + j length, x0' in [0, length), is the packet at
    x0' times e^{i k0 j length}.
    """
    length = N * dx
    images = _check_packet(x0, w, k0, chirality_mix, length)
    if w < 4.0 * dx:
        raise ResolutionError(f"width w = {w} below the resolvable minimum 4*dx = {4 * dx}")
    j, x0 = divmod(x0, length)
    x = np.arange(N) * dx
    wave = np.zeros(N, dtype=np.complex128)
    for s in range(-images, images + 1):  # image s carries the phase e^{i k0 (x + s length)}
        wave += np.exp(1j * k0 * s * length) * np.exp(-((x - x0 + s * length) ** 2) / (4.0 * w ** 2))
    wave *= np.exp(1j * k0 * x) * np.exp(1j * k0 * j * length)
    data = np.empty((N, 2), dtype=np.complex128)
    data[:, 0] = np.sqrt(chirality_mix) * wave
    data[:, 1] = np.sqrt(1.0 - chirality_mix) * wave
    data /= np.linalg.norm(data)
    return SpinorField(data, dx)


# ---------------------------------------------------------------------------
# comparison frames


@dataclass
class ComparisonFrame:
    """Exact unitary G relating walk output to the reference evolution."""

    adjoint: tuple[np.ndarray, ...]  # G^dag's pointwise entries, one array over the sites each
    with_encoding: bool  # apply the plus-component advance E first

    def apply_adjoint(self, data: np.ndarray) -> np.ndarray:
        p, m = _mix(self.adjoint, data[:, 0], data[:, 1])
        return np.stack([np.roll(p, 1) if self.with_encoding else p, m], axis=1)


def _frame_name(alpha: float) -> str:
    return "polarization-rotation" if alpha == 0.0 else "dressed-encoding"


def comparison_frame(params: ScalingParams, xs: np.ndarray) -> ComparisonFrame:
    """Frame for comparing walk trajectories with the reference evolution, at t = 0."""
    cs = params.cprofile.sample(0.0, xs)
    if _frame_name(params.alpha) == "polarization-rotation":
        s = np.sqrt(1.0 - cs ** 2)
        return ComparisonFrame((s, -cs, cs, s), with_encoding=False)
    cos, sin = np.cos(0.5 * cs * params.kappa), np.sin(0.5 * cs * params.kappa)
    lam = _entries(lambda_power(cs, params.kappa))
    return ComparisonFrame(_product((cos, sin, -sin, cos), lam), with_encoding=True)


# ---------------------------------------------------------------------------
# sweep machinery


GRID_BUDGET = 10**9  # sites x steps of one grid; the largest in the tests and benchmark is 2048 x 2048
# sites of one grid; a sweep row peaks near 2.5 kB a site (alpha = 0 flat, with its 8x lattice), ~2.6 GB here
SITE_BUDGET = 2**20
MOMENTUM_BUDGET = 2**16  # k_count of one dispersion scan, ~400 B a momentum; a process peaks near 60 MB
CELL_BUDGET = 512  # qca_cells of the encoding check, at most 17 probe columns: at 512 ~3 ms and +2.4 MB peak RSS
NOISE_FLOOR = 1e-14  # an error or reference gap at or below it is double roundoff


def _grid(
    m: float, cprofile: CProfile, alpha: float, length: float, T: float, eps: float
) -> tuple[ScalingParams, int, int, float, list[str]]:
    """Snapped scaling, site count, walk steps to reach T, the time they reach, and notes.

    The one grid rule, for every command and every epsilon. ``ScalingParams``
    checks alpha, m and epsilon as given and once snapped (below alpha = 1
    epsilon snaps to a whole number of sites). It refuses a length or T that
    is not finite and positive, a fractional length or a ring of under 2
    sites at alpha = 1, (BudgetError) more than ``SITE_BUDGET`` sites or
    ``GRID_BUDGET`` sites x steps, and a grid whose operators the walk
    cannot build at t = 0: c is sampled on the sites and the crossings (at
    one site and one crossing for a homogeneous profile). Both budgets are
    checked before anything is sampled.
    """
    ScalingParams(m=m, cprofile=cprofile, epsilon=eps, alpha=alpha)
    for name, value in (("length", length), ("T", T)):
        if not (np.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    if alpha == 1.0 and abs(length - round(length)) > 1e-9:
        raise DomainError(f"alpha = 1 fixes the spacing at 1, so length must be an integer; got {length}")
    if alpha == 1.0 and round(length) < 2:  # dx = 1 by construction of the scaling
        raise DomainError(f"length = {length} at alpha = 1 is a ring of under 2 sites; "
                          f"the walk needs at least 2 sites")
    try:
        n = round(length) if alpha == 1.0 else max(2, round(length / eps ** (1.0 - alpha)))
        eps_adj = eps if alpha == 1.0 else (length / n) ** (1.0 / (1.0 - alpha))
        steps = max(1, round(T / (2.0 * eps_adj)))
    except (OverflowError, ZeroDivisionError):
        n = steps = np.inf  # a grid too fine to count in floats
    if n > SITE_BUDGET:
        raise BudgetError(f"length = {length} at epsilon = {eps} needs more than "
                          f"{SITE_BUDGET} sites, the site budget")
    if n * steps > GRID_BUDGET:
        raise BudgetError(f"length = {length} and T = {T} at epsilon = {eps} need more than "
                          f"{GRID_BUDGET:.0e} sites x steps, the grid budget")
    params = ScalingParams(m=m, cprofile=cprofile, epsilon=eps_adj, alpha=alpha)
    # both position sets of the walk's _step_operators: the sites of its mixing powers, and the
    # crossings xs + dx/2 of its coins, so each operator it builds at t = 0 passed here
    xs = np.arange(1 if cprofile.homogeneous else n) * params.dx
    cprofile.sample(0.0, xs)
    derive_angle_arrays(params, 0.0, xs + 0.5 * params.dx)
    notes = []
    if abs(eps_adj - eps) > 1e-12 * eps:
        notes.append(f"epsilon {eps:.17g} snapped to {eps_adj:.17g} (N = {n})")
    t_reach = 2.0 * eps_adj * steps
    if abs(t_reach - T) > eps_adj + 1e-12:
        notes.append(f"target time {T} reached as {t_reach:.17g} at epsilon {eps_adj:.17g}")
    return params, n, steps, t_reach, notes


def _reference_radius(kind: str, m: float, cprofile: CProfile, n: int, dx: float) -> float:
    """The spectral bound the Chebyshev reference of ``kind`` runs with on n sites of spacing dx.

    0.0 for ``dirac_momentum``, which runs no series.
    """
    if kind == "lattice_exact":
        return _gershgorin_radius(lattice_hamiltonian_curved(n, dx, m, cprofile))
    if kind == "curved_fine_grid":
        return _spectral_radius(cprofile.sample(0.0, np.arange(n) * dx), dx, m)
    return 0.0


def _reference_evolution(
    params: ScalingParams, field: SpinorField, t_reach: float, kind: str, n: int | None = None
) -> tuple[SpinorField, int]:
    """The reference of ``kind`` applied to ``field`` over t_reach, on its grid, and the sites it ran on.

    The one place a sweep moves a field between grids. With n the field is
    resampled to n sites of the ring, propagated there and resampled back:
    a row's coarser reference grid, the curved reference's 2x twin and the
    cross-validation's 8x lattice all run this way. A coarser n is used
    only if restricting the field to it and back drops at most
    ``NOISE_FLOOR`` of it (relative L2); otherwise the reference runs on
    the field's own grid.
    """
    psi0 = field if n is None else resample(field, n)
    if psi0.n_sites < field.n_sites:
        dropped = resample(psi0, field.n_sites).data - field.data
        if np.linalg.norm(dropped) > NOISE_FLOOR * np.linalg.norm(field.data):
            psi0 = field
    if kind == "lattice_exact":
        h = lattice_hamiltonian_curved(psi0.n_sites, psi0.dx, params.m, params.cprofile, 0.0)
        evolved = evolve_exact(h, psi0, t_reach)
    elif kind == "dirac_momentum":
        evolved = dirac_propagator(psi0.n_sites, psi0.dx, params.m, params.cprofile(0.0, 0.0), t_reach).apply(psi0)
    else:
        evolved = curved_dirac_reference(psi0, params.cprofile, params.m, t_reach)
    return (evolved if psi0 is field else resample(evolved, field.n_sites)), psi0.n_sites


def _run_row(
    spec: ExperimentSpec, params: ScalingParams, row: SweepRow, kind: str
) -> tuple[SweepRow, SpinorField, SpinorField]:
    """Fill in the errors of a planned row: the walk against its reference, in the frame.

    Returns the row, its frame-mapped initial field and that field's
    reference evolution, which the sweep's audit reads on its first row.
    A planned ``reference_N`` names the sweep's coarser reference grid;
    ``_reference_evolution`` decides whether the field may run there, and
    the row records the grid it ran on.
    """
    t_start = time.perf_counter()
    psi0 = make_wavepacket(row.N, params.dx, spec.x0, spec.w, spec.k0, spec.chirality_mix)

    t0 = time.perf_counter()
    walked = evolve_walk(psi0, params, row.steps)
    t1 = time.perf_counter()
    frame = comparison_frame(params, psi0.positions())
    ref_initial = psi0.with_data(frame.apply_adjoint(psi0.data))
    walked_in_frame = frame.apply_adjoint(walked.data)
    t2 = time.perf_counter()
    ref_final, reference_n = _reference_evolution(params, ref_initial, row.time_reached, kind, row.reference_N)
    t3 = time.perf_counter()

    diff = walked_in_frame - ref_final.data
    return replace(
        row,
        error_l2=float(np.linalg.norm(diff) / np.linalg.norm(ref_final.data)),
        error_max=float(np.max(np.abs(diff))),
        walltime_s=time.perf_counter() - t_start,
        walk_s=t1 - t0,
        frame_s=t2 - t1,
        reference_s=t3 - t2,
        norm_drift=abs(walked.norm() - psi0.norm()),
        reference_N=reference_n,
    ), ref_initial, ref_final


def _cross_validate_references(
    spec: ExperimentSpec, params: ScalingParams, row: SweepRow, kind: str
) -> float:
    """L2 gap between the lattice reference on an 8x refined grid and the row's own reference.

    Both run through ``_reference_evolution``, the lattice one with n = 8 N.
    """
    psi0 = make_wavepacket(row.N, params.dx, spec.x0, spec.w, spec.k0, spec.chirality_mix)
    lattice_side, _ = _reference_evolution(params, psi0, row.time_reached, "lattice_exact", 8 * row.N)
    continuum_side, _ = _reference_evolution(params, psi0, row.time_reached, kind)
    return float(np.linalg.norm(lattice_side.data - continuum_side.data))


def _predicted_order(alpha: float) -> float | None:
    """Convergence order the scaling analysis predicts for 0 < alpha < 1, else None.

    At most first order, lowered by two error terms: the coin's mass rule
    carries cos(pi kappa) = 1 + O(kappa^2), a mass error of
    O(epsilon^(2 alpha)), and the walk's lattice dispersion differs from
    the continuum one by O(dx^2) = O(epsilon^(2 - 2 alpha)). At alpha = 0
    and 1 no such rule is derived.
    """
    return min(1.0, 2.0 * alpha, 2.0 - 2.0 * alpha) if 0.0 < alpha < 1.0 else None


def run_convergence_sweep(spec: ExperimentSpec, min_order: float | None = None) -> SweepReport:
    """Run the walk against its reference for every epsilon and fit the order.

    The epsilon list is snapped to the grid once, before any row runs, and
    the rows run one after another in list order (descending epsilon).
    Per-row failures are recorded in the row and excluded from the fit
    instead of aborting the sweep. Right after its first completed row, the
    coarsest grid, the sweep runs its one audit of the reference: a curved
    sweep measures the reference's own error against its 2x twin, an alpha
    = 0 flat sweep cross-validates its references. Where the twin sits at
    or below ``NOISE_FLOOR`` the coarsest grid resolves the reference, and
    every later row is planned with it as ``reference_N`` (``_run_row``).
    An audit that cannot run (a package error, such as a propagation past
    the term budget on a finer row than the spec checked) fails its own
    check with the error as its detail, never the row; the sweep still
    reports. Each check is decided here, from these numbers, next to the
    flag it raises; ``min_order`` last.
    """
    ref_kind = spec.resolved_reference()
    adjustments: list[str] = []
    rows: list[SweepRow] = []
    kappas: list[float] = []
    # the check of the sweep's one audit; an alpha = 1 sweep runs none
    audit = "reference_resolution" if ref_kind == "curved_fine_grid" else "reference_cross_validation"
    audited = False  # the first completed row has run it
    gap: float | None = None
    reference_error: float | None = None
    unaudited = ""  # why the audit could not run: its check fails, the sweep goes on
    reference_n: int | None = None  # the coarsest row's N, once its twin sits at the floor
    for params, planned, notes in spec._planned:
        adjustments.extend(notes)
        kappas.append(params.kappa)
        try:
            row, initial, reference = _run_row(spec, params, replace(planned, reference_N=reference_n), ref_kind)
        except Exception as exc:  # per-row failures must not abort the sweep
            rows.append(replace(planned, failure=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(row)
        if audited:
            continue
        audited = True
        try:
            if audit == "reference_resolution":
                twin, _ = _reference_evolution(params, initial, row.time_reached, ref_kind, 2 * row.N)
                distance = np.linalg.norm(twin.data - reference.data)
                reference_error = float(distance / np.linalg.norm(reference.data))
                reference_n = row.N if reference_error <= NOISE_FLOOR else None
            elif spec._cross_validated():
                gap = _cross_validate_references(spec, params, row, ref_kind)
        except PlasticWalkError as exc:
            unaudited = f"{type(exc).__name__}: {exc}"

    good = [r for r in rows if r.failure is None]
    rises = [(a, b) for a, b in zip(good, good[1:]) if b.error_l2 > a.error_l2 + NOISE_FLOOR]
    flags = [f"non-monotone errors: {a.error_l2:.3e} at eps={a.epsilon:.3g} -> "
             f"{b.error_l2:.3e} at eps={b.epsilon:.3g}" for a, b in rises]
    flags += [f"row epsilon={r.epsilon:.3g} failed: {r.failure}" for r in rows if r.failure is not None]
    checks = [
        {"name": "rows_completed", "passed": len(good) == len(rows), "detail": f"{len(good)}/{len(rows)} rows"},
        {"name": "monotone_errors", "passed": not rises, "detail": ""},
    ]

    # one roundoff rule: exact iff every completed error is at the floor; a partial floor fits nothing
    at_floor = sum(r.error_l2 <= NOISE_FLOOR for r in good)
    exact = bool(good) and at_floor == len(good)
    fitted = ci = None
    if 0 < at_floor < len(good):
        flags.append(f"{at_floor} of {len(good)} completed errors at or below the noise floor "
                     f"({NOISE_FLOOR:.0e}); no order fitted")
    elif not at_floor and len(good) >= 3:
        fitted, ci = estimate_order([(r.epsilon, r.error_l2) for r in good])

    predicted = _predicted_order(spec.alpha)
    if fitted is not None and predicted is not None:
        # the finest pair, not the fit: a converging sweep's coarse rows pull the fit low
        a, b = good[-2:]
        local = np.log(a.error_l2 / b.error_l2) / np.log(a.epsilon / b.epsilon)
        if predicted - local > 0.1:
            flags.append(
                f"local order {local:.4g} of the two finest rows is below the predicted "
                f"{predicted:.4g} by more than 0.1"
            )

    # the references' cross-validation gap and own error must sit well below the walk's
    # smallest error, or at roundoff; with no completed row neither exists (and bound is NaN)
    tenth = min((r.error_l2 for r in good), default=float("nan")) / 10.0
    bound, bound_name = (NOISE_FLOOR, "the noise floor") if tenth < NOISE_FLOOR else (tenth, "smallest error/10")
    resolution = "" if reference_error is None else f"reference error {reference_error:.3e}"
    for name, value, runs, what, verdict, detail in (
        ("reference_cross_validation", gap, "reference cross-validation", "reference cross-validation gap",
         "sweep flagged invalid", ""),
        ("reference_resolution", reference_error, "reference 2x twin", "reference error",
         "reference under-resolved", resolution),
    ):
        why = unaudited if name == audit else ""
        if why:
            flags.append(f"{runs} could not run: {why}; sweep flagged invalid")
        over = value is not None and value > bound
        if over:
            flags.append(f"{what} {value:.3e} exceeds {bound_name} ({bound:.3e}); {verdict}")
        checks.append({"name": name, "passed": not why and not over, "detail": why or detail})
    if min_order is not None:
        passed = exact or (fitted is not None and fitted >= min_order)
        checks.append({"name": "min_order", "passed": passed, "detail": "exact" if exact else f"fitted {fitted}"})

    return SweepReport(
        rows=rows,
        fitted_order=fitted,
        fitted_ci=ci,
        exact=exact,
        reference=ref_kind,
        frame=_frame_name(spec.alpha),
        spec_hash=spec.spec_hash(),
        code_version=_code_version,
        adjustments=adjustments,
        flags=flags,
        crossval_gap=gap,
        reference_error=reference_error,
        kappa_range=[min(kappas), max(kappas)],
        predicted_order=predicted,
        checks=checks,
    )


def estimate_order(rows: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(epsilon).

    Returns the slope and the standard-error half-width of the fit. Raises
    DomainError for fewer than 3 rows, an epsilon that is not finite and
    positive, epsilons that do not decrease, or an error that is not finite
    and above ``NOISE_FLOOR``: roundoff has no order.
    """
    if len(rows) < 3:
        raise DomainError(f"need at least 3 rows to fit an order, got {len(rows)}")
    eps = np.array([r[0] for r in rows], dtype=float)
    err = np.array([r[1] for r in rows], dtype=float)
    if not np.all(np.isfinite(eps) & (eps > 0)):
        raise DomainError(f"epsilon values must be finite and positive, got {eps.tolist()}")
    if np.any(np.diff(eps) >= 0):
        raise DomainError("epsilon values must be strictly decreasing")
    if not np.all(np.isfinite(err) & (err > NOISE_FLOOR)):
        raise DomainError(f"errors must be finite and above the noise floor {NOISE_FLOOR:.0e}, got {err.tolist()}")
    x = np.log(eps)
    y = np.log(err)
    n = len(x)
    xbar = x.mean()
    sxx = np.sum((x - xbar) ** 2)
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = y.mean() - slope * xbar
    resid = y - (intercept + slope * x)
    se = float(np.sqrt(np.sum(resid ** 2) / (n - 2) / sxx))
    return slope, se


# ---------------------------------------------------------------------------
# dispersion


@dataclass
class DispersionTable:
    ks: np.ndarray
    walk_phases: np.ndarray      # (n, 2), sorted ascending per momentum
    lattice_energy: np.ndarray   # nonnegative branch sqrt(c^2 sin^2(k dx)/dx^2 + m^2)
    continuum_energy: np.ndarray  # nonnegative branch sqrt(c^2 k^2 + m^2)

    def to_csv(self) -> str:
        table = np.column_stack((self.ks, self.walk_phases, self.lattice_energy, self.continuum_energy))
        return "k,walk_phase_minus,walk_phase_plus,lattice_energy,continuum_energy\n" + _csv.rows(table)


def dispersion_scan(params: ScalingParams, k_count: int) -> DispersionTable:
    """Walk eigenphases and both reference dispersions over the zone.

    Momenta are the ring momenta of a k_count-site grid at the walk's
    spacing, which include the zone edge -pi/dx for even counts; there the
    massless lattice branch vanishes while the continuum branch does not
    (the doubling exhibit). Raises DomainError for a ``k_count`` below 1.
    """
    if k_count < 1:
        raise DomainError(f"k_count must be at least 1, got {k_count}")
    c0 = params.cprofile(0.0, 0.0)  # raises through profile if not evaluable
    ks = np.sort(ring_momenta(k_count, params.dx))
    phases = np.sort(np.angle(np.linalg.eigvals(momentum_block(params, ks))), axis=1)
    lat = np.hypot(c0 * np.sin(ks * params.dx) / params.dx, params.m)  # no m^2 to overflow
    cont = np.hypot(c0 * ks, params.m)
    return DispersionTable(ks=ks, walk_phases=phases, lattice_energy=lat, continuum_energy=cont)
