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
propagated per ring momentum with closed-form 2x2 blocks. The curved
continuum reference is a Chebyshev propagation on the walk's own grid; its
sweep records the reference's own error once, on the coarsest row that
completed: the distance to the same propagation on a 2x refined grid. Every
row solves the same continuous problem, and a finer grid resolves it at
least as well, so the coarsest row's error bounds the others'. At alpha = 0
the two homogeneous references are cross-validated: the lattice one on an
8x refined grid must agree with the row's own continuum one. Both numbers
pass one gate: above max(smallest walk error / 10, ``NOISE_FLOOR``) each
adds a flag and fails its check. The harness decides every check of a
sweep from its numbers, and ``SweepReport.checks`` carries them.

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
  identity as epsilon -> 0.
* alpha = 0: ``polarization-rotation`` G = [[s, c], [-c, s]] pointwise,
  s = sqrt(1 - c^2): kappa stays 1, the mixing matrix never weakens, and
  the walk realizes the continuum dynamics in this rotated spin basis.

Errors are reported for G^dag(walk output) against the reference evolution
of G^dag(initial field), i.e. both sides are expressed in the reference's
own basis before taking norms.
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
from .errors import BudgetError, DegenerateError, DomainError, ResolutionError, SingularMassError
from .fields import CProfile, SpinorField
from .hamiltonians import (
    curved_dirac_reference,
    dirac_propagator,
    evolve_exact,
    lattice_hamiltonian_curved,
    restrict,
    trig_interpolate,
)
from .scaling import ScalingParams, derive_angle_arrays
from .walk import SIGMA_Y, evolve_walk, lambda_power, momentum_block, ring_momenta


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
        self._planned = plan = self._plan()  # _grid refuses a length, T or grid it cannot build
        _check_packet(self.x0, self.w, self.k0, self.chirality_mix)
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
        for params, row, _ in plan:
            # the walk's coin rule at t = 0 on each grid's crossings: c*kappa > 1 has no
            # angle, and c*kappa = 1 with m > 0 makes every coin singular
            try:
                derive_angle_arrays(params, 0.0, (np.arange(row.N) + 0.5) * params.dx)
            except SingularMassError as exc:
                raise DomainError(f"epsilon {row.epsilon:.6g}: {exc}") from exc

    def _plan(self) -> list[tuple[ScalingParams, SweepRow, list[str]]]:
        """Each epsilon's snapped scaling, its row before it runs, and the snapping notes.

        ``ScalingParams`` holds the alpha, epsilon and mass rule. It checks
        each epsilon as given (snapping is undefined for epsilon <= 0, and an
        epsilon just above 1 can snap back inside) and again once snapped.
        """
        plan = []
        for eps in self.epsilon_list:
            ScalingParams(m=self.m, cprofile=self.cprofile, epsilon=eps, alpha=self.alpha)
            eps_adj, n, steps, t_reach, notes = _grid(self.alpha, self.length, self.T, eps)
            params = ScalingParams(m=self.m, cprofile=self.cprofile, epsilon=eps_adj, alpha=self.alpha)
            row = SweepRow(epsilon=eps_adj, dt=params.dt, dx=params.dx, N=n, steps=steps,
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


def _check_packet(x0: float, w: float, k0: float, chirality_mix: float) -> None:
    """The packet's own ranges: finite x0 and k0, a finite positive w, chirality_mix in [0, 1]."""
    if not (np.isfinite(w) and w > 0):
        raise DomainError(f"w must be finite and positive, got {w}")
    for name, value in (("x0", x0), ("k0", k0)):
        if not np.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if not 0.0 <= chirality_mix <= 1.0:
        raise DomainError(f"chirality_mix must lie in [0, 1], got {chirality_mix}")


def make_wavepacket(
    N: int, dx: float, x0: float, w: float, k0: float, chirality_mix: float = 0.5
) -> SpinorField:
    """Normalized Gaussian packet exp(-(x-x0)^2/(4 w^2)) e^{i k0 x}.

    ``chirality_mix`` splits the weight between the components: 1 puts all
    of it on plus, 0 on minus. The whole wave, phase included, is
    periodized by summing its images over a few ring lengths, so a k0 that
    is not a ring momentum leaves no phase jump at the seam.
    """
    _check_packet(x0, w, k0, chirality_mix)
    if w < 4.0 * dx:
        raise ResolutionError(f"width w = {w} below the resolvable minimum 4*dx = {4 * dx}")
    length = N * dx
    x = np.arange(N) * dx
    wave = np.zeros(N, dtype=np.complex128)
    for s in (-2, -1, 0, 1, 2):  # image s carries the phase e^{i k0 (x + s length)}
        wave += np.exp(1j * k0 * s * length) * np.exp(-((x - x0 + s * length) ** 2) / (4.0 * w ** 2))
    wave *= np.exp(1j * k0 * x)
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

    name: str
    pointwise: np.ndarray  # (N, 2, 2)
    with_encoding: bool    # apply the plus-component advance E first

    def apply_adjoint(self, data: np.ndarray) -> np.ndarray:
        out = np.einsum("lji,lj->li", self.pointwise.conj(), data)
        if self.with_encoding:
            shifted = out.copy()
            shifted[:, 0] = np.roll(out[:, 0], +1)
            out = shifted
        return out


def _frame_name(alpha: float) -> str:
    return "polarization-rotation" if alpha == 0.0 else "dressed-encoding"


def comparison_frame(params: ScalingParams, xs: np.ndarray, t0: float = 0.0) -> ComparisonFrame:
    """Frame for comparing walk trajectories with the reference evolution."""
    cs = params.cprofile.sample(t0, xs)
    n = len(xs)
    name = _frame_name(params.alpha)
    if name == "polarization-rotation":
        s = np.sqrt(1.0 - cs ** 2)
        pw = np.zeros((n, 2, 2), dtype=np.complex128)
        pw[:, 0, 0] = s
        pw[:, 0, 1] = cs
        pw[:, 1, 0] = -cs
        pw[:, 1, 1] = s
        return ComparisonFrame(name, pw, with_encoding=False)
    lam_inv = lambda_power(cs, -params.kappa)
    half = 0.5 * cs * params.kappa
    eye = np.broadcast_to(np.eye(2, dtype=np.complex128), (n, 2, 2))
    dress = np.cos(half)[:, None, None] * eye - 1j * np.sin(half)[:, None, None] * SIGMA_Y
    pw = np.einsum("lij,ljk->lik", lam_inv, dress)
    return ComparisonFrame(name, pw, with_encoding=True)


# ---------------------------------------------------------------------------
# sweep machinery


GRID_BUDGET = 10**9  # sites x steps of one grid; the largest in the tests and benchmark is 2048 x 2048
NOISE_FLOOR = 1e-14  # an error or reference gap at or below it is double roundoff


def _grid(
    alpha: float, length: float, T: float, eps: float
) -> tuple[float, int, int, float, list[str]]:
    """Snapped epsilon, site count, walk steps to reach T, the time they reach, and notes.

    The one grid rule: refuses a length or T that is not finite and positive,
    a fractional length or a ring of fewer than 2 sites at alpha = 1, and
    (BudgetError) more than ``GRID_BUDGET`` sites x steps. Below alpha = 1,
    epsilon snaps to a whole number of sites.
    """
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
    if n * steps > GRID_BUDGET:
        raise BudgetError(f"length = {length} and T = {T} at epsilon = {eps} need more than "
                          f"{GRID_BUDGET:.0e} sites x steps, the grid budget")
    notes = []
    if abs(eps_adj - eps) > 1e-12 * eps:
        notes.append(f"epsilon {eps:.17g} snapped to {eps_adj:.17g} (N = {n})")
    t_reach = 2.0 * eps_adj * steps
    if abs(t_reach - T) > eps_adj + 1e-12:
        notes.append(f"target time {T} reached as {t_reach:.17g} at epsilon {eps_adj:.17g}")
    return eps_adj, n, steps, t_reach, notes


def _reference_evolution(
    params: ScalingParams, psi0: SpinorField, t_reach: float, kind: str
) -> SpinorField:
    if kind == "lattice_exact":
        h = lattice_hamiltonian_curved(psi0.n_sites, psi0.dx, params.m, params.cprofile, 0.0)
        return evolve_exact(h, psi0, t_reach)
    if kind == "dirac_momentum":
        prop = dirac_propagator(
            psi0.n_sites, psi0.dx, params.m, params.cprofile(0.0, 0.0), t_reach
        )
        return prop.apply(psi0)
    return curved_dirac_reference(psi0, params.cprofile, params.m, t_reach, refinement=1)


def _run_row(
    spec: ExperimentSpec, params: ScalingParams, row: SweepRow, kind: str, twin: bool
) -> tuple[SweepRow, float | None]:
    """Fill in the errors of a planned row: the walk against its reference, in the frame.

    With ``twin`` the curved reference is also propagated on a 2x refined
    grid, and the relative distance between the two is returned with the
    row (else None); the twin's time counts in the row's ``reference_s``.
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
    ref_final = _reference_evolution(params, ref_initial, row.time_reached, kind)
    ref_norm = np.linalg.norm(ref_final.data)
    reference_error = None
    if twin:
        fine = curved_dirac_reference(
            ref_initial, params.cprofile, params.m, row.time_reached, refinement=2
        )
        reference_error = float(np.linalg.norm(fine.data - ref_final.data) / ref_norm)
    t3 = time.perf_counter()

    diff = walked_in_frame - ref_final.data
    return replace(
        row,
        error_l2=float(np.linalg.norm(diff) / ref_norm),
        error_max=float(np.max(np.abs(diff))),
        walltime_s=time.perf_counter() - t_start,
        walk_s=t1 - t0,
        frame_s=t2 - t1,
        reference_s=t3 - t2,
        norm_drift=abs(walked.norm() - psi0.norm()),
    ), reference_error


def _cross_validate_references(
    spec: ExperimentSpec, params: ScalingParams, row: SweepRow, kind: str
) -> float:
    """L2 gap between the lattice reference on an 8x refined grid and the row's own reference."""
    refinement = 8
    psi0 = make_wavepacket(row.N, params.dx, spec.x0, spec.w, spec.k0, spec.chirality_mix)
    fine = trig_interpolate(psi0, refinement)
    h = lattice_hamiltonian_curved(fine.n_sites, fine.dx, params.m, params.cprofile)
    lattice_side = restrict(evolve_exact(h, fine, row.time_reached), refinement)
    continuum_side = _reference_evolution(params, psi0, row.time_reached, kind)
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


def run_convergence_sweep(spec: ExperimentSpec) -> SweepReport:
    """Run the walk against its reference for every epsilon and fit the order.

    The epsilon list is snapped to the grid once, before any row runs, and
    the rows run one after another in list order (descending epsilon).
    Per-row failures are recorded in the row and excluded from the fit
    instead of aborting the sweep. A curved sweep measures its reference's
    own error on its first completed row, the coarsest grid; an alpha = 0
    flat sweep cross-validates its references there. Each check is decided
    here, from these numbers, next to the flag it raises.
    """
    ref_kind = spec.resolved_reference()
    adjustments: list[str] = []
    rows: list[SweepRow] = []
    kappas: list[float] = []
    coarsest: tuple[ScalingParams, SweepRow] | None = None  # the first completed row and its params
    reference_error: float | None = None
    for params, planned, notes in spec._planned:
        adjustments.extend(notes)
        kappas.append(params.kappa)
        twin = ref_kind == "curved_fine_grid" and coarsest is None
        try:
            row, row_reference_error = _run_row(spec, params, planned, ref_kind, twin)
        except Exception as exc:  # per-row failures must not abort the sweep
            rows.append(replace(planned, failure=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(row)
        if coarsest is None:
            coarsest, reference_error = (params, row), row_reference_error

    good = [r for r in rows if r.failure is None]
    rises = [(a, b) for a, b in zip(good, good[1:]) if b.error_l2 > a.error_l2 + 1e-15]
    flags = [f"non-monotone errors: {a.error_l2:.3e} at eps={a.epsilon:.3g} -> "
             f"{b.error_l2:.3e} at eps={b.epsilon:.3g}" for a, b in rises]
    flags += [f"row epsilon={r.epsilon:.3g} failed: {r.failure}" for r in rows if r.failure is not None]
    checks = [
        {"name": "rows_completed", "passed": len(good) == len(rows), "detail": f"{len(good)}/{len(rows)} rows"},
        {"name": "monotone_errors", "passed": not rises, "detail": ""},
    ]

    fitted: float | None = None
    ci: float | None = None
    exact = False
    if len(good) >= 3:
        try:
            fitted, ci = estimate_order([(r.epsilon, r.error_l2) for r in good])
        except DegenerateError:
            exact = True
    elif good and all(r.error_l2 <= 1e-12 for r in good):
        exact = True

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
    gap: float | None = None
    if spec.alpha == 0.0 and spec.cprofile.homogeneous and coarsest is not None:
        gap = _cross_validate_references(spec, *coarsest, ref_kind)
    bound = max(min((r.error_l2 for r in good), default=float("nan")) / 10.0, NOISE_FLOOR)
    resolution = "" if reference_error is None else f"reference error {reference_error:.3e}"
    for name, value, what, verdict, detail in (
        ("reference_cross_validation", gap, "reference cross-validation gap", "sweep flagged invalid", ""),
        ("reference_resolution", reference_error, "reference error", "reference under-resolved", resolution),
    ):
        failed = value is not None and value > bound
        if failed:
            flags.append(f"{what} {value:.3e} exceeds smallest error/10 ({bound:.3e}); {verdict}")
        checks.append({"name": name, "passed": not failed, "detail": detail})

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
    DomainError for a negative or non-finite error, and DegenerateError when
    any error sits at the noise floor (<= ``NOISE_FLOOR``), in which case callers
    should report the comparison as exact instead of quoting an order.
    """
    if len(rows) < 3:
        raise DomainError(f"need at least 3 rows to fit an order, got {len(rows)}")
    eps = np.array([r[0] for r in rows], dtype=float)
    err = np.array([r[1] for r in rows], dtype=float)
    if np.any(np.diff(eps) >= 0):
        raise DomainError("epsilon values must be strictly decreasing")
    if np.any(err < 0) or not np.all(np.isfinite(err)):
        raise DomainError("errors must be nonnegative and finite")
    if np.any(err <= NOISE_FLOOR):
        raise DegenerateError("errors at the noise floor; comparison is exact")
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
    (the doubling exhibit).
    """
    c0 = params.cprofile(0.0, 0.0)  # raises through profile if not evaluable
    ks = np.sort(ring_momenta(k_count, params.dx))
    phases = np.sort(np.angle(np.linalg.eigvals(momentum_block(params, ks))), axis=1)
    lat = np.sqrt((c0 * np.sin(ks * params.dx) / params.dx) ** 2 + params.m ** 2)
    cont = np.sqrt((c0 * ks) ** 2 + params.m ** 2)
    return DispersionTable(ks=ks, walk_phases=phases, lattice_energy=lat, continuum_energy=cont)
