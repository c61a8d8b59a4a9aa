"""Convergence experiments: walk trajectories against reference evolutions.

For each epsilon in a sweep the walk is run to the target time and compared
against the reference evolution appropriate to the scaling exponent: the
lattice Hamiltonian on the same grid (alpha = 1), the continuum Dirac
evolution (alpha < 1, homogeneous speed), or a fine-grid method-of-lines
evolution (alpha < 1, inhomogeneous speed). A homogeneous speed makes
either reference translation-invariant, so it is propagated per ring
momentum with closed-form 2x2 blocks; dense diagonalization serves only the
inhomogeneous lattice reference. At alpha = 0 the two homogeneous
references are cross-validated: the lattice one on an 8x refined grid must
agree with the continuum one.

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

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field as dc_field, fields, replace

import numpy as np

from . import __version__ as _code_version
from .errors import DegenerateError, DomainError, ResolutionError
from .fields import CProfile, SpinorField
from .hamiltonians import (
    curved_dirac_reference,
    dirac_propagator,
    evolve_exact,
    lattice_hamiltonian_curved,
    lattice_propagator,
    restrict,
    trig_interpolate,
)
from .scaling import ScalingParams
from .walk import SIGMA_Y, evolve_walk, lambda_power, momentum_block, ring_momenta

REFERENCES = ("auto", "lattice_exact", "dirac_momentum", "curved_fine_grid")


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
    reference: str = "auto"

    def __post_init__(self):
        """Refuse a spec whose rows would all fail or whose order fit would."""
        if self.reference not in REFERENCES:
            raise DomainError(f"unknown reference {self.reference!r}; pick from {REFERENCES}")
        if len(self.epsilon_list) < 1:
            raise DomainError("epsilon_list must not be empty")
        if self.reference == "dirac_momentum" and not self.cprofile.homogeneous:
            raise DomainError(
                f"reference 'dirac_momentum' needs a homogeneous profile; got {self.cprofile.name!r}"
            )
        if self.reference == "dirac_momentum" and self.alpha == 1.0:
            raise DomainError(
                "reference 'dirac_momentum' is the continuum limit, but at alpha = 1 the grid "
                "stays fixed and the walk tends to the lattice Hamiltonian; use 'lattice_exact'"
            )
        _check_chirality_mix(self.chirality_mix)
        if self.alpha == 1.0 and abs(self.length - round(self.length)) > 1e-9:
            raise DomainError(
                f"alpha = 1 fixes the spacing at 1, so length must be an integer; got {self.length}"
            )
        snapped = [row.epsilon for _, row, _ in self._plan()]
        if any(b >= a for a, b in zip(snapped, snapped[1:])):
            raise DomainError(
                f"epsilon_list must be strictly decreasing on the grid; it snaps to {snapped}"
            )

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
        if self.reference != "auto":
            return self.reference
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
    time_reached: float = dc_field(default=0.0, metadata={"csv": False})
    failure: str | None = dc_field(default=None, metadata={"csv": False})


_CSV_FIELDS = tuple(f.name for f in fields(SweepRow) if f.metadata.get("csv", True))


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

    CSV_HEADER = ",".join(_CSV_FIELDS)

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            values = (getattr(r, name) for name in _CSV_FIELDS)
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in values))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# initial data


def _check_chirality_mix(chirality_mix: float) -> None:
    if not 0.0 <= chirality_mix <= 1.0:
        raise DomainError(f"chirality_mix must lie in [0, 1], got {chirality_mix}")


def make_wavepacket(
    N: int, dx: float, x0: float, w: float, k0: float, chirality_mix: float = 0.5
) -> SpinorField:
    """Normalized Gaussian packet exp(-(x-x0)^2/(4 w^2)) e^{i k0 x}.

    ``chirality_mix`` splits the weight between the components: 1 puts all
    of it on plus, 0 on minus. The envelope is periodized by summing image
    charges over a few ring lengths.
    """
    if w < 4.0 * dx:
        raise ResolutionError(f"width w = {w} below the resolvable minimum 4*dx = {4 * dx}")
    _check_chirality_mix(chirality_mix)
    length = N * dx
    x = np.arange(N) * dx
    env = np.zeros(N)
    for s in (-2, -1, 0, 1, 2):
        env += np.exp(-((x - x0 + s * length) ** 2) / (4.0 * w ** 2))
    wave = env * np.exp(1j * k0 * x)
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


def _snap_epsilon(alpha: float, length: float, eps: float) -> tuple[float, int, list[str]]:
    """Grid-compatible epsilon and site count; records any adjustment."""
    notes = []
    if alpha == 1.0:
        n = int(round(length))  # dx = 1 by construction of the scaling
        return eps, n, notes
    dx = eps ** (1.0 - alpha)
    n = max(2, int(round(length / dx)))
    eps_adj = (length / n) ** (1.0 / (1.0 - alpha))
    if abs(eps_adj - eps) > 1e-12 * eps:
        notes.append(f"epsilon {eps:.17g} snapped to {eps_adj:.17g} (N = {n})")
    return eps_adj, n, notes


def _grid(
    alpha: float, length: float, T: float, eps: float
) -> tuple[float, int, int, float, list[str]]:
    """Snapped epsilon, site count, walk steps to reach T, the time they reach, and notes."""
    eps_adj, n, notes = _snap_epsilon(alpha, length, eps)
    steps = max(1, int(round(T / (2.0 * eps_adj))))
    t_reach = 2.0 * eps_adj * steps
    if abs(t_reach - T) > eps_adj + 1e-12:
        notes.append(f"target time {T} reached as {t_reach:.17g} at epsilon {eps_adj:.17g}")
    return eps_adj, n, steps, t_reach, notes


def _reference_evolution(
    params: ScalingParams, psi0: SpinorField, t_reach: float, kind: str
) -> SpinorField:
    if kind == "lattice_exact":
        if params.cprofile.homogeneous:
            prop = lattice_propagator(
                psi0.n_sites, psi0.dx, params.m, params.cprofile(0.0, 0.0), t_reach
            )
            return prop.apply(psi0)
        h = lattice_hamiltonian_curved(psi0.n_sites, psi0.dx, params.m, params.cprofile, 0.0)
        return evolve_exact(h, psi0, t_reach)
    if kind == "dirac_momentum":
        prop = dirac_propagator(
            psi0.n_sites, psi0.dx, params.m, params.cprofile(0.0, 0.0), t_reach
        )
        return prop.apply(psi0)
    if kind == "curved_fine_grid":
        return curved_dirac_reference(psi0, params.cprofile, params.m, t_reach, refinement=8)
    raise DomainError(f"unknown reference kind {kind!r}")


def _run_row(spec: ExperimentSpec, params: ScalingParams, row: SweepRow, kind: str) -> SweepRow:
    """Fill in the errors of a planned row: the walk against its reference, in the frame."""
    t_start = time.perf_counter()
    psi0 = make_wavepacket(row.N, params.dx, spec.x0, spec.w, spec.k0, spec.chirality_mix)

    walked = evolve_walk(psi0, params, row.steps)
    frame = comparison_frame(params, psi0.positions())
    ref_initial = psi0.with_data(frame.apply_adjoint(psi0.data))
    ref_final = _reference_evolution(params, ref_initial, row.time_reached, kind)
    walked_in_frame = frame.apply_adjoint(walked.data)

    diff = walked_in_frame - ref_final.data
    return replace(
        row,
        error_l2=float(np.linalg.norm(diff) / np.linalg.norm(ref_final.data)),
        error_max=float(np.max(np.abs(diff))),
        walltime_s=time.perf_counter() - t_start,
    )


def _cross_validate_references(spec: ExperimentSpec, rows: list[SweepRow]) -> float:
    """L2 gap between the lattice reference on an 8x refined grid and the continuum one."""
    base = rows[0]  # largest epsilon: coarsest grid
    refinement = 8
    psi0 = make_wavepacket(base.N, base.dx, spec.x0, spec.w, spec.k0, spec.chirality_mix)
    c0 = spec.cprofile(0.0, 0.0)
    fine = trig_interpolate(psi0, refinement)
    prop = lattice_propagator(fine.n_sites, fine.dx, spec.m, c0, base.time_reached)
    lattice_side = restrict(prop.apply(fine), refinement)
    dirac_side = dirac_propagator(base.N, base.dx, spec.m, c0, base.time_reached).apply(psi0)
    return float(np.linalg.norm(lattice_side.data - dirac_side.data))


def run_convergence_sweep(spec: ExperimentSpec) -> SweepReport:
    """Run the walk against its reference for every epsilon and fit the order.

    The epsilon list is snapped to the grid once, before any row runs, and
    the rows run one after another in list order (descending epsilon).
    Per-row failures are recorded in the row and excluded from the fit
    instead of aborting the sweep.
    """
    ref_kind = spec.resolved_reference()
    adjustments: list[str] = []
    rows: list[SweepRow] = []
    for params, planned, notes in spec._plan():
        adjustments.extend(notes)
        try:
            rows.append(_run_row(spec, params, planned, ref_kind))
        except Exception as exc:  # per-row failures must not abort the sweep
            rows.append(replace(planned, failure=f"{type(exc).__name__}: {exc}"))

    flags: list[str] = []
    good = [r for r in rows if r.failure is None]
    for a, b in zip(good, good[1:]):
        if b.error_l2 > a.error_l2 + 1e-15:
            flags.append(
                f"non-monotone errors: {a.error_l2:.3e} at eps={a.epsilon:.3g} -> "
                f"{b.error_l2:.3e} at eps={b.epsilon:.3g}"
            )
    for r in rows:
        if r.failure is not None:
            flags.append(f"row epsilon={r.epsilon:.3g} failed: {r.failure}")

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

    gap: float | None = None
    if spec.alpha == 0.0 and spec.cprofile.homogeneous and good:
        # the two references must agree well below the walk's smallest error
        gap = _cross_validate_references(spec, good)
        smallest = min(r.error_l2 for r in good)
        if gap > smallest / 10.0:
            flags.append(
                f"reference cross-validation gap {gap:.3e} exceeds smallest error/10 "
                f"({smallest / 10.0:.3e}); sweep flagged invalid"
            )

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
    )


def estimate_order(rows: list[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(epsilon).

    Returns the slope and the standard-error half-width of the fit. Raises
    DegenerateError when any error sits at the noise floor (<= 1e-14), in
    which case callers should report the comparison as exact instead of
    quoting an order.
    """
    if len(rows) < 3:
        raise DomainError(f"need at least 3 rows to fit an order, got {len(rows)}")
    eps = np.array([r[0] for r in rows], dtype=float)
    err = np.array([r[1] for r in rows], dtype=float)
    if np.any(np.diff(eps) >= 0):
        raise DomainError("epsilon values must be strictly decreasing")
    if np.any(err <= 1e-14):
        raise DegenerateError("errors at the noise floor; comparison is exact")
    if np.any(err < 0) or not np.all(np.isfinite(err)):
        raise DomainError("errors must be positive and finite")
    x = np.log(eps)
    y = np.log(err)
    n = len(x)
    xbar = x.mean()
    sxx = np.sum((x - xbar) ** 2)
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = y.mean() - slope * xbar
    resid = y - (intercept + slope * x)
    if n > 2:
        se = float(np.sqrt(np.sum(resid ** 2) / (n - 2) / sxx))
    else:
        se = 0.0
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
        lines = ["k,walk_phase_minus,walk_phase_plus,lattice_energy,continuum_energy"]
        for i, k in enumerate(self.ks):
            lines.append(
                ",".join(
                    f"{v:.17g}"
                    for v in (
                        k,
                        self.walk_phases[i, 0],
                        self.walk_phases[i, 1],
                        self.lattice_energy[i],
                        self.continuum_energy[i],
                    )
                )
            )
        return "\n".join(lines) + "\n"


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
