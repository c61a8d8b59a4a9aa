"""Command-line front end: configure, run, and export every experiment.

A single JSON document configures a run; command-line flags override
config fields, which override defaults. Exit codes: 0 success, 1 runtime
or numerical failure, 2 configuration error. All files are written
atomically (temp file in the target directory, then rename) and floats are
printed with 17 significant digits (``%.17g``) so they round-trip exactly;
the CSV tables (snapshots, sweep rows, dispersion scans) are formatted on
whole arrays by ``_csv.rows``, with the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, PlasticWalkError, SingularMassError
from .fields import CProfile
from .harness import (
    ExperimentSpec,
    _grid,
    _snap_epsilon,
    dispersion_scan,
    make_wavepacket,
    run_convergence_sweep,
)
from .qca import _crossing_gates, _popcount, gate_V, verify_encoding
from .qca import dense_step_operator  # not called here; perfbench/probes.py patches it on this module
from .scaling import ScalingParams
from .walk import evolve_walk, trajectory_operators
from .walk import qw_step  # not called here; perfbench/probes.py patches it on this module
from . import __version__, _csv

PROFILE_NAMES = ("flat", "sine-bump", "gaussian-well")


@dataclass
class RunConfig:
    """Full description of one CLI run; serializes losslessly to JSON."""

    command: str = "simulate"
    out: str = "runs"
    threads: int = 1  # accepted and validated; sweeps run serially, so it has no effect
    seed: int = 0
    alpha: float = 1.0
    m: float = 0.2
    length: float = 64.0
    T: float = 4.0
    profile: dict = dc_field(default_factory=lambda: {"name": "flat", "c0": 0.5})
    initial: dict = dc_field(
        default_factory=lambda: {"x0": 32.0, "w": 8.0, "k0": float(np.pi / 8), "chirality_mix": 0.5}
    )
    epsilon: float = 0.05
    snapshot_stride: int = 10
    epsilon_list: list = dc_field(default_factory=lambda: [0.2, 0.1, 0.05, 0.025])
    reference: str = "auto"
    min_order: float | None = None
    k_count: int = 64
    qca_cells: int = 8
    qca_theta: float = 1.0
    qca_zeta: float = 0.3

    def to_dict(self) -> dict:
        return asdict(self)

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        cfg = cls(**raw)
        try:
            cfg.validate()
        except TypeError as exc:
            raise ConfigError(f"config field has the wrong type: {exc}") from exc
        return cfg

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        return cls.from_dict(_json_object(text))

    def validate(self) -> None:
        if self.command not in ("simulate", "sweep", "dispersion", "qca"):
            raise ConfigError(
                f"field 'command': got {self.command!r}, must be one of simulate|sweep|dispersion|qca"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"field 'alpha': got {self.alpha}, valid range is [0, 1]")
        for name in ("m", "length", "T"):
            _require_real(name, getattr(self, name))
        if self.m < 0:
            raise ConfigError(f"field 'm': got {self.m}, must be >= 0")
        if self.length <= 0:
            raise ConfigError(f"field 'length': got {self.length}, must be > 0")
        if self.T <= 0:
            raise ConfigError(f"field 'T': got {self.T}, must be > 0")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"field 'epsilon': got {self.epsilon}, valid range is (0, 1]")
        if self.threads < 1:
            raise ConfigError(f"field 'threads': got {self.threads}, must be >= 1")
        if self.snapshot_stride < 1:
            raise ConfigError(f"field 'snapshot_stride': got {self.snapshot_stride}, must be >= 1")
        if self.k_count < 2:
            raise ConfigError(f"field 'k_count': got {self.k_count}, must be >= 2")
        if not isinstance(self.profile, dict) or self.profile.get("name") not in PROFILE_NAMES:
            raise ConfigError(
                f"field 'profile.name': got {self.profile.get('name') if isinstance(self.profile, dict) else self.profile!r}, "
                f"must be one of {PROFILE_NAMES}"
            )
        if not isinstance(self.initial, dict):
            raise ConfigError(f"field 'initial': got {self.initial!r}, must be a JSON object")
        for key in ("x0", "w", "k0", "chirality_mix"):
            if key in self.initial:
                _require_real(f"initial.{key}", self.initial[key])
        mix = self._packet()[3]
        if not 0.0 <= mix <= 1.0:
            raise ConfigError(f"field 'initial.chirality_mix': got {mix}, valid range is [0, 1]")
        if not self.epsilon_list:
            raise ConfigError("field 'epsilon_list': must not be empty")
        if any(not 0.0 < e <= 1.0 for e in self.epsilon_list):
            raise ConfigError("field 'epsilon_list': every value must lie in (0, 1]")
        if not isinstance(self.qca_cells, int):
            raise ConfigError(f"field 'qca_cells': got {self.qca_cells!r}, must be an integer")
        if self.qca_cells < 2:
            raise ConfigError(f"field 'qca_cells': got {self.qca_cells}, must be >= 2")
        _require_real("qca_theta", self.qca_theta)
        _require_real("qca_zeta", self.qca_zeta)
        if self.min_order is not None and self.min_order < 0:
            raise ConfigError(f"field 'min_order': got {self.min_order}, must be >= 0 or null")

    def _packet(self) -> tuple[float, float, float, float]:
        """Initial packet (x0, w, k0, chirality_mix); a missing key takes its default."""
        ini = self.initial
        return (
            ini.get("x0", self.length / 2),
            ini.get("w", 8.0),
            ini.get("k0", float(np.pi / 8)),
            ini.get("chirality_mix", 0.5),
        )

    def build_profile(self) -> CProfile:
        p = dict(self.profile)
        name = p.pop("name")
        try:
            if name == "flat":
                return CProfile.constant(p.get("c0", 0.5))
            if name == "sine-bump":
                return CProfile.sine_bump(
                    p.get("c0", 0.5), p.get("a", 0.3), p.get("length", self.length)
                )
            return CProfile.gaussian_well(
                p.get("c0", 0.8),
                p.get("depth", 0.3),
                p.get("center", self.length / 2),
                p.get("width", self.length / 8),
            )
        except PlasticWalkError as exc:
            raise ConfigError(f"field 'profile': {exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"field 'profile' has the wrong type: {exc}") from exc


def _non_number(literal: str):
    raise ConfigError(f"config is not valid JSON: {literal} is not a JSON number")


def _json_object(text: str) -> dict:
    try:
        raw = json.loads(text, parse_constant=_non_number)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _require_real(name: str, value) -> None:
    # a literal such as 1e400 parses to inf
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ConfigError(f"field '{name}': got {value!r}, must be a finite real number")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    eps, n, steps, t_reach, _ = _grid(cfg.alpha, cfg.length, cfg.T, cfg.epsilon)
    params = ScalingParams(m=cfg.m, cprofile=cfg.build_profile(), epsilon=eps, alpha=cfg.alpha)
    field = make_wavepacket(n, params.dx, *cfg._packet())
    try:  # before any output, so a singular coin leaves no snapshot behind
        ops = trajectory_operators(params, field)
    except SingularMassError as exc:
        raise ConfigError(f"coin at epsilon {eps:.6g}: {exc}") from exc
    norm0 = field.norm()
    xs = field.positions()
    x_text = _csv.records(xs[:, None])  # the x column is the same in every snapshot

    def write_snapshot(idx: int, fld) -> None:
        cols = np.column_stack((fld.plus.real, fld.plus.imag, fld.minus.real, fld.minus.imag, fld.density()))
        text = "x,re_plus,im_plus,re_minus,im_minus,density\n" + _csv.rows(cols, head=x_text)
        atomic_write(out_dir / f"snapshot_{idx:06d}.csv", text)

    write_snapshot(0, field)
    for start in range(0, steps, cfg.snapshot_stride):
        stop = min(start + cfg.snapshot_stride, steps)
        field = evolve_walk(field, params, stop - start, 2.0 * eps * start, ops=ops)
        write_snapshot(stop, field)

    drift = abs(field.norm() - norm0)
    cs = params.cprofile.sample(t_reach, xs)
    current = float(np.sum(cs * (np.abs(field.minus) ** 2 - np.abs(field.plus) ** 2)))
    print(f"simulate: N={n} epsilon={_fmt(eps)} steps={steps} t={_fmt(t_reach)}")
    print(f"final norm = {_fmt(field.norm())}  (drift {drift:.3e})")
    print(f"probability current (rightward, summed) = {_fmt(current)}")
    summary = {
        "command": "simulate",
        "epsilon": eps,
        "N": n,
        "steps": steps,
        "final_norm": field.norm(),
        "norm_drift": drift,
        "current_sum": current,
        "seed": cfg.seed,
        "code_version": __version__,
    }
    atomic_write(out_dir / "simulate.json", json.dumps(summary, indent=2) + "\n")
    return 0 if drift <= 1e-10 else 1


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    x0, w, k0, chirality_mix = cfg._packet()
    try:
        spec = ExperimentSpec(
            alpha=cfg.alpha,
            m=cfg.m,
            cprofile=cfg.build_profile(),
            length=cfg.length,
            T=cfg.T,
            epsilon_list=sorted(cfg.epsilon_list, reverse=True),
            x0=x0,
            w=w,
            k0=k0,
            chirality_mix=chirality_mix,
            reference=cfg.reference,
        )
    except DomainError as exc:
        raise ConfigError(f"sweep spec: {exc}") from exc
    report = run_convergence_sweep(spec)
    atomic_write(out_dir / "sweep.csv", report.to_csv())

    checks = []
    row_failures = [r for r in report.rows if r.failure is not None]
    checks.append(
        {"name": "rows_completed", "passed": not row_failures,
         "detail": f"{len(report.rows) - len(row_failures)}/{len(report.rows)} rows"}
    )
    monotone = not any(f.startswith("non-monotone") for f in report.flags)
    checks.append({"name": "monotone_errors", "passed": monotone, "detail": ""})
    crossval = not any("cross-validation gap" in f for f in report.flags)
    checks.append({"name": "reference_cross_validation", "passed": crossval, "detail": ""})
    resolved = not any(f.startswith("reference error") for f in report.flags)
    detail = "" if report.reference_error is None else f"reference error {report.reference_error:.3e}"
    checks.append({"name": "reference_resolution", "passed": resolved, "detail": detail})
    if cfg.min_order is not None:
        ok = report.exact or (report.fitted_order is not None and report.fitted_order >= cfg.min_order)
        detail = "exact" if report.exact else f"fitted {report.fitted_order}"
        checks.append({"name": "min_order", "passed": ok, "detail": detail})

    payload = report.to_json_dict()
    payload["checks"] = checks
    payload["seed"] = cfg.seed
    atomic_write(out_dir / "sweep.json", json.dumps(payload, indent=2) + "\n")

    order = "exact" if report.exact else f"{report.fitted_order}"
    print(f"sweep: reference={report.reference} frame={report.frame} fitted_order={order}")
    for r in report.rows:
        status = r.failure or f"error_l2={r.error_l2:.6e}"
        print(f"  epsilon={_fmt(r.epsilon)} N={r.N} steps={r.steps} {status}")
    for f in report.flags:
        print(f"  flag: {f}")
    for chk in checks:
        print(f"  check {chk['name']}: {'pass' if chk['passed'] else 'FAIL'} {chk['detail']}")
    return 0 if all(c["passed"] for c in checks) else 1


def cmd_dispersion(cfg: RunConfig, out_dir: Path) -> int:
    profile = cfg.build_profile()
    if not profile.homogeneous:
        raise ConfigError("field 'profile': dispersion requires a homogeneous profile")
    eps, _, _ = _snap_epsilon(cfg.alpha, cfg.length, cfg.epsilon)
    params = ScalingParams(m=cfg.m, cprofile=profile, epsilon=eps, alpha=cfg.alpha)
    try:
        table = dispersion_scan(params, cfg.k_count)
    except SingularMassError as exc:
        raise ConfigError(f"coin at epsilon {eps:.6g}: {exc}") from exc
    atomic_write(out_dir / "dispersion.csv", table.to_csv())
    edge = int(np.argmin(np.abs(np.abs(table.ks) - np.pi / params.dx)))
    print(
        f"dispersion: {cfg.k_count} momenta, dx={_fmt(params.dx)}; "
        f"lattice energy at zone edge = {_fmt(table.lattice_energy[edge])}"
        f" (continuum {_fmt(table.continuum_energy[edge])})"
    )
    summary = {
        "command": "dispersion",
        "epsilon": eps,
        "k_count": cfg.k_count,
        "zone_edge_lattice_energy": float(table.lattice_energy[edge]),
        "zone_edge_continuum_energy": float(table.continuum_energy[edge]),
        "max_abs_walk_phase": float(np.max(np.abs(table.walk_phases))),
        "seed": cfg.seed,
        "code_version": __version__,
    }
    atomic_write(out_dir / "dispersion.json", json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_qca(cfg: RunConfig, out_dir: Path) -> int:
    residual = verify_encoding(cfg.qca_theta, cfg.qca_zeta, cfg.qca_cells)
    residual_ok = residual <= 1e-12

    # every entry of the stepper's gates between two-qubit states of different occupation
    w = _popcount(2)
    gates = np.stack(_crossing_gates(cfg.qca_cells, cfg.qca_theta, cfg.qca_zeta) + [gate_V()])
    off_sector = float(np.max(np.abs(gates[:, w[:, None] != w[None, :]])))
    conservation_exact = off_sector == 0.0

    report = {
        "command": "qca",
        "cells": cfg.qca_cells,
        "theta": cfg.qca_theta,
        "zeta": cfg.qca_zeta,
        "encoding_residual": residual,
        "encoding_ok": bool(residual_ok),
        "number_conservation_cells": cfg.qca_cells,
        "number_conservation_off_sector_max": off_sector,
        "number_conservation_exact": bool(conservation_exact),
        "seed": cfg.seed,
        "code_version": __version__,
    }
    atomic_write(out_dir / "qca_report.json", json.dumps(report, indent=2) + "\n")
    print(f"qca: N={cfg.qca_cells} encoding residual = {residual:.3e} ({'ok' if residual_ok else 'FAIL'})")
    print(
        f"qca: number conservation on {cfg.qca_cells} cells "
        f"{'exact' if conservation_exact else f'violated by {off_sector:.3e}'}"
    )
    return 0 if (residual_ok and conservation_exact) else 1


@functools.cache  # parse_args leaves the parser unchanged, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plasticwalk",
        description="Tunable-scaling quantum walk laboratory",
    )
    parser.add_argument("--version", action="version", version=f"plasticwalk {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name in ("simulate", "sweep", "dispersion", "qca"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="seed recorded in outputs; main path is deterministic")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"field 'config': file {path} does not exist")
        text = path.read_text()
        if text.strip():  # a blank file is the empty config
            raw = _json_object(text)
    raw["command"] = args.command
    # precedence: flags > config > defaults
    if args.out is not None:
        raw["out"] = args.out
    if args.seed is not None:
        raw["seed"] = args.seed
    return RunConfig.from_dict(raw)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.out)
    handlers = {
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "dispersion": cmd_dispersion,
        "qca": cmd_qca,
    }
    try:
        return handlers[cfg.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PlasticWalkError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical/any failure: nonzero but distinct from config
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
