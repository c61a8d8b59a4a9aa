"""Command-line front end: configure, run, and export every experiment.

The grammar is fixed, ``plasticwalk COMMAND [--config PATH] [--out DIR]
[--seed N]``, and ``load_config`` parses it directly, with no parser library:
each flag is ``--flag VALUE`` or ``--flag=VALUE`` and the last one given
wins; ``--version`` and ``-h`` print and exit 0.
A single JSON document configures a run; command-line flags override
config fields, which override defaults. Exit codes: 0 success, 1 runtime
or numerical failure, 2 configuration error, a command-line error
included. All files are written atomically (a new file in the target
directory, created with the umask's mode, then renamed) and floats are
printed with 17 significant digits (``%.17g``) so they round-trip exactly;
the CSV tables (snapshots, sweep rows, dispersion scans) are formatted on
whole arrays by ``_csv.rows``, with the same bytes.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path

import numpy as np

from .errors import BudgetError, ConfigError, PlasticWalkError
from .fields import CProfile
from .harness import (
    CELL_BUDGET,
    MOMENTUM_BUDGET,
    ExperimentSpec,
    _check_packet,
    _environment,
    _grid,
    dispersion_scan,
    make_wavepacket,
    run_convergence_sweep,
)
from .qca import _crossing_gates, _popcount, gate_V, verify_encoding
from .qca import dense_step_operator  # not called here; perfbench/probes.py patches it on this module
from .walk import _trajectory
from .walk import qw_step  # not called here; perfbench/probes.py patches it on this module
from . import __version__, _csv

COMMANDS = ("simulate", "sweep", "dispersion", "qca")
USAGE = "usage: plasticwalk {" + ",".join(COMMANDS) + "} [--config PATH] [--out DIR] [--seed N]"

# each profile name and its constructor, whose parameters are the profile's config keys
_PROFILES = {
    "flat": CProfile.constant, "sine-bump": CProfile.sine_bump, "gaussian-well": CProfile.gaussian_well
}


def _is_real(value) -> bool:
    """A finite JSON number: not a bool, not inf, not an integer too large for a float."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


# what a RunConfig field of each annotation admits, and how a refusal names it
_SHAPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_real, "a finite real number"),
    "float | None": (lambda v: v is None or _is_real(v), "a finite real number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list) and v != [] and all(map(_is_real, v)),
             "a non-empty list of finite real numbers"),
    "dict": (lambda v: isinstance(v, dict), "a JSON object"),
}


def _wrong(name: str, value, kind: str) -> ConfigError:
    return ConfigError(f"field '{name}': got {value!r} (type {type(value).__name__}), must be {kind}")


@contextlib.contextmanager
def _building():
    """The one boundary: a package error raised while a command turns its config into
    domain objects, before its first write, is a configuration error (exit 2); after, exit 1."""
    try:
        yield
    except PlasticWalkError as exc:
        raise ConfigError(str(exc)) from exc


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
    profile: dict = dc_field(default_factory=lambda: {"name": "flat"})  # keys: _profile_defaults
    initial: dict = dc_field(default_factory=dict)  # keys: _packet_defaults
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
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        return cls.from_dict(_json_object(text))

    def validate(self) -> None:
        """Refuse a bad config with a ConfigError. Each field's JSON shape follows its annotation;
        each physics range is checked by building the domain object that owns it."""
        self._check_shape()
        if self.command not in COMMANDS:
            raise ConfigError(
                f"field 'command': got {self.command!r}, must be one of simulate|sweep|dispersion|qca"
            )
        for name, least in (("threads", 1), ("snapshot_stride", 1), ("k_count", 2), ("qca_cells", 2)):
            if getattr(self, name) < least:
                raise ConfigError(f"field '{name}': got {getattr(self, name)}, must be >= {least}")
        if self.min_order is not None and self.min_order < 0:
            raise ConfigError(f"field 'min_order': got {self.min_order}, must be >= 0 or null")
        with _building():
            for name, budget in (("k_count", MOMENTUM_BUDGET), ("qca_cells", CELL_BUDGET)):
                if getattr(self, name) > budget:
                    raise BudgetError(f"field '{name}': got {getattr(self, name)}, over its budget of {budget}")
            profile = self.build_profile()
            for eps in (self.epsilon, *self.epsilon_list):
                _grid(self.m, profile, self.alpha, self.length, self.T, eps)
            _check_packet(*self._packet(), self.length)

    def _check_shape(self) -> None:
        """Each field's JSON type against its annotation; profile and initial hold known keys, each a real."""
        for f in fields(self):
            admits, kind = _SHAPES[f.type]
            if not admits(getattr(self, f.name)):
                raise _wrong(f.name, getattr(self, f.name), kind)
        name = self.profile.get("name")
        if name not in _PROFILES:
            raise ConfigError(f"field 'profile.name': got {name!r}, must be one of {list(_PROFILES)}")
        for field, entries, known in (
            ("profile", {k: v for k, v in self.profile.items() if k != "name"}, self._profile_defaults()),
            ("initial", self.initial, self._packet_defaults()),
        ):
            for key, value in entries.items():
                if key not in known:
                    raise ConfigError(f"field '{field}.{key}': unknown key; {field} reads {list(known)}")
                if not _is_real(value):
                    raise _wrong(f"{field}.{key}", value, "a finite real number")

    def _packet_defaults(self) -> dict:
        return {"x0": self.length / 2, "w": 8.0, "k0": float(np.pi / 8), "chirality_mix": 0.5}

    def _packet(self) -> tuple[float, float, float, float]:
        """Initial packet (x0, w, k0, chirality_mix); a missing key takes its default."""
        return tuple({**self._packet_defaults(), **self.initial}.values())

    def _profile_defaults(self) -> dict:
        """The keys the profile's name reads, each with the value it takes when missing."""
        return {
            "flat": {"c0": 0.5},
            "sine-bump": {"c0": 0.5, "a": 0.3, "length": self.length},
            "gaussian-well": {"c0": 0.8, "depth": 0.3, "center": self.length / 2, "width": self.length / 8},
        }[self.profile["name"]]

    def build_profile(self) -> CProfile:
        args = {**self._profile_defaults(), **self.profile}
        return _PROFILES[args.pop("name")](**args)


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


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def atomic_write(path: Path, text: str) -> None:
    """Write text to a new file beside path, then rename it over path. The file is
    created with mode 0o666, which the umask narrows, as for any file the user creates."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")  # unique across processes
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sublattice_weights(field) -> list[float]:
    """Weights [even, odd] of the even and the odd sites; on an even ring each step keeps both."""
    return [float(np.sum(np.abs(field.data[parity::2]) ** 2)) for parity in (0, 1)]


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    with _building():  # a narrow packet or a coin _grid refuses leaves no snapshot behind
        params, n, steps, t_reach, _ = _grid(
            cfg.m, cfg.build_profile(), cfg.alpha, cfg.length, cfg.T, cfg.epsilon)
        field = make_wavepacket(n, params.dx, *cfg._packet())
    norm0 = field.norm()
    xs = field.positions()
    x_text = _csv.records(xs[:, None])  # the x column is the same in every snapshot

    def write_snapshot(idx: int, fld) -> None:
        cols = np.column_stack((fld.plus.real, fld.plus.imag, fld.minus.real, fld.minus.imag, fld.density()))
        text = "x,re_plus,im_plus,re_minus,im_minus,density\n" + _csv.rows(cols, head=x_text)
        atomic_write(out_dir / f"snapshot_{idx:06d}.csv", text)

    write_snapshot(0, field)
    weights0 = _sublattice_weights(field)
    for done, field in _trajectory(field, params, steps, cfg.snapshot_stride):
        write_snapshot(done, field)

    drift = abs(field.norm() - norm0)
    cs = params.cprofile.sample(t_reach, xs)
    current = float(np.sum(cs * (np.abs(field.minus) ** 2 - np.abs(field.plus) ** 2)))
    print(f"simulate: N={n} epsilon={_fmt(params.epsilon)} steps={steps} t={_fmt(t_reach)}")
    print(f"final norm = {_fmt(field.norm())}  (drift {drift:.3e})")
    print(f"probability current (rightward, summed) = {_fmt(current)}")
    summary = {
        "command": "simulate",
        "epsilon": params.epsilon,
        "N": n,
        "steps": steps,
        "final_norm": field.norm(),
        "norm_drift": drift,
        "sublattice_weights_initial": weights0,
        "sublattice_weights_final": _sublattice_weights(field),
        "current_sum": current,
        "seed": cfg.seed,
        "code_version": __version__,
        "environment": dict(_environment()),
    }
    atomic_write(out_dir / "simulate.json", json.dumps(summary, indent=2) + "\n")
    return 0 if drift <= 1e-10 else 1


def cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    x0, w, k0, chirality_mix = cfg._packet()
    with _building():
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
    report = run_convergence_sweep(spec, cfg.min_order)  # the harness decides every check
    atomic_write(out_dir / "sweep.csv", report.to_csv())
    payload = report.to_json_dict()
    payload["seed"] = cfg.seed
    atomic_write(out_dir / "sweep.json", json.dumps(payload, indent=2) + "\n")

    order = "exact" if report.exact else f"{report.fitted_order}"
    print(f"sweep: reference={report.reference} frame={report.frame} fitted_order={order}")
    for r in report.rows:
        status = r.failure or f"error_l2={r.error_l2:.6e}"
        print(f"  epsilon={_fmt(r.epsilon)} N={r.N} steps={r.steps} {status}")
    for f in report.flags:
        print(f"  flag: {f}")
    for chk in report.checks:
        print(f"  check {chk['name']}: {'pass' if chk['passed'] else 'FAIL'} {chk['detail']}")
    return 0 if all(c["passed"] for c in report.checks) else 1


def cmd_dispersion(cfg: RunConfig, out_dir: Path) -> int:
    with _building():  # an inhomogeneous profile leaves no table behind
        params = _grid(cfg.m, cfg.build_profile(), cfg.alpha, cfg.length, cfg.T, cfg.epsilon)[0]
        table = dispersion_scan(params, cfg.k_count)
    atomic_write(out_dir / "dispersion.csv", table.to_csv())
    edge = int(np.argmin(np.abs(np.abs(table.ks) - np.pi / params.dx)))
    print(
        f"dispersion: {cfg.k_count} momenta, dx={_fmt(params.dx)}; "
        f"lattice energy at zone edge = {_fmt(table.lattice_energy[edge])}"
        f" (continuum {_fmt(table.continuum_energy[edge])})"
    )
    summary = {
        "command": "dispersion",
        "epsilon": params.epsilon,
        "k_count": cfg.k_count,
        "zone_edge_lattice_energy": float(table.lattice_energy[edge]),
        "zone_edge_continuum_energy": float(table.continuum_energy[edge]),
        "max_abs_walk_phase": float(np.max(np.abs(table.walk_phases))),
        "seed": cfg.seed,
        "code_version": __version__,
        "environment": dict(_environment()),
    }
    atomic_write(out_dir / "dispersion.json", json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_qca(cfg: RunConfig, out_dir: Path) -> int:
    residual = verify_encoding(cfg.qca_theta, cfg.qca_zeta, cfg.qca_cells)
    residual_ok = residual <= 1e-12

    # every entry of the stepper's gates between two-qubit states of different occupation
    w = _popcount(2)
    gates = np.concatenate([_crossing_gates(cfg.qca_cells, cfg.qca_theta, cfg.qca_zeta), gate_V()[None]])
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
        "environment": dict(_environment()),
    }
    atomic_write(out_dir / "qca_report.json", json.dumps(report, indent=2) + "\n")
    print(f"qca: N={cfg.qca_cells} encoding residual = {residual:.3e} ({'ok' if residual_ok else 'FAIL'})")
    print(
        f"qca: number conservation on {cfg.qca_cells} cells "
        f"{'exact' if conservation_exact else f'violated by {off_sector:.3e}'}"
    )
    return 0 if (residual_ok and conservation_exact) else 1


def _usage_error(message: str) -> ConfigError:
    return ConfigError(f"{message}\n{USAGE}")


def _flags(tokens: list[str]) -> dict:
    """A command's flags by name, each written --flag VALUE or --flag=VALUE; the last one given wins."""
    given: dict = {}
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in ("--config", "--out", "--seed"):
            raise _usage_error(f"unknown option {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):  # --out=--x names a directory "--x"
                raise _usage_error(f"option {flag} needs a value")
        given[flag[2:]] = value
    if "seed" in given:
        try:
            given["seed"] = int(given["seed"])
        except ValueError:
            raise _usage_error(f"option --seed: got {given['seed']!r}, must be an integer") from None
    return given


def load_config(argv: list[str]) -> RunConfig:
    """The one step from a command line to a validated config; precedence: flags > config file > defaults."""
    if not argv or argv[0] not in COMMANDS:
        raise _usage_error(f"unknown command {argv[0]!r}" if argv else "no command given")
    flags = _flags(argv[1:])
    raw: dict = {}
    path = flags.pop("config", None)
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")  # JSON text is UTF-8
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not text
            raise ConfigError(f"field 'config': cannot read {path}: {exc}") from exc
        if text.strip():  # a blank file is the empty config
            raw = _json_object(text)
    return RunConfig.from_dict({**raw, "command": argv[0], **flags})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--version"]:
        print(f"plasticwalk {__version__}")
        return 0
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    # looked up per call, so that a handler patched on this module is the one that runs
    handlers = {"simulate": cmd_simulate, "sweep": cmd_sweep, "dispersion": cmd_dispersion, "qca": cmd_qca}
    try:
        cfg = load_config(argv)
        return handlers[cfg.command](cfg, Path(cfg.out))
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
