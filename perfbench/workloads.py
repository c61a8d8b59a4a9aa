"""The three benchmark workloads: seeded inputs, the timed work, the checks.

The seed moves only packet centre and momentum, chirality mix, profile
amplitude, QCA angles and orbitals, inside ranges that keep every grid
size, step count and qubit count fixed, so a run's work does not depend on
the seed. ``SHAPES`` holds those sizes; every run checks the program's
outputs against them.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("acceptance-sweeps", "simulate-curved", "qca-many-body")

EPS_ALPHA1 = [0.2, 0.1, 0.05, 0.025, 0.0125]
EPS_ALPHA0 = [0.5, 0.25, 0.125, 0.0625]
EPS_ALPHA_HALF = [(64.0 / n) ** 2 for n in (256, 512, 1024, 2048)]
DISPERSION_CASES = ((1.0, 0.0), (0.5, 0.2), (0.8, 1.0))  # (c, m), criterion 4
DISPERSION_EPS = [0.02, 0.01, 0.005, 0.0025]
SIM_CELLS = 2048
SIM_STEPS = 2048
SIM_STRIDE = 64
QCA_CLI_CELLS = 8
MB_CELLS = 10
MB_PARTICLES = 3
MB_STEPS = 4

# (N, steps) of every sweep row; sizes follow from the fixed epsilon lists
SHAPES = {
    "flat-alpha1": [(64, s) for s in (10, 20, 40, 80, 160)],
    "flat-alpha0": [(n, s) for n, s in ((128, 4), (256, 8), (512, 16), (1024, 32))],
    "flat-alpha0.5": [(n, s) for n, s in ((256, 32), (512, 128), (1024, 512), (2048, 2048))],
    "bump-alpha1": [(64, s) for s in (10, 20, 40, 80, 160)],
    "bump-alpha0": [(n, s) for n, s in ((128, 4), (256, 8), (512, 16), (1024, 32))],
}


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of one run, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if workload == "acceptance-sweeps":
        initial = {
            "x0": float(rng.uniform(28.0, 36.0)),
            "w": 8.0,
            "k0": float(np.pi / 8 * rng.uniform(0.95, 1.05)),  # the alpha=0.5 order dips to 0.91 at +-10%
            "chirality_mix": float(rng.uniform(0.3, 0.7)),
        }
        bump = {"name": "sine-bump", "c0": 0.5, "a": float(rng.uniform(0.25, 0.35)), "length": 64.0}
        flat = {"name": "flat", "c0": 0.5}
        base = {"length": 64.0, "T": 4.0, "initial": initial, "min_order": 0.9, "threads": 1, "seed": seed}
        sweeps = {
            "flat-alpha1": dict(base, alpha=1.0, m=0.2, profile=flat, epsilon_list=EPS_ALPHA1),
            "flat-alpha0": dict(base, alpha=0.0, m=0.2, profile=flat, epsilon_list=EPS_ALPHA0,
                                reference="dirac_momentum"),
            "flat-alpha0.5": dict(base, alpha=0.5, m=0.2, profile=flat, epsilon_list=EPS_ALPHA_HALF,
                                  reference="dirac_momentum"),
            "bump-alpha1": dict(base, alpha=1.0, m=0.1, profile=bump, epsilon_list=EPS_ALPHA1),
            "bump-alpha0": dict(base, alpha=0.0, m=0.1, profile=bump, epsilon_list=EPS_ALPHA0),
        }
        dispersion = {
            f"c{c}-m{m}-eps{eps}": {"alpha": 1.0, "m": m, "profile": {"name": "flat", "c0": c},
                                    "epsilon": eps, "k_count": 64, "seed": seed}
            for c, m in DISPERSION_CASES
            for eps in DISPERSION_EPS
        }
        dispersion["doubling"] = {"alpha": 1.0, "m": 0.0, "profile": {"name": "flat", "c0": 0.9},
                                  "epsilon": 0.01, "k_count": 64, "seed": seed}
        return {"sweep": sweeps, "dispersion": dispersion}
    if workload == "simulate-curved":
        return {"simulate": {"sim": {
            "alpha": 0.5,
            "m": 0.2,
            "length": 64.0,
            "T": 4.0,
            "epsilon": (64.0 / SIM_CELLS) ** 2,
            "profile": {"name": "gaussian-well", "c0": 0.8, "depth": float(rng.uniform(0.2, 0.4)),
                        "center": 32.0, "width": 8.0},
            "initial": {"x0": float(rng.uniform(24.0, 40.0)), "w": 4.0,
                        "k0": float(rng.uniform(0.2, 0.6)),
                        "chirality_mix": float(rng.uniform(0.3, 0.7))},
            "snapshot_stride": SIM_STRIDE,
            "seed": seed,
        }}}
    if workload == "qca-many-body":
        cli = {"qca_cells": QCA_CLI_CELLS, "qca_theta": float(rng.uniform(0.7, 1.3)),
               "qca_zeta": float(rng.uniform(0.1, 0.6)), "seed": seed}
        raw = rng.normal(size=(2 * MB_CELLS, MB_PARTICLES)) + 1j * rng.normal(size=(2 * MB_CELLS, MB_PARTICLES))
        orbitals, _ = np.linalg.qr(raw)
        return {
            "qca": {"qca": cli},
            "many_body": {"theta": float(rng.uniform(0.7, 1.3)), "zeta": float(rng.uniform(0.1, 0.6)),
                          "orbitals": orbitals},
        }
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


def write_configs(inputs: dict, workdir: Path) -> list[tuple[str, str, Path, Path]]:
    """Write one JSON config per CLI call; returns (command, label, config, out dir)."""
    calls = []
    for command in ("sweep", "dispersion", "simulate", "qca"):
        for label, cfg in inputs.get(command, {}).items():
            out = workdir / f"{command}-{label}"
            out.mkdir(parents=True)
            path = out / "config.json"
            path.write_text(json.dumps(cfg))
            calls.append((command, label, path, out))
    return calls


def run(pw, inputs: dict, calls) -> dict:
    """The timed work of one run; returns what the checks need."""
    codes = {}
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for command, label, path, out in calls:
            codes[(command, label)] = pw.cli.main([command, "--config", str(path), "--out", str(out)])
    raw = {"codes": codes, "log": log.getvalue()}
    if "many_body" in inputs:
        raw.update(_many_body(pw, **inputs["many_body"]))
    return raw


def _many_body(pw, theta: float, zeta: float, orbitals: np.ndarray) -> dict:
    """Criterion 7's comparison at 20 qubits: statevector against determinant."""
    state = pw.slater_determinant_state(pw.SlaterState(orbitals), MB_CELLS)
    norms, totals = [], []
    for _ in range(MB_STEPS):
        state = pw.qca_step(state, theta, zeta)
        occ = state.occupations()
        norms.append(state.norm())
        totals.append(float(occ.sum()))

    def one_particle_step(field):
        return pw.extract_one_particle(pw.qca_step(pw.embed_one_particle(field), theta, zeta))

    slater = pw.slater_evolve(pw.SlaterState(orbitals), one_particle_step, MB_STEPS)
    return {"norms": norms, "totals": totals, "occupations": occ,
            "slater_occupations": slater.occupations(), "slater_gram": slater.gram_deviation(),
            "reortho": slater.reortho_count}


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "passed": bool(ok), "detail": detail})


def check(inputs: dict, calls, raw: dict) -> tuple[list[dict], dict, list[float]]:
    """Gate the run's outputs.

    Returns the checks (one per CLI call, sweep row or library check), the
    recorded numbers, and a fingerprint that repeated runs with the same
    seed must reproduce.
    """
    checks: list[dict] = []
    recorded: dict = {}
    fingerprint: list[float] = []
    shape_ok = True
    residuals: dict[tuple[float, float], list[float]] = {}
    for command, label, _, out in calls:
        code = raw["codes"][(command, label)]
        name = f"cli.{command}.{label}"
        written = {"sweep": "sweep.json", "dispersion": "dispersion.json", "simulate": "simulate.json",
                   "qca": "qca_report.json"}[command]
        if not (out / written).exists():
            _check(checks, name, False, f"exit {code}, no {written}")
            shape_ok = False
            continue
        if command == "sweep":
            report = json.loads((out / "sweep.json").read_text())
            failing = [c["name"] for c in report["checks"] if not c["passed"]]
            _check(checks, name, code == 0 and not failing, f"exit {code}, failing checks {failing}")
            for row in report["rows"]:
                _check(checks, f"row.{label}.eps{row['epsilon']:.6g}", row["failure"] is None,
                       str(row["failure"] or ""))
            shape_ok &= [(r["N"], r["steps"]) for r in report["rows"]] == SHAPES[label]
            errors = [r["error_l2"] for r in report["rows"]]
            recorded[label] = {"fitted_order": report["fitted_order"], "errors": errors}
            fingerprint += [report["fitted_order"] or 0.0] + errors
        elif command == "dispersion":
            _check(checks, name, code == 0, f"exit {code}")
            cfg = inputs["dispersion"][label]
            if label == "doubling":
                edge = json.loads((out / "dispersion.json").read_text())["zone_edge_lattice_energy"]
                _check(checks, "dispersion.doubling", edge <= 1e-12, f"zone-edge lattice energy {edge:.2e}")
                recorded["dispersion_doubling"] = edge
                continue
            table = np.loadtxt(out / "dispersion.csv", delimiter=",", skiprows=1)
            eps = cfg["epsilon"]
            target = np.stack([-2.0 * eps * table[:, 3], 2.0 * eps * table[:, 3]], axis=1)
            key = (cfg["profile"]["c0"], cfg["m"])
            residuals.setdefault(key, []).append(float(np.max(np.abs(table[:, 1:3] - target))))
        elif command == "simulate":
            summary = json.loads((out / "simulate.json").read_text())
            _check(checks, name, code == 0, f"exit {code}")
            _check(checks, "simulate.norm_drift", summary["norm_drift"] <= 1e-10,
                   f"drift {summary['norm_drift']:.3e}")
            snaps = sorted(out.glob("snapshot_*.csv"))
            final = np.loadtxt(snaps[-1], delimiter=",", skiprows=1)
            shape_ok &= (summary["N"], summary["steps"], len(snaps), final.shape[0]) == (
                SIM_CELLS, SIM_STEPS, SIM_STEPS // SIM_STRIDE + 1, SIM_CELLS)
            weight = float(final[:, 5].sum())
            _check(checks, "simulate.snapshot_norm", abs(weight - summary["final_norm"] ** 2) <= 1e-10,
                   f"final snapshot weight {weight!r}")
            centre = float(np.sum(final[:, 0] * final[:, 5]))
            recorded["simulate"] = {"norm_drift": summary["norm_drift"],
                                    "current_sum": summary["current_sum"], "centre": centre}
            fingerprint += [summary["final_norm"], summary["current_sum"], centre]
        elif command == "qca":
            rep = json.loads((out / "qca_report.json").read_text())
            ok = rep["encoding_residual"] <= 1e-12 and rep["number_conservation_off_sector_max"] == 0.0
            _check(checks, name, code == 0 and ok,
                   f"exit {code}, encoding residual {rep['encoding_residual']:.2e}, "
                   f"off-sector {rep['number_conservation_off_sector_max']:.1e}")
            shape_ok &= rep["cells"] == QCA_CLI_CELLS
            recorded["qca_encoding_residual"] = rep["encoding_residual"]

    for (c, m), resid in residuals.items():
        slope = float(np.polyfit(np.log(DISPERSION_EPS), np.log(resid), 1)[0])
        _check(checks, f"dispersion.order.c{c}-m{m}", slope >= 1.8, f"fitted exponent {slope:.3f}")
        recorded[f"dispersion_order_c{c}_m{m}"] = slope
        fingerprint += resid

    if "norms" in raw:
        for j, (nrm, tot) in enumerate(zip(raw["norms"], raw["totals"])):
            _check(checks, f"many_body.norm.step{j + 1}", abs(nrm - 1.0) <= 1e-10, f"norm {nrm!r}")
            _check(checks, f"many_body.occupation.step{j + 1}", abs(tot - MB_PARTICLES) <= 1e-10,
                   f"total occupation {tot!r}")
        _check(checks, "many_body.slater_orthonormal", raw["slater_gram"] <= 1e-10,
               f"Gram deviation {raw['slater_gram']:.2e}")
        shape_ok &= raw["occupations"].shape == (2 * MB_CELLS,)
        gap = float(np.max(np.abs(raw["occupations"] - raw["slater_occupations"])))
        recorded["many_body"] = {"occupation_gap": gap, "reortho_count": raw["reortho"]}
        fingerprint += list(raw["occupations"]) + list(raw["slater_occupations"])

    _check(checks, "work_shape", shape_ok, "grid sizes, step counts and qubit counts as in SHAPES")
    return checks, recorded, [float(v) for v in fingerprint]
