"""Where a traced run wraps the package, and the per-module metrics it reports.

Each target is a name through which one module calls a public function of
another (or a module calls its own global), so a span marks a module
boundary. Spans are named ``<defining module>.<function>``.
"""

from __future__ import annotations

import numpy as np

import plasticwalk
from plasticwalk import cli, hamiltonians, harness, qca, walk
from plasticwalk.fields import CProfile, SpinorField
from plasticwalk.qca import QcaState

from tracer import Tracer

OWNERS = (plasticwalk, cli, harness, hamiltonians, walk, qca, CProfile, SpinorField, QcaState)
MODULES = ("fields", "scaling", "walk", "hamiltonians", "harness", "qca", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _on_qw_step(tracer, args, kwargs):
    tracer.counts["walk.site_steps"] += _arg(args, kwargs, 0, "field").n_sites
    return "homog" if _arg(args, kwargs, 1, "params").cprofile.homogeneous else "inhom"


def _on_qca_step(tracer, args, kwargs):
    state = _arg(args, kwargs, 0, "state")
    amp = state.amplitudes
    tracer.counts["qca.qca_step.amp_updates"] += amp.size * 4 * state.n_cells  # 4 layers of N gates
    nz = np.flatnonzero(amp)
    if nz.size and nz[0] > 0 and not np.any(nz & (nz - 1)):  # each occupied index has one bit set
        tracer.counts["qca.qca_step.one_particle_calls"] += 1


def _on_evolve_exact(tracer, args, kwargs):
    dim = _arg(args, kwargs, 0, "H").dim
    tracer.counts["hamiltonians.evolve_exact.max_dim"] = max(tracer.counts["hamiltonians.evolve_exact.max_dim"], dim)


def _on_cayley(tracer, args, kwargs):
    tracer.counts["hamiltonians.cayley_site_steps"] += (
        _arg(args, kwargs, 0, "H").n_sites * _arg(args, kwargs, 3, "steps")
    )


def _on_atomic_write(tracer, args, kwargs):
    tracer.counts["cli.atomic_write.bytes"] += len(_arg(args, kwargs, 1, "text").encode())


def _on_sweep_report(tracer, report):
    tracer.counts["harness.rows"] += len(report.rows)
    tracer.counts["harness.rows_failed"] += sum(r.failure is not None for r in report.rows)


# (owner, attribute, span name, on_call, on_return)
TARGETS = [
    (cli, "main", "cli.main", None, None),
    (cli, "cmd_sweep", "cli.sweep", None, None),
    (cli, "cmd_simulate", "cli.simulate", None, None),
    (cli, "cmd_dispersion", "cli.dispersion", None, None),
    (cli, "cmd_qca", "cli.qca", None, None),
    (cli, "atomic_write", "cli.atomic_write", _on_atomic_write, None),
    (cli, "run_convergence_sweep", "harness.run_convergence_sweep", None, _on_sweep_report),
    (cli, "dispersion_scan", "harness.dispersion_scan", None, None),
    (cli, "make_wavepacket", "harness.make_wavepacket", None, None),
    (cli, "qw_step", "walk.qw_step", _on_qw_step, None),
    (cli, "verify_encoding", "qca.verify_encoding", None, None),
    (cli, "dense_step_operator", "qca.dense_step_operator", None, None),
    (harness, "evolve_walk", "walk.evolve_walk", None, None),
    (harness, "comparison_frame", "harness.comparison_frame", None, None),
    (harness, "_cross_validate_references", "harness.crossval", None, None),
    (harness, "evolve_exact", "hamiltonians.evolve_exact", _on_evolve_exact, None),
    (harness, "curved_dirac_reference", "hamiltonians.curved_dirac_reference", None, None),
    (harness, "dirac_propagator", "hamiltonians.dirac_propagator", None, None),
    (harness, "trig_interpolate", "hamiltonians.trig_interpolate", None, None),
    (hamiltonians, "trig_interpolate", "hamiltonians.trig_interpolate", None, None),
    (hamiltonians, "evolve_crank_nicolson", "hamiltonians.evolve_crank_nicolson", _on_cayley, None),
    (walk, "qw_step", "walk.qw_step", _on_qw_step, None),
    (walk, "derive_angle_arrays", "scaling.derive_angle_arrays", None, None),
    (CProfile, "sample", "fields.CProfile.sample", None, None),
    (qca, "qca_step", "qca.qca_step", _on_qca_step, None),
    (QcaState, "occupations", "qca.occupations", None, None),
    (plasticwalk, "qca_step", "qca.qca_step", _on_qca_step, None),
    (plasticwalk, "slater_evolve", "qca.slater_evolve", None, None),
    (plasticwalk, "slater_determinant_state", "qca.slater_determinant_state", None, None),
]


def install(tracer: Tracer) -> None:
    for owner, attr, name, on_call, on_return in TARGETS:
        tracer.patch(owner, attr, name, on_call, on_return)
    tracer.count_calls(SpinorField, "__post_init__", "fields.SpinorField.constructions")


def layer_metrics(tracer: Tracer, run_s: float) -> dict[str, tuple[float, str]]:
    """Every per-module metric of one traced run, as name -> (value, unit)."""
    names = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def secs(name):
        return names.get(name, {}).get("s", 0.0)

    out: dict[str, tuple[float, str]] = {}
    for name in ("walk.evolve_walk", "scaling.derive_angle_arrays", "fields.CProfile.sample",
                 "hamiltonians.evolve_exact", "hamiltonians.evolve_crank_nicolson",
                 "harness.run_convergence_sweep", "qca.qca_step", "cli.atomic_write"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (secs(name), "s")

    qw = [(s[2] - s[1], s[4]) for s in tracer.spans if s[0] == "walk.qw_step"]
    qw_us = np.array([d for d, _ in qw]) * 1e6
    out["walk.qw_step.calls"] = (len(qw), "count")
    out["walk.qw_step.homog_s"] = (sum(d for d, tag in qw if tag == "homog"), "s")
    out["walk.qw_step.inhom_s"] = (sum(d for d, tag in qw if tag == "inhom"), "s")
    out["walk.qw_step.p50_us"] = (float(np.percentile(qw_us, 50)) if qw else 0.0, "us")
    out["walk.qw_step.p99_us"] = (float(np.percentile(qw_us, 99)) if qw else 0.0, "us")

    for key in ("walk.site_steps", "fields.SpinorField.constructions", "hamiltonians.evolve_exact.max_dim",
                "hamiltonians.cayley_site_steps", "harness.rows", "harness.rows_failed",
                "qca.qca_step.amp_updates", "qca.qca_step.one_particle_calls", "cli.atomic_write.bytes"):
        out[key] = (counts.get(key, 0), "B" if key.endswith("bytes") else "count")

    for name in ("hamiltonians.curved_dirac_reference", "hamiltonians.dirac_propagator",
                 "hamiltonians.trig_interpolate", "harness.comparison_frame", "harness.dispersion_scan",
                 "harness.crossval", "qca.verify_encoding", "qca.dense_step_operator", "qca.occupations",
                 "qca.slater_evolve", "qca.slater_determinant_state", "cli.sweep", "cli.simulate",
                 "cli.dispersion", "cli.qca"):
        out[f"{name}.s"] = (secs(name), "s")
    out["harness.run_convergence_sweep.self_s"] = (
        names.get("harness.run_convergence_sweep", {}).get("self_s", 0.0), "s")
    out["cli.self_s"] = (sum(v["self_s"] for k, v in names.items()
                             if k.startswith("cli.") and k != "cli.atomic_write"), "s")

    modules = tracer.by_module()
    for mod in MODULES:
        agg = modules.get(mod, {"incl_s": 0.0, "self_s": 0.0})
        out[f"module.{mod}.incl_s"] = (agg["incl_s"], "s")
        out[f"module.{mod}.self_s"] = (agg["self_s"], "s")
        out[f"module.{mod}.incl_pct"] = (100.0 * agg["incl_s"] / run_s, "%")
    out["traced_run_s"] = (run_s, "s")
    return out
