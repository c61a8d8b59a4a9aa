"""Tests of the benchmark's tracer and seeded inputs.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import PARENT, Tracer, wrapped_attributes  # noqa: E402


class FakeClock:
    """Advances by one tick per reading, so every duration is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _toy_module(tracer):
    mod = types.ModuleType("toy")
    mod.leaf = lambda: None
    mod.mid = lambda: (mod.leaf(), mod.leaf())
    mod.top = lambda: (mod.mid(), mod.leaf())
    for name in ("top", "mid", "leaf"):
        tracer.patch(mod, name, f"toy.{name}")
    return mod


def test_spans_nest_under_their_callers():
    tracer = Tracer(FakeClock())
    mod = _toy_module(tracer)
    mod.top()
    names = [s[0] for s in tracer.spans]
    assert names == ["toy.top", "toy.mid", "toy.leaf", "toy.leaf", "toy.leaf"]
    parents = [s[PARENT] for s in tracer.spans]
    assert parents == [-1, 0, 1, 1, 0]


def test_self_time_is_duration_minus_children():
    tracer = Tracer(FakeClock())
    _toy_module(tracer).top()
    dur = tracer.durations()
    own = tracer.self_times()
    for i in range(len(tracer.spans)):
        children = [dur[j] for j, s in enumerate(tracer.spans) if s[PARENT] == i]
        assert own[i] == dur[i] - sum(children)
    # each leaf lasts one tick; mid spans two leaves plus one tick of its own
    assert dur == [9.0, 5.0, 1.0, 1.0, 1.0]
    assert own == [3.0, 3.0, 1.0, 1.0, 1.0]
    by_name = tracer.by_name()
    assert by_name["toy.leaf"] == {"calls": 3, "s": 3.0, "self_s": 3.0}
    assert tracer.by_module()["toy"] == {"incl_s": 9.0, "self_s": 9.0}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(FakeClock())
    mod = types.ModuleType("boom")

    def fail():
        raise ValueError("x")

    mod.fail = fail
    tracer.patch(mod, "fail", "boom.fail")
    with pytest.raises(ValueError):
        mod.fail()
    assert tracer.durations() == [1.0]
    assert tracer._stack == []


def test_install_and_uninstall_restore_the_package():
    import probes

    assert wrapped_attributes(probes.OWNERS) == []
    tracer = Tracer()
    probes.install(tracer)
    try:
        assert len(wrapped_attributes(probes.OWNERS)) == len(probes.TARGETS) + 1
    finally:
        tracer.uninstall()
    assert wrapped_attributes(probes.OWNERS) == []


def test_package_spans_cross_module_boundaries():
    import numpy as np

    import plasticwalk as pw
    import probes

    spec = pw.ExperimentSpec(alpha=1.0, m=0.2, cprofile=pw.CProfile.sine_bump(0.5, 0.2, 16.0),
                             length=16.0, T=1.0, epsilon_list=[0.5, 0.25], x0=8.0, w=4.0,
                             k0=float(np.pi / 8))
    tracer = Tracer()
    probes.install(tracer)
    try:
        pw.cli.run_convergence_sweep(spec)
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    for span in tracer.spans:
        if span[0] == "walk.qw_step":
            assert names[span[PARENT]] == "walk.evolve_walk"
        if span[0] == "walk.evolve_walk":
            assert names[span[PARENT]] == "harness.run_convergence_sweep"
        if span[0] == "hamiltonians.evolve_exact":
            assert names[span[PARENT]] == "harness.run_convergence_sweep"
    assert names.count("walk.qw_step") == 1 + 2  # steps per row: T / (2 eps)
    assert tracer.counts["walk.site_steps"] == 3 * 16
    assert tracer.counts["harness.rows"] == 2


def test_untraced_worker_runs_without_wrappers(tmp_path):
    """The untraced worker checks for wrappers before and after its run."""
    import json

    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "simulate-curved", "0", "0", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    check = [c for c in result["checks"] if c["name"] == "untraced_without_wrappers"]
    assert check and check[0]["passed"]
    assert "layers" not in result


SEEDED = {"x0", "k0", "chirality_mix", "a", "depth", "qca_theta", "qca_zeta", "theta", "zeta",
          "orbitals", "seed"}


def _differences(a, b, key=None):
    """Keys whose values differ between two input trees; raises on a changed size."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        return {k for name in a for k in _differences(a[name], b[name], name)}
    if hasattr(a, "shape"):
        assert a.shape == b.shape
        return set() if (a == b).all() else {key}
    return set() if a == b else {key}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_moves_no_size(workload):
    """Seeds change only the seeded values; sizes, steps and lists stay put."""
    first = workloads.make_inputs(workload, 0)
    for seed in range(1, 12):
        assert _differences(first, workloads.make_inputs(workload, seed)) <= SEEDED


def test_same_seed_same_inputs():
    import numpy as np

    a = workloads.make_inputs("qca-many-body", 3)
    b = workloads.make_inputs("qca-many-body", 3)
    assert np.array_equal(a["many_body"]["orbitals"], b["many_body"]["orbitals"])
    assert a["qca"] == b["qca"]
