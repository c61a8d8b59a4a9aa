"""One sample of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR [SPANS_OUT]

Set-up (importing the package plus one tiny call into each module, which
loads SciPy's lazily imported LAPACK and SuperLU code) is timed apart from
the run. Prints one JSON line: set-up and run seconds, the process's peak
resident memory, the checks, the recorded numbers and, when traced, the
per-module metrics.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def warm_up(pw) -> None:
    """One tiny call per module."""
    import numpy as np

    xs = np.arange(8.0)
    bump = pw.CProfile.sine_bump(0.5, 0.2, 8.0)
    bump.sample(0.0, xs)  # fields
    params = pw.ScalingParams(m=0.2, cprofile=bump, epsilon=1.0, alpha=1.0)  # scaling
    psi = pw.make_wavepacket(8, 1.0, 4.0, 4.0, 0.3)  # harness
    pw.evolve_walk(psi, params, 2)  # walk
    pw.comparison_frame(params, xs)
    pw.estimate_order([(0.4, 0.4), (0.2, 0.2), (0.1, 0.1)])
    h = pw.lattice_hamiltonian_curved(8, 1.0, 0.2, bump)  # hamiltonians
    pw.evolve_exact(h, psi, 0.5)
    pw.evolve_crank_nicolson(h, psi, 0.5, 2)
    pw.dirac_propagator(8, 1.0, 0.2, 0.5, 0.5).apply(psi)
    pw.qca_step(pw.QcaState.vacuum(2), 1.0, 0.3).occupations()  # qca
    pw.cli.RunConfig.parse("{}")  # cli


def steal_ticks() -> int:
    """Machine-wide CPU time taken by the hypervisor, in clock ticks (0 if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def main(argv: list[str]) -> int:
    workload, seed, trace, workdir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    spans_out = Path(argv[4]) if len(argv) > 4 else None
    sys.path.insert(0, str(SRC))
    import plasticwalk as pw
    import plasticwalk.cli  # noqa: F401  (binds pw.cli)

    if Path(pw.__file__).resolve().parent != SRC / "plasticwalk":
        print(f"plasticwalk imported from {pw.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import probes
    import workloads
    from tracer import Tracer, wrapped_attributes

    warm_up(pw)
    setup_s = time.perf_counter() - T0

    inputs = workloads.make_inputs(workload, seed)
    calls = workloads.write_configs(inputs, workdir)
    tracer = Tracer() if trace else None
    if tracer is not None:
        probes.install(tracer)
    stray = set() if trace else set(wrapped_attributes(probes.OWNERS))
    start, cpu_start, steal_start = time.perf_counter(), time.process_time(), steal_ticks()
    try:
        raw = workloads.run(pw, inputs, calls)
        run_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        steal_s = (steal_ticks() - steal_start) / os.sysconf("SC_CLK_TCK")
        if not trace:
            stray.update(wrapped_attributes(probes.OWNERS))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks, recorded, fingerprint = workloads.check(inputs, calls, raw)
    if not trace:
        checks.append({"name": "untraced_without_wrappers", "passed": not stray, "detail": str(sorted(stray))})
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "steal_s": steal_s,
        "peak_rss_mb": peak_rss_mb,
        "traced": trace,
        "checks": checks,
        "recorded": recorded,
        "fingerprint": fingerprint,
    }
    if not all(c["passed"] for c in checks):
        result["log_tail"] = raw["log"][-3000:]
    if tracer is not None:
        result["layers"] = probes.layer_metrics(tracer, run_s)
        if spans_out is not None:
            spans_out.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "tag"],
                                             "spans": tracer.spans, "counts": tracer.counts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
