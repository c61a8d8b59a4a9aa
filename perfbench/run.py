"""plasticwalk benchmark: end-to-end times of three workloads, and a traced
per-module breakdown.

    python3 perfbench/run.py --workload acceptance-sweeps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Each sample is one run of the workload in a fresh Python process
(``worker.py``), which imports the package from ``src/`` of this checkout.
Samples repeat until ``--seconds`` have passed. ``--trace 0`` reports the
median set-up time, run time and peak resident memory of untraced samples.
``--trace 1`` alternates untraced and traced samples and reports the
per-module metrics of the traced ones; every metric named in ``probes.py``
is printed, and the last line carries those listed in BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of a
run (environment, every sample, checks, recorded numbers) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and the spans of the
last traced sample next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("acceptance-sweeps", "simulate-curved", "qca-many-body")
SAMPLE_TIMEOUT_S = 150.0
REPEAT_RTOL = 1e-12


class BenchError(Exception):
    """A sample could not be taken; the run reports no result."""


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS that NumPy and SciPy load."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def _cpu() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"model": model, "caches": caches}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "sweep_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# sampling


def take_sample(workload: str, seed: int, traced: bool, workdir: Path, spans_out: Path) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if traced else "0",
           str(workdir), str(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} sample exceeded {SAMPLE_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} sample exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def sample_workload(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Samples until ``seconds`` have passed; with ``trace``, alternate
    untraced and traced samples and take at least one of each."""
    samples: list[dict] = []
    start = time.perf_counter()
    spans_out = OUT / f"{workload}-seed{seed}-spans.json"
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(take_sample(workload, seed, traced, OUT / f"work-{os.getpid()}", spans_out))
        enough = not trace or any(s["traced"] for s in samples)
        if enough and time.perf_counter() - start >= seconds:
            return samples


# ---------------------------------------------------------------------------
# reporting


def _agree(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REPEAT_RTOL * max(abs(a), abs(b))


def summarize(workload: str, seed: int, trace: bool, samples: list[dict]) -> dict:
    checks = [c for s in samples for c in s["checks"]]
    first = samples[0]["fingerprint"]
    for s in samples[1:]:  # same seed, fresh process: the numbers must repeat
        fp = s["fingerprint"]
        ok = len(fp) == len(first) and all(_agree(a, b) for a, b in zip(first, fp))
        checks.append({"name": "repeat_agreement", "passed": ok, "detail": f"rtol {REPEAT_RTOL}"})
    failed = [c for c in checks if not c["passed"]]

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    stats = {}
    for key, unit in (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
                      ("steal_s", "s")):
        values = [s[key] for s in untraced]
        stats[key] = {"median": statistics.median(values), "upper": _upper(values), "n": len(values),
                      "unit": unit}
    layers = {}
    if traced:
        for name, (_, unit) in traced[0]["layers"].items():
            layers[name] = {"value": statistics.median(s["layers"][name][0] for s in traced), "unit": unit}
        layers["trace_overhead"] = {
            "value": statistics.median(s["run_s"] for s in traced) / stats["run_s"]["median"],
            "unit": "ratio",
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "environment": environment(seed),
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": failed,
        "end_to_end": stats,
        "layers": layers,
        "recorded": samples[0]["recorded"],
        "samples": samples,
    }


def _upper(values: list[float]) -> tuple[str, float]:
    """The highest whole percentile with at least ten samples above it, or
    the maximum when there are too few samples for one."""
    n = len(values)
    if n < 11:
        return "max (fewer than 11 samples)", max(values)
    p = int(100 * (1 - 10 / n))
    return f"p{p}", statistics.quantiles(values, n=100)[p - 1]


def print_summary(summary: dict) -> None:
    w = summary["workload"]
    env = summary["environment"]
    print(f"== {w}  seed {summary['seed']}  trace {int(summary['trace'])}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, st in summary["end_to_end"].items():
        label, upper = st["upper"]
        print(f"{w} {name}: median {st['median']:.6g} {st['unit']}, {label} {upper:.6g} "
              f"{st['unit']}, n={st['n']}")
    print(f"{w} ops_attempted: {summary['attempted']}  ops_failed: {summary['failed']}")
    for c in summary["failed_checks"]:
        print(f"{w} FAILED {c['name']}: {c['detail']}")
    print(f"{w} recorded: " + json.dumps(summary["recorded"], sort_keys=True))
    for name, m in summary["layers"].items():
        print(f"{w} layer {name}: {m['value']:.6g} {m['unit']}")


def result_line(summary: dict, spec: dict) -> dict:
    if summary["trace"]:
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {n: summary["layers"][n] for n in wanted}
    else:
        metrics = {m["name"]: {"value": summary["end_to_end"][m["name"]]["median"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plasticwalk" / "__init__.py").is_file():
        print(f"no plasticwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for w in names:
            samples = sample_workload(w, args.seed, args.seconds, bool(args.trace))
            summary = summarize(w, args.seed, bool(args.trace), samples)
            (OUT / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
            print_summary(summary)
            lines[w] = result_line(summary, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{w}/{k}": v for w, r in lines.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
