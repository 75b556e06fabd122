#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload prep_synth --seed 1 --seconds 20 --trace 0

Inputs are generated from ``--seed`` under ``.bench_work/`` and removed at
exit. With ``--trace 0`` the loop runs untraced for ``--seconds`` and the
end-to-end metrics are reported; with ``--trace 1`` it runs untraced for
half the time and traced for the other half, and the per-layer metrics
plus the tracing overhead are reported, with the spans written to
``.bench_out/``. The second-to-last stdout line is a full report (every
named metric of the workload, error rate, environment); the last line is
the summary ``{"correct", "attempted", "failed", "metrics"}`` whose metric
names and units come from ``BENCHMARK.json``.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads: unpinned, a lone
# matmul at the demo shape swings between 2 ms and 128 ms.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


IMPORT_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import granary.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Median time a fresh interpreter takes to import the whole package."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_commit() -> str:
    """The checkout's commit read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def _environment(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _named(workload: str, out, setup_s: float, rss_mb: float) -> dict:
    """Every end-to-end figure the workload defines, by its own name, as measured (unscaled)."""
    med = statistics.median
    named = {
        "speed_factor": (out.speed(), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "error_rate": (out.failed / out.attempted, "frac"),
    }
    if not out.op_s:
        return named
    if workload == "prep_synth":
        named["prep_s"] = (med(out.op_s), "s")
        named["distill_tasks_per_s"] = (med(out.extra["distill_tasks_per_s"]), "1/s")
        named["resume_s"] = (med(out.extra["resume_s"]), "s")
    elif workload == "train_nsc_sft":
        named["train_step_ms_p50"] = (1e3 * med(out.op_s), "ms")
        named["train_tokens_per_s"] = (out.work / out.work_s, "1/s")
    else:
        named["decode_tokens_per_s"] = (out.work / out.work_s, "1/s")
        named["decode_token_ms_p50"] = (1e3 * med(out.op_s), "ms")
        named["decode_token_ms_p99"] = (1e3 * _quantile(out.op_s, 0.99), "ms")
    named["samples"] = (len(out.op_s), "count")
    return named


def _end_to_end(out, setup_s: float, rss_mb: float) -> dict:
    """The workload-neutral figures BENCHMARK.json gates on.

    Throughput is work over time for steps and tokens; a prep pass is too
    coarse and too noisy for that, so there it is the median pass's
    distill tasks per second, fresh and resume runs together. Times and
    rates of the timed loop are scaled by the run's speed factor (1 for
    workloads that are not probed) to the reference machine.
    """
    if "tasks_per_s" in out.extra:
        throughput = statistics.median(out.extra["tasks_per_s"])
    else:
        throughput = out.work / out.work_s if out.work_s else float("nan")
    speed = out.speed()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "latency_ms_p50": (1e3 * statistics.median(out.op_s) if out.op_s else float("nan")) / speed,
        "throughput_per_s": throughput * speed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if not (SRC / "granary" / "__init__.py").is_file():
        return _fail(f"no granary sources under {SRC}")

    sys.path[:0] = [str(HERE), str(SRC)]
    import granary
    import numpy as np

    if Path(granary.__file__).resolve().parent != SRC / "granary":
        return _fail(f"imported granary from {granary.__file__}, not from {SRC}")

    import workloads
    from tracing import Tracer

    import_s = _import_seconds()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        tracer = None
        if args.trace:
            untraced = workloads.measure(workload, args.seconds / 2)
            tracer = Tracer()
            out = workloads.measure(workload, args.seconds / 2, tracer)
        else:
            out = workloads.measure(workload, args.seconds)
        rss_mb = _peak_rss_mb()
        setup_s = import_s + (statistics.median(out.setup_s) if out.setup_s else 0.0)
        if hasattr(workload, "check"):
            workload.check(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        metrics = workloads.layer_metrics(tracer, out)
        # Means, so that the train step's forward + backward + collect-grad
        # + other (itself from the traced mean) add up to traced_op_ms.
        base = statistics.fmean(untraced.op_s) if untraced.op_s else float("nan")
        traced = statistics.fmean(out.op_s) if out.op_s else float("nan")
        metrics["trace.untraced_op_ms"] = 1e3 * base
        metrics["trace.traced_op_ms"] = 1e3 * traced
        metrics["trace.overhead_frac"] = traced / base - 1.0
        out.attempted += untraced.attempted
        out.failed += untraced.failed
        out.errors += untraced.errors
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json")
        listed = spec["per_layer"]
    else:
        metrics = _end_to_end(out, setup_s, rss_mb)
        listed = spec["end_to_end"]

    for error in out.errors:
        print(error, file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in _named(args.workload, out, setup_s, rss_mb).items()},
        "environment": _environment(np),
    }
    if tracer is not None:
        # Every traced layer's time per op unit, total and self (minus children).
        units = max(out.units, 1)
        self_s = tracer.self_times(min_unit=1)
        report["layers_per_unit_s"] = {
            name: {"total": total / units, "self": self_s.get(name, 0.0) / units, "calls": count / units}
            for name, (count, total) in sorted(tracer.totals(min_unit=1).items())
        }
    print(json.dumps(report))
    summary = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
