"""Benchmark of the ``twospinboson`` CLI: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: each invocation of ``twospinboson.cli.main``
runs in a fresh child process, the next starts when the previous one has
ended and its output has been through the correctness gate, and invocations
repeat until S seconds have passed.  The seed draws the initial amplitudes only.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, as
medians over the invocations; CLI times are scaled by the reference work of
``calibrate.py`` to cancel the host's drift in speed.  With ``--trace 1`` untraced and traced
invocations alternate and it reports per-layer metrics: medians over the
traced invocations, plus the tracing overhead.  A line on stderr records the
machine, the thread environment, byte-identity against the reference and
any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The gate parses outputs with the package's own csvio, from this checkout.
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
# Time of one unit of calibrate.py's reference work (the mean of its four
# timings around cli.main) on the host this benchmark was written on, a 2-vCPU
# Intel Xeon KVM guest, in its fast phase.  Scaled times are "seconds at that
# speed"; the constant only sets their unit.
REFERENCE_QUIET_S = 0.0090
CHILD_TIMEOUT_S = 60.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Traced layer -> fields reported for it: "calls", "self_s" or a counter.
LAYER_FIELDS = {
    "entanglement.entanglement_measures": ("calls", "matrices", "self_s"),
    "bath.bath_gamma": ("calls", "self_s"),
    "bath.gamma_R_infinity": ("calls", "self_s"),
    "bath.steady_state_stats": ("self_s",),
    "quadrature.integrate_decaying": ("calls", "self_s"),
    "quadrature.composite_gauss": ("calls", "panels", "self_s"),
    "sweeps.steady_state_table": ("self_s",),
    "sweeps.thermal_overlap_table": ("self_s",),
    "sweeps.state_series": ("self_s",),
    "single_mode.time_series": ("self_s",),
    "cli.main": ("self_s",),
    "csvio.render_table": ("self_s", "rows", "bytes"),
    "csvio.write_table": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "matrices": "count", "panels": "count",
               "rows": "count", "bytes": "bytes", "self_s": "s"}


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": blas.get("openblas configuration", blas.get("name")),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def invoke(argv: list[str], trace: bool, workdir: Path) -> tuple[dict | None, str]:
    """Run one child; return its record (None on failure) and any error text."""
    record_path = workdir / "record.json"
    record_path.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "child.py"), str(SRC), str(record_path),
               "1" if trace else "0", *argv]
    try:
        proc = subprocess.run(command, cwd=workdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S:g} s"
    if proc.returncode != 0 or not record_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    return json.loads(record_path.read_text(encoding="utf-8")), ""


def layer_totals(record: dict) -> dict[str, dict[str, float]]:
    """Calls, self time and counters per span name for one invocation.

    Self time is a span's duration minus that of its direct children; calls
    nest on one thread, so children never overlap.
    """
    spans = record["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, counts), inner in zip(spans, child_time):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - inner
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _ratio(num, den, scale=1.0):
    """``scale * num / den``; 0 when nothing was attempted, None if a layer is gone."""
    if num is None or den is None:
        return None
    return scale * num / den if den else 0.0


def scaled_wall_s(record: dict) -> float:
    """``cli.main`` time scaled to the host's fast-phase speed.

    The measured time is divided by the mean time of the reference work done
    right before and right after it in the same process, which cancels most
    of the host's drift in speed, and multiplied by ``REFERENCE_QUIET_S``.
    """
    return record["wall_s"] * REFERENCE_QUIET_S / statistics.fmean(record["reference_s"])


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, tuple]:
    """Medians over traced invocations; ``None`` where a layer no longer exists."""
    missing = set().union(*(r["missing"] for r in traced))
    uncounted = set().union(*(r["uncounted"] for r in traced))
    kernel = "entanglement.entanglement_measures"
    units = {f"{layer}.{name}": FIELD_UNITS[name]
             for layer, fields in LAYER_FIELDS.items() for name in fields}
    units.update({f"{kernel}.us_per_matrix": "us", "quadrature.accept_ratio": "ratio"})

    def field(totals, layer, name):
        if layer in missing or (name not in ("calls", "self_s") and layer in uncounted):
            return None
        return totals.get(layer, {}).get(name, 0)

    samples = []
    for totals in map(layer_totals, traced):
        values = {f"{layer}.{name}": field(totals, layer, name)
                  for layer, fields in LAYER_FIELDS.items() for name in fields}
        values[f"{kernel}.us_per_matrix"] = _ratio(
            values[f"{kernel}.self_s"], values[f"{kernel}.matrices"], 1e6)
        values["quadrature.accept_ratio"] = _ratio(
            field(totals, "quadrature.integrate_decaying", "accepted"),
            values["quadrature.composite_gauss.calls"])
        samples.append(values)
    metrics = {name: (_median_or_none(s[name] for s in samples), unit)
               for name, unit in units.items()}
    metrics["trace.overhead_s"] = (
        statistics.median(map(scaled_wall_s, traced))
        - statistics.median(map(scaled_wall_s, untraced)) if untraced else None, "s")
    return metrics


def end_to_end_metrics(records: list[dict], attempted: int, rows: int) -> dict[str, tuple]:
    wall = statistics.median(map(scaled_wall_s, records))
    return {
        "scaled_wall_s": (wall, "s"),
        "scaled_rows_per_s": (rows / wall, "rows/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
        "success_rate": (len(records) / attempted, "fraction"),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple[dict, dict]:
    """Measure one workload; return the result object and a diagnostics map.

    The result's metrics are empty when no invocation of the needed kind
    succeeded.
    """
    workload = workloads.WORKLOADS[workload_name]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir()
    argv = workload.argv(size, workloads.draw_amplitudes(seed), workdir)
    compare = seed == workloads.DEFAULT_SEED and size == "full"
    records: list[dict] = []
    problems: list[str] = []
    identical: list[bool] = []
    attempted = 0
    try:
        # Untimed: compiles bytecode and loads shared libraries into the page cache.
        invoke(["--version"], False, workdir)
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and attempted % 2 == 1
            for name, _ in workload.outputs:
                (workdir / name).unlink(missing_ok=True)
            attempted += 1
            record, error = invoke(argv, traced, workdir)
            if record is None:
                problems.append(error)
            else:
                failed, same = workloads.check_outputs(workload, size, workdir, compare)
                if failed:
                    problems += failed
                else:
                    record["traced"] = traced
                    records.append(record)
                    if same is not None:
                        identical.append(same)
            if time.perf_counter() >= deadline and attempted >= (2 if trace else 1):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_count = attempted - len(records)
    diagnostics = {
        "workload": workload_name, "seed": seed, "argv": argv[:-1],
        "machine": machine_info(),
        "byte_identical": all(identical) if identical else None,
        "wall_s_median": _median_or_none(r["wall_s"] for r in records if not r["traced"]),
        "reference_s_median": _median_or_none(
            statistics.fmean(r["reference_s"]) for r in records if not r["traced"]),
        "patched_untraced": sorted({s for r in records if not r["traced"]
                                    for s in r["patched"]}),
        "patched_traced": sorted({s for r in records if r["traced"] for s in r["patched"]}),
        "problems": problems[:10],
    }
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    metrics: dict[str, tuple] = {}
    if trace and traced:
        metrics = per_layer_metrics(traced, untraced)
        diagnostics["layer_totals"] = layer_totals(traced[0])
    elif not trace and untraced:
        metrics = end_to_end_metrics(untraced, attempted, sum(workload.sizes[size].rows))
    result = {
        "correct": failed_count == 0,
        "attempted": attempted,
        "failed": failed_count,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, diagnostics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind as on an exception: subprocess.run kills and reaps the
    # running child, and run() removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "twospinboson" / "cli.py").is_file():
        print(f"error: no twospinboson sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, diagnostics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(diagnostics), file=sys.stderr)
    if not result["metrics"]:
        print("error: no invocation succeeded", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
