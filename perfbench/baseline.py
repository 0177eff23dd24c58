"""Record the machine, the commit and each workload's traced layer shares.

Usage (from the repository root): python3 perfbench/baseline.py [SECONDS]

Runs every workload traced at the default seed for SECONDS (default 10) and
writes ``perfbench/baseline.json``: per workload, the per-layer metrics and
each layer's share of the traced CLI time (its median self time over the sum
of all layers' median self times).
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, machine_info, run
from workloads import DEFAULT_SEED, WORKLOADS


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return None


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 10.0
    baseline = {"commit": _commit(), "cpu_model": _cpu_model(), "machine": machine_info(),
                "seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        result, diagnostics = run(name, DEFAULT_SEED, seconds, trace=True)
        if not result["correct"]:
            print(f"{name}: {diagnostics['problems']}", file=sys.stderr)
            return 1
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_times = {k[:-len(".self_s")]: v for k, v in metrics.items()
                      if k.endswith(".self_s") and v}
        total = sum(self_times.values())
        baseline["workloads"][name] = {
            "argv": diagnostics["argv"],
            "traced_invocations": result["attempted"] // 2,
            "layer_shares": {k: round(v / total, 4) for k, v in
                             sorted(self_times.items(), key=lambda kv: -kv[1])},
            "per_layer": metrics,
        }
        print(f"{name}: {baseline['workloads'][name]['layer_shares']}")
    with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
