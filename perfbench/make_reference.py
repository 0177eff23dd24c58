"""Regenerate the stored reference outputs for the default seed.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs each workload once at full size and the default seed, checks the output
with the gate's shape and range checks, and stores every stride-th data row
plus the SHA-256 of the whole file under ``perfbench/reference/<workload>/``.
Run it only at a commit whose output is known to be right: the gate compares
later outputs against these files.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import WORK_ROOT, invoke
from workloads import (
    DEFAULT_SEED, WORKLOADS, check_outputs, draw_amplitudes, reference_path,
    write_reference)


def main() -> int:
    workdir = WORK_ROOT / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for workload in WORKLOADS.values():
            argv = workload.argv("full", draw_amplitudes(DEFAULT_SEED), workdir)
            record, error = invoke(argv, False, workdir)
            problems, _ = check_outputs(workload, "full", workdir, compare_reference=False)
            if record is None or problems:
                print(f"{workload.name}: {error or problems}", file=sys.stderr)
                return 1
            for (name, _), rows in zip(workload.outputs, workload.sizes["full"].rows):
                target = reference_path(workload, name)
                write_reference(target, workload.name,
                                (workdir / name).read_text(encoding="utf-8"), rows)
                print(f"wrote {target}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
