"""One benchmark invocation of the ``twospinboson`` CLI in a fresh process.

Usage: python3 child.py SRC_DIR RECORD_PATH TRACE CLI_ARG...

Times ``import twospinboson.cli`` (set-up), ``cli.main(argv)`` and the fixed
reference work of ``calibrate.py`` right before and right after ``cli.main``,
then writes a JSON record to RECORD_PATH: the CLI's exit code, the times, the
peak RSS, the package attributes that hold trace wrappers and, with TRACE 1,
the spans.  Exits with the CLI's exit code.
"""

import sys
import time


def main() -> int:
    src, record_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import twospinboson.cli as cli
    setup_s = time.perf_counter() - start

    import json
    import os
    import resource

    import calibrate
    import tracer as tracing

    python_before = calibrate.python_part()
    numpy_before = calibrate.numpy_part()

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"twospinboson was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()

    start = time.perf_counter()
    code = cli.main(argv)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    python_after = calibrate.python_part()
    numpy_after = calibrate.numpy_part()

    record = {
        "exit": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": [python_before, numpy_before, python_after, numpy_after],
        "peak_rss_mb": peak_rss_mb,
        "patched": tracing.patched_sites(),
        "spans": tracer.spans if tracer else [],
        "missing": tracer.missing if tracer else [],
        "uncounted": tracer.uncounted if tracer else [],
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
