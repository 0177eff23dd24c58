"""Fixed reference work that measures how fast the host runs at the moment.

The benchmark host shares its physical cores with other tenants, and its
speed drifts by up to about 1.8x in phases that last from under a second to
minutes.  The child times this reference work right before and right after
``cli.main``, and the benchmark divides the CLI time by the reference time.
The reference code belongs to the benchmark and never changes with the
package, so a change in the package still shows in full.

Two parts, because the package runs both kinds of work: ``python_part`` runs
pure-Python bytecode, ``numpy_part`` small batched ``eigh`` calls and
vectorised transcendentals.  Their arrays take well under 1 MB, so they do
not raise the peak RSS that the benchmark reports.
"""

import time

REPEATS = 3


def _python_once() -> float:
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(100_000):
        total += (i * i) % 7
        table[i & 255] = total
    ",".join(f"{v:.6g}" for v in table.values())
    return time.perf_counter() - start


def python_part() -> float:
    """Median time of the pure-Python reference loop, in seconds."""
    return sorted(_python_once() for _ in range(REPEATS))[REPEATS // 2]


_ARRAYS = None


def _numpy_once() -> float:
    global _ARRAYS
    import numpy as np

    if _ARRAYS is None:
        k = np.arange(256 * 16, dtype=float).reshape(256, 4, 4)
        h = np.sin(k) + 1j * np.cos(0.5 * k)
        _ARRAYS = (h + np.conj(np.swapaxes(h, -1, -2)), np.linspace(0.0, 50.0, 20_000))
    matrices, grid = _ARRAYS
    start = time.perf_counter()
    for _ in range(4):
        np.linalg.eigh(matrices)
    for k in range(20):
        float(np.sum(np.exp(-0.01 * k * grid) * np.cos(grid)))
    return time.perf_counter() - start


def numpy_part() -> float:
    """Median time of the numpy reference work, in seconds."""
    return sorted(_numpy_once() for _ in range(REPEATS))[REPEATS // 2]
