"""Workloads of the benchmark and the correctness gate on their CSV output.

Each workload is one ``twospinboson`` CLI invocation.  Its argv is fixed per
size except for ``--amplitudes``, which the seed draws; the seed never
changes a problem size.  The gate checks exit status, CSV shape, finiteness,
physical ranges and, at the default seed and full size, agreement with the
stored reference output to 12 significant digits.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0

# Reference files keep every stride-th row so the largest output stays small.
REFERENCE_MAX_ROWS = 500

# Slack on the physical bounds for roundoff in the printed 12-digit values.
RANGE_TOL = 1e-12
# "Agrees to 12 significant digits": one unit in the 12th digit, with an
# absolute floor for values that are zero up to roundoff (e.g. C(0) ~ 1e-31).
REF_RTOL = 1e-11
REF_ATOL = 1e-12

# Column -> (low, high, low_inclusive).  Sentinel columns allow exactly -1 in
# rows with has_steady_state = 0 and must be in range everywhere else.
RANGES = {
    "concurrence": (0.0, 1.0, True),
    "ideal_concurrence": (0.0, 1.0, True),
    "c_max_steady": (0.0, 1.0, True),
    "entropy": (0.0, 2.0, True),
    "s_steady": (0.0, 2.0, True),
    "entropy_scaled": (0.0, 4.0 / 3.0, True),
    "overlap": (0.0, 1.0, False),
    "overlap_infinity": (0.0, 1.0, False),
}
SENTINEL_COLUMNS = ("c_max_steady", "s_steady", "overlap_infinity")
SENTINEL = -1.0

BATH_HEADER = ("t", "theta_t", "concurrence", "entropy", "entropy_scaled", "overlap")


@dataclass(frozen=True)
class Size:
    args: tuple[str, ...]
    rows: tuple[int, ...]  # expected data rows, one per output file


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    output_flag: str
    output_target: str
    outputs: tuple[tuple[str, tuple[str, ...]], ...]  # (file name, header)
    sizes: dict[str, Size]
    layers: tuple[str, ...]  # spans that must record calls on this workload

    def argv(self, size: str, amplitudes: str, workdir: Path) -> list[str]:
        return [self.subcommand, *self.sizes[size].args, f"--amplitudes={amplitudes}",
                self.output_flag, str(workdir / self.output_target)]


_WRITE_LAYERS = ("cli.main", "csvio.write_table", "csvio.render_table")
_BATH_LAYERS = _WRITE_LAYERS + (
    "sweeps.state_series", "bath.bath_gamma", "quadrature.integrate_decaying",
    "quadrature.composite_gauss", "entanglement.entanglement_measures")

WORKLOADS = {w.name: w for w in (
    # One 2048-matrix entanglement kernel call per gapped (alpha, omega_0) cell
    # dominates; the (T, omega_0) table adds non-oscillatory quadrature.
    Workload(
        name="steady_sweep",
        subcommand="steady-sweep",
        output_flag="--output-prefix",
        output_target="out",
        outputs=(
            ("out_entanglement.csv",
             ("alpha", "omega0", "has_steady_state", "c_max_steady", "s_steady")),
            ("out_thermal.csv",
             ("temperature", "omega0", "has_steady_state", "overlap_infinity")),
        ),
        sizes={
            "full": Size(("--alpha-grid", "0.05:1:3", "--gap-grid", "0:0.5:10",
                          "--temperature-grid", "0:2:9"), (30, 90)),
            "tiny": Size(("--alpha-grid", "0.05:1:2", "--gap-grid", "0:0.5:2",
                          "--temperature-grid", "0:2:2"), (4, 4)),
        },
        layers=_WRITE_LAYERS + (
            "sweeps.steady_state_table", "bath.steady_state_stats",
            "entanglement.entanglement_measures", "bath.gamma_R_infinity",
            "quadrature.integrate_decaying", "quadrature.composite_gauss",
            "sweeps.thermal_overlap_table"),
    ),
    # Per-t oscillatory quadrature in bath_gamma dominates; the kernel sees few
    # matrices.  An exact closed form exists for this path.
    Workload(
        name="bath_gapless",
        subcommand="bath-series",
        output_flag="--output",
        output_target="out.csv",
        outputs=(("out.csv", BATH_HEADER),),
        sizes={
            "full": Size(("--alpha", "0.25", "--t-max", "100", "--points", "75"), (75,)),
            "tiny": Size(("--alpha", "0.25", "--t-max", "10", "--points", "3"), (3,)),
        },
        layers=_BATH_LAYERS,
    ),
    # Quadrature with thermal_kernel: the one bath path with no closed form, so a
    # change that speeds the closed-form paths but slows this one shows here.
    Workload(
        name="bath_gapped_thermal",
        subcommand="bath-series",
        output_flag="--output",
        output_target="out.csv",
        outputs=(("out.csv", BATH_HEADER),),
        sizes={
            "full": Size(("--alpha", "0.25", "--gap", "0.1", "--temperature", "0.5",
                          "--t-max", "300", "--points", "20"), (20,)),
            "tiny": Size(("--alpha", "0.25", "--gap", "0.1", "--temperature", "0.5",
                          "--t-max", "10", "--points", "3"), (3,)),
        },
        layers=_BATH_LAYERS,
    ),
    # One large kernel batch (peak memory), result reshaping and CSV rendering;
    # no bath work.
    Workload(
        name="single_mode_long",
        subcommand="single-mode",
        output_flag="--output",
        output_target="out.csv",
        outputs=(("out.csv", ("t", "theta_t", "concurrence", "ideal_concurrence",
                              "entropy", "overlap")),),
        sizes={
            "full": Size(("--omega-over-lambda", "4.5", "--theta-t-max", "50",
                          "--points", "30000"), (30000,)),
            "tiny": Size(("--omega-over-lambda", "4.5", "--theta-t-max", "1",
                          "--points", "50"), (50,)),
        },
        layers=_WRITE_LAYERS + ("single_mode.time_series",
                                "entanglement.entanglement_measures"),
    ),
)}


def draw_amplitudes(seed: int) -> str:
    """Normalized complex amplitudes a,b,c,d drawn from ``seed``, as CLI text."""
    rng = random.Random(seed)
    values = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in values))
    return ",".join(f"{z.real / norm:.17g}{z.imag / norm:+.17g}j" for z in values)


def reference_path(workload: Workload, file_name: str) -> Path:
    return REFERENCE_DIR / workload.name / file_name


def write_reference(path: Path, workload_name: str, text: str, rows: int) -> None:
    """Store every stride-th data row of ``text`` (printed text, unchanged)."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    stride = max(1, math.ceil(rows / REFERENCE_MAX_ROWS))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# workload: {workload_name}\n")
        fh.write(f"# rows: {rows}\n")
        fh.write(f"# stride: {stride}\n")
        fh.write(f"# sha256: {hashlib.sha256(text.encode('utf-8')).hexdigest()}\n")
        fh.write(lines[0] + "\n")
        fh.writelines(line + "\n" for line in lines[1::stride])


def _check_ranges(name: str, columns: dict[str, np.ndarray]) -> list[str]:
    problems = []
    for column, values in columns.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"{name}: non-finite value in {column}")
    has = columns.get("has_steady_state")
    if has is not None and not np.all((has == 0.0) | (has == 1.0)):
        problems.append(f"{name}: has_steady_state is not 0/1")
    for column, values in columns.items():
        if column not in RANGES:
            continue
        low, high, low_inclusive = RANGES[column]
        if column in SENTINEL_COLUMNS and has is not None:
            if not np.all(values[has == 0.0] == SENTINEL):
                problems.append(f"{name}: {column} lacks the -1 sentinel where "
                                "has_steady_state = 0")
            values = values[has == 1.0]
        above_low = values >= low - RANGE_TOL if low_inclusive else values > low
        if not np.all(above_low & (values <= high + RANGE_TOL)):
            problems.append(f"{name}: {column} outside [{low:g}, {high:g}]")
    return problems


def _parse(text: str):
    # Imported on use so that a checkout without sources fails with a message
    # in run.py rather than an ImportError here.
    from twospinboson import csvio

    return csvio.parse_table(text)


def _check_reference(name: str, path: Path, text: str, columns) -> tuple[list[str], bool]:
    ref_columns, ref_meta = _parse(path.read_text(encoding="utf-8"))
    identical = hashlib.sha256(text.encode("utf-8")).hexdigest() == ref_meta["sha256"]
    stride = int(ref_meta["stride"])
    problems = []
    for column, ref_values in ref_columns.items():
        values = columns[column][::stride]
        if values.shape != ref_values.shape or not np.allclose(
                values, ref_values, rtol=REF_RTOL, atol=REF_ATOL):
            problems.append(f"{name}: {column} differs from the reference at 12 digits")
    return problems, identical


def check_outputs(workload: Workload, size: str, workdir: Path,
                  compare_reference: bool) -> tuple[list[str], bool | None]:
    """Gate one invocation's output files.

    Returns the list of problems (empty when the output passes) and whether
    every file is byte-identical to its reference (``None`` when no reference
    comparison was made).  Byte-identity is reported, never gated on.
    """
    problems: list[str] = []
    identical: bool | None = True if compare_reference else None
    for (name, header), rows in zip(workload.outputs, workload.sizes[size].rows):
        path = workdir / name
        try:
            text = path.read_text(encoding="utf-8")
            columns, _ = _parse(text)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: unreadable ({exc})")
            continue
        if tuple(columns) != header:
            problems.append(f"{name}: header {tuple(columns)} != {header}")
            continue
        if len(columns[header[0]]) != rows:
            problems.append(f"{name}: {len(columns[header[0]])} rows, expected {rows}")
            continue
        problems += _check_ranges(name, columns)
        if compare_reference:
            ref_problems, same = _check_reference(
                name, reference_path(workload, name), text, columns)
            problems += ref_problems
            identical = identical and same
    return problems, identical
