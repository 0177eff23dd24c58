"""Self-describing CSV emission and parsing.

Tables are written as `#`-prefixed metadata lines (tool version and the full
parameter set), one header row, then rows of numbers printed with 12
significant digits.  Files re-parse to exactly the printed values, so a
write/read/write cycle is byte identical.
"""

from __future__ import annotations

import io

import numpy as np

__all__ = ["format_value", "render_table", "write_table", "parse_table"]

# Rows rendered per block: bounds the temporary row tuple to about 4096 rows.
_ROW_BLOCK = 4096


def format_value(value: float) -> str:
    """Render a number with 12 significant digits."""
    return f"{value:.12g}"


def render_table(columns: dict[str, np.ndarray], metadata: dict[str, object]) -> str:
    """Render metadata lines, header and rows as one CSV string.

    ``columns`` must be nonempty with equal-length values; insertion order
    fixes the column order.
    """
    if not columns:
        raise ValueError("table must have at least one column")
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    length = arrays[0].shape[0]
    for name, arr in zip(names, arrays):
        if arr.ndim != 1 or arr.shape[0] != length:
            raise ValueError(f"column {name!r} is not a 1-D column of length {length}")

    out = io.StringIO()
    for key, value in metadata.items():
        out.write(f"# {key}: {value}\n")
    out.write(",".join(names) + "\n")
    # One printf-style format per block of rows renders each number exactly
    # as format_value does, without a Python call per value.
    row = ",".join(["%.12g"] * len(arrays)) + "\n"
    for low in range(0, length, _ROW_BLOCK):
        block = np.column_stack([arr[low:low + _ROW_BLOCK] for arr in arrays])
        out.write(row * block.shape[0] % tuple(block.ravel().tolist()))
    return out.getvalue()


def write_table(path, columns: dict[str, np.ndarray], metadata: dict[str, object]) -> None:
    """Write the rendered table to ``path`` in one shot."""
    text = render_table(columns, metadata)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def parse_table(text: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Parse CSV text produced by :func:`render_table`.

    Returns the columns (float arrays, header order) and the metadata map.
    """
    metadata: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                metadata[key.strip()] = value.strip()
            continue
        if header is None:
            header = [name.strip() for name in line.split(",")]
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if header is None:
        raise ValueError("no header row found")
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row length does not match header")
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return {name: data[:, k] for k, name in enumerate(header)}, metadata
