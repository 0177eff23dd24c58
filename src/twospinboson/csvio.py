"""Self-describing CSV emission and parsing.

Tables are written as `#`-prefixed metadata lines (tool version and the full
parameter set), one header row, then rows of numbers printed with 12
significant digits.  Files re-parse to exactly the printed values, so a
write/read/write cycle is byte identical.  A metadata line may not hold a
line break, which would split it.

Rows are rendered in blocks of 1024, each by one of two routes that print
the same bytes as ``'%.12g' % x`` for every value:

- a block of fewer than 512 values goes through one printf-style ``%``
  format, whose cost is about 0.3 us per value;
- a larger block goes through the byte kernel of
  :mod:`twospinboson.csvkernel`, imported on first use, which has a fixed
  cost of about 55 us and then takes under half the time per value.  It
  scales each value by an exact power of ten and *certifies* its 12 digits
  when the product's fraction is more than 2^-11 from a rounding tie, four
  times the product's worst error; it prints every value it cannot certify
  (zero aside: inf, nan, exponents past the exact powers, near-ties) with
  ``%``.

The blocks are 1024 rows because the kernel's temporaries then stay small
enough for the allocator to reuse them from block to block: with 2048-row
blocks a fresh process took about 8,800 page faults on a 30,000-row,
6-column table, against about 1,300 for the ``%`` route alone.

:func:`write_table` writes the file block by block: the metadata and header
lines, then each row block as soon as it is rendered.  Its memory is one
block's text plus the kernel's temporaries, not the whole text.
:func:`render_table` joins the same blocks into one string.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["format_value", "require_one_line", "render_table", "write_table", "parse_table"]

# Rows per block, and the fewest values of a block that takes the byte
# kernel (the routes break even at 250 to 400 values); see above.
_ROW_BLOCK = 1024
_KERNEL_MIN_VALUES = 512


def format_value(value: float) -> str:
    """Render a number with 12 significant digits."""
    return f"{value:.12g}"


def require_one_line(text: str, what: str) -> str:
    """``text`` itself, or ValueError if it holds a line break :func:`parse_table` splits on."""
    if "".join(text.splitlines()) != text:
        raise ValueError(f"{what} must not contain a line break, got {text!r}")
    return text


def _render_blocks(columns: dict[str, np.ndarray], metadata: dict[str, object]) -> Iterator[bytes]:
    """Yield the table as UTF-8 bytes: metadata and header lines, then each row block.

    ``columns`` and ``metadata`` are checked as :func:`render_table` states,
    all before the first chunk is yielded.
    """
    if not columns:
        raise ValueError("table must have at least one column")
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    length = arrays[0].shape[0]
    for name, arr in zip(names, arrays):
        if arr.ndim != 1 or arr.shape[0] != length:
            raise ValueError(f"column {name!r} is not a 1-D column of length {length}")
    head = [require_one_line(f"# {key}: {value}", "a metadata line") + "\n"
            for key, value in metadata.items()]
    yield ("".join(head) + ",".join(names) + "\n").encode("utf-8")

    row = ",".join(["%.12g"] * len(arrays)) + "\n"
    for low in range(0, length, _ROW_BLOCK):
        block = np.column_stack([arr[low:low + _ROW_BLOCK] for arr in arrays])
        if block.size < _KERNEL_MIN_VALUES:
            # One printf-style format per block, without a Python call per value.
            yield (row * block.shape[0] % tuple(block.ravel().tolist())).encode("ascii")
        else:
            from .csvkernel import render_rows

            yield render_rows(block)


def render_table(columns: dict[str, np.ndarray], metadata: dict[str, object]) -> str:
    """Render metadata lines, header and rows as one CSV string.

    ``columns`` must be nonempty with equal-length values; insertion order
    fixes the column order.  A metadata key or value with a line break is
    refused, since it would split its line.
    """
    return b"".join(_render_blocks(columns, metadata)).decode("utf-8")


def write_table(path, columns: dict[str, np.ndarray], metadata: dict[str, object]) -> None:
    """Write the bytes of :func:`render_table` to ``path``, one row block at a time.

    A table :func:`render_table` refuses raises ValueError before ``path``
    is opened, so it creates no file.
    """
    chunks = _render_blocks(columns, metadata)
    head = next(chunks)
    with open(path, "wb") as fh:
        fh.write(head)
        for chunk in chunks:
            fh.write(chunk)


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
