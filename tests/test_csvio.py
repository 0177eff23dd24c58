"""CSV round-trip tests: 12-significant-digit rendering and exact reparse."""

import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twospinboson import csvio, csvkernel


def _with_neighbours(values) -> np.ndarray:
    values = np.array(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def _exact_ties() -> np.ndarray:
    """Doubles whose 13th significant digit is an exact 5: N / 10^m for a
    13-digit N ending in 5, held exactly as (N / 5^m) / 2^m, and N * 10, N * 100."""
    multiples = [1234567890125, 9999999999995]
    for m in range(1, 18):
        multiples += [(-(-10**12 // 5**m) | 1) * 5**m, (((10**13 - 1) // 5**m - 1) | 1) * 5**m]
    ties = [n // 5**m / 2**m for n in multiples for m in range(18) if n % 5**m == 0]
    ties += [n * 10.0**p for n in multiples[:2] for p in (1, 2)]
    for tie in ties:
        digits = Decimal(tie).normalize().as_tuple().digits
        assert len(digits) == 13 and digits[-1] == 5
    return np.array(ties)


# Every power of ten 1e-330 (which is 0) to 1e308 and both neighbours, the %g
# switch points 1e-5, 1e-4, 1e11 and 1e12 among them; the neighbours of the
# carry values 9.999999999995e<k>; exact ties of the 13th digit; zeros of both
# signs, infinities, nan, the smallest subnormals and the extremes.
_EDGE_VALUES = np.concatenate([
    _with_neighbours([float(f"1e{k}") for k in range(-330, 309)]),
    _with_neighbours([float(f"9.999999999995e{k}") for k in range(-330, 309)]),
    _exact_ties(), -_exact_ties(),
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, np.pi, 1e-300,
     123456789012345.0]])


class TestFormatValue:
    def test_twelve_significant_digits(self):
        assert csvio.format_value(np.pi) == "3.14159265359"
        assert csvio.format_value(1.0) == "1"
        assert csvio.format_value(-1.0) == "-1"
        assert csvio.format_value(0.25) == "0.25"

    def test_small_and_large(self):
        assert csvio.format_value(1e-300) == "1e-300"
        assert csvio.format_value(123456789012345.0) == "1.23456789012e+14"


class TestRenderAndParse:
    def test_round_trip_values(self):
        columns = {"x": np.array([0.0, 0.5, 1.0]),
                   "y": np.array([1.0, np.pi, -2e-5])}
        metadata = {"tool": "demo 0.1.0", "points": 3}
        text = csvio.render_table(columns, metadata)
        parsed, meta = csvio.parse_table(text)
        assert list(parsed) == ["x", "y"]
        assert meta == {"tool": "demo 0.1.0", "points": "3"}
        for name in columns:
            np.testing.assert_allclose(parsed[name], columns[name], rtol=1e-11)

    def test_second_render_is_byte_identical(self):
        # Values already at 12 significant digits reprint exactly.
        columns = {"x": np.array([0.1, 0.2]), "y": np.array([3.0, 4.0])}
        metadata = {"subcommand": "demo"}
        text = csvio.render_table(columns, metadata)
        parsed, meta = csvio.parse_table(text)
        assert csvio.render_table(parsed, meta) == text

    def test_write_and_read_file(self, tmp_path):
        path = tmp_path / "table.csv"
        columns = {"t": np.linspace(0.0, 1.0, 5)}
        csvio.write_table(path, columns, {"tool": "demo"})
        parsed, meta = csvio.parse_table(path.read_text())
        np.testing.assert_allclose(parsed["t"], columns["t"], rtol=1e-11)
        assert meta["tool"] == "demo"

    @pytest.mark.parametrize("block", [csvio._ROW_BLOCK, 3, 4096])
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(values=_EDGE_VALUES)
    @given(values=st.lists(st.floats() | st.floats(-1e34, 1e34), min_size=1, max_size=60))
    def test_rows_render_as_format_value(self, monkeypatch, block, values):
        # Every float64 prints exactly as format_value prints it, through the
        # byte kernel and through the % route, also when the rows are split
        # across several blocks.
        monkeypatch.setattr(csvio, "_ROW_BLOCK", block)
        special = np.array(values, dtype=float)
        columns = {"x": special, "y": special[::-1], "z": -special}
        expected = "".join(
            ",".join(csvio.format_value(columns[name][k]) for name in columns) + "\n"
            for k in range(special.size))
        for threshold in (0, math.inf):
            monkeypatch.setattr(csvio, "_KERNEL_MIN_VALUES", threshold)
            assert csvio.render_table(columns, {}) == "x,y,z\n" + expected

    def test_kernel_memory_stays_within_a_block(self, monkeypatch):
        # A table of 10^5 rows rendered to one string costs its text twice
        # (the pieces and the joined bytes, then those and the string) plus
        # a fixed multiple of one 1024-row block, and no kernel call needs
        # more than that multiple.  Blocks of 2048 rows need
        # twice as much and took 8,800 page faults in a fresh process.
        block_bytes, multiple = 1024 * 6 * 8, 40
        render_rows, calls = csvkernel.render_rows, []

        def recording(block):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            text = render_rows(block)
            calls.append(tracemalloc.get_traced_memory()[1] - start)
            return text

        monkeypatch.setattr(csvkernel, "render_rows", recording)
        rng = np.random.default_rng(7)
        columns = {f"c{k}": rng.standard_normal(100_000) for k in range(6)}
        tracemalloc.start()
        try:
            text = csvio.render_table(columns, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 98
        assert max(calls) < multiple * block_bytes
        assert peak < 2 * len(text) + multiple * block_bytes

    def test_write_table_memory_stays_within_a_block(self, tmp_path):
        # The file is written block by block: a table of 10^5 rows (a 9.1 MB
        # text) costs a fixed multiple of one 1024-row block, not its text
        # (about 30 blocks; with the text built whole, about 370).
        block_bytes, multiple = 1024 * 6 * 8, 40
        rng = np.random.default_rng(7)
        columns = {f"c{k}": rng.standard_normal(100_000) for k in range(6)}
        path = tmp_path / "table.csv"
        tracemalloc.start()
        try:
            csvio.write_table(path, columns, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 4 * multiple * block_bytes
        assert peak < multiple * block_bytes

    @pytest.mark.parametrize("rows", [3, 2100])
    def test_write_table_bytes_equal_render_table(self, tmp_path, rows):
        # 2100 rows of 3 columns: two kernel blocks, then 52 rows by %.
        t = np.linspace(0.0, 7.0, rows)
        columns = {"t": t, "sin": np.sin(t), "exp": np.exp(-t)}
        metadata = {"tool": "demo", "units": "θ t in 1/λ, ω/λ = 4.5"}
        path = tmp_path / "table.csv"
        csvio.write_table(path, columns, metadata)
        assert path.read_bytes() == csvio.render_table(columns, metadata).encode("utf-8")

    @pytest.mark.parametrize("columns, metadata", [
        ({"x": np.zeros(2)}, {"a": "x\ny"}),
        ({"a": np.zeros(3), "b": np.zeros(2)}, {}),
        ({}, {}),
    ])
    def test_refused_table_creates_no_file(self, tmp_path, columns, metadata):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError):
            csvio.write_table(path, columns, metadata)
        assert not path.exists()

    @pytest.mark.parametrize("metadata", [{"a\nb": 1}, {"a": "x\ry"}, {"a": "0.5\n,0.5"}])
    def test_rejects_line_break_in_metadata(self, metadata):
        with pytest.raises(ValueError, match="must not contain a line break"):
            csvio.render_table({"x": np.zeros(2)}, metadata)

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError, match="at least one column"):
            csvio.render_table({}, {})

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="1-D column"):
            csvio.render_table({"a": np.zeros(3), "b": np.zeros(2)}, {})

    def test_parse_rejects_headerless_text(self):
        with pytest.raises(ValueError, match="header"):
            csvio.parse_table("# only: metadata\n")

    def test_parse_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="row length"):
            csvio.parse_table("a,b\n1,2\n3\n")

    def test_empty_data_section(self):
        parsed, _ = csvio.parse_table("a,b\n")
        assert parsed["a"].shape == (0,)
