"""CSV round-trip tests: 12-significant-digit rendering and exact reparse."""

import numpy as np
import pytest

from twospinboson import csvio


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

    @pytest.mark.parametrize("block", [4096, 3])
    def test_rows_render_as_format_value(self, monkeypatch, block):
        # Signed zeros, infinities, nan, the smallest subnormals and the
        # extremes print exactly as format_value prints each value, also
        # when the rows are split across several blocks.
        monkeypatch.setattr(csvio, "_ROW_BLOCK", block)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            1e308, -1e308, np.pi, 1e-300, 123456789012345.0])
        columns = {"x": special, "y": special[::-1], "z": -special}
        expected = "".join(
            ",".join(csvio.format_value(columns[name][k]) for name in columns) + "\n"
            for k in range(special.size))
        text = csvio.render_table(columns, {})
        assert text == "x,y,z\n" + expected

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
