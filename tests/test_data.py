"""The CSV writer: the bytes it writes and an exact round trip through the reader."""

import csv

import numpy as np
import pytest

from quadsurv.data import SurvivalData, load_csv, save_csv, write_columns


def _write_rows_reference(path, header, rows):
    """The row-by-row writer ``write_columns`` replaced: floats as ``repr``,
    every other cell through ``str``."""
    def fmt(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


EXTREMES = [5e-324, 2.2250738585072014e-308, -0.0, 1.7976931348623157e308, 1e16,
            1e-05, 0.1 + 0.2]


def test_write_columns_matches_row_writer(tmp_path):
    columns = [
        np.array(EXTREMES),
        np.arange(-3, 4, dtype=np.int64),
        [0.5, -2.0, 1e300, 3.0, 1 / 3, 7.0, -1e-300],
        [1, 2, 3, 4, 5, 6, 7],
        [True, False, True, True, False, False, True],
        ["", "plain", 'a, "quoted" cell', "", "x=1", "marginal", ""],
    ]
    header = ["f8", "i8", "floats", "ints", "bools", "text"]
    write_columns(tmp_path / "columns.csv", header, columns)
    _write_rows_reference(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_columns_unequal_lengths_raise(tmp_path):
    with pytest.raises(ValueError):
        write_columns(tmp_path / "short.csv", ["a", "b"], [np.arange(3.0), [1.0, 2.0]])


def test_save_load_csv_bit_exact_for_extreme_floats(tmp_path):
    values = np.array(EXTREMES)
    data = SurvivalData(np.column_stack([values, -values]), values,
                        np.arange(len(values)) % 2, ("a", "b"))
    save_csv(data, tmp_path / "extreme.csv")
    back = load_csv(tmp_path / "extreme.csv")
    assert back.columns == ("a", "b")
    assert back.x.tobytes() == data.x.tobytes()
    assert back.time.tobytes() == data.time.tobytes()
    assert np.signbit(back.time[2]) and np.signbit(back.x[2, 0])
    np.testing.assert_array_equal(back.event, data.event)
