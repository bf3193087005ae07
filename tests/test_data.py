import csv
import os
import random
import shutil
import struct
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsttn.data

from hsttn.data import (
    DEFAULT_CHANNELS,
    MINUTES_PER_DAY,
    NormStats,
    RecordSet,
    Schema,
    SplitBounds,
    apply_zscore,
    drop_fully_invalid,
    fit_zscore,
    load_records,
    make_windows,
    mark_invalid,
    synth_generate,
    window_at,
    write_csv,
)
from hsttn.errors import ConfigError, DatasetError, IngestError
from hsttn.kv import write_kv


def small_schema():
    return Schema(channels=("Wspd", "Wdir", "Patv"), nacelle_direction=None)


def write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


HEADER = ["TurbID", "Day", "Tmstamp", "Wspd", "Wdir", "Patv"]


def grid_cache(path):
    """Where `load_records` keeps the grid it parsed from record file `path`."""
    return path.with_name(f".{path.name}.hsttn-grid")


def parse_again(path):
    """Delete the grid cache of record file `path`, if a load left one, so that the
    next load parses the file."""
    grid_cache(path).unlink(missing_ok=True)


class TestLoadRecords:
    def test_full_grid(self, tmp_path):
        rows = []
        for turb in (1, 2):
            for slot, stamp in enumerate(["00:00", "00:10", "00:20"]):
                rows.append([turb, 1, stamp, 5.0 + slot, 10.0, 100.0 * turb])
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, rows)
        rs = load_records(path, small_schema())
        assert rs.values.shape == (2, 3, 3)
        assert rs.validity.all()
        assert rs.turbine_ids == (1, 2)

    def test_missing_target_cell_invalidates_record(self, tmp_path):
        rows = [
            [1, 1, "00:00", 5.0, 10.0, 100.0],
            [1, 1, "00:10", 5.0, 10.0, ""],
        ]
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, rows)
        rs = load_records(path, small_schema())
        assert rs.values.shape == (1, 2, 3)
        assert rs.validity[0, 0]
        assert not rs.validity[0, 1]

    def test_gap_in_grid_is_invalid(self, tmp_path):
        rows = [
            [1, 1, "00:00", 5.0, 10.0, 100.0],
            [1, 1, "00:20", 5.0, 10.0, 100.0],
        ]
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, rows)
        rs = load_records(path, small_schema())
        assert rs.values.shape == (1, 3, 3)
        assert not rs.validity[0, 1]

    def test_default_schema_has_13_channels(self, tmp_path):
        schema = Schema(channels=DEFAULT_CHANNELS)
        assert len(schema.channels) == 13
        rs = synth_generate(2, 4, 13, seed=0)
        assert rs.values.shape == (2, 4, 13)
        path = tmp_path / "farm.csv"
        write_csv(rs, path)
        reloaded = load_records(path, rs.schema)
        assert reloaded.n_channels == 13

    def test_non_finite_value_invalidates_record(self, tmp_path):
        rows = [
            [1, 1, "00:00", 5.0, 10.0, "nan"],
            [1, 1, "00:10", 5.0, 10.0, 100.0],
        ]
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, rows)
        rs = load_records(path, small_schema())
        assert not rs.validity[0, 0]
        assert rs.validity[0, 1]

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER + ["Mystery"],
                   [[1, 1, "00:00", 5.0, 10.0, 100.0, 1.0]])
        with pytest.raises(IngestError, match="Mystery"):
            load_records(path, small_schema())

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER + ["Patv"], [[1, 1, "00:00", 5.0, 10.0, 100.0, 999.0]])
        with pytest.raises(IngestError, match=r"\['Patv'\] repeated in header"):
            load_records(path, small_schema())

    def test_row_wider_than_header_names_row(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [[1, 1, "00:00", 5.0, 10.0, 100.0],
                                  [1, 1, "00:10", 5.0, 10.0, 100.0, 77]])
        with pytest.raises(IngestError, match=r"farm\.csv:3: 7 cells but the header has 6"):
            load_records(path, small_schema())

    def test_short_row_becomes_invalid_cells(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [[1, 1, "00:00", 5.0, 10.0, 100.0],
                                  [1, 1, "00:10", 5.0]])
        rs = load_records(path, small_schema())
        assert rs.validity.tolist() == [[True, False]]
        assert rs.values[0, 1, 0] == 5.0 and np.isnan(rs.values[0, 1, 1:]).all()

    def test_unparseable_numeric_names_row(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [[1, 1, "00:00", "abc", 10.0, 100.0]])
        with pytest.raises(IngestError, match=":2"):
            load_records(path, small_schema())

    @pytest.mark.parametrize("stamp", ["01:70", "24:00", "-1:10"])
    def test_time_of_day_out_of_range_names_row(self, tmp_path, stamp):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [[1, 1, "00:00", 5.0, 10.0, 100.0],
                                  [1, 1, stamp, 5.0, 10.0, 100.0]])
        with pytest.raises(IngestError, match=r"farm\.csv:3: time of day .* out of range"):
            load_records(path, small_schema())

    @pytest.mark.parametrize("stamp", ["12:10:99", "12:10:", "1_2:10", "+12:10", "12:1_0",
                                       "\u0661\u0662:10", "12:10:00:00",
                                       pytest.param("1" * 5000 + ":00", id="5000-digit-hour")])
    def test_time_of_day_with_other_characters_names_row(self, tmp_path, stamp):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [[1, 1, "00:00", 5.0, 10.0, 100.0],
                                  [1, 1, stamp, 5.0, 10.0, 100.0]])
        with pytest.raises(IngestError, match=r"farm\.csv:3: cannot parse time of day"):
            load_records(path, small_schema())

    def test_time_of_day_may_carry_zero_seconds(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [[1, 1, "00:00:00", 5.0, 10.0, 100.0],
                                  [1, 1, " 0:10 ", 5.0, 10.0, 100.0]])
        assert load_records(path, small_schema()).n_timestamps == 2

    def test_sparse_span_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [[1, 5000, "00:00", 5.0, 10.0, 100.0],
                                  [1, 1, "00:00", 5.0, 10.0, 100.0]])
        tracemalloc.start()
        try:
            with pytest.raises(IngestError, match=r"\(line 3\) and the latest \(line 2\) span 719857 slots"):
                load_records(path, small_schema())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the (1, 719857, 3) grid alone is 17 MB

    def test_span_of_twice_the_rows_is_loaded(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [[1, 1, "00:00", 5.0, 10.0, 100.0],
                                  [1, 1, "00:30", 5.0, 10.0, 100.0]])
        rs = load_records(path, small_schema())
        assert rs.values.shape == (1, 4, 3)
        assert rs.validity.sum() == 2
        write_rows(path, HEADER, [[1, 1, "00:00", 5.0, 10.0, 100.0],
                                  [1, 1, "00:40", 5.0, 10.0, 100.0]])
        with pytest.raises(IngestError, match="span 5 slots"):
            load_records(path, small_schema())

    @pytest.mark.parametrize("line6, message", [
        ("1,1,00:30,abc,10.0,100.0", r"q\.csv:6: cannot parse numeric value 'abc'"),
        ("1,1,00:00,5.0,10.0,100.0", r"q\.csv:6: duplicate record for turbine 1"),
        ("1,9,00:30,5.0,10.0,100.0", r"\(line 2\) and the latest \(line 6\) span"),
    ], ids=["bad-cell", "duplicate", "span"])
    @pytest.mark.parametrize("block", [2, 1024])
    def test_lines_after_a_quoted_line_break_are_named(self, tmp_path, monkeypatch, block,
                                                       line6, message):
        # the quoted Wspd cell of the row on line 3 runs onto line 4, across
        # the boundary of blocks of two lines
        monkeypatch.setattr("hsttn.data._BLOCK_ROWS", block)
        path = tmp_path / "q.csv"
        path.write_text("\n".join([",".join(HEADER), "1,1,00:00,5.0,10.0,100.0",
                                   '1,1,00:10,"5.0', '",10.0,100.0',
                                   "1,1,00:20,5.0,10.0,100.0", line6]) + "\n")
        with pytest.raises(IngestError, match=message):
            load_records(path, small_schema())

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [
            [1, 1, "00:00", 5.0, 10.0, 100.0],
            [1, 1, "00:00", 6.0, 11.0, 101.0],
        ])
        with pytest.raises(IngestError, match="duplicate"):
            load_records(path, small_schema())


def farm_rows(count):
    """`count` good rows of turbine 1, one ten-minute slot apart."""
    return [[1, 1 + i // 144, f"{i % 144 // 6:02d}:{i % 6}0", 5.0, 10.0, 100.0]
            for i in range(count)]


def write_csv_by_row(rs, path):
    """The row-at-a-time writer that `write_csv` must match byte for byte."""
    schema = rs.schema
    spd = schema.slots_per_day
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.id_column, schema.day_column, schema.time_column,
                         *schema.channels])
        for ni, tid in enumerate(rs.turbine_ids):
            for ti in range(rs.n_timestamps):
                minutes = ti % spd * schema.step_minutes
                row = [str(tid), str(1 + ti // spd), f"{minutes // 60:02d}:{minutes % 60:02d}"]
                cells = rs.values[ni, ti]
                if rs.validity[ni, ti]:
                    row.extend(repr(float(v)) for v in cells)
                else:
                    row.extend("" if not np.isfinite(v) else repr(float(v)) for v in cells)
                writer.writerow(row)


def draw_grid(data, shape):
    """A float64, float32 or int64 value grid of `shape` whose floats span
    their range and hold nan, inf, -inf and -0.0, and a validity mask."""
    dtype = data.draw(st.sampled_from([np.float64, np.float32, np.int64]), label="dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32), label="seed"))
    if dtype is np.int64:
        values = rng.integers(-2 ** 63, 2 ** 63 - 1, size=shape, dtype=np.int64)
    else:
        exponent = 300 if dtype is np.float64 else 30
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-exponent, exponent, size=shape)
        special = rng.random(shape) < data.draw(st.floats(0.0, 0.5), label="special")
        values[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=special.sum())
        values = values.astype(dtype)
    return values, rng.random(shape[:2]) < data.draw(st.floats(0.0, 1.0), label="valid share")


class TestBlockwiseLoad:
    """Each block of rows is parsed column by column, yet every message names
    the line a row-by-row reading would stop at."""

    @pytest.fixture
    def three_row_blocks(self, monkeypatch):
        monkeypatch.setattr("hsttn.data._BLOCK_ROWS", 3)

    def load_with_faults(self, tmp_path, faults):
        """Load good rows with `faults` ({line: row}) put in place."""
        rows = farm_rows(12)
        for line, row in faults.items():
            rows[line - 2] = row
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, rows)
        load_records(path, small_schema())

    @pytest.mark.parametrize("faults, message", [
        # the channel fault sits in the first block, the id fault in the third
        ({3: [1, 1, "00:10", 5.0, 10.0, "abc"], 9: ["x", 1, "01:00", 5.0, 10.0, 100.0]},
         r"farm\.csv:3: cannot parse numeric value 'abc' for channel 'Patv'"),
        # the block of lines 8-10: the time column is parsed first but its
        # fault is later
        ({8: [1, 1, "01:00", 5.0, "abc", 100.0], 9: [1, 1, "1:2:3", 5.0, 10.0, 100.0]},
         r"farm\.csv:8: cannot parse numeric value 'abc' for channel 'Wdir'"),
        # one row: its id, day and time come before its channels
        ({5: [1, "y", "00:30", "abc", 10.0, 100.0], 13: [1, 1, "02:00", "abc", 10.0, 100.0]},
         r"farm\.csv:5: cannot parse turbine id, day, or time"),
        # a fault ahead of a wide row in its block is named, not the width
        ({6: [1, 1, "00:40", 5.0, 10.0, 100.0, 77], 5: [1, 1, "00:31", 5.0, 10.0, 100.0]},
         r"farm\.csv:5: time '00:31' is not aligned to 10-minute slots"),
        ({4: [1, 1, "00:20", 5.0, 10.0, 100.0, 77], 12: [1, 1, "25:00", 5.0, 10.0, 100.0]},
         r"farm\.csv:4: 7 cells but the header has 6 columns"),
    ], ids=["across-blocks", "within-block", "within-row", "before-wide-row", "wide-row-first"])
    def test_earliest_bad_line_is_named(self, tmp_path, three_row_blocks, faults, message):
        with pytest.raises(IngestError, match=message):
            self.load_with_faults(tmp_path, faults)

    @pytest.mark.parametrize("quote", [False, True], ids=["unquoted", "after-a-quote"])
    @pytest.mark.parametrize("line4, message", [
        ("1,1,00:20,5.0,10.0,100.0,77", r"farm\.csv:4: 7 cells but the header has 6 columns"),
        ("1,1,00:20,5.0,10.0,abc", r"farm\.csv:4: cannot parse numeric value 'abc'"),
    ], ids=["wide-row", "bad-cell"])
    def test_a_fault_before_bad_bytes_in_its_block_is_named(self, tmp_path, quote, line4,
                                                            message):
        # the bytes that are not UTF-8 sit about 16 KB further into the same
        # block of 1,024 lines, beyond the text decoder's first chunk
        lines = [",".join(HEADER)] + [",".join(map(str, row)) for row in farm_rows(600)]
        lines[3] = line4
        if quote:
            lines[1] = lines[1].replace(",5.0,", ',"5.0",')
        path = tmp_path / "farm.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode() + b"1,5,00:00,\xff,1.0,2.0\n")
        with pytest.raises(IngestError, match=message):
            load_records(path, small_schema())

    def test_a_record_cut_by_bad_bytes_is_not_read(self, tmp_path):
        # line 3 opens a quoted day that line 4 closes; line 4 runs over more
        # than one chunk of the text decoder and ends in bytes that are not UTF-8
        path = tmp_path / "farm.csv"
        path.write_bytes(f'{",".join(HEADER)}\n1,1,00:00,5.0,10.0,100.0\n1,"\n'.encode()
                         + b'1",00:10,5.0,10.0,' + b"9" * 20000 + b"\xff\n")
        with pytest.raises(IngestError, match="not UTF-8 text"):
            load_records(path, small_schema())

    @pytest.mark.parametrize("short", [[1, 1], [1]])
    def test_short_row_without_time_is_a_key_error(self, tmp_path, three_row_blocks, short):
        # an empty time cell is a bad time; a missing one is a missing key
        faults = {4: short, 11: [1, 1, "", 5.0, 10.0, 100.0]}
        with pytest.raises(IngestError,
                           match=r"farm\.csv:4: cannot parse turbine id, day, or time"):
            self.load_with_faults(tmp_path, faults)
        with pytest.raises(IngestError, match=r"farm\.csv:11: cannot parse time of day ''"):
            self.load_with_faults(tmp_path, {11: faults[11]})

    def test_duplicate_names_earliest_refilled_line(self, tmp_path, three_row_blocks):
        # line 2's cell comes again at line 12, line 5's at line 9
        rows = farm_rows(12)
        rows[10], rows[7] = rows[0], rows[3]
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, rows)
        with pytest.raises(IngestError, match=r"farm\.csv:9: duplicate record for turbine 1 "
                                              r"at timestamp 3"):
            load_records(path, small_schema())

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_bitwise(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 4), label="turbines")
        t = data.draw(st.integers(1, 10), label="timestamps")
        cell = st.floats(allow_nan=False) | st.sampled_from([np.nan, np.inf, -np.inf, -0.0])
        values = data.draw(st.lists(cell, min_size=n * t * 3, max_size=n * t * 3))
        values = np.array(values).reshape(n, t, 3)
        # write_csv writes a valid cell's nan and inf as text and an invalid one's as ""
        validity = np.array(data.draw(st.lists(st.booleans(), min_size=n * t,
                                               max_size=n * t))).reshape(n, t)
        ids = data.draw(st.lists(st.integers(0, 10 ** 30), min_size=n, max_size=n, unique=True))
        rs = RecordSet(schema=small_schema(), values=values, validity=validity,
                       turbine_ids=tuple(sorted(ids)))
        path = tmp_path_factory.mktemp("round_trip") / "farm.csv"
        write_csv(rs, path)
        header, *lines = path.read_text().splitlines()
        random.Random(data.draw(st.integers(0, 2 ** 32), label="shuffle")).shuffle(lines)
        for _ in range(data.draw(st.integers(0, 3), label="blank lines")):
            lines.insert(data.draw(st.integers(0, len(lines))),
                         data.draw(st.sampled_from(["", " , ", ",,,,,"])))
        path.write_text("\n".join([header, *lines]) + "\n")
        expected = np.where(validity[..., None] | np.isfinite(values), values, np.nan)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("hsttn.data._BLOCK_ROWS", data.draw(st.integers(1, max(1, n * t - 1))))
            loaded = load_records(path, rs.schema)
        assert loaded.values.tobytes() == expected.tobytes()
        assert np.array_equal(loaded.validity, np.isfinite(expected).all(axis=2))
        assert loaded.turbine_ids == rs.turbine_ids

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_writer_matches_the_row_at_a_time_writer(self, tmp_path_factory, data):
        step = data.draw(st.sampled_from([1, 5, 10, 15, 60, 1440]), label="step")
        spd = MINUTES_PER_DAY // step
        n = data.draw(st.integers(1, 3), label="turbines")
        t = data.draw(st.integers(spd + 1, 3 * spd + 1), label="timestamps")  # two days or more
        values, validity = draw_grid(data, (n, t, 3))
        ids = data.draw(st.lists(st.integers(0, 10 ** 30), min_size=n, max_size=n, unique=True))
        rs = RecordSet(schema=replace(small_schema(), step_minutes=step), values=values,
                       validity=validity, turbine_ids=tuple(ids))
        root = tmp_path_factory.mktemp("writers")
        write_csv_by_row(rs, root / "by_row.csv")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("hsttn.data._BLOCK_ROWS", data.draw(st.integers(1, t), label="block"))
            write_csv(rs, root / "by_block.csv")
        assert (root / "by_block.csv").read_bytes() == (root / "by_row.csv").read_bytes()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_writer_quotes_names_and_reads_back_bitwise(self, tmp_path_factory, data):
        # names with a comma or a quote are quoted in the header; the loader
        # strips each header cell, so it reads a name with outer spaces by
        # its stripped form
        name = st.text(st.sampled_from(' ,"ab'), min_size=1, max_size=4).filter(str.strip)
        names = data.draw(st.lists(name, min_size=1, max_size=4, unique_by=str.strip),
                          label="channels")
        schema = Schema(channels=tuple(names), target=names[-1], wind_speed=None,
                        wind_direction=None, nacelle_direction=None)
        n = data.draw(st.integers(1, 3), label="turbines")
        t = data.draw(st.integers(1, 30), label="timestamps")
        values, validity = draw_grid(data, (n, t, len(names)))
        ids = data.draw(st.lists(st.integers(0, 3) | st.integers(2 ** 64, 10 ** 30), min_size=n,
                                 max_size=n, unique=True), label="ids")
        rs = RecordSet(schema=schema, values=values, validity=validity,
                       turbine_ids=tuple(sorted(ids)))
        root = tmp_path_factory.mktemp("quoted")
        write_csv_by_row(rs, root / "by_row.csv")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("hsttn.data._BLOCK_ROWS", data.draw(st.integers(1, t), label="block"))
            write_csv(rs, root / "by_block.csv")
        assert (root / "by_block.csv").read_bytes() == (root / "by_row.csv").read_bytes()
        loaded = load_records(root / "by_block.csv",
                              replace(schema, channels=tuple(map(str.strip, names)),
                                      target=names[-1].strip()))
        written = values.astype(np.float64)
        expected = np.where(validity[..., None] | np.isfinite(written), written, np.nan)
        assert loaded.values.tobytes() == expected.tobytes()
        assert np.array_equal(loaded.validity, np.isfinite(expected).all(axis=2))
        assert loaded.turbine_ids == rs.turbine_ids

    def test_writer_memory_is_bounded_by_the_block(self, tmp_path, monkeypatch):
        """The text of one block is alive at a time. In blocks of 64 rows
        the peak is about 0.2 MB at 3,125 rows and at 12,500; a whole
        turbine of 12,500 rows formatted at once takes about 22 MB. At 16
        times the scale, blocks of 1,024 rows peaked at about 3 MB at 50,000
        and 200,000 rows, and 200,000 rows at once at about 350 MB."""
        peaks = []
        for block, t in ((64, 3_125), (64, 12_500), (10 ** 9, 12_500)):
            monkeypatch.setattr("hsttn.data._BLOCK_ROWS", block)
            rs = synth_generate(1, t, 13, seed=6)
            tracemalloc.start()
            try:
                write_csv(rs, tmp_path / "farm.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 500_000 < peaks[2] and abs(peaks[1] - peaks[0]) < 62_500

    def test_memory_is_bounded_by_the_block(self, tmp_path, monkeypatch):
        """About 20k rows peak at 7 MB in blocks of 1,024 rows, at 14 MB in
        blocks of 8,192 and at 31 MB when the whole file is transposed."""
        rs = synth_generate(20, 1000, 13, seed=5)
        path = tmp_path / "farm.csv"
        write_csv(rs, path)
        peaks = []
        for whole_file in (False, True):
            if whole_file:
                monkeypatch.setattr("hsttn.data._BLOCK_ROWS", 10 ** 9)
                parse_again(path)
            tracemalloc.start()
            try:
                load_records(path, rs.schema)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 12_000_000 < peaks[1]


def load_outcome(path, schema):
    """The loaded values, validity and ids as bytes and a tuple, or the
    `IngestError` message."""
    try:
        rs = load_records(path, schema)
    except IngestError as exc:
        return str(exc)
    return rs.values.tobytes(), rs.validity.tobytes(), rs.turbine_ids


def edit(lines, line, column, text):
    """Change one cell of the file line numbered `line` to `text`, or to what
    `text` makes of the cell if it is a function; return the lines."""
    cells = lines[line - 1].split(",")
    cells[column] = text(cells[column]) if callable(text) else text
    lines[line - 1] = ",".join(cells)
    return lines


def each_id(lines, text):
    """Every data line's id cell changed by `text`."""
    for line in range(2, len(lines) + 1):
        edit(lines, line, 0, text)
    return lines


# (id, file): each function changes the lines of a farm (lines[0] is the
# header; block `b` holds lines 2 to b + 1) and joins them into the file
TRICKY_FILES = [
    ("clean", lambda lines, b: "\n".join(lines)),
    ("quoted-comma", lambda lines, b: "\n".join(edit(lines, b + 2, 3, '"5,0"'))),
    ("quoted-keys", lambda lines, b: "\n".join(
        edit(edit(lines, b + 2, 0, '"{}"'.format), b + 2, 2, '"{}"'.format))),
    # the quoted cell of the second block's last line runs onto the next line
    ("quoted-line-break", lambda lines, b: "\n".join(edit(lines, 2 * b + 1, 4, '"{}\n"'.format))),
    ("quoted-line-break-then-bad-cell", lambda lines, b: "\n".join(
        edit(edit(lines, 2 * b + 1, 4, '"{}\n"'.format), 3 * b, 3, "abc"))),
    ("columns-in-another-order", lambda lines, b: "\n".join(
        ",".join(line.split(",")[i] for i in (3, 0, 5, 1, 4, 2)) for line in lines)),
    ("crlf", lambda lines, b: "\r\n".join(lines)),
    ("cr", lambda lines, b: "\r".join(lines)),
    ("crlf-empty-last-cell", lambda lines, b: "\r\n".join(edit(lines, b + 3, 5, ""))),
    ("hash-in-channel", lambda lines, b: "\n".join(edit(lines, b + 2, 4, "{}#0".format))),
    ("hash-leading-line", lambda lines, b: "\n".join(edit(lines, b + 2, 0, "#{}".format))),
    ("blank-lines", lambda lines, b: "\n".join(
        lines[:3] + ["", "   ", ",,,,,", " , , "] + lines[3:b + 3] + [""] * (b + 1)
        + lines[b + 3:])),
    ("blank-line-then-bad-id", lambda lines, b: "\n".join(
        lines[:b + 2] + [""] + edit(lines, b + 3, 0, "x")[b + 2:])),
    ("empty-and-blank-cells", lambda lines, b: "\n".join(
        edit(edit(lines, 3, 3, ""), b + 2, 5, "  "))),
    ("empty-id", lambda lines, b: "\n".join(edit(lines, b + 2, 0, ""))),
    ("empty-time", lambda lines, b: "\n".join(edit(lines, b + 3, 2, ""))),
    ("empty-cells-in-every-block", lambda lines, b: "\n".join(
        edit(edit(edit(edit(lines, 3, 3, ""), b + 3, 5, ""), 2 * b + 2, 4, ""), 3 * b + 1, 3, ""))),
    ("empty-cells-and-a-bad-cell", lambda lines, b: "\n".join(
        edit(edit(lines, b + 2, 4, ""), b + 3, 5, "abc"))),
    ("comma-only-line", lambda lines, b: "\n".join(lines[:b + 2] + [",,,,,"] + lines[b + 2:])),
    ("short-rows", lambda lines, b: "\n".join(
        lines[:b + 2] + [lines[b + 2].rsplit(",", 2)[0]] + lines[b + 3:])),
    ("short-row-with-an-empty-cell", lambda lines, b: "\n".join(
        lines[:b + 2] + [lines[b + 2].rsplit(",", 2)[0].replace(",", ",,", 1)] + lines[b + 3:])),
    ("short-row-without-a-time", lambda lines, b: "\n".join(
        lines[:b + 2] + [lines[b + 2].rsplit(",", 4)[0]] + lines[b + 3:])),
    ("nul-ending-id", lambda lines, b: "\n".join(edit(lines, b + 2, 0, "{}\0".format))),
    ("nul-in-channel", lambda lines, b: "\n".join(edit(lines, b + 2, 4, "5\0"))),
    ("field-over-the-csv-limit", lambda lines, b: "\n".join(
        edit(lines, b + 3, 3, "1" * (csv.field_size_limit() + 1)))),
    # ids of 12 characters or more, which a fixed-width key field would cut
    ("ids-longer-than-the-key-field", lambda lines, b: "\n".join(
        each_id(lines, lambda i: f"12345678901234{i}"))),
    ("ids-filling-the-key-field", lambda lines, b: "\n".join(
        each_id(lines, lambda i: f"1234567890{i}0"))),
    ("ids-above-2-to-the-64", lambda lines, b: "\n".join(
        each_id(lines, lambda i: str(2 ** 64 + int(i))))),
    ("underscores", lambda lines, b: "\n".join(
        edit(edit(lines, b + 2, 0, "1_0"), b + 3, 4, "1_0.5"))),
    ("unicode-digits", lambda lines, b: "\n".join(
        edit(edit(lines, b + 2, 0, lambda i: "٠١٢"[int(i)]), b + 3, 3,
             "١٢.5"))),
    ("spaces-around-cells", lambda lines, b: "\n".join(edit(edit(edit(
        lines, b + 2, 0, " {} ".format), b + 2, 2, " {} ".format), b + 3, 3, "\xa0-0.0\t"))),
    ("non-finite-text", lambda lines, b: "\n".join(edit(edit(edit(
        lines, b + 2, 3, "-nan"), b + 3, 4, "-Infinity"), b + 4, 5, "1e999"))),
    ("not-utf8-after-the-first-block", lambda lines, b: (
        "\n".join(lines[:3 * b]).encode() + b"\n1,1,00:00,\xff\xfe,1.0,2.0\n"
        + "\n".join(lines[3 * b:]).encode())),
]


class TestCReader:
    """numpy's C reader reads a block only where it gives what the csv walk
    gives: the same bits, validity and ids, or the same refusal."""

    @staticmethod
    def farm_lines(count):
        """The header and `count` rows of two turbines with varied readings."""
        rng = np.random.default_rng(count)
        values = rng.normal(size=(count, 3)) * 10.0 ** rng.integers(-8, 8, size=(count, 3))
        return [",".join(HEADER)] + [
            f"{1 + i % 2},{1 + i // 288},{i // 2 % 144 // 6:02d}:{i // 2 % 6}0," + ",".join(
                map(repr, row)) for i, row in enumerate(values.tolist())]

    @pytest.mark.parametrize("block", [3, 1024])
    @pytest.mark.parametrize("name, edit", TRICKY_FILES, ids=[name for name, _ in TRICKY_FILES])
    def test_c_reader_matches_the_csv_walk(self, tmp_path, monkeypatch, block, name, edit):
        monkeypatch.setattr("hsttn.data._BLOCK_ROWS", block)
        content = edit(self.farm_lines(4 * block), block)
        path = tmp_path / "farm.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content + "\n", newline="")
        fast = load_outcome(path, small_schema())
        monkeypatch.setattr("hsttn.data._c_columns", lambda *args: None)
        parse_again(path)
        assert load_outcome(path, small_schema()) == fast

    def test_twenty_digit_ids_stay_on_the_c_reader(self, tmp_path, monkeypatch):
        # numpy reads the key fields as Python strings of any length
        lines = each_id(self.farm_lines(12), lambda i: str(2 ** 65 + int(i)))
        path = tmp_path / "farm.csv"
        path.write_text("\n".join(lines) + "\n")
        read, columns = hsttn.data._c_columns, []
        monkeypatch.setattr("hsttn.data._c_columns",
                            lambda *args: (columns.append(read(*args)), columns[-1])[1])
        fast = load_outcome(path, small_schema())
        assert columns and all(c is not None for c in columns)
        assert fast[2] == (2 ** 65 + 1, 2 ** 65 + 2) and len(str(2 ** 65)) == 20
        monkeypatch.setattr("hsttn.data._c_columns", lambda *args: None)
        parse_again(path)
        assert load_outcome(path, small_schema()) == fast

    def test_empty_and_missing_cells_never_reach_the_walk(self, tmp_path, monkeypatch):
        # an empty cell in three blocks and a short row in the fourth: numpy
        # reads each again with those cells as nan
        monkeypatch.setattr("hsttn.data._BLOCK_ROWS", 3)
        lines = self.farm_lines(12)
        for line, column in ((3, 4), (6, 3), (9, 5)):
            edit(lines, line, column, "")
        lines[11] = lines[11].rsplit(",", 1)[0]
        path = tmp_path / "farm.csv"
        path.write_text("\n".join(lines) + "\n")
        walked = []
        parse = hsttn.data._channel_column
        monkeypatch.setattr("hsttn.data._channel_column",
                            lambda cells, name: (walked.append(type(cells)), parse(cells, name))[1])
        loaded = load_records(path, small_schema())
        assert set(walked) == {np.ndarray} and np.isnan(loaded.values).sum() == 4

    def test_clean_rows_never_reach_the_walk(self, tmp_path, monkeypatch):
        rs = synth_generate(3, 1000, 3, seed=4)
        path = tmp_path / "farm.csv"
        write_csv(replace(rs, schema=small_schema()), path)
        walked = []
        parse = hsttn.data._channel_column
        monkeypatch.setattr("hsttn.data._channel_column",
                            lambda cells, name: (walked.append(type(cells)), parse(cells, name))[1])
        loaded = load_records(path, small_schema())
        assert loaded.values.tobytes() == rs.values.tobytes()
        assert walked and set(walked) == {np.ndarray}


class TestGridCache:
    """A load served from the grid cache gives what the parse gives, and the cache
    is used only for the file, schema and loader it was written by."""

    @staticmethod
    def farm(tmp_path):
        """A record file whose grid has nan, inf and -0.0 cells, invalid rows and
        ids above 2**64, and the grid it was written from."""
        rng = np.random.default_rng(9)
        values = rng.normal(size=(3, 40, 3))
        values[0, 3], values[1, 5, 1], values[2, 7] = np.nan, np.inf, -0.0
        validity = np.ones((3, 40), dtype=bool)  # a valid row's nan and inf are written
        validity[2, 9] = False
        rs = RecordSet(schema=small_schema(), values=values, validity=validity,
                       turbine_ids=(4, 2 ** 64 + 1, 10 ** 30))
        path = tmp_path / "farm.csv"
        write_csv(rs, path)
        return path, rs

    @staticmethod
    def served(path, schema, monkeypatch):
        """A load of `path` that fails if it parses the file."""
        with monkeypatch.context() as patch:
            patch.setattr("hsttn.data._parse_records", lambda *args: pytest.fail("parsed"))
            return load_records(path, schema)

    @staticmethod
    def same(a, b):
        return (a.values.dtype == b.values.dtype and a.values.tobytes() == b.values.tobytes()
                and a.validity.tobytes() == b.validity.tobytes()
                and a.turbine_ids == b.turbine_ids and a.schema == b.schema)

    def test_a_hit_is_the_parse_bitwise(self, tmp_path, monkeypatch):
        path, rs = self.farm(tmp_path)
        parsed = load_records(path, rs.schema)
        assert grid_cache(path).is_file()
        hit = self.served(path, rs.schema, monkeypatch)
        assert self.same(hit, parsed) and hit.turbine_ids == rs.turbine_ids
        assert np.signbit(hit.values[2, 7]).all() and np.isinf(hit.values[1, 5, 1])
        assert np.isnan(hit.values[0, 3]).all() and hit.validity.sum() == 3 * 40 - 2

    def test_an_edit_of_the_same_size_and_mtime_misses(self, tmp_path):
        path, rs = self.farm(tmp_path)
        before = load_records(path, rs.schema).values.tobytes()
        info = path.stat()
        data = path.read_bytes()
        at = data.index(b"\n4,1,00:10,") + len(b"\n4,1,00:10,") + 1  # a digit of Wspd
        path.write_bytes(data[:at] + (b"7" if data[at:at + 1] != b"7" else b"8") + data[at + 1:])
        os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (info.st_size, info.st_mtime_ns)
        after = load_records(path, rs.schema).values.tobytes()
        assert after != before and after == parse_outcome(path, rs.schema)[0]

    def test_schemas_that_join_to_the_same_text_miss_each_other(self, tmp_path):
        # joined with commas, both channel tuples would read "a,b,c,t"
        one, other = (Schema(channels=channels, target="t", wind_speed=None,
                             wind_direction=None, nacelle_direction=None)
                      for channels in (("a,b", "c", "t"), ("a", "b,c", "t")))
        with pytest.raises(ConfigError, match="'a,b'"):
            one.to_dict()
        path = tmp_path / "farm.csv"
        path.write_text('TurbID,Day,Tmstamp,"a,b",c,t\n1,1,00:00,1.0,2.0,3.0\n')
        assert load_records(path, one).values.tolist() == [[[1.0, 2.0, 3.0]]]
        assert grid_cache(path).is_file()
        with pytest.raises(IngestError, match=r"unknown column\(s\) \['a,b', 'c'\]"):
            load_records(path, other)
        assert hsttn.data._grid_key(path, one)[0] != hsttn.data._grid_key(path, other)[0]

    @pytest.mark.parametrize("damage", ["truncated", "flipped-payload-byte",
                                        "flipped-trailer-byte", "version-1", "another-files"])
    def test_a_damaged_or_foreign_cache_is_parsed_over(self, tmp_path, monkeypatch, damage):
        path, rs = self.farm(tmp_path)
        parsed = load_records(path, rs.schema)
        written = grid_cache(path).read_bytes()
        # the values come last, then the 32-byte sha256 trailer
        flip = {"flipped-payload-byte": len(written) - 32 - 3,
                "flipped-trailer-byte": len(written) - 3}
        if damage == "truncated":
            grid_cache(path).write_bytes(written[:len(written) // 2])
        elif damage in flip:
            at = flip[damage]
            grid_cache(path).write_bytes(written[:at] + bytes([written[at] ^ 1]) + written[at + 1:])
        elif damage == "version-1":  # the layout before the trailer
            grid_cache(path).write_bytes(written[:4] + struct.pack("<I", 1) + written[8:-32])
        else:
            (tmp_path / "other").mkdir()
            other, _ = self.farm(tmp_path / "other")
            other.write_text(other.read_text().replace(",4,", ",5,"), newline="")
            load_records(other, rs.schema)
            shutil.copy(grid_cache(other), grid_cache(path))
        assert self.same(load_records(path, rs.schema), parsed)
        assert grid_cache(path).read_bytes() == written
        assert self.same(self.served(path, rs.schema, monkeypatch), parsed)

    @pytest.mark.parametrize("failure", ["read-only-directory", "failed-replace"])
    def test_a_failed_write_loads_and_leaves_nothing(self, tmp_path, monkeypatch, failure):
        path, rs = self.farm(tmp_path)

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        if failure == "read-only-directory":
            tmp_path.chmod(0o555)
            if os.geteuid() == 0:  # root writes there anyway: fail as for other users
                monkeypatch.setattr("hsttn.container.open", refuse, raising=False)
        else:
            monkeypatch.setattr("os.replace", refuse)
        try:
            for _ in range(2):
                assert load_records(path, rs.schema).values.tobytes() == \
                    parse_outcome(path, rs.schema)[0]
                assert [p.name for p in tmp_path.iterdir()] == ["farm.csv"]
        finally:
            tmp_path.chmod(0o755)

    def test_a_file_changed_while_loaded_leaves_no_cache(self, tmp_path, monkeypatch):
        path, rs = self.farm(tmp_path)
        parse = hsttn.data._parse_records
        monkeypatch.setattr("hsttn.data._parse_records",
                            lambda p, schema: (os.utime(p, ns=(0, 0)), parse(p, schema))[1])
        loaded = load_records(path, rs.schema)
        assert [p.name for p in tmp_path.iterdir()] == ["farm.csv"]
        assert loaded.values.tobytes() == parse_outcome(path, rs.schema)[0]

    def test_a_fifo_loads_and_leaves_nothing(self, tmp_path):
        path, rs = self.farm(tmp_path)
        text = path.read_bytes()
        path.unlink()
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(text,), daemon=True)
        writer.start()
        loaded = load_records(path, rs.schema)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert [p.name for p in tmp_path.iterdir()] == ["farm.csv"]
        (tmp_path / "regular.csv").write_bytes(text)
        assert loaded.values.tobytes() == parse_outcome(tmp_path / "regular.csv", rs.schema)[0]

    def test_a_refused_file_leaves_no_cache(self, tmp_path):
        path = tmp_path / "farm.csv"
        write_rows(path, HEADER, [[1, 1, "00:00", 5.0, 10.0, 100.0],
                                  [1, 1, "00:00", 6.0, 11.0, 101.0]])
        first = load_outcome(path, small_schema())
        assert "duplicate record" in first
        assert [p.name for p in tmp_path.iterdir()] == ["farm.csv"]
        assert load_outcome(path, small_schema()) == first


def parse_outcome(path, schema):
    """What the parse makes of `path`, as `load_outcome` gives it, with no grid cache."""
    parse_again(path)
    outcome = load_outcome(path, schema)
    parse_again(path)
    return outcome


class TestMarkInvalid:
    CHANNELS = ("Wspd", "Wdir", "Ndir", "Patv")

    def make_rs(self, patv, wspd=5.0, wdir=0.0, ndir=0.0, **roles):
        values = np.zeros((1, len(patv), 4))
        values[0, :, 0] = wspd
        values[0, :, 1] = wdir
        values[0, :, 2] = ndir
        values[0, :, 3] = patv
        return RecordSet(schema=Schema(channels=self.CHANNELS, **roles), values=values,
                         validity=np.ones((1, len(patv)), dtype=bool), turbine_ids=(1,))

    def test_in_range_readings_keep_mask(self):
        rs = self.make_rs([1.0, 2.0, 3.0], wspd=30.0, wdir=-180.0, ndir=720.0)
        rs.validity[0, 1] = False
        assert np.array_equal(mark_invalid(rs).validity, [[True, False, True]])

    def test_negative_target_flagged(self):
        rs = self.make_rs([-5.0, 3.0])
        out = mark_invalid(rs)
        assert not out.validity[0, 0]
        assert out.validity[0, 1]

    def test_zero_output_in_wind_flagged(self):
        rs = self.make_rs([0.0, 10.0], wspd=6.0)
        out = mark_invalid(rs)
        assert not out.validity[0, 0]
        assert out.validity[0, 1]

    def test_direction_out_of_range_flagged(self):
        rs = self.make_rs([10.0], wdir=200.0)
        out = mark_invalid(rs)
        assert not out.validity[0, 0]

    def test_nacelle_direction_out_of_range_flagged(self):
        rs = self.make_rs([10.0, 10.0, 10.0])
        rs.values[0, :, 2] = [-720.0, -721.0, 800.0]
        assert np.array_equal(mark_invalid(rs).validity, [[True, False, False]])

    @pytest.mark.parametrize("role, readings", [
        ("wind_speed", dict(patv=[0.0], wspd=6.0)),
        ("wind_direction", dict(patv=[10.0], wdir=200.0)),
        ("nacelle_direction", dict(patv=[10.0], ndir=800.0)),
    ], ids=["wind_speed", "wind_direction", "nacelle_direction"])
    def test_role_none_disables_its_rule(self, role, readings):
        assert not mark_invalid(self.make_rs(**readings)).validity.any()
        assert mark_invalid(self.make_rs(**readings, **{role: None})).validity.all()

    def test_rule_with_unknown_channel(self):
        with pytest.raises(ConfigError, match="wind_speed"):
            Schema(channels=self.CHANNELS, wind_speed="Nope")


class TestZscore:
    def test_fit_apply_standardizes(self):
        rs = synth_generate(3, 200, 4, seed=1)
        stats = fit_zscore(rs, (0, 200))
        normed = apply_zscore(rs, stats)
        for c in range(4):
            cells = normed.values[:, :, c][normed.validity]
            assert abs(cells.mean()) < 1e-8
            assert abs(cells.std() - 1.0) < 1e-8

    def test_round_trip(self):
        rs = synth_generate(2, 100, 3, seed=2)
        stats = fit_zscore(rs, (0, 100))
        back = stats.invert(stats.apply(rs.values))
        assert np.all(np.abs(back - rs.values) < 1e-10)

    @given(st.floats(-1e3, 1e3), st.floats(0.1, 100.0), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50)
    def test_round_trip_property(self, mean, spread, seed):
        rng = np.random.default_rng(seed)
        values = mean + spread * rng.normal(size=(2, 30, 1))
        stats = NormStats(mean=np.array([values.mean()]), std=np.array([values.std() + 0.1]))
        back = stats.invert(stats.apply(values))
        assert np.all(np.abs(back - values) < 1e-10 * max(1.0, abs(mean) + spread))

    def test_constant_channel_floored(self):
        values = np.zeros((1, 50, 3))
        values[:, :, 0] = 7.0
        values[:, :, 1] = np.arange(50)
        values[:, :, 2] = np.arange(50) * 2.0
        rs = RecordSet(schema=small_schema(), values=values,
                       validity=np.ones((1, 50), dtype=bool), turbine_ids=(1,))
        stats = fit_zscore(rs, (0, 50))
        assert stats.std[0] == 1.0
        assert np.allclose(apply_zscore(rs, stats).values[:, :, 0], 0.0)

    def test_stats_ignore_invalid_cells(self):
        rs = synth_generate(2, 60, 3, seed=3)
        validity = rs.validity.copy()
        validity[0, :10] = False
        masked = RecordSet(schema=rs.schema, values=rs.values, validity=validity,
                           turbine_ids=rs.turbine_ids)
        stats1 = fit_zscore(masked, (0, 60))
        mutated_values = rs.values.copy()
        mutated_values[0, :10, :] = 1e9
        mutated = RecordSet(schema=rs.schema, values=mutated_values, validity=validity,
                            turbine_ids=rs.turbine_ids)
        stats2 = fit_zscore(mutated, (0, 60))
        assert np.array_equal(stats1.mean, stats2.mean)
        assert np.array_equal(stats1.std, stats2.std)

    def test_all_invalid_channel_is_fit_error(self):
        rs = synth_generate(1, 20, 3, seed=4)
        invalid = RecordSet(schema=rs.schema, values=rs.values,
                            validity=np.zeros((1, 20), dtype=bool), turbine_ids=(1,))
        with pytest.raises(DatasetError):
            fit_zscore(invalid, (0, 20))

    def test_overflowing_channel_is_fit_error(self):
        # finite readings whose mean overflows; numpy's warning stays inside the fit
        rs = synth_generate(1, 20, 3, seed=4)
        rs.values[:, :, 2] = 1.7e308
        with pytest.raises(DatasetError, match=r"channel 'Patv' has mean inf and std inf"):
            fit_zscore(rs, (0, 20))

    @pytest.mark.parametrize("mean, std", [(0.0, 0.0), (0.0, -1.0), (0.0, np.nan),
                                           (np.inf, 1.0), (0.0, NormStats.STD_FLOOR / 2)])
    def test_unusable_stats_are_refused_by_index(self, mean, std):
        with pytest.raises(DatasetError, match=r"^channel 1 has mean "):
            NormStats(mean=np.array([0.0, mean]), std=np.array([1.0, std]))

    def test_invalid_cells_become_zero(self):
        rs = synth_generate(1, 30, 3, seed=5)
        validity = rs.validity.copy()
        validity[0, 5] = False
        masked = RecordSet(schema=rs.schema, values=rs.values, validity=validity,
                           turbine_ids=(1,))
        normed = apply_zscore(masked, fit_zscore(masked, (0, 30)))
        assert np.array_equal(normed.values[0, 5], np.zeros(3))


class TestWindows:
    def test_hand_count(self):
        rs = synth_generate(1, 300, 3, seed=6)
        assert len(make_windows(rs, 144, 144, 1)) == 13

    def test_exact_fit(self):
        rs = synth_generate(1, 20, 3, seed=7)
        assert len(make_windows(rs, 10, 10, 1)) == 1

    def test_large_stride(self):
        rs = synth_generate(1, 30, 3, seed=8)
        assert len(make_windows(rs, 10, 10, 30)) == 1

    def test_too_short_errors(self):
        rs = synth_generate(1, 10, 3, seed=9)
        with pytest.raises(DatasetError):
            make_windows(rs, 10, 10, 1)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 200), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_count_formula(self, h, f, extra, stride):
        total = h + f + extra
        rs = synth_generate(1, total, 2, seed=10)
        windows = make_windows(rs, h, f, stride)
        assert len(windows) == (total - h - f) // stride + 1

    def test_windows_tile_timeline(self):
        rs = synth_generate(1, 50, 2, seed=11)
        windows = make_windows(rs, 5, 5, 3, start=7)
        for i, w in enumerate(windows):
            assert w.origin - 5 == 7 + i * 3

    def test_history_future_contiguous(self):
        rs = synth_generate(1, 40, 2, seed=12)
        w = make_windows(rs, 8, 8, 1)[3]
        assert np.array_equal(w.history[0, -1], rs.values[0, w.origin - 1])
        assert np.array_equal(w.future_target[0, 0, 0],
                              rs.values[0, w.origin, rs.target_index])

    def test_every_window_is_a_view_at_its_origin(self):
        rs = synth_generate(2, 40, 3, seed=14)
        for w in make_windows(rs, 6, 5, 4, start=3):
            assert np.shares_memory(w.history, rs.values)
            assert np.shares_memory(w.future_target, rs.values)
            assert np.shares_memory(w.future_validity, rs.validity)
            at = window_at(rs, 6, 5, w.origin)
            assert at.origin == w.origin
            assert np.array_equal(at.history, w.history)
            assert np.array_equal(at.future_target, w.future_target)
            assert np.array_equal(at.future_validity, w.future_validity)

    def test_window_at_cuts_the_future_at_the_end_of_the_data(self):
        rs = synth_generate(2, 40, 3, seed=15)
        w = window_at(rs, 6, 5, 37)
        assert w.history.shape == (2, 6, 3)
        assert w.future_target.shape == (2, 3, 1)
        assert w.future_validity.shape == (2, 3)
        assert window_at(rs, 6, 5, 40).future_validity.shape == (2, 0)

    @pytest.mark.parametrize("origin", [5, 41])
    def test_window_at_outside_the_data_is_config_error(self, origin):
        rs = synth_generate(1, 40, 2, seed=16)
        with pytest.raises(ConfigError, match=f"origin {origin}"):
            window_at(rs, 6, 5, origin)

    def test_drop_fully_invalid(self):
        rs = synth_generate(1, 40, 2, seed=13)
        validity = rs.validity.copy()
        validity[:, 20:] = False
        masked = RecordSet(schema=rs.schema, values=rs.values, validity=validity,
                           turbine_ids=rs.turbine_ids)
        windows = make_windows(masked, 10, 10, 10)
        kept = drop_fully_invalid(windows)
        assert len(kept) < len(windows)
        assert all(w.future_validity.any() for w in kept)


class TestSplits:
    def test_chronological_disjoint(self):
        ranges = SplitBounds(100, 150).ranges(200)
        assert ranges["train"] == (0, 100)
        assert ranges["val"] == (100, 150)
        assert ranges["test"] == (150, 200)
        assert ranges["train"][1] <= ranges["val"][0]
        assert ranges["val"][1] <= ranges["test"][0]

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigError):
            SplitBounds(100, 100).ranges(200)


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(4, 200, 5, seed=42)
        b = synth_generate(4, 200, 5, seed=42)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.validity, b.validity)

    def test_shape_contract(self):
        rs = synth_generate(4, 2000, 5, seed=1)
        assert rs.values.shape == (4, 2000, 5)
        assert rs.validity.all()

    def test_noiseless_target_is_power_curve(self):
        from hsttn.data import _power_curve
        rs = synth_generate(3, 100, 4, seed=2, noise_scale=0.0)
        wind = rs.values[:, :, 0]
        assert np.array_equal(rs.values[:, :, -1], _power_curve(wind))

    def test_csv_bytes_deterministic(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            write_csv(synth_generate(2, 50, 4, seed=7), tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCacheRoundTrip:
    def test_csv_reload_preserves_values(self, tmp_path):
        rs = synth_generate(2, 60, 4, seed=4)
        path = tmp_path / "farm.csv"
        write_csv(rs, path)
        back = load_records(path, rs.schema)
        assert np.array_equal(back.values, rs.values)
        assert np.array_equal(back.validity, rs.validity)


class TestSchemaFile:
    def test_save_load_round_trip(self, tmp_path):
        schema = Schema(channels=DEFAULT_CHANNELS)
        path = tmp_path / "farm.schema"
        schema.save(path)
        assert Schema.load(path) == schema

    @given(names=st.lists(st.text(" ,\n#=ab", max_size=3) | st.sampled_from(["none", "None"]),
                          min_size=5, max_size=7, unique=True),
           role=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_a_name_the_file_cannot_carry_is_refused(self, tmp_path_factory, names, role):
        schema = Schema(id_column=names[0], day_column=names[1], time_column=names[2],
                        channels=tuple(names[3:]), target=names[-1],
                        wind_speed=names[3] if role else None, wind_direction=None,
                        nacelle_direction=None)
        # the entries as written before names were checked: tuples joined with commas
        joined = {f.name: ",".join(v) if isinstance(v := getattr(schema, f.name), tuple)
                  else "none" if v is None else str(v) for f in fields(Schema)}
        path = tmp_path_factory.mktemp("schema") / "farm.schema"
        write_kv(path, joined)
        try:
            read_back = Schema.load(path) == schema
        except ConfigError:
            read_back = False
        try:
            entries = schema.to_dict()
        except ConfigError as exc:
            assert not read_back
            assert any(f"column name {name!r} " in str(exc) for name in names)
            with pytest.raises(ConfigError, match="cannot be written"):
                schema.save(path)
            return
        assert read_back and entries == joined
        schema.save(path)
        assert Schema.load(path) == schema

    def test_missing_channels_key(self, tmp_path):
        path = tmp_path / "bad.schema"
        path.write_text("target = Patv\n")
        with pytest.raises(ConfigError):
            Schema.load(path)

    def test_non_integer_step_minutes(self, tmp_path):
        path = tmp_path / "bad.schema"
        path.write_text("channels = Wspd,Patv\nstep_minutes = ten\n")
        with pytest.raises(ConfigError, match="step_minutes"):
            Schema.load(path)

    def test_absent_keys_take_dataclass_defaults(self, tmp_path):
        path = tmp_path / "min.schema"
        path.write_text("channels = Wspd,Patv\n")
        assert Schema.load(path) == Schema(channels=("Wspd", "Patv"), wind_speed=None,
                                           wind_direction=None, nacelle_direction=None)

    def test_unknown_key_refused(self, tmp_path):
        path = tmp_path / "typo.schema"
        path.write_text("channels = Wspd,Patv\ntraget = Wspd\n")
        with pytest.raises(ConfigError, match="traget"):
            Schema.load(path)

    @pytest.mark.parametrize("text", [
        "channels = Wspd,Wspd,Patv\n",
        "channels = TurbID,Patv\n",
        "channels = Wspd,Patv\ntime_column = Day\n",
    ])
    def test_repeated_column_name_refused(self, tmp_path, text):
        path = tmp_path / "repeat.schema"
        path.write_text(text)
        with pytest.raises(ConfigError, match="repeated in the schema"):
            Schema.load(path)

    def test_target_must_be_channel(self):
        with pytest.raises(ConfigError):
            Schema(channels=("A", "B"), target="C", wind_speed=None,
                   wind_direction=None, nacelle_direction=None)
