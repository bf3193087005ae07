"""Wind-farm record ingestion, validity masking, normalization, windowing,
and a deterministic synthetic farm generator for desk-scale runs.

Records live on a dense (turbine, timestamp, channel) grid. Timestamps
are 10-minute slots by default (configurable per schema); any hole in the
grid or missing field marks the whole (turbine, timestamp) cell invalid.
Invalid cells never influence statistics, losses, or metrics.
"""

from __future__ import annotations

import csv
import re
from dataclasses import InitVar, dataclass, fields, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .autodiff import RngStream
from .errors import ConfigError, DatasetError, IngestError
from .kv import parse_fields, read_kv, write_kv

MINUTES_PER_DAY = 24 * 60

# SCADA-style channel names used by the bundled default schema (13 channels,
# target last) and by the synthetic generator.
DEFAULT_CHANNELS = (
    "Wspd", "Wdir", "Etmp", "Itmp", "Ndir", "Pab1", "Pab2", "Pab3",
    "Prtv", "Rspd", "Gspd", "Tnac", "Patv",
)

# optional column roles `mark_invalid` reads
_ROLES = ("wind_speed", "wind_direction", "nacelle_direction")


@dataclass(frozen=True)
class Schema:
    """Column roles for one farm's record files."""

    channels: tuple[str, ...]
    target: str = "Patv"
    id_column: str = "TurbID"
    day_column: str = "Day"
    time_column: str = "Tmstamp"
    step_minutes: int = 10
    wind_speed: Optional[str] = "Wspd"
    wind_direction: Optional[str] = "Wdir"
    nacelle_direction: Optional[str] = "Ndir"

    def __post_init__(self):
        if self.target not in self.channels:
            raise ConfigError(f"target {self.target!r} is not one of the channels")
        for role in _ROLES:
            name = getattr(self, role)
            if name is not None and name not in self.channels:
                raise ConfigError(f"{role} column {name!r} is not one of the channels")
        if self.step_minutes < 1 or MINUTES_PER_DAY % self.step_minutes != 0:
            raise ConfigError(f"step_minutes must divide a day, got {self.step_minutes}")

    @property
    def target_index(self) -> int:
        return self.channels.index(self.target)

    @property
    def slots_per_day(self) -> int:
        return MINUTES_PER_DAY // self.step_minutes

    @classmethod
    def load(cls, path) -> "Schema":
        return cls.from_kv(path, read_kv(path))

    @classmethod
    def from_kv(cls, source, entries: dict[str, str]) -> "Schema":
        """Read schema text entries whose keys are the dataclass fields;
        unknown keys are refused and `channels` is required. Absent keys take
        the dataclass defaults, except the column roles, which an absent or
        `none` entry leaves unset."""
        values = parse_fields(source, entries, {f.name: f for f in fields(cls)})
        try:
            return cls(**{**dict.fromkeys(_ROLES), **values})
        except ConfigError as exc:
            raise ConfigError(f"{source}: {exc}") from None

    def save(self, path) -> None:
        write_kv(path, self.to_dict(), header="farm record schema")

    def to_dict(self) -> dict[str, str]:
        """The text entries `from_kv` reads back, in schema-file order."""
        keys = ("id_column", "day_column", "time_column", "step_minutes", "channels",
                "target", *_ROLES)
        values = {k: getattr(self, k) for k in keys}
        return {k: ",".join(v) if isinstance(v, tuple) else "none" if v is None else str(v)
                for k, v in values.items()}


@dataclass
class RecordSet:
    """Dense (N, T, C) value grid plus a per-(turbine, timestamp) validity
    mask. Treat instances as immutable once constructed."""

    schema: Schema
    values: np.ndarray
    validity: np.ndarray
    turbine_ids: tuple[int, ...]

    def __post_init__(self):
        n, t, c = self.values.shape
        if self.validity.shape != (n, t):
            raise IngestError(
                f"validity mask shape {self.validity.shape} does not match values "
                f"{self.values.shape}"
            )
        if c != len(self.schema.channels):
            raise IngestError(
                f"value grid has {c} channels but schema declares {len(self.schema.channels)}"
            )

    @property
    def n_turbines(self) -> int:
        return self.values.shape[0]

    @property
    def n_timestamps(self) -> int:
        return self.values.shape[1]

    @property
    def n_channels(self) -> int:
        return self.values.shape[2]

    @property
    def target_index(self) -> int:
        return self.schema.target_index


# hours:minutes, one or two ASCII digits each, optionally with zero
# seconds; a sign is let through so a negative field reads as out of range
_TIME_OF_DAY = re.compile(r"(-?[0-9]{1,2}):(-?[0-9]{1,2})(?::00)?")

# data rows `load_records` holds as text and parses, and `write_csv` formats,
# at a time; larger blocks were no faster and raised a small file's peak memory
_BLOCK_ROWS = 1024
_KEY_ERROR = "cannot parse turbine id, day, or time"


def _parse_key(text) -> int:
    """A turbine id or a day; a short row's missing cell is None."""
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ValueError(_KEY_ERROR) from None


def _parse_time(text, step_minutes: int) -> int:
    """The slot of a time of day; a `ValueError` says what is wrong with it."""
    if text is None:
        raise ValueError(_KEY_ERROR)
    match = _TIME_OF_DAY.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"cannot parse time of day {text!r}")
    hours, minutes = int(match[1]), int(match[2])
    if not (0 <= hours < 24 and 0 <= minutes < 60):
        raise ValueError(f"time of day {text!r} is out of range")
    minute_of_day = hours * 60 + minutes
    if minute_of_day % step_minutes != 0:
        raise ValueError(f"time {text!r} is not aligned to {step_minutes}-minute slots")
    return minute_of_day // step_minutes


def _key_column(cells, codes: dict, parsed: list, parse):
    """Each cell's index into `parsed`, parsing only the texts `codes` has
    not seen; or None and (row, message) for the first cell that fails."""
    for text in dict.fromkeys(cells):
        if text not in codes:
            try:
                parsed.append(parse(text))
            except ValueError as exc:
                return None, (cells.index(text), str(exc))
            codes[text] = len(parsed) - 1
    return np.fromiter(map(codes.__getitem__, cells), np.intp, len(cells)), None


def _channel_column(cells, name: str):
    """One channel's floats, NaN where a cell is empty or missing; or None
    and (row, message) for the first cell that fails."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells)), None
    except (TypeError, ValueError):  # an empty, missing or bad cell: walk the column
        out = np.empty(len(cells))
        for row, raw in enumerate((text or "").strip() for text in cells):
            try:
                out[row] = float(raw) if raw else np.nan
            except ValueError:
                return None, (row, f"cannot parse numeric value {raw!r} for channel {name!r}")
        return out, None


def csv_records(fh) -> Iterator[list[str]]:
    """The records of a CSV file opened as UTF-8 text. Bytes that are not
    UTF-8 and fields longer than the csv module's limit are `IngestError`s
    naming the file, not decoder or parser exceptions."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise IngestError(f"{fh.name}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise IngestError(f"{fh.name}:{reader.line_num}: {exc}") from None


def load_records(path, schema: Schema) -> RecordSet:
    """Read a comma-separated record file onto the dense grid.

    The header must contain exactly the schema's id/day/time columns plus
    its channels, each once. Missing (turbine, timestamp) rows and missing
    fields (short rows) become invalid cells; rows with more cells than the
    header, duplicates and unparseable numbers are errors, and so is a grid
    of more than twice as many cells as there are data rows. An error names
    the earliest line at fault; within a line, the id, day and time first.
    Each block of `_BLOCK_ROWS` rows is parsed a column at a time: each
    distinct id, day and time text once, each channel in one `float` pass.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv_records(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        expected = [schema.id_column, schema.day_column, schema.time_column,
                    *schema.channels]
        unknown = [h for h in header if h not in expected]
        if unknown:
            raise IngestError(f"{path}: unknown column(s) {unknown} not in schema")
        missing = [h for h in expected if h not in header]
        if missing:
            raise IngestError(f"{path}: schema column(s) {missing} absent from header")
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise IngestError(f"{path}: column(s) {repeated} repeated in header")
        col = {name: header.index(name) for name in expected}
        width = len(header)
        keys = [(col[schema.id_column], _parse_key), (col[schema.day_column], _parse_key),
                (col[schema.time_column], lambda t: _parse_time(t, schema.step_minutes))]
        codes, parsed = ({}, {}, {}), ([], [], [])  # per key column: text -> index, values
        blocks, readings, rows, lines = [], [], [], []

        def parse_block():
            columns = list(zip(*rows))
            results = [_key_column(columns[ci], codes[k], parsed[k], parse)
                       for k, (ci, parse) in enumerate(keys)]
            results += [_channel_column(columns[col[name]], name) for name in schema.channels]
            if failures := [(f[0], k, f[1]) for k, (_, f) in enumerate(results) if f]:
                row, _, message = min(failures)
                raise IngestError(f"{path}:{lines[row]}: {message}")
            blocks.append((np.stack([a for a, _ in results[:3]], axis=1), np.array(lines)))
            readings.append(np.stack([a for a, _ in results[3:]], axis=1))
            rows.clear()
            lines.clear()

        for lineno, cells in enumerate(reader, start=2):
            if not any(map(str.strip, cells)):
                continue
            if len(cells) > width:
                if rows:  # an earlier line's fault is named first
                    parse_block()
                raise IngestError(
                    f"{path}:{lineno}: {len(cells)} cells but the header has {width} columns"
                )
            if len(cells) < width:
                cells += [None] * (width - len(cells))
            rows.append(cells)
            lines.append(lineno)
            if len(rows) == _BLOCK_ROWS:
                parse_block()
        if rows:
            parse_block()

    if not blocks:
        raise IngestError(f"{path}: no data rows")
    key_codes, line = (np.concatenate(part) for part in zip(*blocks))
    ids, id_rank = np.unique(np.array(parsed[0], dtype=object), return_inverse=True)
    days, day_rank = np.unique(np.array(parsed[1], dtype=object), return_inverse=True)
    ni, day = id_rank[key_codes[:, 0]], day_rank[key_codes[:, 1]]
    slot = np.array(parsed[2], dtype=np.int64)[key_codes[:, 2]]
    spd = schema.slots_per_day
    # ranks, not days: ids and days are Python ints of any size
    order = day * spd + slot
    first, last = int(order.argmin()), int(order.argmax())
    t0 = days[0] * spd + int(slot[first])
    n_t = days[-1] * spd + int(slot[last]) - t0 + 1
    n = len(ids)
    if n * n_t > 2 * len(line):
        raise IngestError(
            f"{path}: the earliest timestamp (line {line[first]}) and the latest "
            f"(line {line[last]}) span {n_t} slots; {n} turbine(s) x {n_t} slots "
            f"is more than twice the {len(line)} data rows"
        )
    ti = (days - days[0]).astype(np.int64)[day] * spd + slot - slot[first]
    cell = ni * n_t + ti
    by_cell = np.argsort(cell, kind="stable")
    again = by_cell[1:][cell[by_cell[1:]] == cell[by_cell[:-1]]]
    if again.size:
        r = again.min()
        raise IngestError(
            f"{path}:{line[r]}: duplicate record for turbine {ids[ni[r]]} at timestamp {ti[r]}"
        )
    values = np.full((n, n_t, len(schema.channels)), np.nan)
    # a block at a time: a whole-file copy of the readings, freed at once,
    # leaves the heap fragmented for what runs next (peak RSS in training)
    cuts = np.cumsum([len(r) for r in readings[:-1]])
    for vals, n_i, t_i in zip(readings, np.split(ni, cuts), np.split(ti, cuts)):
        values[n_i, t_i] = vals
    return RecordSet(schema=schema, values=values, validity=np.isfinite(values).all(axis=2),
                     turbine_ids=tuple(ids.tolist()))


def mark_invalid(rs: RecordSet) -> RecordSet:
    """Recording-system sanity rules over the schema's column roles: negative
    output, zero output while the wind speed is above 2.5, and wind or nacelle
    directions beyond 180 or 720 degrees either way. A role set to none skips
    its rule. NaN compares False here; missing fields are already invalid."""
    schema = rs.schema

    def column(name: str) -> np.ndarray:
        return rs.values[:, :, schema.channels.index(name)]

    power = column(schema.target)
    flagged = power < 0
    if schema.wind_speed is not None:
        flagged |= (power <= 0) & (column(schema.wind_speed) > 2.5)
    if schema.wind_direction is not None:
        flagged |= np.abs(column(schema.wind_direction)) > 180.0
    if schema.nacelle_direction is not None:
        flagged |= np.abs(column(schema.nacelle_direction)) > 720.0
    return replace(rs, validity=rs.validity & ~flagged)


@dataclass(frozen=True)
class NormStats:
    """Per-channel standardization statistics: finite means and finite stds of
    at least `STD_FLOOR`. A refusal names the channel from `channels` if given."""

    mean: np.ndarray
    std: np.ndarray
    channels: InitVar[Sequence[str]] = ()

    STD_FLOOR = 1e-8

    def __post_init__(self, channels):
        for c, (m, s) in enumerate(zip(self.mean.tolist(), self.std.tolist())):
            if not (np.isfinite([m, s]).all() and s >= self.STD_FLOOR):
                raise DatasetError(f"channel {channels[c] if channels else c!r} has mean {m} and "
                                   f"std {s}: need both finite and the std >= {self.STD_FLOOR}")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray, channel: int | None = None) -> np.ndarray:
        if channel is None:
            return values * self.std + self.mean
        return values * self.std[channel] + self.mean[channel]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by name below
def fit_zscore(rs: RecordSet, fit_range: tuple[int, int]) -> NormStats:
    """Mean/std over valid cells of `[start, end)`; constant channels get
    unit std so they normalize to zero instead of exploding."""
    start, end = fit_range
    if not 0 <= start < end <= rs.n_timestamps:
        raise DatasetError(f"fit range [{start}, {end}) is outside the dataset")
    window = rs.values[:, start:end, :]
    valid = rs.validity[:, start:end]
    mean = np.empty(rs.n_channels)
    std = np.empty(rs.n_channels)
    for c in range(rs.n_channels):
        cells = window[:, :, c][valid]
        cells = cells[np.isfinite(cells)]
        if cells.size == 0:
            raise DatasetError(
                f"channel {rs.schema.channels[c]!r} has no valid cells in the fit range"
            )
        mean[c] = cells.mean()
        s = cells.std()
        std[c] = s if s >= NormStats.STD_FLOOR else 1.0
    return NormStats(mean=mean, std=std, channels=rs.schema.channels)


def apply_zscore(rs: RecordSet, stats: NormStats) -> RecordSet:
    """Standardize every channel; invalid cells are stored as zero so no
    downstream consumer can accidentally read recording noise."""
    normalized = stats.apply(rs.values)
    normalized[~rs.validity] = 0.0
    normalized[~np.isfinite(normalized)] = 0.0
    return replace(rs, values=normalized)


@dataclass(frozen=True)
class SampleWindow:
    """One training/evaluation sample: H history steps and the F future
    target steps that start exactly where the history ends. `origin` is
    the timestamp index of the first forecast step."""

    history: np.ndarray
    future_target: np.ndarray
    future_validity: np.ndarray
    origin: int


def make_windows(rs: RecordSet, history_len: int, horizon_len: int, stride: int,
                 start: int = 0, end: int | None = None) -> list[SampleWindow]:
    """Slide a (H + F)-long window over `[start, end)` with the given
    stride. Yields floor((T - H - F) / stride) + 1 windows; the i-th
    window starts at `start + i * stride`. Bounds outside
    `0 <= start <= end <= T` are a `ConfigError`; a range too short for
    one window is a `DatasetError`."""
    if stride < 1:
        raise ConfigError(f"stride must be positive, got {stride}")
    end = rs.n_timestamps if end is None else end
    if not 0 <= start <= end <= rs.n_timestamps:
        raise ConfigError(f"window range [{start}, {end}) is not within the "
                          f"{rs.n_timestamps} timestamps of the dataset")
    span = history_len + horizon_len
    total = end - start
    if total < span:
        raise DatasetError(
            f"range of {total} timestamps cannot fit one window of {span} "
            f"(history {history_len} + horizon {horizon_len})"
        )
    count = (total - span) // stride + 1
    return [window_at(rs, history_len, horizon_len, start + i * stride + history_len)
            for i in range(count)]


def window_at(rs: RecordSet, history_len: int, horizon_len: int, origin: int) -> SampleWindow:
    """The window whose first forecast step is `origin`, as views of the
    grid; a future that runs past the data is cut short. An origin with
    fewer than H steps before it, or beyond the data, is a `ConfigError`."""
    if origin < history_len:
        raise ConfigError(f"origin {origin} does not leave {history_len} history steps before it")
    if origin > rs.n_timestamps:
        raise ConfigError(f"origin {origin} is beyond the dataset ({rs.n_timestamps})")
    target = rs.target_index
    future = slice(origin, origin + horizon_len)
    return SampleWindow(history=rs.values[:, origin - history_len:origin, :],
                        future_target=rs.values[:, future, target:target + 1],
                        future_validity=rs.validity[:, future], origin=origin)


def drop_fully_invalid(windows: Sequence[SampleWindow]) -> list[SampleWindow]:
    """Training-side filter: a window with no valid future cell cannot
    contribute to the loss."""
    return [w for w in windows if w.future_validity.any()]


@dataclass(frozen=True)
class SplitBounds:
    """Chronological split boundaries: train is [0, train_end), validation
    [train_end, val_end), test [val_end, T)."""

    train_end: int
    val_end: int

    def ranges(self, n_timestamps: int) -> dict[str, tuple[int, int]]:
        if not 0 < self.train_end < self.val_end < n_timestamps:
            raise ConfigError(
                f"split bounds train_end={self.train_end}, val_end={self.val_end} do not "
                f"chop [0, {n_timestamps}) into three non-empty chronological pieces"
            )
        return {
            "train": (0, self.train_end),
            "val": (self.train_end, self.val_end),
            "test": (self.val_end, n_timestamps),
        }


def _power_curve(wind: np.ndarray, rated_speed: float = 12.0,
                 rated_power: float = 1500.0) -> np.ndarray:
    """Saturating cubic power curve in kW."""
    w = np.clip(wind, 0.0, None) / rated_speed
    return rated_power * np.minimum(w ** 3, 1.0)


def synth_generate(n_turbines: int, n_timestamps: int, n_channels: int, seed: int,
                   noise_scale: float = 0.1) -> RecordSet:
    """Deterministic synthetic farm: each turbine sees a phase-shifted
    diurnal wind-speed sinusoid plus spatially correlated noise; the
    target is a saturating cubic power curve of that wind speed. The
    validity mask is all-true. `noise_scale=0` gives an exactly
    reproducible noise-free farm."""
    if n_turbines < 1 or n_timestamps < 1 or n_channels < 2:
        raise ConfigError(
            "synthetic farm needs at least 1 turbine, 1 timestamp, and 2 channels "
            f"(got {n_turbines}, {n_timestamps}, {n_channels})"
        )
    rng = RngStream(seed)
    schema = _synth_schema(n_channels)
    spd = schema.slots_per_day

    t = np.arange(n_timestamps, dtype=np.float64)
    phase = 2.0 * np.pi * np.arange(n_turbines, dtype=np.float64) / max(n_turbines, 1)
    diurnal = 2.0 * np.pi * t / spd
    base_wind = 7.0 + 3.0 * np.sin(diurnal[None, :] + phase[:, None])

    shared = rng.normal((n_timestamps,))
    own = rng.normal((n_turbines, n_timestamps))
    wind = base_wind + noise_scale * (0.7 * shared[None, :] + 0.3 * own)

    values = np.zeros((n_turbines, n_timestamps, n_channels))
    values[:, :, 0] = wind
    aux_noise = rng.normal((n_turbines, n_timestamps, max(n_channels - 2, 1)))
    for ci in range(1, n_channels - 1):
        # deterministic seasonal shapes with channel-specific periods
        wave = np.sin(2.0 * np.pi * t[None, :] / (spd * (ci + 1)) + phase[:, None] * ci)
        values[:, :, ci] = 10.0 * ci * wave + noise_scale * aux_noise[:, :, ci - 1]
    target_noise = rng.normal((n_turbines, n_timestamps))
    values[:, :, -1] = _power_curve(wind) + noise_scale * 50.0 * target_noise

    validity = np.ones((n_turbines, n_timestamps), dtype=bool)
    return RecordSet(schema=schema, values=values, validity=validity,
                     turbine_ids=tuple(range(1, n_turbines + 1)))


def _synth_schema(n_channels: int) -> Schema:
    if n_channels <= len(DEFAULT_CHANNELS):
        channels = DEFAULT_CHANNELS[:n_channels - 1] + ("Patv",)
    else:
        extras = tuple(f"Aux{i}" for i in range(n_channels - len(DEFAULT_CHANNELS)))
        channels = DEFAULT_CHANNELS[:-1] + extras + ("Patv",)
    present = set(channels)
    return Schema(
        channels=channels,
        wind_speed="Wspd" if "Wspd" in present else None,
        wind_direction="Wdir" if "Wdir" in present else None,
        nacelle_direction="Ndir" if "Ndir" in present else None,
    )


def write_csv(rs: RecordSet, path) -> None:
    """Write the grid back out in the loader's format, a turbine's
    `_BLOCK_ROWS` timestamps at a time. Floats use repr, so a load/write
    round trip is lossless and byte-deterministic; a valid row writes nan
    and inf as text, and an invalid row leaves its non-finite cells empty."""
    schema = rs.schema
    spd = schema.slots_per_day
    stamps = ["%02d:%02d" % divmod(m, 60) for m in range(0, MINUTES_PER_DAY, schema.step_minutes)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.id_column, schema.day_column, schema.time_column,
                         *schema.channels])
        for ni, tid in enumerate(map(str, rs.turbine_ids)):
            for start in range(0, rs.n_timestamps, _BLOCK_ROWS):
                block = rs.values[ni, start:start + _BLOCK_ROWS].astype(np.float64)
                cells = np.array([*map(repr, block.ravel().tolist())], object).reshape(block.shape)
                cells[~np.isfinite(block) & ~rs.validity[ni, start:start + _BLOCK_ROWS, None]] = ""
                writer.writerows([tid, str(1 + t // spd), stamps[t % spd], *row]
                                 for t, row in enumerate(cells.tolist(), start))
