"""Core data model for interval meter readings.

Energy is held as fixed-point milli-kWh integers so that sums, secret
shares, and homomorphic plaintexts are exact. Timestamps are normalized
to UTC epoch seconds at parse time; ISO-8601 (with mandatory ``Z``) is
accepted on input only.

A `FeederDataset` keeps its readings as read-only int64 columns (meter
index, timestamp, milli-kWh) and keeps each exact total once it is first
read, so queries are numpy passes over arrays; `MeterReading` objects exist
only on request.
Four views are memoized lazily on the dataset, built on first use and never
again, since the columns never change: the CSV text of `serialize_csv`, its
JSON string encoding (`serialize_csv_json`), so a repeated raw export pays
neither serialization nor JSON encoding; the value index of
`FeederDataset.value_index` (distinct milli-kWh values and how many
readings lie below each), which bins a histogram without walking the
readings; and the day profiles `synthetic.fit` clusters (complete-day
hourly rows, each row's meter and each meter's mean day), so repeated
fits on one dataset skip the hourly binning.

Ingest and export walk a text in slices of about 65,536 characters, and
build the CSV one meter's block of rows at a time, so their peak memory
stays near the size of the text and the columns.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

MILLI_PER_KWH = 1000

_KWH_RE = re.compile(r"^(-?)([0-9]+)(?:\.([0-9]{1,3}))?$")
# parse_csv and serialize_csv_json walk a text this many characters at a time.
_SLICE_CHARS = 1 << 16
_HEADER = "meter_id,timestamp,kwh"


class MeterDataError(Exception):
    """Base class for ingestion and validation failures."""


class MalformedRow(MeterDataError):
    def __init__(self, line: int, detail: str = ""):
        self.line = line
        super().__init__(f"malformed row at line {line}" + (f": {detail}" if detail else ""))


class NegativeEnergy(MeterDataError):
    def __init__(self, line: int):
        self.line = line
        super().__init__(f"negative energy at line {line}")


class MisalignedTimestamp(MeterDataError):
    def __init__(self, line: int):
        self.line = line
        super().__init__(f"timestamp not aligned to interval at line {line}")


class MixedInterval(MeterDataError):
    def __init__(self, meter_id: str):
        self.meter_id = meter_id
        super().__init__(f"readings for meter {meter_id!r} are not spaced one interval apart")


class EnergyAboveCap(MeterDataError):
    """A reading exceeds the declared per-reading cap (never clipped)."""

    def __init__(self, line: int):
        self.line = line
        super().__init__(f"energy above per-reading cap at line {line}")


@dataclass(frozen=True, order=True)
class EnergyQuantity:
    """Fixed-point energy amount; 1 unit = 0.001 kWh."""

    milli_kwh: int

    @classmethod
    def from_kwh_text(cls, text: str) -> "EnergyQuantity":
        """Parse a decimal kWh string with up to 3 fractional digits, exactly."""
        m = _KWH_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a kWh decimal with <=3 fractional digits: {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        whole = int(m.group(2))
        frac = (m.group(3) or "").ljust(3, "0")
        return cls(sign * (whole * MILLI_PER_KWH + int(frac)))

    @property
    def kwh(self) -> float:
        return self.milli_kwh / MILLI_PER_KWH

    def to_kwh_text(self) -> str:
        sign = "-" if self.milli_kwh < 0 else ""
        whole, frac = divmod(abs(self.milli_kwh), MILLI_PER_KWH)
        return f"{sign}{whole}.{frac:03d}"


@dataclass(frozen=True)
class MeterReading:
    """One reading of one (pseudonymous) meter, as `ReadingSeries.readings` yields it."""

    meter_id: str
    timestamp: int  # UTC epoch seconds
    interval_s: int
    energy: EnergyQuantity


def _column(values) -> np.ndarray:
    """A read-only int64 copy of `values`."""
    col = np.array(values, dtype=np.int64)
    col.setflags(write=False)
    return col


class ReadingSeries:
    """One meter's rows of a `FeederDataset`, made only by `FeederDataset.series`.

    `timestamp` and `milli_kwh` are read-only int64 slices of the dataset's
    columns, so a series copies nothing and needs no checks of its own;
    `readings` builds the objects on request.
    """

    __slots__ = ("meter_id", "interval_s", "timestamp", "milli_kwh")

    def __init__(self, meter_id: str, interval_s: int, timestamp: np.ndarray,
                 milli_kwh: np.ndarray):
        self.meter_id, self.interval_s = meter_id, interval_s
        self.timestamp, self.milli_kwh = timestamp, milli_kwh

    @property
    def readings(self) -> tuple[MeterReading, ...]:
        return tuple(
            MeterReading(self.meter_id, t, self.interval_s, EnergyQuantity(m))
            for t, m in zip(self.timestamp.tolist(), self.milli_kwh.tolist())
        )

    def __len__(self) -> int:
        return len(self.timestamp)


class FeederDataset:
    """Readings of many meters sharing one interval and a per-reading cap.

    Columns: `meter_ids` names each meter once; `meter_idx`, `timestamp` (UTC
    epoch seconds) and `milli_kwh` are read-only int64 arrays with one entry
    per reading, grouped by meter in `meter_ids` order and strictly
    increasing in time within a meter. Exact int64 totals are computed on
    first read and kept, each on its own: `interval_milli` (timestamp ->
    total, ascending), `meter_milli` (meter id -> total) and `total_milli`.
    Views derived from the columns (CSV text, its JSON form, value index,
    `synthetic.fit`'s day profiles) are computed on first use and kept.
    Every check runs on construction, the bound that keeps the totals inside
    int64 included.

    The cap ``delta_max`` is the sensitivity bound the DP mechanisms rely
    on; ingestion rejects readings above it rather than clipping.
    """

    __slots__ = ("meter_ids", "meter_idx", "timestamp", "milli_kwh", "interval_s",
                 "delta_max", "interval_milli", "meter_milli", "total_milli", "_memo")

    def __init__(self, series: Iterable[ReadingSeries], interval_s: int,
                 delta_max: EnergyQuantity):
        series = tuple(series)
        if any(len(s) and s.interval_s != interval_s for s in series):
            raise ValueError("all series must share the dataset interval_s")
        lengths = [len(s) for s in series]
        self._init(
            tuple(s.meter_id for s in series),
            np.repeat(np.arange(len(series)), lengths),
            np.concatenate([s.timestamp for s in series]) if series else (),
            np.concatenate([s.milli_kwh for s in series]) if series else (),
            interval_s,
            delta_max,
        )

    @classmethod
    def from_columns(cls, meter_ids: Sequence[str], meter_idx, timestamp, milli_kwh,
                     interval_s: int, delta_max: EnergyQuantity) -> "FeederDataset":
        """Validate and adopt columns laid out as the class docstring states."""
        dataset = cls.__new__(cls)
        dataset._init(tuple(meter_ids), meter_idx, timestamp, milli_kwh, interval_s, delta_max)
        return dataset

    def _init(self, meter_ids, meter_idx, timestamp, milli_kwh, interval_s, delta_max):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 0 < delta_max.milli_kwh < 2**63:
            raise ValueError("delta_max must be positive and below 2**63 milli-kWh")
        if len(set(meter_ids)) != len(meter_ids):
            raise ValueError("meter_ids must be distinct")
        meter_idx, timestamp, milli = _column(meter_idx), _column(timestamp), _column(milli_kwh)
        if not len(meter_idx) == len(timestamp) == len(milli):
            raise ValueError("columns must have one entry per reading")
        if len(milli):
            step = np.diff(meter_idx)
            if meter_idx[0] < 0 or meter_idx[-1] >= len(meter_ids) or (step < 0).any():
                raise ValueError("rows must be grouped by meter in meter_ids order")
            if (np.diff(timestamp)[step == 0] <= 0).any():
                raise ValueError("timestamps must be strictly increasing within a meter")
            if (timestamp % interval_s).any():
                raise ValueError("timestamp must be a multiple of interval_s")
            if milli.min() < 0:
                raise ValueError("reading energy must be non-negative")
            if milli.max() > delta_max.milli_kwh:
                raise ValueError("reading exceeds delta_max")
            if int(milli.max()) * len(milli) >= 2**63:
                raise ValueError("totals could overflow int64")
        for name, value in (
            ("meter_ids", meter_ids), ("meter_idx", meter_idx), ("timestamp", timestamp),
            ("milli_kwh", milli), ("interval_s", interval_s), ("delta_max", delta_max),
            ("_memo", {}),  # view name -> derived value, filled by _derived
        ):
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        """A total, computed on its first read and kept in its slot; read after
        that, the slot answers and this is not called."""
        if name not in _TOTALS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = _TOTALS[name](self)
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("FeederDataset is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, FeederDataset) and self._key() == other._key()

    def _key(self) -> tuple:
        return (self.meter_ids, self.interval_s, self.delta_max, self.meter_idx.tobytes(),
                self.timestamp.tobytes(), self.milli_kwh.tobytes())

    def _derived(self, name: str, compute):
        """compute(self), run on the first call for `name` only; the columns never change."""
        memo = self._memo
        if name not in memo:
            memo[name] = compute(self)
        return memo[name]

    def n_readings(self) -> int:
        return len(self.milli_kwh)

    def value_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct milli-kWh values ascending, and how many readings lie below each.

        Returns read-only int64 (values, below): below[j] readings lie under
        values[j] and below[-1] is the number of readings, so the readings in
        [a, b) number below[searchsorted(values, b)] -
        below[searchsorted(values, a)]. Computed on the first call only.
        """
        return self._derived("value_index", _value_index)

    def meter_bounds(self) -> np.ndarray:
        """Row offsets: meter i owns rows meter_bounds()[i]:meter_bounds()[i + 1]."""
        return np.searchsorted(self.meter_idx, np.arange(len(self.meter_ids) + 1))

    @property
    def series(self) -> tuple[ReadingSeries, ...]:
        """One column view per meter, in `meter_ids` order."""
        bounds = self.meter_bounds().tolist()
        return tuple(
            ReadingSeries(m, self.interval_s, self.timestamp[a:b], self.milli_kwh[a:b])
            for m, a, b in zip(self.meter_ids, bounds, bounds[1:])
        )


def _interval_milli(dataset: FeederDataset) -> MappingProxyType:
    stamps, at_stamp = np.unique(dataset.timestamp, return_inverse=True)
    per_stamp = np.zeros(len(stamps), dtype=np.int64)
    np.add.at(per_stamp, at_stamp, dataset.milli_kwh)
    return MappingProxyType(dict(zip(stamps.tolist(), per_stamp.tolist())))


def _meter_milli(dataset: FeederDataset) -> MappingProxyType:
    per_meter = np.zeros(len(dataset.meter_ids), dtype=np.int64)
    np.add.at(per_meter, dataset.meter_idx, dataset.milli_kwh)
    return MappingProxyType(dict(zip(dataset.meter_ids, per_meter.tolist())))


_TOTALS = {
    "interval_milli": _interval_milli,
    "meter_milli": _meter_milli,
    "total_milli": lambda dataset: int(dataset.milli_kwh.sum()),
}


def _value_index(dataset: FeederDataset) -> tuple[np.ndarray, np.ndarray]:
    values, counts = np.unique(dataset.milli_kwh, return_counts=True)
    return _column(values), _column(np.concatenate(([0], np.cumsum(counts))))


def iso_to_epoch(text: str) -> int:
    """ISO-8601 UTC in exactly the form YYYY-MM-DDTHH:MM:SSZ to epoch seconds."""
    text = text.strip()
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z", text):
        raise ValueError(f"timestamp {text!r} is not of the form YYYY-MM-DDTHH:MM:SSZ")
    return int(datetime.fromisoformat(text[:-1] + "+00:00").timestamp())


def _check_row(parts: list[str], line: int, interval_s: int, cap: int) -> tuple[str, int, int]:
    """Validate one row's three fields in order; return (meter_id, timestamp, milli_kwh)."""
    meter_id, ts_text, kwh_text = (p.strip() for p in parts)
    if not meter_id:
        raise MalformedRow(line, "empty meter_id")
    try:
        ts = iso_to_epoch(ts_text)
        milli = EnergyQuantity.from_kwh_text(kwh_text).milli_kwh
    except ValueError as exc:
        raise MalformedRow(line, str(exc)) from None
    if milli < 0:
        raise NegativeEnergy(line)
    if ts % interval_s != 0:
        raise MisalignedTimestamp(line)
    if milli > cap:
        raise EnergyAboveCap(line)
    return meter_id, ts, milli


def parse_csv(text: str, interval_s: int, delta_max: EnergyQuantity) -> FeederDataset:
    """Parse `meter_id,timestamp,kwh` CSV into a validated dataset.

    One meter per distinct meter_id, sorted by id, rows sorted by time.
    Interval length and the cap come from configuration, never from the
    data. A row is checked in full only when one of its field texts has
    not been seen in a valid row before, so each distinct timestamp and
    kWh text is parsed once and the first bad row in the file is reported.
    Lines are split off one `_line_slices` slice at a time, so only one
    slice's line strings exist at once.
    """
    lines = chain.from_iterable(map(str.splitlines, _line_slices(text)))
    _check_header(next(lines, _HEADER))  # an empty text is a header with no rows

    cap = delta_max.milli_kwh
    meters: dict[str, str] = {}  # field text -> parsed value, for texts of valid rows
    stamps: dict[str, int] = {}
    energies: dict[str, int] = {}
    id_col, ts_col, milli_col = [], [], []
    for line, raw in enumerate(lines, start=2):
        parts = raw.split(",")
        if len(parts) != 3:
            if not raw.strip():
                continue
            raise MalformedRow(line, "expected 3 fields")
        id_text, ts_text, kwh_text = parts
        meter_id, ts, milli = meters.get(id_text), stamps.get(ts_text), energies.get(kwh_text)
        if meter_id is None or ts is None or milli is None:
            meter_id, ts, milli = _check_row(parts, line, interval_s, cap)
            meters[id_text], stamps[ts_text], energies[kwh_text] = meter_id, ts, milli
        id_col.append(meter_id)
        ts_col.append(ts)
        milli_col.append(milli)

    meter_ids = sorted(set(meters.values()))
    rank = {m: i for i, m in enumerate(meter_ids)}
    meter = np.fromiter(map(rank.__getitem__, id_col), np.int64, len(id_col))
    ts, milli = np.array(ts_col, dtype=np.int64), np.array(milli_col, dtype=np.int64)
    del id_col, ts_col, milli_col  # the row lists go before the sort copies the columns
    order = np.lexsort((ts, meter))
    meter, ts, milli = meter[order], ts[order], milli[order]
    del order  # and the order before from_columns copies them again
    gaps = (np.diff(meter) == 0) & (np.diff(ts) != interval_s)
    if gaps.any():
        raise MixedInterval(meter_ids[meter[np.argmax(gaps)]])
    return FeederDataset.from_columns(meter_ids, meter, ts, milli, interval_s, delta_max)


def _check_header(line: str) -> None:
    """Refuse a CSV whose first line is not the header, as line 1."""
    if line.strip() != _HEADER:
        raise MalformedRow(1, "missing or wrong header")


def _line_slices(text: str):
    """`text` in consecutive slices of about `_SLICE_CHARS` characters.

    Every slice but the last ends just after a "\n", so a "\r\n" is never
    split and, every other line break being one character, the slices'
    `splitlines()` concatenated are `text.splitlines()`. A line longer than
    `_SLICE_CHARS` stays whole in a longer slice.
    """
    start, end = 0, len(text)
    while end - start > _SLICE_CHARS:
        cut = text.rfind("\n", start, start + _SLICE_CHARS) + 1
        if not cut:
            cut = text.find("\n", start + _SLICE_CHARS) + 1 or end
        yield text[start:cut]
        start = cut
    if start < end:
        yield text[start:]


def serialize_csv(dataset: FeederDataset) -> str:
    """Inverse of parse_csv for valid datasets (round-trip identity).

    The text is built one meter's block of rows at a time on the first call
    for a dataset, and kept on it.
    """
    return dataset._derived("csv", _serialize_csv)


def serialize_csv_json(dataset: FeederDataset) -> bytes:
    """`json.dumps(serialize_csv(dataset)).encode()`, built on the first call and kept.

    The text is encoded a slice at a time into one buffer, which becomes the
    result without a copy; JSON escapes each code point on its own, so the
    slices' encodings concatenate to the whole's.
    """
    return dataset._derived("csv_json", _serialize_csv_json)


def _serialize_csv(dataset: FeederDataset) -> str:
    stamps = np.fromiter(dataset.interval_milli, np.int64, len(dataset.interval_milli))
    iso = np.array([
        datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        for t in stamps.tolist()
    ], dtype=object)
    values, value_idx = np.unique(dataset.milli_kwh, return_inverse=True)
    kwh = np.array([EnergyQuantity(v).to_kwh_text() for v in values.tolist()], dtype=object)
    row_iso, row_kwh = iso[np.searchsorted(stamps, dataset.timestamp)], kwh[value_idx]
    bounds = dataset.meter_bounds().tolist()
    blocks = [f"{_HEADER}\n"]
    for m, a, b in zip(dataset.meter_ids, bounds, bounds[1:]):
        rows = zip(row_iso[a:b].tolist(), row_kwh[a:b].tolist())
        blocks.append("".join([f"{m},{t},{k}\n" for t, k in rows]))
    return "".join(blocks)


def _serialize_csv_json(dataset: FeederDataset) -> bytes:
    text, buffer = serialize_csv(dataset), io.BytesIO()
    # The buffer is sized before it is filled, since one grown by appends can move
    # and is then held twice. JSON writes "\n" as two bytes and any character as at
    # least one, so this size is exact when "\n" is the only character it escapes.
    buffer.seek(len(text) + text.count("\n") + 1)
    buffer.write(b'"')
    buffer.seek(0)
    buffer.write(b'"')
    for start in range(0, len(text), _SLICE_CHARS):
        buffer.write(json.dumps(text[start:start + _SLICE_CHARS])[1:-1].encode())
    buffer.write(b'"')
    return buffer.getvalue()
