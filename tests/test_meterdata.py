import json
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amiprivacy import meterdata
from amiprivacy.meterdata import (
    EnergyAboveCap,
    EnergyQuantity,
    FeederDataset,
    MalformedRow,
    MeterDataError,
    MisalignedTimestamp,
    MixedInterval,
    NegativeEnergy,
    _check_row,
    parse_csv,
    serialize_csv,
    serialize_csv_json,
)
from conftest import build_series, make_uniform_dataset

HEADER = "meter_id,timestamp,kwh\n"
CAP = EnergyQuantity(5000)


class TestEnergyQuantity:
    def test_exact_text_round_trip(self):
        for text in ["0.000", "1.500", "3.141", "42.000", "0.001"]:
            q = EnergyQuantity.from_kwh_text(text)
            assert q.to_kwh_text() == text

    def test_parse_short_fractions(self):
        assert EnergyQuantity.from_kwh_text("1.5").milli_kwh == 1500
        assert EnergyQuantity.from_kwh_text("2").milli_kwh == 2000
        assert EnergyQuantity.from_kwh_text("-0.5").milli_kwh == -500

    def test_rejects_bad_text(self):
        # int() reads Arabic-Indic and fullwidth digits; kWh, like a timestamp, takes only [0-9].
        for text in ["1.5000", "abc", "1,5", "", "١.٥٠٠", "１２.000", "1.٥"]:
            with pytest.raises(ValueError):
                EnergyQuantity.from_kwh_text(text)


class TestParseCsv:
    def test_two_row_example(self):
        text = HEADER + "m1,2021-07-01T00:00:00Z,1.500\nm1,2021-07-01T00:15:00Z,2.000"
        d = parse_csv(text, interval_s=900, delta_max=CAP)
        assert len(d.series) == 1
        assert [r.energy.milli_kwh for r in d.series[0].readings] == [1500, 2000]

    def test_empty_input(self):
        for text in ("", HEADER, HEADER + "\n \r\n\t\n"):  # each a header with no rows
            d = parse_csv(text, interval_s=900, delta_max=CAP)
            assert d.series == ()
            assert d == FeederDataset.from_columns((), (), (), (), 900, CAP)
            assert d._memo == {}

    def test_negative_energy(self):
        text = HEADER + "m1,2021-07-01T00:00:00Z,-0.5"
        with pytest.raises(NegativeEnergy) as err:
            parse_csv(text, interval_s=900, delta_max=CAP)
        assert err.value.line == 2

    def test_malformed_row(self):
        with pytest.raises(MalformedRow):
            parse_csv(HEADER + "m1,not-a-time,1.0", interval_s=900, delta_max=CAP)
        with pytest.raises(MalformedRow):
            parse_csv(HEADER + "m1,2021-07-01T00:00:00Z", interval_s=900, delta_max=CAP)
        with pytest.raises(MalformedRow):
            parse_csv("wrong,header,here\n", interval_s=900, delta_max=CAP)

    def test_timestamp_requires_z_suffix(self):
        text = HEADER + "m1,2021-07-01T00:00:00+00:00,1.0"
        with pytest.raises(MalformedRow):
            parse_csv(text, interval_s=900, delta_max=CAP)

    def test_misaligned_timestamp(self):
        text = HEADER + "m1,2021-07-01T00:07:00Z,1.0"
        with pytest.raises(MisalignedTimestamp):
            parse_csv(text, interval_s=900, delta_max=CAP)

    def test_mixed_interval(self):
        text = (
            HEADER
            + "m1,2021-07-01T00:00:00Z,1.0\n"
            + "m1,2021-07-01T00:30:00Z,1.0"  # gap of two intervals
        )
        with pytest.raises(MixedInterval) as err:
            parse_csv(text, interval_s=900, delta_max=CAP)
        assert err.value.meter_id == "m1"

    def test_cap_is_enforced_not_clipped(self):
        text = HEADER + "m1,2021-07-01T00:00:00Z,9.000"
        with pytest.raises(EnergyAboveCap):
            parse_csv(text, interval_s=900, delta_max=CAP)

    def test_rows_sorted_per_meter(self):
        text = (
            HEADER
            + "m1,2021-07-01T00:15:00Z,2.000\n"
            + "m1,2021-07-01T00:00:00Z,1.500"
        )
        d = parse_csv(text, interval_s=900, delta_max=CAP)
        assert [r.timestamp for r in d.series[0].readings] == [1625097600, 1625098500]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # meter index
            st.integers(min_value=0, max_value=5000),  # milli-kWh
        ),
        min_size=0,
        max_size=30,
    )
)
def test_serialize_parse_round_trip(rows):
    per_meter: dict[int, list[int]] = {}
    for idx, milli in rows:
        per_meter.setdefault(idx, []).append(milli)
    series = tuple(
        build_series(f"m{idx}", values, interval_s=900)
        for idx, values in sorted(per_meter.items())
    )
    d = FeederDataset(series=series, interval_s=900, delta_max=CAP)
    assert parse_csv(serialize_csv(d), 900, CAP) == d


class TestIntervalTotals:
    def test_two_meters(self):
        d = FeederDataset(
            series=(build_series("a", [2000]), build_series("b", [3000])),
            interval_s=3600,
            delta_max=CAP,
        )
        assert d.interval_milli == {0: 5000}

    def test_single_meter_identity(self):
        d = FeederDataset(
            series=(build_series("a", [1000, 2000]),), interval_s=3600, delta_max=CAP
        )
        assert d.interval_milli == {0: 1000, 3600: 2000}

    def test_thousand_meters_against_plain_sum(self):
        d = make_uniform_dataset(1000, 1500, 1)
        expected = sum(r.energy.milli_kwh for s in d.series for r in s.readings)
        assert expected == 1_500_000
        assert d.interval_milli == {0: expected}

    def test_additive_over_disjoint_meter_sets(self):
        a = make_uniform_dataset(7, 1200, 3)
        b_series = tuple(
            build_series(f"x{i}", [900, 400, 100]) for i in range(5)
        )
        b = FeederDataset(series=b_series, interval_s=3600, delta_max=CAP)
        union = FeederDataset(
            series=a.series + b.series, interval_s=3600, delta_max=CAP
        )
        ta, tb, tu = a.interval_milli, b.interval_milli, union.interval_milli
        for t in tu:
            assert tu[t] == ta[t] + tb[t]

    def test_permutation_invariant(self):
        d = make_uniform_dataset(5, 1000, 2)
        flipped = FeederDataset(
            series=tuple(reversed(d.series)), interval_s=3600, delta_max=CAP
        )
        assert d.interval_milli == flipped.interval_milli

    def test_checked_bound_no_overflow(self):
        # 10^6 meters at the 5 kWh cap stays far inside the declared range.
        assert 10**6 * 5000 < 2**62
        d = make_uniform_dataset(10_000, 5000, 1)
        assert d.interval_milli[0] == 50_000_000


class TestTypeInvariants:
    def test_dataset_rejects_mixed_interval(self):
        with pytest.raises(ValueError):
            FeederDataset(
                series=(build_series("a", [1], interval_s=900),),
                interval_s=3600,
                delta_max=CAP,
            )

    def test_dataset_rejects_above_cap(self):
        with pytest.raises(ValueError):
            FeederDataset(
                series=(build_series("a", [6000]),), interval_s=3600, delta_max=CAP
            )


_COLUMNS = dict(meter_ids=("a", "b"), meter_idx=[0, 0, 1], timestamp=[0, 3600, 0],
                milli_kwh=[1, 2, 3], interval_s=3600, delta_max=CAP)


@pytest.mark.parametrize("change, refusal", [
    ({"interval_s": 0}, "interval_s must be positive"),
    ({"delta_max": EnergyQuantity(0)}, "delta_max must be positive"),
    ({"delta_max": EnergyQuantity(2**63)}, "delta_max must be positive"),
    ({"timestamp": [0, 3600]}, "one entry per reading"),
    ({"meter_idx": [-1, 0, 1]}, "grouped by meter"),
    ({"meter_idx": [0, 0, 2]}, "grouped by meter"),
    ({"meter_idx": [0, 1, 0]}, "grouped by meter"),
    ({"timestamp": [3600, 0, 0]}, "strictly increasing"),
    ({"timestamp": [0, 3601, 0]}, "multiple of interval_s"),
    ({"milli_kwh": [1, -2, 3]}, "non-negative"),
    ({"milli_kwh": [1, 5001, 3]}, "exceeds delta_max"),
    ({"milli_kwh": [2**62, 2**62, 1], "delta_max": EnergyQuantity(2**62)}, "overflow"),
    ({"meter_ids": ("a", "a")}, "distinct"),
])
def test_from_columns_refuses_each_broken_layout(change, refusal):
    assert FeederDataset.from_columns(**_COLUMNS).meter_milli == {"a": 3, "b": 3}
    with pytest.raises(ValueError, match=refusal):
        FeederDataset.from_columns(**{**_COLUMNS, **change})


def test_series_are_read_only_views_of_the_dataset_columns():
    d = FeederDataset.from_columns(**_COLUMNS)
    for s in d.series:
        for column, own in ((s.timestamp, d.timestamp), (s.milli_kwh, d.milli_kwh)):
            assert np.shares_memory(column, own) and not column.flags.writeable
    rows = [(d.meter_ids.index(r.meter_id), r.timestamp, r.energy.milli_kwh)
            for s in d.series for r in s.readings]
    assert [list(column) for column in zip(*rows)] == [
        d.meter_idx.tolist(), d.timestamp.tolist(), d.milli_kwh.tolist()]


def _iso(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_PER_METER = st.dictionaries(
    st.text(alphabet="ab01", min_size=1, max_size=3),
    st.tuples(
        st.integers(min_value=0, max_value=30),  # first interval
        st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=8),
    ),
    max_size=6,
)


@given(_PER_METER, st.randoms(use_true_random=False))
def test_parse_equals_built_dataset(per_meter, rnd):
    rows = []
    for meter_id, (start, values) in per_meter.items():
        for i, milli in enumerate(values):
            kwh = EnergyQuantity(milli).to_kwh_text()
            if rnd.random() < 0.5:
                kwh = kwh.rstrip("0").rstrip(".")  # "1.500" -> "1.5", "2.000" -> "2"
            pad = " " if rnd.random() < 0.3 else ""
            rows.append(f"{pad}{meter_id},{_iso(900 * (start + i))}{pad},{kwh}\n")
    rnd.shuffle(rows)
    built = FeederDataset(
        series=tuple(
            build_series(m, values, interval_s=900, start=900 * start)
            for m, (start, values) in sorted(per_meter.items())
        ),
        interval_s=900,
        delta_max=CAP,
    )
    assert parse_csv(HEADER + "".join(rows), 900, CAP) == built


@given(_PER_METER)
def test_cached_totals_equal_python_sums(per_meter):
    d = FeederDataset(
        series=tuple(
            build_series(m, values, start=3600 * start)
            for m, (start, values) in per_meter.items()
        ),
        interval_s=3600,
        delta_max=CAP,
    )
    by_ts: dict[int, int] = {}
    by_meter: dict[str, int] = {}
    for s in d.series:
        for r in s.readings:
            by_ts[r.timestamp] = by_ts.get(r.timestamp, 0) + r.energy.milli_kwh
            by_meter[s.meter_id] = by_meter.get(s.meter_id, 0) + r.energy.milli_kwh
    assert list(d.interval_milli.items()) == sorted(by_ts.items())
    assert dict(d.meter_milli) == by_meter
    assert d.total_milli == sum(by_ts.values())


def test_totals_exact_beyond_float_precision():
    cap = EnergyQuantity(2**61)
    values = [2**61, 2**61 - 1, 3]  # the total is not representable in float64
    d = FeederDataset(
        series=tuple(build_series(f"m{i}", [v]) for i, v in enumerate(values)),
        interval_s=3600,
        delta_max=cap,
    )
    assert d.interval_milli[0] == d.total_milli == sum(values)
    assert float(sum(values)) != sum(values)


def test_totals_read_first_are_kept_and_stay_immutable():
    d = FeederDataset(series=(build_series("a", [1, 2]), build_series("b", [4])),
                      interval_s=3600, delta_max=CAP)
    assert d.meter_milli is d.meter_milli and d.interval_milli is d.interval_milli
    assert (d.total_milli, dict(d.interval_milli)) == (7, {0: 5, 3600: 2})
    for name in ("total_milli", "meter_milli", "interval_milli"):
        with pytest.raises(AttributeError):
            setattr(d, name, 0)
    assert not hasattr(d, "total_kwh")


def test_totals_that_could_overflow_int64_rejected():
    cap = EnergyQuantity(2**62)
    with pytest.raises(ValueError):
        FeederDataset(
            series=(build_series("a", [2**62]), build_series("b", [2**62])),
            interval_s=3600,
            delta_max=cap,
        )


class TestLateBadRow:
    """A bad row deep in a large file is reported like the row-by-row reader did."""

    N_METERS, N_HOURS = 1000, 120  # 120,000 data rows
    BAD_LINE = 100_001
    TS = "2024-01-01T00:00:00Z"

    @pytest.fixture(scope="class")
    def lines(self):
        out = ["meter_id,timestamp,kwh"]
        for m in range(self.N_METERS):
            for h in range(self.N_HOURS):
                out.append(f"m{m:04d},{_iso(1_704_067_200 + 3600 * h)},{(m + h) % 5000 / 1000:.3f}")
        return out

    def _parse(self, lines, bad):
        lines = list(lines)
        for line, text in bad.items():
            lines[line - 1] = text
        return parse_csv("\n".join(lines), 3600, CAP)

    @pytest.mark.parametrize("text, error", [
        (f"m0833,{TS}", MalformedRow),
        (f"m0833,{TS},1.0,7", MalformedRow),
        (f" ,{TS},1.000", MalformedRow),
        ("m0833,2024-13-01T00:00:00Z,1.000", MalformedRow),
        ("m0833,2024-01-01T00:00:00,1.000", MalformedRow),
        (f"m0833,{TS},1.0001", MalformedRow),
        (f"m0833,{TS},-0.001", NegativeEnergy),
        ("m0833,2024-01-01T00:30:00Z,1.000", MisalignedTimestamp),
        (f"m0833,{TS},5.001", EnergyAboveCap),
        ("m0833,2024-01-01T00:30:00Z,-1.000", NegativeEnergy),  # sign before alignment
        ("m0833,2024-01-01T00:30:00Z,9.000", MisalignedTimestamp),  # alignment before cap
        ("m0833,2024-01-01T00:00:00.9Z,1.000", MalformedRow),  # only YYYY-MM-DDTHH:MM:SSZ
        ("m0833,2024-01-01Z,1.000", MalformedRow),
        ("m0833,2024-01-01 00:00:00Z,1.000", MalformedRow),
        ("m0833,20240101T000000Z,1.000", MalformedRow),
        (f"m0833,{TS},١.٥٠٠", MalformedRow),  # kWh digits are ASCII only
    ])
    def test_reported_at_its_line(self, lines, text, error):
        with pytest.raises(error) as err:
            self._parse(lines, {self.BAD_LINE: text})
        assert type(err.value) is error
        assert err.value.line == self.BAD_LINE

    @pytest.mark.parametrize("first, second, error", [
        (f"m0833,{TS},5.001", "m0900,not-a-time,1.000", EnergyAboveCap),
        ("m0833,not-a-time,1.000", f"m0900,{TS},-1.000", MalformedRow),
        ("m0833,2024-01-01T00:30:00Z,1.000", f"m0900,{TS}", MisalignedTimestamp),
        (f"m0833,{TS},1.000,", "m0900,2024-01-01T00:30:00Z,1.000", MalformedRow),
    ])
    def test_earlier_of_two_bad_rows_wins(self, lines, first, second, error):
        with pytest.raises(error) as err:
            self._parse(lines, {self.BAD_LINE: first, self.BAD_LINE + 10_000: second})
        assert err.value.line == self.BAD_LINE
        with pytest.raises(MeterDataError) as err:
            self._parse(lines, {self.BAD_LINE - 10_000: second, self.BAD_LINE: first})
        assert err.value.line == self.BAD_LINE - 10_000

    def test_gap_reported_after_every_row_is_valid(self, lines):
        # Dropping a row leaves m0833 with a gap; a later bad row still wins.
        with pytest.raises(MalformedRow):
            self._parse(lines, {self.BAD_LINE: "", self.BAD_LINE + 5: "m0833,x,1.0"})
        with pytest.raises(MixedInterval) as err:
            self._parse(lines, {self.BAD_LINE: ""})
        assert err.value.meter_id == "m0833"


def _one_meter(milli_values):
    return FeederDataset(series=(build_series("m0", milli_values),), interval_s=3600,
                         delta_max=CAP)


class TestMemoizedViews:
    def test_serialize_twice_gives_the_same_text_and_round_trips(self):
        d = FeederDataset(series=(build_series("a", [0, 1, 999]), build_series("b", [5000, 1])),
                          interval_s=3600, delta_max=CAP)
        first = serialize_csv(d)
        assert serialize_csv(d) == first
        assert parse_csv(first, 3600, CAP) == d

    def test_views_are_built_on_first_use_only(self):
        d = parse_csv(serialize_csv(make_uniform_dataset(2, 100, 3)), 3600, CAP)
        assert d._memo == {}
        d.value_index()
        assert set(d._memo) == {"value_index"}
        text = serialize_csv(d)
        assert set(d._memo) == {"value_index", "csv"}
        assert serialize_csv(d) is text

    def test_datasets_with_different_values_never_share_an_entry(self):
        a, b = _one_meter([1, 2, 3]), _one_meter([1, 2, 4])
        text_a, text_b = serialize_csv(a), serialize_csv(b)
        assert text_a != text_b
        assert serialize_csv(a) == text_a
        assert parse_csv(text_a, 3600, CAP) == a and parse_csv(text_b, 3600, CAP) == b
        assert a.value_index()[0].tolist() == [1, 2, 3]
        assert b.value_index()[0].tolist() == [1, 2, 4]

    def test_value_index_counts_readings_below_each_value(self):
        d = FeederDataset(series=(build_series("a", [5, 0, 5]), build_series("b", [7, 5])),
                          interval_s=3600, delta_max=CAP)
        values, below = d.value_index()
        assert values.tolist() == [0, 5, 7]
        assert below.tolist() == [0, 1, 4, 5]
        assert values.dtype == below.dtype == np.int64
        assert not values.flags.writeable and not below.flags.writeable
        assert d.value_index()[1] is below
        empty_values, empty_below = _one_meter([]).value_index()
        assert empty_values.tolist() == [] and empty_below.tolist() == [0]

    def test_filled_memo_keeps_equality_and_immutability(self):
        d, fresh = make_uniform_dataset(2, 100, 3), make_uniform_dataset(2, 100, 3)
        serialize_csv(d)
        d.value_index()
        assert d == fresh and fresh == d
        assert d != _one_meter([100, 100, 100])
        for name in ("milli_kwh", "_memo"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)


# The row-list parse_csv, _serialize_csv and serialize_csv_json that the
# slice-wise ones replaced, kept as an oracle: the new code must agree with
# them on every text and dataset.
def _oracle_parse_csv(text, interval_s, delta_max):
    empty = FeederDataset.from_columns((), (), (), (), interval_s, delta_max)
    lines = text.splitlines()
    if not lines:
        return empty
    if lines[0].strip() != "meter_id,timestamp,kwh":
        raise MalformedRow(1, "missing or wrong header")

    cap = delta_max.milli_kwh
    meters, stamps, energies = {}, {}, {}
    id_col, ts_col, milli_col = [], [], []
    for line, raw in enumerate(lines[1:], start=2):
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
    if not id_col:
        return empty

    meter_ids = sorted(set(meters.values()))
    rank = {m: i for i, m in enumerate(meter_ids)}
    meter = np.fromiter(map(rank.__getitem__, id_col), np.int64, len(id_col))
    ts, milli = np.array(ts_col, dtype=np.int64), np.array(milli_col, dtype=np.int64)
    order = np.lexsort((ts, meter))
    meter, ts, milli = meter[order], ts[order], milli[order]
    gaps = (np.diff(meter) == 0) & (np.diff(ts) != interval_s)
    if gaps.any():
        raise MixedInterval(meter_ids[meter[np.argmax(gaps)]])
    return FeederDataset.from_columns(meter_ids, meter, ts, milli, interval_s, delta_max)


def _oracle_serialize_csv(dataset):
    stamps = np.fromiter(dataset.interval_milli, np.int64, len(dataset.interval_milli))
    iso = np.array([
        datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        for t in stamps.tolist()
    ], dtype=object)
    values, value_idx = np.unique(dataset.milli_kwh, return_inverse=True)
    kwh = np.array([EnergyQuantity(v).to_kwh_text() for v in values.tolist()], dtype=object)
    rows = zip(
        np.array(dataset.meter_ids, dtype=object)[dataset.meter_idx].tolist(),
        iso[np.searchsorted(stamps, dataset.timestamp)].tolist(),
        kwh[value_idx].tolist(),
    )
    return "meter_id,timestamp,kwh\n" + "".join([f"{m},{t},{k}\n" for m, t, k in rows])


def _oracle_serialize_csv_json(dataset):
    return json.dumps(_oracle_serialize_csv(dataset)).encode()


def _outcome(parse, text):
    try:
        return parse(text, 3600, CAP)
    except MeterDataError as exc:
        return type(exc), str(exc)


_IDS = st.text(alphabet="ab0üЖ😀", min_size=1, max_size=3)
_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028")
_ODD_LINES = (
    "", " ", "\t ", "m0,2024-01-01T00:00:00Z", "m0,2024-01-01T00:00:00Z,1.0,7",
    " ,2024-01-01T00:00:00Z,1.000", "m0,2024-01-01T00:30:00Z,1.000", "m0,not-a-time,1.000",
    "m0,2024-01-01T00:00:00Z,-0.001", "m0,2024-01-01T00:00:00Z,5.001",
    "m0,2024-01-01T00:00:00Z,1.0001", "m0,2024-01-01T00:00:00Z,١.٥٠٠",
    "m0,2024-01-01T03:00:00Z,1.000", "m0,2024-01-01T05:00:00Z,0.500",  # both: a gap
)


@st.composite
def _csv_texts(draw):
    """Valid rows of whole meters, a few blank or bad lines, mixed line breaks."""
    header = draw(st.sampled_from(["meter_id,timestamp,kwh", " meter_id,timestamp,kwh\t",
                                   "meter_id,timestamp", ""]))
    rows = []
    meters = draw(st.dictionaries(_IDS, st.tuples(st.integers(0, 30), st.lists(
        st.integers(0, 5000), min_size=1, max_size=6)), max_size=4))
    for meter_id, (start, values) in meters.items():
        for i, milli in enumerate(values):
            pad = draw(st.sampled_from(["", " ", "\t"]))
            rows.append(f"{pad}{meter_id},{_iso(3600 * (start + i))}{pad},"
                        f"{pad}{EnergyQuantity(milli).to_kwh_text()}")
    rows = draw(st.permutations(rows))
    for at, line in draw(st.lists(st.tuples(st.integers(0, len(rows)),
                                            st.sampled_from(_ODD_LINES)), max_size=3)):
        rows.insert(at, line)
    lines = [header, *rows]
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        breaks[-1] = ""  # no final line break
    return "".join(line + brk for line, brk in zip(lines, breaks))


@given(_csv_texts(), st.integers(1, 128))
def test_slice_wise_parse_agrees_with_the_row_list_parse(text, slice_chars):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meterdata, "_SLICE_CHARS", slice_chars)
        assert _outcome(parse_csv, text) == _outcome(_oracle_parse_csv, text)


@pytest.mark.parametrize("last", ["m1,2024-01-01T02:00:00Z,0.250", "m1,2024-01-01T02:00:00Z"])
def test_every_slice_size_gives_the_row_list_lines(last):
    rows = ["meter_id,timestamp,kwh", "m0,2024-01-01T00:00:00Z,1.000", "",
            " m1 ,2024-01-01T00:00:00Z, 2", "\t", "m0,2024-01-01T01:00:00Z,0.5",
            "m1,2024-01-01T01:00:00Z,0.000", "", last]
    text = "".join(row + brk for row, brk in zip(rows, ("\r\n", "\r", "\r\n", "\x0b", "\n",
                                                         "\x85", "\u2028", "\x1c", "")))
    expected = _outcome(_oracle_parse_csv, text)
    for slice_chars in range(1, len(text) + 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(meterdata, "_SLICE_CHARS", slice_chars)
            assert _outcome(parse_csv, text) == expected, slice_chars


@given(_PER_METER.map(lambda per_meter: {m + "ü😀"[len(m) % 2]: v
                                         for m, v in per_meter.items()}),
       st.integers(1, 12))
def test_block_wise_views_are_byte_identical(per_meter, slice_chars):
    d = FeederDataset(
        series=tuple(build_series(m, values, start=3600 * start)
                     for m, (start, values) in sorted(per_meter.items())),
        interval_s=3600, delta_max=CAP)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meterdata, "_SLICE_CHARS", slice_chars)
        assert serialize_csv(d) == _oracle_serialize_csv(d)
        assert serialize_csv_json(d) == _oracle_serialize_csv_json(d)
        assert type(serialize_csv_json(d)) is bytes
        assert _outcome(parse_csv, serialize_csv(d)) == d


def test_ingest_and_export_memory_per_reading():
    """Peak traced bytes of parse_csv per reading, and of the exports per byte of output.

    On 300 meters x 168 hours the row-list code peaked at 243 bytes per reading
    in parse_csv, at 2.31 times the output in the two exports, and at 2.00
    times its output in serialize_csv_json alone, which held the JSON string
    and its bytes together; the slice-wise code reads 110, 1.46 and 1.08.
    """
    n_meters, n_hours = 300, 168
    n = n_meters * n_hours
    built = FeederDataset.from_columns(
        [f"m{i:04d}" for i in range(n_meters)], np.repeat(np.arange(n_meters), n_hours),
        np.tile(1_704_067_200 + 3600 * np.arange(n_hours), n_meters),
        np.random.default_rng(7).integers(0, 5001, n), 3600, CAP)
    text = serialize_csv(built)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parsed = parse_csv(text, 3600, CAP)
        parse_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        csv_text = serialize_csv(parsed)
        csv_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kept = tracemalloc.get_traced_memory()[0]
        csv_json = serialize_csv_json(parsed)
        json_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == built and csv_text == text
    assert parse_peak / n < 150
    assert (max(csv_peak, json_peak) - base) / (len(csv_text) + len(csv_json)) < 1.8
    assert (json_peak - kept) / len(csv_json) < 1.5
