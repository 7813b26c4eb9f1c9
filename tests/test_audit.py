import csv
import io
import json
import sys
from dataclasses import astuple, replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from amiprivacy.audit import (AuditLog, AuditRecord, ChainReport, audit_record_from_dict,
                              audit_record_to_json, csv_rows, read_log, verify_chain)

_KEYS = ("seq", "request_id", "requester", "decision", "mechanism", "epsilon_spent",
         "timestamp", "prev_hash", "hash")


def _outcome(read, text):
    """What `read(text)` returns or raises, as a repr: nan and -0.0 compare by their text."""
    try:
        return repr(read(text))
    except Exception as exc:
        return repr((type(exc), str(exc)))


def _reference(text):
    return [astuple(audit_record_from_dict(json.loads(line)))
            for line in text.splitlines() if line.strip()]


def _good_line():
    log = AuditLog()
    log.append_audit("r0", "ops", "allowed", "laplace", 0.25)
    return audit_record_to_json(log.records[0])


_DROP = object()


def _edited(**changes):
    data = {**json.loads(_good_line()), **changes}
    return json.dumps({k: v for k, v in data.items() if v is not _DROP})


# A line after a well-formed one, and what reading it raises (None: it is read).
_LINES = {
    "leading whitespace": (" \t" + _good_line(), None),
    "trailing whitespace": (_good_line() + "  ", None),
    "two values": (_good_line() + " {}", json.JSONDecodeError),
    "two values, no space": (_good_line() + "5", json.JSONDecodeError),
    "a list": ("[]", TypeError),
    "a number": ("5", TypeError),
    "null": ("null", TypeError),
    "a string": ('"x"', TypeError),
    "not json": ('{"seq": ', json.JSONDecodeError),
    "a byte-order mark": ("\ufeff" + _good_line(), json.JSONDecodeError),
    "a missing key": (_edited(mechanism=_DROP), TypeError),
    "a missing digest": (_edited(hash=_DROP), KeyError),
    "an unknown key": (_edited(note="x"), TypeError),
    "an odd-length digest": (_edited(hash="abc"), ValueError),
    "a non-hex digest": (_edited(prev_hash="zz" + "0" * 62), ValueError),
    "an uppercase digest": (_edited(hash="AB" * 32), None),
    "a digest that is a number": (_edited(hash=5), TypeError),
    "keys in another order": (json.dumps(dict(reversed(json.loads(_good_line()).items()))),
                              None),
    "values of other JSON types": (_edited(seq=1.5, request_id=None, requester=True,
                                           mechanism=[1, "a"], epsilon_spent={"a": 1}), None),
}


@pytest.mark.parametrize("case", sorted(_LINES))
def test_read_log_returns_or_raises_what_the_record_path_does(case):
    line, error = _LINES[case]
    text = f"{_good_line()}\n\n   \n{line}\n"
    assert _outcome(read_log, text) == _outcome(_reference, text)
    if error is None:
        assert len(read_log(text)) == 2
    else:
        with pytest.raises(error):
            read_log(text)


def test_read_log_skips_blank_lines_and_reads_an_empty_log():
    assert read_log("") == read_log(" \n\t\n") == []
    line = _good_line()
    assert read_log(f"\n{line}\n \n") == [astuple(audit_record_from_dict(json.loads(line)))]


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5))
_JSON = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                  st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2))
# Text that json must escape or csv must quote, and the payload separator.
_AWKWARD = st.sampled_from(['"', "\\", ",", "\r", "\n", "|", "\x00", "ü", "\ud800"])
_TEXT = st.text(st.one_of(_AWKWARD, st.characters(exclude_categories=())), max_size=8)
_FIELDS = {"seq": st.integers(min_value=-2**70, max_value=2**200), "request_id": _TEXT,
           "requester": _TEXT, "decision": _TEXT, "mechanism": _TEXT,
           "epsilon_spent": st.floats(), "timestamp": st.floats(),
           "prev_hash": st.binary(min_size=32, max_size=32).map(bytes.hex),
           "hash": st.binary(min_size=32, max_size=32).map(bytes.hex)}
_ODD_DIGEST = st.one_of(st.binary(max_size=33).map(lambda b: b.hex().upper()),
                        st.text("0123456789abcdefxyz ", max_size=66))
_FRAMES = st.sampled_from([" {}", "{}\t", "{} []", "{}5", "[{}]", "5", "null"])


@st.composite
def _log_line(draw):
    """A log line: well-formed, or with one thing changed."""
    data = {key: draw(strategy) for key, strategy in _FIELDS.items()}
    change = draw(st.sampled_from(["none", "type", "digest", "drop", "add", "order", "frame"]))
    if change == "type":
        data[draw(st.sampled_from(_KEYS))] = draw(_JSON)
    elif change == "digest":
        data[draw(st.sampled_from(_KEYS[-2:]))] = draw(_ODD_DIGEST)
    elif change == "drop":
        del data[draw(st.sampled_from(_KEYS))]
    elif change == "add":
        data["note"] = draw(_JSON)
    elif change == "order":
        data = dict(draw(st.permutations(list(data.items()))))
    line = json.dumps(data)
    return draw(_FRAMES).replace("{}", line) if change == "frame" else line


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(_log_line(), st.sampled_from(["", " ", "\t"])), max_size=4),
       newline=st.sampled_from(["\n", "\r\n"]))
@example(lines=[audit_record_to_json(AuditRecord(2**200, "ü", "\ud800", ",", '"', float("nan"),
                                                 float("-inf"), bytes(32), bytes(32))),
                audit_record_to_json(AuditRecord(-1, "", "\r", "\n", "|", -0.0, float("inf"),
                                                 bytes(32), bytes(32)))],
         newline="\n")
def test_read_log_equals_the_record_path_on_any_line(lines, newline):
    text = newline.join(lines)
    assert _outcome(read_log, text) == _outcome(_reference, text)


def _csv_reference(rows):
    """audit-show's rows as csv.writer writes them, each \\r\\n ending made \\n."""
    out = []
    for seq, request_id, requester, decision, mechanism, epsilon_spent, _, _, digest in rows:
        buf = io.StringIO()
        csv.writer(buf).writerow((seq, request_id, requester, decision, mechanism,
                                  epsilon_spent, digest.hex()[:16]))
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out)


_ROW_TEXT = st.one_of(_TEXT, _JSON)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(st.integers(), _JSON), _ROW_TEXT, _ROW_TEXT,
                               _ROW_TEXT, _ROW_TEXT, st.one_of(st.floats(), _JSON), _JSON,
                               st.binary(), st.binary(min_size=32, max_size=32)), max_size=4))
@example(rows=[(0, "a,b", 'o"ps', "c\rd", "e\nf", 0.25, 0.0, b"", bytes(32)),
               (1, None, True, [1, 2], "ü", float("nan"), 0.0, b"", bytes(32)),
               (True, "", "", "", "", 1, 0.0, b"", bytes(32))])
@example(rows=[(0, "r\r", "ops", "allowed", "raw", 0.0, 0.0, b"", bytes(32))])
@example(rows=[(0, "r", "ops", "allowed", "raw", None, 0.0, b"", bytes(32))])
@example(rows=[(0, "r", "ops", "allowed", "raw", "0.5", 0.0, b"", bytes(32))])
@example(rows=[(None, "r", "ops", "allowed", "raw", 0.5, 0.0, b"", bytes(32))])
@example(rows=[(0, "r\x00", "ops", "allowed", "raw", 0.5, 0.0, b"", bytes(32))])
@example(rows=[(0, "r\x00,", "ops", "allowed", "raw", 0.5, 0.0, b"", bytes(32))])
def test_audit_rows_are_the_csv_writer_rows(rows):
    # Before Python 3.11 csv.writer refuses a field holding NUL, so there the
    # reference covers the other rows only; the next test pins NUL's rows.
    if sys.version_info < (3, 11):
        assume("\x00" not in repr(rows))
    assert _outcome(csv_rows, rows) == _outcome(_csv_reference, rows)


@pytest.mark.parametrize("request_id, line", [
    ("r\x00", "0,r\x00,ops,allowed,raw,0.5,0000000000000000\n"),
    ("r\x00,", '0,"r\x00,",ops,allowed,raw,0.5,0000000000000000\n'),
    (None, "0,,ops,allowed,raw,0.5,0000000000000000\n"),
    (["a", 1], '0,"[\'a\', 1]",ops,allowed,raw,0.5,0000000000000000\n'),
])
def test_audit_rows_of_nul_and_non_text_fields_are_python_3_11_csv(request_id, line):
    # Python 3.11's csv.writer bytes, on every Python: NUL is ordinary text.
    assert csv_rows([(0, request_id, "ops", "allowed", "raw", 0.5, 0.0, b"", bytes(32))]) == line


def test_verify_chain_reads_rows_and_records_alike():
    log = AuditLog()
    for i in range(5):
        log.append_audit(f"r{i}", "ops,x", "allowed", "laplace", 0.1 * i)
    records = list(log.records)
    rows = read_log("".join(audit_record_to_json(rec) + "\n" for rec in records))
    assert rows == [tuple(rec) for rec in records] == [astuple(rec) for rec in records]
    assert verify_chain(rows) == verify_chain(records) == verify_chain(iter(rows))
    assert verify_chain(rows).valid
    rows[3] = (*rows[3][:2], "mallory", *rows[3][3:])
    assert verify_chain(rows).first_bad_seq == 3


def test_verify_chain_reports_a_lone_surrogate_as_a_bad_record():
    log = AuditLog()
    for i in range(3):
        log.append_audit(f"r{i}", "ops", "allowed", "laplace", 0.1)
    records = list(log.records)
    lines = [audit_record_to_json(rec) for rec in records]
    lines[1] = lines[1].replace('"request_id": "r1"', '"request_id": "x\\ud800"')
    rows = read_log("".join(line + "\n" for line in lines))
    assert rows[1][1] == "x\ud800"
    records[1] = replace(records[1], request_id="x\ud800")
    # UTF-8 cannot encode the payload, so no appended record can hold it.
    assert verify_chain(rows) == verify_chain(records) == ChainReport(False, 1)


@pytest.mark.parametrize("value", [None, 5, 0.5, ["r1"], {"r": 1}, True])
def test_verify_chain_reports_a_text_field_that_is_not_a_string_as_a_bad_record(value):
    log = AuditLog()
    for i in range(3):
        log.append_audit(f"r{i}", "ops", "allowed", "laplace", 0.1)
    rows = [tuple(rec) for rec in log.records]
    for field in range(1, 5):
        edited = list(rows)
        edited[1] = (*rows[1][:field], value, *rows[1][field + 1:])
        assert verify_chain(edited) == ChainReport(False, 1)


def test_the_writer_receives_each_record_line_in_order():
    lines = []
    log = AuditLog(writer=lines.append)
    log.append_audit("r0", "ops", "allowed", "laplace", 0.25)
    log.append_audit("r1-\u00fc", 'o"ps', "denied:ConsentRequired", "raw", 0.0)
    log.append_audit("r2", "ops", "error:ValueError", "laplace", 1e-300)
    assert lines == [audit_record_to_json(rec) + "\n" for rec in log.records]
    assert len(lines) == 3
