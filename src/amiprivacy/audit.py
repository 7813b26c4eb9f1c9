"""The audit trail: the one module that builds, encodes, persists, prints or
verifies a record.

Each record hashes its first seven fields, joined by `_FIELD_SEP`, after the
previous record's hash (Schneier & Kelsey's hash chain); the first follows
GENESIS_HASH. `AuditLog` appends records and hands each one's line to its
writer: `audit_record_to_json`, which writes the bytes of
`json.dumps(audit_record_to_dict(rec))` directly. audit-show reads a log with
`read_log`, one row of the nine values per line, prints the rows with
`csv_rows` and checks them with `verify_chain`. Only the standard library is
needed, so an auditor's verify loads nothing else of the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from typing import Callable, Iterable

GENESIS_HASH = bytes(32)


@dataclass(frozen=True)
class AuditRecord:
    seq: int
    request_id: str
    requester: str
    decision: str  # "allowed" or "denied:<Reason>"
    mechanism: str
    epsilon_spent: float
    timestamp: float
    prev_hash: bytes
    hash: bytes

    def __iter__(self):
        """The nine fields in order, so a record unpacks as `read_log`'s rows do."""
        return iter(_field_values(self))


_FIELD_NAMES = tuple(f.name for f in fields(AuditRecord))
_field_values = attrgetter(*_FIELD_NAMES)

_FIELD_SEP = "|"  # joins the audit payload's fields; no text field may contain it


def _record_payload(values: tuple) -> bytes:
    """AuditRecord's first seven fields, joined; repr keeps the text "0.1" from hashing as 0.1."""
    seq, *text, epsilon_spent, timestamp = values
    return _FIELD_SEP.join((str(seq), *text, repr(epsilon_spent), repr(timestamp))).encode("utf-8")


def _record_hash(prev_hash: bytes, payload: bytes) -> bytes:
    return hashlib.sha256(prev_hash + payload).digest()


@dataclass(frozen=True)
class ChainReport:
    valid: bool
    first_bad_seq: int | None = None  # list index of the first bad record


def verify_chain(records: Iterable[Iterable]) -> ChainReport:
    """Recompute every digest and link; report the first mismatch.

    Each record is an `AuditRecord` or a `read_log` row: both unpack to the
    nine fields. A record whose text fields contain the payload separator is
    bad too: moving a separator between adjacent fields would keep its digest.
    So is one whose text field is not a string, or holds text UTF-8 cannot
    encode: no appended record holds either.
    """
    sep = _FIELD_SEP.encode("utf-8")
    prev_hash = GENESIS_HASH
    for i, (seq, request_id, requester, decision, mechanism, epsilon_spent, timestamp,
            rec_prev_hash, rec_hash) in enumerate(records):
        try:
            payload = _record_payload((seq, request_id, requester, decision, mechanism,
                                       epsilon_spent, timestamp))
        except (TypeError, UnicodeEncodeError):  # a text field that is not a str, or a surrogate
            return ChainReport(valid=False, first_bad_seq=i)
        # Seven fields, so six separators; more means a field held one.
        if (seq != i or payload.count(sep) != 6 or rec_prev_hash != prev_hash
                or rec_hash != _record_hash(prev_hash, payload)):
            return ChainReport(valid=False, first_bad_seq=i)
        prev_hash = rec_hash
    return ChainReport(valid=True)


def audit_record_to_dict(rec: AuditRecord) -> dict:
    """The record's fields in declaration order, digests as hex."""
    return {**vars(rec), "prev_hash": rec.prev_hash.hex(), "hash": rec.hash.hex()}


def _json_float(x: float) -> str:
    """x as json.dumps writes it: repr when finite, else NaN, Infinity or -Infinity."""
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def audit_record_to_json(rec: AuditRecord) -> str:
    """json.dumps(audit_record_to_dict(rec)), written over the nine keys directly.

    The text fields go through json's own ASCII escaper, so the bytes are the same.
    """
    return (f'{{"seq": {rec.seq!r}, "request_id": {_json_str(rec.request_id)}, '
            f'"requester": {_json_str(rec.requester)}, "decision": {_json_str(rec.decision)}, '
            f'"mechanism": {_json_str(rec.mechanism)}, '
            f'"epsilon_spent": {_json_float(rec.epsilon_spent)}, '
            f'"timestamp": {_json_float(rec.timestamp)}, '
            f'"prev_hash": "{rec.prev_hash.hex()}", "hash": "{rec.hash.hex()}"}}')


def audit_record_from_dict(data: dict) -> AuditRecord:
    """Inverse of audit_record_to_dict; a missing or unknown field raises TypeError,
    a missing digest KeyError."""
    return AuditRecord(**{**data, "prev_hash": bytes.fromhex(data["prev_hash"]),
                          "hash": bytes.fromhex(data["hash"])})


_raw_decode = json.JSONDecoder().raw_decode
_LINE_KEYS = frozenset(_FIELD_NAMES)


def read_log(text: str) -> list[tuple]:
    """Each non-blank line of a persisted log as its nine field values, digests as bytes.

    A row equals `astuple(audit_record_from_dict(json.loads(line)))`. A line
    that is not exactly one JSON object with the nine keys takes that path
    itself, so it raises what those calls raise.
    """
    rows = []
    fromhex = bytes.fromhex
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            data, end = _raw_decode(line)
        except ValueError:
            end = None
        if end == len(line) and type(data) is dict and data.keys() == _LINE_KEYS:
            rows.append((data["seq"], data["request_id"], data["requester"], data["decision"],
                         data["mechanism"], data["epsilon_spent"], data["timestamp"],
                         fromhex(data["prev_hash"]), fromhex(data["hash"])))
        else:
            rows.append(tuple(audit_record_from_dict(json.loads(line))))
    return rows


# csv's default dialect quotes a field holding a comma, a quote, \r or \n.
_plain_text = re.compile(r'[^,"\r\n]*').fullmatch


def _csv_field(value) -> str:
    """One field as csv.writer's default dialect writes it on Python 3.11 and later.

    None is empty, anything else its str; the text is quoted, its quotes
    doubled, when it holds a comma, a quote, \r or \n. NUL is ordinary text,
    which csv.writer refuses before Python 3.11.
    """
    text = "" if value is None else str(value)
    return text if _plain_text(text) else '"' + text.replace('"', '""') + '"'


def csv_rows(rows: list[tuple]) -> str:
    """audit-show's lines for `read_log` rows, as csv.writer writes them but \n-ended.

    Each line is seq, request_id, requester, decision, mechanism, epsilon_spent
    and the hash's first 16 hex digits. A row of an int, four text fields that
    need no quotes and a float is written directly; any other field by field.
    """
    lines = []
    for seq, request_id, requester, decision, mechanism, epsilon_spent, _, _, digest in rows:
        if (type(seq) is int and type(epsilon_spent) is float
                and type(request_id) is type(requester) is type(decision) is type(mechanism) is str
                and _plain_text(request_id + requester + decision + mechanism)):
            lines.append(f"{seq},{request_id},{requester},{decision},{mechanism},"
                         f"{epsilon_spent!r},{digest.hex()[:16]}\n")
        else:
            lines.append(",".join(map(_csv_field, (seq, request_id, requester, decision, mechanism,
                                                   epsilon_spent, digest.hex()[:16]))) + "\n")
    return "".join(lines)


class AuditWriteFailure(Exception):
    """The audit record could not be persisted; the request was dropped."""


class AuditLog:
    """Append-only, hash-chained decision log.

    An optional writer persists each record's line, `audit_record_to_json(rec)
    + "\n"`, before the record is committed in memory; a writer exception
    surfaces as AuditWriteFailure and leaves the log unchanged.
    """

    def __init__(self, writer: Callable[[str], object] | None = None):
        self._records: list[AuditRecord] = []
        self._writer = writer

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        return tuple(self._records)

    def append_audit(self, request_id: str, requester: str, decision: str, mechanism: str,
                     epsilon_spent: float) -> AuditRecord:
        seq = len(self._records)
        prev_hash = self._records[-1].hash if self._records else GENESIS_HASH
        fields = (seq, request_id, requester, decision, mechanism, epsilon_spent, time.time())
        record = AuditRecord(*fields, prev_hash, _record_hash(prev_hash, _record_payload(fields)))
        if self._writer is not None:
            try:
                self._writer(audit_record_to_json(record) + "\n")
            except Exception as exc:
                raise AuditWriteFailure(f"audit storage failed: {exc}") from exc
        self._records.append(record)
        return record
