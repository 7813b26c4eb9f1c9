"""The audit trail's record format, hash chain and JSONL codec.

Each record hashes its first seven fields, joined by `_FIELD_SEP`, after
the previous record's hash (Schneier & Kelsey's hash chain); the first
record follows GENESIS_HASH. `gateway.AuditLog` appends records,
`verify_chain` recomputes them, and `audit-show --log FILE --verify` runs
that check on a persisted log. A log line is `audit_record_to_json`, a direct
encoder that writes exactly `json.dumps(audit_record_to_dict(rec))` without
building the dict. `read_log` reads a log back in one pass, each line as a
plain row of the nine field values, and `verify_chain` checks those rows as
it checks `AuditRecord`s. This module needs only the standard library, so an
auditor's verify loads nothing else of the package.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter
from typing import Iterable

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


_hashed_values = attrgetter(*_FIELD_NAMES[:7])


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
    """
    sep = _FIELD_SEP.encode("utf-8")
    prev_hash = GENESIS_HASH
    for i, (seq, request_id, requester, decision, mechanism, epsilon_spent, timestamp,
            rec_prev_hash, rec_hash) in enumerate(records):
        payload = _record_payload((seq, request_id, requester, decision, mechanism,
                                   epsilon_spent, timestamp))
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
