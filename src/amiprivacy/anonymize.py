"""First-line de-identification: keyed rotating pseudonyms, minimum-count
aggregation, and a k-anonymity verifier.

Pseudonyms are a keyed pseudorandom derivation of (epoch, identifier),
deterministic within an epoch and unlinkable across epochs as long as
the key stays secret. Aggregation suppresses every group below the
threshold; the k-anonymity check operates on categorical tuples only.
"""

from __future__ import annotations

import hmac
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .meterdata import MILLI_PER_KWH, EnergyQuantity


class AnonymizeError(Exception):
    pass


class EmptyIdentifier(AnonymizeError):
    pass


@dataclass(frozen=True)
class PseudonymKey:
    """Secret pseudonymization key plus the rotation epoch.

    The secret is excluded from repr and must never be serialized into
    any output artifact.
    """

    secret: bytes = field(repr=False)
    epoch: int = 0

    def __post_init__(self):
        if len(self.secret) != 32:
            raise ValueError("pseudonym key secret must be exactly 32 bytes")
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")


@dataclass(frozen=True)
class QuasiIdentifierRecord:
    """Ordered tuple of categorical quasi-identifier values."""

    attributes: tuple[str, ...]


@dataclass(frozen=True)
class AggregationPolicy:
    min_count: int = 1

    def __post_init__(self):
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")


@dataclass(frozen=True)
class Aggregate:
    count: int
    total: EnergyQuantity
    mean_kwh: float


@dataclass(frozen=True)
class Suppressed:
    """Marker for a group below the reporting threshold; carries no statistics."""


@dataclass(frozen=True)
class KAnonymityReport:
    passed: bool
    violating_classes: tuple[tuple[tuple[str, ...], int], ...]


def pseudonymize(real_id: str, key: PseudonymKey) -> str:
    """Derive the keyed pseudonym for real_id under the key's epoch.

    Output is 32 hex characters (128 bits of an HMAC-SHA256 over
    epoch || real_id). Changing the epoch changes every pseudonym.
    """
    if not real_id:
        raise EmptyIdentifier("real_id must be non-empty")
    msg = key.epoch.to_bytes(8, "big") + real_id.encode("utf-8")
    digest = hmac.new(key.secret, msg, hashlib.sha256).hexdigest()
    return digest[:32]


def aggregate_threshold(
    groups: Mapping[object, Sequence[EnergyQuantity]], policy: AggregationPolicy
) -> dict[object, Aggregate | Suppressed]:
    """Report {count, sum, mean} per group, suppressing small groups entirely.

    Suppressed groups are returned as an explicit marker, never omitted,
    so callers can distinguish "no group" from "suppressed group".
    """
    return {key: _aggregate(len(values), sum(v.milli_kwh for v in values), policy.min_count)
            for key, values in groups.items()}


def _aggregate(count: int, total_milli: int, min_count: int) -> Aggregate | Suppressed:
    """The one threshold rule, on a group's member count and exact total."""
    if count < min_count:
        return Suppressed()
    return Aggregate(count=count, total=EnergyQuantity(total_milli),
                     mean_kwh=total_milli / count / MILLI_PER_KWH)


def check_k_anonymity(records: Sequence[QuasiIdentifierRecord], k: int) -> KAnonymityReport:
    """Pass iff every equivalence class over the full attribute tuple has size >= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    arity = None
    classes: Counter[tuple[str, ...]] = Counter()
    for rec in records:
        if arity is None:
            arity = len(rec.attributes)
        elif len(rec.attributes) != arity:
            raise ValueError("records must share a fixed attribute arity")
        classes[rec.attributes] += 1
    violating = tuple(
        (attrs, size) for attrs, size in sorted(classes.items()) if size < k
    )
    return KAnonymityReport(passed=not violating, violating_classes=violating)
