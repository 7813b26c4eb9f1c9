"""Additive-secret-sharing secure sum among simulated parties.

A secret s is split into n shares mod M = 2^64: n-1 uniform draws and s
minus their sum, so any proper subset of shares is uniform and carries no
information. `secure_sum` keeps a run's shares in one (n, n) uint64 matrix
whose row i is what party i sends. Parties draw in input order, each its
n-1 shares from one rng.getrandbits(64(n-1)); the last column is the
secret minus the row sum, party j's partial is column j's sum and the
total is the partials' sum, wrapping mod 2^64 as uint64 does. Each party
refuses a secret of M // (2n) or more (n is public, so the bound reveals
nothing; n secrets below it sum below M/2), and below the participation
threshold the run aborts, both before any share leaves. The transcript's
messages, which let the audit layer check that no raw secret was sent, are
a lazy sequence over the matrix: the n^2 share deliveries row-major, then
the n(n-1) partial broadcasts. Honest-but-curious parties, in one process.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

MODULUS = 2**64

ABORT_NOT_ENOUGH_PARTICIPANTS = "not enough participants"


class SmpcError(Exception):
    pass


class InvalidPartyCount(SmpcError):
    pass


class DuplicateParty(SmpcError):
    pass


class SumOverflow(SmpcError):
    """A secret exceeds its per-party bound, or the result wrapped the modulus."""


@dataclass(frozen=True, slots=True)
class PartyInput:
    party_id: str
    secret: int  # non-negative milli-kWh, < MODULUS/2 for wrap headroom

    def __post_init__(self):
        if not 0 <= self.secret < MODULUS // 2:
            raise ValueError("secret must be a non-negative integer below M/2")


@dataclass(frozen=True, slots=True)
class TranscriptMessage:
    sender: str
    recipient: str
    value: int


class TranscriptMessages(Sequence):
    """The 2n^2 - n messages of one run, each built when it is read."""

    def __init__(self, ids: tuple[str, ...], shares: np.ndarray, partials: np.ndarray):
        self._ids, self._shares, self._partials = ids, shares, partials

    def __len__(self) -> int:
        return 2 * self._shares.size - len(self._ids)

    def __getitem__(self, k: int | slice) -> TranscriptMessage | tuple[TranscriptMessage, ...]:
        if isinstance(k, slice):
            return tuple(self[i] for i in range(len(self))[k])
        k, n, ids = range(len(self))[k], len(self._ids), self._ids  # IndexError past the end
        if k < n * n:
            return TranscriptMessage(ids[k // n], ids[k % n], int(self._shares.flat[k]))
        i, j = divmod(k - n * n, n - 1)  # party i broadcasts to every j != i
        return TranscriptMessage(ids[i], ids[j + (j >= i)], int(self._partials[i]))


@dataclass(frozen=True)
class ProtocolTranscript:
    """Append-only record of every transmitted value, and why a run aborted."""

    messages: Sequence[TranscriptMessage]
    abort_reason: str | None = None


@dataclass(frozen=True)
class SecureSumResult:
    total: int | None  # milli-kWh, None on abort
    transcript: ProtocolTranscript

    @property
    def aborted(self) -> bool:
        return self.transcript.abort_reason is not None


def secure_sum(
    inputs: Sequence[PartyInput], min_participants: int, rng: random.Random
) -> SecureSumResult:
    """Run the n-party secure sum, or abort below the participation floor."""
    ids = tuple(p.party_id for p in inputs)
    if len(set(ids)) != len(ids):
        raise DuplicateParty("party ids must be distinct")
    n = len(inputs)
    if n < min_participants:
        return SecureSumResult(None, ProtocolTranscript((), ABORT_NOT_ENOUGH_PARTICIPANTS))
    if n < 2:  # a lone party would send its raw secret to itself
        raise InvalidPartyCount("need at least 2 parties")
    if any(p.secret >= MODULUS // (2 * n) for p in inputs):
        raise SumOverflow(f"a secret is at or above the per-party bound M/(2n), n={n}")
    drawn = b"".join(rng.getrandbits(64 * (n - 1)).to_bytes(8 * (n - 1), "little") for _ in ids)
    drawn = np.frombuffer(drawn, dtype="<u8").reshape(n, n - 1)
    secrets = np.array([p.secret for p in inputs], dtype=np.uint64)
    shares = np.column_stack([drawn, secrets - drawn.sum(axis=1, dtype=np.uint64)])
    partials = shares.sum(axis=0, dtype=np.uint64)
    total = int(partials.sum(dtype=np.uint64))
    if total >= MODULUS // 2:
        raise SumOverflow("secure sum wrapped the modulus; inputs exceeded headroom")
    transcript = ProtocolTranscript(TranscriptMessages(ids, shares, partials))
    return SecureSumResult(total=total, transcript=transcript)
