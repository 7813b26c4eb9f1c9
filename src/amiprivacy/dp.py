"""Central-model differential privacy: calibrated noise mechanisms, DP
query answers, and an additive privacy-budget ledger.

Mechanisms
    Laplace: for a query with sensitivity d and privacy parameter eps,
    noise is drawn from Laplace(0, d/eps), giving eps-DP. Sampling is by
    inverse CDF from a single uniform draw::

        sample(b, u) = -b * sgn(u - 1/2) * ln(1 - 2|u - 1/2|)

    which makes outputs reproducible under injected uniforms.

    Gaussian: for (eps, delta)-DP with delta > 0 and eps <= 1, the
    classical analytic calibration is used::

        sigma = d * sqrt(2 * ln(1.25 / delta)) / eps

Budget accounting
    Basic (additive) composition only: the ledger is an append-only log
    of (query_id, eps, delta) charges, and an append that would push the
    cumulative eps over the cap fails atomically. Only the dp_* query
    operations may append; post-processing a released answer is free.

All randomness flows through an injectable generator with the
``random.Random`` interface; the production default is an OS-entropy
``random.SystemRandom``.
"""

from __future__ import annotations

import math
import random
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .meterdata import MILLI_PER_KWH, FeederDataset


class DpError(Exception):
    pass


class InvalidUniform(DpError):
    pass


class DeltaNotZero(DpError):
    pass


class DeltaZero(DpError):
    pass


class EpsilonOutOfRange(DpError):
    pass


class BudgetExhausted(DpError):
    pass


class EmptyDataset(DpError):
    pass


def default_rng() -> random.Random:
    """Cryptographically secure generator seeded from OS entropy."""
    return random.SystemRandom()


def seeded_rng(seed: int) -> random.Random:
    """Deterministic generator for tests and reproducible runs."""
    return random.Random(seed)


@dataclass(frozen=True)
class PrivacyParams:
    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must be in [0, 1)")


@dataclass(frozen=True)
class Sensitivity:
    """Maximum influence of one record on the query answer (Delta-f)."""

    delta_f: float

    def __post_init__(self):
        if not self.delta_f > 0:
            raise ValueError("sensitivity must be positive")


@dataclass(frozen=True)
class DpAnswer:
    """A released noisy value plus the exact parameters used, for audit."""

    value: float
    mechanism: str  # "laplace" | "gaussian"
    params: PrivacyParams
    sensitivity: Sensitivity
    query_id: str


@dataclass(frozen=True)
class LedgerEntry:
    query_id: str
    epsilon: float
    delta: float
    timestamp: float


@dataclass(frozen=True)
class CompositionTotals:
    epsilon_total: float
    delta_total: float


class BudgetLedger:
    """Append-only privacy-loss log with an enforced cumulative epsilon cap.

    check-and-append is atomic: concurrent dp_* calls against one ledger
    observe a total order of appends, and a rejected append leaves the
    ledger unchanged.
    """

    def __init__(self, epsilon_cap: float, entries: Sequence[LedgerEntry] = ()):
        if not epsilon_cap > 0:
            raise ValueError("epsilon_cap must be positive")
        self.epsilon_cap = epsilon_cap
        self._entries: list[LedgerEntry] = list(entries)
        self._spent = 0.0  # running left-to-right total: a charge is O(1), not O(#entries)
        for e in self._entries:
            self._spent += e.epsilon
        self._lock = threading.Lock()

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def epsilon_spent(self) -> float:
        return self._spent

    def entry_count(self) -> int:
        return len(self._entries)

    def epsilon_since(self, start: int) -> float:
        """Sum of the epsilons of the entries after the first `start`.

        One entry gives its epsilon exactly as charged; a difference of two
        running totals can be off in the last bits.
        """
        if start == len(self._entries):  # no charge: denials and non-DP requests
            return 0.0
        return sum((e.epsilon for e in self._entries[start:]), 0.0)

    def charge(self, query_id: str, epsilon: float, delta: float) -> LedgerEntry:
        """Atomically append a charge, or raise BudgetExhausted untouched."""
        with self._lock:
            if self._spent + epsilon > self.epsilon_cap + 1e-12:
                raise BudgetExhausted(
                    f"charge of {epsilon} would exceed cap {self.epsilon_cap}"
                )
            entry = LedgerEntry(query_id, epsilon, delta, time.time())
            self._entries.append(entry)
            self._spent += epsilon
            return entry

    def to_lines(self) -> str:
        return "".join(
            f"{e.query_id},{e.epsilon!r},{e.delta!r},{e.timestamp!r}\n" for e in self._entries
        )

    @classmethod
    def from_lines(cls, text: str, epsilon_cap: float) -> "BudgetLedger":
        entries = []
        for line in text.splitlines():
            if not line.strip():
                continue
            qid, eps, delta, ts = line.split(",")
            entries.append(LedgerEntry(qid, float(eps), float(delta), float(ts)))
        return cls(epsilon_cap=epsilon_cap, entries=entries)


def compose(ledger: BudgetLedger) -> CompositionTotals:
    """Basic additive composition over every ledger entry."""
    return CompositionTotals(
        epsilon_total=sum(e.epsilon for e in ledger.entries),
        delta_total=sum(e.delta for e in ledger.entries),
    )


def laplace_sample(scale: float, u: float) -> float:
    """Inverse-CDF Laplace(0, scale) sample from one uniform draw in (0, 1)."""
    if not scale > 0:
        raise ValueError("scale must be positive")
    if not 0.0 < u < 1.0:
        raise InvalidUniform(f"uniform draw must lie in (0, 1), got {u}")
    centered = u - 0.5
    if centered == 0.0:
        return 0.0
    sign = 1.0 if centered > 0 else -1.0
    return -scale * sign * math.log(1.0 - 2.0 * abs(centered))


def _uniform_open(rng: random.Random) -> float:
    # random() yields [0, 1); reject the measure-zero 0.0 endpoint.
    while True:
        u = rng.random()
        if u != 0.0:
            return u


def _new_query_id() -> str:
    return secrets.token_hex(8)


def _charge(ledger: BudgetLedger, p: PrivacyParams) -> str:
    """Charge a Laplace release to the ledger; a nonzero delta is refused first."""
    if p.delta != 0.0:
        raise DeltaNotZero("the Laplace mechanism requires delta = 0")
    query_id = _new_query_id()
    ledger.charge(query_id, p.epsilon, 0.0)
    return query_id


def laplace_mechanism(
    true_value: float,
    sens: Sensitivity,
    p: PrivacyParams,
    rng: random.Random,
    query_id: str | None = None,
) -> DpAnswer:
    """Release true_value + Laplace(0, delta_f/epsilon); requires delta = 0."""
    if p.delta != 0.0:
        raise DeltaNotZero("the Laplace mechanism requires delta = 0")
    scale = sens.delta_f / p.epsilon
    noise = laplace_sample(scale, _uniform_open(rng))
    return DpAnswer(
        value=true_value + noise,
        mechanism="laplace",
        params=p,
        sensitivity=sens,
        query_id=query_id or _new_query_id(),
    )


def gaussian_sigma(sens: Sensitivity, p: PrivacyParams) -> float:
    """Noise std for the analytic (eps, delta) Gaussian calibration."""
    return sens.delta_f * math.sqrt(2.0 * math.log(1.25 / p.delta)) / p.epsilon


def gaussian_mechanism(
    true_value: float,
    sens: Sensitivity,
    p: PrivacyParams,
    rng: random.Random,
    query_id: str | None = None,
) -> DpAnswer:
    """Release true_value + N(0, sigma^2); valid for delta > 0 and eps <= 1."""
    if p.delta == 0.0:
        raise DeltaZero("the Gaussian mechanism requires delta > 0")
    if p.epsilon > 1.0:
        raise EpsilonOutOfRange("analytic Gaussian calibration requires epsilon <= 1")
    sigma = gaussian_sigma(sens, p)
    noise = rng.gauss(0.0, sigma)
    return DpAnswer(
        value=true_value + noise,
        mechanism="gaussian",
        params=p,
        sensitivity=sens,
        query_id=query_id or _new_query_id(),
    )


def dp_sum(
    d: FeederDataset,
    timestamp: int,
    p: PrivacyParams,
    ledger: BudgetLedger,
    rng: random.Random,
) -> DpAnswer:
    """Laplace-noised interval total at one timestamp; sensitivity = delta_max.

    The budget is charged before any noise is drawn; on BudgetExhausted
    nothing is computed and nothing is released.
    """
    query_id = _charge(ledger, p)
    true_kwh = d.interval_milli.get(timestamp, 0) / MILLI_PER_KWH
    return laplace_mechanism(
        true_kwh, Sensitivity(d.delta_max.kwh), p, rng, query_id=query_id
    )


def dp_count(
    d: FeederDataset, p: PrivacyParams, ledger: BudgetLedger, rng: random.Random
) -> DpAnswer:
    """Laplace-noised count of readings; one record moves the count by 1."""
    query_id = _charge(ledger, p)
    return laplace_mechanism(float(d.n_readings()), Sensitivity(1.0), p, rng, query_id=query_id)


def dp_mean(
    d: FeederDataset, p: PrivacyParams, ledger: BudgetLedger, rng: random.Random
) -> DpAnswer:
    """Noisy sum divided by the exact public record count.

    The count is treated as a public denominator; only the sum is noised
    (sensitivity = delta_max).
    """
    count = d.n_readings()
    if count == 0:
        raise EmptyDataset("cannot take the mean of an empty dataset")
    query_id = _charge(ledger, p)
    true_sum = d.total_milli / MILLI_PER_KWH
    noisy_sum = laplace_mechanism(
        true_sum, Sensitivity(d.delta_max.kwh), p, rng, query_id=query_id
    )
    return DpAnswer(
        value=noisy_sum.value / count,
        mechanism="laplace",
        params=p,
        sensitivity=noisy_sum.sensitivity,
        query_id=query_id,
    )


def dp_histogram(
    d: FeederDataset,
    edges: Sequence[float],
    p: PrivacyParams,
    ledger: BudgetLedger,
    rng: random.Random,
) -> list[DpAnswer]:
    """Independent Laplace noise per bin count, one epsilon for the release.

    Bins are [edges[i], edges[i+1]) over kWh values: disjoint and covering
    the declared range by construction, so parallel composition applies
    and the whole histogram costs a single epsilon. A reading counts in
    bin i iff edges[i] <= milli_kwh / 1000 < edges[i+1]; each edge becomes
    the first milli-kWh value at or above it, so binning is integer-exact.
    """
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("edges must be strictly ascending with >= 2 entries")
    query_id = _charge(ledger, p)
    cap = d.delta_max.milli_kwh
    firsts = np.array([_first_milli_at_or_above(e, cap) for e in edges], dtype=np.int64)
    bins = np.searchsorted(firsts, d.milli_kwh, side="right") - 1
    counts = np.bincount(bins[(bins >= 0) & (bins < len(edges) - 1)], minlength=len(edges) - 1)
    return [
        laplace_mechanism(float(c), Sensitivity(1.0), p, rng, query_id=query_id)
        for c in counts.tolist()
    ]


def _first_milli_at_or_above(edge: float, cap: int) -> int:
    """Least m in [0, cap] with m / 1000 >= edge, or cap + 1 if there is none.

    m / 1000 rounds monotonically, so the readings at or above the edge in
    kWh are exactly those with milli_kwh >= this value.
    """
    lo, hi = 0, cap + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / MILLI_PER_KWH >= edge:
            hi = mid
        else:
            lo = mid + 1
    return lo
