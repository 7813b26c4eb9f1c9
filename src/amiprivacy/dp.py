"""Central-model differential privacy: calibrated noise mechanisms, DP
query answers, and an additive privacy-budget ledger.

Mechanisms
    Laplace: for a query with sensitivity d and privacy parameter eps,
    noise is drawn from Laplace(0, d/eps), giving eps-DP. Sampling is by
    inverse CDF from a single uniform draw::

        sample(b, u) = -b * sgn(u - 1/2) * ln(1 - 2|u - 1/2|)

    which makes outputs reproducible under injected uniforms.

Budget accounting
    Basic (additive) composition only: the ledger is an append-only log
    of (query_id, eps, delta) charges, and an append that would push the
    cumulative eps over the cap fails atomically. A query (see OPS) is
    released in two steps: `prepare` makes every refusal and computes the
    true values, and its `CheckedQuery.answer` only draws the noise. Between
    them the caller charges the query's epsilon once: `release` does, for
    dp-query, and the gateway's `route` does for its dp_query requests.
    Post-processing a released answer is free.

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
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .meterdata import MILLI_PER_KWH, FeederDataset, MalformedRow


class DpError(Exception):
    pass


class InvalidUniform(DpError):
    pass


class DeltaNotZero(DpError):
    pass


class BudgetExhausted(DpError):
    pass


class EmptyDataset(DpError):
    pass


class CapMismatch(DpError):
    """A ledger file records another epsilon cap than the one it is opened with."""


def default_rng() -> random.Random:
    """Cryptographically secure generator seeded from OS entropy."""
    return random.SystemRandom()


def seeded_rng(seed: int) -> random.Random:
    """Deterministic generator for tests and reproducible runs."""
    return random.Random(seed)


def _check_loss(epsilon: float, delta: float) -> None:
    if type(epsilon) is bool or type(delta) is bool:  # True > 0, but it is not a loss
        raise TypeError(f"epsilon and delta must be numbers, not {epsilon!r}, {delta!r}")
    if not (epsilon > 0 and 0.0 <= delta < 1.0):  # also refuses nan, which no cap bounds
        raise ValueError(f"epsilon must be > 0 and delta in [0, 1), not {epsilon}, {delta}")


@dataclass(frozen=True)
class PrivacyParams:
    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        _check_loss(self.epsilon, self.delta)


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
    mechanism: str  # "laplace"
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

    check-and-append is atomic: concurrent charges against one ledger
    observe a total order of appends, and a rejected append leaves the
    ledger unchanged.
    """

    def __init__(self, epsilon_cap: float, entries: Sequence[LedgerEntry] = ()):
        if not 0 < epsilon_cap < math.inf:  # an infinite cap would bound nothing
            raise ValueError(f"epsilon_cap must be positive and finite, not {epsilon_cap}")
        self.epsilon_cap = epsilon_cap
        self._entries: list[LedgerEntry] = list(entries)
        self._spent = 0.0  # running left-to-right total: a charge is O(1), not O(#entries)
        for i, e in enumerate(self._entries):
            _check_loss(e.epsilon, e.delta)
            self._spent += e.epsilon
            # charge never lets the total pass the cap, so such entries (an
            # infinite epsilon among them) are damage, not a spent budget.
            if self._spent > epsilon_cap + 1e-12:
                raise ValueError(f"ledger entry {i} ({e.query_id!r}) brings the total to "
                                 f"{self._spent!r}, past cap {epsilon_cap!r}")
        self._lock = threading.Lock()

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def epsilon_spent(self) -> float:
        return self._spent

    def charge(self, query_id: str, epsilon: float, delta: float) -> LedgerEntry:
        """Atomically append a charge, or raise BudgetExhausted, ValueError or TypeError untouched.

        The entry holds float(epsilon) and float(delta), so to_lines writes numbers.
        """
        _check_loss(epsilon, delta)
        epsilon, delta = float(epsilon), float(delta)
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
        """One line per entry; each ends with the cap, so the file records it."""
        cap = repr(self.epsilon_cap)
        return "".join(
            f"{e.query_id},{e.epsilon!r},{e.delta!r},{e.timestamp!r},{cap}\n"
            for e in self._entries
        )

    @classmethod
    def from_lines(cls, text: str, epsilon_cap: float) -> "BudgetLedger":
        """Inverse of to_lines; another recorded cap than epsilon_cap raises CapMismatch.

        A line with none, written before lines recorded it, adopts epsilon_cap.
        A line that is not query_id and 3 or 4 numbers raises MalformedRow.
        """
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            qid, *numbers = line.split(",")
            if len(numbers) not in (3, 4):
                raise MalformedRow(lineno, f"expected 4 or 5 fields, got {len(numbers) + 1}")
            try:
                eps, delta, ts, *cap = map(float, numbers)
            except ValueError as exc:
                raise MalformedRow(lineno, str(exc)) from None
            if cap and cap[0] != epsilon_cap:
                raise CapMismatch(f"ledger records epsilon cap {cap[0]!r}, not {epsilon_cap!r}")
            entries.append(LedgerEntry(qid, eps, delta, ts))
        return cls(epsilon_cap=epsilon_cap, entries=entries)


def compose(ledger: BudgetLedger) -> CompositionTotals:
    """Basic additive composition over every ledger entry."""
    return CompositionTotals(
        epsilon_total=sum(e.epsilon for e in ledger.entries),
        delta_total=sum(e.delta for e in ledger.entries),
    )


def _checked_scale(scale: float) -> float:
    if not 0.0 < scale < math.inf:  # an overflowed Δ/ε would release ±inf or nan
        raise ValueError(f"scale must be positive and finite, not {scale}")
    return scale


def laplace_sample(scale: float, u: float) -> float:
    """Inverse-CDF Laplace(0, scale) sample from one uniform draw in (0, 1)."""
    _checked_scale(scale)
    if not 0.0 < u < 1.0:
        raise InvalidUniform(f"uniform draw must lie in (0, 1), got {u}")
    centered = u - 0.5
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
    scale = _checked_scale(sens.delta_f / p.epsilon)  # before the draw: a refusal keeps rng
    noise = laplace_sample(scale, _uniform_open(rng))
    return DpAnswer(
        value=true_value + noise,
        mechanism="laplace",
        params=p,
        sensitivity=sens,
        query_id=query_id or _new_query_id(),
    )


def dp_sum(d: FeederDataset, timestamp: int, p: PrivacyParams, ledger: BudgetLedger,
           rng: random.Random) -> DpAnswer:
    """Laplace-noised interval total at one timestamp; sensitivity = delta_max."""
    return release(d, "sum", p.epsilon, p.delta, ledger, rng, timestamp)


def _bin_counts(d: FeederDataset, edges: Sequence[float]) -> list[float]:
    """Readings per bin [edges[i], edges[i+1]) over kWh values.

    The bins are disjoint and cover the declared range by construction, so
    parallel composition applies and the whole histogram costs a single
    epsilon. A reading counts in bin i iff edges[i] <= milli_kwh / 1000 <
    edges[i+1]; each edge becomes the first milli-kWh value at or above it,
    so binning is integer-exact, and each count is read off the dataset's
    value index: O(bins log distinct values), not O(readings), once the
    index exists.
    """
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("edges must be strictly ascending with >= 2 entries")
    cap = d.delta_max.milli_kwh
    firsts = np.array([_first_milli_at_or_above(e, cap) for e in edges], dtype=np.int64)
    values, below = d.value_index()
    # below[searchsorted(values, f)] readings lie under f; bin i is [firsts[i], firsts[i+1]).
    return np.diff(below[np.searchsorted(values, firsts)]).astype(float).tolist()


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


OPS = ("sum", "count", "mean", "histogram")


class CheckedQuery(NamedTuple):
    """A query that prepare has checked: charge params.epsilon, then answer."""

    params: PrivacyParams
    delta_f: float  # the sensitivity
    true_values: list[float]
    divisor: int | None  # a mean's exact public count; only the sum is noised
    histogram: bool  # answer gives a list
    query_id: str

    def answer(self, rng: random.Random) -> DpAnswer | list[DpAnswer]:
        """Each true value + Laplace(0, delta_f/epsilon), under one query_id; draws only."""
        sens, answers = Sensitivity(self.delta_f), []
        for v in self.true_values:  # a comprehension builds a closure per call before 3.12
            answers.append(laplace_mechanism(v, sens, self.params, rng, query_id=self.query_id))
        if self.divisor is not None:
            answers[0] = replace(answers[0], value=answers[0].value / self.divisor)
        return answers if self.histogram else answers[0]


def prepare(d: FeederDataset, op: str, epsilon: float, delta: float,
            timestamp: int | None = None, edges: Sequence[float] | None = None) -> CheckedQuery:
    """Query op on d, checked and ready to charge: its true values, sensitivity and query_id.

    Refused, in this order: an unknown op, bad privacy parameters, a sum
    without a timestamp, a histogram without edges, a mean of an empty
    dataset, bad edges, delta != 0 and a noise scale that is not positive
    and finite (1.0 / 1e-320 overflows to inf). A sum has sensitivity
    delta_max, a count and each bin 1; a mean noises the sum and divides by
    the exact public record count.
    """
    if op not in OPS:
        raise ValueError(f"unknown dp op {op!r}")
    p = PrivacyParams(epsilon, delta)
    if op == "sum" and timestamp is None:
        raise ValueError("sum query needs a timestamp")
    if op == "histogram" and edges is None:
        raise ValueError("histogram query needs bin edges")
    divisor, delta_f = None, 1.0
    if op == "sum":
        true_values, delta_f = [d.interval_milli.get(timestamp, 0) / MILLI_PER_KWH], d.delta_max.kwh
    elif op == "count":
        true_values = [float(d.n_readings())]
    elif op == "mean":
        divisor = d.n_readings()
        if divisor == 0:
            raise EmptyDataset("cannot take the mean of an empty dataset")
        true_values, delta_f = [d.total_milli / MILLI_PER_KWH], d.delta_max.kwh
    else:
        true_values = _bin_counts(d, edges)
    if p.delta != 0.0:
        raise DeltaNotZero("the Laplace mechanism requires delta = 0")
    if not 0.0 < delta_f / p.epsilon < math.inf:
        raise ValueError(f"noise scale {delta_f}/{p.epsilon} must be positive and finite")
    return CheckedQuery(p, delta_f, true_values, divisor, op == "histogram", _new_query_id())


def release(d: FeederDataset, op: str, epsilon: float, delta: float, ledger: BudgetLedger,
            rng: random.Random, timestamp: int | None = None,
            edges: Sequence[float] | None = None) -> DpAnswer | list[DpAnswer]:
    """Query op answered on d and charged to ledger: a DpAnswer, or a histogram's list.

    prepare's refusals all come before the charge; on BudgetExhausted nothing
    is charged, drawn or released.
    """
    query = prepare(d, op, epsilon, delta, timestamp, edges)
    ledger.charge(query.query_id, query.params.epsilon, query.params.delta)
    return query.answer(rng)
