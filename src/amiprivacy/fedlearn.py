"""Federated averaging over simulated clients holding disjoint meter data.

The client model is a linear autoregression of interval kWh on four
features: previous interval, 96 intervals back, hour-of-day scaled to
[0, 1], and a bias term. Clients run full-batch gradient steps on mean
squared error, so the weighted average of per-client updates equals one
centralized full-batch step when local_steps = 1.

Each round stacks the k training clients' sample-weighted updates into
one (k, d) matrix and divides its column sum by their total sample count.
In the clear the column sum is taken directly. Secure aggregation takes it
over one masked uint64 upload per row: the fixed-point encoding (scale
1e-6, mod 2^64) plus canceling pairwise masks, so the column sums are the
quantized sums, exact while every quantized coordinate is below 2^63 / k
(past that, FixedPointOverflow). A set norm bound clips each update, then
optional per-coordinate Gaussian noise is added, before upload.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .meterdata import MILLI_PER_KWH, FeederDataset, ReadingSeries

FX_SCALE = 10**6  # real <-> fixed-point quantization step of 1e-6
MASK_MODULUS = 2**64
LAG_LONG = 96  # one day of 15-minute intervals
N_FEATURES = 4


class FedLearnError(Exception):
    pass


class NoTrainingData(FedLearnError):
    pass


class EmptyUpdateList(FedLearnError):
    pass


class DimensionMismatch(FedLearnError):
    pass


class ClipNormMissing(FedLearnError):
    pass


class FixedPointOverflow(FedLearnError):
    pass


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Weight vector (fixed dimension, bias included); immutable."""

    weights: np.ndarray

    def __post_init__(self):
        arr = np.array(self.weights, dtype=float)
        if arr.ndim != 1:
            raise ValueError("weights must be a 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must all be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ClientUpdate:
    client_id: str
    weights: ModelParams
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True)
class RoundConfig:
    rounds: int = 1
    local_steps: int = 1
    learning_rate: float = 0.01
    clip_norm: float | None = None
    dp_sigma: float = 0.0

    def __post_init__(self):
        if self.rounds < 1 or self.local_steps < 1:
            raise ValueError("rounds and local_steps must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.dp_sigma < 0:
            raise ValueError("dp_sigma must be non-negative")
        if self.dp_sigma > 0 and self.clip_norm is None:
            raise ValueError("dp_sigma > 0 requires clip_norm")


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    mse: float


@dataclass(frozen=True)
class FederationResult:
    final: ModelParams
    history: tuple[RoundMetrics, ...]


def extract_examples(series_set: Iterable[ReadingSeries]) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and targets for the lag-1/lag-96/hour/bias model.

    One row per reading that has 96 readings before it in its series, in
    series order and time order within a series; a series of 96 readings or
    fewer gives none. The series' columns are concatenated once and the
    rows picked by index: a reading's position in its series is its offset
    from the series' first row.
    """
    series = list(series_set)
    lengths = [len(s) for s in series]
    milli = np.concatenate([s.milli_kwh for s in series] + [np.empty(0, np.int64)])
    stamps = np.concatenate([s.timestamp for s in series] + [np.empty(0, np.int64)])
    first_row = np.repeat(np.cumsum(lengths) - lengths, lengths)
    rows = np.flatnonzero(np.arange(len(milli)) - first_row >= LAG_LONG)
    kwh = milli / MILLI_PER_KWH
    hour = stamps[rows] // 3600 % 24
    X = np.column_stack([kwh[rows - 1], kwh[rows - LAG_LONG], hour / 23.0, np.ones(len(rows))])
    return X, kwh[rows]


def _gradient_step(X: np.ndarray, y: np.ndarray, w: np.ndarray, lr: float) -> np.ndarray:
    residual = X @ w - y
    grad = (2.0 / len(y)) * (X.T @ residual)
    return w - lr * grad


def local_train(
    examples: tuple[np.ndarray, np.ndarray],
    global_params: ModelParams,
    cfg: RoundConfig,
    client_id: str = "",
) -> ClientUpdate:
    """Run cfg.local_steps full-batch MSE gradient steps on the client's (X, y) examples."""
    X, y = examples
    if len(y) == 0:
        raise NoTrainingData(f"client {client_id!r} has no training examples")
    w = np.array(global_params.weights, dtype=float)
    for _ in range(cfg.local_steps):
        w = _gradient_step(X, y, w, cfg.learning_rate)
    return ClientUpdate(client_id=client_id, weights=ModelParams(w), n_samples=len(y))


def fed_avg(updates: Sequence[ClientUpdate]) -> ModelParams:
    """Weighted mean of client weights by sample count."""
    if not updates:
        raise EmptyUpdateList("need at least one client update")
    dim = updates[0].weights.dim
    if any(u.weights.dim != dim for u in updates):
        raise DimensionMismatch("all weight vectors must share one dimension")
    total = sum(u.n_samples for u in updates)
    stacked = np.stack([u.weights.weights for u in updates])
    counts = np.array([u.n_samples for u in updates], dtype=float)
    return ModelParams((stacked * counts[:, None]).sum(axis=0) / total)


def encode_fixed(vec: np.ndarray) -> tuple[int, ...]:
    """Quantize reals to 1e-6 and reduce mod 2^64 (two's complement)."""
    return tuple(round(float(v) * FX_SCALE) % MASK_MODULUS for v in vec)


def decode_fixed(values: Sequence[int]) -> np.ndarray:
    """Inverse of encode_fixed for residues mod 2^64 within +-M/2 of zero."""
    signed = np.asarray(values, dtype=np.uint64).astype(np.int64).tolist()  # two's complement
    # int / int rounds once; int64 -> float64 and then / 1e6 would round twice.
    return np.array([v / FX_SCALE for v in signed], dtype=float)


def _pair_mask_stream(seed: int, dim: int) -> np.ndarray:
    """dim mask words: getrandbits(64 dim) read little-endian gives dim getrandbits(64) draws."""
    words = random.Random(seed).getrandbits(64 * dim).to_bytes(8 * dim, "little")
    return np.frombuffer(words, dtype="<u8")


def masked_uploads(vectors: np.ndarray, pair_seeds: Mapping[tuple[int, int], int]) -> np.ndarray:
    """The (k, d) uint64 uploads the coordinator sees, one per row of vectors.

    Row i is encode_fixed(vectors[i]), plus _pair_mask_stream(seed) for each
    pair (i, j) and minus it for each pair (j, i), mod 2^64, so the masks
    cancel in the column sums. decode_fixed reads a sum back only within
    +-2^63, so every quantized coordinate must be below 2^63 / k.
    """
    k, dim = vectors.shape
    if not np.all(np.abs(np.round(vectors * FX_SCALE)) < MASK_MODULUS / 2 / k):
        raise FixedPointOverflow(f"a coordinate * 1e6 is not below 2^63 / {k} for {k} uploads")
    uploads = np.array([encode_fixed(row) for row in vectors], dtype=np.uint64).reshape(k, dim)
    for (i, j), seed in pair_seeds.items():
        stream = _pair_mask_stream(seed, dim)
        uploads[i] += stream  # wraps mod 2^64
        uploads[j] -= stream
    return uploads


def dp_noise_update(
    update: ClientUpdate, cfg: RoundConfig, rng: random.Random
) -> ClientUpdate:
    """Clip the update to cfg.clip_norm, then add N(0, dp_sigma^2) per coordinate."""
    if cfg.clip_norm is None:
        raise ClipNormMissing("dp_noise_update requires cfg.clip_norm")
    w = np.array(update.weights.weights, dtype=float)
    norm = float(np.linalg.norm(w))
    if norm > cfg.clip_norm:
        w = w * (cfg.clip_norm / norm)
    if cfg.dp_sigma > 0:
        w = w + np.array([rng.gauss(0.0, cfg.dp_sigma) for _ in range(len(w))])
    return replace(update, weights=ModelParams(w))


def _derived_seed(*parts: object) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def round_robin_shards(
    dataset: FeederDataset, n_clients: int
) -> list[tuple[ReadingSeries, ...]]:
    """Deal the meters to clients in turn: client i holds meters i, i + n, i + 2n, ..."""
    series = dataset.series
    return [series[i::n_clients] for i in range(n_clients)]


def run_federation(
    clients: Sequence[Sequence[ReadingSeries]],
    cfg: RoundConfig,
    seed: int,
    secure_agg: bool = False,
) -> FederationResult:
    """Execute the round protocol: broadcast, local train, aggregate.

    A client holding two or more series holds its last one out, and each
    round's global MSE is taken on those. A client with no training examples
    never trains and adds nothing to the denominator; if none has any,
    NoTrainingData is raised before round 0. Per round, every training
    client starts from one broadcast model and clips its update if
    cfg.clip_norm is set (then noises it if cfg.dp_sigma > 0); the
    coordinator forms the weighted mean as in the module docstring.
    Per-client RNG is derived from (seed, client_id, round), so scheduling
    order is irrelevant.
    """
    if not clients:
        raise FedLearnError("need at least one client")
    splits = [(shard[:-1], shard[-1:]) if len(shard) > 1 else (shard, ()) for shard in clients]
    X_hold, y_hold = extract_examples([s for _, held in splits for s in held])
    examples = [extract_examples(train) for train, _ in splits]
    trainers = [(f"client-{i:03d}", ex) for i, ex in enumerate(examples) if len(ex[1])]
    if not trainers:
        raise NoTrainingData("no client produced a training update")
    total_n = sum(len(y) for _, (_, y) in trainers)

    global_w = np.zeros(N_FEATURES)
    history: list[RoundMetrics] = []
    for rnd in range(cfg.rounds):
        params = ModelParams(global_w)
        updates = [local_train(ex, params, cfg, client_id) for client_id, ex in trainers]
        if cfg.clip_norm is not None:  # dp_sigma > 0 needs a clip_norm
            updates = [dp_noise_update(
                u, cfg, random.Random(_derived_seed(seed, u.client_id, rnd))) for u in updates]
        vectors = np.stack([u.weights.weights * u.n_samples for u in updates])
        if secure_agg:
            pair_seeds = {(i, j): _derived_seed(seed, rnd, *sorted((a.client_id, b.client_id)))
                          for (i, a), (j, b) in itertools.combinations(enumerate(updates), 2)}
            uploads = masked_uploads(vectors, pair_seeds)
            column_sum = decode_fixed(uploads.sum(axis=0, dtype=np.uint64))
        else:
            column_sum = vectors.sum(axis=0)
        global_w = column_sum / total_n
        mse = float(np.mean((X_hold @ global_w - y_hold) ** 2)) if len(y_hold) else math.nan
        history.append(RoundMetrics(round_index=rnd, mse=mse))

    return FederationResult(final=ModelParams(global_w), history=tuple(history))
