"""Paillier additively homomorphic encryption.

Keys use the standard simplification g = n + 1, which makes
g^m mod n^2 computable as 1 + m*n. Encryption of m with randomizer r is
c = g^m * r^n mod n^2. Multiplying ciphertexts adds plaintexts, and
raising a ciphertext to an integer power multiplies its plaintext, which
together support encrypted aggregation and encrypted billing.

Whoever holds the secret factors p and q of n = pq works mod p^2 and q^2
and recombines by the Chinese remainder theorem (Paillier, EUROCRYPT 1999,
section 7):

- encrypt: because p divides n, r^n mod p^2 depends only on r mod p and
  equals (r^q mod p)^p mod p^2; likewise r^n mod q^2 = (r^p mod q)^q mod q^2.
  Each half is two half-size exponents to a half-size modulus instead of
  one full-size exponent to n^2, and the ciphertext is the same integer as
  the public-key path gives for the same r.
- decrypt: m = L_p(c^(p-1) mod p^2) * h_p mod p, likewise mod q, then CRT
  to mod n, with L_p(u) = (u - 1) / p and
  h_p = L_p(g^(p-1) mod p^2)^-1 mod p.

`encrypt` takes the faster path when given a `PaillierKeypair` and the
public one when given a `PaillierPublicKey`, so the gateway (which makes
and holds its own keypair) uses the former and a meter-side encrypter such
as the `he-bill` CLI, which has only the public key, the latter. Every
decryption uses the CRT. A secret key file stores n, lambda = lcm(p-1, q-1)
and mu = lambda^-1 mod n; `keypair_from_secret` gets p and q back from n and
lambda by Miller's method.

This is an analytics engine, not a hardened crypto product: big-integer
arithmetic is not constant-time, and key sizes below 2048 bits are for
tests only.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Sequence


class HeError(Exception):
    pass


class PlaintextOutOfRange(HeError):
    pass


class BadRandomizer(HeError):
    pass


class WrongKey(HeError):
    pass


class KeyMismatch(HeError):
    pass


class LengthMismatch(HeError):
    pass


class PrimeGenerationFailure(HeError):
    pass


class InvalidPrimes(HeError):
    pass


class InvalidSecretKey(HeError):
    """A stored secret key does not factor its n or disagrees with itself."""


class BillingOverflow(HeError):
    """The rate schedule could push the plaintext bill past the modulus."""


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int
    g: int
    key_id: str

    @property
    def n_squared(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class PaillierKeypair:
    """The public key, the secret factors of n and what is derived from them.

    Built by keygen, keypair_from_primes or keypair_from_secret; no secret
    field appears in repr.
    """

    public: PaillierPublicKey
    lam: int = field(repr=False)  # lcm(p-1, q-1)
    mu: int = field(repr=False)  # lam^-1 mod n
    p: int = field(repr=False)
    q: int = field(repr=False)
    p_sq: int = field(repr=False)
    q_sq: int = field(repr=False)
    hp: int = field(repr=False)  # L_p(g^(p-1) mod p^2)^-1 mod p
    hq: int = field(repr=False)  # L_q(g^(q-1) mod q^2)^-1 mod q
    p_inv_q: int = field(repr=False)  # p^-1 mod q: CRT from (mod p, mod q) to mod n
    p_sq_inv_q_sq: int = field(repr=False)  # p^-2 mod q^2: CRT to mod n^2


@dataclass(frozen=True)
class Ciphertext:
    value: int
    key_id: str


@dataclass(frozen=True)
class RateSchedule:
    """Per-interval rates in micro-currency units per milli-kWh."""

    rates: tuple[int, ...]

    def __post_init__(self):
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be non-negative")


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 40) -> bool:
    """Miller-Rabin with rng-chosen bases."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random, max_tries: int = 100_000) -> int:
    for _ in range(max_tries):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise PrimeGenerationFailure(f"no {bits}-bit prime after {max_tries} tries")


def _key_id(n: int) -> str:
    return hashlib.sha256(str(n).encode()).hexdigest()[:16]


def _l_function(u: int, d: int) -> int:
    return (u - 1) // d


def _assemble(p: int, q: int) -> PaillierKeypair:
    """The keypair of distinct primes p, q with gcd(pq, (p-1)(q-1)) = 1.

    Checks nothing: every caller has checked p and q its own way.
    """
    n = p * q
    g = n + 1
    lam = math.lcm(p - 1, q - 1)
    p_sq, q_sq = p * p, q * q
    return PaillierKeypair(
        public=PaillierPublicKey(n=n, g=g, key_id=_key_id(n)),
        lam=lam,
        # L(g^lam mod n^2) = lam mod n, since g^lam = 1 + lam*n (mod n^2).
        mu=pow(lam, -1, n),
        p=p,
        q=q,
        p_sq=p_sq,
        q_sq=q_sq,
        # g^(p-1) = 1 + (p-1)*n (mod p^2), so L_p of it is (p-1)*q = -q (mod p).
        hp=pow(-q, -1, p),
        hq=pow(-p, -1, q),
        p_inv_q=pow(p, -1, q),
        p_sq_inv_q_sq=pow(p_sq, -1, q_sq),
    )


def keypair_from_primes(p: int, q: int) -> PaillierKeypair:
    """Assemble a keypair from given primes (test builds)."""
    rng = random.Random(0)
    if p == q:
        raise InvalidPrimes("p and q must be distinct")
    if not (_is_probable_prime(p, rng) and _is_probable_prime(q, rng)):
        raise InvalidPrimes("p and q must both be prime")
    if math.gcd(p * q, (p - 1) * (q - 1)) != 1:
        raise InvalidPrimes("gcd(n, (p-1)(q-1)) must be 1")
    return _assemble(p, q)


def keygen(bits: int, rng: random.Random | None = None) -> PaillierKeypair:
    """Generate a keypair with an n of roughly `bits` bits.

    bits >= 64 is the test-scale floor; use 2048 for anything real.
    """
    if bits < 64:
        raise ValueError("bits must be >= 64")
    rng = rng or random.SystemRandom()
    half = bits // 2
    for _ in range(100):
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p != q and math.gcd(p * q, (p - 1) * (q - 1)) == 1:
            return _assemble(p, q)
    raise PrimeGenerationFailure("could not assemble a valid keypair")


_SPLIT_BASES = 64  # a true lambda fails to split n for each base with probability <= 1/2


def _split(n: int, lam: int) -> int:
    """A nontrivial factor of n, found from lam = lcm(p-1, q-1) by Miller's method.

    Writes lam = 2^s * t with t odd. For a base a coprime to n, a^lam = 1
    (mod n); the last value before 1 in a^t, a^2t, ..., a^lam is a square
    root x of 1, and when x is not -1, gcd(x - 1, n) is p or q.
    """
    if n < 3 or lam < 1:
        raise InvalidSecretKey("n and lambda must be positive")
    s, t = 0, lam
    while t % 2 == 0:
        t //= 2
        s += 1
    for a in range(2, min(n, 2 + _SPLIT_BASES)):
        d = math.gcd(a, n)
        if d != 1:
            return d
        x = pow(a, t, n)
        if x == 1:
            continue
        for _ in range(s):
            y = x * x % n
            if y == 1:
                break
            x = y
        else:
            raise InvalidSecretKey("lambda is not a multiple of the order of every unit mod n")
        if x != n - 1:
            return math.gcd(x - 1, n)
    raise InvalidSecretKey(f"lambda did not split n within {_SPLIT_BASES} bases")


def keypair_from_secret(n: int, lam: int, mu: int, key_id: str) -> PaillierKeypair:
    """Rebuild a keypair from a stored secret key {n, lambda, mu, key_id}.

    p and q = n / p come back from n and lambda (p is a gcd with n, so
    p*q = n); key_id, lambda and mu must match what n, p and q give, or
    InvalidSecretKey is raised.
    """
    if key_id != _key_id(n):
        raise InvalidSecretKey("key_id does not match n")
    p = _split(n, lam)
    keypair = _assemble(p, n // p)
    if keypair.lam != lam or keypair.mu != mu:
        raise InvalidSecretKey("lambda or mu does not match the factors of n")
    return keypair


def draw_randomizer(pub: PaillierPublicKey, rng: random.Random | None = None) -> int:
    """Uniform r in [1, n) with gcd(r, n) = 1, by retry."""
    rng = rng or random.SystemRandom()
    while True:
        r = rng.randrange(1, pub.n)
        if math.gcd(r, pub.n) == 1:
            return r


def encrypt(key: PaillierPublicKey | PaillierKeypair, m: int, r: int) -> Ciphertext:
    """c = g^m * r^n mod n^2 for m in [0, n) and r coprime to n.

    Given the keypair, r^n is computed mod p^2 and q^2 and recombined; the
    ciphertext is the same integer either way.
    """
    pub = key.public if isinstance(key, PaillierKeypair) else key
    if not 0 <= m < pub.n:
        raise PlaintextOutOfRange(f"plaintext must lie in [0, n), got {m}")
    if not 1 <= r < pub.n or math.gcd(r, pub.n) != 1:
        raise BadRandomizer("randomizer must lie in [1, n) and be coprime to n")
    n_sq = pub.n_squared
    if isinstance(key, PaillierKeypair):
        r_p = pow(pow(r, key.q, key.p), key.p, key.p_sq)  # r^n mod p^2
        r_q = pow(pow(r, key.p, key.q), key.q, key.q_sq)  # r^n mod q^2
        r_to_n = r_p + (r_q - r_p) * key.p_sq_inv_q_sq % key.q_sq * key.p_sq
    else:
        r_to_n = pow(r, pub.n, n_sq)
    # g = n + 1 always, so g^m = 1 + m*n (mod n^2).
    g_to_m = (1 + m * pub.n) % n_sq
    return Ciphertext(value=g_to_m * r_to_n % n_sq, key_id=pub.key_id)


def decrypt(keypair: PaillierKeypair, c: Ciphertext) -> int:
    """m mod p and mod q (Paillier section 7), recombined to m mod n."""
    if c.key_id != keypair.public.key_id:
        raise WrongKey("ciphertext was produced under a different key")
    p, q = keypair.p, keypair.q
    m_p = _l_function(pow(c.value, p - 1, keypair.p_sq), p) * keypair.hp % p
    m_q = _l_function(pow(c.value, q - 1, keypair.q_sq), q) * keypair.hq % q
    return m_p + (m_q - m_p) * keypair.p_inv_q % q * p


def add(c1: Ciphertext, c2: Ciphertext, pub: PaillierPublicKey) -> Ciphertext:
    """Ciphertext product = plaintext sum (mod n)."""
    if c1.key_id != c2.key_id or c1.key_id != pub.key_id:
        raise KeyMismatch("ciphertexts must share one key")
    return Ciphertext(value=c1.value * c2.value % pub.n_squared, key_id=pub.key_id)


def scalar_mul(c: Ciphertext, k: int, pub: PaillierPublicKey) -> Ciphertext:
    """Ciphertext power = plaintext scalar multiple: decrypts to k*m mod n."""
    if c.key_id != pub.key_id:
        raise KeyMismatch("ciphertext was produced under a different key")
    if k < 0:
        raise ValueError("scalar must be non-negative")
    return Ciphertext(value=pow(c.value, k, pub.n_squared), key_id=pub.key_id)


def encryption_of_zero(pub: PaillierPublicKey) -> Ciphertext:
    """Canonical encryption of 0 with r = 1 (the fold identity)."""
    return Ciphertext(value=1, key_id=pub.key_id)


def encrypted_aggregate(cts: Sequence[Ciphertext], pub: PaillierPublicKey) -> Ciphertext:
    """Fold of homomorphic addition; exact as long as the plaintext sum < n."""
    result = encryption_of_zero(pub)
    for c in cts:
        result = add(result, c, pub)
    return result


def encrypted_bill(
    usage_cts: Sequence[Ciphertext],
    rates: RateSchedule,
    pub: PaillierPublicKey,
    usage_cap: int | None = None,
) -> Ciphertext:
    """Encrypted dot product of per-interval usage with the rate schedule.

    Only the folded ciphertext is returned, so the key holder decrypts
    the total bill and never the per-interval breakdown. If usage_cap is
    supplied (the declared per-interval plaintext bound), the worst-case
    bill is checked against the modulus up front.
    """
    if len(usage_cts) != len(rates.rates):
        raise LengthMismatch(
            f"{len(usage_cts)} usage ciphertexts vs {len(rates.rates)} rates"
        )
    if usage_cap is not None and sum(rates.rates) * usage_cap >= pub.n:
        raise BillingOverflow("worst-case bill would wrap the plaintext modulus")
    terms = [scalar_mul(c, k, pub) for c, k in zip(usage_cts, rates.rates)]
    return encrypted_aggregate(terms, pub)
