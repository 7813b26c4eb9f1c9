"""Paillier additively homomorphic encryption.

Keys use the standard simplification g = n + 1, which makes
g^m mod n^2 computable as 1 + m*n. Encryption of m with randomizer r is
c = g^m * r^n mod n^2. Multiplying ciphertexts adds plaintexts, and
raising a ciphertext to an integer power multiplies its plaintext, which
together support encrypted aggregation and encrypted billing.

Whoever holds the secret factors p and q of n = pq decrypts mod p^2 and
q^2 and recombines by the Chinese remainder theorem (Paillier, EUROCRYPT
1999, section 7): m = L_p(c^(p-1) mod p^2) * h_p mod p, likewise mod q,
then CRT to mod n, with L_p(u) = (u - 1) / p and
h_p = L_p(g^(p-1) mod p^2)^-1 mod p.

`encrypt` and `bill` take the public key only, so the gateway (which makes
and holds its own keypair) and a meter-side encrypter such as the `he-bill`
CLI encrypt alike. A secret key file stores n, lambda = lcm(p-1, q-1) and
mu = lambda^-1 mod n; `keypair_from_secret` gets p and q back from n and
lambda by Miller's method.

`bill` makes one encryption per bill. The product of encrypt(pub, m_i,
r_i)^k_i over the intervals is encrypt(pub, M, S), with M = sum of k_i * m_i
and S = product of r_i^k_i mod n:

- the g part: (1 + m*n)^k * (1 + m'*n) = 1 + (k*m + m')*n (mod n^2), and
  M < n because check_bill bounds it by the sum of the rates times the
  largest usage;
- the randomizer part: x^n mod n^2 depends only on x mod n, so the product
  of (r_i^n)^k_i is S^n mod n^2.

So `bill` returns the integer that encrypting each interval and folding
with `encrypted_bill` gives, with one `randrange(1, n)` per interval drawn
in interval order; it skips all but one of the exponentiations and all but
one of the coprimality checks. That one is `encrypt`'s, on S, which is a
unit iff every r_i at a nonzero rate is: such an r_i sharing a factor with n
refuses the bill with BadRandomizer, where `draw_randomizer` would have
redrawn it (at 512 bits, about 168 * 2^-255 per 168-interval bill), and an
r_i at rate 0 never enters S and goes unchecked. Whenever no draw shares a
factor with n, the draws and the integer are those of encrypting each
interval with `draw_randomizer`.

Every exponentiation with a secret or large base or exponent (encryption's
r^n; decryption's c^(p-1) and c^(q-1); the Miller-Rabin and Miller's-method
powers of key generation and key loading) goes through `_powmod`, which
calls OpenSSL's BN_mod_exp_mont_consttime: a fixed-window Montgomery
exponentiation whose sequence of multiplications and table reads does not
depend on the exponent's bits. libcrypto is the OpenSSL library that
CPython's `_hashlib` module (behind `hashlib`) links; `_powmod` looks the
BIGNUM calls up through that module's shared object on its first call, so
importing this module loads nothing. Without it (a Python built without
OpenSSL) `_powmod` is builtin `pow`: the same integers, 5 to 10 times
slower. Modular inverses, the fold's powers (public rate gaps as exponents)
and other small public exponents stay on builtin ints.

This is an analytics engine, not a hardened crypto product. Only the
modular exponentiation inside OpenSSL is constant-time. The conversions
between Python ints and BIGNUMs, the CRT recombination, the bill's fold
(whose bases in `bill` are the secret randomizers) and every Python-side
range, gcd and key check run on Python ints, whose arithmetic is not
constant-time. Key sizes below 2048 bits are for tests only.
"""

from __future__ import annotations

import ctypes
import functools
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


class InvalidPublicKey(HeError):
    """g is not n + 1, or key_id is not the digest of n."""


class BillingOverflow(HeError):
    """The rate schedule could push the plaintext bill past the modulus."""


class BadCiphertext(HeError):
    """The value is not a unit mod n^2, so no encryption under the key gives it."""


@dataclass(frozen=True)
class PaillierPublicKey:
    n: int
    g: int
    key_id: str

    def __post_init__(self):
        # encrypt relies on g = n + 1; the key_id names n and nothing else.
        if self.g != self.n + 1 or self.key_id != _key_id(self.n):
            raise InvalidPublicKey("public key needs g = n + 1 and key_id = digest of n")

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

    def check_bill(self, n_usage: int, usage_cap: int, pub: PaillierPublicKey) -> None:
        """Refuse a bill of n_usage intervals of at most usage_cap each: see encrypted_bill."""
        if n_usage != len(self.rates):
            raise LengthMismatch(f"{n_usage} usage intervals vs {len(self.rates)} rates")
        if sum(self.rates) * usage_cap >= pub.n:
            raise BillingOverflow("worst-case bill would wrap the plaintext modulus")


@functools.cache
def _libcrypto():
    """OpenSSL's libcrypto with the calls `_powmod` makes declared, or None.

    The symbols are looked up through `_hashlib`'s shared object, whose
    dependencies include the libcrypto that `hashlib` already uses.
    """
    ptr, num = ctypes.c_void_p, ctypes.c_int
    try:
        import _hashlib

        lib = ctypes.CDLL(_hashlib.__file__)
        for name, restype, argtypes in (
            ("BN_CTX_new", ptr, []),
            ("BN_CTX_free", None, [ptr]),
            ("BN_new", ptr, []),
            ("BN_clear_free", None, [ptr]),
            ("BN_bin2bn", ptr, [ctypes.c_char_p, num, ptr]),
            ("BN_bn2binpad", num, [ptr, ctypes.c_char_p, num]),
            ("BN_mod_exp_mont_consttime", num, [ptr, ptr, ptr, ptr, ptr, ptr]),
        ):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (ImportError, OSError, AttributeError):
        return None
    return lib


def _powmod(base: int, exp: int, mod: int) -> int:
    """pow(base, exp, mod) for an odd mod > 1 and exp >= 0, in OpenSSL's
    constant-time Montgomery exponentiation when libcrypto loads."""
    lib = _libcrypto()
    if lib is None:
        return pow(base, exp, mod)
    ctx = lib.BN_CTX_new()
    nums = [lib.BN_new()]  # the result, then base, exponent and modulus
    try:
        for x in (base % mod, exp, mod):
            raw = x.to_bytes((x.bit_length() + 7) // 8, "big")
            nums.append(lib.BN_bin2bn(raw, len(raw), None))
        out = ctypes.create_string_buffer((mod.bit_length() + 7) // 8)
        if not (ctx and all(nums) and lib.BN_mod_exp_mont_consttime(*nums, ctx, None)
                and lib.BN_bn2binpad(nums[0], out, len(out)) == len(out)):
            raise HeError("OpenSSL modular exponentiation failed")
        return int.from_bytes(out.raw, "big")
    finally:
        for bn in nums:
            lib.BN_clear_free(bn)
        lib.BN_CTX_free(ctx)


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
_MILLER_RABIN_ROUNDS = 40
_PRIME_TRIES = 100_000


def _is_probable_prime(n: int, rng: random.Random) -> bool:
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
    for _ in range(_MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = _powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    for _ in range(_PRIME_TRIES):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate
    raise PrimeGenerationFailure(f"no {bits}-bit prime after {_PRIME_TRIES} tries")


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
        x = _powmod(a, t, n)
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


def draw_randomizer(pub: PaillierPublicKey, rng: random.Random) -> int:
    """Uniform r in [1, n) with gcd(r, n) = 1, by retry."""
    while True:
        r = rng.randrange(1, pub.n)
        if math.gcd(r, pub.n) == 1:
            return r


def _check_plaintext(m: int, pub: PaillierPublicKey) -> None:
    if not 0 <= m < pub.n:
        raise PlaintextOutOfRange(f"plaintext must lie in [0, n), got {m}")


def encrypt(pub: PaillierPublicKey, m: int, r: int) -> Ciphertext:
    """c = g^m * r^n mod n^2 for m in [0, n) and r coprime to n."""
    _check_plaintext(m, pub)
    if not 1 <= r < pub.n or math.gcd(r, pub.n) != 1:
        raise BadRandomizer("randomizer must lie in [1, n) and be coprime to n")
    n_sq = pub.n_squared
    # g = n + 1 always, so g^m = 1 + m*n (mod n^2).
    g_to_m = (1 + m * pub.n) % n_sq
    return Ciphertext(value=g_to_m * _powmod(r, pub.n, n_sq) % n_sq, key_id=pub.key_id)


def decrypt(keypair: PaillierKeypair, c: Ciphertext) -> int:
    """m mod p and mod q (Paillier section 7), recombined to m mod n.

    Every ciphertext, the fold identity 1 included, is a unit mod n^2; any
    other value (0, n, n^2 + 5, a truncated or foreign one) raises
    BadCiphertext instead of decrypting to garbage.
    """
    if c.key_id != keypair.public.key_id:
        raise WrongKey("ciphertext was produced under a different key")
    n = keypair.public.n
    if not 1 <= c.value < n * n or math.gcd(c.value, n) != 1:
        raise BadCiphertext("ciphertext must lie in [1, n^2) and be coprime to n")
    p, q = keypair.p, keypair.q
    m_p = _l_function(_powmod(c.value, p - 1, keypair.p_sq), p) * keypair.hp % p
    m_q = _l_function(_powmod(c.value, q - 1, keypair.q_sq), q) * keypair.hq % q
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


def _fold(values: Sequence[int], rates: Sequence[int], modulus: int) -> int:
    """The product of values[i]^rates[i] mod modulus, folded by rate buckets.

    The buckets follow Pippenger (SIAM J. Comput. 1980): b_k is the product of
    the values at rate k, and with the distinct rates k_1 > ... > k_j and
    k_(j+1) = 0, the product of b_k^k is the product of B_i^(k_i - k_(i+1)),
    where B_i = b_(k_1) * ... * b_(k_i) is a running product. So there is
    one pow per gap between rates, not one per value.
    """
    buckets: dict[int, int] = {}
    for v, k in zip(values, rates):
        buckets[k] = buckets.get(k, 1) * v % modulus
    product = running = 1
    descending = sorted(buckets, reverse=True)
    for k, next_k in zip(descending, descending[1:] + [0]):
        running = running * buckets[k] % modulus
        product = product * pow(running, k - next_k, modulus) % modulus
    return product


def encrypted_bill(
    usage_cts: Sequence[Ciphertext],
    rates: RateSchedule,
    pub: PaillierPublicKey,
    usage_cap: int,
) -> Ciphertext:
    """Encrypted dot product of per-interval usage with the rate schedule.

    Only the folded ciphertext is returned, so the key holder decrypts
    the total bill and never the per-interval breakdown. usage_cap is the
    per-interval plaintext bound: the worst-case bill, usage_cap times the
    sum of the rates, must stay below n or BillingOverflow is raised.

    The value is the product of scalar_mul(c_i, k_i) from 1 (the encryption
    of 0 with r = 1), folded mod n^2 by rate buckets (see _fold).
    """
    rates.check_bill(len(usage_cts), usage_cap, pub)
    if any(c.key_id != pub.key_id for c in usage_cts):
        raise KeyMismatch("ciphertext was produced under a different key")
    value = _fold([c.value for c in usage_cts], rates.rates, pub.n_squared)
    return Ciphertext(value=value, key_id=pub.key_id)


def bill(pub: PaillierPublicKey, usage_milli: Sequence[int], rates: RateSchedule,
         rng: random.Random) -> Ciphertext:
    """encrypted_bill of each interval's usage encrypted under pub, in order.

    The integer is the same, made with one encryption: the product of
    encrypt(pub, m_i, r_i)^k_i is encrypt(pub, M, S) with M the sum of
    k_i * m_i and S the product of r_i^k_i mod n (see the module docstring).
    Each r_i is one `rng.randrange(1, n)`, drawn in interval order, and an
    m_i outside [0, n) is refused right after its draw, as encrypting it
    would be. The one coprimality check is `encrypt`'s, on S: an r_i at a
    nonzero rate that shares a factor with n refuses the bill with
    BadRandomizer instead of being redrawn, and an r_i at rate 0 never
    enters S and is never checked.
    """
    usage_cap = max(usage_milli, default=0)
    rates.check_bill(len(usage_milli), usage_cap, pub)  # before the first draw
    n, draw = pub.n, rng.randrange
    total, randomizers = 0, []
    for m, k in zip(usage_milli, rates.rates):
        randomizers.append(draw(1, n))
        _check_plaintext(m, pub)
        total += k * m
    return encrypt(pub, total, _fold(randomizers, rates.rates, n))
