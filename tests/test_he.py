import json
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from amiprivacy import he
from amiprivacy.he import (
    BadCiphertext,
    BadRandomizer,
    BillingOverflow,
    Ciphertext,
    InvalidPrimes,
    InvalidPublicKey,
    InvalidSecretKey,
    KeyMismatch,
    LengthMismatch,
    PaillierPublicKey,
    PlaintextOutOfRange,
    RateSchedule,
    WrongKey,
    _powmod,
    add,
    bill,
    decrypt,
    draw_randomizer,
    encrypt,
    encrypted_bill,
    keygen,
    keypair_from_primes,
    keypair_from_secret,
    scalar_mul,
)

SMALL = keypair_from_primes(11, 13)  # n = 143
RNG = random.Random(2024)


def enc(m, keypair=SMALL, r=None):
    return encrypt(keypair.public, m, r if r is not None else draw_randomizer(keypair.public, RNG))


class TestKeygen:
    def test_small_prime_parameters(self):
        assert SMALL.public.n == 143
        assert SMALL.public.g == 144
        assert SMALL.lam == 60

    def test_exhaustive_round_trip_n_143(self):
        for m in range(143):
            for _ in range(3):
                assert decrypt(SMALL, enc(m)) == m

    def test_random_512_bit_round_trip(self):
        keypair = keygen(512, random.Random(5))
        assert keypair.public.n.bit_length() >= 511
        rng = random.Random(6)
        for _ in range(100):
            m = rng.randrange(keypair.public.n)
            c = encrypt(keypair.public, m, draw_randomizer(keypair.public, rng))
            assert decrypt(keypair, c) == m

    def test_equal_primes_rejected(self):
        with pytest.raises(InvalidPrimes):
            keypair_from_primes(13, 13)

    def test_composite_rejected(self):
        with pytest.raises(InvalidPrimes):
            keypair_from_primes(15, 13)

    def test_bits_floor(self):
        with pytest.raises(ValueError):
            keygen(32)


class TestEncrypt:
    def test_zero_plaintext_form(self):
        c = encrypt(SMALL.public, 0, 7)
        assert c.value == pow(7, 143, 143 * 143)
        assert decrypt(SMALL, c) == 0

    def test_fresh_randomizer_changes_ciphertext(self):
        c1 = encrypt(SMALL.public, 42, 5)
        c2 = encrypt(SMALL.public, 42, 9)
        assert c1.value != c2.value
        assert decrypt(SMALL, c1) == decrypt(SMALL, c2) == 42

    def test_plaintext_out_of_range(self):
        with pytest.raises(PlaintextOutOfRange):
            encrypt(SMALL.public, 143, 5)
        with pytest.raises(PlaintextOutOfRange):
            encrypt(SMALL.public, -1, 5)

    def test_bad_randomizer(self):
        with pytest.raises(BadRandomizer):
            encrypt(SMALL.public, 1, 0)
        with pytest.raises(BadRandomizer):
            encrypt(SMALL.public, 1, 11)  # shares a factor with n


class TestDecrypt:
    def test_round_trip_any_valid_r(self):
        for r in (1, 2, 7, 142):
            assert decrypt(SMALL, encrypt(SMALL.public, 42, r)) == 42

    def test_canonical_zero(self):
        assert decrypt(SMALL, encrypt(SMALL.public, 0, 1)) == 0

    def test_wrong_key(self):
        other = keypair_from_primes(17, 19)
        c = enc(5)
        with pytest.raises(WrongKey):
            decrypt(other, c)


class TestHomomorphism:
    def test_add_small(self):
        assert decrypt(SMALL, add(enc(2), enc(3), SMALL.public)) == 5

    def test_add_identity(self):
        for m in (0, 1, 77):
            assert decrypt(SMALL, add(enc(m), enc(0), SMALL.public)) == m

    def test_add_wraps_mod_n(self):
        assert decrypt(SMALL, add(enc(100), enc(50), SMALL.public)) == 7

    def test_scalar_identity_and_zero(self):
        assert decrypt(SMALL, scalar_mul(enc(9), 1, SMALL.public)) == 9
        assert decrypt(SMALL, scalar_mul(enc(9), 0, SMALL.public)) == 0

    def test_scalar_mul(self):
        assert decrypt(SMALL, scalar_mul(enc(3), 4, SMALL.public)) == 12

    def test_negative_scalar_rejected(self):
        with pytest.raises(ValueError):
            scalar_mul(enc(3), -1, SMALL.public)

    def test_key_mismatch(self):
        other = keypair_from_primes(17, 19)
        with pytest.raises(KeyMismatch):
            add(enc(1), enc(1, keypair=other), SMALL.public)
        with pytest.raises(KeyMismatch):
            scalar_mul(enc(1, keypair=other), 2, SMALL.public)

    def test_rerandomization(self):
        c = enc(21, r=5)
        rerandomized = add(c, encrypt(SMALL.public, 0, 9), SMALL.public)
        assert rerandomized.value != c.value
        assert decrypt(SMALL, rerandomized) == 21

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=142),
        st.integers(min_value=0, max_value=142),
        st.integers(min_value=0, max_value=50),
    )
    def test_homomorphism_properties(self, a, b, k):
        assert decrypt(SMALL, add(enc(a), enc(b), SMALL.public)) == (a + b) % 143
        assert decrypt(SMALL, scalar_mul(enc(a), k, SMALL.public)) == (k * a) % 143


class TestAggregate:
    """A bill at unit rates is the encrypted sum of the usage."""

    @staticmethod
    def total(cts):
        return encrypted_bill(cts, RateSchedule((1,) * len(cts)), SMALL.public, usage_cap=10)

    def test_plain_sum_oracle(self):
        assert decrypt(SMALL, self.total([enc(2), enc(3), enc(5)])) == 10

    def test_single_ciphertext(self):
        c = enc(7)
        assert decrypt(SMALL, self.total([c])) == 7
        assert self.total([c]) == c

    def test_empty_is_zero(self):
        assert decrypt(SMALL, self.total([])) == 0
        assert self.total([]) == Ciphertext(value=1, key_id=SMALL.public.key_id)


class TestBilling:
    def test_dot_product_oracle(self):
        usage = [enc(2), enc(3)]
        bill = encrypted_bill(usage, RateSchedule((10, 20)), SMALL.public, usage_cap=3)
        assert decrypt(SMALL, bill) == 80

    def test_zero_rates(self):
        usage = [enc(2), enc(3)]
        bill = encrypted_bill(usage, RateSchedule((0, 0)), SMALL.public, usage_cap=3)
        assert decrypt(SMALL, bill) == 0

    def test_unit_rates_reduce_to_aggregate(self):
        usage = [enc(2), enc(3), enc(4)]
        bill = encrypted_bill(usage, RateSchedule((1, 1, 1)), SMALL.public, usage_cap=4)
        assert bill == add(add(usage[0], usage[1], SMALL.public), usage[2], SMALL.public)
        assert decrypt(SMALL, bill) == 9

    def test_ciphertext_under_another_key_raises_key_mismatch(self):
        usage = [enc(1), enc(2, keypair_from_primes(17, 19))]
        with pytest.raises(KeyMismatch):
            encrypted_bill(usage, RateSchedule((1, 1)), SMALL.public, usage_cap=2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            encrypted_bill([enc(1)], RateSchedule((1, 2)), SMALL.public, usage_cap=1)

    def test_overflow_bound_check(self):
        with pytest.raises(BillingOverflow):
            encrypted_bill([enc(1), enc(1)], RateSchedule((70, 80)), SMALL.public, usage_cap=1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateSchedule((1, -2))


class TestCiphertextHygiene:
    def test_key_id_tracks_key(self):
        other = keypair_from_primes(17, 19)
        assert SMALL.public.key_id != other.public.key_id
        assert enc(1).key_id == SMALL.public.key_id

    def test_secret_fields_not_in_repr(self):
        assert "lam" not in repr(SMALL)
        assert "mu" not in repr(SMALL)


# Keys of the CRT tests: tiny ones hit every edge case, keygen ones are real sizes.
CRT_KEYS = [SMALL, keypair_from_primes(17, 19), keygen(128, random.Random(31)),
            keygen(512, random.Random(32))]


def reference_bill(usage_cts, rates, pub):
    """Every scalar_mul term first, then the terms folded with add from the value 1."""
    terms = [scalar_mul(c, k, pub) for c, k in zip(usage_cts, rates)]
    bill = Ciphertext(value=1, key_id=pub.key_id)
    for term in terms:
        bill = add(bill, term, pub)
    return bill


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([SMALL, CRT_KEYS[2]]), st.data())
def test_bill_is_the_scalar_mul_terms_folded_with_add(keypair, data):
    pub = keypair.public
    small = pub.n == 143  # keeps usage_cap * sum(rates) below n = 143
    usage_cap = data.draw(st.integers(0, 11 if small else 2**40))
    rates = data.draw(st.lists(st.integers(0, 3 if small else 2**40), max_size=4))
    randomizers = st.integers(1, pub.n - 1).filter(lambda r: r % keypair.p and r % keypair.q)
    usage_cts = [encrypt(pub, data.draw(st.integers(0, usage_cap)), data.draw(randomizers))
                 for _ in rates]
    bill = encrypted_bill(usage_cts, RateSchedule(tuple(rates)), pub, usage_cap)
    assert bill == reference_bill(usage_cts, rates, pub)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([SMALL, CRT_KEYS[2]]), st.integers(0, 2**32), st.data())
def test_bill_checks_then_encrypts_each_interval_in_order_then_folds(keypair, seed, data):
    pub = keypair.public
    small = pub.n == 143  # keeps usage_cap * sum(rates) below n = 143
    rates = RateSchedule(tuple(data.draw(st.lists(st.integers(0, 3 if small else 2**40),
                                                  max_size=4))))
    usage = data.draw(st.lists(st.integers(0, 11 if small else 2**40),
                               min_size=len(rates.rates), max_size=len(rates.rates)))
    rng = random.Random(seed)
    usage_cap = max(usage, default=0)
    rates.check_bill(len(usage), usage_cap, pub)
    draws = [rng.randrange(1, pub.n) for _ in usage]
    if any(k and math.gcd(r, pub.n) != 1 for r, k in zip(draws, rates.rates)):
        with pytest.raises(BadRandomizer):  # n = 143: one draw in seven shares a factor
            bill(pub, usage, rates, random.Random(seed))
        return
    # A rate-0 interval's ciphertext never enters the fold, so its draw is never checked.
    cts = [encrypt(pub, m, r if k else 1) for m, r, k in zip(usage, draws, rates.rates)]
    expected = encrypted_bill(cts, rates, pub, usage_cap)
    assert bill(pub, usage, rates, random.Random(seed)) == expected
    assert decrypt(keypair, expected) == sum(m * k for m, k in zip(usage, rates.rates))


class NoDraws(random.Random):
    def randrange(self, *args):
        raise AssertionError("a refused bill drew a randomizer")


@pytest.mark.parametrize("usage, rates, error", [
    ((1, 1), (1,), LengthMismatch), ((1, 1), (70, 80), BillingOverflow),
])
def test_bill_is_refused_before_any_randomizer_is_drawn(usage, rates, error):
    with pytest.raises(error):
        bill(SMALL.public, usage, RateSchedule(rates), NoDraws())


BILL_KEY = CRT_KEYS[2]  # keygen(128, Random(31)): a dozen rates up to 2**40 cannot wrap


# bill makes one encryption of the whole bill; the reference encrypts every
# interval and folds the ciphertexts.
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32),
       st.lists(st.tuples(st.integers(0, 2**40), st.sampled_from([0, 1, 2, 7, 2**20, 2**40])),
                max_size=12))
@example(seed=1, intervals=[])
@example(seed=2, intervals=[(5, 0), (9, 0)])
@example(seed=3, intervals=[(5, 3), (9, 3), (2, 0), (4, 3), (6, 1)])
def test_bill_is_one_encryption_of_the_per_interval_fold(seed, intervals):
    pub = BILL_KEY.public
    usage = [m for m, _ in intervals]
    rates = RateSchedule(tuple(k for _, k in intervals))
    rng, reference_rng = random.Random(seed), random.Random(seed)
    cts = [encrypt(pub, m, draw_randomizer(pub, reference_rng)) for m in usage]
    expected = encrypted_bill(cts, rates, pub, max(usage, default=0))
    assert bill(pub, usage, rates, rng) == expected
    assert rng.getstate() == reference_rng.getstate()


class ScriptedDraws:
    """An rng whose randrange returns the given values in turn and records its calls."""

    def __init__(self, values):
        self.values, self.calls = list(values), []

    def randrange(self, *args):
        self.calls.append(args)
        return self.values.pop(0)


TINY_KEY = keygen(64, random.Random(30))


@pytest.mark.parametrize("rates, factor_at, refused", [
    ((3, 1, 2), 0, True), ((3, 1, 2), 2, True), ((3, 0, 2), 1, False), ((0,), 0, False),
])
def test_bill_checks_coprimality_once_on_the_folded_randomizer(rates, factor_at, refused):
    keypair = TINY_KEY
    pub = keypair.public
    usage = [5, 7, 11][:len(rates)]
    draws = [pub.n - 2, 3, 12345][:len(rates)]  # units: the primes of n are odd and 32-bit
    draws[factor_at] = keypair.p * (factor_at + 1)
    rng = ScriptedDraws(draws)
    if refused:
        with pytest.raises(BadRandomizer):
            bill(pub, usage, RateSchedule(rates), rng)
    else:
        # The rate-0 draw never enters the ciphertext, so it is never checked.
        assert decrypt(keypair, bill(pub, usage, RateSchedule(rates), rng)) == sum(
            m * k for m, k in zip(usage, rates))
    assert rng.calls == [(1, pub.n)] * len(rates) and rng.values == []


@pytest.mark.parametrize("usage, rates, j", [
    ((3, 4, -1, 5), (1, 2, 3, 4), 2),
    ((-1,), (1,), 0),
    ((0, 1, BILL_KEY.public.n, 2), (0, 0, 0, 0), 2),  # passes check_bill: every rate is 0
], ids=["negative-at-2", "negative-at-0", "n-at-2-all-rates-0"])
def test_bill_refuses_a_plaintext_out_of_range_right_after_its_draw(usage, rates, j):
    pub = BILL_KEY.public
    rng, reference_rng = random.Random(8), random.Random(8)
    with pytest.raises(PlaintextOutOfRange):
        bill(pub, usage, RateSchedule(rates), rng)
    for _ in range(j + 1):
        draw_randomizer(pub, reference_rng)
    assert rng.getstate() == reference_rng.getstate()


def reference_decrypt(keypair, c):
    """The lambda/mu decryption L(c^lambda mod n^2) * mu mod n, without the CRT."""
    n = keypair.public.n
    return (pow(c.value, keypair.lam, n * n) - 1) // n * keypair.mu % n


class TestCrt:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CRT_KEYS), st.data())
    def test_decrypt_is_the_lambda_mu_formula(self, keypair, data):
        n = keypair.public.n
        value = data.draw(st.integers(min_value=1, max_value=n * n - 1).filter(
            lambda v: v % keypair.p and v % keypair.q))
        c = Ciphertext(value=value, key_id=keypair.public.key_id)
        assert decrypt(keypair, c) == reference_decrypt(keypair, c)

    @pytest.mark.parametrize("keypair", CRT_KEYS)
    def test_randomizer_sharing_a_factor_rejected(self, keypair):
        for r in (keypair.p, keypair.q):
            with pytest.raises(BadRandomizer):
                encrypt(keypair.public, 1, r)

    @pytest.mark.parametrize("keypair", CRT_KEYS)
    def test_secret_factors_not_in_repr(self, keypair):
        assert repr(keypair) == f"PaillierKeypair(public={keypair.public!r})"
        if keypair.public.n.bit_length() >= 128:
            assert str(keypair.p) not in repr(keypair)
            assert str(keypair.q) not in repr(keypair)


class TestKeypairFromSecret:
    @pytest.mark.parametrize("keypair", CRT_KEYS)
    def test_recovers_the_factors(self, keypair):
        pub = keypair.public
        rebuilt = keypair_from_secret(pub.n, keypair.lam, keypair.mu, pub.key_id)
        assert {rebuilt.p, rebuilt.q} == {keypair.p, keypair.q}
        assert (rebuilt.public, rebuilt.lam, rebuilt.mu) == (pub, keypair.lam, keypair.mu)

    def test_mu_matches_the_stored_formula(self):
        for keypair in CRT_KEYS:
            n = keypair.public.n
            g_lam = pow(keypair.public.g, keypair.lam, n * n)
            assert keypair.mu == pow((g_lam - 1) // n, -1, n)

    @pytest.mark.parametrize("change", [
        {"lam": lambda k: k.lam + 2},  # not a multiple of the group exponent
        {"lam": lambda k: 2 * k.lam},  # a multiple: splits n, but not the stored lambda
        {"lam": lambda k: 0},
        {"mu": lambda k: k.mu + 1},
        {"n": lambda k: k.public.n + 2},
        {"key_id": lambda k: "0" * 16},
    ])
    def test_inconsistent_secret_rejected(self, change):
        keypair = CRT_KEYS[3]
        fields = {"n": keypair.public.n, "lam": keypair.lam, "mu": keypair.mu,
                  "key_id": keypair.public.key_id}
        for name, fn in change.items():
            fields[name] = fn(keypair)
        with pytest.raises(InvalidSecretKey):
            keypair_from_secret(**fields)


def test_keygen_draws_the_same_primes_from_its_rng():
    # Values from keygen before it stopped re-testing its primes: a seeded
    # gateway must keep making the same key and leave its rng where it did.
    rng = random.Random(31)
    keypair = keygen(128, rng)
    assert keypair.public.n == 139050774322062516671439730761209496673
    assert keypair.lam == 11587564526838543053969776539977605380
    assert rng.random() == 0.34561164153388146


class TestBadCiphertext:
    KEY = keygen(128, random.Random(44))

    @pytest.mark.parametrize("value", [
        lambda n: 0, lambda n: n, lambda n: n * n + 5, lambda n: n * n, lambda n: -1,
    ])
    def test_non_units_rejected(self, value):
        n = self.KEY.public.n
        with pytest.raises(BadCiphertext):
            decrypt(self.KEY, Ciphertext(value=value(n), key_id=self.KEY.public.key_id))

    def test_value_sharing_a_factor_rejected(self):
        for value in (SMALL.p, SMALL.q * 7, 143 * 143 - SMALL.p):
            with pytest.raises(BadCiphertext):
                decrypt(SMALL, Ciphertext(value=value, key_id=SMALL.public.key_id))

    def test_fold_identity_and_largest_unit_accepted(self):
        assert decrypt(SMALL, Ciphertext(value=1, key_id=SMALL.public.key_id)) == 0
        c = Ciphertext(value=143 * 143 - 1, key_id=SMALL.public.key_id)
        assert decrypt(SMALL, c) == reference_decrypt(SMALL, c)


@pytest.mark.parametrize("g, key_id", [(7, None), (None, "deadbeefdeadbeef")])
def test_public_key_needs_g_n_plus_1_and_the_key_id_of_n(g, key_id):
    pub = SMALL.public
    assert PaillierPublicKey(n=pub.n, g=pub.g, key_id=pub.key_id) == pub
    with pytest.raises(InvalidPublicKey):
        PaillierPublicKey(n=pub.n, g=g or pub.g, key_id=key_id or pub.key_id)


# --- _powmod: OpenSSL's constant-time exponentiation, or builtin pow ---

def _of_bit_length(low, high):
    """Integers whose bit length is drawn first, so large sizes are not rare (0 has length 0)."""
    return st.integers(low, high).flatmap(lambda b: st.integers(2 ** (b - 1) if b else 0, 2**b - 1))


_M4096 = 2**4096 - 2**1000 + 1


@settings(max_examples=100, deadline=None)
@given(_of_bit_length(2, 4096).map(lambda m: m | 1).flatmap(lambda m: st.tuples(
    st.just(m),
    st.one_of(st.sampled_from([0, 1, m, m + 1]), st.integers(m, 2**4100), st.integers(0, m - 1)),
    _of_bit_length(0, 4096),
)))
@example((3, 0, 0))
@example((3, 1, 1))
@example((3, 7, 1))
@example((_M4096, _M4096 + 5, 1))
@example((_M4096, 2**4099 + 3, 2**4096 - 1))
@example((_M4096, 0, 2**4095))
def test_powmod_is_builtin_pow(args):
    mod, base, exp = args
    assert _powmod(base, exp, mod) == pow(base, exp, mod)


def test_powmod_from_four_threads_gives_every_result():
    rng = random.Random(41)
    jobs = [[(rng.getrandbits(600), rng.getrandbits(256), rng.getrandbits(512) | 1 << 511 | 1)
             for _ in range(200)] for _ in range(4)]
    expected = [[pow(*job) for job in thread_jobs] for thread_jobs in jobs]
    results = [None] * 4

    def work(i):
        results[i] = [_powmod(*job) for job in jobs[i]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected


def test_builtin_pow_fallback_gives_the_same_integers(monkeypatch):
    keypair = CRT_KEYS[3]  # keygen(512, Random(32))
    rng = random.Random(42)
    usage = [rng.randrange(5000) for _ in range(168)]
    rates = RateSchedule(tuple(rng.randrange(1, 300) for _ in range(168)))

    def outputs():
        return bill(keypair.public, usage, rates, random.Random(43)), keygen(128, random.Random(31))

    openssl = outputs()
    monkeypatch.setattr(he, "_libcrypto", lambda: None)
    assert outputs() == openssl
    assert openssl[1].public.n == 139050774322062516671439730761209496673


def test_importing_and_serving_without_billing_leaves_libcrypto_unloaded(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "readings.csv").write_text(
        "meter_id,timestamp,kwh\nm1,2024-01-01T00:00:00Z,1.500\nm2,2024-01-01T00:00:00Z,0.250\n")
    (tmp_path / "policy.conf").write_text("epsilon_cap = 1.0\n")
    requests = "".join(
        json.dumps({"request_id": rid, "requester": "ops", "purpose": "primary",
                    "consent": False, "operation": op}) + "\n"
        for rid, op in [("r1", {"kind": "raw_export"}),
                        ("r2", {"kind": "dp_query", "op": "count", "epsilon": 0.5})])
    script = """if True:
        import sys
        from amiprivacy import he
        from amiprivacy.cli import audit_show_main, gateway_main
        assert gateway_main(["serve", "--policy", "policy.conf", "--data", "data", "--seed", "5",
                             "--audit-log", "audit.jsonl"]) == 0
        assert audit_show_main(["--log", "audit.jsonl", "--verify"]) == 0
        assert "ctypes.util" not in sys.modules
        assert he._libcrypto.cache_info().misses == 0, "libcrypto was loaded"
        he._powmod(3, 5, 7)  # the probe sees a load
        assert he._libcrypto.cache_info().misses == 1
    """
    env = {**os.environ, "PYTHONPATH": str(Path(he.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], input=requests, cwd=tmp_path, env=env,
                         text=True, capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "chain=valid"


# --- the rate-bucketed fold against reference_bill ---

FOLD_KEY = CRT_KEYS[2]  # keygen(128, Random(31)): with 128 bits, rates near 2**40 cannot wrap


@pytest.mark.parametrize("rates", [
    (5, 5, 5, 2, 2, 9, 5),  # repeated rates share a bucket
    (0, 3, 0, 0, 7),  # rate-0 buckets contribute the identity
    (0, 0, 0),
    (2**40, 1, 2**40 + 7, 0, 3),  # gaps between distinct rates reach 2**40
    (1, 2**40, 1),
], ids=["repeated", "rate-0", "all-0", "gaps-2**40", "one-gap-2**40"])
def test_bucketed_fold_is_the_reference_bill(rates):
    pub = FOLD_KEY.public
    rng = random.Random(sum(rates))
    usage = [rng.randrange(100) for _ in rates]
    usage_cts = [encrypt(pub, m, draw_randomizer(pub, rng)) for m in usage]
    folded = encrypted_bill(usage_cts, RateSchedule(rates), pub, usage_cap=99)
    assert folded == reference_bill(usage_cts, rates, pub)
    assert decrypt(FOLD_KEY, folded) == sum(m * k for m, k in zip(usage, rates))


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("rates", [(3, 0, 5, 3, 1), (0, 0, 0, 0, 0), (2, 7, 1, 9, 0)])
def test_bucketed_fold_refuses_a_foreign_ciphertext_at_any_rate(position, rates):
    pub = FOLD_KEY.public
    usage_cts = [encrypt(pub, i, 1) for i in range(len(rates))]
    usage_cts[position] = enc(1, keypair_from_primes(17, 19))
    with pytest.raises(KeyMismatch):
        encrypted_bill(usage_cts, RateSchedule(rates), pub, usage_cap=4)
