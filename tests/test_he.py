import random

import pytest
from hypothesis import given, settings, strategies as st

from amiprivacy.he import (
    BadRandomizer,
    BillingOverflow,
    Ciphertext,
    InvalidPrimes,
    InvalidSecretKey,
    KeyMismatch,
    LengthMismatch,
    PaillierPublicKey,
    PlaintextOutOfRange,
    RateSchedule,
    WrongKey,
    add,
    decrypt,
    draw_randomizer,
    encrypt,
    encrypted_aggregate,
    encrypted_bill,
    encryption_of_zero,
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
    def test_plain_sum_oracle(self):
        cts = [enc(2), enc(3), enc(5)]
        assert decrypt(SMALL, encrypted_aggregate(cts, SMALL.public)) == 10

    def test_single_ciphertext(self):
        c = enc(7)
        assert decrypt(SMALL, encrypted_aggregate([c], SMALL.public)) == 7

    def test_empty_is_zero(self):
        assert decrypt(SMALL, encrypted_aggregate([], SMALL.public)) == 0
        assert encryption_of_zero(SMALL.public).value == 1


class TestBilling:
    def test_dot_product_oracle(self):
        usage = [enc(2), enc(3)]
        bill = encrypted_bill(usage, RateSchedule((10, 20)), SMALL.public)
        assert decrypt(SMALL, bill) == 80

    def test_zero_rates(self):
        usage = [enc(2), enc(3)]
        bill = encrypted_bill(usage, RateSchedule((0, 0)), SMALL.public)
        assert decrypt(SMALL, bill) == 0

    def test_unit_rates_reduce_to_aggregate(self):
        usage = [enc(2), enc(3), enc(4)]
        bill = encrypted_bill(usage, RateSchedule((1, 1, 1)), SMALL.public)
        agg = encrypted_aggregate(usage, SMALL.public)
        assert decrypt(SMALL, bill) == decrypt(SMALL, agg)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            encrypted_bill([enc(1)], RateSchedule((1, 2)), SMALL.public)

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


def reference_decrypt(keypair, c):
    """The lambda/mu decryption L(c^lambda mod n^2) * mu mod n, without the CRT."""
    n = keypair.public.n
    return (pow(c.value, keypair.lam, n * n) - 1) // n * keypair.mu % n


def outcome(fn, *args):
    try:
        return fn(*args)
    except (PlaintextOutOfRange, BadRandomizer) as exc:
        return type(exc)


class TestCrt:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CRT_KEYS), st.data())
    def test_keypair_encrypt_is_the_public_encrypt(self, keypair, data):
        n = keypair.public.n
        m = data.draw(st.integers(min_value=0, max_value=n - 1))
        r = data.draw(st.integers(min_value=1, max_value=n - 1).filter(
            lambda r: r % keypair.p and r % keypair.q))
        c = encrypt(keypair, m, r)
        assert c == encrypt(keypair.public, m, r)
        assert decrypt(keypair, c) == m == reference_decrypt(keypair, c)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CRT_KEYS), st.data())
    def test_decrypt_is_the_lambda_mu_formula(self, keypair, data):
        n = keypair.public.n
        value = data.draw(st.integers(min_value=1, max_value=n * n - 1).filter(
            lambda v: v % keypair.p and v % keypair.q))
        c = Ciphertext(value=value, key_id=keypair.public.key_id)
        assert decrypt(keypair, c) == reference_decrypt(keypair, c)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CRT_KEYS), st.data())
    def test_keypair_path_rejects_what_the_public_path_rejects(self, keypair, data):
        n, p, q = keypair.public.n, keypair.p, keypair.q
        edge = st.sampled_from([-1, 0, 1, p, q, 2 * p, n - 1, n, n + 1])
        m = data.draw(st.one_of(edge, st.integers(min_value=-2, max_value=n + 2)))
        r = data.draw(st.one_of(edge, st.integers(min_value=-2, max_value=n + 2)))
        assert outcome(encrypt, keypair, m, r) == outcome(encrypt, keypair.public, m, r)

    @pytest.mark.parametrize("keypair", CRT_KEYS)
    def test_randomizer_sharing_a_factor_rejected(self, keypair):
        for r in (keypair.p, keypair.q):
            for key in (keypair, keypair.public):
                with pytest.raises(BadRandomizer):
                    encrypt(key, 1, r)

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
