import random

import pytest
from hypothesis import given, settings, strategies as st

from amiprivacy import dp
from amiprivacy.smpc import (
    ABORT_NOT_ENOUGH_PARTICIPANTS,
    MODULUS,
    DuplicateParty,
    InvalidPartyCount,
    PartyInput,
    SumOverflow,
    TranscriptMessage,
    secure_sum,
)


def _inputs(milli_values):
    return [PartyInput(party_id=f"p{i}", secret=v) for i, v in enumerate(milli_values)]


class TestSecureSum:
    def test_plain_sum_oracle(self):
        result = secure_sum(_inputs([3000, 5000, 9000]), 3, random.Random(1))
        assert result.total == 17_000
        assert not result.aborted

    def test_abort_below_threshold(self):
        result = secure_sum(_inputs([1000, 2000]), 3, random.Random(1))
        assert result.aborted
        assert result.total is None
        assert result.transcript.abort_reason == ABORT_NOT_ENOUGH_PARTICIPANTS
        assert len(result.transcript.messages) == 0

    def test_zeros_leave_single_input(self):
        result = secure_sum(_inputs([4200, 0, 0]), 2, random.Random(3))
        assert result.total == 4200

    def test_duplicate_party(self):
        inputs = [PartyInput("p0", 1), PartyInput("p0", 2)]
        with pytest.raises(DuplicateParty):
            secure_sum(inputs, 1, random.Random(0))

    def test_exact_for_random_fixtures(self):
        rng = random.Random(17)
        for n in (3, 5, 10):
            for _ in range(20):
                values = [rng.randrange(0, 5_000_000) for _ in range(n)]
                result = secure_sum(_inputs(values), n, rng)
                assert result.total == sum(values)

    def test_transcript_message_count(self):
        n = 4
        result = secure_sum(_inputs([100] * n), n, random.Random(5))
        # n^2 share deliveries plus n*(n-1) partial-sum broadcasts.
        assert len(result.transcript.messages) == n * n + n * (n - 1)

    def test_transcript_never_contains_raw_secret(self):
        secrets = [3000, 5000, 9000, 12_345]
        result = secure_sum(_inputs(secrets), 4, random.Random(7))
        transmitted = {m.value for m in result.transcript.messages}
        assert not transmitted.intersection(secrets)

    def test_secret_encoding_validated(self):
        with pytest.raises(ValueError):
            PartyInput("p", -1)
        with pytest.raises(ValueError):
            PartyInput("p", MODULUS // 2)

    def test_single_share_is_uniform(self):
        # With two parties, p0's message to p1 is its derived share (the
        # secret minus its draw): chi-square against uniform over 256
        # top-byte buckets in 2e4 runs.
        import scipy.stats

        rng = random.Random(99)
        counts = [0] * 256
        for _ in range(20_000):
            derived = secure_sum(_inputs([123_456, 0]), 2, rng).transcript.messages[1]
            assert (derived.sender, derived.recipient) == ("p0", "p1")
            counts[derived.value >> 56] += 1
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.01


class TestPerPartyBound:
    def test_secrets_that_would_wrap_are_refused(self):
        rng = random.Random(2)
        with pytest.raises(SumOverflow):
            secure_sum(_inputs([2**63 - 1] * 3), 3, rng)

    def test_largest_secrets_below_the_bound_sum_exactly(self):
        for n in (2, 3, 7, 12):
            bound = MODULUS // (2 * n)
            result = secure_sum(_inputs([bound - 1] * n), n, random.Random(n))
            assert result.total == n * (bound - 1)
            with pytest.raises(SumOverflow):
                secure_sum(_inputs([bound - 1] * (n - 1) + [bound]), n, random.Random(n))

    def test_refused_before_any_draw(self):
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(SumOverflow):
            secure_sum(_inputs([1, MODULUS // 4]), 2, rng)
        assert rng.getstate() == state

    def test_a_lone_party_is_refused(self):
        with pytest.raises(InvalidPartyCount):
            secure_sum(_inputs([5]), 1, random.Random(0))


def _check_columnar_transcript(secrets, result):
    n, ids = len(secrets), [f"p{i}" for i in range(len(secrets))]
    assert result.total == sum(secrets)
    messages = result.transcript.messages
    assert len(messages) == 2 * n * n - n
    listed = list(messages)
    assert len(listed) == len(messages)

    deliveries, broadcasts = listed[: n * n], listed[n * n:]
    assert [(m.sender, m.recipient) for m in deliveries] == [(a, b) for a in ids for b in ids]
    for i, secret in enumerate(secrets):
        assert sum(m.value for m in deliveries[i * n:(i + 1) * n]) % MODULUS == secret
    partials = {j: sum(deliveries[i * n + j].value for i in range(n)) % MODULUS
                for j in range(n)}
    assert [(m.sender, m.recipient, m.value) for m in broadcasts] == [
        (a, b, partials[i]) for i, a in enumerate(ids) for b in ids if b != a]
    assert sum(partials.values()) % MODULUS == result.total

    for k in (0, n * n - 1, n * n, len(listed) - 1, -1, -len(listed)):
        assert messages[k] == listed[k]
        assert type(messages[k]) is TranscriptMessage and type(messages[k].value) is int
    for k in (len(listed), -len(listed) - 1):
        with pytest.raises(IndexError):
            messages[k]


class TestColumnarTranscript:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=2**32))
    def test_transcript_layout(self, data, n, seed):
        bound = MODULUS // (2 * n)
        secrets = data.draw(st.lists(st.integers(min_value=0, max_value=bound - 1),
                                     min_size=n, max_size=n))
        result = secure_sum(_inputs(secrets), n, random.Random(seed))
        _check_columnar_transcript(secrets, result)

    def test_with_the_system_generator(self):
        secrets = [3000, 5000, 9000, 12_345, 0]
        result = secure_sum(_inputs(secrets), 5, dp.default_rng())
        _check_columnar_transcript(secrets, result)


@pytest.mark.parametrize("n", [3, 5])
def test_a_transcript_slice_is_a_tuple_of_the_messages(n):
    messages = secure_sum(_inputs(range(100, 100 + n)), n, random.Random(n)).transcript.messages
    listed = tuple(messages)
    m = len(listed)
    for s in (slice(1, 3), slice(None), slice(-4, None), slice(None, -2), slice(-5, -1),
              slice(None, None, 3), slice(1, m, 2), slice(-1, None, -2), slice(m - 2, 0, -3),
              slice(2, 10 * m), slice(3, 3), slice(-10 * m, 2)):
        assert messages[s] == listed[s]
        assert type(messages[s]) is tuple
