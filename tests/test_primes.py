import pytest

from arbolist.primes import EXACT_BELOW, is_prime, next_prime_above


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-3, 10 ** 5):
        assert is_prime(n) == trial_division(n), n


def test_known_large_primes():
    for p in (1_000_000_000_039, 9_000_000_000_059, 9_999_999_999_971,
              2 ** 61 - 1):
        assert is_prime(p)
    assert next_prime_above(9 * 10 ** 12) == 9_000_000_000_059
    assert next_prime_above(10 ** 12) == 1_000_000_000_039


def test_carmichael_numbers_and_strong_pseudoprimes_are_composite():
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041,
                  3_215_031_751)
    # Strong pseudoprimes to bases 2..23 (3825...) and 2..37 (3186...):
    # only the later bases expose them.
    strong = (3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461)
    for n in carmichael + strong:
        assert not is_prime(n), n


def test_is_prime_refuses_inputs_past_its_exact_range():
    assert not is_prime(EXACT_BELOW - 1)  # even
    with pytest.raises(ValueError):
        is_prime(EXACT_BELOW)
    with pytest.raises(ValueError):
        next_prime_above(EXACT_BELOW)
