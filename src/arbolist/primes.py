"""Primality helpers: deterministic Miller-Rabin on a fixed base set."""

from __future__ import annotations

# The first 13 primes as witnesses decide every n below this bound exactly
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for n below ``EXACT_BELOW``; ValueError above it."""
    if n >= EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {EXACT_BELOW}")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n."""
    c = n + 1
    while not is_prime(c):
        c += 1
    return c
