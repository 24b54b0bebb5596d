"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional


class ArbolistError(Exception):
    """Base class for every error this library raises on bad input."""


# ``index`` on the next three errors is the position of the offending pair
# in the input of ``from_edge_list``, or None where another call raised it.

class SelfLoopError(ArbolistError):
    def __init__(self, u: int, index: Optional[int] = None):
        super().__init__(f"self loop at vertex {u}")
        self.u = u
        self.index = index


class DuplicateEdgeError(ArbolistError):
    def __init__(self, u: int, v: int, index: Optional[int] = None):
        super().__init__(f"duplicate edge ({u}, {v})")
        self.u = u
        self.v = v
        self.index = index


class VertexOutOfRangeError(ArbolistError):
    def __init__(self, v: int, n: int, index: Optional[int] = None):
        super().__init__(f"vertex {v} out of range for n={n}")
        self.v = v
        self.n = n
        self.index = index


class MissingLabelsError(ArbolistError):
    """The operation needs a part label for every vertex."""


class KTooSmallError(ArbolistError):
    def __init__(self, k: int, minimum: int = 2):
        super().__init__(f"k={k} is below the smallest supported value {minimum}")
        self.k = k


class TooLargeError(ArbolistError):
    """Input exceeds the size guard of a brute-force oracle."""


class NotPrimeError(ArbolistError):
    def __init__(self, q: int):
        super().__init__(f"q={q} is not prime")
        self.q = q


class TooManyEdgesError(ArbolistError):
    def __init__(self, m: int, limit: int):
        super().__init__(f"requested {m} edges but only {limit} distinct pairs exist")
        self.m = m
        self.limit = limit


class NotTripartiteError(ArbolistError):
    """The input graph is not labelled as a proper tripartition."""


class BadSigmaError(ArbolistError):
    def __init__(self, sigma: float):
        super().__init__(f"sigma={sigma} outside the open interval (0, 0.5)")
        self.sigma = sigma


class BadModulusError(ArbolistError):
    """The modulus is not prime or not large enough for the weight range."""


class BadSError(ArbolistError):
    """The bucket count s is outside 1..p, or admits more keys than the
    solver's key table holds."""


class BadEpsilonError(ArbolistError):
    def __init__(self, epsilon: float):
        super().__init__(f"epsilon={epsilon} outside the open interval (0, 1)")
        self.epsilon = epsilon


class ParseError(ArbolistError):
    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno
