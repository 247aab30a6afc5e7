"""Integer lattice foundation for planar self-affine digit systems.

Everything downstream works in (v, Av)-coordinates: the pair (l, k) stands
for the lattice vector l*v + k*Av, where A is a 2x2 integer matrix with
characteristic polynomial x^2 + p*x + q and v is a vector making (v, Av) a
basis of the lattice it spans.  In these coordinates the action of A is the
companion matrix [[0, -q], [1, -p]], so no concrete matrix entries are ever
needed; a digit system is fully described by (p, q) and a list of (l, k)
pairs.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Iterable, NamedTuple

# Most digit pairs a difference set may come from (about 141 digits).  It
# bounds the memory of a difference set, not the time to decide on it; this
# timing is for compact digit sets only: under x^2+x+3, 141 digits make 9870
# pairs, whose edge graph takes 0.04-0.07 s on the first 141 cells of a
# 12x12 grid and 0.06-0.07 s with the grid spread to steps (3, 5): five fresh
# processes each, 2-vCPU Xeon, CPython 3.11.  A largest set holds
# 2 * MAX_DIGIT_PAIRS + 1 vectors, the budget of _graded_differences' cache.
MAX_DIGIT_PAIRS = 10_000


class LatticeVec(NamedTuple):
    """Lattice point l*v + k*Av, stored as its coordinate pair."""

    l: int
    k: int

    def __neg__(self) -> "LatticeVec":
        return LatticeVec(-self.l, -self.k)

    def __add__(self, other) -> "LatticeVec":
        return LatticeVec(self.l + other[0], self.k + other[1])

    def __sub__(self, other) -> "LatticeVec":
        return LatticeVec(self.l - other[0], self.k - other[1])

    def __str__(self) -> str:
        return f"({self.l},{self.k})"


class _Coefficients(NamedTuple):
    p: int
    q: int


class CharPoly(_Coefficients):
    """Monic quadratic x^2 + p*x + q with integer coefficients, q != 0.

    A tuple of (p, q), so hashing it and reading p and q run in C.  A
    coefficient that is not an integer (a float, a string) raises TypeError."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "CharPoly":
        if q == 0:
            raise ValueError("q must be nonzero (the matrix must be invertible)")
        return super().__new__(cls, index(p), index(q))

    @property
    def discriminant(self) -> int:
        return self.p * self.p - 4 * self.q

    def __str__(self) -> str:
        if self.p == 0:
            middle = ""
        elif self.p == 1:
            middle = "+x"
        elif self.p == -1:
            middle = "-x"
        else:
            middle = f"{self.p:+d}x"
        return f"x^2{middle}{self.q:+d}"


def coord_action(poly: CharPoly, vec) -> tuple[int, int]:
    """A applied to the vector with coordinates vec = (l, k).

    By Cayley-Hamilton A*(Av) = -q*v - p*Av, so A sends (l, k) to
    (-q*k, l - p*k).
    """
    l, k = vec
    return (-poly.q * k, l - poly.p * k)


def adj_action(poly: CharPoly, vec) -> tuple[int, int]:
    """adj(A) applied to (l, k): adj(A) = q * A^{-1} = [[-p, q], [-1, 0]].

    Powers of A^{-1} are powers of adj(A) over powers of q, so the inverse
    action stays in integer numerators.
    """
    l, k = vec
    return (-poly.p * l + poly.q * k, -l)


def is_expanding(poly: CharPoly) -> bool:
    """True iff both roots have modulus strictly above 1: |q| > 1 and |p| < |q + 1|.

    Exact on the integers: the roots of x^2 + p*x + q lie outside the unit
    circle iff those of its reciprocal q*y^2 + p*y + 1 lie inside it, and
    the two inequalities are the Schur-Cohn conditions for that."""
    p, q = poly
    return abs(q) > 1 and abs(p) < abs(q + 1)


def enumerate_expanding(det_abs: int) -> list[CharPoly]:
    """All expanding x^2 + p*x + q with |q| == det_abs (each has |p| <= |q|), by (q, p)."""
    if det_abs < 1:
        raise ValueError("det_abs must be positive")
    return [poly for q in (-det_abs, det_abs) for p in range(-det_abs, det_abs + 1)
            if is_expanding(poly := CharPoly(p, q))]


def _as_vecs(digits: Iterable) -> tuple[LatticeVec, ...]:
    return tuple(LatticeVec(index(d[0]), index(d[1])) for d in digits)


class _Record(NamedTuple):
    poly: CharPoly
    digits: tuple[LatticeVec, ...]


class DigitSystem(_Record):
    """An expanding polynomial together with an ordered digit list.

    The digit order is preserved as given; edge reports refer to digits by
    their index in this order.  Canonical three-digit systems (which always
    include the zero digit) come from standard_digits(); arbitrary digit lists
    are accepted so that translated systems stay expressible.

    A tuple of (poly, digits), so both are read-only and equality and hashing
    go by them.  What was decided for the system lives in instance
    attributes, each None until first built: its difference set here, and
    the search memo, edge graph and member outcomes that membership fills in.
    """

    _differences = _search_memo = _edge_graph = _member_outcomes = None

    def __new__(cls, poly: CharPoly, digits: Iterable) -> "DigitSystem":
        digits = _as_vecs(digits)
        if not digits:
            raise ValueError("digit set must be nonempty")
        if len(set(digits)) != len(digits):
            raise ValueError("digits must be pairwise distinct")
        if not is_expanding(poly):
            raise ValueError(f"{poly} is not expanding")
        return super().__new__(cls, poly, digits)

    def __reduce__(self):
        # copies and pickles are built anew, so they start undecided
        return self.__class__, (self.poly, self.digits)

    @property
    def differences(self) -> tuple[LatticeVec, ...]:
        """The difference set of the digits in graded order; built on first use,
        one tuple shared by every system with the same digits.

        Over MAX_DIGIT_PAIRS digit pairs it raises ValueError before building."""
        if self._differences is None:
            pairs = len(self.digits) * (len(self.digits) - 1) // 2
            if pairs > MAX_DIGIT_PAIRS:
                raise ValueError(f"{pairs} digit pairs exceed the pair budget of {MAX_DIGIT_PAIRS}")
            self._differences = _graded_differences(self.digits)
        return self._differences


def standard_digits(k: int) -> tuple[LatticeVec, ...]:
    """The three-digit set {0, v, k*Av} in coordinates: (0,0), (1,0), (0,k)."""
    if k == 0:
        raise ValueError("k must be nonzero; k = 0 collapses the digit set")
    return (LatticeVec(0, 0), LatticeVec(1, 0), LatticeVec(0, k))


_held_vectors = 0  # vectors held by the cache of _graded_differences


@lru_cache(maxsize=None)
def _graded_differences(digits: tuple[LatticeVec, ...]) -> tuple[LatticeVec, ...]:
    """{d - d' : d, d' in digits} sorted by (|l| + |k|, (l, k)); the cache is
    emptied before a set would take it past 2 * MAX_DIGIT_PAIRS + 1 vectors."""
    global _held_vectors
    # subtracted as int pairs, so only the distinct differences become vectors
    out = {(l - m, k - n) for l, k in digits for m, n in digits}
    dd = tuple(LatticeVec(l, k) for l, k in sorted(out, key=lambda d: (abs(d[0]) + abs(d[1]), d)))
    if _held_vectors + len(dd) > 2 * MAX_DIGIT_PAIRS + 1:
        _graded_differences.cache_clear()
        _held_vectors = 0
    _held_vectors += len(dd)
    return dd
