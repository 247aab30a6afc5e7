"""Exact coefficient series for inverse powers of the expanding matrix.

Writing A^{-i} v = alpha_i v + beta_i Av, the coefficient pairs satisfy

    q * alpha_{i+2} + p * alpha_{i+1} + alpha_i = 0,
    alpha_1 = -p/q,  alpha_2 = (p^2 - q)/q^2,

and the same recurrence for beta with beta_1 = -1/q, beta_2 = p/q^2.
Equivalently (alpha_i, beta_i) is the i-th inverse-action power applied to
(1, 0).  Since A^{-1} = adj(A) / q, q^i * (alpha_i, beta_i) is an integer
pair, and the terms are computed as such integer numerators.  The absolute
series sums sum |alpha_i| and sum |beta_i| are certified from above by
summing exact terms and adding a proven geometric tail bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple

from .lattice import CharPoly, adj_action, is_expanding

TAIL_TOL = Fraction(1, 10**6)
_MAX_TERMS = 10_000
_MAX_CONTRACTION_EXP = 64
# Polynomials whose bounds series_sums keeps, least recently used going first
SERIES_CACHE_SIZE = 1024


class SeriesTerm(NamedTuple):
    index: int
    alpha: Fraction
    beta: Fraction


class SeriesBounds(NamedTuple):
    """Certified upper bounds: alpha_upper >= sum |alpha_i|, same for beta.

    alpha_upper equals the exact partial sum of the first terms_used terms
    plus tail_bound, where tail_bound provably dominates the omitted tail.
    """

    alpha_upper: Fraction
    beta_upper: Fraction
    terms_used: int
    tail_bound: Fraction


def _numerators(poly: CharPoly) -> Iterator[tuple[int, int]]:
    """(a_i, b_i) = q^i * (alpha_i, beta_i) for i = 1, 2, ...: each is the
    adjugate applied to the previous one."""
    ab = (1, 0)
    while True:
        ab = adj_action(poly, ab)
        yield ab


def alpha_beta(poly: CharPoly, n: int) -> list[SeriesTerm]:
    """First n coefficient pairs (exact rationals), indices 1..n."""
    if not is_expanding(poly):
        raise ValueError(f"{poly} is not expanding")
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms = []
    den = 1
    for i, (a, b) in enumerate(islice(_numerators(poly), n), 1):
        den *= poly.q
        terms.append(SeriesTerm(i, Fraction(a, den), Fraction(b, den)))
    return terms


def _contraction_data(poly: CharPoly) -> Fraction:
    """The geometric-tail constant G = C * ((m - 1) + m * theta / (1 - theta)),
    where m is the least exponent with theta = ||inv^m|| < 1 in the max norm
    and C = max over r < m of ||inv^r||.

    For any coefficient pair x_N, the tail sum over j >= 1 of
    ||inv^j x_N|| is at most ||x_N|| * G: split j = t*m + r and bound each
    block of m consecutive terms by C * theta^t * ||x_N||.  inv maps (0, 1)
    to (1, 0), so inv^m has columns (alpha_m, beta_m) and
    (alpha_{m-1}, beta_{m-1}), and its norm is a ratio of integers.
    """
    q_abs = abs(poly.q)
    c_max = Fraction(1)
    prev_a, prev_b, den = 1, 0, 1  # alpha_0 = 1, beta_0 = 0
    for m, (a, b) in enumerate(islice(_numerators(poly), _MAX_CONTRACTION_EXP), 1):
        num = max(abs(a) + q_abs * abs(prev_a), abs(b) + q_abs * abs(prev_b))
        den *= q_abs
        theta = Fraction(num, den)
        if theta < 1:
            return c_max * ((m - 1) + Fraction(m) * theta / (1 - theta))
        c_max = max(c_max, theta)
        prev_a, prev_b = a, b
    raise ValueError(f"no contracting power of the inverse action for {poly}")


@lru_cache(maxsize=SERIES_CACHE_SIZE)
def series_sums(poly: CharPoly) -> SeriesBounds:
    """Certified upper bounds for sum |alpha_i| and sum |beta_i|.

    The number of exact terms grows in steps of 20 until the certified tail
    bound drops below TAIL_TOL.  The terms are summed as integers over
    |q|^n; no floating point enters the result.  The tail bound after n
    terms is G * min over i <= n of max(|alpha_i|, |beta_i|): the running
    minimum keeps it valid (earlier tails dominate later true tails) and
    monotone, so growing n never loosens the bounds.
    """
    if not is_expanding(poly):
        raise ValueError(f"{poly} is not expanding")
    g = _contraction_data(poly)
    q_abs = abs(poly.q)
    # sum |alpha_i| and sum |beta_i| over i <= n, as numerators over |q|^n;
    # the running minimum is tail_num / tail_den, starting at 1/0 (infinity)
    alpha_num = beta_num = 0
    den = 1
    tail_num, tail_den = 1, 0
    for n, (a, b) in enumerate(islice(_numerators(poly), _MAX_TERMS), 1):
        alpha_num = alpha_num * q_abs + abs(a)
        beta_num = beta_num * q_abs + abs(b)
        den *= q_abs
        m = max(abs(a), abs(b))
        if m * tail_den < tail_num * den:
            tail_num, tail_den = m, den
        if n % 20 == 0:
            tail = Fraction(tail_num, tail_den) * g
            if tail < TAIL_TOL:
                return SeriesBounds(
                    Fraction(alpha_num, den) + tail, Fraction(beta_num, den) + tail, n, tail
                )
    raise ValueError(f"tail bound did not reach {TAIL_TOL} within {_MAX_TERMS} terms")


def envelope_numerators(bounds: SeriesBounds, vecs) -> tuple[int, int]:
    """Bounds on |l| and |k| of every sum of A^{-i} w_i (i >= 1), w_i in vecs,
    as integer numerators over the denominators of alpha_upper and beta_upper.

    Expanding w = l v + k Av gives A^{-i} w = l_i A^{-i} v + k_i A^{-(i-1)} v,
    so the sum has l = k_1 + sum (k_{i+1} + l_i) alpha_i and
    k = sum (k_{i+1} + l_i) beta_i.  With c the largest |k' + l| over pairs
    from vecs and K the largest |k| coordinate, |l| <= K + c * sum|alpha|
    and |k| <= c * sum|beta|.  The pair's two coordinates are chosen
    independently, so c comes from the coordinate extremes in one pass.
    """
    ks, ls = [w.k for w in vecs], [w.l for w in vecs]
    c = max(max(ks) + max(ls), -(min(ks) + min(ls)))
    a, b = bounds.alpha_upper, bounds.beta_upper
    return max(map(abs, ks)) * a.denominator + c * a.numerator, c * b.numerator
