"""Exact coefficient series for inverse powers of the expanding matrix.

Writing A^{-i} v = alpha_i v + beta_i Av, the coefficient pairs satisfy

    q * alpha_{i+2} + p * alpha_{i+1} + alpha_i = 0,
    alpha_1 = -p/q,  alpha_2 = (p^2 - q)/q^2,

and the same recurrence for beta with beta_1 = -1/q, beta_2 = p/q^2.
Equivalently (alpha_i, beta_i) is the i-th inverse-action power applied to
(1, 0).  All terms are exact rationals; the absolute series sums
sum |alpha_i| and sum |beta_i| are certified from above by summing exact
terms and adding a proven geometric tail bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple

from .lattice import CharPoly, Mat2, coord_action, is_expanding

DEFAULT_TAIL_TOL = Fraction(1, 10**6)
_MAX_TERMS = 10_000
_MAX_CONTRACTION_EXP = 64


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


def _term_iter(poly: CharPoly) -> Iterator[SeriesTerm]:
    inv = coord_action(poly).inverse()
    x: tuple = (Fraction(1), Fraction(0))
    i = 0
    while True:
        i += 1
        x = inv.apply(x)
        yield SeriesTerm(i, x[0], x[1])


def alpha_beta(poly: CharPoly, n: int) -> list[SeriesTerm]:
    """First n coefficient pairs (exact rationals), indices 1..n."""
    if not is_expanding(poly):
        raise ValueError(f"{poly} is not expanding")
    if n < 0:
        raise ValueError("n must be nonnegative")
    it = _term_iter(poly)
    return [next(it) for _ in range(n)]


def closed_form_check(poly: CharPoly, n: int, tol: float = 1e-9) -> bool:
    """Cross-check the recurrence against the closed form, in floats.

    With y1, y2 the roots of q*x^2 + p*x + 1 (the reciprocals of the roots
    of the polynomial) and s = sqrt(p^2 - 4q),

        alpha_i = q * (y1^(i+1) - y2^(i+1)) / s,
        beta_i  = -(y1^i - y2^i) / s.

    Rejects a vanishing discriminant, where the closed form degenerates.
    """
    import cmath

    disc = poly.discriminant
    if disc == 0:
        raise ValueError("discriminant is zero; closed form needs distinct roots")
    s = cmath.sqrt(complex(disc))
    y1 = (-poly.p + s) / (2 * poly.q)
    y2 = (-poly.p - s) / (2 * poly.q)
    it = _term_iter(poly)
    for _ in range(n):
        term = next(it)
        alpha_c = poly.q * (y1 ** (term.index + 1) - y2 ** (term.index + 1)) / s
        beta_c = -(y1**term.index - y2**term.index) / s
        if abs(alpha_c - float(term.alpha)) > tol:
            return False
        if abs(beta_c - float(term.beta)) > tol:
            return False
    return True


def _contraction_data(poly: CharPoly) -> tuple[int, Fraction, Fraction]:
    """Exponent m with ||inv^m|| < 1 in the max norm, that norm, and the
    geometric-tail constant G = C * ((m - 1) + m * theta / (1 - theta))
    where C = max over r < m of ||inv^r||.

    For any coefficient pair x_N, the tail sum over j >= 1 of
    ||inv^j x_N|| is at most ||x_N|| * G: split j = t*m + r and bound each
    block of m consecutive terms by C * theta^t * ||x_N||.
    """
    inv = coord_action(poly).inverse()
    power = Mat2.identity()
    c_max = Fraction(1)
    for m in range(1, _MAX_CONTRACTION_EXP + 1):
        power = power * inv
        theta = power.inf_norm()
        if theta < 1:
            g = c_max * ((m - 1) + Fraction(m) * theta / (1 - theta))
            return m, theta, g
        c_max = max(c_max, theta)
    raise ArithmeticError(f"no contracting power of the inverse action for {poly}")


def _partial_bounds(poly: CharPoly, g: Fraction) -> Iterator[SeriesBounds]:
    """Bounds from the first n exact terms, for n = 1, 2, ... in turn."""
    alpha_sum = Fraction(0)
    beta_sum = Fraction(0)
    tail = None
    for term in _term_iter(poly):
        alpha_sum += abs(term.alpha)
        beta_sum += abs(term.beta)
        raw = max(abs(term.alpha), abs(term.beta)) * g
        # Running minimum keeps the tail bound valid (earlier tails dominate
        # later true tails) and monotone, so growing N never loosens bounds.
        tail = raw if tail is None else min(tail, raw)
        yield SeriesBounds(alpha_sum + tail, beta_sum + tail, term.index, tail)


@lru_cache(maxsize=None)
def series_sums(
    poly: CharPoly,
    tail_tol: Fraction = DEFAULT_TAIL_TOL,
    n_terms: int | None = None,
) -> SeriesBounds:
    """Certified upper bounds for sum |alpha_i| and sum |beta_i|.

    With n_terms unset, the number of exact terms grows in steps of 20
    until the certified tail bound drops below tail_tol.  Everything is
    exact rational arithmetic; no floating point enters the result.
    """
    if not is_expanding(poly):
        raise ValueError(f"{poly} is not expanding")
    _, _, g = _contraction_data(poly)
    partial = _partial_bounds(poly, g)
    if n_terms is not None:
        if n_terms < 1:
            raise ValueError("n_terms must be positive")
        return next(islice(partial, n_terms - 1, None))
    for bounds in islice(partial, 19, _MAX_TERMS, 20):
        if bounds.tail_bound < tail_tol:
            return bounds
    raise ArithmeticError(f"tail bound did not reach {tail_tol} within {_MAX_TERMS} terms")


def envelope(bounds: SeriesBounds, vecs) -> tuple[Fraction, Fraction]:
    """Bounds on |l| and |k| of every sum of A^{-i} w_i (i >= 1), w_i in vecs.

    Expanding w = l v + k Av gives A^{-i} w = l_i A^{-i} v + k_i A^{-(i-1)} v,
    so the sum has l = k_1 + sum (k_{i+1} + l_i) alpha_i and
    k = sum (k_{i+1} + l_i) beta_i.  With c the largest |k' + l| over pairs
    from vecs and K the largest |k| coordinate, |l| <= K + c * sum|alpha|
    and |k| <= c * sum|beta|.
    """
    k_coord_max = max(abs(w.k) for w in vecs)
    c = max(abs(a.k + b.l) for a in vecs for b in vecs)
    return k_coord_max + c * bounds.alpha_upper, c * bounds.beta_upper
