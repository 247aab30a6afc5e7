import cmath
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tileconn.lattice import CharPoly, LatticeVec, enumerate_expanding
from tileconn.series import SERIES_CACHE_SIZE, alpha_beta, series_sums

from oracles import envelope

MILLIONTH = Fraction(1, 10**6)


def closed_form_check(poly, n, tol=1e-9):
    """Float oracle: the first n terms against the closed form.

    With y1, y2 the roots of q*x^2 + p*x + 1 (the reciprocals of the roots
    of the polynomial) and s = sqrt(p^2 - 4q),

        alpha_i = q * (y1^(i+1) - y2^(i+1)) / s,
        beta_i  = -(y1^i - y2^i) / s.

    Rejects a vanishing discriminant, where the closed form degenerates.
    """
    disc = poly.discriminant
    if disc == 0:
        raise ValueError("discriminant is zero; closed form needs distinct roots")
    s = cmath.sqrt(complex(disc))
    y1 = (-poly.p + s) / (2 * poly.q)
    y2 = (-poly.p - s) / (2 * poly.q)
    for term in alpha_beta(poly, n):
        alpha_c = poly.q * (y1 ** (term.index + 1) - y2 ** (term.index + 1)) / s
        beta_c = -(y1**term.index - y2**term.index) / s
        if abs(alpha_c - float(term.alpha)) > tol:
            return False
        if abs(beta_c - float(term.beta)) > tol:
            return False
    return True


class TestAlphaBeta:
    def test_first_terms_p1_q3(self):
        terms = alpha_beta(CharPoly(1, 3), 3)
        assert [t.alpha for t in terms] == [Fraction(-1, 3), Fraction(-2, 9), Fraction(5, 27)]
        assert [t.beta for t in terms] == [Fraction(-1, 3), Fraction(1, 9), Fraction(2, 27)]

    def test_first_terms_p0_q3(self):
        terms = alpha_beta(CharPoly(0, 3), 2)
        assert [(t.alpha, t.beta) for t in terms] == [
            (Fraction(0), Fraction(-1, 3)),
            (Fraction(-1, 3), Fraction(0)),
        ]

    def test_initial_values_and_recurrence(self):
        for poly in enumerate_expanding(3):
            p, q = poly.p, poly.q
            terms = alpha_beta(poly, 50)
            assert terms[0].alpha == Fraction(-p, q)
            assert terms[0].beta == Fraction(-1, q)
            assert terms[1].alpha == Fraction(p * p - q, q * q)
            assert terms[1].beta == Fraction(p, q * q)
            for i in range(len(terms) - 2):
                assert q * terms[i + 2].alpha + p * terms[i + 1].alpha + terms[i].alpha == 0
                assert q * terms[i + 2].beta + p * terms[i + 1].beta + terms[i].beta == 0

    def test_terms_decay(self):
        # dominant decay ratio is about 0.77 for x^2+x-3, so index 60 is
        # comfortably below 1e-6 for all ten polynomials (index 40 is not)
        for poly in enumerate_expanding(3):
            last = alpha_beta(poly, 60)[-1]
            assert abs(last.alpha) < MILLIONTH
            assert abs(last.beta) < MILLIONTH

    def test_rejects_non_expanding(self):
        with pytest.raises(ValueError):
            alpha_beta(CharPoly(2, -3), 5)

    def test_sign_mirror(self):
        # negating p flips alpha at odd indices and beta at even indices
        for p, q in [(1, 3), (2, 3), (3, 3), (1, -3)]:
            plus = alpha_beta(CharPoly(p, q), 30)
            minus = alpha_beta(CharPoly(-p, q), 30)
            for a, b in zip(plus, minus):
                if a.index % 2:
                    assert b.alpha == -a.alpha and b.beta == a.beta
                else:
                    assert b.alpha == a.alpha and b.beta == -a.beta


class TestClosedForm:
    def test_complex_root_case(self):
        assert closed_form_check(CharPoly(1, 3), 20)

    def test_real_root_case(self):
        assert closed_form_check(CharPoly(1, -3), 20)

    def test_all_ten(self):
        for poly in enumerate_expanding(3):
            assert closed_form_check(poly, 30)

    def test_rejects_zero_discriminant(self):
        with pytest.raises(ValueError):
            closed_form_check(CharPoly(2, 1), 5)


class TestSeriesSums:
    def test_known_numeric_bounds(self):
        cases = {
            (1, 3): (Fraction(88, 100), Fraction(63, 100)),
            (2, 3): (Fraction(117, 100), Fraction(73, 100)),
            (3, 3): (Fraction(224, 100), Fraction(108, 100)),
        }
        for (p, q), (alpha_lim, beta_lim) in cases.items():
            bounds = series_sums(CharPoly(p, q))
            assert bounds.alpha_upper < alpha_lim
            assert bounds.beta_upper < beta_lim
            assert bounds.tail_bound < MILLIONTH

    def test_exact_sums_enclosed(self):
        # for x^2+x-3 all terms are positive and the sums telescope to
        # exactly 2 and 1; the certified bounds must sit within 1e-6 above
        for p in (1, -1):
            bounds = series_sums(CharPoly(p, -3))
            assert 2 <= bounds.alpha_upper <= 2 + MILLIONTH
            assert 1 <= bounds.beta_upper <= 1 + MILLIONTH

    def test_upper_bounds_dominate_partial_sums(self):
        for poly in enumerate_expanding(3):
            bounds = series_sums(poly)
            partial_alpha = sum(abs(t.alpha) for t in alpha_beta(poly, 200))
            partial_beta = sum(abs(t.beta) for t in alpha_beta(poly, 200))
            assert bounds.alpha_upper >= partial_alpha
            assert bounds.beta_upper >= partial_beta
            assert bounds.alpha_upper - partial_alpha <= bounds.tail_bound
            assert bounds.beta_upper - partial_beta <= bounds.tail_bound

    def test_mirror_bounds_agree(self):
        for p, q in [(1, 3), (2, 3), (3, 3), (1, -3)]:
            a = series_sums(CharPoly(p, q))
            b = series_sums(CharPoly(-p, q))
            assert abs(a.alpha_upper - b.alpha_upper) <= Fraction(1, 10**12)
            assert abs(a.beta_upper - b.beta_upper) <= Fraction(1, 10**12)

    def test_invariant_fields(self):
        for poly in enumerate_expanding(3):
            bounds = series_sums(poly)
            terms = alpha_beta(poly, bounds.terms_used)
            assert bounds.alpha_upper == sum(abs(t.alpha) for t in terms) + bounds.tail_bound
            assert bounds.beta_upper == sum(abs(t.beta) for t in terms) + bounds.tail_bound

    def test_rejects_non_expanding(self):
        with pytest.raises(ValueError):
            series_sums(CharPoly(4, -3))

    def test_cache_is_bounded(self):
        # one more polynomial than the cache holds leaves it at its size
        polys = []
        det_abs = 2
        while len(polys) <= SERIES_CACHE_SIZE:
            polys += enumerate_expanding(det_abs)
            det_abs += 1
        for poly in polys[: SERIES_CACHE_SIZE + 1]:
            series_sums(poly)
        assert series_sums.cache_info().currsize <= SERIES_CACHE_SIZE

    def test_frozen_bounds_digest(self):
        # every bound for |q| in 2..6, frozen as exact rationals; the tail
        # is checked every 20 terms, so the search stops at a multiple of 20
        lines = []
        for det_abs in range(2, 7):
            for poly in enumerate_expanding(det_abs):
                b = series_sums(poly)
                assert b.terms_used % 20 == 0, poly
                fields = (b.alpha_upper, b.beta_upper, b.terms_used, b.tail_bound)
                lines.append(f"{poly.p},{poly.q}:" + "|".join(map(str, fields)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "2bc4299198e7f56f21318a9e9d4efdab8f14c73948c087fd84e6022b27cc9ee8"


class TestEnvelope:
    @given(
        st.sampled_from(enumerate_expanding(3)),
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=8),
    )
    def test_matches_pairwise_oracle(self, poly, vecs):
        # c is the largest |a.k + b.l| over all ordered pairs of vectors
        vecs = [LatticeVec(*v) for v in vecs]
        bounds = series_sums(poly)
        c = max(abs(a.k + b.l) for a in vecs for b in vecs)
        k_coord_max = max(abs(w.k) for w in vecs)
        assert envelope(bounds, vecs) == (
            k_coord_max + c * bounds.alpha_upper,
            c * bounds.beta_upper,
        )
