import cmath
import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from tileconn import lattice
from tileconn.lattice import (
    CharPoly,
    DigitSystem,
    LatticeVec,
    adj_action,
    coord_action,
    enumerate_expanding,
    is_expanding,
    pairwise_differences,
    standard_digits,
)
from tileconn.membership import decide_membership, edge_graph

from oracles import QUADRATICS

TEN_POLYS = [(-1, -3), (0, -3), (1, -3), (-3, 3), (-2, 3), (-1, 3), (0, 3), (1, 3), (2, 3), (3, 3)]


def test_charpoly_rejects_zero_q():
    with pytest.raises(ValueError):
        CharPoly(1, 0)


@pytest.mark.parametrize(
    "p, q", [(0.5, 3), (1, 3.0), ("1", 3), (1, "3")], ids=["0.5,3", "1,3.0", "str p", "str q"]
)
def test_charpoly_rejects_non_integers(p, q):
    with pytest.raises(TypeError):
        CharPoly(p, q)


def test_charpoly_repr():
    assert repr(CharPoly(1, 3)) == "CharPoly(p=1, q=3)"


def test_charpoly_str():
    assert str(CharPoly(0, 3)) == "x^2+3"
    assert str(CharPoly(1, -3)) == "x^2+x-3"
    assert str(CharPoly(-1, 3)) == "x^2-x+3"
    assert str(CharPoly(2, 3)) == "x^2+2x+3"


class TestCoordAction:
    def test_maps_v_to_av(self):
        assert coord_action(CharPoly(1, 3), (1, 0)) == (0, 1)

    def test_examples(self):
        # (l, k) -> (-q*k, l - p*k)
        assert coord_action(CharPoly(1, 3), (0, 1)) == (-3, -1)
        assert coord_action(CharPoly(1, -3), (2, 1)) == (3, 1)

    def test_char_poly_matches(self):
        for p, q in TEN_POLYS:
            (a, c), (b, d) = (coord_action(CharPoly(p, q), e) for e in [(1, 0), (0, 1)])
            assert a + d == -p
            assert a * d - b * c == q

    @given(
        st.integers(-10, 10),
        st.integers(-10, 10).filter(lambda q: q != 0),
        st.integers(-50, 50),
        st.integers(-50, 50),
    )
    def test_cayley_hamilton(self, p, q, l, k):
        poly = CharPoly(p, q)
        vec = (l, k)
        mm = coord_action(poly, coord_action(poly, vec))
        mv = coord_action(poly, vec)
        assert mm[0] + p * mv[0] + q * vec[0] == 0
        assert mm[1] + p * mv[1] + q * vec[1] == 0


class TestAdjAction:
    @given(st.sampled_from(QUADRATICS), st.integers(-50, 50), st.integers(-50, 50))
    def test_is_q_times_the_inverse(self, poly, l, k):
        # A adj(A) = q I
        assert coord_action(poly, adj_action(poly, (l, k))) == (poly.q * l, poly.q * k)


def _min_root_modulus(p, q):
    disc = cmath.sqrt(complex(p * p - 4 * q))
    return min(abs((-p + disc) / 2), abs((-p - disc) / 2))


class TestIsExpanding:
    def test_examples(self):
        assert is_expanding(CharPoly(1, 3))
        assert is_expanding(CharPoly(1, -3))
        assert not is_expanding(CharPoly(2, -3))  # root at 1
        assert not is_expanding(CharPoly(0, 1))
        assert not is_expanding(CharPoly(3, -3))

    def test_agrees_with_float_roots(self):
        # exhaustive cross-check on 1 <= |q| <= 30, |p| <= |q| + 3
        for q in list(range(-30, 0)) + list(range(1, 31)):
            for p in range(-abs(q) - 3, abs(q) + 4):
                poly = CharPoly(p, q)
                min_mod = _min_root_modulus(p, q)
                by_floats = min_mod > 1 + 1e-9
                assert is_expanding(poly) == by_floats, (p, q, min_mod)

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 10, 10**40], ids=["2", "3", "4", "5", "10", "10^40"])
    def test_boundary_families(self, size):
        # exact, no floats: a root at +1 or -1 is the boundary p = +-|q + 1|
        def root_at(p, q, x):
            return x * x + p * x + q == 0

        q = size  # q >= 2: p = +-(q + 1) has the root -+1, p = +-q is expanding
        for s in (1, -1):
            assert root_at(s * (q + 1), q, -s) and not is_expanding(CharPoly(s * (q + 1), q))
            assert is_expanding(CharPoly(s * q, q))
        q = -size  # q <= -2: p = +-(|q| - 1) has the root +-1
        for s in (1, -1):
            assert root_at(s * (size - 1), q, s) and not is_expanding(CharPoly(s * (size - 1), q))
            if size >= 3:
                assert is_expanding(CharPoly(s * (size - 2), q))


class TestEnumerateExpanding:
    def test_det_three_is_the_known_ten(self):
        assert [(c.p, c.q) for c in enumerate_expanding(3)] == TEN_POLYS

    def test_ordering_is_q_then_p(self):
        polys = enumerate_expanding(3)
        assert polys == sorted(polys, key=lambda c: (c.q, c.p))

    def test_det_two_contains_pure_squares(self):
        found = {(c.p, c.q) for c in enumerate_expanding(2)}
        assert (0, 2) in found
        assert (0, -2) in found

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            enumerate_expanding(0)

    def test_agrees_with_float_roots(self):
        assert enumerate_expanding(1) == []
        for n in range(1, 31):
            expect = [(p, q) for q in (-n, n) for p in range(-n - 2, n + 3)
                      if _min_root_modulus(p, q) > 1 + 1e-9]
            assert [(c.p, c.q) for c in enumerate_expanding(n)] == expect, n


class TestDigitSystem:
    def test_rejects_duplicate_digits(self):
        with pytest.raises(ValueError):
            DigitSystem(CharPoly(1, 3), [(0, 0), (0, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DigitSystem(CharPoly(1, 3), [])

    def test_rejects_non_expanding_poly(self):
        with pytest.raises(ValueError):
            DigitSystem(CharPoly(2, -3), standard_digits(1))

    @pytest.mark.parametrize("digit", [(0.9, 1), (1, 1.0), ("0", "1")], ids=str)
    def test_rejects_non_integer_digits(self, digit):
        # int() would truncate (0.9, 1) into the digit (0, 1)
        with pytest.raises(TypeError):
            DigitSystem(CharPoly(1, 3), [(0, 0), (1, 0), digit])

    def test_digit_order_preserved(self):
        ds = DigitSystem(CharPoly(1, 3), [(1, 0), (0, 0)])
        assert ds.digits == (LatticeVec(1, 0), LatticeVec(0, 0))

    def test_repr(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(2))
        assert repr(ds) == str(ds) == (
            "DigitSystem(poly=CharPoly(p=1, q=3), digits=(LatticeVec(l=0, k=0), "
            "LatticeVec(l=1, k=0), LatticeVec(l=0, k=2)))"
        )

    @pytest.mark.parametrize("field", ["poly", "digits"])
    def test_fields_are_read_only(self, field):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        with pytest.raises(AttributeError):
            setattr(ds, field, getattr(ds, field))
        with pytest.raises(AttributeError):
            delattr(ds, field)
        assert ds.poly == CharPoly(1, 3) and ds.digits == standard_digits(1)

    def test_equal_by_poly_and_digits(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        same = DigitSystem(CharPoly(1, 3), [(0, 0), (1, 0), (0, 1)])
        ds.differences  # what was decided for a system plays no part
        assert ds == same and hash(ds) == hash(same)
        assert len({ds, same}) == 1
        assert ds != DigitSystem(CharPoly(1, 3), [(1, 0), (0, 0), (0, 1)])
        assert ds != DigitSystem(CharPoly(-1, 3), standard_digits(1))
        # a record of (poly, digits): equal to, hashed and unpacked as that tuple
        assert ds == (ds.poly, ds.digits) and hash(ds) == hash((ds.poly, ds.digits))
        poly, digits = ds
        assert poly is ds.poly and digits is ds.digits

    def test_copies_and_pickles_are_equal(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(2))
        edge_graph(ds)
        assert decide_membership(ds, (0, 0)).member
        decided = ("_differences", "_search_memo", "_edge_graph", "_member_outcomes")
        assert all(getattr(ds, name) is not None for name in decided)
        for other in (copy.copy(ds), copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
            assert other == ds and other is not ds
            # built anew, so undecided
            assert [getattr(other, name) for name in decided] == [None] * 4


def test_standard_digits():
    assert standard_digits(1) == ((0, 0), (1, 0), (0, 1))
    assert standard_digits(-2) == ((0, 0), (1, 0), (0, -2))
    with pytest.raises(ValueError):
        standard_digits(0)


class TestDifferenceSet:
    def test_three_digit_example(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        dd = ds.differences
        assert len(dd) == 7
        assert set(dd) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
        # graded: by |l| + |k|, then lexicographically
        assert dd == ((0, 0), (-1, 0), (0, -1), (0, 1), (1, 0), (-1, 1), (1, -1))

    def test_k2_example(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(2))
        dd = set(ds.differences)
        assert len(dd) == 7
        assert LatticeVec(0, 2) in dd and LatticeVec(-1, 2) in dd

    def test_singleton(self):
        ds = DigitSystem(CharPoly(1, 3), [(0, 0)])
        assert ds.differences == ((0, 0),)

    def test_brute_force_oracle(self):
        digits = [(0, 0), (1, 0), (0, 2)]
        expect = sorted(
            {(a[0] - b[0], a[1] - b[1]) for a in digits for b in digits},
            key=lambda d: (abs(d[0]) + abs(d[1]), d),
        )
        got = pairwise_differences(digits)
        assert [tuple(d) for d in got] == expect

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=6))
    def test_symmetric_and_contains_zero(self, digits):
        dd = pairwise_differences(digits)
        assert LatticeVec(0, 0) in dd
        assert all(-d in dd for d in dd)


class TestSharedDifferences:
    """One difference set per distinct digit tuple, in a least recently used
    cache that holds at most 2 * MAX_DIGIT_PAIRS + 1 vectors."""

    @pytest.fixture
    def cache(self, monkeypatch):
        monkeypatch.setattr(lattice, "_difference_sets", {})
        monkeypatch.setattr(lattice, "_held_vectors", 0)
        return lattice._difference_sets

    def test_equal_digit_tuples_share_one_set(self, cache):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(2))
        other = DigitSystem(CharPoly(0, -3), [(0, 0), (1, 0), (0, 2)])
        assert other.digits is not ds.digits
        assert other.differences is ds.differences
        assert ds.differences == tuple(pairwise_differences(ds.digits))
        assert list(cache) == [ds.digits]
        # the same digits in another order are another tuple
        swapped = DigitSystem(CharPoly(1, 3), [(0, 2), (1, 0), (0, 0)])
        assert swapped.differences == ds.differences
        assert swapped.differences is not ds.differences

    def test_least_recently_used_set_goes_first(self, cache, monkeypatch):
        # room for 21 vectors: three sets of 7
        monkeypatch.setattr(lattice, "MAX_DIGIT_PAIRS", 10)
        a, b, c, d = (DigitSystem(CharPoly(1, 3), standard_digits(k)) for k in (1, 2, 3, 4))
        for ds in (a, b, c):
            ds.differences
        assert DigitSystem(a.poly, list(a.digits)).differences is a.differences
        d.differences
        assert list(cache) == [c.digits, a.digits, d.digits]
        assert lattice._held_vectors == 21

    def test_eviction_keeps_vectors_within_bound(self, cache, monkeypatch):
        # room for 2 * 6 + 1 = 13 vectors; four digits make 6 pairs
        monkeypatch.setattr(lattice, "MAX_DIGIT_PAIRS", 6)
        first = DigitSystem(CharPoly(1, 3), standard_digits(1))
        dd = first.differences
        rng = random.Random(5)
        cells = [(l, k) for l in range(-3, 4) for k in range(-3, 4)]
        for _ in range(200):
            digits = rng.sample(cells, rng.randint(1, 4))
            ds = DigitSystem(CharPoly(1, 3), digits)
            assert ds.differences == tuple(pairwise_differences(digits))
            assert list(cache)[-1] == ds.digits
            assert sum(map(len, cache.values())) == lattice._held_vectors <= 13
        assert first.digits not in cache
        assert first.differences is dd  # still kept on the system

    def test_pair_budget_refuses_before_any_build(self, cache, monkeypatch):
        built = []
        monkeypatch.setattr(lattice, "_graded_differences", built.append)
        ds = DigitSystem(CharPoly(1, 3), [(i, 0) for i in range(142)])
        with pytest.raises(ValueError, match="10011 digit pairs exceed the pair budget of 10000"):
            ds.differences
        assert built == [] and cache == {} and lattice._held_vectors == 0
        assert ds._differences is None
