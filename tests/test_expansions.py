from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tileconn.expansions import (
    RationalVec,
    Witness,
    eval_expansion,
    expansion_catalog,
    replays,
    verify_witness,
)
from tileconn.lattice import CharPoly, DigitSystem, LatticeVec, standard_digits
from tileconn.series import alpha_beta

POLY_POOL = [CharPoly(p, q) for p, q in [(0, 3), (1, 3), (-1, 3), (2, 3), (3, 3), (1, -3), (0, -3), (0, 2), (2, 2)]]

digit_strategy = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
word_strategy = st.lists(digit_strategy, min_size=1, max_size=5)


class TestEvalExpansion:
    def test_periodic_identity_for_v(self):
        value = eval_expansion(CharPoly(0, 3), [(0, 0)], [(-1, 0), (0, -1), (1, 0), (0, 1)])
        assert value == RationalVec(Fraction(1), Fraction(0))

    def test_periodic_identity_for_av(self):
        value = eval_expansion(CharPoly(0, 3), [], [(-1, 0), (0, -1), (1, 0), (0, 1)])
        assert value == RationalVec(Fraction(0), Fraction(1))

    def test_single_digit_matches_series_coefficients(self):
        # the word with preperiod (1,0) and zero period is A^{-1} v
        for poly in POLY_POOL:
            term = alpha_beta(poly, 1)[0]
            value = eval_expansion(poly, [(1, 0)], [(0, 0)])
            assert value == RationalVec(term.alpha, term.beta)

    def test_zero_period_contributes_nothing(self):
        value = eval_expansion(CharPoly(1, 3), [(1, -1), (0, 1)], [(0, 0)])
        via_terms = eval_expansion(CharPoly(1, 3), [(1, -1), (0, 1), (0, 0)], [(0, 0)])
        assert value == via_terms

    def test_rejects_empty_period(self):
        with pytest.raises(ValueError):
            eval_expansion(CharPoly(1, 3), [(0, 0)], [])

    def test_rejects_non_expanding(self):
        with pytest.raises(ValueError):
            eval_expansion(CharPoly(2, -3), [], [(1, 0)])

    @given(st.sampled_from(POLY_POOL), word_strategy, word_strategy)
    def test_rotating_period_into_preperiod(self, poly, pre, per):
        # w (u1..uP)^omega equals w u1 (u2..uP u1)^omega
        base = eval_expansion(poly, pre, per)
        rotated = eval_expansion(poly, pre + per[:1], per[1:] + per[:1])
        assert base == rotated

    @given(st.sampled_from(POLY_POOL), word_strategy, word_strategy)
    def test_unrolling_full_period(self, poly, pre, per):
        assert eval_expansion(poly, pre, per) == eval_expansion(poly, pre + per, per)


class TestVerifyWitness:
    def test_accepts_valid(self):
        ds = DigitSystem(CharPoly(0, 3), standard_digits(1))
        w = Witness(
            (LatticeVec(0, 0),),
            (LatticeVec(-1, 0), LatticeVec(0, -1), LatticeVec(1, 0), LatticeVec(0, 1)),
        )
        assert verify_witness(ds, LatticeVec(1, 0), w)
        assert not verify_witness(ds, LatticeVec(0, 1), w)  # wrong target

    def test_rejects_digit_outside_difference_set(self):
        ds = DigitSystem(CharPoly(0, 3), standard_digits(1))
        w = Witness((), (LatticeVec(2, 0),))
        assert not verify_witness(ds, LatticeVec(1, 0), w)

    def test_rejects_empty_period(self):
        # a bare replay of the empty period returns to its start and would
        # accept; a word without a period expands nothing
        ds = DigitSystem(CharPoly(0, 3), standard_digits(1))
        with pytest.raises(ValueError):
            verify_witness(ds, LatticeVec(0, 0), Witness((LatticeVec(0, 0),), ()))


class TestReplays:
    def test_matches_exact_evaluation_on_catalog_and_neighbours(self):
        for item in expansion_catalog():
            ds = DigitSystem(item.poly, standard_digits(item.k))
            value = eval_expansion(item.poly, item.witness.preperiod, item.witness.period)
            for dl in (-1, 0, 1):
                for dk in (-1, 0, 1):
                    delta = LatticeVec(item.delta.l + dl, item.delta.k + dk)
                    exact = value == RationalVec(Fraction(delta.l), Fraction(delta.k))
                    assert exact == (dl == dk == 0), item.label
                    assert replays(item.poly, delta, item.witness) == exact, (item.label, delta)
                    verified = verify_witness(ds, delta, item.witness)
                    assert verified == (item.word_in_dd and exact), (item.label, delta)

    def test_rejects_empty_period(self):
        with pytest.raises(ValueError):
            replays(CharPoly(1, 3), (0, 0), Witness((), ()))

    def test_rejects_non_expanding(self):
        with pytest.raises(ValueError):
            replays(CharPoly(2, -3), (1, 0), Witness((), (LatticeVec(1, 0),)))

    @pytest.mark.parametrize("delta", [(1.5, 0), (1, 0.0), ("1", "0")], ids=str)
    def test_rejects_non_integer_delta(self, delta):
        item = expansion_catalog()[1]
        assert replays(item.poly, item.delta, item.witness)
        ds = DigitSystem(item.poly, standard_digits(item.k))
        with pytest.raises(TypeError):
            replays(item.poly, delta, item.witness)
        with pytest.raises(TypeError):
            verify_witness(ds, delta, item.witness)

    @pytest.mark.parametrize("digit", [(0.5, 0), (1.0, 0), (0, -1.0), ("1", "0")], ids=str)
    @pytest.mark.parametrize("where", ["preperiod", "period"])
    def test_rejects_non_integer_digit(self, digit, where):
        # a float walk would answer False, not refuse
        item = expansion_catalog()[1]  # p1q3.k1.v: preperiod (0,0), period of four
        pre, per = item.witness
        w = Witness((digit,) + pre, per) if where == "preperiod" else Witness(pre, per + (digit,))
        with pytest.raises(TypeError):
            replays(item.poly, item.delta, w)
        with pytest.raises(TypeError):
            replays(CharPoly(0, 3), (0, 0), Witness((digit,), ((0, 0),)))
        if digit in {(1, 0), (0, -1)}:  # equal to a difference, so past the set screen
            with pytest.raises(TypeError):
                verify_witness(DigitSystem(item.poly, standard_digits(item.k)), item.delta, w)


class TestCorpus:
    def test_size(self):
        assert len(expansion_catalog()) >= 14

    def test_every_item_evaluates_exactly(self):
        for item in expansion_catalog():
            value = eval_expansion(item.poly, item.witness.preperiod, item.witness.period)
            assert value == RationalVec(Fraction(item.delta.l), Fraction(item.delta.k)), item.label

    def test_word_in_dd_flags_match(self):
        for item in expansion_catalog():
            ds = DigitSystem(item.poly, standard_digits(item.k))
            allowed = set(ds.differences)
            in_dd = all(d in allowed for d in item.witness.preperiod + item.witness.period)
            assert in_dd == item.word_in_dd, item.label
            if item.word_in_dd:
                assert verify_witness(ds, item.delta, item.witness), item.label

    def test_expected_items_present(self):
        labels = {i.label: i for i in expansion_catalog()}
        item = labels["p1q3.k1.v"]
        assert item.poly == CharPoly(1, 3) and item.delta == (1, 0)
        item = labels["p1qm3.km1.av+v"]
        assert item.poly == CharPoly(1, -3) and item.k == -1
        assert item.delta == (1, 1)
        assert item.witness.preperiod == ((0, -1),)
        assert item.witness.period == ((0, 1),)

    def test_covers_all_ten_polys_with_k_one(self):
        seen = {(i.poly, i.k) for i in expansion_catalog()}
        polys_covered = {poly for poly, _ in seen}
        # the mirror identities make the remaining sign cases redundant,
        # but every |q|=3 polynomial must appear at least implicitly:
        # items exist for p in {0,1,2,3,-1} with q=3 and p in {1} with q=-3
        assert CharPoly(0, 3) in polys_covered
        assert CharPoly(1, -3) in polys_covered
        assert CharPoly(-1, 3) in polys_covered
