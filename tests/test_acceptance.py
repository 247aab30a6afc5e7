"""Acceptance suite: one test per release criterion.

Each test prints a single "ACCEPTANCE n: PASS" line on success (visible
under pytest -s); a failure raises before the line is printed.
"""

import hashlib
import random
import time
from fractions import Fraction

from tileconn.expansions import eval_expansion, expansion_catalog, verify_witness
from tileconn.lattice import (
    CharPoly,
    DigitSystem,
    LatticeVec,
    enumerate_expanding,
    standard_digits,
)
from tileconn.membership import decide_membership, is_connected, state_box
from tileconn.render import RenderConfig, count_components, rasterize, write_image
from tileconn.series import alpha_beta, series_sums
from tileconn.sweep import mirror_check, sweep_theorem

from oracles import box_states, flagged_states, survivor_flags, survivors_by_passes

CALIBRATION = dict(depth=12, width=512, height=512, margin=0.05)

FROZEN_IMAGES = {
    (0, 3, 1): ("e0d15d34e8540a8c03329189d73f54814675aa76252a4229ede0af56b933b857", 1),
    (0, 3, 2): ("0665346ce8e79a99ec00912de66c99e4f9ef83549b3c1a2f40bee9fd225baf92", 245),
    (1, 3, 1): ("a36f7cf5aac9b9cd9ea129d801f97c5d07566b691e9e2b891968e831ea7b4ff7", 1),
    (1, 3, 2): ("cda4db103c228adf9eca17c71038eacc101cb39eadac712c5f7af8f5872b5b69", 61),
}


def test_criterion_1_sweep_matches_criterion():
    start = time.perf_counter()
    report = sweep_theorem(-6, 6)
    elapsed = time.perf_counter() - start
    assert len(report.entries) == 120
    for e in report.entries:
        assert e.connected == (abs(e.k) == 1), (e.poly, e.k)
    assert report.connected_count == 20
    assert sum(1 for e in report.entries if not e.connected) == 100
    assert report.theorem_verdict
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1: PASS — 120 instances, connected iff |k|=1, {elapsed:.2f}s")


def test_criterion_2_expanding_enumeration():
    expected = {(-1, -3), (0, -3), (1, -3), (-3, 3), (-2, 3), (-1, 3), (0, 3), (1, 3), (2, 3), (3, 3)}
    got = {(poly.p, poly.q) for poly in enumerate_expanding(3)}
    assert got == expected
    assert len(enumerate_expanding(3)) == 10
    print("ACCEPTANCE 2: PASS — exactly the ten expanding determinant-3 polynomials")


def test_criterion_3_certified_series_bounds():
    limits = {(1, 3): (0.88, 0.63), (2, 3): (1.17, 0.73), (3, 3): (2.24, 1.08)}
    for (p, q), (a_lim, b_lim) in limits.items():
        for sp in (p, -p):
            bounds = series_sums(CharPoly(sp, q))
            assert bounds.alpha_upper < a_lim, (sp, q, float(bounds.alpha_upper))
            assert bounds.beta_upper < b_lim, (sp, q, float(bounds.beta_upper))
    tol = Fraction(1, 10**6)
    for sp in (1, -1):
        bounds = series_sums(CharPoly(sp, -3))
        partial_a = bounds.alpha_upper - bounds.tail_bound
        partial_b = bounds.beta_upper - bounds.tail_bound
        assert partial_a <= 2 <= bounds.alpha_upper and bounds.alpha_upper - 2 <= tol
        assert partial_b <= 1 <= bounds.beta_upper and bounds.beta_upper - 1 <= tol
    print("ACCEPTANCE 3: PASS — certified bounds within stated limits, q=-3 sums enclosed to 1e-6")


def test_criterion_4_sign_mirror():
    pairs = [((1, 3), (-1, 3)), ((2, 3), (-2, 3)), ((3, 3), (-3, 3)), ((1, -3), (-1, -3))]
    for (p1, q1), (p2, q2) in pairs:
        left = alpha_beta(CharPoly(p1, q1), 15)
        right = alpha_beta(CharPoly(p2, q2), 15)
        for t1, t2 in zip(left, right):
            sign = -1 if t1.index % 2 else 1
            assert t2.alpha == sign * t1.alpha  # exact Fractions
            assert t2.beta == -sign * t1.beta
        b1 = series_sums(CharPoly(p1, q1))
        b2 = series_sums(CharPoly(p2, q2))
        assert abs(b1.alpha_upper - b2.alpha_upper) <= Fraction(1, 10**12)
        assert abs(b1.beta_upper - b2.beta_upper) <= Fraction(1, 10**12)
    print("ACCEPTANCE 4: PASS — sign-mirror exact through index 15, bounds agree to 1e-12")


def test_criterion_5_expansion_catalog():
    items = expansion_catalog()
    for item in items:
        value = eval_expansion(item.poly, item.witness.preperiod, item.witness.period)
        assert (value.l, value.k) == (item.delta.l, item.delta.k), item.label
        ds = DigitSystem(item.poly, standard_digits(item.k))
        assert decide_membership(ds, item.delta).member, item.label
    print(f"ACCEPTANCE 5: PASS — all {len(items)} catalog expansions exact and confirmed members")


def test_criterion_6_companion_digit_sets():
    for digits in ([(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 0), (1, -1)]):
        for poly in enumerate_expanding(3):
            assert is_connected(DigitSystem(poly, digits)), (poly, digits)
    print("ACCEPTANCE 6: PASS — both companion digit sets connected for all ten polynomials")


def test_criterion_7_mirror_property():
    assert mirror_check(-6, 6)
    report = sweep_theorem(-6, 6)
    verdicts = {(e.poly.p, e.poly.q, e.k): e.connected for e in report.entries}
    pairs = 0
    for (p, q, k), connected in verdicts.items():
        assert verdicts[(-p, q, -k)] == connected
        pairs += 1
    print(f"ACCEPTANCE 7: PASS — mirror (p,k) vs (-p,-k) agrees on all {pairs} instances")


def test_criterion_8_membership_robustness():
    rng = random.Random(20260825)
    cases = 0
    for poly in enumerate_expanding(3):
        for k in [k for k in range(-6, 7) if k != 0]:
            ds = DigitSystem(poly, standard_digits(k))
            box = state_box(ds, series_sums(poly))
            alive_plain = flagged_states(*survivor_flags(poly, ds.differences))
            alive_padded = survivors_by_passes(poly, ds.differences, 2)[1]
            states = box_states(box)
            for s in rng.sample(states, min(5, len(states))):
                delta = LatticeVec(*s)
                outcome = decide_membership(ds, delta)
                # round-trip: any witness re-evaluates exactly
                if outcome.member:
                    assert verify_witness(ds, delta, outcome.witness)
                else:
                    assert outcome.witness is None
                cases += 1
                # box enlargement by 2 leaves the verdict unchanged
                assert outcome.member == (s in alive_padded) == (s in alive_plain)
                cases += 1
                # negation symmetry
                assert decide_membership(ds, -delta).member == outcome.member
                cases += 1
    assert cases >= 1000
    print(f"ACCEPTANCE 8: PASS — {cases} generated membership cases, all three properties hold")


def test_criterion_9_frozen_renders(tmp_path):
    results = {}
    for (p, q, k), (want_hash, want_components) in FROZEN_IMAGES.items():
        cfg = RenderConfig(CharPoly(p, q), standard_digits(k), **CALIBRATION)
        grid = rasterize(cfg)
        path = tmp_path / f"tile_p{p}_q{q}_k{k}.ppm"
        write_image(grid, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == want_hash, (p, q, k, digest)
        n = count_components(grid, connectivity=8)
        assert n == want_components, (p, q, k, n)
        if k == 1:
            assert n == 1
        else:
            assert n >= 2
        results[(p, q, k)] = n
    # determinism: a second render of one configuration is byte-identical
    cfg = RenderConfig(CharPoly(0, 3), standard_digits(1), **CALIBRATION)
    again = tmp_path / "again.ppm"
    write_image(rasterize(cfg), again)
    assert hashlib.sha256(again.read_bytes()).hexdigest() == FROZEN_IMAGES[(0, 3, 1)][0]
    print(
        "ACCEPTANCE 9: PASS — four frozen renders byte-identical; "
        f"components k=1: {results[(0,3,1)]},{results[(1,3,1)]}  "
        f"k=2: {results[(0,3,2)]},{results[(1,3,2)]}"
    )
