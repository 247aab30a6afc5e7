"""Membership decider tests, including two independent oracles.

The brute-force oracle certifies membership without the fixed-point pruning:
it first collects box states that can return to themselves (each such cycle
word is re-verified by exact expansion evaluation), then asks whether delta
reaches a certified cycle state within a few steps, re-verifying the whole
preperiod-plus-cycle word exactly.  Oracle and decider must agree on every
box state.  The survivor oracle computes the greatest fixed point by
repeated full passes over the box, which the worklist oracle
(oracles.survivor_flags) must reproduce; run on a box enlarged by a margin,
it must find the same survivors, since they are exactly the lattice vectors
of T - T.  The decider's depth-first search must match the worklist's
survivors and its greedy witness walk in any order of queries.
"""

import hashlib
import random
from collections import deque

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tileconn import lattice, membership
from tileconn.expansions import Witness, eval_expansion, verify_witness
from tileconn.lattice import (
    CharPoly,
    DigitSystem,
    LatticeVec,
    coord_action,
    enumerate_expanding,
    standard_digits,
)
from tileconn.membership import (
    decide_membership,
    edge_graph,
    is_connected,
    state_box,
)
from tileconn.series import series_sums
from tileconn.sweep import sweep_theorem

from oracles import (
    QUADRATICS,
    box_states,
    cold_caches,
    flagged_states,
    greedy_walk,
    survivor_flags,
    survivors_by_passes,
)

ORACLE_DEPTH = 8
WIDE_QUADRATICS = [poly for det_abs in range(2, 31) for poly in enumerate_expanding(det_abs)]


def box_of(ds):
    return state_box(ds, series_sums(ds.poly))


def survivors(ds):
    return flagged_states(*survivor_flags(ds.poly, ds.differences))


def oracle_cycle_states(ds, box):
    """States lying on a cycle of the in-box transition graph, each with a
    concrete cycle word verified by exact evaluation."""
    dd = ds.differences
    out = {}
    for start in box_states(box):
        # BFS over (state, path) until the walk returns to start
        seen = {start}
        queue = deque([(start, [])])
        found = None
        while queue and found is None:
            state, path = queue.popleft()
            image = coord_action(ds.poly, state)
            for w in dd:
                nxt = (image[0] - w.l, image[1] - w.k)
                if nxt not in box:
                    continue
                if nxt == start:
                    found = path + [w]
                    break
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, path + [w]))
        if found is not None:
            value = eval_expansion(ds.poly, [], found)
            assert (value.l, value.k) == start, "cycle word failed exact check"
            out[start] = found
    return out


def oracle_member(ds, delta, cycles, box):
    """Does delta reach a certified cycle state within ORACLE_DEPTH steps?"""
    delta = LatticeVec(*delta)
    if tuple(delta) not in box:
        return False
    dd = ds.differences
    frontier = {tuple(delta): []}
    for _ in range(ORACLE_DEPTH + 1):
        for state, path in frontier.items():
            if state in cycles:
                value = eval_expansion(ds.poly, path, cycles[state])
                assert (value.l, value.k) == (delta.l, delta.k)
                return True
        nxt = {}
        for state, path in frontier.items():
            image = coord_action(ds.poly, state)
            for w in dd:
                cand = (image[0] - w.l, image[1] - w.k)
                if cand in box and cand not in nxt:
                    nxt[cand] = path + [w]
        frontier = nxt
    return False


class TestStateBox:
    def test_worked_example_k2(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(2))
        assert box_of(ds) == (4, 1)

    def test_worked_example_k1(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        assert box_of(ds) == (2, 1)

    def test_singleton_digit_set(self):
        ds = DigitSystem(CharPoly(1, 3), [(0, 0)])
        assert box_of(ds) == (0, 0)

    def test_contains(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        box = box_of(ds)
        assert (2, 1) in box and (-2, -1) in box
        assert (3, 0) not in box and (0, 2) not in box


class TestDecideMembership:
    def test_zero_is_always_a_member(self):
        ds = DigitSystem(CharPoly(2, 3), standard_digits(4))
        outcome = decide_membership(ds, LatticeVec(0, 0))
        assert outcome.member
        assert outcome.witness.preperiod == ()
        assert outcome.witness.period == ((0, 0),)

    def test_v_member_for_q3_k1(self):
        ds = DigitSystem(CharPoly(0, 3), standard_digits(1))
        outcome = decide_membership(ds, LatticeVec(1, 0))
        assert outcome.member
        assert verify_witness(ds, LatticeVec(1, 0), outcome.witness)

    def test_av_member_for_p1q3_k1(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        assert decide_membership(ds, LatticeVec(0, 1)).member

    def test_nonmember_outside_box(self):
        ds = DigitSystem(CharPoly(0, 3), standard_digits(2))
        outcome = decide_membership(ds, LatticeVec(0, 2))
        assert not outcome.member and outcome.witness is None

    @pytest.mark.parametrize("delta", [(1.5, 0), (1, 0.0), ("1", "0")], ids=str)
    def test_rejects_non_integer_delta(self, delta):
        # int() would truncate (1.5, 0) to the member (1, 0)
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        with pytest.raises(TypeError):
            decide_membership(ds, delta)

    def test_witnesses_verify_for_all_sweep_members(self):
        for poly in enumerate_expanding(3):
            for k in (1, -1):
                ds = DigitSystem(poly, standard_digits(k))
                for i in range(3):
                    for j in range(3):
                        if i == j:
                            continue
                        delta = ds.digits[i] - ds.digits[j]
                        outcome = decide_membership(ds, delta)
                        if outcome.member:
                            assert verify_witness(ds, delta, outcome.witness)

    def test_negation_symmetry(self):
        for poly in enumerate_expanding(3):
            for k in (1, 2, -3):
                ds = DigitSystem(poly, standard_digits(k))
                box = box_of(ds)
                for s in box_states(box):
                    d = LatticeVec(*s)
                    assert decide_membership(ds, d).member == decide_membership(ds, -d).member


class TestSurvivorsRobustness:
    def test_box_enlargement_changes_nothing(self):
        for poly in enumerate_expanding(3):
            for k in (1, -2):
                ds = DigitSystem(poly, standard_digits(k))
                _, padded = survivors_by_passes(poly, ds.differences, 2)
                assert padded == survivors(ds)

    def test_survivors_closed_under_transition(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        alive = survivors(ds)
        dd = ds.differences
        for s in alive:
            image = coord_action(ds.poly, s)
            assert any((image[0] - w.l, image[1] - w.k) in alive for w in dd)


class TestSurvivorWorklist:
    @pytest.mark.parametrize("det_abs", [2, 3, 4, 5, 6])
    def test_matches_repeated_passes(self, det_abs):
        for poly in enumerate_expanding(det_abs):
            for k in (1, 2, 6):
                dd = DigitSystem(poly, standard_digits(k)).differences
                box, flags = survivor_flags(poly, dd)
                alive = flagged_states(box, flags)
                assert (box, alive) == survivors_by_passes(poly, dd, 0), (poly, k)
                assert alive == survivors_by_passes(poly, dd, 2)[1], (poly, k)

    @given(
        st.sampled_from(QUADRATICS),
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=5, unique=True
        ),
        st.sampled_from([0, 2]),
    )
    @settings(max_examples=60)
    def test_matches_repeated_passes_random_digits(self, poly, digits, margin):
        dd = DigitSystem(poly, digits).differences
        box, flags = survivor_flags(poly, dd)
        alive = flagged_states(box, flags)
        expected_box, expected = survivors_by_passes(poly, dd, margin)
        assert alive == expected
        assert box == (expected_box.l_max - margin, expected_box.k_max - margin)

    @given(
        st.sampled_from(QUADRATICS),
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=5, unique=True
        ),
        st.sampled_from([0, 2]),
    )
    @settings(max_examples=60)
    def test_flags_are_a_palindrome_over_the_box(self, poly, digits, margin):
        dd = DigitSystem(poly, digits).differences
        box, flags = survivor_flags(poly, dd)
        assert len(flags) == (2 * box.l_max + 1) * (2 * box.k_max + 1)
        assert set(flags) <= {0, 1}
        assert flags == flags[::-1]
        expected_box, expected = survivors_by_passes(poly, dd, margin)
        assert flagged_states(box, flags) == expected
        assert box == (expected_box.l_max - margin, expected_box.k_max - margin)

    def test_sweep_survivor_count(self):
        # the 400 instances of sweep --k-range -20..20: 233 936 survivors
        # among 523 392 box states
        entries = sweep_theorem(-20, 20).entries
        survivors_total = states_total = 0
        for e in entries:
            flags = survivor_flags(e.poly, DigitSystem(e.poly, standard_digits(e.k)).differences)[1]
            survivors_total += sum(flags)
            states_total += len(flags)
        assert (len(entries), survivors_total, states_total) == (400, 233936, 523392)

    def test_more_successors_than_a_byte_holds(self):
        # 81 digits give 289 differences, and central states of this box
        # keep all 289 successors inside it
        poly = CharPoly(0, 3)
        digits = [(l, k) for l in range(-4, 5) for k in range(-4, 5)]
        dd = DigitSystem(poly, digits).differences
        box, flags = survivor_flags(poly, dd)
        assert (box, flagged_states(box, flags)) == survivors_by_passes(poly, dd, 0)


def memo_agrees_with_oracle(memo, box, alive):
    """Every settled memo entry matches the survivor oracle and no state is
    left on a search path."""
    width = 2 * box.l_max + 1
    for l, k in box_states(box):
        entry = memo[(k + box.k_max) * width + l + box.l_max]
        assert entry != membership._ON_PATH, (l, k)
        if entry == membership._DEAD:
            assert (l, k) not in alive, (l, k)
        elif entry >= membership._ALIVE:
            assert (l, k) in alive, (l, k)


class TestSearchAgainstOracle:
    """The depth-first search against the worklist fixed point of
    oracles.survivor_flags: same verdicts, and witnesses equal to the greedy
    walk through the survivors, whatever order the queries fill the memo in."""

    @given(
        st.sampled_from(QUADRATICS),
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=6, unique=True
        ),
        st.data(),
    )
    @settings(max_examples=120)
    def test_shuffled_queries_on_one_memo(self, poly, digits, data):
        ds = DigitSystem(poly, digits)
        # a negated copy has the same difference set, so it shares the memo
        twin = DigitSystem(poly, [(-l, -k) for l, k in digits])
        box, flags = survivor_flags(poly, ds.differences)
        alive = flagged_states(box, flags)
        near = st.tuples(
            st.integers(-box.l_max - 1, box.l_max + 1), st.integers(-box.k_max - 1, box.k_max + 1)
        )
        queries = data.draw(st.lists(st.tuples(near, st.booleans()), min_size=1, max_size=60))
        cold_caches()
        for delta, on_twin in queries:
            outcome = decide_membership(twin if on_twin else ds, delta)
            assert (outcome.member, outcome.witness) == greedy_walk(ds, alive, delta), delta
        shared = membership._survivor_set(poly, ds.differences)
        for system in (ds, twin):
            assert system._search_memo is None or system._search_memo is shared
        memo_agrees_with_oracle(shared[1], box, alive)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_box_state_in_three_orders(self, seed):
        rng = random.Random(seed)
        for poly in enumerate_expanding(3):
            for k in (1, -2, 5):
                ds = DigitSystem(poly, standard_digits(k))
                box, flags = survivor_flags(poly, ds.differences)
                alive = flagged_states(box, flags)
                states = box_states(box)
                rng.shuffle(states)
                cold_caches()
                for s in states:
                    outcome = decide_membership(ds, s)
                    assert (outcome.member, outcome.witness) == greedy_walk(ds, alive, s), s
                memo = ds._search_memo[1]
                assert min(memo) >= membership._DEAD  # every state settled
                memo_agrees_with_oracle(memo, box, alive)

    def test_memo_resolved_once_per_digit_system(self, monkeypatch):
        calls = []
        original = membership._survivor_set

        def counted(poly, dd):
            calls.append(poly)
            return original(poly, dd)

        monkeypatch.setattr(membership, "_survivor_set", counted)
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        for s in box_states(box_of(ds)):
            decide_membership(ds, s)
        assert len(calls) == 1
        decide_membership(DigitSystem(CharPoly(1, 3), standard_digits(1)), (0, 0))
        assert len(calls) == 2

    def test_memos_bounded_by_the_states_they_hold(self, monkeypatch):
        # 30 systems hold 2222 box states between them, the largest 207.
        # With that as the budget, the cache is emptied exactly when the next
        # memo would take it past 207 states; model holds the sizes of the
        # memos built since then.  A system keeps its memo and still answers.
        cold_caches()
        monkeypatch.setattr(membership, "MAX_BOX_STATES", 207)
        info = membership._survivor_set.cache_info
        systems = [DigitSystem(poly, standard_digits(k))
                   for k in (1, 2, 3) for poly in enumerate_expanding(3)]
        model = {}
        emptied = 0
        for ds in systems:
            decide_membership(ds, (0, 0))
            n_states = len(ds._search_memo[1])
            if sum(model.values()) + n_states > 207:
                model = {}
                emptied += 1
            model[ds] = n_states
            assert membership._held_states == sum(model.values()) <= 207
            assert info().currsize == len(model)
        assert emptied == 13
        first = systems[0]
        assert first not in model
        alive = flagged_states(*survivor_flags(first.poly, first.differences))
        for s in box_states(box_of(first)):
            outcome = decide_membership(first, s)
            assert (outcome.member, outcome.witness) == greedy_walk(first, alive, s), s
        twin = DigitSystem(first.poly, first.digits)
        decide_membership(twin, (0, 0))
        assert twin._search_memo is not first._search_memo

    @given(
        st.sampled_from(QUADRATICS),
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-8, 8)), min_size=2, max_size=4, unique=True
        ),
    )
    @example(CharPoly(2, 3), list(standard_digits(4)))
    @example(CharPoly(0, -3), list(standard_digits(-5)))
    @example(CharPoly(0, 5), list(standard_digits(3)))
    @settings(max_examples=80)
    def test_memo_starts_with_dead_states_marked(self, poly, digits):
        # states whose successors all leave the box are dead before any
        # search, the rest unknown; drawn so that some difference reaches
        # past k_max and the outer rows lose some w.l, which the middle
        # rows keep
        ds = DigitSystem(poly, digits)
        dd = ds.differences
        box = box_of(ds)
        assume(any(abs(w.k) > box.k_max for w in dd))
        assume(any(abs(poly.q * box.k_max + w.l) > box.l_max for w in dd))
        cold_caches()
        built, fresh = membership._survivor_set(poly, dd)
        assert built == box
        width = 2 * box.l_max + 1
        for l, k in box_states(box):
            image = coord_action(poly, (l, k))
            stays = any((image[0] - w.l, image[1] - w.k) in box for w in dd)
            entry = fresh[(k + box.k_max) * width + l + box.l_max]
            assert entry == (membership._UNKNOWN if stays else membership._DEAD), (l, k)

    def test_sweep_search_work_pinned(self):
        # sweep --k-range -20..20 from fresh memos: box states, states dead
        # before any search, states the searches settle dead, states alive
        cold_caches()
        box_total = born_dead = settled = alive = 0
        for k in [k for k in range(-20, 21) if k]:
            for poly in enumerate_expanding(3):
                ds = DigitSystem(poly, standard_digits(k))
                _, memo = membership._survivor_set(poly, ds.differences)
                box_total += len(memo)
                born_dead += memo.count(membership._DEAD)
                edge_graph(ds)
                assert ds._search_memo[1] is memo
                assert memo.count(membership._ON_PATH) == 0
                settled += memo.count(membership._DEAD)
                alive += len(memo) - memo.count(membership._DEAD) - memo.count(membership._UNKNOWN)
        assert (box_total, born_dead, settled - born_dead, alive) == (523_392, 177_336, 12_838, 6_210)

    def test_choice_fits_a_memo_entry(self):
        # dd has at most 2 * MAX_DIGIT_PAIRS + 1 entries
        assert membership._ALIVE + 2 * lattice.MAX_DIGIT_PAIRS < 2**16

    @pytest.mark.parametrize("reads", [0, 3, 17, 40])
    def test_interrupted_search_leaves_no_path_behind(self, reads):
        # each search reads dd through a sequence that raises after `reads`
        # item reads; whatever it leaves in the memo must agree with the
        # survivor oracle, and real queries on that memo must give the
        # greedy witnesses
        ds = DigitSystem(CharPoly(1, 3), standard_digits(2))
        dd = ds.differences
        cold_caches()
        box, memo = membership._survivor_set(ds.poly, dd)
        alive = flagged_states(*survivor_flags(ds.poly, dd))
        width = 2 * box.l_max + 1

        class Interrupting:
            def __init__(self):
                self.left = reads

            def __len__(self):
                return len(dd)

            def __getitem__(self, j):
                if not self.left:
                    raise KeyboardInterrupt
                self.left -= 1
                return dd[j]

        interrupted = 0
        for l, k in box_states(box):
            if memo[(k + box.k_max) * width + l + box.l_max] == membership._UNKNOWN:
                try:
                    membership._search(ds.poly, Interrupting(), box, memo, l, k)
                except KeyboardInterrupt:
                    interrupted += 1
                memo_agrees_with_oracle(memo, box, alive)
        assert interrupted
        ds._search_memo = (box, memo)
        for s in box_states(box):
            outcome = decide_membership(ds, s)
            assert (outcome.member, outcome.witness) == greedy_walk(ds, alive, s), s
        assert min(memo) >= membership._DEAD
        memo_agrees_with_oracle(memo, box, alive)


class TestOracleEquivalence:
    @pytest.mark.parametrize("k", [1, -1, 2, -2])
    def test_decider_matches_brute_force(self, k):
        for poly in enumerate_expanding(3):
            ds = DigitSystem(poly, standard_digits(k))
            box = box_of(ds)
            cycles = oracle_cycle_states(ds, box)
            for s in box_states(box):
                expected = oracle_member(ds, s, cycles, box)
                assert decide_membership(ds, LatticeVec(*s)).member == expected, (poly, k, s)


class TestEdgeGraph:
    def test_q3_k1_has_both_edges_to_zero(self):
        ds = DigitSystem(CharPoly(0, 3), standard_digits(1))
        graph = edge_graph(ds)
        assert (0, 1) in graph.edges and (0, 2) in graph.edges

    def test_q3_k2_isolates_scaled_digit(self):
        ds = DigitSystem(CharPoly(0, 3), standard_digits(2))
        graph = edge_graph(ds)
        assert all(2 not in edge for edge in graph.edges)

    def test_singleton_graph(self):
        ds = DigitSystem(CharPoly(1, 3), [(0, 0)])
        assert edge_graph(ds).edges == frozenset()

    def test_pair_budget_checked_before_differences(self):
        # 142 digits make 10011 pairs, one digit past the budget
        ds = DigitSystem(CharPoly(1, 3), [(i, 0) for i in range(142)])
        with pytest.raises(ValueError, match=f"pair budget of {lattice.MAX_DIGIT_PAIRS}"):
            edge_graph(ds)
        assert ds._differences is None

    def test_pair_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(lattice, "MAX_DIGIT_PAIRS", 3)
        assert edge_graph(DigitSystem(CharPoly(1, 3), standard_digits(1))).connected
        with pytest.raises(ValueError, match="6 digit pairs exceed"):
            edge_graph(DigitSystem(CharPoly(1, 3), [(0, 0), (1, 0), (0, 1), (1, 1)]))


@pytest.mark.parametrize(
    "use",
    [
        lambda ds: decide_membership(ds, LatticeVec(1, 0)),
        lambda ds: state_box(ds, series_sums(ds.poly)),
        lambda ds: verify_witness(ds, LatticeVec(1, 0), Witness((), (LatticeVec(0, 0),))),
    ],
    ids=["decide_membership", "state_box", "verify_witness"],
)
def test_pair_budget_bounds_every_difference_set(use):
    # the budget sits on the difference set, so no caller builds one past it
    ds = DigitSystem(CharPoly(1, 3), [(i, 0) for i in range(142)])
    with pytest.raises(ValueError, match="10011 digit pairs exceed the pair budget of 10000"):
        use(ds)
    assert ds._differences is None


def bfs_connected(ds):
    """Reference verdict: BFS from digit 0 over pairwise membership answers."""
    n = len(ds.digits)
    adjacent = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and decide_membership(ds, ds.digits[i] - ds.digits[j]).member
    }
    reached = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in range(n):
            if (i, j) in adjacent and j not in reached:
                reached.add(j)
                queue.append(j)
    return len(reached) == n


class TestIsConnected:
    # 4- and 5-digit systems: connected ones whose spanning growth needs more
    # than one pass over the sorted edges, and disconnected ones with edges
    @pytest.mark.parametrize(
        "pq,digits,expected",
        [
            ((3, 3), [(0, -1), (1, 2), (1, -2), (2, -2)], True),
            ((-4, 4), [(-2, -2), (-2, 1), (2, -1), (1, -2)], True),
            ((4, 5), [(-2, 0), (1, 1), (-1, -2), (-2, -1), (0, -1)], True),
            ((-5, 5), [(1, 2), (-2, -2), (1, -2), (-1, 1)], False),
            ((2, -5), [(0, 0), (2, -2), (-2, 2), (-1, 0), (1, -1)], False),
        ],
    )
    def test_many_digits_match_bfs(self, pq, digits, expected):
        ds = DigitSystem(CharPoly(*pq), digits)
        assert bfs_connected(ds) == expected
        assert is_connected(ds) == expected

    @pytest.mark.parametrize("det_abs", range(2, 21))
    def test_consecutive_collinear_digits_connected(self, det_abs):
        # {0, v, ..., (|q| - 1) v} is connected for every expanding quadratic
        # (Kirat & Lau 2000; Kirat, Lau & Rao 2004): 798 polynomials here
        for poly in enumerate_expanding(det_abs):
            ds = DigitSystem(poly, [(i, 0) for i in range(abs(poly.q))])
            assert is_connected(ds), poly

    def test_examples(self):
        assert is_connected(DigitSystem(CharPoly(1, 3), standard_digits(1)))
        assert not is_connected(DigitSystem(CharPoly(1, 3), standard_digits(2)))
        assert is_connected(DigitSystem(CharPoly(1, -3), standard_digits(-1)))

    def test_single_digit_connected(self):
        assert is_connected(DigitSystem(CharPoly(1, 3), [(0, 0)]))

    @given(
        st.sampled_from(QUADRATICS),
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=5, unique=True
        ),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=25)
    def test_translation_invariance(self, poly, digits, shift):
        # the verdict only depends on digit differences, and negating every
        # digit leaves the (symmetric) difference set as it is
        verdict = is_connected(DigitSystem(poly, digits))
        moved = [(l + shift[0], k + shift[1]) for l, k in digits]
        assert is_connected(DigitSystem(poly, moved)) == verdict
        assert is_connected(DigitSystem(poly, [(-l, -k) for l, k in digits])) == verdict

    @given(
        st.sampled_from(QUADRATICS),
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=5, unique=True
        ),
    )
    @settings(max_examples=50)
    def test_sign_mirror(self, poly, digits):
        # (l, k) -> (l, -k) conjugates A into -A', A' the companion matrix of
        # x^2 - p*x + q, and sends T - T onto T' - T' (the difference set is
        # symmetric, so the alternating signs drop out); the generic form of
        # the mirror (p, k) <-> (-p, -k)
        mirrored = DigitSystem(CharPoly(-poly.p, poly.q), [(l, -k) for l, k in digits])
        assert is_connected(mirrored) == is_connected(DigitSystem(poly, digits))

    @staticmethod
    def check_commutant_law(poly, digits, a, b, skip_over_budget=False):
        # P = aI + bA commutes with A, so when det P = a^2 - pab + qb^2 != 0,
        # T(A, PD) = P T(A, D): d_i - d_j lies in T - T exactly when
        # P(d_i - d_j) lies in the image system's, and P maps each witness
        # word to one of the image system
        p, q = poly
        assume(a * a - p * a * b + q * b * b != 0)

        def image(vec):
            l, k = vec
            return LatticeVec(a * l - q * b * k, a * k + b * l - p * b * k)

        ds = DigitSystem(poly, digits)
        mapped = DigitSystem(poly, [image(d) for d in ds.digits])
        if skip_over_budget:  # a box past the state budget is refused, not decided
            for system in (ds, mapped):
                l_max, k_max = box_of(system)
                assume((2 * l_max + 1) * (2 * k_max + 1) <= membership.MAX_BOX_STATES)
        graph, mapped_graph = edge_graph(ds), edge_graph(mapped)
        assert mapped_graph.edges == graph.edges
        for (i, j), witness in graph.witnesses.items():
            word = Witness(tuple(map(image, witness.preperiod)), tuple(map(image, witness.period)))
            assert verify_witness(mapped, mapped.digits[i] - mapped.digits[j], word)

    @given(
        st.sampled_from(QUADRATICS),
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=5, unique=True
        ),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_commutant_law(self, poly, digits, a, b):
        self.check_commutant_law(poly, digits, a, b)

    # every expanding quadratic with |q| up to 30 (1798 of them) and digits
    # in [-3, 3]^2; about 3% of the draws put a box past the state budget
    @given(
        st.sampled_from(WIDE_QUADRATICS),
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=5, unique=True
        ),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    @settings(max_examples=300, deadline=None)
    def test_commutant_law_wide(self, poly, digits, a, b):
        self.check_commutant_law(poly, digits, a, b, skip_over_budget=True)

    def test_witness_words_stay_in_difference_set(self):
        ds = DigitSystem(CharPoly(3, 3), standard_digits(-1))
        dd = set(ds.differences)
        for i in range(3):
            for j in range(i + 1, 3):
                outcome = decide_membership(ds, ds.digits[i] - ds.digits[j])
                if outcome.member:
                    for d in outcome.witness.preperiod + outcome.witness.period:
                        assert d in dd


def test_difference_set_built_once_per_digit_system():
    cold_caches()
    info = lattice._graded_differences.cache_info
    ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
    assert info().misses == 0  # building a system does not build its difference set
    graph = edge_graph(ds)
    for (i, j), witness in graph.witnesses.items():
        assert verify_witness(ds, ds.digits[i] - ds.digits[j], witness)
    survivors(ds)
    box_of(ds)
    # an equal system, and the same digits under another polynomial, take
    # the set already built
    twin = DigitSystem(CharPoly(1, 3), [(0, 0), (1, 0), (0, 1)])
    assert edge_graph(twin) == graph
    edge_graph(DigitSystem(CharPoly(-1, -3), standard_digits(1)))
    assert twin.differences is ds.differences
    assert info().misses == info().currsize == 1


class TestDecidedOnce:
    """A DigitSystem keeps its edge graph and its verified member outcomes,
    so asking it again repeats no search and no witness replay."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"search": 0, "replay": 0}
        search, replay = membership._search, membership._replays

        def counted_search(*args):
            counts["search"] += 1
            return search(*args)

        def counted_replay(*args):
            counts["replay"] += 1
            return replay(*args)

        monkeypatch.setattr(membership, "_search", counted_search)
        monkeypatch.setattr(membership, "_replays", counted_replay)
        return counts

    def test_edge_graph_is_kept(self):
        ds = DigitSystem(CharPoly(1, 3), standard_digits(1))
        assert edge_graph(ds) is edge_graph(ds)

    def test_is_connected_after_edge_graph_decides_nothing(self, counts):
        ds = DigitSystem(CharPoly(1, 3), [(0, 0), (1, 0), (0, 1), (2, 2)])
        graph = edge_graph(ds)
        assert counts["search"] and counts["replay"]
        before = dict(counts)
        assert is_connected(ds) == graph.connected
        assert counts == before

    def test_repeated_query_replays_once(self, counts):
        ds = DigitSystem(CharPoly(0, 3), standard_digits(1))
        first = decide_membership(ds, (1, 0))
        assert first.member and counts["replay"] == 1
        again = decide_membership(ds, LatticeVec(1, 0))
        assert again == first and counts["replay"] == 1
        assert len(ds._member_outcomes) == 1

    def test_outside_the_box_adds_no_entry(self):
        ds = DigitSystem(CharPoly(0, 3), standard_digits(1))
        assert decide_membership(ds, (0, 0)).member
        box = box_of(ds)
        for delta in [(box.l_max + 1, 0), (0, -box.k_max - 1)]:
            assert not decide_membership(ds, delta).member
        assert list(ds._member_outcomes) == [box.k_max * (2 * box.l_max + 1) + box.l_max]

    def test_graph_witnesses_are_read_only(self):
        graph = edge_graph(DigitSystem(CharPoly(0, 3), standard_digits(1)))
        with pytest.raises(TypeError):
            graph.witnesses[(0, 1)] = graph.witnesses[(0, 2)]
        with pytest.raises(TypeError):
            del graph.witnesses[(0, 1)]



def test_frozen_witness_digest():
    # 600 seeded systems over |q| in 2..6 with 2-5 digits in [-2, 2]^2, four
    # queries each: one digit difference, two box states and one state just
    # outside the box.  The digest covers every verdict and witness word, so
    # any change to the walk order or the survivor set shows here.
    rng = random.Random(20261018)
    cells = [(l, k) for l in range(-2, 3) for k in range(-2, 3)]
    digest = hashlib.sha256()
    members = 0
    for _ in range(600):
        ds = DigitSystem(rng.choice(QUADRATICS), rng.sample(cells, rng.randint(2, 5)))
        box = box_of(ds)
        i, j = rng.sample(range(len(ds.digits)), 2)
        deltas = [ds.digits[i] - ds.digits[j]]
        for _ in range(2):
            deltas.append(
                LatticeVec(rng.randint(-box.l_max, box.l_max), rng.randint(-box.k_max, box.k_max))
            )
        deltas.append(
            LatticeVec(rng.randint(-box.l_max, box.l_max), rng.choice((-1, 1)) * (box.k_max + 1))
        )
        for delta in deltas:
            outcome = decide_membership(ds, delta)
            w = outcome.witness
            members += outcome.member
            record = (
                outcome.member,
                w and [tuple(d) for d in w.preperiod],
                w and [tuple(d) for d in w.period],
            )
            digest.update(repr(record).encode())
    assert members == 661
    assert digest.hexdigest() == (
        "20e819bd9603379d5c724fb1004fb1f6436c43b8d4fd6bc8ae3eaa90765673e3"
    )
