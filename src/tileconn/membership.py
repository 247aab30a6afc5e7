"""Exact membership decisions for lattice vectors in T - T.

T is the attractor of the digit system: the set of sums of A^{-i} d_i over
infinite digit strings.  A lattice vector delta lies in T - T exactly when
it has an infinite walk s -> A s - w with w in the difference set dd.  Every
state of such a walk lies in T - T, so in a coordinate box derived from the
certified series bounds, and delta is a member exactly when its walks in
that finite box reach a cycle.  A depth-first search from delta answers
this, building the neighbour graph of Scheicher & Thuswaldner (2002) on
demand.  It tries successors in the graded order of dd and stops at the
first one on its path or known alive.  A state whose successors all leave
the box or are dead is dead, and so is its negation, as dd = -dd.  The
searches for one (polynomial, dd) share a memo of every box state.  A live
state records its first successor that is not dead, which is its first live
one, so the records trace the greedy walk through the live states; its
eventually periodic word is the witness, re-checked by integer replay.

T is connected exactly when the digit graph is: digits d_i and d_j share an
edge when d_i - d_j lies in T - T.  edge_graph decides each digit pair once
and its result carries the whole decision for an instance: the edges, a
witness for each, a spanning set of edges and the connectedness verdict.

Each DigitSystem keeps, in attributes beside its difference set, what was
decided for it: the search memo, its edge graph and the verified outcome of
every member delta, by box index.  They go when it goes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import combinations
from operator import index
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .expansions import Witness, _replays
from .lattice import CharPoly, DigitSystem, LatticeVec
from .series import SeriesBounds, envelope_numerators, series_sums

# Largest state box _survivor_set will allocate: render's point budget, and
# over 300 times the largest box of sweep --k-range -20..20 (5985 states).
MAX_BOX_STATES = 2_000_000
# Most box states the memos shared across digit systems hold together
MEMO_BUDGET = 4 * MAX_BOX_STATES


class StateBox(NamedTuple):
    """Symmetric coordinate box |l| <= l_max, |k| <= k_max."""

    l_max: int
    k_max: int

    def __contains__(self, vec) -> bool:
        return abs(vec[0]) <= self.l_max and abs(vec[1]) <= self.k_max


class MembershipOutcome(NamedTuple):
    member: bool
    witness: Optional[Witness]


class EdgeGraph(NamedTuple):
    """Digits as vertices; an edge i-j (i < j) means d_i - d_j lies in T - T.

    witnesses maps each edge to the verified witness word of d_i - d_j, read-only.
    spanning holds the edges that grow the component of digit 0, in the
    order repeated passes over the sorted edges add them; connected says
    whether that component holds every digit, which is exactly when the
    attractor is connected.
    """

    edges: frozenset[tuple[int, int]]
    witnesses: Mapping[tuple[int, int], Witness]
    spanning: tuple[tuple[int, int], ...]
    connected: bool


def _floored_envelope(bounds: SeriesBounds, dd) -> StateBox:
    l_num, k_num = envelope_numerators(bounds, dd)
    return StateBox(l_num // bounds.alpha_upper.denominator, k_num // bounds.beta_upper.denominator)


def state_box(ds: DigitSystem, bounds: SeriesBounds) -> StateBox:
    """Box containing every lattice vector of T - T: the envelope of all
    expansions with digits from the difference set, floored."""
    return _floored_envelope(bounds, ds.differences)


# Memo entries: unknown, on the search path, dead, or alive and going on by dd[entry - _ALIVE]
_UNKNOWN, _ON_PATH, _DEAD, _ALIVE = range(4)
_NOT_MEMBER = MembershipOutcome(False, None)
_memos: dict[tuple, tuple[StateBox, array]] = {}  # (poly, dd) -> box, memo; least recent first
_memo_states = 0  # box states held in _memos


def _survivor_set(poly: CharPoly, dd: tuple[LatticeVec, ...]) -> tuple[StateBox, array]:
    """The state box of (poly, dd) and the memo its searches share, one entry
    per state at index (k + k_max) * width + (l + l_max); states with no
    in-box successor start dead.  Past MEMO_BUDGET states the least recently
    used memos go.  The name predates the search: the benchmark spans it."""
    global _memo_states
    key = (poly, dd)
    if key in _memos:  # moved to the most recent end
        return _memos.setdefault(key, _memos.pop(key))
    l_max, k_max = box = _floored_envelope(series_sums(poly), dd)
    p, q = poly.p, poly.q
    width = 2 * l_max + 1
    n_states = width * (2 * k_max + 1)
    if n_states > MAX_BOX_STATES:
        raise ValueError(f"state box of {n_states} states exceeds the budget of {MAX_BOX_STATES}")
    # (l, k) moves by w to (-q*k - w.l, l - p*k - w.k), in the box when w.l
    # lies within l_max of -q*k and l - p*k within k_max of w.k.  The w.l
    # row k allows are a run of the sorted distinct w.l, and the rows that
    # allow the same run are consecutive, as -q*k moves one way.  Such a band
    # of rows shares one pattern over x = l - p*k, unknown on the union of
    # [w.k - k_max, w.k + k_max], and each row copies its window of it.  The
    # entry of -s, at index n_states - 1 - index(s), mirrors that of s, so
    # the rows past k = 0 are copied.
    memo = array("H", [_DEAD]) * n_states
    unknown = array("H", [_UNKNOWN]) * (2 * k_max + 1)
    wks_by_wl: dict[int, set[int]] = {}
    for wl, wk in dd:
        wks_by_wl.setdefault(wl, set()).add(wk)
    wls = sorted(wks_by_wl)
    band = None
    for row, k in enumerate(range(-k_max, 1)):
        run = bisect_left(wls, -q * k - l_max), bisect_right(wls, l_max - q * k)
        if run != band:
            band = run
            wks = set().union(*(wks_by_wl[wl] for wl in wls[run[0] : run[1]]))
            x0 = min(wks, default=0) - k_max
            pattern = array("H", [_DEAD]) * (max(wks) + k_max + 1 - x0 if wks else 0)
            for wk in wks:
                pattern[wk - k_max - x0 : wk + k_max + 1 - x0] = unknown
        lo = max(x0 + p * k, -l_max)
        hi = min(x0 + p * k + len(pattern) - 1, l_max)
        if lo <= hi:
            base = row * width + l_max
            memo[base + lo : base + hi + 1] = pattern[lo - p * k - x0 : hi - p * k - x0 + 1]
    mid = n_states // 2  # the index of (0, 0)
    memo[mid + 1 :] = memo[:mid][::-1]
    while _memos and _memo_states + n_states > MEMO_BUDGET:
        _memo_states -= len(_memos.pop(next(iter(_memos)))[1])
    _memos[key] = found = box, memo
    _memo_states += n_states
    return found


def _search(poly: CharPoly, dd, box: StateBox, memo: array, l: int, k: int) -> None:
    """Settle the unknown entry of state (l, k) by depth-first search.  States
    die after all their in-box successors, so no dead state has an infinite walk.

    An exception that cuts the search short puts the states of its path back
    to unknown, so later searches through the shared memo start clean."""
    p, q = poly.p, poly.q
    l_max, k_max = box
    l_min, k_min = -l_max, -k_max
    width = 2 * l_max + 1
    mid = k_max * width + l_max
    i, il, ik, j = k * width + l + mid, -q * k, l - p * k, 0
    stack = []  # the states below the top of the path: index, image, choice
    try:
        memo[i] = _ON_PATH
        while True:
            for j in range(j, len(dd)):
                l, k = il - dd[j][0], ik - dd[j][1]
                if l_min <= l <= l_max and k_min <= k <= k_max:
                    t = k * width + l + mid
                    if memo[t] != _DEAD:
                        break
            else:
                memo[i] = memo[2 * mid - i] = _DEAD
                if not stack:
                    return
                i, il, ik, j = stack[-1]  # still on the stack until i holds it
                del stack[-1]
                j += 1
                continue
            if memo[t] == _UNKNOWN:
                stack.append((i, il, ik, j))
                i, il, ik, j = t, -q * k, l - p * k, 0
                memo[i] = _ON_PATH
                continue
            memo[i] = _ALIVE + j
            for s, _, _, js in stack:
                memo[s] = _ALIVE + js
            return
    except BaseException:
        memo[i] = _UNKNOWN
        for s, _, _, _ in stack:
            memo[s] = _UNKNOWN
        raise


def decide_membership(ds: DigitSystem, delta: LatticeVec) -> MembershipOutcome:
    """Decide delta in T - T; members come with a verified periodic witness.

    Raises ValueError when the state box holds more than MAX_BOX_STATES
    states, or the digits make more than lattice.MAX_DIGIT_PAIRS pairs, and
    TypeError when a coordinate of delta is not an integer.
    """
    delta = LatticeVec(index(delta[0]), index(delta[1]))
    if ds._search_memo is None:
        ds._search_memo = _survivor_set(ds.poly, ds.differences)
    box, memo = ds._search_memo
    l_max, k_max = box
    l, k = delta
    if abs(l) > l_max or abs(k) > k_max:
        return _NOT_MEMBER
    width = 2 * l_max + 1
    mid = k_max * width + l_max
    i = k * width + l + mid
    if memo[i] == _UNKNOWN:
        _search(ds.poly, ds.differences, box, memo, l, k)
    if memo[i] == _DEAD:
        return _NOT_MEMBER
    outcomes = ds._member_outcomes
    if outcomes is None:
        outcomes = ds._member_outcomes = {}
    elif i in outcomes:
        return outcomes[i]
    # dd is in graded order, so the all-zero word wins for delta = 0
    dd = ds.differences
    p, q = ds.poly
    seen: dict[int, int] = {}
    word: list[LatticeVec] = []
    at = i
    while i not in seen:
        seen[i] = len(word)
        w = dd[memo[i] - _ALIVE]
        word.append(w)
        l, k = -q * k - w.l, l - p * k - w.k
        i = k * width + l + mid
    start = seen[i]
    witness = Witness(tuple(word[:start]), tuple(word[start:]))
    if not _replays(ds.poly, delta, witness):
        raise AssertionError(f"extracted witness failed integer replay for {delta}")
    outcomes[at] = outcome = MembershipOutcome(True, witness)
    return outcome


def edge_graph(ds: DigitSystem) -> EdgeGraph:
    """Decide every digit pair once, grow the component of digit 0, keep the graph on ds."""
    if ds._edge_graph is not None:
        return ds._edge_graph
    digits = ds.digits
    witnesses = {}
    for i, j in combinations(range(len(digits)), 2):
        outcome = decide_membership(ds, digits[i] - digits[j])
        if outcome.member:
            witnesses[(i, j)] = outcome.witness
    reached = {0}
    spanning = []
    grew = True
    while grew:
        grew = False
        for edge in witnesses:  # filled in sorted order
            if (edge[0] in reached) != (edge[1] in reached):
                reached.update(edge)
                spanning.append(edge)
                grew = True
    graph = ds._edge_graph = EdgeGraph(
        frozenset(witnesses), MappingProxyType(witnesses), tuple(spanning), len(reached) == len(digits)
    )
    return graph


def is_connected(ds: DigitSystem) -> bool:
    """True iff the edge graph links all digits into one component.

    The attractor is connected exactly in that case, and the verdict only
    depends on the difference set, so translating all digits by a common
    vector never changes it.
    """
    return edge_graph(ds).connected
