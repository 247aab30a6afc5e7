"""Exact membership decisions for lattice vectors in T - T.

T is the attractor of the digit system: the set of sums of A^{-i} d_i over
infinite digit strings.  A lattice vector delta lies in T - T exactly when
delta admits an infinite expansion in digits from the difference set, which
reduces to a finite-graph question: walk delta through the state map
s -> A s - w (w in the difference set) and ask for an infinite path.  Any
state on a valid walk is itself a vector of T - T, so all walks live inside
an analytic coordinate box derived from the certified series bounds; inside
that finite box the states admitting infinite paths are the greatest fixed
point of "has a successor that survives", kept as one flag byte per box
state.  The difference set is symmetric, so s survives exactly when -s
does, and a worklist prunes only the half of the box up to (0, 0), in time
linear in that half: it counts each state's in-box successors, and every
dead state lowers the counts of its predecessors once, standing in for its
twin -s as well.  Walking greedily through the survivors then yields an
eventually periodic witness word, which is re-checked by integer replay.

T is connected exactly when the digit graph is: digits d_i and d_j share an
edge when d_i - d_j lies in T - T.  edge_graph decides each digit pair once
and its result carries the whole decision for an instance: the edges, a
witness for each, a spanning set of edges and the connectedness verdict.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress, islice
from typing import NamedTuple, Optional

from .expansions import Witness, replays
from .lattice import CharPoly, DigitSystem, LatticeVec, coord_action
from .series import SeriesBounds, envelope, series_sums

# Largest state box _survivor_set will allocate: render's point budget, and
# over 300 times the largest box of sweep --k-range -20..20 (5985 states).
MAX_BOX_STATES = 2_000_000


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

    witnesses maps each edge to the verified witness word of d_i - d_j.
    spanning holds the edges that grow the component of digit 0, in the
    order repeated passes over the sorted edges add them; connected says
    whether that component holds every digit, which is exactly when the
    attractor is connected.
    """

    edges: frozenset[tuple[int, int]]
    witnesses: dict[tuple[int, int], Witness]
    spanning: tuple[tuple[int, int], ...]
    connected: bool


def _floored_envelope(bounds: SeriesBounds, dd) -> StateBox:
    l_radius, k_radius = envelope(bounds, dd)
    return StateBox(math.floor(l_radius), math.floor(k_radius))


def state_box(ds: DigitSystem, bounds: SeriesBounds) -> StateBox:
    """Box containing every lattice vector of T - T: the envelope of all
    expansions with digits from the difference set, floored."""
    return _floored_envelope(bounds, ds.differences)


@lru_cache(maxsize=None)
def _survivor_set(poly: CharPoly, dd: tuple[LatticeVec, ...]) -> tuple[StateBox, bytes]:
    box = _floored_envelope(series_sums(poly), dd)
    p, q = poly.p, poly.q
    l_max, k_max = box
    width = 2 * l_max + 1
    n_states = width * (2 * k_max + 1)
    if n_states > MAX_BOX_STATES:
        raise ValueError(
            f"state box of {n_states} states exceeds the budget of {MAX_BOX_STATES}"
        )
    # State (l, k) has index (k + k_max) * width + (l + l_max) and moves to
    # (-q*k - w.l, l - p*k - w.k).  dd = -dd, so -s survives iff s does; -s
    # has index last - index(s), and only the indices up to mid, the index
    # of (0, 0), are pruned.  Within a row of fixed k the move by w stays in
    # the box for one run of l, so a difference array per row counts the
    # in-box successors of every state up to mid.
    last = n_states - 1
    mid = last // 2
    rows = []
    for k in range(-k_max, 1):
        diff = [0] * (width + 1)
        for w in dd:
            if abs(q * k + w.l) <= l_max:
                lo = max(p * k + w.k - k_max, -l_max)
                hi = min(p * k + w.k + k_max, l_max)
                if lo <= hi:
                    diff[lo + l_max] += 1
                    diff[hi + l_max + 1] -= 1
        rows.append(islice(accumulate(diff), width))
    counts = list(islice(chain.from_iterable(rows), mid + 1))

    # A state t has a predecessor via w exactly when q divides t.l + w.l:
    # then k = -(t.l + w.l)/q and l = t.k + w.k + p*k.  preds[t.l + l_max]
    # lists, per such w with k in the box, the run of t.k + k_max whose
    # predecessor l is in the box too, and the index shift to it.
    preds = []
    for t_l in range(-l_max, l_max + 1):
        entry = []
        for w in dd:
            if (t_l + w.l) % q == 0:
                k = -(t_l + w.l) // q
                if -k_max <= k <= k_max:
                    offset = w.k + p * k - k_max  # l - (t.k + k_max)
                    shift = (k + k_max) * width + l_max + offset
                    entry.append((-l_max - offset, l_max - offset, shift))
        preds.append(entry)

    # Kill states whose successors are all dead: a dead state t <= mid
    # stands for -t too, so it lowers the count of each predecessor once,
    # and a predecessor s past mid stands for -s, a predecessor of -t.
    # (0, 0) precedes both t and -t but is lowered once: dd holds 0, so it
    # is its own successor and never dies, and its count need not be exact.
    dead = list(compress(range(mid + 1), map(operator.not_, counts)))
    while dead:
        a, b = divmod(dead.pop(), width)
        for lo, hi, shift in preds[b]:
            if lo <= a <= hi:
                i = a + shift
                if i > mid:
                    i = last - i
                counts[i] -= 1
                if not counts[i]:
                    dead.append(i)
    half = bytes(map(bool, counts))
    return box, half + half[-2::-1]


def decide_membership(ds: DigitSystem, delta: LatticeVec) -> MembershipOutcome:
    """Decide delta in T - T; members come with a verified periodic witness.

    Raises ValueError when the state box holds more than MAX_BOX_STATES
    states, or the digits make more than lattice.MAX_DIGIT_PAIRS pairs.
    """
    delta = LatticeVec(int(delta[0]), int(delta[1]))
    dd = ds.differences
    (l_max, k_max), alive = _survivor_set(ds.poly, dd)
    width = 2 * l_max + 1
    mid = k_max * width + l_max  # the flag index of (0, 0)
    l, k = delta
    if not (abs(l) <= l_max and abs(k) <= k_max and alive[k * width + l + mid]):
        return MembershipOutcome(False, None)

    # dd is in graded order, so the zero digit is tried first and the
    # all-zero word wins for delta = 0
    seen: dict[tuple[int, int], int] = {}
    word: list[LatticeVec] = []
    state = tuple(delta)
    while state not in seen:
        seen[state] = len(word)
        image = coord_action(ds.poly, state)
        for w in dd:
            l, k = image[0] - w.l, image[1] - w.k
            if abs(l) <= l_max and abs(k) <= k_max and alive[k * width + l + mid]:
                word.append(w)
                state = (l, k)
                break
        else:
            raise AssertionError("survivor state lost all successors")
    start = seen[state]
    witness = Witness(tuple(word[:start]), tuple(word[start:]))
    if not replays(ds.poly, delta, witness):
        raise AssertionError(f"extracted witness failed integer replay for {delta}")
    return MembershipOutcome(True, witness)


def edge_graph(ds: DigitSystem) -> EdgeGraph:
    """Decide every digit pair once and grow the component of digit 0."""
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
    return EdgeGraph(frozenset(witnesses), witnesses, tuple(spanning), len(reached) == len(digits))


def is_connected(ds: DigitSystem) -> bool:
    """True iff the edge graph links all digits into one component.

    The attractor is connected exactly in that case, and the verdict only
    depends on the difference set, so translating all digits by a common
    vector never changes it.
    """
    return edge_graph(ds).connected
