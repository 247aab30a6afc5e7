"""Reference implementations and helpers shared by the test modules."""

import math
from fractions import Fraction
from itertools import accumulate, chain, compress, islice
from operator import itemgetter, not_

from tileconn import lattice, membership
from tileconn.expansions import Witness
from tileconn.lattice import adj_action, coord_action, enumerate_expanding
from tileconn.membership import StateBox
from tileconn.render import ImageGrid, _axis_fit
from tileconn.series import envelope_numerators, series_sums

# every expanding quadratic with |q| in 2..6: 70 polynomials
QUADRATICS = [poly for det_abs in range(2, 7) for poly in enumerate_expanding(det_abs)]


def cold_caches():
    """Empty the shared difference sets and search memos, as a new process starts."""
    lattice._graded_differences.cache_clear()
    lattice._held_vectors = 0
    membership._survivor_set.cache_clear()
    membership._held_states = 0


def envelope(bounds, vecs):
    """The bounds of series.envelope_numerators on |l| and |k| as exact Fractions."""
    l_num, k_num = envelope_numerators(bounds, vecs)
    return (Fraction(l_num, bounds.alpha_upper.denominator),
            Fraction(k_num, bounds.beta_upper.denominator))


def box_states(box):
    """Every state (l, k) of the box, l-major."""
    return [
        (l, k)
        for l in range(-box.l_max, box.l_max + 1)
        for k in range(-box.k_max, box.k_max + 1)
    ]


def flagged_states(box, flags):
    """The states whose flag is set, decoding the k-major index
    (k + k_max) * width + (l + l_max) of one flag byte per box state."""
    width = 2 * box.l_max + 1
    return frozenset(
        (i % width - box.l_max, i // width - box.k_max) for i, flag in enumerate(flags) if flag
    )


def survivors_by_passes(poly, dd, margin):
    """Reference fixed point: drop states without a surviving successor in
    repeated full passes over the box, enlarged by margin on every side,
    until a pass changes nothing."""
    l_radius, k_radius = envelope(series_sums(poly), dd)
    box = StateBox(math.floor(l_radius) + margin, math.floor(k_radius) + margin)
    p, q = poly.p, poly.q
    alive = set(box_states(box))
    changed = True
    while changed:
        changed = False
        for s in list(alive):
            image_l = -q * s[1]
            image_k = s[0] - p * s[1]
            if not any((image_l - w.l, image_k - w.k) in alive for w in dd):
                alive.discard(s)
                changed = True
    return box, frozenset(alive)


def survivor_flags(poly, dd):
    """Reference greatest fixed point by worklist pruning: the state box and
    one flag byte per box state, at the k-major index of flagged_states.

    State (l, k) moves to (-q*k - w.l, l - p*k - w.k).  dd = -dd, so -s
    survives iff s does; -s has index last - index(s), and only the indices
    up to mid, the index of (0, 0), are pruned.  Within a row of fixed k the
    move by w stays in the box for one run of l, so a difference array per
    row counts the in-box successors of every state up to mid.
    """
    l_radius, k_radius = envelope(series_sums(poly), dd)
    box = StateBox(math.floor(l_radius), math.floor(k_radius))
    p, q = poly.p, poly.q
    l_max, k_max = box
    width = 2 * l_max + 1
    last = width * (2 * k_max + 1) - 1
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
    dead = list(compress(range(mid + 1), map(not_, counts)))
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


def greedy_walk(ds, alive, delta):
    """Reference verdict and witness, (member, witness or None), from the
    surviving states alive: from delta, step to the first surviving
    successor in the order of the difference set until a state repeats."""
    state = tuple(delta)
    if state not in alive:
        return False, None
    seen = {}
    word = []
    while state not in seen:
        seen[state] = len(word)
        image = coord_action(ds.poly, state)
        w = next(w for w in ds.differences if (image[0] - w.l, image[1] - w.k) in alive)
        word.append(w)
        state = (image[0] - w.l, image[1] - w.k)
    start = seen[state]
    return True, Witness(tuple(word[:start]), tuple(word[start:]))


def scaled_points(cfg):
    """All depth-level points as integer numerators over denominator |q|^depth.

    One inverse-matrix application per word extension:
    n' = adj(A) (d * q^t + n) keeps numerators integral, since
    A^{-1} = adj(A) / q with adj(A) = [[-p, q], [-1, 0]].
    """
    p, q = cfg.poly.p, cfg.poly.q
    points = [(0, 0)]
    q_t = 1
    for _ in range(cfg.depth):
        nxt = []
        for d in cfg.digits:
            dl = d.l * q_t
            dk = d.k * q_t
            for nl, nk in points:
                sl = dl + nl
                sk = dk + nk
                nxt.append((-p * sl + q * sk, -sl))
        points = nxt
        q_t *= q
    if q_t < 0:
        points = [(-a, -b) for a, b in points]
        q_t = -q_t
    return points, q_t


def cloud_by_levels(poly, levels):
    """render._cloud one level at a time: n' = adj(A) (d * q^t + n) for
    every level, a level holding only the zero digit included."""
    points = [(0, 0)]
    q_t = 1
    for digits in levels:
        points = [adj_action(poly, (l * q_t + n_l, k * q_t + n_k))
                  for l, k in digits for n_l, n_k in points]
        q_t *= poly.q
    return points


def rasterize_by_points(cfg):
    """Reference rasterization: the whole point cloud, its bounding box by
    min/max passes, and one pixel per point."""
    points, _ = scaled_points(cfg)
    margin = Fraction(str(cfg.margin))
    second = itemgetter(1)
    cs, ct, cd = _axis_fit(min(points)[0], max(points)[0], cfg.width, margin)
    rs, rt, rd = _axis_fit(
        min(points, key=second)[1], max(points, key=second)[1], cfg.height, margin
    )
    w = cfg.width
    top = (cfg.height - 1) * w  # image row 0 is the top
    marked = {top - (rs * b + rt) // rd * w + (cs * a + ct) // cd for a, b in points}
    pixels = bytearray(w * cfg.height)
    for idx in marked:
        pixels[idx] = 1
    return ImageGrid(w, cfg.height, pixels)
