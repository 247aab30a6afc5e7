"""Reference implementations shared by the test modules."""

import math

from tileconn.membership import StateBox
from tileconn.series import envelope, series_sums


def box_states(box):
    """Every state (l, k) of the box, l-major."""
    return [
        (l, k)
        for l in range(-box.l_max, box.l_max + 1)
        for k in range(-box.k_max, box.k_max + 1)
    ]


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
