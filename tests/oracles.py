"""Reference implementations shared by the test modules."""

import math
from fractions import Fraction
from operator import itemgetter

from tileconn.lattice import enumerate_expanding
from tileconn.membership import StateBox
from tileconn.render import ImageGrid, _axis_fit
from tileconn.series import envelope, series_sums

# every expanding quadratic with |q| in 2..6: 70 polynomials
QUADRATICS = [poly for det_abs in range(2, 7) for poly in enumerate_expanding(det_abs)]


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
