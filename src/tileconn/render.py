"""Deterministic raster images of attractor point clouds.

The plane realization fixes A as the companion matrix [[0, -q], [1, -p]]
with v = (1, 0), so a lattice coordinate pair is its own plane vector.  All
finite-depth points sum A^{-i} d_i (i <= depth) over digit words share the
denominator q^depth, so the whole pipeline - point generation, bounding
box, affine fit, pixel rounding - runs in exact integer arithmetic and the
output bytes are identical on every platform and run.  Rounding to pixels
is half-away-from-zero.  Images are binary P6 PPM, black points on white.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple

from .lattice import CharPoly, DigitSystem, LatticeVec, adj_action

POINT_BUDGET = 2_000_000
PIXEL_BUDGET = 4096 * 4096

# PPM grey level of a pixel value: 0 (unset) is white, anything else black
_GREY = bytes([255]) + bytes(255)
_RUN = re.compile(rb"[^\x00]+")  # a run of set pixels
_WRITE_BLOCK = 1 << 14  # pixels write_image holds at a time, in whole rows: bounds its memory


class _RenderFields(NamedTuple):
    poly: CharPoly
    digits: tuple[LatticeVec, ...]
    depth: int
    width: int
    height: int
    margin: float


class RenderConfig(_RenderFields):
    """A render request; digits are normalized and the budgets checked."""

    __slots__ = ()

    def __new__(cls, poly: CharPoly, digits, depth: int = 9, width: int = 512,
                height: int = 512, margin: float = 0.05) -> "RenderConfig":
        digits = DigitSystem(poly, digits).digits  # reuse digit/polynomial validation
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if width < 16 or height < 16:
            raise ValueError("image must be at least 16x16")
        if width * height > PIXEL_BUDGET:
            raise ValueError(f"image of {width}x{height} exceeds the pixel budget of {PIXEL_BUDGET}")
        if not (0 <= margin < 0.5):
            raise ValueError("margin must lie in [0, 0.5)")
        # Past the budget's bit length even two digits exceed it.  Checking
        # the depth first keeps the power small and stops a one-digit
        # system, one point at any depth, from looping depth times.
        n = len(digits)
        if depth > POINT_BUDGET.bit_length() or n**depth > POINT_BUDGET:
            raise ValueError(
                f"depth {depth} with {n} digits exceeds the point budget of {POINT_BUDGET}"
            )
        return super().__new__(cls, poly, digits, depth, width, height, margin)


class ImageGrid(NamedTuple):
    width: int
    height: int
    pixels: bytearray  # row-major, 1 marks a set pixel


def default_filename(poly: CharPoly, k: int, depth: int) -> str:
    return f"tile_p{poly.p}_q{poly.q}_k{k}_d{depth}.ppm"


def _cloud(poly: CharPoly, levels) -> list[tuple[int, int]]:
    """Numerators sum_t adj^(L-t)(d_t * q^t), one per choice of d_t in levels[t].

    Over the denominator q^L, L = len(levels), these are the points
    sum_t A^{-(L-t)} d_t.  One step n' = adj(A) (d * q^t + n) per level
    keeps them integral.
    """
    points = [(0, 0)]
    q_t = 1
    for digits in levels:
        shifted = [(l * q_t + n_l, k * q_t + n_k) for l, k in digits for n_l, n_k in points]
        points = [adj_action(poly, n) for n in shifted]
        q_t *= poly.q
    return points


def _axis_fit(lo: int, hi: int, pixels: int, margin: Fraction) -> tuple[int, int, int]:
    """Integers (s, t, d) with pixel index (s*n + t) // d for lo <= n <= hi.

    The index is offset + (n - lo) * usable / (hi - lo) rounded half away
    from zero, where offset = margin * (pixels - 1) and usable =
    (pixels - 1) * (1 - 2 * margin).  Over the common denominator
    den = margin.denominator * span that value is x / den with x >= 0, and
    rounding it is (2x + den) // (2 den).  A span of 0 maps to the centre.
    """
    span = hi - lo
    if span == 0:
        return 0, pixels // 2, 1
    md = margin.denominator
    offset_num = margin.numerator * (pixels - 1)
    usable_num = (pixels - 1) * (md - 2 * margin.numerator)
    den = md * span
    return 2 * usable_num, 2 * (offset_num * span - lo * usable_num) + den, 2 * den


def _classes(fine, coarse):
    """Distinct residue classes of the fine and coarse points, and the key shift.

    fine holds (row residue, pixel offset, column residue) triples, coarse
    (pixel base, row threshold, column threshold) ones.  A pair carries on
    an axis iff the fine residue is at least the coarse threshold, so a
    residue matters only through its class, the number of distinct
    thresholds at or below it, and a threshold only through its 1-based
    index among them: the carry is class >= index.  Returns the fine
    classes (row class, offset, column class) sorted, the coarse classes
    (base, row index, column index) as a set, and the key shift, the bit
    length of the number of column thresholds: 2**shift exceeds every
    column class and index.
    """
    rows = sorted({t for _, t, _ in coarse})
    cols = sorted({t for _, _, t in coarse})
    fine = sorted({(bisect_right(rows, yr), offset, bisect_right(cols, xr))
                   for yr, offset, xr in fine})
    coarse = {(base, bisect_left(rows, yt) + 1, bisect_left(cols, xt) + 1)
              for base, yt, xt in coarse}
    return fine, coarse, len(cols).bit_length()


def rasterize(cfg: RenderConfig) -> ImageGrid:
    """Affine-fit the cloud's bounding box into the grid and mark a pixel per
    point: the sum of a fine point (levels below depth // 2) and a coarse one.

    Each fit is divided once per cloud point, not once per pair: with
    u = xq*d + xr and v = cq*d + cr (0 <= xr, cr < d), (u + v) // d is
    xq + cq, plus 1 iff xr >= d - cr (xr + cr == d is a half-pixel tie,
    which rounds up).  So a pair's pixel depends on the fine point only
    through its pixel offset and the residue class of each axis, and on the
    coarse point through its pixel base and the index of each threshold
    d - cr (see _classes); each distinct pair of classes is marked once.
    Sorted by row class, the fine classes that carry into the next row are
    a suffix.  The column carry rides in one integer per fine class,
    (offset << bits) + column class: adding ((base + 1) << bits) - column
    index and shifting right by bits gives base + offset, plus 1 iff the
    class is at least the index."""
    depth = cfg.depth
    # negated digits negate every numerator, keeping the denominator positive
    digits = cfg.digits if cfg.poly.q**depth > 0 else [-d for d in cfg.digits]
    margin = Fraction(str(cfg.margin))
    m, zero = depth // 2, [(0, 0)]
    fine_cloud = _cloud(cfg.poly, [digits] * m + [zero] * (depth - m))
    coarse_cloud = _cloud(cfg.poly, [zero] * m + [digits] * (depth - m))
    # a point is a fine plus a coarse point, chosen independently, so per
    # axis the box runs from the sum of the clouds' minima to that of their maxima
    (cs, ct, cd), (rs, rt, rd) = (
        _axis_fit(min(f) + min(c), max(f) + max(c), pixels, margin)
        for f, c, pixels in zip(zip(*fine_cloud), zip(*coarse_cloud), (cfg.width, cfg.height))
    )
    w = cfg.width
    fine = []  # (row residue, pixel offset, column residue)
    for a, b in fine_cloud:
        xq, xr = divmod(cs * a, cd)
        yq, yr = divmod(rs * b, rd)
        fine.append((yr, xq - w * yq, xr))
    coarse = []  # (pixel base, row residue threshold, column carry threshold)
    top = (cfg.height - 1) * w  # image row 0 is the top
    for a, b in coarse_cloud:
        cq, cr = divmod(cs * a + ct, cd)
        rq, rr = divmod(rs * b + rt, rd)
        coarse.append((top - w * rq + cq, rd - rr, cd - cr))
    fine, coarse, bits = _classes(fine, coarse)
    row_classes = [row for row, _, _ in fine]
    keys = [(offset << bits) + col for _, offset, col in fine]
    step = w << bits  # one row up the image
    pixels = bytearray(w * cfg.height)
    for base, row_from, col_from in coarse:
        add = ((base + 1) << bits) - col_from
        split = bisect_left(row_classes, row_from)
        for key in keys[:split]:
            pixels[(key + add) >> bits] = 1
        add -= step
        for key in keys[split:]:
            pixels[(key + add) >> bits] = 1
    return ImageGrid(w, cfg.height, pixels)


def write_image(grid: ImageGrid, path) -> None:
    """Write binary P6 PPM bytes, the body in blocks of rows; deterministic for a given grid."""
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    step = grid.width * max(1, _WRITE_BLOCK // grid.width)
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, len(grid.pixels), step):
            grey = grid.pixels[start : start + step].translate(_GREY)
            body = bytearray(3 * len(grey))
            body[0::3] = body[1::3] = body[2::3] = grey
            fh.write(body)


def count_components(grid: ImageGrid, connectivity: int = 8) -> int:
    """Number of connected components of set pixels (4- or 8-neighborhood).

    Each row's runs of set pixels are joined to the runs they touch in the
    row above by a union-find over run labels: a run touching none starts a
    component, and each join of two different labels removes one."""
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    reach = connectivity == 8  # runs touching only at a corner join too
    w, pixels = grid.width, grid.pixels
    parent: list[int] = []  # run label -> a label of the same component

    def find(label: int) -> int:
        while parent[label] != label:
            parent[label] = label = parent[parent[label]]  # path halving
        return label

    count = 0
    above: list[tuple[int, int, int]] = []  # the previous row's runs as stored below
    for r in range(0, w * grid.height, w):
        row = []
        j = 0
        for run in _RUN.finditer(pixels, r, r + w):
            start, end = run.span()
            while j < len(above) and above[j][1] <= start:
                j += 1  # ends before this run and so before every later one
            label, k = -1, j
            while k < len(above) and above[k][0] < end:
                root = find(above[k][2])
                if label < 0:
                    label = root
                elif root != label:
                    parent[root] = label
                    count -= 1
                k += 1
            if label < 0:
                label = len(parent)
                parent.append(label)
                count += 1
            # moved down a row and widened by reach: the span a run of the
            # next row must overlap to touch this one
            row.append((start + w - reach, end + w + reach, label))
        above = row
    return count
