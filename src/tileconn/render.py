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
from functools import reduce
from itertools import accumulate, chain, groupby
from operator import itemgetter, or_
from typing import NamedTuple

from .lattice import CharPoly, DigitSystem, LatticeVec, adj_action

POINT_BUDGET = 2_000_000
PIXEL_BUDGET = 4096 * 4096

# PPM grey level of a pixel value: 0 (unset) is white, anything else black
_GREY = bytes([255]) + bytes(255)
_RUN = re.compile(rb"[^\x00]+")  # a run of set pixels
_WRITE_BLOCK = 1 << 14  # pixels write_image holds at a time, in whole rows: bounds its memory
_BIT_PIXEL = bytes.maketrans(b"01", b"\0\1")  # a binary digit's character to its pixel value


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
    keeps them integral.  A trailing level holding only the zero digit
    steps every point by adj(A) alone, so a run of z of them applies
    adj(A)^z once per point.
    """
    levels = list(levels)
    zeros = 0
    while levels and list(levels[-1]) == [(0, 0)]:
        levels.pop()
        zeros += 1
    points = [(0, 0)]
    q_t = 1
    for digits in levels:
        shifted = [(l * q_t + n_l, k * q_t + n_k) for l, k in digits for n_l, n_k in points]
        points = [adj_action(poly, n) for n in shifted]
        q_t *= poly.q
    if zeros:
        (a, c), (b, d) = (1, 0), (0, 1)  # the columns of adj(A)^zeros
        for _ in range(zeros):
            (a, c), (b, d) = adj_action(poly, (a, c)), adj_action(poly, (b, d))
        points = [(a * l + b * k, c * l + d * k) for l, k in points]
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


def _fine_rows(fine, w: int) -> dict:
    """The fine classes grouped by fine pixel row: -yq -> [(row class, dx, column class)].

    An offset is dx - w*yq with 0 <= dx < w, dx the fine pixel column
    counted from the cloud's leftmost one, so divmod by w splits it."""
    rows: dict = {}
    for row, offset, col in fine:
        up, dx = divmod(offset, w)
        rows.setdefault(up, []).append((row, dx, col))
    return rows


def _below(values, top: int, scale: int = 1) -> list[int]:
    """scale * (the number of values below x), for x in 0..top."""
    steps = [0] * (top + 1)
    for v in values:
        if v < top:
            steps[v + 1] += scale
    return list(accumulate(steps))


def _merged(a: list[int], b: list[int]) -> list[int]:
    return list(map(or_, a, b))


def _row_masks(classes, row_top: int, col_top: int):
    """Lookups and mask tables of one fine row, for coarse row indices up to
    row_top and column indices up to col_top.

    A coarse class (r, c) reads entry at = by_row[r] + by_col[c] of each
    table: i*n + j, where its row index r splits the row's distinct row
    classes at i (i of them below r) and its column index c splits the n - 1
    distinct column classes at j.  stay[at] ORs bit dx + column carry over
    the classes below the row split, which stay in the stamped line, and
    move[at] over the rest, which carry into the line above; the column
    carry is 1 iff the column class is at or past the column split."""
    col_classes = sorted({col for _, _, col in classes})
    n = len(col_classes) + 1
    # a class of the j-th distinct column class carries at the j + 1 splits 0..j
    carrying = {col: j + 1 for j, col in enumerate(col_classes)}
    masks = []  # per row class, ascending (classes come sorted by row class)
    for _, group in groupby(classes, itemgetter(0)):
        class_masks = []
        for _, dx, col in group:
            splits = carrying[col]
            class_masks.append([2 << dx] * splits + [1 << dx] * (n - splits))
        masks.append(reduce(_merged, class_masks))
    zero = [0] * n
    stay = list(chain.from_iterable(accumulate(masks, _merged, initial=zero)))
    move = list(chain.from_iterable(list(accumulate(reversed(masks), _merged, initial=zero))[::-1]))
    by_row = _below({row for row, _, _ in classes}, row_top, n)
    return by_row, _below(col_classes, col_top), stay, move


def _stamp(rows: dict, coarse, w: int, h: int) -> bytearray:
    """Pixels of every fine x coarse class pair, ORed in one fine row at a time.

    Line L, a Python int, holds flat pixel w*L + b - 1 at bit b: columns
    0..w-1 of image row L at bits 1..w, and the last pixel of row L - 1 at
    bit 0.  The extra bit keeps every shift non-negative (a coarse base's
    column can be -1 when every pair at it carries), and splitting base + 1
    by w puts a base in column w - 1 at bit 0 of the next line.  A stamp
    whose mask is empty may land on line -1 or h + 1; both are the spare
    line h + 1, which only ever ORs in zeros."""
    lines = [0] * (h + 2)
    stamps = [divmod(base + 1, w) + (row_from, col_from) for base, row_from, col_from in coarse]
    row_top = max(row_from for _, _, row_from, _ in stamps)
    col_top = max(col_from for _, _, _, col_from in stamps)
    for up, classes in rows.items():
        by_row, by_col, stay, move = _row_masks(classes, row_top, col_top)
        for line, shift, row_from, col_from in stamps:
            at = by_row[row_from] + by_col[col_from]
            line += up
            lines[line] |= stay[at] << shift
            lines[line - 1] |= move[at] << shift
    pixels = bytearray()
    digits = f"0{w}b"
    for y in range(h):
        bits = lines[y] >> 1 | (lines[y + 1] & 1) << (w - 1)
        pixels += format(bits, digits)[::-1].encode().translate(_BIT_PIXEL)
    return pixels


def _stamps_pay(fine: int, coarse: int, rows: int, w: int, h: int) -> bool:
    """Whether to mark by _stamp, from the class and fine-row counts.

    The keyed loop makes fine * coarse marks; _stamp makes coarse * rows
    stamps, builds the row tables and turns w * h line bits into pixels.
    Measured on CPython 3.11 (2-vCPU Xeon, best of 5, 20 renders of 32x32
    to 4096x4096 pixels): a mark costs 65-145 ns; a stamp (two table
    reads, two shifted ORs into a line) 190-620 ns, dearer the wider the
    line, so 3 to 8 marks; the conversion 2-7 ns a pixel; the row tables
    135-1850 ns an entry.  So a stamp must replace at least 8 marks
    (fine >= 8 * rows) to be no dearer than they are at the worst ratio,
    and the marks must outnumber the pixels, so that they also pay for
    the conversion and the tables.  Neither constant is a break-even.
    Over 669 renders of 16x16 to 4096x4096 pixels at depths 8 to 13 the
    rule stamps 300; of those only a few, 64x64 pixels or fewer at depth
    8, ran more than 10% slower than the keyed loop (by at most 18%, 0.16
    ms), and it leaves about 1.3 s of the 9.7 s the stamps could save over
    all 669.  A finer cost model that took more of that saving also
    stamped wide renders where the stamps lost by up to 60%."""
    return fine * coarse > w * h and fine >= 8 * rows


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
    class is at least the index.  Dense renders, many fine classes to a
    fine pixel row, OR whole rows of marks as bit masks instead (_stamp)."""
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
    w, h = cfg.width, cfg.height
    # the fine cloud's leftmost pixel column (cs >= 0): the fit spans at
    # most w - 1 columns, so a fine column counted from it lies in [0, w)
    x0 = cs * min(a for a, _ in fine_cloud) // cd
    fine = []  # (row residue, pixel offset, column residue)
    for a, b in fine_cloud:
        xq, xr = divmod(cs * a, cd)
        yq, yr = divmod(rs * b, rd)
        fine.append((yr, xq - x0 - w * yq, xr))
    coarse = []  # (pixel base, row residue threshold, column carry threshold)
    top = (h - 1) * w  # image row 0 is the top
    for a, b in coarse_cloud:
        cq, cr = divmod(cs * a + ct, cd)
        rq, rr = divmod(rs * b + rt, rd)
        coarse.append((top - w * rq + cq + x0, rd - rr, cd - cr))
    fine, coarse, bits = _classes(fine, coarse)
    rows = _fine_rows(fine, w)
    if _stamps_pay(len(fine), len(coarse), len(rows), w, h):
        return ImageGrid(w, h, _stamp(rows, coarse, w, h))
    row_classes = [row for row, _, _ in fine]
    keys = [(offset << bits) + col for _, offset, col in fine]
    step = w << bits  # one row up the image
    pixels = bytearray(w * h)
    for base, row_from, col_from in coarse:
        add = ((base + 1) << bits) - col_from
        split = bisect_left(row_classes, row_from)
        for key in keys[:split]:
            pixels[(key + add) >> bits] = 1
        add -= step
        for key in keys[split:]:
            pixels[(key + add) >> bits] = 1
    return ImageGrid(w, h, pixels)


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
