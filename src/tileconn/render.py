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

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .lattice import CharPoly, DigitSystem, LatticeVec, adj_action

POINT_BUDGET = 2_000_000
PIXEL_BUDGET = 4096 * 4096

# PPM grey level of a pixel value: 0 (unset) is white, anything else black
_GREY = bytes([255]) + bytes(255)
_SET = bytes(1) + bytes([1]) * 255  # a pixel value as 0 (unset) or 1 (set)


@dataclass(frozen=True)
class RenderConfig:
    """A render request; digits are normalized and the budgets checked."""

    poly: CharPoly
    digits: tuple[LatticeVec, ...]
    depth: int = 9
    width: int = 512
    height: int = 512
    margin: float = 0.05

    def __post_init__(self) -> None:
        ds = DigitSystem(self.poly, self.digits)  # reuse digit/polynomial validation
        object.__setattr__(self, "digits", ds.digits)
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if self.width < 16 or self.height < 16:
            raise ValueError("image must be at least 16x16")
        if self.width * self.height > PIXEL_BUDGET:
            raise ValueError(
                f"image of {self.width}x{self.height} exceeds the pixel budget of {PIXEL_BUDGET}"
            )
        if not (0 <= self.margin < 0.5):
            raise ValueError("margin must lie in [0, 0.5)")
        # Past the budget's bit length even two digits exceed it.  Checking
        # the depth first keeps the power small and stops a one-digit
        # system, one point at any depth, from looping depth times.
        n = len(self.digits)
        if self.depth > POINT_BUDGET.bit_length() or n**self.depth > POINT_BUDGET:
            raise ValueError(
                f"depth {self.depth} with {n} digits exceeds the point budget of {POINT_BUDGET}"
            )


@dataclass
class ImageGrid:
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


def _bounds(poly: CharPoly, digits, depth: int) -> tuple[list[int], list[int]]:
    """Per-axis minima and maxima of _cloud(poly, [digits] * depth).

    Each level t picks its digit on its own and adds adj^(depth-t)(d * q^t),
    so an extreme is the sum over levels of the extremes over the digits.
    """
    lo, hi = [0, 0], [0, 0]
    for t in reversed(range(depth)):
        digits = [adj_action(poly, d) for d in digits]  # adj^(depth-t) d
        for axis, terms in enumerate(zip(*digits)):
            lo[axis] += min(x * poly.q**t for x in terms)
            hi[axis] += max(x * poly.q**t for x in terms)
    return lo, hi


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


def rasterize(cfg: RenderConfig) -> ImageGrid:
    """Affine-fit the cloud's bounding box into the grid and mark a pixel per
    point: the sum of a fine point (levels below depth // 2) and a coarse one.

    Each fit is divided once per cloud point, not once per pair: with
    u = xq*d + xr and v = cq*d + cr (0 <= xr, cr < d), (u + v) // d is
    xq + cq, plus 1 iff xr >= d - cr (xr + cr == d is a half-pixel tie,
    which rounds up).  Sorted by row residue, the fine points that carry
    into the next row are a suffix."""
    depth = cfg.depth
    # negated digits negate every numerator, keeping the denominator positive
    digits = cfg.digits if cfg.poly.q**depth > 0 else [-d for d in cfg.digits]
    margin = Fraction(str(cfg.margin))
    lo, hi = _bounds(cfg.poly, digits, depth)
    cs, ct, cd = _axis_fit(lo[0], hi[0], cfg.width, margin)
    rs, rt, rd = _axis_fit(lo[1], hi[1], cfg.height, margin)
    m, zero = depth // 2, [(0, 0)]
    w = cfg.width
    fine = []  # (row residue, pixel offset, column residue)
    for a, b in _cloud(cfg.poly, [digits] * m + [zero] * (depth - m)):
        xq, xr = divmod(cs * a, cd)
        yq, yr = divmod(rs * b, rd)
        fine.append((yr, xq - w * yq, xr))
    fine.sort()
    row_residues = [yr for yr, _, _ in fine]
    fine = [(offset, xr) for _, offset, xr in fine]  # sorted, so drop the row residue
    top = (cfg.height - 1) * w  # image row 0 is the top
    pixels = bytearray(w * cfg.height)
    for a, b in _cloud(cfg.poly, [zero] * m + [digits] * (depth - m)):
        cq, cr = divmod(cs * a + ct, cd)
        rq, rr = divmod(rs * b + rt, rd)
        base, carry_from = top - w * rq + cq, cd - cr
        split = bisect_left(row_residues, rd - rr)
        for offset, xr in fine[:split]:
            pixels[base + offset + (xr >= carry_from)] = 1
        base -= w  # one row up the image
        for offset, xr in fine[split:]:
            pixels[base + offset + (xr >= carry_from)] = 1
    return ImageGrid(w, cfg.height, pixels)


def write_image(grid: ImageGrid, path) -> None:
    """Write binary P6 PPM bytes; deterministic for a given grid."""
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    grey = grid.pixels.translate(_GREY)
    body = bytearray(3 * len(grey))
    body[0::3] = body[1::3] = body[2::3] = grey
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def count_components(grid: ImageGrid, connectivity: int = 8) -> int:
    """Number of connected components of set pixels (4- or 8-neighborhood)."""
    w, h = grid.width, grid.height
    pw = w + 2  # row stride of the copy with a one-pixel unset border
    if connectivity == 8:
        steps = (-pw - 1, -pw, -pw + 1, -1, 1, pw - 1, pw, pw + 1)
    elif connectivity == 4:
        steps = (-pw, -1, 1, pw)
    else:
        raise ValueError("connectivity must be 4 or 8")
    # the border keeps neighbour steps in range and off the next row
    todo = bytearray(pw * (h + 2))
    flat = grid.pixels.translate(_SET)
    for r in range(h):
        todo[(r + 1) * pw + 1 : (r + 1) * pw + 1 + w] = flat[r * w : (r + 1) * w]
    count = 0
    start = todo.find(1)
    while start >= 0:
        count += 1
        todo[start] = 0
        stack = [start]
        while stack:
            pos = stack.pop()
            for step in steps:
                nxt = pos + step
                if todo[nxt]:
                    todo[nxt] = 0
                    stack.append(nxt)
        start = todo.find(1, start + 1)
    return count
