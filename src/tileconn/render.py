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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .lattice import CharPoly, DigitSystem, LatticeVec
from .series import envelope, series_sums

DEFAULT_POINT_BUDGET = 2_000_000

_BLACK = b"\x00\x00\x00"
_WHITE = b"\xff\xff\xff"


@dataclass(frozen=True)
class RenderConfig:
    poly: CharPoly
    digits: tuple[LatticeVec, ...] = field()
    depth: int = 9
    width: int = 512
    height: int = 512
    margin: float = 0.05

    def __init__(
        self,
        poly: CharPoly,
        digits: Iterable,
        depth: int = 9,
        width: int = 512,
        height: int = 512,
        margin: float = 0.05,
    ) -> None:
        ds = DigitSystem(poly, digits)  # reuse digit/polynomial validation
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "digits", ds.digits)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "margin", margin)
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if width < 16 or height < 16:
            raise ValueError("image must be at least 16x16")
        if not (0 <= margin < 0.5):
            raise ValueError("margin must lie in [0, 0.5)")


@dataclass
class ImageGrid:
    width: int
    height: int
    pixels: bytearray  # row-major, 1 marks a set pixel

    def at(self, col: int, row: int) -> int:
        return self.pixels[row * self.width + col]


def default_filename(poly: CharPoly, k: int, depth: int) -> str:
    return f"tile_p{poly.p}_q{poly.q}_k{k}_d{depth}.ppm"


def _scaled_points(cfg: RenderConfig, budget: int) -> tuple[list[tuple[int, int]], int]:
    """All depth-level points as integer numerators over denominator q^depth.

    One inverse-matrix application per word extension:
    n' = adj(A) (d * q^t + n) keeps numerators integral, since
    A^{-1} = adj(A) / q with adj(A) = [[-p, q], [-1, 0]].
    """
    count = len(cfg.digits) ** cfg.depth
    if count > budget:
        raise ValueError(
            f"depth {cfg.depth} with {len(cfg.digits)} digits needs {count} points, "
            f"over the budget of {budget}"
        )
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


def attractor_points(cfg: RenderConfig, budget: int = DEFAULT_POINT_BUDGET) -> list[tuple[float, float]]:
    """The |digits|^depth finite-depth points, as floats for consumers.

    Multiplicities are preserved; deduplication happens only at raster time.
    """
    points, den = _scaled_points(cfg, budget)
    return [(a / den, b / den) for a, b in points]


def point_envelope(cfg: RenderConfig) -> tuple[Fraction, Fraction]:
    """Certified bounds: every point (x, y) has |x|, |y| within these."""
    return envelope(series_sums(cfg.poly), cfg.digits)


def _round_half_away(num: int, den: int) -> int:
    # den > 0; round num/den to the nearest integer, ties away from zero
    if num >= 0:
        return (2 * num + den) // (2 * den)
    return -((-2 * num + den) // (2 * den))


def _axis_map(lo: int, hi: int, pixels: int, margin: Fraction):
    """Return f(n) -> pixel index along one axis, as exact integer math."""
    span = hi - lo
    if span == 0:
        center = _round_half_away(pixels - 1, 2)
        return lambda n: center
    # offset + (n - lo) * usable / span, with offset = margin * (pixels - 1)
    # and usable = (pixels - 1) * (1 - 2 * margin), over a common denominator
    md = margin.denominator
    offset_num = margin.numerator * (pixels - 1)
    usable_num = (pixels - 1) * (md - 2 * margin.numerator)
    den = md * span
    base = offset_num * span

    def to_pixel(n: int) -> int:
        return _round_half_away(base + (n - lo) * usable_num, den)

    return to_pixel


def rasterize(cfg: RenderConfig, budget: int = DEFAULT_POINT_BUDGET) -> ImageGrid:
    """Affine-fit the point cloud's bounding box into the grid and mark pixels."""
    points, _ = _scaled_points(cfg, budget)
    margin = Fraction(str(cfg.margin))
    a_lo = min(a for a, _ in points)
    a_hi = max(a for a, _ in points)
    b_lo = min(b for _, b in points)
    b_hi = max(b for _, b in points)
    col_of = _axis_map(a_lo, a_hi, cfg.width, margin)
    row_of = _axis_map(b_lo, b_hi, cfg.height, margin)
    grid = ImageGrid(cfg.width, cfg.height, bytearray(cfg.width * cfg.height))
    h1 = cfg.height - 1
    for a, b in points:
        col = col_of(a)
        row = h1 - row_of(b)  # image row 0 is the top
        grid.pixels[row * cfg.width + col] = 1
    return grid


def write_image(grid: ImageGrid, path) -> None:
    """Write binary P6 PPM bytes; deterministic for a given grid."""
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    body = bytearray(len(grid.pixels) * 3)
    for idx, val in enumerate(grid.pixels):
        body[idx * 3 : idx * 3 + 3] = _BLACK if val else _WHITE
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(bytes(body))


def count_components(grid: ImageGrid, connectivity: int = 8) -> int:
    """Number of connected components of set pixels (4- or 8-neighborhood)."""
    if connectivity == 8:
        offsets = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
    elif connectivity == 4:
        offsets = ((-1, 0), (1, 0), (0, -1), (0, 1))
    else:
        raise ValueError("connectivity must be 4 or 8")
    w, h = grid.width, grid.height
    seen = bytearray(len(grid.pixels))
    count = 0
    for start in range(len(grid.pixels)):
        if not grid.pixels[start] or seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = 1
        while stack:
            pos = stack.pop()
            row, col = divmod(pos, w)
            for dr, dc in offsets:
                r, c = row + dr, col + dc
                if 0 <= r < h and 0 <= c < w:
                    nxt = r * w + c
                    if grid.pixels[nxt] and not seen[nxt]:
                        seen[nxt] = 1
                        stack.append(nxt)
    return count
