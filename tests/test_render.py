"""Renderer tests: exact point pipeline, rasterization, PPM output."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from tileconn import render
from tileconn.cli import main
from tileconn.lattice import CharPoly, standard_digits
from tileconn.render import (
    ImageGrid,
    RenderConfig,
    _axis_fit,
    count_components,
    default_filename,
    rasterize,
    write_image,
)
from tileconn.series import series_sums

from oracles import QUADRATICS, cloud_by_levels, envelope, rasterize_by_points, scaled_points


def oracle_points(cfg):
    """Independent finite-depth point set: sum of inverse-matrix powers
    applied to each digit, in exact rational arithmetic."""
    p, q = cfg.poly.p, cfg.poly.q
    inv = ((Fraction(-p, q), Fraction(1)), (Fraction(-1, q), Fraction(0)))

    def apply(m, vec):
        return (m[0][0] * vec[0] + m[0][1] * vec[1], m[1][0] * vec[0] + m[1][1] * vec[1])

    out = []
    for word in product(cfg.digits, repeat=cfg.depth):
        total = (Fraction(0), Fraction(0))
        for d in reversed(word):  # innermost digit first
            total = apply(inv, (d.l + total[0], d.k + total[1]))
        out.append(total)
    return out


class TestConfig:
    def test_rejects_shallow_depth(self):
        with pytest.raises(ValueError):
            RenderConfig(CharPoly(0, 3), standard_digits(1), depth=0)

    def test_rejects_tiny_image(self):
        with pytest.raises(ValueError):
            RenderConfig(CharPoly(0, 3), standard_digits(1), width=8)

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            RenderConfig(CharPoly(0, 3), standard_digits(1), margin=0.5)

    def test_repr(self):
        cfg = RenderConfig(CharPoly(1, 3), [[0, 0], (1, 0)], depth=4, width=32, height=16)
        assert repr(cfg) == str(cfg) == (
            "RenderConfig(poly=CharPoly(p=1, q=3), digits=(LatticeVec(l=0, k=0), "
            "LatticeVec(l=1, k=0)), depth=4, width=32, height=16, margin=0.05)"
        )

    @pytest.mark.parametrize("field", ["poly", "digits", "depth", "width", "height", "margin"])
    def test_fields_are_read_only(self, field):
        cfg = RenderConfig(CharPoly(0, 3), standard_digits(1))
        with pytest.raises(AttributeError):
            setattr(cfg, field, getattr(cfg, field))

    def test_default_filename(self):
        assert default_filename(CharPoly(1, -3), -2, 9) == "tile_p1_q-3_k-2_d9.ppm"

    @pytest.mark.parametrize("digits", [standard_digits(1), [(0, 0)]])
    def test_rejects_huge_depth(self, digits):
        # one digit makes one point at any depth, but the depth is bounded too
        with pytest.raises(ValueError, match=f"point budget of {render.POINT_BUDGET}"):
            RenderConfig(CharPoly(0, 3), digits, depth=10**9)

    @staticmethod
    def never(*args):
        raise AssertionError("point generation reached")

    def test_point_generation_stub_is_reached(self, monkeypatch):
        # the budget tests below patch the generator rasterize calls: prove it
        monkeypatch.setattr(render, "_cloud", self.never)
        cfg = RenderConfig(CharPoly(0, 3), standard_digits(1), depth=2, width=16, height=16)
        with pytest.raises(AssertionError, match="point generation reached"):
            rasterize(cfg)

    def test_cli_huge_depth_exits_before_point_generation(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(render, "_cloud", self.never)
        out = tmp_path / "never.ppm"
        code = main(["render", "--poly", "0,3", "--k", "1", "--depth", "1000000000",
                     "--out", str(out)])
        assert code == 2
        assert "point budget" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_huge_image(self):
        with pytest.raises(ValueError, match=f"pixel budget of {render.PIXEL_BUDGET}"):
            RenderConfig(CharPoly(0, 3), standard_digits(1), width=4097, height=4096)
        RenderConfig(CharPoly(0, 3), standard_digits(1), width=4096, height=4096)

    def test_cli_huge_image_exits_before_point_generation(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(render, "_cloud", self.never)
        out = tmp_path / "never.ppm"
        code = main(["render", "--poly", "0,3", "--k", "1", "--size", "100000x100000",
                     "--out", str(out)])
        assert code == 2
        assert f"pixel budget of {render.PIXEL_BUDGET}" in capsys.readouterr().err
        assert not out.exists()


class TestPoints:
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_point_count(self, depth):
        cfg = RenderConfig(CharPoly(1, 3), standard_digits(1), depth=depth)
        assert len(scaled_points(cfg)[0]) == 3**depth

    @pytest.mark.parametrize("p,q,k", [(0, 3, 1), (1, 3, 2), (2, 3, -1), (1, -3, 1)])
    def test_matches_rational_oracle(self, p, q, k):
        cfg = RenderConfig(CharPoly(p, q), standard_digits(k), depth=3)
        nums, den = scaled_points(cfg)
        fast = sorted((Fraction(a, den), Fraction(b, den)) for a, b in nums)
        assert fast == sorted(oracle_points(cfg))

    def test_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(render, "POINT_BUDGET", 3**5 - 1)
        with pytest.raises(ValueError):
            RenderConfig(CharPoly(0, 3), standard_digits(1), depth=5)
        monkeypatch.setattr(render, "POINT_BUDGET", 3**5)
        cfg = RenderConfig(CharPoly(0, 3), standard_digits(1), depth=5)
        assert len(scaled_points(cfg)[0]) == 3**5

    # rasterize's fine cloud ends in zero levels, applied as one power of
    # adj(A), and its coarse cloud starts with them
    @given(st.sampled_from(QUADRATICS),
           st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4),
           st.integers(0, 4), st.integers(0, 12), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_cloud_matches_level_by_level(self, poly, digits, m, zeros, coarse):
        levels = [digits] * m
        levels = [[(0, 0)]] * zeros + levels if coarse else levels + [[(0, 0)]] * zeros
        assert render._cloud(poly, levels) == cloud_by_levels(poly, levels)

    @pytest.mark.parametrize("p,q,k", [(0, 3, 1), (3, 3, 2), (1, -3, -1)])
    def test_envelope_contains_all_points(self, p, q, k):
        cfg = RenderConfig(CharPoly(p, q), standard_digits(k), depth=6)
        x_max, y_max = envelope(series_sums(cfg.poly), cfg.digits)
        nums, den = scaled_points(cfg)
        for a, b in nums:
            assert abs(Fraction(a, den)) <= x_max
            assert abs(Fraction(b, den)) <= y_max


@st.composite
def render_configs(draw, max_points=20_000):
    digits = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=1, max_size=5, unique=True))
    max_depth = max(d for d in range(1, 9) if len(digits) ** d <= max_points)
    return RenderConfig(draw(st.sampled_from(QUADRATICS)), digits,
                        depth=draw(st.integers(1, max_depth)),
                        width=draw(st.integers(16, 200)), height=draw(st.integers(16, 200)),
                        margin=draw(st.sampled_from([0, 0.05, 0.25, 0.49])))


@st.composite
def dense_configs(draw, max_points=20_000):
    """Small images of deep words: many fine classes share a fine pixel row."""
    digits = draw(st.one_of(
        st.sampled_from([1, -1, 2, -2, 3, -3]).map(standard_digits),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                 min_size=2, max_size=4, unique=True),
    ))
    max_depth = max(d for d in range(1, 10) if len(digits) ** d <= max_points)
    return RenderConfig(draw(st.sampled_from(QUADRATICS)), digits,
                        depth=draw(st.integers(min(7, max_depth), max_depth)),
                        width=draw(st.integers(16, 48)), height=draw(st.integers(16, 48)),
                        margin=draw(st.sampled_from([0, 0.05, 0.25])))


class TestAxisFit:
    # (lo, hi, pixels, margin, some value is a .5 tie)
    @pytest.mark.parametrize("lo,hi,pixels,margin,ties", [
        (0, 2, 16, Fraction(0), True),
        (-7, 5, 512, Fraction(0), True),
        (0, 9, 33, Fraction(0), False),
        (-3, 1, 21, Fraction(1, 20), True),
        (-10, 30, 101, Fraction(1, 20), True),
        (5, 48, 100, Fraction(1, 20), False),
        (-40, -10, 64, Fraction(1, 3), True),
        (0, 8, 7, Fraction(1, 3), True),
        (-9, 13, 17, Fraction(1, 3), False),
        (4, 4, 16, Fraction(1, 20), True),
        (-2, -2, 33, Fraction(0), False),
    ])
    def test_matches_exact_rounding(self, lo, hi, pixels, margin, ties):
        s, t, d = _axis_fit(lo, hi, pixels, margin)
        offset = margin * (pixels - 1)
        usable = (pixels - 1) * (1 - 2 * margin)
        span = hi - lo
        exact = [
            offset + (n - lo) * usable / span if span else Fraction(pixels - 1, 2)
            for n in range(lo, hi + 1)
        ]
        assert [(s * n + t) // d for n in range(lo, hi + 1)] == [
            math.floor(x + Fraction(1, 2)) for x in exact
        ]
        assert any(x.denominator == 2 for x in exact) == ties


@pytest.fixture
def chosen(monkeypatch):
    """The marking paths rasterize takes, in order: True for the row stamps."""
    taken = []
    pays = render._stamps_pay

    def recorded(*counts):
        taken.append(pays(*counts))
        return taken[-1]

    monkeypatch.setattr(render, "_stamps_pay", recorded)
    return taken


class TestRasterize:
    @given(render_configs())
    @settings(max_examples=100, deadline=None)
    def test_matches_point_cloud_oracle(self, cfg):
        assert rasterize(cfg).pixels == rasterize_by_points(cfg).pixels

    @pytest.mark.parametrize("stamped", [False, True], ids=["keyed", "stamped"])
    @given(cfg=st.one_of(render_configs(), dense_configs()))
    @settings(max_examples=60, deadline=None)
    def test_both_paths_match_oracle(self, stamped, cfg):
        with patch.object(render, "_stamps_pay", lambda *counts: stamped):
            assert rasterize(cfg).pixels == rasterize_by_points(cfg).pixels

    # found by search: each case on the path the selection takes (stamped)
    # and, forced, on the other one
    @pytest.mark.parametrize("p,q,digits,depth,width,height,margin,stamped", [
        # margin 0, and on each axis a half-pixel tie whose carry sets a pixel
        # that rounding the tie down would not
        pytest.param(0, -3, standard_digits(-1), 8, 39, 40, 0, True, id="ties-stamped"),
        pytest.param(-2, 2, standard_digits(2), 7, 35, 32, 0, False, id="ties-keyed"),
        # negative q at odd depth: the digits are negated
        pytest.param(0, -3, standard_digits(-1), 9, 39, 33, 0, True, id="odd-negative-stamped"),
        pytest.param(-3, -5, standard_digits(2), 7, 41, 46, 0, False, id="odd-negative-keyed"),
        # tall and wide images
        pytest.param(-1, -5, standard_digits(2), 9, 17, 82, 0.25, True, id="tall-stamped"),
        pytest.param(-1, -3, standard_digits(-1), 7, 39, 180, 0.05, False, id="tall-keyed"),
        pytest.param(-3, 3, standard_digits(1), 9, 165, 26, 0, True, id="wide-stamped"),
        pytest.param(4, -6, standard_digits(1), 7, 71, 22, 0.25, False, id="wide-keyed"),
        # a coarse base in column -1, every pair at it carrying: a line's
        # extra low bit keeps the shift non-negative
        pytest.param(0, -2, [(0, 0), (0, -1)], 3, 17, 16, 0, False, id="guard-keyed"),
        pytest.param(0, 6, standard_digits(-2), 9, 40, 29, 0, True, id="guard-stamped"),
        # a coarse base in column w - 1: its pixel is bit 0 of the next line
        pytest.param(0, -6, standard_digits(3), 9, 23, 18, 0, True, id="wrap-stamped"),
        pytest.param(0, -5, standard_digits(1), 9, 31, 25, 0, False, id="wrap-keyed"),
    ])
    def test_paths_on_found_cases(self, monkeypatch, chosen, p, q, digits, depth, width,
                                  height, margin, stamped):
        cfg = RenderConfig(CharPoly(p, q), digits, depth=depth, width=width, height=height,
                           margin=margin)
        expected = rasterize_by_points(cfg).pixels
        assert rasterize(cfg).pixels == expected
        assert chosen == [stamped]
        monkeypatch.setattr(render, "_stamps_pay", lambda *counts: not stamped)
        assert rasterize(cfg).pixels == expected

    # the two k = 2 calibration renders stamp fine rows and the two k = 1
    # ones keep the keyed marks, so the benchmark times both paths; the
    # dense CI render stamps, the tall one keeps the keyed marks
    @pytest.mark.parametrize("p,k,depth,width,height,stamped", [
        (0, 1, 12, 512, 512, False), (0, 2, 12, 512, 512, True),
        (1, 1, 12, 512, 512, False), (1, 2, 12, 512, 512, True),
        (2, -3, 12, 640, 384, True), (1, 2, 12, 64, 4096, False),
    ])
    def test_marking_path_taken(self, chosen, p, k, depth, width, height, stamped):
        rasterize(RenderConfig(CharPoly(p, 3), standard_digits(k), depth=depth, width=width,
                               height=height))
        assert chosen == [stamped]

    @pytest.mark.parametrize("p,q,k,depth", [(1, 3, 2, 8), (1, -3, -1, 7), (0, -2, 1, 9)])
    def test_matches_oracle_at_depth(self, p, q, k, depth):
        cfg = RenderConfig(CharPoly(p, q), standard_digits(k), depth=depth, width=96, height=80)
        assert rasterize(cfg).pixels == rasterize_by_points(cfg).pixels

    # found by search: a fine and a coarse residue sum to exactly the fit's
    # denominator on both axes, and that carry sets a pixel nothing else sets
    @pytest.mark.parametrize("p,q,k,depth,width,height", [
        (-2, 2, 1, 2, 19, 20),
        (-1, 2, 2, 4, 21, 22),
        (1, -3, -1, 3, 35, 36),
        (1, -4, 2, 3, 29, 30),
    ])
    def test_half_pixel_ties_carry(self, p, q, k, depth, width, height):
        cfg = RenderConfig(CharPoly(p, q), standard_digits(k), depth=depth,
                           width=width, height=height, margin=0)
        points, _ = scaled_points(cfg)
        for axis, pixels in ((0, width), (1, height)):
            values = [point[axis] for point in points]
            lo, span = min(values), max(values) - min(values)
            # margin 0: the exact coordinate is (n - lo) * (pixels - 1) / span
            assert any(Fraction((n - lo) * (pixels - 1), span).denominator == 2 for n in values)
        assert rasterize(cfg).pixels == rasterize_by_points(cfg).pixels

    # odd depths: the coarse cloud has n times the fine cloud's points.  The
    # key shift must hold a column class minus a column index, which runs
    # from -m to m - 1 for m distinct column thresholds; the first two cases
    # sit exactly at m = 2^10, where len(cols).bit_length() steps up
    @pytest.mark.parametrize("p,q,digits,depth,entries,thresholds", [
        pytest.param(-3, -5, [(3, 2), (2, 0), (0, -2), (-1, -1)], 9, 1280, 1024,
                     id="-3--5-digits0-9-1280"),
        pytest.param(1, 5, [(-2, 1), (-3, 2), (1, 0), (-1, 0)], 9, 1280, 1024,
                     id="1-5-digits1-9-1280"),
        pytest.param(1, 4, [(0, 0), (1, 0), (0, 1), (-1, -1), (2, 1)], 7, 584, 473,
                     id="1-4-digits2-7-584"),
    ])
    def test_matches_oracle_with_many_ranks(self, p, q, digits, depth, entries, thresholds):
        cfg = RenderConfig(CharPoly(p, q), digits, depth=depth, width=64, height=48)
        signed = cfg.digits if q**depth > 0 else [-d for d in cfg.digits]
        m, zero = depth // 2, [(0, 0)]
        fine = render._cloud(cfg.poly, [signed] * m + [zero] * (depth - m))
        coarse = render._cloud(cfg.poly, [zero] * m + [signed] * (depth - m))
        # the columns span the sum of the two clouds' extremes
        lo = min(a for a, _ in fine) + min(a for a, _ in coarse)
        hi = max(a for a, _ in fine) + max(a for a, _ in coarse)
        cs, ct, cd = _axis_fit(lo, hi, cfg.width, Fraction(str(cfg.margin)))
        residues = {cs * a % cd for a, _ in fine}
        carries = {cd - (cs * a + ct) % cd for a, _ in coarse}
        assert len(residues | carries) == entries
        assert len(carries) == thresholds
        assert rasterize(cfg).pixels == rasterize_by_points(cfg).pixels

    # the work rasterize does is the product of the two class counts: without
    # the classes every one of the 729 fine and 729 coarse points would count
    @pytest.mark.parametrize("p,k,fine,coarse", [
        (0, 1, 377, 377), (0, 2, 617, 617), (1, 1, 377, 377), (1, 2, 634, 634),
    ])
    def test_calibration_class_counts(self, monkeypatch, p, k, fine, coarse):
        seen = []
        classes = render._classes

        def recorded(*args):
            seen.append(classes(*args))
            return seen[-1]

        monkeypatch.setattr(render, "_classes", recorded)
        rasterize(RenderConfig(CharPoly(p, 3), standard_digits(k), depth=12, width=512, height=512))
        [(fine_classes, coarse_classes, _)] = seen
        assert (len(fine_classes), len(coarse_classes)) == (fine, coarse)
        shallow = RenderConfig(CharPoly(p, 3), standard_digits(k), depth=8, width=512, height=512)
        assert rasterize(shallow).pixels == rasterize_by_points(shallow).pixels

    def test_deterministic(self):
        cfg = RenderConfig(CharPoly(1, 3), standard_digits(2), depth=6, width=64, height=64)
        assert rasterize(cfg).pixels == rasterize(cfg).pixels

    def test_coincident_points_share_a_pixel(self):
        # a single repeated digit collapses every word to one point
        cfg = RenderConfig(CharPoly(1, 3), [(0, 0)], depth=4, width=16, height=16)
        grid = rasterize(cfg)
        assert sum(grid.pixels) == 1

    def test_degenerate_bbox_centered(self):
        cfg = RenderConfig(CharPoly(1, 3), [(0, 0)], depth=2, width=16, height=16)
        grid = rasterize(cfg)
        centre = 8  # (16 - 1) / 2 rounded half away from zero
        col, row = centre, 15 - centre
        assert grid.pixels[row * grid.width + col] == 1

    def test_all_pixels_inside_grid(self):
        cfg = RenderConfig(CharPoly(3, 3), standard_digits(-2), depth=6, width=48, height=32)
        grid = rasterize(cfg)
        assert len(grid.pixels) == 48 * 32
        assert sum(grid.pixels) > 0


class TestWriteImage:
    def test_ppm_bytes(self, tmp_path):
        grid = ImageGrid(2, 2, bytearray([1, 0, 0, 1]))
        path = tmp_path / "out.ppm"
        write_image(grid, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n2 2\n255\n")
        body = data[len(b"P6\n2 2\n255\n"):]
        assert len(body) == 12
        assert body == b"\x00\x00\x00\xff\xff\xff\xff\xff\xff\x00\x00\x00"

    def test_roundtrip_size(self, tmp_path):
        cfg = RenderConfig(CharPoly(0, 3), standard_digits(1), depth=5, width=32, height=24)
        path = tmp_path / "tile.ppm"
        write_image(rasterize(cfg), path)
        assert path.stat().st_size == len(b"P6\n32 24\n255\n") + 32 * 24 * 3

    def test_peak_allocation_bounded_by_the_block(self, tmp_path):
        # a 512x512 write holds one block of rows at a time: its pixels, their
        # grey bytes and the three-times-larger body, plus the file buffer;
        # building the whole body at once would take over 1 MB
        grid = ImageGrid(512, 512, bytearray(i % 3 == 0 for i in range(512 * 512)))
        path = tmp_path / "big.ppm"
        tracemalloc.start()
        try:
            write_image(grid, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * render._WRITE_BLOCK + 64 * 1024
        body = path.read_bytes()[len(b"P6\n512 512\n255\n"):]
        assert body == b"".join(b"\0\0\0" if v else b"\xff\xff\xff" for v in grid.pixels)


class TestComponents:
    def test_empty_grid(self):
        assert count_components(ImageGrid(4, 4, bytearray(16))) == 0

    def test_diagonal_pixels_connectivity(self):
        pixels = bytearray(16)
        pixels[0] = 1  # (0, 0)
        pixels[5] = 1  # (1, 1)
        grid = ImageGrid(4, 4, pixels)
        assert count_components(grid, connectivity=8) == 1
        assert count_components(grid, connectivity=4) == 2

    def test_row_ends_do_not_touch(self):
        # end of row 0 and start of row 1 are adjacent in memory only
        pixels = bytearray(16)
        pixels[3] = pixels[4] = 1
        grid = ImageGrid(4, 4, pixels)
        assert count_components(grid, connectivity=8) == 2
        assert count_components(grid, connectivity=4) == 2

    @given(st.integers(1, 9), st.integers(1, 9), st.data(), st.sampled_from([4, 8]))
    def test_matches_bounds_checked_search(self, w, h, data, connectivity):
        pixels = bytearray(data.draw(st.lists(st.integers(0, 2), min_size=w * h, max_size=w * h)))
        offsets = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                   if (dr or dc) and (connectivity == 8 or not (dr and dc))]
        seen, count = set(), 0
        for start in range(w * h):
            if pixels[start] and start not in seen:
                count += 1
                seen.add(start)
                stack = [divmod(start, w)]
                while stack:
                    r, c = stack.pop()
                    for dr, dc in offsets:
                        nr, nc = r + dr, c + dc
                        if 0 <= nr < h and 0 <= nc < w and pixels[nr * w + nc]:
                            if nr * w + nc not in seen:
                                seen.add(nr * w + nc)
                                stack.append((nr, nc))
        assert count_components(ImageGrid(w, h, pixels), connectivity) == count

    @staticmethod
    def grid(*rows):
        """A grid from strings, '#' set and '.' unset."""
        return ImageGrid(len(rows[0]), len(rows),
                         bytearray(b"".join(row.encode().replace(b".", b"\0").replace(b"#", b"\1")
                                            for row in rows)))

    @pytest.mark.parametrize("rows", [
        ("##..", "..##"),
        ("..##", "##.."),
        ("#...", ".#..", "..#.", "...#"),
    ])
    def test_runs_touching_at_a_corner(self, rows):
        grid = self.grid(*rows)
        assert count_components(grid, 8) == 1
        assert count_components(grid, 4) == len(rows)

    def test_arms_meeting_in_a_lower_row(self):
        # the arms start two components, merged by the bottom run
        u = self.grid("#.#", "#.#", "###")
        assert count_components(u, 8) == count_components(u, 4) == 1
        # three arms, three labels merged by one run
        w = self.grid("#.#.#", "#.#.#", "#####")
        assert count_components(w, 8) == count_components(w, 4) == 1
        # the arms reach the bottom run only at its corners
        v = self.grid("#...#", "#...#", ".###.")
        assert count_components(v, 8) == 1
        assert count_components(v, 4) == 3

    def test_run_above_spanning_two_below(self):
        arch = self.grid("#####", "#...#", "#...#")
        assert count_components(arch, 8) == count_components(arch, 4) == 1
        # below the run's ends, touching it only at its corners
        corners = self.grid(".###.", "#...#")
        assert count_components(corners, 8) == 1
        assert count_components(corners, 4) == 3

    def test_any_nonzero_value_is_set(self):
        pixels = bytearray([2, 255, 0, 0, 0, 7, 128, 0, 0])
        grid = ImageGrid(3, 3, pixels)
        ones = ImageGrid(3, 3, bytearray(min(v, 1) for v in pixels))
        for connectivity in (4, 8):
            assert count_components(grid, connectivity) == count_components(ones, connectivity)
        assert count_components(grid, 8) == 2
        assert count_components(grid, 4) == 3

    def test_one_pixel_wide_grid(self):
        grid = ImageGrid(1, 7, bytearray([1, 1, 0, 1, 0, 0, 1]))
        assert count_components(grid, 8) == count_components(grid, 4) == 3

    # the four README calibration renders: 8- and 4-connected counts
    @pytest.mark.parametrize("p,k,eight,four", [
        (0, 1, 1, 1), (0, 2, 245, 245), (1, 1, 1, 16), (1, 2, 61, 152),
    ])
    def test_calibration_components(self, p, k, eight, four):
        cfg = RenderConfig(CharPoly(p, 3), standard_digits(k), depth=12, width=512, height=512)
        grid = rasterize(cfg)
        assert count_components(grid, 8) == eight
        assert count_components(grid, 4) == four

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ValueError):
            count_components(ImageGrid(4, 4, bytearray(16)), connectivity=6)

    def test_unit_scale_connected_raster(self):
        cfg = RenderConfig(CharPoly(0, 3), standard_digits(1), depth=8, width=64, height=64)
        assert count_components(rasterize(cfg)) == 1

    def test_scale_two_fragments(self):
        cfg = RenderConfig(CharPoly(0, 3), standard_digits(2), depth=8, width=64, height=64)
        assert count_components(rasterize(cfg)) >= 2
