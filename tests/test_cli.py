"""Command line tests, run in-process through main(argv)."""

import hashlib
import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tileconn import cli, render, series
from tileconn.cli import main
from tileconn.lattice import MAX_DIGIT_PAIRS, CharPoly
from tileconn.membership import MAX_BOX_STATES
from tileconn.series import _MAX_TERMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_connected_system(self, capsys):
        code, out, _ = run(capsys, "decide", "--poly", "1,3", "--digits", "0,0;1,0;0,1")
        assert code == 0
        assert "poly: x^2+x+3" in out
        assert "digits: (0,0) (1,0) (0,1)" in out
        assert "edge 0-1: delta=(-1,0) pre=(0,0) per=(1,0),(-1,1),(0,-1)" in out
        assert "missing: 1-2" in out
        assert out.rstrip().endswith("connected: yes")

    def test_disconnected_system(self, capsys):
        code, out, _ = run(capsys, "decide", "--poly", "1,3", "--digits", "0,0;1,0;0,2")
        assert code == 1
        assert "missing: 0-2 1-2" in out
        assert out.rstrip().endswith("connected: no")

    def test_membership_query(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--poly", "0,3", "--digits", "0,0;1,0;0,1", "--delta", "1,0"
        )
        assert code == 0
        assert "member: yes" in out
        assert "witness: pre=(0,0) per=(-1,0),(0,-1),(1,0),(0,1)" in out
        assert "verified: exact" in out

    def test_membership_negative(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--poly", "0,3", "--digits", "0,0;1,0;0,2", "--delta", "0,2"
        )
        assert code == 1
        assert "member: no" in out

    def test_negative_delta_parses(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--poly", "0,3", "--digits", "0,0;1,0;0,1", "--delta", "-1,0"
        )
        assert code == 0
        assert "delta: (-1,0)" in out

    def test_digits_starting_negative_parse(self, capsys):
        code, out, _ = run(capsys, "decide", "--poly", "1,3", "--digits", "-1,0;0,0;0,1")
        assert code == 0
        assert out.rstrip().endswith("connected: yes")

    def test_non_expanding_rejected(self, capsys):
        code, out, err = run(capsys, "decide", "--poly", "1,1", "--digits", "0,0;1,0")
        assert code == 2
        assert out == ""
        assert "x^2+x+1 is not expanding" in err
        assert "modulus 1, not above 1" in err

    @pytest.mark.parametrize("poly, detail", [
        ("1,1", "x^2+x+1 is not expanding: root -0.5+0.866025j has modulus 1"),
        ("0,1", "x^2+1 is not expanding: root 0+1j has modulus 1"),
        ("0,-1", "x^2-1 is not expanding: root 1 has modulus 1"),
        # on the boundary |p| = |q + 1| of the expandingness test
        ("2,-3", "x^2+2x-3 is not expanding: root 1 has modulus 1"),
        # the float quadratic formula cancels to root 0 here; Vieta does not
        (f"{10**150},3", f"x^2+{10**150}x+3 is not expanding: root -3e-150 has modulus 3e-150"),
    ], ids=["x^2+x+1", "x^2+1", "x^2-1", "x^2+2x-3", "p=10^150"])
    def test_non_expanding_names_the_smaller_root(self, capsys, poly, detail):
        code, out, err = run(capsys, "decide", "--poly", poly, "--digits", "0,0;1,0")
        assert (code, out) == (2, "")
        assert err == f"error: {detail}, not above 1\n"

    def test_coefficients_beyond_float_range_rejected(self, capsys):
        # the discriminant 10**400 - 12 has no float, so the message names no root
        p = 10**200
        code, out, err = run(capsys, "decide", "--poly", f"{p},3", "--digits", "0,0;1,0")
        assert (code, out) == (2, "")
        assert err == f"error: x^2+{p}x+3 is not expanding: a root has modulus, not above 1\n"

    def test_series_without_contracting_power_refused(self, capsys):
        # x^2-92x+92 is expanding (roots near 90.99 and 1.011), but no power
        # up to the contraction cap of its inverse action contracts
        code, out, err = run(capsys, "decide", "--poly", "-92,92", "--digits", "0,0;1,0")
        assert (code, out) == (2, "")
        assert err == "error: no contracting power of the inverse action for x^2-92x+92\n"

    def test_malformed_digits_rejected(self, capsys):
        code, _, err = run(capsys, "decide", "--poly", "1,3", "--digits", "0,0;xx")
        assert code == 2
        assert "--digits entry" in err

    def test_duplicate_digits_rejected(self, capsys):
        code, _, err = run(capsys, "decide", "--poly", "1,3", "--digits", "0,0;0,0")
        assert code == 2
        assert "distinct" in err

    # The over-budget inputs sit just above MAX_BOX_STATES, so a missing
    # check fails these tests in seconds instead of exhausting memory.
    def test_state_box_over_budget_rejected(self, capsys):
        code, out, err = run(capsys, "decide", "--poly", "1,3", "--digits", "0,0;1,0;0,655")
        assert code == 2
        assert out == ""
        assert f"2010645 states exceeds the budget of {MAX_BOX_STATES}" in err

    def test_digit_pairs_over_budget_rejected(self, capsys):
        # the 900 digits of the 30x30 grid pass the state-box budget
        grid = ";".join(f"{l},{k}" for l in range(30) for k in range(30))
        code, out, err = run(capsys, "decide", "--poly", "1,3", "--digits", grid)
        assert code == 2
        assert out == ""
        assert f"404550 digit pairs exceed the pair budget of {MAX_DIGIT_PAIRS}" in err

    def test_membership_digit_pairs_over_budget_rejected(self, capsys):
        # 142 collinear digits make 10011 pairs, one digit past the budget
        digits = ";".join(f"{i},0" for i in range(142))
        code, out, err = run(capsys, "decide", "--poly", "1,3", "--digits", digits, "--delta", "1,0")
        assert code == 2
        assert out == ""
        assert f"10011 digit pairs exceed the pair budget of {MAX_DIGIT_PAIRS}" in err

    def test_flag_is_not_taken_as_a_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "--poly", "0,3", "--digits", "--delta", "1,0"])
        assert exc.value.code == 2
        assert "--digits: expected one argument" in capsys.readouterr().err

    def test_membership_state_box_over_budget_rejected(self, capsys):
        code, out, err = run(
            capsys, "decide", "--poly", "1,3", "--digits", "0,0;1,0;0,655", "--delta", "1,0"
        )
        assert code == 2
        assert out == ""
        assert f"2010645 states exceeds the budget of {MAX_BOX_STATES}" in err


class TestSweep:
    def test_summary_and_exit(self, capsys):
        code, out, _ = run(capsys, "sweep", "--k-range", "-2..2")
        assert code == 0
        assert "k: -2..2  entries: 40" in out
        assert "connected: 20" in out
        assert "theorem (connected iff |k|=1): PASS" in out
        assert "mirror (p,k vs -p,-k): PASS" in out
        assert "companion digit sets connected: PASS" in out

    def test_report_written(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, out, _ = run(capsys, "sweep", "--k-range", "1..2", "--report", str(path))
        assert code == 0
        assert f"report: {path}" in out
        payload = json.loads(path.read_text())
        assert payload["schema"] == "tileconn-sweep/1"
        assert payload["k_range"] == [1, 2]
        assert len(payload["entries"]) == 20

    def test_witness_flag(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, _, _ = run(capsys, "sweep", "--k-range", "1..1", "--witnesses",
                         "--report", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert all(e["witnesses"] for e in payload["entries"])

    def test_bad_range_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--k-range", "5..-5")
        assert code == 2
        assert "nondecreasing" in err

    def test_range_without_nonzero_k_rejected(self, capsys):
        code, out, err = run(capsys, "sweep", "--k-range", "0..0")
        assert code == 2
        assert out == ""
        assert "nonzero k" in err

    def test_flag_is_not_taken_as_a_report_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--k-range", "1..1", "--report", "--witnesses"])
        assert exc.value.code == 2
        assert "--report: expected one argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_report_path_starting_with_a_letter_dash(self, capsys, tmp_path, monkeypatch):
        # "-x.json" reads as an option unless it is joined to its flag by "="
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--k-range", "1..1", "--report", "-x.json"])
        assert exc.value.code == 2
        assert "--report: expected one argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        code, out, _ = run(capsys, "sweep", "--k-range", "1..1", "--report=-x.json")
        assert code == 0
        assert "report: -x.json" in out
        assert json.loads((tmp_path / "-x.json").read_text())["k_range"] == [1, 1]

    def test_state_box_over_budget_rejected(self, capsys):
        # x^2-x-3, the first polynomial swept, needs 2009007 states at k = 408
        code, out, err = run(capsys, "sweep", "--k-range", "408..408")
        assert code == 2
        assert out == ""
        assert f"2009007 states exceeds the budget of {MAX_BOX_STATES}" in err


class TestVerifyCorpus:
    def test_all_items_pass(self, capsys):
        code, out, _ = run(capsys, "verify-corpus")
        assert code == 0
        assert "all verified" in out
        assert "FAIL" not in out
        assert out.count("[ok]") >= 14
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d8ccd1d9faa56771c40a040f51b575ca477ee6cccde66b8045554ae8a8d26fb1"
        )


class TestSeries:
    def test_exact_rational_output(self, capsys):
        code, out, _ = run(capsys, "series", "--poly", "0,3", "--terms", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "poly: x^2+3"
        assert lines[1] == "i alpha beta"
        assert lines[2] == "1 0 -1/3"
        assert lines[3] == "2 -1/3 0"
        assert lines[4] == "3 0 1/9"
        assert lines[5] == "4 1/9 0"
        assert "alpha_upper: 581130734/1162261467" in out
        assert "terms_used: 40" in out

    def test_no_contracting_power_refused_before_printing(self, capsys):
        code, out, err = run(capsys, "series", "--poly", "-92,92")
        assert (code, out) == (2, "")
        assert err == "error: no contracting power of the inverse action for x^2-92x+92\n"

    def test_tail_bound_out_of_reach_refused_before_printing(self, capsys, monkeypatch):
        monkeypatch.setattr(series, "_MAX_TERMS", 20)
        series.series_sums.cache_clear()
        try:
            code, out, err = run(capsys, "series", "--poly", "1,3", "--terms", "4")
        finally:
            series.series_sums.cache_clear()
        assert (code, out) == (2, "")
        assert err.startswith("error: tail bound did not reach") and err.count("\n") == 1

    @pytest.mark.parametrize("poly", ["89,-91", "-89,-91"])
    def test_bounds_longer_than_printable_refused(self, capsys, poly):
        # the bounds need 2340 terms; 91^2195 has more digits than
        # int-to-str conversion allows
        code, out, err = run(capsys, "series", "--poly", poly, "--terms", "1")
        assert (code, out) == (2, "")
        name = "x^2+89x-91" if poly[0] != "-" else "x^2-89x-91"
        assert err == f"error: the bounds of {name} take 2340 terms, over the 2194 printable\n"

    def test_zero_terms_rejected(self, capsys):
        code, _, err = run(capsys, "series", "--poly", "0,3", "--terms", "0")
        assert code == 2
        assert "--terms" in err

    def test_too_many_terms_rejected(self, capsys, monkeypatch):
        # the bound must reject before any term is computed
        def no_terms(poly, n):
            raise AssertionError(f"computed {n} terms")

        monkeypatch.setattr("tileconn.cli.alpha_beta", no_terms)
        code, _, err = run(capsys, "series", "--poly", "0,3", "--terms", str(_MAX_TERMS + 1))
        assert code == 2
        assert "--terms" in err

    def test_terms_capped_by_printable_denominator(self, capsys, monkeypatch):
        # term n has denominator 6^n; 6^5600 has more digits than int-to-str
        # conversion allows, so the bound must reject before any term is
        # computed
        def no_terms(poly, n):
            raise AssertionError(f"computed {n} terms")

        monkeypatch.setattr("tileconn.cli.alpha_beta", no_terms)
        code, _, err = run(capsys, "series", "--poly", "1,6", "--terms", "5600")
        assert code == 2
        assert "--terms" in err
        cap = int(re.search(r"1\.\.(\d+)", err).group(1))
        str(6**cap)  # the largest accepted denominator converts
        with pytest.raises(ValueError):
            str(6 ** (cap + 1))

    @pytest.mark.parametrize("q,cap", [(3, 9012), (10**20, 214), (10**150, 28), (10**200, 21)])
    def test_printable_terms_for_huge_q(self, q, cap):
        # the values of the uncapped search over 0..10 000, which the digit
        # count of |q| now cuts short
        assert cli._max_printable_terms(CharPoly(-98, q)) == cap
        str(q**cap)
        with pytest.raises(ValueError):
            str(q ** (cap + 1))


class TestRender:
    def test_writes_ppm(self, capsys, tmp_path):
        out_path = tmp_path / "img.ppm"
        code, out, _ = run(
            capsys, "render", "--poly", "0,3", "--k", "1",
            "--depth", "4", "--size", "32x32", "--out", str(out_path),
        )
        assert code == 0
        assert f"wrote {out_path}" in out
        assert "81 points" in out
        data = out_path.read_bytes()
        assert data.startswith(b"P6\n32 32\n255\n")
        assert len(data) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3

    def test_default_filename(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "render", "--poly", "1,3", "--k", "2",
                           "--depth", "3", "--size", "16x16")
        assert code == 0
        assert (tmp_path / "tile_p1_q3_k2_d3.ppm").exists()

    def test_k_zero_rejected(self, capsys):
        code, _, err = run(capsys, "render", "--poly", "0,3", "--k", "0",
                           "--depth", "2", "--size", "16x16", "--out", "/tmp/never.ppm")
        assert code == 2
        assert "nonzero" in err

    def test_digits_need_out_path(self, capsys):
        code, _, err = run(capsys, "render", "--poly", "0,3",
                           "--digits", "0,0;1,0", "--depth", "2", "--size", "16x16")
        assert code == 2
        assert "--out" in err

    def test_digits_with_k_still_need_out_path(self, capsys, tmp_path, monkeypatch):
        # a default name would be taken from --k, which the digits override
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "render", "--poly", "0,3", "--digits", "0,0;1,0",
                             "--k", "2", "--depth", "2", "--size", "16x16")
        assert (code, out) == (2, "")
        assert "--out is required when --digits is given" in err
        assert list(tmp_path.iterdir()) == []

    def test_digits_without_out_exit_before_rasterizing(self, capsys, monkeypatch):
        def never(cfg):
            raise AssertionError("rasterize reached")

        monkeypatch.setattr(render, "rasterize", never)
        code, out, err = run(capsys, "render", "--poly", "0,3",
                             "--digits", "0,0;1,0", "--depth", "2", "--size", "16x16")
        assert code == 2
        assert "--out is required when --digits is given" in err
        assert out == ""

    def test_deterministic_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.ppm", tmp_path / "b.ppm"]
        for p in paths:
            code, _, _ = run(capsys, "render", "--poly", "1,3", "--k", "1",
                             "--depth", "5", "--size", "32x32", "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


# One refusal per subcommand that takes input (verify-corpus takes none).
# MISSING is replaced by a path in a directory that does not exist, so the
# refusal comes from the OSError of opening the output after the command
# has computed everything it prints.
@pytest.mark.parametrize("argv", [
    ["decide", "--poly", "1,3", "--digits", "0,0;0,0"],
    ["decide", "--poly", "1,3", "--digits", "0,0;1,0", "--delta", "1"],
    ["sweep", "--k-range", "5..-5"],
    ["sweep", "--k-range", "1..1", "--report", "MISSING"],
    ["series", "--poly", "0,3", "--terms", "0"],
    ["render", "--poly", "0,3", "--k", "1", "--depth", "2", "--size", "16x16", "--out", "MISSING"],
], ids=["decide", "decide--delta", "sweep", "sweep--report", "series", "render--out"])
def test_refusal_prints_one_error_line_and_no_stdout(capsys, tmp_path, argv):
    missing = str(tmp_path / "missing" / "out")
    code, out, err = run(capsys, *(missing if a == "MISSING" else a for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# A value starting with "-" and a digit is a value for every value flag;
# decide's --digits and --delta are covered in TestDecide.  "report: ..." and
# "wrote ..." are printed after the file is written.
@pytest.mark.parametrize("argv, code, expected", [
    (["decide", "--poly", "-1,3", "--digits", "0,0;1,0;0,1"], 0, "poly: x^2-x+3"),
    (["sweep", "--k-range", "-1..1"], 0, "k: -1..1  entries: 20"),
    (["sweep", "--k-range", "1..1", "--report", "-1.json"], 0, "report: -1.json"),
    (["series", "--poly", "-1,3", "--terms", "2"], 0, "2 -2/9 -1/9"),
    (["series", "--poly", "0,3", "--terms", "-3"], 2, "--terms must lie in 1..9012 for x^2+3, got -3"),
    (["render", "--poly", "-1,3", "--k", "1", "--depth", "2", "--size", "16x16", "--out", "a.ppm"],
     0, "wrote a.ppm"),
    (["render", "--poly", "0,3", "--k", "-2", "--depth", "2", "--size", "16x16", "--out", "a.ppm"],
     0, "wrote a.ppm"),
    (["render", "--poly", "0,3", "--digits", "-1,0;0,0", "--depth", "2", "--size", "16x16",
      "--out", "a.ppm"], 0, "4 points"),
    (["render", "--poly", "0,3", "--k", "1", "--depth", "-2", "--out", "a.ppm"],
     2, "depth must be at least 1"),
    (["render", "--poly", "0,3", "--k", "1", "--size", "-16x16", "--out", "a.ppm"],
     2, "--size must look like 512x512, got '-16x16'"),
    (["render", "--poly", "0,3", "--k", "1", "--margin", "-.1", "--out", "a.ppm"],
     2, "margin must lie in [0, 0.5)"),
    (["render", "--poly", "0,3", "--k", "1", "--depth", "2", "--size", "16x16", "--out", "-1.ppm"],
     0, "wrote -1.ppm"),
], ids=["decide--poly", "sweep--k-range", "sweep--report", "series--poly", "series--terms",
        "render--poly", "render--k", "render--digits", "render--depth", "render--size",
        "render--margin", "render--out"])
def test_negative_values_parse_for_every_value_flag(capsys, tmp_path, monkeypatch,
                                                    argv, code, expected):
    monkeypatch.chdir(tmp_path)
    got, out, err = run(capsys, *argv)
    assert got == code
    assert expected in out + err


_COEFFICIENTS = st.one_of(
    st.integers(-101, 101), st.sampled_from([10**150, -10**150, 10**200, 3 * 10**199])
)
_SMALL_PAIRS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
# render sizes from malformed and too small up to 32x32
_SIZES = st.one_of(
    st.tuples(st.integers(8, 32), st.integers(8, 32)).map(lambda wh: f"{wh[0]}x{wh[1]}"),
    st.sampled_from(["", "x", "16", "16x", "-16x16", "16x16x16", "1.5x16"]),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    command=st.sampled_from(
        ["decide", "decide --delta", "series", "sweep", "render --k", "render --digits"]
    ),
    p=_COEFFICIENTS,
    q=_COEFFICIENTS,
    digits=st.lists(_SMALL_PAIRS, min_size=1, max_size=3),
    delta=_SMALL_PAIRS,
    depth=st.integers(1, 3),
    size=_SIZES,
)
@example(command="sweep", p=0, q=3, digits=[(0, 0)], delta=(0, 0), depth=1, size="16x16")
@example(command="sweep", p=0, q=3, digits=[(0, 0)], delta=(3, -3), depth=1, size="16x16")
@example(command="render --k", p=1, q=3, digits=[(0, 0)], delta=(2, 0), depth=3, size="32x32")
def test_every_argv_decides_or_refuses(command, p, q, digits, delta, depth, size):
    # capsys and tmp_path are function-scoped, which Hypothesis rejects.
    # sweep reads its k range a..b from delta, and render --k its k.
    pairs = ";".join(f"{l},{k}" for l, k in digits)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if command == "series":
            argv = ["series", "--poly", f"{p},{q}", "--terms", "3"]
        elif command == "sweep":
            argv = ["sweep", "--k-range", f"{delta[0]}..{delta[1]}"]
        elif command.startswith("render"):
            chosen = ["--k", str(delta[0])] if command == "render --k" else ["--digits", pairs]
            argv = ["render", "--poly", f"{p},{q}", *chosen, "--depth", str(depth),
                    "--size", size, "--out", os.path.join(tmp, "a.ppm")]
        else:
            argv = ["decide", "--poly", f"{p},{q}", "--digits", pairs]
            if command == "decide --delta":
                argv += ["--delta", f"{delta[0]},{delta[1]}"]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
