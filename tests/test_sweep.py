"""Sweep harness tests: theorem verdicts, symmetry checks, serialization."""

import hashlib
import json

import pytest

from tileconn import lattice, membership, sweep
from tileconn.cli import main
from tileconn.expansions import verify_witness
from tileconn.lattice import CharPoly, DigitSystem, LatticeVec, standard_digits
from tileconn.sweep import (
    JSON_SCHEMA,
    corollary_check,
    mirror_check,
    report_json,
    sweep_theorem,
)

from oracles import cold_caches

# the ten |q| = 3 quadratics as (p, q), in sweep order
GOLDEN_K2_POLYS = (
    (-1, -3), (0, -3), (1, -3), (-3, 3), (-2, 3), (-1, 3), (0, 3), (1, 3), (2, 3), (3, 3),
)


class TestSweepTheorem:
    def test_unit_scale_all_connected(self):
        report = sweep_theorem(1, 1)
        assert len(report.entries) == 10
        assert all(e.connected for e in report.entries)
        assert report.theorem_verdict

    def test_scale_two_all_disconnected(self):
        report = sweep_theorem(2, 2)
        assert len(report.entries) == 10
        assert not any(e.connected for e in report.entries)
        assert report.theorem_verdict

    def test_range_five(self):
        report = sweep_theorem(-5, 5)
        assert len(report.entries) == 100  # 10 polys x 10 nonzero k
        assert report.connected_count == 20
        assert report.theorem_verdict
        for e in report.entries:
            assert e.connected == (abs(e.k) == 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_verdict_fails_on_one_wrong_instance(self, monkeypatch, k):
        # one instance of x^2+3 comes back with the wrong verdict: a
        # disconnected |k| = 1 instance fails the theorem as a connected
        # |k| = 2 one does
        real = sweep.edge_graph

        def one_flipped(ds):
            graph = real(ds)
            if ds.poly == CharPoly(0, 3) and ds.digits == standard_digits(k):
                return graph._replace(connected=not graph.connected)
            return graph

        monkeypatch.setattr(sweep, "edge_graph", one_flipped)
        report = sweep_theorem(-2, 2)
        assert report.connected_count == (19 if k == 1 else 21)
        assert not report.theorem_verdict

    def test_zero_skipped(self):
        report = sweep_theorem(0, 0)
        assert report.entries == () or len(report.entries) == 0

    def test_entries_carry_edges(self):
        report = sweep_theorem(1, 1)
        for e in report.entries:
            assert len(e.edges) >= 2  # spanning a 3-vertex graph needs >= 2 edges

    def test_witnesses_verify(self):
        report = sweep_theorem(-2, 2, include_witnesses=True)
        checked = 0
        for e in report.entries:
            if not e.connected:
                continue
            ds = DigitSystem(CharPoly(e.poly.p, e.poly.q), standard_digits(e.k))
            assert e.witnesses
            for ew in e.witnesses:
                assert verify_witness(ds, ew.delta, ew.witness)
                checked += 1
        assert checked >= 40


class TestSymmetryChecks:
    def test_mirror_full_range(self):
        assert mirror_check(-6, 6)

    def test_corollary_digit_sets(self):
        assert corollary_check()


class TestSharedCaches:
    """Instances with equal digits share one difference set, and instances
    with equal polynomial and difference set share one search memo."""

    def test_sweep_command_cache_counts(self):
        # sweep -20..20 from cold caches: 400 memos, and 40 difference sets,
        # one per k for all ten polynomials.  The mirror check asks again for
        # all 400; the companion digit sets {0, v, v + Av} and {0, v, v - Av}
        # are two new digit tuples with the difference sets of k = -1 and 1.
        cold_caches()
        sweep_theorem(-20, 20, include_witnesses=True)
        assert mirror_check(-20, 20)
        assert corollary_check()
        memos = membership._survivor_set.cache_info()
        differences = lattice._graded_differences.cache_info()
        assert (memos.misses, memos.hits) == (400, 420)
        assert (differences.misses, differences.hits) == (42, 778)

    def test_report_unchanged_under_constant_flushing(self, monkeypatch):
        # one three-digit set fills the difference set cache, and the memo
        # cache is counted full before each lookup, so every build empties
        # its cache; the memo cache is emptied while a wrapper holds the
        # module name _survivor_set, as under the benchmark's tracer
        cold_caches()
        expect = report_json(sweep_theorem(-6, 6, include_witnesses=True))
        cold_caches()
        monkeypatch.setattr(lattice, "MAX_DIGIT_PAIRS", 3)
        real = membership._survivor_set

        def counted_full(poly, dd):
            membership._held_states = membership.MAX_BOX_STATES
            return real(poly, dd)

        monkeypatch.setattr(membership, "_survivor_set", counted_full)
        assert report_json(sweep_theorem(-6, 6, include_witnesses=True)) == expect
        assert real.cache_info().currsize == 1
        assert lattice._graded_differences.cache_info().currsize == 1


class TestSerialization:
    def test_k2_golden_entries(self):
        report = sweep_theorem(2, 2)
        assert [(e.poly.p, e.poly.q, e.k) for e in report.entries] == [
            (p, q, 2) for p, q in GOLDEN_K2_POLYS
        ]
        assert all(not e.connected and e.edges == ((0, 1),) for e in report.entries)
        assert report.theorem_verdict

    def test_json_roundtrip(self):
        payload = json.loads(report_json(sweep_theorem(-1, 1)))
        assert payload["schema"] == JSON_SCHEMA
        assert payload["k_range"] == [-1, 1]
        assert len(payload["entries"]) == 20
        assert payload["connected_count"] == 20
        assert payload["theorem_verdict"] is True
        first = payload["entries"][0]
        assert set(first) >= {"p", "q", "k", "connected", "edges"}

    def test_json_byte_identical_across_runs(self):
        a = report_json(sweep_theorem(-6, 6, include_witnesses=True))
        b = report_json(sweep_theorem(-6, 6, include_witnesses=True))
        assert a == b

    def test_json_bytes_frozen(self):
        # `sweep --k-range -20..20 --witnesses` as recorded at the seed commit;
        # bench/workloads.py checks the same digest
        text = report_json(sweep_theorem(-20, 20, include_witnesses=True))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "f7f473ef6691a489d1961ce578fb8cf38184aa158ee858ca5436c569b6491e75"
        )

    def test_json_witnesses_present_when_requested(self):
        payload = json.loads(report_json(sweep_theorem(1, 1, include_witnesses=True)))
        for entry in payload["entries"]:
            assert entry["witnesses"]
            w = entry["witnesses"][0]
            assert set(w) == {"edge", "delta", "preperiod", "period"}

    def test_json_no_timing_fields(self):
        payload = json.loads(report_json(sweep_theorem(1, 1)))
        for entry in payload["entries"]:
            assert "runtime_ms" not in entry


class TestDecidedOnce:
    """Each instance costs one decision per digit pair: 40 instances for
    k in -2..2 (k = 0 skipped), 3 digit pairs each."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = membership.decide_membership

        def counted(ds, delta):
            seen.append((ds, delta))
            return original(ds, delta)

        monkeypatch.setattr(membership, "decide_membership", counted)
        monkeypatch.setattr(sweep, "decide_membership", counted, raising=False)
        return seen

    def test_sweep_decides_each_pair_once(self, calls):
        sweep_theorem(-2, 2, include_witnesses=True)
        assert len(calls) == 120

    def test_mirror_decides_each_pair_once(self, calls):
        assert mirror_check(-2, 2)
        assert len(calls) == 120

    @pytest.mark.parametrize("k_range", ["-2..2", "1..2"])
    def test_sweep_command_decides_each_instance_once(self, calls, capsys, k_range):
        # 40 sweep and mirror instances and 20 companion ones: -2..2 holds
        # every mirror instance, while for 1..2 the mirror check decides the
        # 20 with k < 0 that the report lacks
        assert main(["sweep", "--k-range", k_range]) == 0
        assert len(calls) == 180
        out = capsys.readouterr().out
        assert "theorem (connected iff |k|=1): PASS" in out
        assert "mirror (p,k vs -p,-k): PASS" in out
        assert "companion digit sets connected: PASS" in out
