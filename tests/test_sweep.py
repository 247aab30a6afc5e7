"""Sweep harness tests: theorem verdicts, symmetry checks, serialization."""

import hashlib
import json

import pytest

from tileconn import membership, sweep
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
