"""Batch verification of the connectedness criterion across instances.

Runs the decision engine over every expanding polynomial with |q| = 3 and a
range of k values for the digit set {0, v, k*Av}, checks the expected
verdict (connected exactly when |k| = 1), the p -> -p, k -> -k mirror
equivalence, and the two always-connected companion digit sets
{0, v, Av + v} and {0, v, -Av + v}.  Reports serialize to JSON, without
timing, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

from .expansions import Witness, verify_witness
from .lattice import CharPoly, DigitSystem, LatticeVec, enumerate_expanding, standard_digits
from .membership import EdgeGraph, edge_graph, is_connected

SWEEP_DET_ABS = 3
JSON_SCHEMA = "tileconn-sweep/1"


class EdgeWitness(NamedTuple):
    edge: tuple[int, int]
    delta: LatticeVec
    witness: Witness


class SweepEntry(NamedTuple):
    poly: CharPoly
    k: int
    connected: bool
    edges: tuple[tuple[int, int], ...]
    witnesses: Optional[tuple[EdgeWitness, ...]] = None


class SweepReport(NamedTuple):
    k_lo: int
    k_hi: int
    entries: tuple[SweepEntry, ...]
    theorem_verdict: bool

    @property
    def connected_count(self) -> int:
        return sum(1 for e in self.entries if e.connected)


def _k_values(k_lo: int, k_hi: int) -> list[int]:
    if k_lo > k_hi:
        raise ValueError("empty k range")
    return [k for k in range(k_lo, k_hi + 1) if k != 0]


def _spanning_witnesses(ds: DigitSystem, graph: EdgeGraph) -> tuple[EdgeWitness, ...]:
    out = []
    for i, j in graph.spanning:
        delta = ds.digits[i] - ds.digits[j]
        witness = graph.witnesses[(i, j)]
        if not verify_witness(ds, delta, witness):
            raise AssertionError(f"edge {i}-{j} lost its verified witness")
        out.append(EdgeWitness((i, j), delta, witness))
    return tuple(out)


def sweep_theorem(k_lo: int, k_hi: int, include_witnesses: bool = False) -> SweepReport:
    """Decide every (poly, k) instance and compare against |k| == 1."""
    entries = []
    verdict = True
    for poly in enumerate_expanding(SWEEP_DET_ABS):
        for k in _k_values(k_lo, k_hi):
            ds = DigitSystem(poly, standard_digits(k))
            graph = edge_graph(ds)
            witnesses = None
            if include_witnesses and graph.connected:
                witnesses = _spanning_witnesses(ds, graph)
            entries.append(
                SweepEntry(poly, k, graph.connected, tuple(sorted(graph.edges)), witnesses)
            )
            if graph.connected != (abs(k) == 1):
                verdict = False
    return SweepReport(k_lo, k_hi, tuple(entries), verdict)


def mirror_holds(report: SweepReport) -> bool:
    """Connectedness agrees between (p, q, k) and (-p, q, -k) for every
    entry of the report.  Verdicts come from the report; only mirror
    instances it lacks (an asymmetric k range) are decided here."""
    verdicts = {(e.poly, e.k): e.connected for e in report.entries}

    def connected(poly: CharPoly, k: int) -> bool:
        if (poly, k) not in verdicts:
            verdicts[(poly, k)] = is_connected(DigitSystem(poly, standard_digits(k)))
        return verdicts[(poly, k)]

    return all(
        e.connected == connected(CharPoly(-e.poly.p, e.poly.q), -e.k) for e in report.entries
    )


def mirror_check(k_lo: int, k_hi: int) -> bool:
    """Connectedness agrees between (p, q, k) and (-p, q, -k) instances."""
    return mirror_holds(sweep_theorem(k_lo, k_hi))


_COMPANION_DIGITS = (
    (LatticeVec(0, 0), LatticeVec(1, 0), LatticeVec(1, 1)),
    (LatticeVec(0, 0), LatticeVec(1, 0), LatticeVec(1, -1)),
)


def corollary_check() -> bool:
    """The digit sets {0, v, Av + v} and {0, v, -Av + v} are connected for
    every eligible polynomial."""
    for poly in enumerate_expanding(SWEEP_DET_ABS):
        for digits in _COMPANION_DIGITS:
            if not is_connected(DigitSystem(poly, digits)):
                return False
    return True


def _witness_json(ew: EdgeWitness) -> dict:
    return {
        "edge": list(ew.edge),
        "delta": [ew.delta.l, ew.delta.k],
        "preperiod": [[d.l, d.k] for d in ew.witness.preperiod],
        "period": [[d.l, d.k] for d in ew.witness.period],
    }


def report_json(report: SweepReport) -> str:
    """Structured serialization; see README for the schema. Deterministic."""
    entries = []
    for e in report.entries:
        record = {
            "p": e.poly.p,
            "q": e.poly.q,
            "k": e.k,
            "connected": e.connected,
            "edges": [list(edge) for edge in e.edges],
        }
        if e.witnesses is not None:
            record["witnesses"] = [_witness_json(ew) for ew in e.witnesses]
        entries.append(record)
    doc = {
        "schema": JSON_SCHEMA,
        "k_range": [report.k_lo, report.k_hi],
        "entries": entries,
        "connected_count": report.connected_count,
        "theorem_verdict": report.theorem_verdict,
    }
    return json.dumps(doc, indent=2) + "\n"
