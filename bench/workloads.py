"""Workload inputs, passes and output checks.

Each pass runs in a fresh interpreter (see child.py), so every cache starts
cold, as it does for a command-line user.  Inputs come only from the seed;
the library sees the generated digit systems and query deltas, never the
seed itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import time
import traceback

from tileconn import expansions, lattice, membership, render, series, sweep

# sweep-k20: the `tileconn sweep --k-range -20..20 --witnesses` pipeline.
SWEEP_K = {"full": 20, "tiny": 2}
SWEEP_CONNECTED = 20  # connected exactly when |k| = 1: ten polynomials, k = +-1
# SHA-256 of report_json for the k range, as recorded at the seed commit.
SWEEP_REPORT_SHA256 = {
    "full": "f7f473ef6691a489d1961ce578fb8cf38184aa158ee858ca5436c569b6491e75",
    "tiny": "54882f932b1009d73ddc8f619327c59c654936916a9d2cb675365f77878a6349",
}

# decide-mixed: the whole accepted domain, sampled per (polynomial, digit
# count) cell so that every seed costs about the same.
DET_ABS = range(2, 7)  # |q| in 2..6: 70 expanding quadratics
DIGIT_COUNTS = (2, 3, 4, 5)
COORD = 2  # digit coordinates in [-COORD, COORD]
SYSTEMS_PER_CELL = {"full": 2, "tiny": 0}  # tiny: one system per polynomial
REPEAT_SHARE = 0.25  # translated or negated copies of earlier systems
QUERIES_INSIDE = {"full": 3, "tiny": 1}
QUERIES_OUTSIDE = 1

# render-calib: (p, q, k), 8-connected components and PPM SHA-256.  The full
# entries are the frozen README calibration table; the tiny ones were
# recorded at the seed commit.
RENDER_SIZE = {"full": (12, 512), "tiny": (7, 64)}
RENDER_CALIB = {
    "full": (
        ((0, 3, 1), 1, "e0d15d34e8540a8c03329189d73f54814675aa76252a4229ede0af56b933b857"),
        ((0, 3, 2), 245, "0665346ce8e79a99ec00912de66c99e4f9ef83549b3c1a2f40bee9fd225baf92"),
        ((1, 3, 1), 1, "a36f7cf5aac9b9cd9ea129d801f97c5d07566b691e9e2b891968e831ea7b4ff7"),
        ((1, 3, 2), 61, "cda4db103c228adf9eca17c71038eacc101cb39eadac712c5f7af8f5872b5b69"),
    ),
    "tiny": (
        ((0, 3, 1), 82, "549bf05e9f8e6d865e4251d35b5ba15b8162c6cc0ffe0fd986875ee8c0e29a26"),
        ((0, 3, 2), 24, "54179607e63f2d384267d98d97e8c76e552bff99777bc7c21ac41b8d186a5e49"),
        ((1, 3, 1), 6, "08f1b41cd702deee04401e5642b3ff7730f17ee3e1ad552f5559f315248850c5"),
        ((1, 3, 2), 16, "2c082c521eef3118df21a4e7814e23d82ee7533f3282ad7929d4b18b879ef9fa"),
    ),
}


class Pass:
    """Request latencies and check outcomes of one pass."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.requests: list[tuple[str, float]] = []  # (kind, ms)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def request(self, kind: str, fn, *args):
        """Time one request; an exception counts as a failed operation."""
        self.attempted += 1
        started = time.perf_counter_ns()
        try:
            with self.span("bench." + kind):
                result = fn(*args)
        except Exception as exc:  # a failed request is recorded, not fatal
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failed += 1
            self.failures.append(
                f"{kind}: {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"
            )
            return None
        self.requests.append((kind, (time.perf_counter_ns() - started) / 1e6))
        return result


# ---------------------------------------------------------------- inputs


def make_inputs(workload: str, seed: int, scale: str):
    if workload == "sweep-k20":
        return SWEEP_K[scale]
    if workload == "render-calib":
        depth, size = RENDER_SIZE[scale]
        return [
            (render.RenderConfig(lattice.CharPoly(p, q), lattice.standard_digits(k),
                                 depth=depth, width=size, height=size, margin=0.05),
             components, digest)
            for (p, q, k), components, digest in RENDER_CALIB[scale]
        ]
    if workload == "decide-mixed":
        return decide_stream(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


def expanding_polys() -> list:
    return [poly for n in DET_ABS for poly in lattice.enumerate_expanding(n)]


def decide_stream(seed: int, scale: str) -> list[dict]:
    """Seeded digit systems over the accepted domain, with repeats and queries.

    Each entry holds a digit system, the index of the earlier entry it
    repeats (translated or negated) or None, and uniform draws that pick the
    query deltas once the state box is known.
    """
    rng = random.Random(seed)
    coords = [(l, k) for l in range(-COORD, COORD + 1) for k in range(-COORD, COORD + 1)]
    polys = expanding_polys()
    if SYSTEMS_PER_CELL[scale]:
        cells = [(p, n) for p in polys for n in DIGIT_COUNTS] * SYSTEMS_PER_CELL[scale]
    else:
        cells = [(p, DIGIT_COUNTS[i % len(DIGIT_COUNTS)]) for i, p in enumerate(polys)]
    rng.shuffle(cells)
    kinds = [False] * (len(cells) - 1) + [True] * int(len(cells) * REPEAT_SHARE)
    rng.shuffle(kinds)
    fresh = iter(cells)
    p, n = next(fresh)
    stream = [{"poly": p, "digits": rng.sample(coords, n), "source": None}]
    fresh_idx = [0]
    for repeat in kinds:
        if not repeat:
            p, n = next(fresh)
            fresh_idx.append(len(stream))
            stream.append({"poly": p, "digits": rng.sample(coords, n), "source": None})
            continue
        src = rng.choice(fresh_idx)
        base = stream[src]["digits"]
        if rng.random() < 0.5:
            digits = [(-l, -k) for l, k in base]
        else:
            tl, tk = rng.choice([c for c in coords if c != (0, 0)])
            digits = [(l + tl, k + tk) for l, k in base]
        stream.append({"poly": stream[src]["poly"], "digits": digits, "source": src})
    for entry in stream:
        entry["system"] = lattice.DigitSystem(entry["poly"], entry["digits"])
        entry["inside"] = [(rng.random(), rng.random()) for _ in range(QUERIES_INSIDE[scale])]
        entry["outside"] = [(rng.randrange(4), rng.random()) for _ in range(QUERIES_OUTSIDE)]
    return stream


# ---------------------------------------------------------------- passes


def run_pass(workload: str, inputs, scale: str, tracer=None) -> Pass:
    out = Pass(tracer)
    with out.span("bench.workload"):
        if workload == "sweep-k20":
            _sweep_pass(out, inputs, scale)
        elif workload == "decide-mixed":
            _decide_pass(out, inputs)
        else:
            _render_pass(out, inputs)
    return out


def _sweep_cli(k: int):
    # as cli._cmd_sweep runs `sweep --k-range -k..k --witnesses --report`
    report = sweep.sweep_theorem(-k, k, include_witnesses=True)
    mirror_ok = sweep.mirror_check(-k, k)
    corollary_ok = sweep.corollary_check()
    text = sweep.report_json(report)
    return report, mirror_ok, corollary_ok, text


def _sweep_pass(out: Pass, k: int, scale: str) -> None:
    result = out.request("sweep", _sweep_cli, k)
    if result is None:
        return
    report, mirror_ok, corollary_ok, text = result
    out.check(report.theorem_verdict, "sweep: theorem_verdict")
    out.check(len(report.entries) == 10 * 2 * k, "sweep: instance count")
    out.check(report.connected_count == SWEEP_CONNECTED, "sweep: connected count")
    out.check(mirror_ok, "sweep: mirror check")
    out.check(corollary_ok, "sweep: companion digit sets")
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    out.check(digest == SWEEP_REPORT_SHA256[scale], f"sweep: report sha256 {digest}")


def _decide(ds):
    # the `tileconn decide` path, with each printed edge witness verified
    graph = membership.edge_graph(ds)
    witnesses = {}
    for i, j in sorted(graph.edges):
        delta = ds.digits[i] - ds.digits[j]
        outcome = membership.decide_membership(ds, delta)
        witnesses[(i, j)] = (
            outcome.member and expansions.verify_witness(ds, delta, outcome.witness)
        )
    return graph.edges, witnesses, membership.is_connected(ds)


def _query(ds, delta):
    # the `tileconn decide --delta` path
    outcome = membership.decide_membership(ds, delta)
    verified = outcome.member and expansions.verify_witness(ds, delta, outcome.witness)
    return outcome.member, verified


def _spans_all(n: int, edges) -> bool:
    reached = {0}
    grew = True
    while grew:
        grew = False
        for i, j in edges:
            if (i in reached) != (j in reached):
                reached.update((i, j))
                grew = True
    return len(reached) == n


def _decide_checked(out: Pass, ds, label: str):
    result = out.request("decide", _decide, ds)
    if result is None:
        return None
    edges, witnesses, connected = result
    out.check(all(witnesses.values()), f"{label}: edge witness verification")
    out.check(connected == _spans_all(len(ds.digits), edges), f"{label}: verdict vs edges")
    return edges, connected


def _box_delta(box, draw):
    u, w = draw
    return lattice.LatticeVec(
        int(u * (2 * box.l_max + 1)) - box.l_max, int(w * (2 * box.k_max + 1)) - box.k_max
    )


def _outside_delta(box, draw):
    side, u = draw
    sign = 1 if side % 2 else -1
    if side < 2:
        return lattice.LatticeVec(sign * (box.l_max + 1), int(u * (2 * box.k_max + 1)) - box.k_max)
    return lattice.LatticeVec(int(u * (2 * box.l_max + 1)) - box.l_max, sign * (box.k_max + 1))


def _decide_pass(out: Pass, stream: list[dict]) -> None:
    verdicts: list = []
    for idx, entry in enumerate(stream):
        ds = entry["system"]
        label = f"system {idx} {ds.poly} {list(ds.digits)}"
        verdict = _decide_checked(out, ds, label)
        verdicts.append(verdict)
        src = entry["source"]
        if src is not None and verdict is not None:
            out.check(verdict == verdicts[src], f"{label}: repeat of {src} disagrees")
        box = membership.state_box(ds, series.series_sums(ds.poly))
        for draw in entry["inside"]:
            delta = _box_delta(box, draw)
            answer = out.request("query", _query, ds, delta)
            if answer is not None:
                member, verified = answer
                out.check(verified or not member, f"{label}: witness for {delta}")
        for draw in entry["outside"]:
            delta = _outside_delta(box, draw)
            answer = out.request("query", _query, ds, delta)
            if answer is not None:
                out.check(not answer[0], f"{label}: {delta} outside the box is a member")
    for poly in expanding_polys():
        # Kirat, Lau & Rao (2004): {0, v, ..., (|q|-1)v} is connected
        ds = lattice.DigitSystem(poly, [(i, 0) for i in range(abs(poly.q))])
        verdict = _decide_checked(out, ds, f"collinear {poly}")
        if verdict is not None:
            out.check(verdict[1], f"collinear {poly}: not connected")
    for item in expansions.expansion_catalog():
        ok = out.request("catalog", _catalog_item, item)
        if ok is not None:
            out.check(ok, f"catalog {item.label}")


def _catalog_item(item) -> bool:
    # as `tileconn verify-corpus` checks one item
    ds = lattice.DigitSystem(item.poly, lattice.standard_digits(item.k))
    value = expansions.eval_expansion(item.poly, item.witness.preperiod, item.witness.period)
    eval_ok = (value.l, value.k) == (item.delta.l, item.delta.k)
    member_ok = membership.decide_membership(ds, item.delta).member
    word_ok = (not item.word_in_dd) or expansions.verify_witness(ds, item.delta, item.witness)
    return eval_ok and member_ok and word_ok


def _render_one(cfg, path):
    grid = render.rasterize(cfg)
    components = render.count_components(grid, 8)
    render.write_image(grid, path)
    return components


def _render_pass(out: Pass, calib) -> None:
    out_dir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    for idx, (cfg, want_components, want_digest) in enumerate(calib):
        label = f"render p={cfg.poly.p} q={cfg.poly.q} k={cfg.digits[2].k}"
        path = os.path.join(out_dir, f"render-{os.getpid()}-{idx}.ppm")
        try:
            components = out.request("render", _render_one, cfg, path)
            if components is None:
                continue
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        out.check(components == want_components, f"{label}: {components} components")
        out.check(digest == want_digest, f"{label}: sha256 {digest}")
