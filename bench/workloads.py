"""The benchmark's workloads: inputs made from a seed, one timed pass, and a
check of every output against pinned references and the independent checker.

Each pass calls the package's public functions in the order the CLI calls
them, in one process, one item after another: a closed loop with a single
client, nothing in parallel. A pass reports each item's latency to a
calibrate.Meter, which may run its calibration kernel between items.
``setup`` builds the program's inputs and is what ``setup_s`` times; reading
the pinned references is not part of it. The package is passed in as ``ic``
so that importing this module does not import the package (the set-up timer
covers that import).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checker

REFERENCE = Path(__file__).resolve().parent / "reference"


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class PassOutput:
    results: list  # one per item, in the pass's item order
    csv: str = ""


class Survey:
    """``survey --gen-n N --with-doubling [--node-limit L]``: generate the
    catalog, survey every graph (classify, bounds, compute_W, audit,
    doubling), write the CSV. The seed permutes the catalog order."""

    def __init__(self, n: int, node_limit: int, reference: str, exact: bool):
        self.n, self.node_limit, self.reference, self.exact = n, node_limit, reference, exact

    def load_reference(self) -> dict:
        text = (REFERENCE / self.reference).read_text()
        pins = json.loads((REFERENCE / "pins.json").read_text())
        if pins["csv_sha256"][self.reference] != hashlib.sha256(text.encode()).hexdigest():
            raise SystemExit(f"error: reference/{self.reference} does not match its pinned digest")
        rows = list(csv.reader(io.StringIO(text)))
        return {"text": text, "header": rows[0], "rows": rows[1:]}

    def setup(self, ic, seed: int, ref: dict) -> dict:
        order = list(range(len(ref["rows"])))
        random.Random(seed).shuffle(order)
        return {"limits": ic.SearchLimits(node_limit=self.node_limit), "order": order}

    def items(self, state) -> int:
        return len(state["order"])

    def run_pass(self, ic, state, meter) -> PassOutput:
        catalog = list(ic.generate_connected_catalog(self.n))
        if len(catalog) == len(state["order"]):
            catalog = [catalog[i] for i in state["order"]]
        records = []
        stream = ic.run_survey(catalog, state["limits"], with_doubling=True)
        while True:
            start = perf_counter()
            rec = next(stream, None)
            if rec is None:
                break
            meter.item(perf_counter() - start)
            records.append(rec)
        buf = io.StringIO()
        ic.write_survey_csv(records, buf)
        return PassOutput(catalog, buf.getvalue())

    def _row_ok(self, row: list[str], ref: list[str]) -> bool:
        if row == ref or self.exact:
            return row == ref
        # A smaller node cap may abort where the reference decided; anything
        # decided must agree with the reference unless the reference aborted.
        if row[:8] != ref[:8] or row[9] != ref[9]:
            return False
        w = row[8]
        if w == "aborted":
            return row[10:] == ["", "", ""]
        if ref[8] != "aborted":
            return False
        if w == "not-colorable":
            return row[10:] == ["", "", ""]
        return w.isdigit() and row[10] == str(int(ref[9]) - int(w)) and row[12] == "true"

    def check(self, state, ref, out: PassOutput, rec) -> dict[int, list[str]]:
        order = state["order"]
        bad: dict[int, list[str]] = {}
        rows = list(csv.reader(io.StringIO(out.csv)))
        if not rows or rows[0] != ref["header"] or len(rows) - 1 != len(order):
            return {i: ["CSV header or row count differs from the reference"] for i in range(len(order))}
        for i, row in enumerate(rows[1:]):
            if not self._row_ok(row, ref["rows"][order[i]]):
                bad.setdefault(i, []).append(f"CSV row {row} differs from reference")
        if self.exact:
            lines = out.csv.split("\n")
            canonical = [lines[0]] + [""] * len(order) + [""]
            for i, line in enumerate(lines[1 : 1 + len(order)]):
                canonical[1 + order[i]] = line
            if "\n".join(canonical) != ref["text"]:
                bad = bad or {i: ["CSV digest differs from the pinned digest"] for i in range(len(order))}
        index = {id(g): i for i, g in enumerate(out.results)}
        for g, _limits, outcome in rec.solves:
            if outcome.witness is None:
                continue
            faults = checker.coloring_faults(g.n, g.edges, outcome.witness.t, outcome.witness.colors)
            if faults or outcome.witness.t != outcome.w:
                bad.setdefault(index.get(id(g), -1), []).append(f"witness faults {sorted(faults)}")
        for g, alpha, cert in rec.certs:
            h, final = cert.result.h, cert.final
            faults = checker.doubling_faults(
                g.n, g.edges, alpha.t, alpha.colors, h.n, h.edges, final.t, final.colors
            )
            if faults:
                bad.setdefault(index.get(id(g), -1), []).append(f"certificate faults {faults}")
        return bad

    def decided(self, out: PassOutput) -> int:
        return sum(1 for row in list(csv.reader(io.StringIO(out.csv)))[1:] if row[8] != "aborted")


class Doubled:
    """``solve`` (compute_W) on the doubled graph H of every interval
    colorable connected graph G with n <= 5, built in set-up from G's
    witness. The seed permutes their order."""

    def load_reference(self) -> dict:
        doc = json.loads((REFERENCE / "doubled.json").read_text())
        out = {}
        for h6, entry in doc.items():
            n, edges = checker.graph6_edges(h6)
            out[(n, tuple(edges))] = entry
        return out

    def setup(self, ic, seed: int, ref: dict) -> dict:
        pairs = []
        for n in range(2, 6):
            for g in ic.generate_connected_catalog(n):
                solved = ic.compute_W(g)
                if solved.w is not None:
                    pairs.append((ic.double_with_certificate(g, solved.witness).result.h, solved.w))
        random.Random(seed).shuffle(pairs)
        return {"pairs": pairs}

    def items(self, state) -> int:
        return len(state["pairs"])

    def run_pass(self, ic, state, meter) -> PassOutput:
        outcomes = []
        for h, _w_g in state["pairs"]:
            start = perf_counter()
            outcomes.append(ic.compute_W(h))
            meter.item(perf_counter() - start)
        return PassOutput(outcomes)

    def check(self, state, ref, out: PassOutput, rec) -> dict[int, list[str]]:
        bad: dict[int, list[str]] = {}
        if len(state["pairs"]) != len(ref):
            bad[-1] = [f"{len(state['pairs'])} doubled graphs, reference has {len(ref)}"]
        for i, ((h, w_g), outcome) in enumerate(zip(state["pairs"], out.results)):
            reasons = []
            entry = ref.get((h.n, h.edges))
            if entry is None:
                reasons.append("doubled graph not in the reference")
            else:
                if w_g != entry["W_G"]:
                    reasons.append(f"W(G)={w_g}, reference {entry['W_G']}")
                if outcome.w != entry["W_H"]:
                    reasons.append(f"W={outcome.w}, reference {entry['W_H']}")
                if outcome.w is None or outcome.w < entry["W_G"] + 2:
                    reasons.append(f"W(H)={outcome.w} < W(G)+2={entry['W_G'] + 2}")
            witness = outcome.witness
            if witness is None or witness.t != outcome.w:
                reasons.append("no witness at W")
            elif checker.coloring_faults(h.n, h.edges, witness.t, witness.colors):
                reasons.append("witness is not an interval coloring")
            if reasons:
                bad[i] = reasons
        return bad

    def decided(self, out: PassOutput) -> int:
        return sum(1 for o in out.results if o.status.value != "aborted")


# Corruptions applied to a coloring document. VALIDATOR kinds give a
# well-formed coloring that validate must reject; PARSER kinds give a
# document coloring_from_json must refuse. Each is deterministic per item.
VALIDATOR_KINDS = ("duplicate", "gap", "shift")
PARSER_KINDS = ("missing_edge", "out_of_range")
VALID_COPIES = 6


def corrupt(doc: dict, kind: str) -> dict:
    t, edges = doc["t"], [dict(e) for e in doc["edges"]]
    if kind == "duplicate":
        for e in edges:
            other = next((f for f in edges if f is not e and {e["u"], e["v"]} & {f["u"], f["v"]}), None)
            if other is not None:
                e["color"] = other["color"]
                return {"t": t, "edges": edges}
        kind = "gap"  # K2: no two edges meet
    if kind == "shift":
        c = edges[0]["color"]
        if c + 1 <= t or c - 1 >= 1:
            edges[0]["color"] = c + 1 if c + 1 <= t else c - 1
            return {"t": t, "edges": edges}
        kind = "gap"  # t = 1: no other color exists
    if kind == "gap":
        return {"t": t + 1, "edges": edges}
    if kind == "missing_edge":
        return {"t": t, "edges": edges[:-1]}
    if kind == "out_of_range":
        edges[0]["color"] = t + 1
        return {"t": t, "edges": edges}
    raise ValueError(kind)


def _doc(edges_colors, t: int) -> dict:
    return {"t": t, "edges": [{"u": u, "v": v, "color": c} for (u, v), c in edges_colors]}


def base_items(ic) -> list[tuple[str, str, dict]]:
    """(item id, graph6, interval coloring document) for the certify corpus:
    complete bipartite graphs, even cycles, and iterated doublings of the
    witnesses of the colorable graphs with n <= 5. Sources keep n <= 31 so
    that H (2n vertices) still fits short-form graph6."""
    items = []
    shapes = [(a, a) for a in range(1, 16)] + [(a, a + 1) for a in range(1, 16)]
    shapes += [(a, b) for a in (1, 2, 3) for b in range(8, 29, 4)]
    for a, b in shapes:
        edges = [(i, a + j) for i in range(a) for j in range(b)]
        colors = [i + j + 1 for i in range(a) for j in range(b)]
        g6 = ic.write_graph6(ic.Graph(a + b, tuple(edges)))
        items.append((f"K{a},{b}", g6, _doc(zip(edges, colors), a + b - 1)))
    for k in range(2, 16):
        edges = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
        g6 = ic.write_graph6(ic.Graph(2 * k, tuple(edges)))
        up_down = list(range(1, k + 2)) + list(range(k, 1, -1))
        items.append((f"C{2 * k}/t2", g6, _doc(zip(edges, [1 + i % 2 for i in range(2 * k)]), 2)))
        items.append((f"C{2 * k}/t{k + 1}", g6, _doc(zip(edges, up_down), k + 1)))
    for n in range(2, 6):
        for g in ic.generate_connected_catalog(n):
            coloring = ic.compute_W(g).witness
            if coloring is None:
                continue
            root, depth = ic.write_graph6(g), 0
            while True:
                doc = ic.coloring_to_json(g, coloring)
                items.append((f"D{depth}:{root}", ic.write_graph6(g), doc))
                if 2 * g.n > 31:
                    break
                cert = ic.double_with_certificate(g, coloring)
                g, coloring, depth = cert.result.h, cert.final, depth + 1
    return items


class Certify:
    """``validate`` then ``double`` on a corpus of graph6 plus coloring-JSON
    documents: parse_graph6, coloring_from_json, validate_interval, and for
    valid colorings double_with_certificate and certificate_to_json. Every
    base item appears VALID_COPIES times intact, once with a VALIDATOR
    corruption and once with a PARSER corruption; the seed picks the two
    kinds and shuffles the stream."""

    def load_reference(self) -> dict:
        return json.loads((REFERENCE / "certify.json").read_text())

    def setup(self, ic, seed: int, ref: dict) -> dict:
        rng = random.Random(seed)
        stream = []
        for item_id, g6, doc in base_items(ic):
            kinds = [None] * VALID_COPIES + [rng.choice(VALIDATOR_KINDS), rng.choice(PARSER_KINDS)]
            for kind in kinds:
                text = json.dumps(doc if kind is None else corrupt(doc, kind))
                stream.append((item_id, kind, g6, text))
        rng.shuffle(stream)
        return {"stream": stream, "checked": {}}

    def items(self, state) -> int:
        return len(state["stream"])

    def run_pass(self, ic, state, meter) -> PassOutput:
        results = []
        for _item_id, _kind, g6, text in state["stream"]:
            start = perf_counter()
            try:
                g = ic.parse_graph6(g6)
                coloring = ic.coloring_from_json(g, json.loads(text))
                report = ic.validate_interval(g, coloring)
                if report.verdict:
                    cert = ic.certificate_to_json(ic.double_with_certificate(g, coloring))
                    result = ("valid", json.dumps(cert, indent=2))
                else:
                    result = ("rejected", ",".join(sorted({f.kind for f in report.failures})))
            except ic.ParseError:
                result = ("parse-error", None)
            except Exception as exc:  # any other exception is a failed item
                result = ("error", repr(exc))
            meter.item(perf_counter() - start)
            results.append(result)
        return PassOutput(results)

    def _independent(self, state, key: tuple, doc_text: str, g6: str) -> str:
        """The checker's verdict for one distinct input or output, cached."""
        if key not in state["checked"]:
            if key[0] == "certificate":
                faults = checker.certificate_faults(json.loads(doc_text))
                state["checked"][key] = ";".join(faults)
            else:
                doc = json.loads(doc_text)
                n, edges = checker.graph6_edges(g6)
                try:
                    t, colors = checker.doc_colors(doc, n, edges)
                    faults = checker.coloring_faults(n, edges, t, colors)
                except (KeyError, ValueError):
                    faults = {"shape"}
                if faults & {"shape", "range"}:
                    state["checked"][key] = "parse-error"
                else:
                    state["checked"][key] = ",".join(sorted(faults)) or "valid"
        return state["checked"][key]

    def check(self, state, ref, out: PassOutput, rec) -> dict[int, list[str]]:
        bad: dict[int, list[str]] = {}
        for i, ((item_id, kind, g6, text), (verdict, payload)) in enumerate(
            zip(state["stream"], out.results)
        ):
            pinned = ref.get(item_id)
            if pinned is None:
                bad[i] = [f"{item_id} not in the reference"]
                continue
            expected = pinned["certificate" if kind is None else kind]
            independent = self._independent(state, ("input", item_id, kind), text, g6)
            if kind is None:
                if independent != "valid":
                    bad[i] = [f"{item_id}: input coloring is not valid: {independent}"]
                elif verdict != "valid":
                    bad[i] = [f"{item_id}: valid coloring got {verdict} {payload}"]
                elif sha16(payload) != expected:
                    bad[i] = [f"{item_id}: certificate differs from the pinned digest"]
                elif self._independent(state, ("certificate", sha16(payload)), payload, g6):
                    bad[i] = [f"{item_id}: certificate fails the independent check"]
            elif verdict == "valid":
                bad[i] = [f"{item_id}/{kind}: a corrupted coloring was accepted"]
            else:
                got = "parse-error" if verdict == "parse-error" else payload
                if verdict == "error" or got != expected or independent != expected:
                    bad[i] = [f"{item_id}/{kind}: got {verdict} {got}, expected {expected}"]
        if len(out.results) != len(state["stream"]):
            bad[-1] = ["pass returned the wrong number of results"]
        return bad

    def decided(self, out: PassOutput) -> int:
        return sum(1 for verdict, _ in out.results if verdict != "error")


# Why each workload: see BENCHMARK.json. An exact survey is compared row for
# row with its pinned CSV; a capped one only where both it and the
# generous-cap reference decided.
WORKLOADS = {
    "survey6": Survey(6, 0, "survey6.csv", exact=True),
    "n7_capped": Survey(7, 2000, "n7_cap300000.csv", exact=False),
    "doubled": Doubled(),
    "certify": Certify(),
}
