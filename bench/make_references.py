"""Regenerate the pinned reference outputs in bench/reference/.

The references were produced from the package as it stood when the benchmark
was defined; rerun this only when an intended change of output is accepted.
The witnesses and certificates behind the doubled and certify references are
first confirmed by the independent checker; the survey CSVs are pinned as
written (every benchmark run re-checks their witnesses).

Usage: python3 bench/make_references.py [survey6] [n7] [doubled] [certify]
(no arguments: all of them; n7 takes about three minutes on one core).
"""

from __future__ import annotations

import hashlib
import io
import json
import sys

import checker
import package
import workloads

REF = workloads.REFERENCE
N7_REFERENCE_CAP = 300_000


def survey_csv(ic, n: int, node_limit: int) -> str:
    buf = io.StringIO()
    graphs = list(ic.generate_connected_catalog(n))
    records = ic.run_survey(graphs, ic.SearchLimits(node_limit=node_limit), with_doubling=True)
    ic.write_survey_csv(records, buf)
    return buf.getvalue()


def pin_csv(name: str, text: str) -> None:
    (REF / name).write_text(text)
    pins_path = REF / "pins.json"
    pins = json.loads(pins_path.read_text()) if pins_path.exists() else {"csv_sha256": {}}
    pins["csv_sha256"][name] = hashlib.sha256(text.encode()).hexdigest()
    pins_path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def doubled(ic) -> dict:
    out = {}
    for n in range(2, 6):
        for g in ic.generate_connected_catalog(n):
            solved = ic.compute_W(g)
            if solved.w is None:
                continue
            h = ic.double_with_certificate(g, solved.witness).result.h
            w_h = ic.compute_W(h)
            assert w_h.w >= solved.w + 2
            assert not checker.coloring_faults(h.n, h.edges, w_h.witness.t, w_h.witness.colors)
            out[ic.write_graph6(h)] = {"G": ic.write_graph6(g), "W_G": solved.w, "W_H": w_h.w}
    assert len(out) == 23
    return out


def certify(ic) -> dict:
    """Per base item: the digest of its certificate as the double command
    prints it, and the verdict for each corruption kind."""
    state = {"checked": {}}
    bench = workloads.WORKLOADS["certify"]
    out = {}
    for item_id, g6, doc in workloads.base_items(ic):
        g = ic.parse_graph6(g6)
        cert = json.dumps(ic.certificate_to_json(ic.double_with_certificate(g, ic.coloring_from_json(g, doc))), indent=2)
        assert not checker.certificate_faults(json.loads(cert)), item_id
        entry = {"certificate": workloads.sha16(cert)}
        for kind in workloads.VALIDATOR_KINDS + workloads.PARSER_KINDS:
            text = json.dumps(workloads.corrupt(doc, kind))
            try:
                report = ic.validate_interval(g, ic.coloring_from_json(g, json.loads(text)))
                assert not report.verdict, (item_id, kind)
                verdict = ",".join(sorted({f.kind for f in report.failures}))
            except ic.ParseError:
                verdict = "parse-error"
            assert verdict == bench._independent(state, ("input", item_id, kind), text, g6), (item_id, kind)
            entry[kind] = verdict
        out[item_id] = entry
    return out


def main() -> None:
    ic = package.import_package()
    wanted = set(sys.argv[1:]) or {"survey6", "n7", "doubled", "certify"}
    if "survey6" in wanted:
        pin_csv("survey6.csv", survey_csv(ic, 6, 0))
    if "n7" in wanted:
        pin_csv(f"n7_cap{N7_REFERENCE_CAP}.csv", survey_csv(ic, 7, N7_REFERENCE_CAP))
    if "doubled" in wanted:
        (REF / "doubled.json").write_text(json.dumps(doubled(ic), indent=1, sort_keys=True) + "\n")
    if "certify" in wanted:
        (REF / "certify.json").write_text(json.dumps(certify(ic), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
