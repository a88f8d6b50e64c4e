"""Show that the benchmark's correctness checks can fail.

Runs one real pass of survey6, doubled and certify (about 15 s), confirms
that their outputs pass, then tampers with copies of those outputs and
confirms that each tampering is flagged: a corrupted witness, a wrong W, a
tampered CSV row (also under the capped n=7 rules), an accepted corrupted
coloring, a corrupted certificate, and a count that does not repeat.
Exits 1 if any tampering goes unnoticed.

Usage: python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys

import calibrate
import checker
import package
import run
import tracer
import workloads

FAILURES: list[str] = []


def expect(what: str, flagged) -> None:
    print(f"{'ok  ' if flagged else 'MISS'} {what}")
    if not flagged:
        FAILURES.append(what)


def one_pass(ic, name: str, seed: int = 7):
    wl = workloads.WORKLOADS[name]
    ref = wl.load_reference()
    state = wl.setup(ic, seed, ref)
    rec = tracer.Recorder()
    restore = tracer.install(rec.wrappers())
    try:
        out = wl.run_pass(ic, state, calibrate.Meter())
    finally:
        restore()
    expect(f"{name}: untampered outputs pass", not wl.check(state, ref, out, rec))
    return wl, ref, state, out, rec


def survey_cases(ic) -> None:
    wl, ref, state, out, rec = one_pass(ic, "survey6")
    k = next(i for i, (_, _, o) in enumerate(rec.solves) if o.witness is not None and o.w > 1)
    g, limits, outcome = rec.solves[k]
    colors = list(outcome.witness.colors)
    colors[0] = colors[0] % outcome.w + 1
    bad_witness = ic.EdgeColoring(outcome.w, tuple(colors))
    expect("checker: corrupted witness", checker.coloring_faults(g.n, g.edges, bad_witness.t, colors))
    tampered = tracer.Recorder()
    tampered.solves = list(rec.solves)
    tampered.solves[k] = (g, limits, dataclasses.replace(outcome, witness=bad_witness))
    expect("survey6: corrupted witness", k in wl.check(state, ref, out, tampered))

    lines = out.csv.split("\n")
    fields = lines[5].split(",")
    fields[10] = str(int(fields[10] or 0) + 1)  # slack
    lines[5] = ",".join(fields)
    bad_csv = dataclasses.replace(out, csv="\n".join(lines))
    expect("survey6: tampered CSV row", set(wl.check(state, ref, bad_csv, rec)) == {4})

    capped = workloads.WORKLOADS["n7_capped"]
    rows = capped.load_reference()["rows"]
    decided = next(r for r in rows if r[8].isdigit())
    aborted = decided[:8] + ["aborted"] + decided[9:10] + ["", "", ""]
    wrong_w = decided[:8] + [str(int(decided[8]) + 1)] + decided[9:]
    expect("n7_capped: an aborted row is accepted", capped._row_ok(aborted, decided))
    expect("n7_capped: a wrong W is flagged", not capped._row_ok(wrong_w, decided))


def doubled_cases(ic) -> None:
    wl, ref, state, out, rec = one_pass(ic, "doubled")
    results = list(out.results)
    results[3] = dataclasses.replace(results[3], w=results[3].w - 1)
    reasons = wl.check(state, ref, dataclasses.replace(out, results=results), rec).get(3, [])
    expect("doubled: wrong W", any("reference" in r for r in reasons))


def certify_cases(ic) -> None:
    wl, ref, state, out, rec = one_pass(ic, "certify")
    stream = state["stream"]
    corrupted = next(i for i, item in enumerate(stream) if item[1] in workloads.VALIDATOR_KINDS)
    valid = next(i for i, item in enumerate(stream) if item[1] is None and item[0] == stream[corrupted][0])
    results = list(out.results)
    results[corrupted] = results[valid]
    flagged = wl.check(state, ref, dataclasses.replace(out, results=results), rec)
    expect("certify: accepted corrupted coloring", set(flagged) == {corrupted})

    doc = json.loads(results[valid][1])
    doc["final"]["edges"][0]["color"] = doc["final"]["edges"][0]["color"] % doc["final"]["t"] + 1
    expect("checker: corrupted certificate", checker.certificate_faults(doc))


def guard_case() -> None:
    run.guard_counts("selftest", {"search_nodes": 1})
    try:
        run.guard_counts("selftest", {"search_nodes": 2})
        flagged = False
    except run.CountMismatch:
        flagged = True
    finally:
        for path in (run.ROOT / ".bench_state").glob("*-selftest.json"):
            path.unlink()
    expect("guard: a count that does not repeat", flagged)


def main() -> int:
    ic = package.import_package()
    survey_cases(ic)
    doubled_cases(ic)
    certify_cases(ic)
    guard_case()
    print("self-test", "FAILED: " + "; ".join(FAILURES) if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
