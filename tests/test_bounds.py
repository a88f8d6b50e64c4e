from __future__ import annotations

import random

import pytest

from intervalcolor import (
    DomainError,
    Graph,
    applicable_bounds,
    audit,
    best_upper_bound,
    bounds,
    classify,
    generate_connected_catalog,
    is_connected,
)
from intervalcolor.bounds import bound_report_to_json
from smallgraphs import c4, cycle, k2, k4, p3, star, two_k2


def claims_of(g, planar=False):
    return {c.theorem_id: c.bound for c in applicable_bounds(g, classify(g), planar)}


class TestApplicableBounds:
    def test_p3(self):
        assert claims_of(p3()) == {"T1_triangle_free": 2, "T3_general": 3, "T4_general_n3": 2}

    def test_k4(self):
        assert claims_of(k4()) == {"T3_general": 5, "T4_general_n3": 4}

    def test_c8_all_structural_claims(self):
        assert claims_of(cycle(8)) == {
            "T1_triangle_free": 7,
            "T2_biregular": 5,
            "T3_general": 13,
            "T4_general_n3": 12,
            "T7_regular": 11,
        }

    def test_c4_biregular_precondition_fails(self):
        # (2,2)-biregular but n=4 < 2(2+2); 2-regular but n=4 < 2r+2
        c = claims_of(c4())
        assert "T2_biregular" not in c and "T7_regular" not in c

    def test_k2_skips_t4(self):
        assert claims_of(k2()) == {"T1_triangle_free": 1, "T3_general": 1}

    def test_planar_assertion_gates_t6(self):
        without = claims_of(c4())
        with_planar = claims_of(c4(), planar=True)
        assert "T6_planar_asserted" not in without
        assert with_planar["T6_planar_asserted"] == (11 * 4) // 6
        # assertion only adds a claim, never changes others
        assert {k: v for k, v in with_planar.items() if k != "T6_planar_asserted"} == without

    def test_t6_floor(self):
        assert claims_of(cycle(7), planar=True)["T6_planar_asserted"] == 12  # floor(77/6)

    def test_evidence_fields(self):
        by_id = {c.theorem_id: c for c in applicable_bounds(cycle(8), classify(cycle(8)))}
        assert by_id["T2_biregular"].evidence == {"n": 8, "a": 2, "b": 2}
        assert by_id["T7_regular"].evidence == {"n": 8, "r": 2}
        assert by_id["T1_triangle_free"].evidence == {"n": 8}
        (planar,) = [c for c in applicable_bounds(c4(), classify(c4()), True)
                     if c.theorem_id == "T6_planar_asserted"]
        assert planar.evidence == {"n": 4, "planar_asserted": True}

    def test_rejects_disconnected(self):
        with pytest.raises(DomainError):
            applicable_bounds(two_k2(), classify(two_k2()))

    def test_fixed_registry_order(self):
        ids = [c.theorem_id for c in applicable_bounds(cycle(8), classify(cycle(8)))]
        assert ids == [
            "T1_triangle_free",
            "T2_biregular",
            "T3_general",
            "T4_general_n3",
            "T7_regular",
        ]


class TestBestUpperBound:
    def test_k2(self):
        assert best_upper_bound(k2(), classify(k2())) == 1

    def test_star(self):
        assert best_upper_bound(star(3), classify(star(3))) == 3

    def test_c4(self):
        assert best_upper_bound(c4(), classify(c4())) == 3

    def test_edge_cap_binds(self):
        # P3: claims give 2, |E| = 2; K1,3: T1 gives 3 = |E|
        assert best_upper_bound(p3(), classify(p3())) == 2

    def test_is_the_least_claim_capped_by_m(self, catalogs, doubled_graphs):
        # On the n <= 7 catalogs, the doubled graphs and seeded random
        # connected graphs: the same minimum as the claims give.
        rng = random.Random(24)
        seeded = []
        while len(seeded) < 200:
            n, p = rng.randint(2, 12), rng.random()
            g = Graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])
            if g.m and is_connected(g):
                seeded.append(g)
        graphs = [g for n in range(2, 7) for g in catalogs[n]]
        graphs += [*generate_connected_catalog(7), *doubled_graphs, *seeded]
        for g in graphs:
            cls = classify(g)
            expected = min(min(c.bound for c in applicable_bounds(g, cls)), g.m)
            assert best_upper_bound(g, cls) == expected, g.edges
        assert len(graphs) == 1 + 2 + 6 + 21 + 112 + 853 + 23 + 200

    def test_builds_no_claim(self, catalogs, monkeypatch):
        def refuse(*args):
            raise AssertionError("best_upper_bound built a BoundClaim")

        monkeypatch.setattr(bounds, "BoundClaim", refuse)
        for g in catalogs[5] + [cycle(8), k4()]:
            best_upper_bound(g, classify(g))
        with pytest.raises(AssertionError, match="built a BoundClaim"):
            applicable_bounds(k2(), classify(k2()))

    def test_refuses_what_the_claims_refuse(self):
        for g in (two_k2(), Graph(1, ()), Graph(3, ())):
            for call in (applicable_bounds, best_upper_bound):
                with pytest.raises(DomainError):
                    call(g, classify(g))

    def test_never_below_max_degree_when_colorable(self, catalogs):
        from intervalcolor import compute_W

        for g in catalogs[5]:
            if compute_W(g).interval_colorable:
                assert best_upper_bound(g, classify(g)) >= classify(g).max_degree


class TestAudit:
    def test_c4_tight_t1(self):
        claims = applicable_bounds(c4(), classify(c4()))
        report = audit(c4(), 3, claims)
        assert report.violations == ()
        assert report.audited_W == 3
        tight = [c.theorem_id for c in claims if c.bound == 3]
        assert tight == ["T1_triangle_free"]

    def test_k4_tight_t4(self):
        claims = applicable_bounds(k4(), classify(k4()))
        report = audit(k4(), 4, claims)
        assert report.violations == ()
        assert [c.theorem_id for c in claims if c.bound == 4] == ["T4_general_n3"]

    def test_k2_tight_t3(self):
        claims = applicable_bounds(k2(), classify(k2()))
        report = audit(k2(), 1, claims)
        assert report.violations == ()
        assert any(c.theorem_id == "T3_general" and c.bound == 1 for c in claims)

    def test_violation_detected(self):
        claims = applicable_bounds(c4(), classify(c4()))
        report = audit(c4(), 4, claims)
        assert [c.theorem_id for c in report.violations] == ["T1_triangle_free"]

    def test_no_w_means_no_violation(self):
        # The CLI's bounds report: no W computed, so nothing is audited.
        claims = applicable_bounds(k4(), classify(k4()))
        report = audit(k4(), None, claims)
        assert (report.best, report.audited_W, report.violations) == (4, None, ())
        assert report.claims == claims

    def test_report_json(self):
        claims = applicable_bounds(p3(), classify(p3()))
        doc = bound_report_to_json(audit(p3(), 2, claims))
        assert doc["best"] == 2
        assert doc["audited_W"] == 2
        assert doc["violations"] == []
        assert {c["theorem_id"] for c in doc["claims"]} == {
            "T1_triangle_free",
            "T3_general",
            "T4_general_n3",
        }
