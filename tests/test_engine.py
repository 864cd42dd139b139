from collections import Counter

import pytest

from pqham import engine, graphs, quotients
from pqham.engine import (
    Certificate,
    Descriptor,
    NotHamiltonianException,
    ProofFailure,
    build_instance,
    dihedral_union_labels,
    format_certificate,
    format_survey,
    graph_fingerprint,
    parse_certificate,
    prove,
    row12_valency_check,
    survey,
    survey_descriptors,
    verify,
)
from pqham.actions import orbital_graph, psl2_coset_space, psl2_subgroup_scan
from pqham.families import FermatSpec, MetacirculantSpec
from pqham.graphs import BudgetExceeded, Graph, gp


PETERSEN = Descriptor(
    "metacirculant",
    (MetacirculantSpec(2, 5, 2, (frozenset({1, 4}), frozenset({0}))),))


def test_build_instance_families():
    # every family orbit_graph builds hands on the first generator the
    # graph records as rho
    for desc, order, valency in [
            (PETERSEN, 10, 3),
            (Descriptor("fermat", (FermatSpec(5, 3, frozenset(),
                                              frozenset({1})),)), 15, 4),
            (Descriptor("triple", (4,)), 35, 4),
            (Descriptor("dihedral", (13, "S7")), 91, 6),
            (Descriptor("psl2sub", (13, 2, 3, 3, 12, 3)), 91, 12),
            (Descriptor("omega", (5, 0)), 65, 10)]:
        g, rho = build_instance(desc)
        assert (g.n, g.valency()) == (order, valency), desc
        assert rho is g._automorphisms[0], desc
    # gp is built edge by edge and hands on its rotation, for a composite
    # n too
    for n, k in ((7, 2), (8, 3)):
        g, rho = build_instance(Descriptor("gp", (n, k)))
        assert g == gp(n, k) and g._automorphisms == ()
        assert rho == [(v + 1) % n if v < n else n + (v - n + 1) % n
                       for v in range(2 * n)]
    with pytest.raises(ValueError):
        build_instance(Descriptor("dihedral", (13, "S99")))
    with pytest.raises(ValueError):
        build_instance(Descriptor("nosuch", ()))


def test_build_instance_rejects_a_triple_size_without_a_suborbit():
    for size in (1, 5):
        with pytest.raises(ValueError, match=r"have \[4, 12, 18\]"):
            build_instance(Descriptor("triple", (size,)))


def test_dihedral_labels_13():
    from pqham.actions import dihedral_model
    labels = dihedral_union_labels(dihedral_model(13))
    assert sorted(labels) == ["S2", "S3", "S4+", "S4-", "S5", "S6", "S7",
                              "axis+", "axis-"]


def test_prove_and_verify():
    desc = Descriptor("gp", (7, 2))
    cert = prove(desc)
    g, _ = build_instance(desc)
    assert verify(g, cert)
    assert cert.order == 14 and cert.strategy
    # tampering is detected
    bad = Certificate(cert.order, cert.valency, "0" * 16, cert.cycle,
                      cert.strategy, cert.trace)
    assert not verify(g, bad)
    cyc = cert.cycle[:-2] + (cert.cycle[-1], cert.cycle[-2])
    bad = Certificate(cert.order, cert.valency, cert.fingerprint, cyc,
                      cert.strategy, cert.trace)
    assert not verify(g, bad)
    assert not verify(gp(7, 3), cert)


def test_verify_rejects_an_out_of_range_vertex():
    desc = Descriptor("gp", (7, 2))
    cert = prove(desc)
    g, _ = build_instance(desc)
    for cyc in ((14,) + cert.cycle[1:], cert.cycle[:-1] + (14,)):
        bad = Certificate(cert.order, cert.valency, cert.fingerprint, cyc,
                          cert.strategy, cert.trace)
        assert not verify(g, bad)


def test_certificate_round_trip():
    cert = prove(Descriptor("dihedral", (13, "S7")))
    again = parse_certificate(format_certificate(cert))
    assert again == cert
    assert "descriptor=dihedral(13,S7)" in cert.trace
    with pytest.raises(ValueError):
        parse_certificate("order=3\nvalency=2\n")


def test_petersen_is_the_exception():
    # the exhaustive search settles it in 34 expansions, well inside even
    # a small budget
    for desc in (Descriptor("gp", (5, 2)), PETERSEN):
        with pytest.raises(NotHamiltonianException, match="exhaustive") as e:
            prove(desc, budget=10 ** 3)
        assert (e.value.order, e.value.valency) == (10, 3)


def test_prove_strategies():
    c = prove(Descriptor("omega", (5, 0)))
    assert c.strategy == "quotient-lift"
    assert any(t.startswith("double_edge=") for t in c.trace)
    assert prove(Descriptor("dihedral", (13, "S7"))).strategy == \
        "quotient-lift"
    assert prove(Descriptor("dihedral", (13, "S4-"))).strategy == \
        "direct-search"
    # PSL(2,13) on the 14 cosets of a Borel subgroup: the distinguished
    # element fixes the base point, so no quotient strategy applies
    c = prove(Descriptor("psl2sub", (13, 2, 3, 6, 78, 1)))
    assert (c.strategy, c.order, c.valency) == ("direct-search", 14, 13)
    # survey(255): the lift proves every instance but the Petersen
    # exception and these five
    rows = survey(255)
    direct = [r.descriptor for r in rows if r.strategy == "direct-search"]
    assert direct == ["triple(4)", "dihedral(13,S4+)", "dihedral(13,S4-)",
                      "psl2sub(13,2,3,3,12,9)", "psl2sub(13,2,3,3,12,10)"]
    assert Counter(r.strategy for r in rows) == \
        {"quotient-lift": 22, "direct-search": 5, "-": 1}
    assert [r.status for r in rows].count("exception") == 1


def test_prove_outcomes_off_the_survey():
    # a circulant on a prime number of vertices lifts one voltage
    c = prove(Descriptor("metacirculant",
                         (MetacirculantSpec(1, 7, 1, (frozenset({1, 6}),)),)))
    assert c.strategy == "quotient-lift" and "voltage=1" in c.trace
    # two disjoint 5-cycles
    with pytest.raises(ProofFailure) as e:
        prove(Descriptor("metacirculant", (MetacirculantSpec(
            2, 5, 1, (frozenset({1, 4}), frozenset())),)))
    assert (e.value.order, e.value.valency) == (10, 2)
    # GP(n, 2) has no Hamilton cycle for n = 5 (mod 6)
    with pytest.raises(NotHamiltonianException, match="exhaustive"):
        prove(Descriptor("gp", (11, 2)))


@pytest.mark.parametrize("g, rho", [
    # two 5-cycles turned by rho: two orbits and no edge between them
    (Graph(10, [(c + i, c + (i + 1) % 5) for c in (0, 5) for i in range(5)]),
     [c + (i + 1) % 5 for c in (0, 5) for i in range(5)]),
    # no edges: one orbit, a circulant without a voltage to follow
    (Graph(5), [1, 2, 3, 4, 0]),
], ids=["two-5-cycles", "edgeless-c5"])
def test_disconnected_graphs_fail_after_the_lift(monkeypatch, g, rho):
    # connectivity is checked only before the direct search, so the lift
    # must give up cleanly on a disconnected graph first
    monkeypatch.setattr(engine, "build_instance", lambda desc: (g, rho))
    with pytest.raises(ProofFailure, match=r"gp\(5,1\) is disconnected") as e:
        prove(Descriptor("gp", (5, 1)))
    assert e.value.order == g.n


def test_parse_certificate_names_a_field_that_is_not_an_integer():
    lines = format_certificate(prove(Descriptor("gp", (7, 2)))).splitlines()
    for key, bad in (("order", "14x"), ("valency", ""), ("cycle", "0,1,a")):
        text = "\n".join(key + "=" + bad if line.startswith(key + "=")
                         else line for line in lines)
        with pytest.raises(ValueError, match="certificate %s holds" % key):
            parse_certificate(text)


def test_fingerprint_distinguishes_graphs():
    assert graph_fingerprint(gp(7, 2)) != graph_fingerprint(gp(7, 3))
    assert graph_fingerprint(gp(7, 2)) == graph_fingerprint(gp(7, 2))


def test_fingerprint_digests_pinned():
    # the digests of sha256 over "n;m;" and then "u,v;" for every edge u < v
    assert graph_fingerprint(gp(7, 2)) == "4380bc958fc52c92"
    assert graph_fingerprint(gp(5, 2)) == "5e1be7e9132bf2b3"  # Petersen
    sp = psl2_coset_space(13, *psl2_subgroup_scan(13, 2, 3, 3, 12))
    assert graph_fingerprint(orbital_graph(sp, (1,))) == "eb7b369f39f72d58"
    assert graph_fingerprint(orbital_graph(sp, (8,))) == "6bc96d91028c93f0"


def test_budget_exhaustion_is_proof_failure():
    with pytest.raises(ProofFailure) as e:
        prove(Descriptor("triple", (4,)), budget=10)
    assert (e.value.order, e.value.valency) == (35, 4)


def _exhausting_quotient_searches(monkeypatch, order, path_exhausts):
    """Patch engine's searches so that on any graph but one of the given
    order, hamilton_cycle and, when path_exhausts, hamilton_path run past
    their budget (a quotient path search otherwise finds none). Returns
    the (search, budget) of each patched call."""
    calls = []

    def patch(search, exhausts):
        def fake(g, *ends, budget):
            if g.n == order:
                return search(g, *ends, budget=budget)
            calls.append((search.__name__, budget))
            if exhausts:
                raise BudgetExceeded(budget + 1)
            return None
        monkeypatch.setattr(engine, search.__name__, fake)

    patch(graphs.hamilton_path, path_exhausts)
    patch(graphs.hamilton_cycle, True)
    return calls


@pytest.mark.parametrize("path_exhausts", [True, False])
def test_quotient_search_past_the_budget_leaves_the_direct_search(
        monkeypatch, path_exhausts):
    desc = Descriptor("omega", (5, 0))  # lifts through a double edge
    g = build_instance(desc)[0]
    calls = _exhausting_quotient_searches(monkeypatch, g.n, path_exhausts)
    c = prove(desc, budget=12345)
    assert c.strategy == "direct-search" and verify(g, c)
    assert calls and all(b == 12345 for _, b in calls)
    assert calls[-1][0] == ("hamilton_path" if path_exhausts
                            else "hamilton_cycle")
    # and a direct search past the budget is a ProofFailure as ever
    with pytest.raises(ProofFailure, match="budget exhausted"):
        prove(desc, budget=3)


def test_a_tiny_budget_ends_the_lift_without_escaping_prove():
    # the quotient path search of omega(5, 0) needs more than 1 expansion
    with pytest.raises(ProofFailure, match="budget exhausted"):
        prove(Descriptor("omega", (5, 0)), budget=1)
    assert prove(Descriptor("omega", (5, 0))).strategy == "quotient-lift"


def test_one_default_budget():
    assert engine.DEFAULT_BUDGET is graphs.DEFAULT_BUDGET == 10 ** 7
    for f in (graphs.hamilton_cycle, graphs.hamilton_path, prove, survey):
        assert f.__defaults__[-1] == graphs.DEFAULT_BUDGET


def test_row12_valency_check():
    assert row12_valency_check(1, eps=1, d=3) == {18: True, 16: True}
    assert row12_valency_check(1, eps=-1, d=4) == {54: True, 64: True}
    assert row12_valency_check(2, valency=16) is False
    assert row12_valency_check(2, valency=60) is True
    with pytest.raises(ValueError):
        row12_valency_check(1, eps=1, d=4)  # 2^3+1 = 9 not prime
    with pytest.raises(ValueError):
        row12_valency_check(2, valency=7)
    with pytest.raises(ValueError):
        row12_valency_check(3)


def test_survey_proofs_do_not_reprove_rho(monkeypatch):
    # every survey family but gp builds its graph with orbit_graph, which
    # records rho as proven, so quotient never checks it again
    def reproved(g, perm):
        raise AssertionError("quotient re-proved an automorphism")

    monkeypatch.setattr(quotients, "is_automorphism", reproved)
    for desc in survey_descriptors(255):
        try:
            prove(desc)
        except NotHamiltonianException:
            assert desc == PETERSEN


def test_survey_descriptors_growth():
    assert len(survey_descriptors(9)) == 0
    assert [str(d) for d in survey_descriptors(10)] == \
        ["metacirculant(m=2,n=5,alpha=2)"]
    assert len(survey_descriptors(35)) == 6


def test_survey_small(monkeypatch):
    built = []

    def counting(desc):
        built.append(desc)
        return build_instance(desc)

    monkeypatch.setattr(engine, "build_instance", counting)
    rows = survey(15)
    assert [r.status for r in rows] == ["exception", "hamiltonian"]
    # the exception row reads order and valency off the exception
    assert [(r.order, r.valency) for r in rows] == [(10, 3), (15, 4)]
    assert len(built) == 2
    out = format_survey(rows)
    assert "exception" in out and "hamiltonian" in out
    csv = format_survey(rows, csv=True)
    assert csv.splitlines()[0].startswith("descriptor,order")
