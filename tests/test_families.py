import random
from itertools import combinations

import pytest

from pqham.families import (
    FermatSpec,
    MetacirculantSpec,
    _gf_powers,
    fermat_graph,
    metacirculant,
    parse_family_spec,
)
from pqham.graphs import Graph, gp
from pqham.quotients import (
    is_automorphism,
    permutation_orbits,
    quotient,
)
from reference_families import (
    edge_rule_fermat,
    edge_rule_metacirculant,
    fermat_shift_power,
    fermat_specs,
    random_metacirculant_spec,
)
from reference_graphs import find_isomorphism, is_isomorphic


def complete_graph(n):
    return Graph(n, list(combinations(range(n), 2)))


def line_graph(g):
    es = g.edges()
    return Graph(len(es), [(i, j) for (i, e), (j, f)
                           in combinations(list(enumerate(es)), 2)
                           if set(e) & set(f)])


PET_SPEC = MetacirculantSpec(2, 5, 2, (frozenset({1, 4}), frozenset({0})))


def test_gf2k_arithmetic():
    assert _gf_powers(4) == [1, 2, 3]  # x*x = x+1
    p16 = _gf_powers(16)
    assert p16[1] == 2 and p16[4] == 3  # x^4 = x+1
    assert sorted(p16) == list(range(1, 16))
    p256 = _gf_powers(256)
    assert p256[1] == 3  # x is not primitive mod x^8+x^4+x^3+x+1
    assert len(set(p256)) == 255
    with pytest.raises(ValueError):
        _gf_powers(8)


def test_metacirculant_petersen():
    g = metacirculant(PET_SPEC)
    rho, sigma = g._automorphisms
    assert g == gp(5, 2)
    q = quotient(g, rho)
    assert (q.m, q.n) == (2, 5)
    assert is_automorphism(g, sigma)
    assert [sorted(o) for o in permutation_orbits(rho, sigma)] == \
        [list(range(10))]


def test_metacirculant_circulant():
    spec = MetacirculantSpec(1, 7, 1, (frozenset({1, 6}),))
    g = metacirculant(spec)
    rho, sigma = g._automorphisms
    c7 = Graph(7, [(i, (i + 1) % 7) for i in range(7)])
    assert g == c7
    q = quotient(g, rho)
    assert (q.m, q.n) == (1, 7)


def test_metacirculant_validation():
    with pytest.raises(ValueError):
        MetacirculantSpec(2, 5, 2, (frozenset({0, 1, 4}), frozenset({0})))
    with pytest.raises(ValueError):
        MetacirculantSpec(2, 5, 2, (frozenset({1, 2}), frozenset({0})))
    with pytest.raises(ValueError):
        MetacirculantSpec(2, 10, 5, (frozenset({1, 9}), frozenset({0})))
    with pytest.raises(ValueError):
        MetacirculantSpec(2, 5, 2, (frozenset({1, 4}),))
    # alpha^mu T_mu = -T_mu violated: alpha=1, T_1={1} with -T_1={4}
    with pytest.raises(ValueError):
        MetacirculantSpec(2, 5, 1, (frozenset({1, 4}), frozenset({1})))


def test_metacirculant_transitive_family():
    for spec in [
        MetacirculantSpec(3, 7, 2, (frozenset({1, 6}), frozenset({0, 3}))),
        MetacirculantSpec(2, 13, 5, (frozenset({1, 12}), frozenset({0}))),
        MetacirculantSpec(4, 5, 2, (frozenset({1, 4}), frozenset({0}),
                                    frozenset({1, 2, 3, 4}))),
    ]:
        g = metacirculant(spec)
        rho, sigma = g._automorphisms
        q = quotient(g, rho)
        assert (q.m, q.n) == (spec.m, spec.n)
        assert is_automorphism(g, sigma)
        assert [sorted(o) for o in permutation_orbits(rho, sigma)] == \
            [list(range(g.n))]


def test_metacirculant_equals_edge_rule():
    rnd = random.Random(14)
    for _ in range(300):
        spec = random_metacirculant_spec(rnd)
        assert metacirculant(spec) == edge_rule_metacirculant(spec), spec


FERMAT_53 = FermatSpec(5, 3, frozenset(), frozenset({1}))


def test_fermat_smallest_is_line_graph_of_petersen():
    g = fermat_graph(FERMAT_53)
    rho = g._automorphisms[0]
    assert g.n == 15 and g.is_regular() and g.valency() == 4
    assert is_isomorphic(g, line_graph(gp(5, 2)))
    q = quotient(g, rho)
    assert (q.m, q.n) == (5, 3)


def fiber_quotient(g, q):
    """The simple graph on the fibers {v*q + r : r in Z_q} of a Fermat
    graph, two fibers adjacent when an edge joins them."""
    return Graph(g.n // q, [(u // q, v // q) for u, v in g.edges()
                            if u // q != v // q])


def test_fermat_block_quotient_complete():
    for spec in [FERMAT_53,
                 FermatSpec(17, 3, frozenset(), frozenset({1})),
                 FermatSpec(17, 5, frozenset({1, 4}), frozenset({1, 2}))]:
        g = fermat_graph(spec)
        q = quotient(g, g._automorphisms[0])
        assert (q.m, q.n) == (spec.p, spec.q)
        assert fiber_quotient(g, spec.q) == complete_graph(spec.p)


def test_fermat_orbit_quotient_is_not_complete():
    # the orbit quotient of the semiregular shift differs from the
    # fiber-block quotient: not every pair of orbits is joined
    g = fermat_graph(FERMAT_53)
    q = quotient(g, g._automorphisms[0])
    pairs = [(a, b) for a, b in combinations(range(5), 2) if q.d(a, b) == 0]
    assert pairs


def test_fermat_vertex_transitive_small():
    for spec in [FERMAT_53, FermatSpec(17, 3, frozenset(), frozenset({1}))]:
        g = fermat_graph(spec)
        p, q = spec.p, spec.q
        base = (p - 1) * q  # (infinity, 0)
        for target in [0] + [q + r for r in range(q)]:
            assert find_isomorphism(g, g, seed={base: target}) is not None


def test_fermat_equals_edge_rule():
    specs = fermat_specs(5, 3) + fermat_specs(17, 3) + fermat_specs(17, 5)
    assert len(specs) == 4 + 4 + 56
    specs.append(FermatSpec(257, 3, frozenset({1, 2}), frozenset({2})))
    for spec in specs:
        g = fermat_graph(spec)
        assert g == edge_rule_fermat(spec), spec
        # the first automorphism the graph records is the shift power
        assert g._automorphisms[0] == tuple(fermat_shift_power(spec)), spec


def test_fermat_validation():
    with pytest.raises(ValueError):
        FermatSpec(17, 5, frozenset(), frozenset())  # T empty
    with pytest.raises(ValueError):
        FermatSpec(17, 5, frozenset(), frozenset({1, 2, 3, 4}))  # T not proper
    with pytest.raises(ValueError):
        FermatSpec(17, 7, frozenset(), frozenset({1}))  # 7 does not divide 15
    with pytest.raises(ValueError):
        FermatSpec(13, 3, frozenset(), frozenset({1}))
    with pytest.raises(ValueError):
        FermatSpec(17, 5, frozenset({1}), frozenset({1}))  # S not symmetric


def test_spec_file_round_trips():
    assert parse_family_spec(
        "family=metacirculant\nm=2\nn=5\nalpha=2\nT0=1,4\nT1=0\n") == PET_SPEC
    assert parse_family_spec("family=fermat\np=5\nq=3\nS=\nT=1\n") == FERMAT_53
    assert parse_family_spec(
        "# comment\n\nfamily = fermat\np=17\nq=5\nS=4,1\nT=1,2\n") == \
        FermatSpec(17, 5, frozenset({1, 4}), frozenset({1, 2}))
    with pytest.raises(ValueError):
        parse_family_spec("family=unknown\n")


def test_spec_parse_errors_are_value_errors():
    for text in ("family=fermat\np=5\nS=\nT=1\n",  # no q
                 "family=fermat\np=5\nq=x\nS=\nT=1\n",
                 "family=metacirculant\nm=2\nalpha=2\nT0=1,4\nT1=0\n",
                 "p=5\nq=3\n"):
        with pytest.raises(ValueError):
            parse_family_spec(text)
