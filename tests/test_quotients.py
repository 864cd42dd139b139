import random
from math import gcd
from itertools import combinations

import pytest

from pqham.graphs import (
    Graph,
    gp,
    hamilton_cycle,
    verify_hamilton_cycle,
)
from pqham.quotients import (
    Symbol,
    format_symbol,
    is_automorphism,
    lift_closed_walk,
    permutation_orbits,
    quotient,
)
from reference_graphs import is_isomorphic
from reference_quotients import (
    brute_semiregular_isomorphism,
    graph_from_symbol,
    semiregular_isomorphism,
)


def odd_graph_4():
    """Disjointness graph on 3-subsets of a 7-set, with the subset list."""
    subs = list(combinations(range(7), 3))
    edges = [(i, j) for (i, s), (j, t) in combinations(list(enumerate(subs)), 2)
             if not set(s) & set(t)]
    return Graph(35, edges), subs


def by_orbits(g, q):
    """g relabelled by orbit position: q.orbits[i][a] -> i*n + a."""
    label = {v: i * q.n + a for i, orb in enumerate(q.orbits)
             for a, v in enumerate(orb)}
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges()])


def odd_graph_aut(subs, point_perm):
    idx = {s: i for i, s in enumerate(subs)}
    return [idx[tuple(sorted(point_perm[x] for x in s))] for s in subs]


O4, O4_SUBS = odd_graph_4()
O4_RHO = odd_graph_aut(O4_SUBS, {i: (i + 1) % 5 if i < 5 else i for i in range(7)})

PETERSEN = gp(5, 2)
PET_RHO = [(i + 1) % 5 if i < 5 else 5 + (i - 4) % 5 for i in range(10)]

# symbol matrix of the odd graph relative to a (7,5)-semiregular
# automorphism, as published
O4_SYMBOL = tuple(
    tuple(frozenset(c) for c in row) for row in [
        [(), (0,), (), (), (0,), (), (0, 4)],
        [(0,), (), (0, 4), (), (), (), (2,)],
        [(), (0, 1), (), (0, 3), (), (), ()],
        [(), (), (0, 2), (), (4,), (0,), ()],
        [(0,), (), (), (1,), (), (0, 2), ()],
        [(), (), (), (0,), (0, 3), (), (1,)],
        [(0, 1), (3,), (), (), (), (4,), ()],
    ]
)


def test_quotient_semiregularity_examples():
    q = quotient(PETERSEN, PET_RHO)
    assert (q.m, q.n) == (2, 5)
    q = quotient(O4, O4_RHO)
    assert (q.m, q.n) == (7, 5)
    not_aut = list(range(10))
    not_aut[0], not_aut[2] = 2, 0
    for perm in (list(range(10)), not_aut):
        with pytest.raises(ValueError):
            quotient(PETERSEN, perm)


def test_is_automorphism():
    assert is_automorphism(PETERSEN, PET_RHO)
    assert is_automorphism(O4, O4_RHO)
    swap = list(range(10))
    swap[0], swap[2] = 2, 0  # maps the edge (0, 4) to the non-edge (2, 4)
    assert not is_automorphism(PETERSEN, swap)
    assert not is_automorphism(PETERSEN, [0] * 10)
    assert not is_automorphism(PETERSEN, PET_RHO[:9] + [0])
    assert not is_automorphism(PETERSEN, list(range(9)))


def test_permutation_orbits():
    assert permutation_orbits([1, 2, 0, 4, 3]) == [[0, 1, 2], [3, 4]]
    # a single permutation lists each cycle from its lowest vertex
    assert permutation_orbits([2, 0, 1]) == [[0, 2, 1]]
    # several generate a group; its orbits come ordered by lowest vertex
    orbs = permutation_orbits([1, 0, 2, 3, 4], [0, 2, 1, 3, 4],
                              [0, 1, 2, 4, 3])
    assert [sorted(o) for o in orbs] == [[0, 1, 2], [3, 4]]


def test_quotient_c6():
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    q2 = quotient(c6, [(i + 2) % 6 for i in range(6)])
    assert (q2.m, q2.n) == (2, 3)
    assert q2.d_in == (0, 0) and q2.d(0, 1) == 2
    q3 = quotient(c6, [(i + 3) % 6 for i in range(6)])
    assert (q3.m, q3.n) == (3, 2)
    assert all(q3.d(a, b) == 1 for a, b in combinations(range(3), 2))


def test_quotient_o4():
    q = quotient(O4, O4_RHO)
    assert q.m == 7 and q.n == 5
    assert q.d_in == (0,) * 7
    want = sorted(len(s) for row in O4_SYMBOL for s in row if s)
    got = sorted(q.d(a, b) for a in range(7) for b in range(7)
                 if a != b and q.d(a, b))
    assert got == want
    # valency decomposes over the quotient for every orbit
    for a in range(7):
        assert q.d_in[a] + sum(q.d(a, b) for b in range(7) if b != a) == 4


def test_symbol_petersen():
    s = quotient(PETERSEN, PET_RHO).symbol
    assert s.n == 5 and s.m == 2
    assert s.sets[0][0] == frozenset({1, 4})
    assert s.sets[1][1] == frozenset({2, 3})
    assert s.sets[0][1] == frozenset({0})


def test_symbol_c5():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    s = quotient(c5, [(i + 1) % 5 for i in range(5)]).symbol
    assert s.m == 1 and s.sets[0][0] == frozenset({1, 4})


def test_symbol_invariants_and_roundtrip():
    for g, rho in [(PETERSEN, PET_RHO), (O4, O4_RHO)]:
        q = quotient(g, rho)
        s = q.symbol
        for i in range(s.m):
            assert s.sets[i][i] == frozenset((-t) % s.n for t in s.sets[i][i])
            for j in range(s.m):
                assert s.sets[j][i] == frozenset((-t) % s.n for t in s.sets[i][j])
        assert graph_from_symbol(s) == by_orbits(g, q)


def test_published_symbol_realizes_o4():
    sym = Symbol(5, tuple(range(7)), O4_SYMBOL)
    assert is_isomorphic(graph_from_symbol(sym), O4)


def test_format_symbol():
    s = quotient(PETERSEN, PET_RHO).symbol
    text = format_symbol(s)
    assert len(text.splitlines()) == 2
    assert "{1,4}" in text and "{0}" in text


def test_lift_o4_full():
    q = quotient(O4, O4_RHO)
    cyc = hamilton_cycle(q.graph)
    assert any(q.d(cyc[i], cyc[(i + 1) % 7]) >= 2 for i in range(7))
    out = lift_closed_walk(q, cyc)
    assert out.full and out.piece_count == 1
    assert verify_hamilton_cycle(O4, list(out.cycle))


def test_lift_double_edge_two_cycle():
    q = quotient(O4, O4_RHO)
    a, b = next(e for e in q.graph.edges() if q.d(*e) >= 2)
    out = lift_closed_walk(q, [a, b])
    assert out.full and len(out.cycle) == 10
    # it is a genuine 10-cycle in the graph
    for i in range(10):
        assert O4.has_edge(out.cycle[i], out.cycle[(i + 1) % 10])
    assert len(set(out.cycle)) == 10


def test_lift_disjoint_case():
    # three orbits of length 3 joined by single zero-voltage edges:
    # the quotient triangle lifts to 3 disjoint triangles
    sym = Symbol(3, (0, 1, 2), tuple(
        tuple(frozenset(c) for c in row) for row in [
            [(), (0,), (0,)],
            [(0,), (), (0,)],
            [(0,), (0,), ()],
        ]))
    g = graph_from_symbol(sym)
    rho = [i - i % 3 + (i + 1) % 3 for i in range(9)]
    q = quotient(g, rho)
    assert (q.m, q.n) == (3, 3)
    out = lift_closed_walk(q, [0, 1, 2])
    assert not out.full and out.piece_count == 3
    assert len(out.cycle) == 3
    # every edge of the quotient cycle is a single edge
    assert all(q.d(a, b) == 1 for a, b in combinations(range(3), 2))


def test_lift_dichotomy_double_edge_always_full():
    # quotient cycles through a multiplicity-2 edge always lift fully
    q = quotient(O4, O4_RHO)
    for cyc in ([6, 0, 2, 3, 4, 5, 1], [0, 6, 1, 4, 3, 2, 5][::-1]):
        if all(q.d(cyc[i], cyc[(i + 1) % 7]) >= 1 for i in range(7)):
            out = lift_closed_walk(q, cyc)
            if any(q.d(cyc[i], cyc[(i + 1) % 7]) >= 2 for i in range(7)):
                assert out.full


def test_random_double_edge_two_cycles_lift_fully():
    # S[b][a] = -S[a][b], so a double edge a-b always leaves a return
    # voltage that does not cancel the outbound one
    rnd = random.Random(3)
    lifted = 0
    for _ in range(100):
        m, n = rnd.randint(2, 4), rnd.choice([2, 3, 5, 7, 11])
        g = graph_from_symbol(random_symbol(rnd, m, n))
        q = quotient(g, [v - v % n + (v + 1) % n for v in range(g.n)])
        for a, b in combinations(range(m), 2):
            if q.d(a, b) >= 2:
                out = lift_closed_walk(q, [a, b])
                assert out.full and len(set(out.cycle)) == 2 * n
                assert all(g.has_edge(out.cycle[i - 1], out.cycle[i])
                           for i in range(2 * n))
                lifted += 1
    assert lifted > 50


def test_lift_errors():
    q = quotient(O4, O4_RHO)
    with pytest.raises(ValueError):
        lift_closed_walk(q, [0, 1, 0])
    with pytest.raises(ValueError):
        lift_closed_walk(q, [0, 4, 2])  # 0-4 not a quotient edge
    with pytest.raises(ValueError):
        # spoke edge is single
        lift_closed_walk(quotient(PETERSEN, PET_RHO), [0, 1])
    with pytest.raises(ValueError):
        # not semiregular
        lift_closed_walk(quotient(PETERSEN, list(range(10))), [0, 1])


def test_random_circulant_quotients():
    rnd = random.Random(5)
    for _ in range(20):
        n = rnd.choice([3, 5, 7])
        m = rnd.randint(2, 4)
        N = m * n
        jumps = rnd.sample(range(1, N // 2 + 1), rnd.randint(2, 3))
        g = Graph(N, {(v, (v + j) % N) for v in range(N) for j in jumps
                      if v != (v + j) % N})
        rho = [(v + m) % N for v in range(N)]
        try:
            q = quotient(g, rho)
        except ValueError:
            continue
        assert (q.m, q.n) == (m, n)
        for a in range(q.m):
            deg = q.d_in[a] + sum(q.d(a, b) for b in range(q.m) if b != a)
            assert deg == g.degree(q.orbits[a][0])
        assert q.graph.edges() == [(a, b) for a, b in
                                   combinations(range(q.m), 2)
                                   if q.d(a, b) >= 1]
        assert graph_from_symbol(q.symbol) == by_orbits(g, q)


def circulant(n, jumps):
    return Graph(n, {(min(v, (v + j) % n), max(v, (v + j) % n))
                     for v in range(n) for j in jumps})


def random_symbol(rnd, m, n):
    """Symbol of a random graph with an (m, n)-semiregular automorphism:
    S[j][i] = -S[i][j], and each S[i][i] is symmetric without 0."""
    sets = [[set() for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for t in range(1, n // 2 + 1):
            if rnd.random() < 0.3:
                sets[i][i] |= {t, n - t}
        for j in range(i + 1, m):
            sets[i][j] = {t for t in range(n) if rnd.random() < 0.3}
            sets[j][i] = {(-t) % n for t in sets[i][j]}
    return Symbol(n, tuple(i * n for i in range(m)),
                  tuple(tuple(frozenset(c) for c in row) for row in sets))


def assert_equivariant_isomorphism(g, perm_g, h, perm_h, phi):
    assert sorted(phi) == list(range(g.n))
    assert all(h.has_edge(phi[u], phi[v]) for u, v in g.edges())
    assert g.edge_count == h.edge_count
    power = perm_h
    for _ in range(h.n):
        if all(phi[perm_g[v]] == power[phi[v]] for v in range(g.n)):
            return
        power = [perm_h[v] for v in power]
    pytest.fail("phi does not carry perm_g to a power of perm_h")


def test_semiregular_isomorphism_matches_reference():
    rnd = random.Random(11)
    found = absent = 0
    for _ in range(120):
        m, n = rnd.randint(1, 3), rnd.randint(2, 9)
        rho = [v - v % n + (v + 1) % n for v in range(m * n)]
        g = graph_from_symbol(random_symbol(rnd, m, n))
        if rnd.random() < 0.5:
            # a relabelled copy, its automorphism a unit power of rho
            sigma = rnd.sample(range(g.n), g.n)
            h = Graph(g.n, [(sigma[u], sigma[v]) for u, v in g.edges()])
            unit = rnd.choice([u for u in range(1, n) if gcd(u, n) == 1])
            rho_h = [None] * g.n
            for v in range(g.n):
                w = v
                for _ in range(unit):
                    w = rho[w]
                rho_h[sigma[v]] = sigma[w]
        else:
            h = graph_from_symbol(random_symbol(rnd, m, n))
            rho_h = rho
        phi = semiregular_isomorphism(g, rho, h, rho_h)
        ref = brute_semiregular_isomorphism(g, rho, h, rho_h)
        assert (phi is None) == (ref is None)
        if rho_h is not rho:
            assert phi is not None
        if phi is None:
            absent += 1
        else:
            found += 1
            assert_equivariant_isomorphism(g, rho, h, rho_h, phi)
            assert_equivariant_isomorphism(g, rho, h, rho_h, ref)
    assert found and absent


def test_semiregular_isomorphism_needs_a_unit_multiplier():
    # C8({1,3,5,7}) is bipartite and C8({1,2,6,7}) is not, yet t -> 2t
    # sends every edge of the first onto an edge of the second: only unit
    # multipliers give bijections
    rho = [(v + 1) % 8 for v in range(8)]
    g, h = circulant(8, (1, 3)), circulant(8, (1, 2))
    assert semiregular_isomorphism(g, rho, h, rho) is None
    assert brute_semiregular_isomorphism(g, rho, h, rho) is None


def test_semiregular_isomorphism_errors_and_shapes():
    c6 = circulant(6, (1,))
    with pytest.raises(ValueError):
        semiregular_isomorphism(c6, list(range(6)), c6, list(range(6)))
    by2 = [(v + 2) % 6 for v in range(6)]
    by3 = [(v + 3) % 6 for v in range(6)]
    assert semiregular_isomorphism(c6, by2, c6, by3) is None
    phi = semiregular_isomorphism(PETERSEN, PET_RHO, PETERSEN, PET_RHO)
    assert_equivariant_isomorphism(PETERSEN, PET_RHO, PETERSEN, PET_RHO, phi)
