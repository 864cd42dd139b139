import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations, product

import pytest

from pqham import actions, graphs, quotients
from pqham.actions import (
    INF,
    PSL2_ID,
    Suborbit,
    _form,
    action_space,
    alternating_triple_space,
    dihedral_model,
    dihedral_row_data,
    dihedral_row_unions,
    empirical_row_data,
    hermitian_matrix,
    omega_block_valencies,
    omega_graph,
    omega_model,
    orbital_graph,
    psl2_canon,
    psl2_coset_space,
    psl2_dihedral_subgroup,
    psl2_elements,
    psl2_mul,
    psl2_order,
    psl2_subgroup_scan,
    split_edge_table,
    suborbit_report,
)
from pqham.field import squares
from pqham.graphs import (
    Action,
    Graph,
    hamilton_cycle,
    orbit_graph,
    partition_invariant,
    verify_hamilton_cycle,
)
from pqham.quotients import (
    Symbol,
    is_automorphism,
    permutation_orbits,
    quotient,
)
from reference_actions import (
    EDGE_TABLE_61_FIXUPS,
    PUB_EDGE_TABLE_37,
    PUB_EDGE_TABLE_61,
    SYMBOL_13,
    SYMBOL_13_MISPRINT,
    enumerate_psl2_coset_space,
)
from reference_quotients import graph_from_symbol, semiregular_isomorphism


def test_psl2_arithmetic():
    p = 13
    m = psl2_canon((12, 0, 0, 12), p)
    assert m == (1, 0, 0, 1)
    a = psl2_canon((1, 5, 0, 1), p)
    assert psl2_order(a, p) == 13


def test_psl2_elements_are_the_sorted_canonical_matrices():
    for p in (5, 7, 11, 13):
        brute = sorted({psl2_canon(m, p) for m in product(range(p), repeat=4)
                        if (m[0] * m[3] - m[1] * m[2]) % p == 1})
        assert len(brute) == p * (p * p - 1) // 2
        assert list(psl2_elements(p)) == brute


def test_psl2_builders_reject_bad_parameters():
    for p in (-5, 0, 1, 2, 9, 12):
        with pytest.raises(ValueError):
            psl2_dihedral_subgroup(p)
        with pytest.raises(ValueError):
            psl2_subgroup_scan(p, 2, 3, 3, 12)
    with pytest.raises(ValueError):
        psl2_subgroup_scan(13, 0, 3, 3, 12)  # no element of order 0
    with pytest.raises(ValueError):
        psl2_subgroup_scan(13, 2, 3, 7, 12)
    for p in (5, 12, 21, 25):
        with pytest.raises(ValueError):
            dihedral_model(p)


def test_psl2_dihedral_subgroup():
    for p in (13, 17):
        sub, gens = psl2_dihedral_subgroup(p)
        assert len(sub) == p - 1
        assert all(g in sub for g in gens)


def test_psl2_subgroup_scan_a4():
    sub, gens = psl2_subgroup_scan(13, 2, 3, 3, 12)
    assert len(sub) == 12
    orders = sorted(psl2_order(m, 13) for m in sub)
    assert orders == [1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]


def test_a4_coset_space_suborbits():
    sub, gens = psl2_subgroup_scan(13, 2, 3, 3, 12)
    sp = psl2_coset_space(13, sub, gens)
    assert sp.n == 91
    sizes = sorted(s.size for s in sp.suborbits)
    assert sizes == [1, 4, 4, 4, 6, 12, 12, 12, 12, 12, 12]
    nsp = [s for s in sp.suborbits if not s.self_paired]
    assert len(nsp) == 2
    assert all(s.size == 12 for s in nsp)
    assert nsp[0].paired == nsp[1].index and nsp[1].paired == nsp[0].index
    assert "self-paired" in suborbit_report(sp)


def test_a4_valency_4_graphs():
    sub, gens = psl2_subgroup_scan(13, 2, 3, 3, 12)
    sp = psl2_coset_space(13, sub, gens)
    fours = [s.index for s in sp.suborbits if s.size == 4]
    graphs = [orbital_graph(sp, (i,)) for i in fours]
    rho = list(sp.gens[0])
    assert all(g.is_connected() and g.valency() == 4 for g in graphs)
    q = quotient(graphs[0], rho)
    assert (q.m, q.n) == (7, 13)
    # exactly two isomorphism classes among the three graphs
    iso01 = semiregular_isomorphism(graphs[0], rho, graphs[1], rho)
    iso12 = semiregular_isomorphism(graphs[1], rho, graphs[2], rho)
    assert iso01 is None and iso12 is not None


def test_subgroup_closures_stop_past_the_cap(monkeypatch):
    # PSL(2,13) has 1092 elements and no subgroup of order 168, and
    # elements of orders 2 and 3 whose product has order 7 generate it:
    # every closure the scan tries stops at its 169th element
    sizes = []
    walk = actions.orbit_walk

    def recording(start, moves, limit=float("inf")):
        found = walk(start, moves, limit)
        sizes.append(len(found[0]))
        return found
    monkeypatch.setattr(actions, "orbit_walk", recording)
    with pytest.raises(ValueError):
        psl2_subgroup_scan(13, 2, 3, 7, 168)
    assert max(sizes) == 169


def keyed_space(monkeypatch, p, sub, gens):
    """psl2_coset_space(p, sub, gens) and, for each key search it made,
    (k, keys found), k the tuple length of the point set it keyed by."""
    searches = []
    search = actions._key_search

    def recording(start, moves):
        found = search(start, moves)
        k = {(p + 1) ** k: k for k in (1, 3)}[len(moves[0])]
        searches.append((k, len(found[1])))
        return found
    monkeypatch.setattr(actions, "_key_search", recording)
    return psl2_coset_space(p, sub, gens), searches


def assert_same_action(sp, ref):
    assert (sp.n, sp.base) == (ref.n, ref.base)
    assert sp.gens == ref.gens
    assert sp.stab_gens == ref.stab_gens
    assert sp.suborbits == ref.suborbits


# (p, orders of a, b and ab, |H|) for psl2_subgroup_scan, and the tuple
# length that keys the cosets: the smallest orbit on points for A5 at 61,
# A4 at 13 and 37 and S4 at 17; an orbit on ordered triples for A5 at 11,
# 19 and 29, and V4 at 13
KEYED_CASES = [((61, 2, 3, 5, 60), 1), ((13, 2, 3, 3, 12), 1),
               ((17, 2, 3, 4, 24), 1), ((37, 2, 3, 3, 12), 1),
               ((11, 2, 3, 5, 60), 3), ((19, 2, 3, 5, 60), 3),
               ((29, 2, 3, 5, 60), 3), ((13, 2, 2, 2, 4), 3)]


@pytest.mark.parametrize("case,k", KEYED_CASES, ids=str)
def test_psl2_coset_space_matches_full_enumeration(monkeypatch, case, k):
    sub, gens = psl2_subgroup_scan(*case)
    sp, searches = keyed_space(monkeypatch, case[0], sub, gens)
    assert searches[-1] == (k, sp.n)
    assert_same_action(sp, enumerate_psl2_coset_space(case[0], sub, gens))


@pytest.mark.parametrize("p", [5, 7])
def test_psl2_coset_space_of_the_trivial_subgroup(monkeypatch, p):
    # the stabilizer of a point is never trivial, that of an ordered
    # triple always is
    sp, searches = keyed_space(monkeypatch, p, [PSL2_ID], [PSL2_ID])
    assert searches == [(1, p + 1), (3, p * (p * p - 1) // 2)]
    assert_same_action(sp, enumerate_psl2_coset_space(p, [PSL2_ID],
                                                      [PSL2_ID]))


@pytest.mark.parametrize("g", [PSL2_ID, (0, -1, 1, 0), (0, -1, 1, -1)],
                         ids=["trivial", "order-2", "order-3"])
def test_psl2_coset_key_search_is_bounded(monkeypatch, g):
    # a small subgroup H at p = 61: a point set that fails to key the
    # cosets reaches at most half of them, and the triple orbit then keys
    # every one, so the searches find fewer than 1.5 |G|/|H| keys in all
    p = 61
    sub = [PSL2_ID]
    while psl2_mul(sub[-1], g, p) != PSL2_ID:
        sub.append(psl2_mul(sub[-1], g, p))
    monkeypatch.setattr(actions, "action_space",
                        lambda base, gens, stab_gens: len(gens[0]))
    n, searches = keyed_space(monkeypatch, p, sub, [g])
    assert n * len(sub) == p * (p * p - 1) // 2
    assert searches[-1] == (3, n)
    assert sum(found for _, found in searches) < 1.5 * n


def test_psl2_coset_space_of_dihedral_subgroups():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        sub, gens = psl2_dihedral_subgroup(p)
        assert_same_action(psl2_coset_space(p, sub, gens),
                           enumerate_psl2_coset_space(p, sub, gens))


def test_moebius_map_of_a_product_composes():
    p = 13
    els = list(psl2_elements(p))[::97]
    for x, g in product(els, repeat=2):
        mx, mg = actions._moebius(x, p), actions._moebius(g, p)
        assert actions._moebius(psl2_mul(x, g, p), p) == [mg[z] for z in mx]
        assert sorted(mx) == list(range(p + 1))


def test_quotient_checks_a_perm_the_graph_has_not_proven():
    sp = a4_coset_space()
    four = next(s.index for s in sp.suborbits if s.size == 4)
    g = orbital_graph(sp, (four,))
    assert g._automorphisms == sp.gens
    rho = list(sp.gens[0])
    # rho relabelled by a transposition of two of its cycles: still seven
    # 13-cycles, but no automorphism
    first = permutation_orbits(rho)[0]
    a, b = first[0], next(v for v in range(sp.n) if v not in first)
    swap = list(range(sp.n))
    swap[a], swap[b] = b, a
    moved = [swap[rho[swap[v]]] for v in range(sp.n)]
    assert sorted(map(len, permutation_orbits(moved))) == [13] * 7
    assert not is_automorphism(g, moved)
    with pytest.raises(ValueError):
        quotient(g, moved)
    # a proven automorphism with fixed points is still not semiregular
    with pytest.raises(ValueError):
        quotient(g, list(sp.gens[1]))
    # the same edges through the public constructor carry no proof
    h = Graph(g.n, g.edges())
    assert h == g and h._automorphisms == ()
    assert quotient(h, rho) == quotient(g, rho)


def test_alternating_triple_space():
    sp = alternating_triple_space()
    assert sp.n == 35
    assert sorted(s.size for s in sp.suborbits) == [1, 4, 12, 18]
    assert all(s.self_paired for s in sp.suborbits)
    dis = next(s for s in sp.suborbits if s.size == 4)
    g = orbital_graph(sp, (dis.index,))
    kneser = Graph(35, [(i, j) for (i, a), (j, b)
                        in combinations(enumerate(combinations(range(7), 3)),
                                        2)
                        if not set(a) & set(b)])
    assert g == kneser


def test_triple_stabilizer_has_order_72():
    # the stabilizer of {0, 1, 2} in A7 is (S3 x S4) cut down to even
    # permutations; A7 acts faithfully on triples, so the four generators
    # generate a group of that order on the 35 points too
    sp = alternating_triple_space()
    assert all(g[sp.base] == sp.base for g in sp.stab_gens)
    group = {tuple(range(sp.n))}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for g in sp.stab_gens:
            y = tuple(g[v] for v in x)
            if y not in group:
                group.add(y)
                frontier.append(y)
    assert len(group) == 6 * 24 // 2


def test_orbital_graph_rejects_half_of_paired_union():
    m = dihedral_model(13)
    i = m.names[("half", 1)]
    with pytest.raises(ValueError):
        orbital_graph(m.space, (i,))


def edge_orbit_closure(n, gens, base, ends):
    """Closure of the edges from base to each of ends under the
    generators."""
    edges = {tuple(sorted((base, v))) for v in ends}
    frontier = list(edges)
    while frontier:
        u, v = frontier.pop()
        for g in gens:
            e = (g[u], g[v]) if g[u] < g[v] else (g[v], g[u])
            if e not in edges:
                edges.add(e)
                frontier.append(e)
    return Graph(n, edges)


def reference_orbital_graph(space, union):
    """Closure of the edges from the base to each suborbit's first point
    under the generators."""
    return edge_orbit_closure(space.n, space.gens, space.base,
                              [space.suborbits[i].points[0] for i in union])


def lone(space):
    """space, or a quadric model, with an action record of its own that
    has no partition, so that every draw from it is proven on its own."""
    return replace(space, action=Action(space.gens, space.base))


def closed_unions(space):
    classes = sorted({(s.index, s.paired) if s.index < s.paired
                      else (s.paired, s.index) if s.paired < s.index
                      else (s.index,)
                      for s in space.suborbits if s.points != (space.base,)})
    for r in range(1, len(classes) + 1):
        for combo in combinations(classes, r):
            yield [i for cls in combo for i in cls]


def a4_coset_space():
    return psl2_coset_space(13, *psl2_subgroup_scan(13, 2, 3, 3, 12))


def test_orbital_graph_equals_edge_orbit_closure():
    # Each closed union is drawn once proven on its own, and twice from the
    # space's own record: the first draw from that record proves itself,
    # the second proves the partition, and every later draw is a union of
    # its proven classes.
    for sp, classes in ((alternating_triple_space(), 3),
                        (dihedral_model(13).space, 9), (a4_coset_space(), 9)):
        unions = list(closed_unions(sp))
        assert len(unions) == 2 ** classes - 1
        for union in unions:
            want = reference_orbital_graph(sp, union)
            for source in (lone(sp), sp, sp):
                assert orbital_graph(source, union) == want, union
        assert sp.action.proven
    m = omega_model(5)
    for lam in (0, 1, 2):
        want = edge_orbit_closure(len(m.points), m.gens, m.base,
                                  m.suborbits[lam][:1])
        for source in (lone(m), m, m):
            assert omega_graph(source, lam) == want, lam
    assert m.action.proven


def test_orbital_graph_rejects_a_union_the_stabilizer_moves():
    # A space that knows only one of the stabilizer's two generators: its
    # "suborbits" are orbits of that generator alone, which the other moves.
    # Some of them are closed under pairing, so only the invariance check
    # can reject them.
    sp = a4_coset_space()
    true = next(s for s in sp.suborbits if s.size == 12 and s.self_paired)
    parts = [o for o in permutation_orbits(sp.stab_gens[0])
             if set(o) < set(true.points)]
    assert len(parts) > 1
    for part in parts:
        subs = list(sp.suborbits)
        subs[true.index] = Suborbit(true.index, tuple(sorted(part)),
                                    true.index)
        bad = replace(sp, stab_gens=sp.stab_gens[:1], suborbits=tuple(subs))
        with pytest.raises(ValueError, match="not invariant"):
            orbital_graph(bad, (true.index,))


def test_partition_proof_rejects_a_moved_point():
    # Moving one point x of a suborbit A into another class B leaves a
    # partition that the stabilizer does not preserve. Its proof fails, the
    # record drops it, and every later row is proven on its own: A less x
    # and B with x are rejected, and a true suborbit still draws.
    sp = a4_coset_space()
    for a, b in product(sp.suborbits, repeat=2):
        if a.size == 1 or a == b:
            continue
        classes = [list(s.points) for s in sp.suborbits]
        classes[b.index].append(classes[a.index].pop())
        action = Action(sp.gens, sp.base, classes)
        assert not partition_invariant(action)
        kept = next(s.points for s in sp.suborbits if s.self_paired
                    and s.size > 1 and s not in (a, b))
        first = orbit_graph(action, kept)
        with pytest.raises(ValueError, match="not invariant"):
            orbit_graph(action, classes[a.index])
        assert action.labels is None
        if b.points != (sp.base,):
            with pytest.raises(ValueError, match="not invariant"):
                orbit_graph(action, classes[b.index])
        assert orbit_graph(action, kept) == first


def test_partition_path_rejects_what_it_cannot_prove():
    m = dihedral_model(13)
    sp = m.space
    for name in (("axis", 1), ("axis", -1)):
        orbital_graph(sp, (m.names[name],))
    assert sp.action.proven
    for s in sp.suborbits[1:]:
        with pytest.raises(ValueError, match="not invariant"):
            orbit_graph(sp.action, s.points[1:])
        with pytest.raises(ValueError, match="base point"):
            orbit_graph(sp.action, s.points + (sp.base,))
    # a union of classes, so invariant, but not closed under pairing
    with pytest.raises(ValueError, match="pairing"):
        orbital_graph(sp, (m.names[("half", 1)],))
    assert sp.action.proven


def test_each_action_is_walked_once_and_its_partition_proven_once(
        monkeypatch):
    calls = Counter()
    for name in ("transversal", "partition_invariant", "maps_rows"):
        def counted(*args, name=name, fn=getattr(graphs, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(graphs, name, counted)
    # a lone draw from a fresh space proves only itself
    sp = dihedral_model(13).space
    orbital_graph(sp, next(closed_unions(sp)))
    assert calls == {"transversal": 1, "maps_rows": len(sp.gens)}
    calls.clear()
    sp = dihedral_model(13).space
    for union in closed_unions(sp):
        orbital_graph(sp, union)
    assert calls == {"transversal": 1, "partition_invariant": 1,
                     "maps_rows": len(sp.gens)}
    calls.clear()
    m = omega_model(5)
    lams = sorted(m.suborbits)
    for r in range(1, len(lams) + 1):
        for union in combinations(lams, r):
            orbit_graph(m.action, [v for lam in union
                                   for v in m.suborbits[lam]])
    assert calls == {"transversal": 1, "partition_invariant": 1,
                     "maps_rows": len(m.gens)}


def test_quotient_walks_each_rho_once(monkeypatch):
    # quotient keeps the cycles of its last few permutations: every graph
    # drawn from one model shares its rho, whose cycles are walked once
    m13, m5 = dihedral_model(13), omega_model(5)
    graphs_by_rho = [
        (m13.rho, [orbital_graph(m13.space, union)
                   for union in closed_unions(m13.space)]),
        (m5.rho, [omega_graph(m5, lam) for lam in (0, 1, 2)])]
    walks = Counter()

    def counted(*perms, fn=quotients.permutation_orbits):
        walks[perms] += 1
        return fn(*perms)
    quotients._cycles.cache_clear()
    monkeypatch.setattr(quotients, "permutation_orbits", counted)
    got = [quotient(g, rho) for rho, gs in graphs_by_rho for g in gs]
    assert walks == {(m13.rho,): 1, (m5.rho,): 1}
    fresh = []
    for rho, gs in graphs_by_rho:
        for g in gs:
            quotients._cycles.cache_clear()
            fresh.append(quotient(g, rho))
    assert got == fresh
    # a proven automorphism with fixed points is rejected on every call,
    # since nothing is cached for it
    g = graphs_by_rho[0][1][0]
    flip = m13.space.gens[1]
    assert flip in g._automorphisms
    for _ in range(2):
        with pytest.raises(ValueError, match="not semiregular"):
            quotient(g, flip)
    assert walks[(flip,)] == 2


def test_psl2_61_orbital_graph_retains_its_rows_alone():
    # one graph of valency 60 on the 1891 cosets of A5 keeps 1891 tuples of
    # 60 entries (about 1.0 MB); a second container per row, as a frozenset
    # was, would retain about 5.3 MB
    sp = psl2_coset_space(61, *psl2_subgroup_scan(61, 2, 3, 5, 60))
    sub = next(s for s in sp.suborbits if s.size == 60 and s.self_paired)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = orbital_graph(sp, (sub.index,))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (g.n, g.valency()) == (1891, 60)
    assert retained < 1_500_000


def assert_rows_proven(g):
    """g, built from its rows, is the graph the checked public
    constructor gives on its edges, with strictly increasing rows."""
    h = Graph(g.n, g.edges())
    assert g == h and hash(g) == hash(h)
    for v in range(g.n):
        row = g.adjacency[v]
        assert isinstance(row, tuple)
        assert all(a < b for a, b in zip(row, row[1:]))
        assert [x for x in range(g.n) if g.has_edge(v, x)] == list(row)


def test_row_built_graphs_equal_edge_built():
    for sp in (alternating_triple_space(), dihedral_model(13).space,
               a4_coset_space()):
        for s in sp.suborbits:
            if s.points != (sp.base,) and s.index <= s.paired:
                assert_rows_proven(orbital_graph(sp, {s.index, s.paired}))
    m = omega_model(5)
    for lam in m.suborbits:
        assert_rows_proven(omega_graph(m, lam))


def test_action_space_rejects_non_permutations():
    sp = alternating_triple_space()
    squashed = (sp.gens[0][1],) + sp.gens[0][1:]  # not injective
    for bad in (squashed, sp.gens[0][:-1], sp.gens[0] + (sp.n,)):
        with pytest.raises(ValueError):
            action_space(sp.base, (bad, sp.gens[1]), sp.stab_gens)
        with pytest.raises(ValueError):
            action_space(sp.base, sp.gens, sp.stab_gens + (bad,))
    mover = next(g for g in sp.gens if g[sp.base] != sp.base)
    with pytest.raises(ValueError):
        action_space(sp.base, sp.gens, sp.stab_gens + (mover,))
    assert action_space(sp.base, sp.gens,
                        sp.stab_gens).suborbits == sp.suborbits


def test_dihedral_model_smallest():
    m = dihedral_model(13)
    assert m.space.n == 91
    info = {name: (m.space.suborbits[i].size, m.space.suborbits[i].self_paired)
            for name, i in m.names.items()}
    twelves = [n for n, (sz, sp_) in info.items() if sz == 12]
    assert len(twelves) == 5 and all(info[n][1] for n in twelves)
    assert info[("split", 4, 1)] == (6, True)
    assert info[("split", 4, -1)] == (6, True)
    assert info[("split", 6, 1)] == (6, False)
    assert info[("split", 6, -1)] == (6, False)
    assert info[("half", 1)] == (3, False)
    assert info[("half", -1)] == (3, False)
    rows = sorted(r for r, _, _ in dihedral_row_unions(m))
    assert rows == [1, 1, 1, 2, 3, 4, 5, 8, 9]


@pytest.mark.parametrize("p", [13, 17, 29])
def test_pair_labels_are_a_bijection(p):
    # each unordered pair of points of the projective line, in either
    # order, has a label of its own, and each of the p(p+1)/2 labels of
    # the character model is some pair's
    pairs = list(combinations(range(p + 1), 2))
    got = [actions._pair_label(z1, z2, p) for z1, z2 in pairs]
    assert got == [actions._pair_label(z2, z1, p) for z1, z2 in pairs]
    labels = {INF} | {actions._char_class(xi, eta, p)
                      for xi in range(p) for eta in range(1, p)}
    assert len(set(got)) == len(got) == p * (p + 1) // 2
    assert set(got) == labels


def test_dihedral_matrix_cosets_match_character_model():
    sub, gens = psl2_dihedral_subgroup(13)
    sp = psl2_coset_space(13, sub, gens)
    m = dihedral_model(13)
    assert sorted(s.size for s in sp.suborbits) == \
        sorted(s.size for s in m.space.suborbits)
    assert sorted(s.self_paired for s in sp.suborbits) == \
        sorted(s.self_paired for s in m.space.suborbits)


@pytest.mark.parametrize("p", [13, 37])
def test_row_data_analytic_equals_empirical(p):
    m = dihedral_model(p)
    for row, xi, union in dihedral_row_unions(m):
        assert dihedral_row_data(m, row, xi) == empirical_row_data(m, row, union)


def test_row_data_shapes():
    m = dihedral_model(13)
    sq = squares(13)
    # non-axis rows leave the infinity block independent
    for row, xi, union in dihedral_row_unions(m):
        data = dihedral_row_data(m, row, xi)
        if row in (3, 4):
            assert data.d_inf == 6
            want_sq = row == 3
            assert all(v == (2 if (x in sq) == want_sq else 0)
                       for x, v in data.d_inf_x.items())
        else:
            assert data.d_inf == 0
        if row in (1, 2):
            assert set(data.d_inf_x.values()) == {2}
        if row in (8, 9):
            # internal valency depends on the class data of each orbit;
            # at p=13 every orbit gets exactly two internal edges
            assert set(data.d_in.values()) == {2}


def test_row_8_internal_valency_not_constant_at_37():
    # the internal valency of a split-suborbit graph varies between
    # orbits: 4 where the class filter admits all branches, 0 elsewhere
    m = dihedral_model(37)
    data = dihedral_row_data(m, 8, 4)
    assert sorted(set(data.d_in.values())) == [0, 4]


def test_half_union_row5():
    m = dihedral_model(13)
    row5 = next(u for u in dihedral_row_unions(m) if u[0] == 5)
    data = dihedral_row_data(m, 5, row5[1])
    assert set(data.d_inf_x.values()) == {1}


def test_split_edge_table_37_matches_published():
    assert split_edge_table(37) == PUB_EDGE_TABLE_37


def test_split_edge_table_61_published_with_one_omission():
    got = split_edge_table(61)
    assert sorted(got) == sorted(PUB_EDGE_TABLE_61)
    diffs = []
    for xi, cells in PUB_EDGE_TABLE_61.items():
        for c in range(4):
            if got[xi][c] != cells[c]:
                diffs.append(((xi, c), got[xi][c] - cells[c]))
    assert dict(diffs) == EDGE_TABLE_61_FIXUPS


def test_split_graphs_isomorphic():
    m = dihedral_model(13)
    rho = list(m.rho)
    gp = orbital_graph(m.space, (m.names[("split", 4, 1)],))
    gm = orbital_graph(m.space, (m.names[("split", 4, -1)],))
    assert semiregular_isomorphism(gp, rho, gm, rho) is not None


def _symbol_graph(cells):
    sym = Symbol(13, tuple(range(0, 91, 13)),
                 tuple(tuple(frozenset(c) for c in row) for row in cells))
    return graph_from_symbol(sym)


def test_published_symbol_13():
    m = dihedral_model(13)
    g = orbital_graph(m.space, (m.names[("split", 4, 1)],))
    assert g.n == 91 and g.valency() == 6
    rho_h = [i * 13 + (a + 1) % 13 for i in range(7) for a in range(13)]
    h = _symbol_graph(SYMBOL_13)
    assert semiregular_isomorphism(g, list(m.rho), h, rho_h) is not None
    # the one-cell misprinted variant is a different graph
    bad = [list(row) for row in SYMBOL_13]
    for (i, j), cell in SYMBOL_13_MISPRINT.items():
        bad[i][j] = cell
    hb = _symbol_graph(bad)
    assert semiregular_isomorphism(g, list(m.rho), hb, rho_h) is None


def test_symbol_13_quotient_has_no_hamilton_cycle():
    m = dihedral_model(13)
    g = orbital_graph(m.space, (m.names[("split", 4, 1)],))
    q = quotient(g, list(m.rho))
    assert hamilton_cycle(q.graph) is None
    # but the full graph is hamiltonian
    cyc = hamilton_cycle(g, budget=10 ** 7)
    assert cyc is not None and verify_hamilton_cycle(g, cyc)


def test_omega_model_q5():
    m = omega_model(5)
    assert (m.p, m.theta) == (13, 2)
    assert len(m.points) == 65
    assert {lam: len(s) for lam, s in m.suborbits.items()} == \
        {0: 10, 1: 24, 2: 30}
    assert len(m.inner_blocks) == 3 and len(m.outer_blocks) == 10
    g = omega_graph(m, 1)
    q = quotient(g, list(m.rho))
    assert (q.m, q.n) == (13, 5)
    sizes = sorted(len(o) for o in
                   permutation_orbits_of_group(m.norm_gens, 65))
    assert sizes == [5, 5, 5, 50]


def test_hermitian_matrix_preserves_the_quadric_q5():
    q, theta = 5, omega_model(5).theta
    one, zero, alpha = (1, 0), (0, 0), (0, 1)
    rho = (one, one, zero, one)
    tau = (one, alpha, zero, one)
    flip = (zero, (q - 1, 0), one, zero)
    delta = (alpha, zero, zero, (0, pow(theta, -1, q)))

    def form(x):
        return (x[0] * x[1] - x[2] * x[2] + theta * x[3] * x[3]) % q

    for g in (rho, tau, flip, delta):
        m = hermitian_matrix(g, q, theta)
        for x in product(range(q), repeat=4):
            y = [sum(x[i] * m[i][j] for i in range(4)) % q
                 for j in range(4)]
            assert form(y) == form(x), (g, x)


def permutation_orbits_of_group(perms, n):
    seen = [False] * n
    out = []
    for v in range(n):
        if seen[v]:
            continue
        orb = {v}
        stack = [v]
        seen[v] = True
        while stack:
            x = stack.pop()
            for perm in perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = True
                    orb.add(y)
                    stack.append(y)
        out.append(orb)
    return out


def test_omega_block_statistics_q5():
    m = omega_model(5)
    for lam, cross_want in ((0, 1), (1, 2), (2, 2)):
        st = omega_block_valencies(m, lam)
        assert st.eps == 0  # 5 = 5 (mod 8)
        assert set(st.cross.values()) == {cross_want}
        if lam == 0:
            assert set(st.inner_valency.values()) == {0}
            assert st.outer_singles == 3
            assert st.outer_doubles == 2
        else:
            assert set(st.inner_valency.values()) == {2}


def test_omega_graph_valencies_q5():
    m = omega_model(5)
    for lam, val in ((0, 10), (1, 24), (2, 30)):
        g = omega_graph(m, lam)
        assert g.is_regular() and g.valency() == val


def test_omega_graph_equals_form_definition():
    m = omega_model(5)
    n = len(m.points)
    for lam in m.suborbits:
        want = Graph(n, [
            (i, j) for i, j in combinations(range(n), 2)
            for h in [_form(m.points[i], m.points[j], m.q, m.theta)
                      * pow(2, -1, m.q) % m.q]
            if min(h, m.q - h) == lam])
        assert omega_graph(m, lam) == want


def test_omega_model_validation():
    with pytest.raises(ValueError):
        omega_model(7)  # (49+1)/2 = 25 not prime
    with pytest.raises(ValueError):
        omega_model(4)
