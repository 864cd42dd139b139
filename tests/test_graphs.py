import random
import sys
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from pqham.engine import Descriptor, build_instance
from pqham.graphs import (
    Action,
    BudgetExceeded,
    Graph,
    _search,
    format_dot,
    format_edge_list,
    gp,
    gp2_path_admissible,
    gp_is_hamiltonian,
    hamilton_cycle,
    hamilton_path,
    orbit_graph,
    orbit_walk,
    parse_edge_list,
    transversal,
    verify_hamilton_cycle,
)
from reference_graphs import (
    find_isomorphism,
    is_isomorphic,
    reference_search,
    verify_hamilton_path,
)


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, list(combinations(range(n), 2)))


def random_graph(rnd, n, p):
    return Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])


PETERSEN = gp(5, 2)


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 0), (2, 3)])
    assert g.adjacency == [(1,), (0,), (3,), (2,)]
    assert g.edge_count == 2
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert not g.is_connected()
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


ROT7 = [(x + 1) % 7 for x in range(7)]
DOUBLE7 = [2 * x % 7 for x in range(7)]


def test_has_edge_agrees_with_row_membership():
    rnd = random.Random(2323)
    # 0 and 3 are isolated; row 2 is (1, 4), so 0, 3 and 5 miss it below,
    # between and above its entries
    graphs = [Graph(6, [(1, 2), (2, 4), (4, 5)]), Graph(1), Graph(0)]
    graphs += [random_graph(rnd, rnd.randrange(2, 25), rnd.random())
               for _ in range(60)]
    graphs += [orbit_graph(Action([ROT7], 0), {1, 6}),
               orbit_graph(Action([ROT7, DOUBLE7], 0), range(1, 7))]
    graphs += [build_instance(Descriptor(*d))[0]
               for d in (("omega", (5, 0)), ("dihedral", (13, "S7")),
                         ("triple", (18,)))]
    for g in graphs:
        for u in range(g.n):
            row = set(g.adjacency[u])
            assert all(g.has_edge(u, v) == (v in row)
                       for v in range(-1, g.n + 1))
    assert not any(graphs[0].has_edge(0, v) or graphs[0].has_edge(3, v)
                   for v in range(6))


def test_a_graph_keeps_one_adjacency():
    for g in (Graph(4, [(0, 1), (2, 3)]), gp(7, 2),
              orbit_graph(Action([ROT7, DOUBLE7], 0), range(1, 7)),
              build_instance(Descriptor("omega", (5, 0)))[0]):
        assert set(vars(g)) == {"n", "adjacency", "_automorphisms"}
        assert all(type(r) is tuple for r in g.adjacency)


def test_orbit_graph_carries_the_base_row():
    assert orbit_graph(Action([ROT7], 0), {1, 6}) == cycle_graph(7)
    # the row may come in any order and any container
    g = orbit_graph(Action([ROT7, DOUBLE7], 0), (1, 2, 4, 3, 5, 6))
    assert g == complete_graph(7)
    assert orbit_graph(Action([ROT7, DOUBLE7], 0), [1, 6, 2, 5, 4, 3]) == g


def test_orbit_graph_gathers_rows_of_every_length():
    # the carry gathers a row with one itemgetter, which returns a bare
    # item for one index and needs at least one: rows of length 0 and 1
    # are carried without it
    rot = [(v + 1) % 10 for v in range(10)]
    for row, edges in (([], []),
                       ([5], [(v, v + 5) for v in range(5)]),
                       ([1, 9], [(v, (v + 1) % 10) for v in range(10)])):
        g = orbit_graph(Action([rot], 0), row)
        want = Graph(10, edges)
        assert g == want and g.adjacency == want.adjacency, row


def test_orbit_graph_rejects_what_it_cannot_prove():
    with pytest.raises(ValueError, match="not a permutation"):
        orbit_graph(Action([ROT7, [0, 0, 1, 2, 3, 4, 5]], 0), {1, 6})
    with pytest.raises(ValueError, match="not a permutation"):
        orbit_graph(Action([ROT7, ROT7[:-1]], 0), {1, 6})
    with pytest.raises(ValueError, match="transitively"):
        orbit_graph(Action([DOUBLE7], 1), {3, 4})
    for row in ({0, 1, 6}, {1, 7}, {-1, 1}):
        with pytest.raises(ValueError, match="base point"):
            orbit_graph(Action([ROT7], 0), row)
    # {1, 6} is closed under pairing, but doubling moves it to {2, 5}
    with pytest.raises(ValueError, match="not invariant"):
        orbit_graph(Action([ROT7, DOUBLE7], 0), {1, 6})
    # the rotation carries {1} to a directed 7-cycle
    with pytest.raises(ValueError, match="pairing"):
        orbit_graph(Action([ROT7], 0), {1})


def assert_walk_tree(start, moves, order, tree):
    # order lists distinct points from start, and each but start was
    # found by its tree move from an earlier point
    assert order[0] == start and tree[start] is None
    assert len(set(order)) == len(order) and set(tree) == set(order)
    position = {x: k for k, x in enumerate(order)}
    for y in order[1:]:
        i, x = tree[y]
        assert moves[i](x) == y and position[x] < position[y]


def test_orbit_walk_on_a_permutation_group():
    moves = [ROT7.__getitem__, DOUBLE7.__getitem__]
    order, tree = orbit_walk(0, moves)
    assert order == [0, 1, 2, 3, 4, 6, 5]
    assert_walk_tree(0, moves, order, tree)
    assert tree[4] == (1, 2) and tree[5] == (0, 4)
    assert transversal([ROT7, DOUBLE7], 0) == (order, tree)
    # the doubling alone fixes 0 and cycles 1, 2, 4
    assert orbit_walk(0, moves[1:]) == ([0], {0: None})
    assert orbit_walk(1, moves[1:])[0] == [1, 2, 4]


def test_orbit_walk_on_frozenset_keys():
    # x + 1 and 2x move the 21 pairs of Z_7 as one orbit
    moves = [lambda key, perm=perm: frozenset(perm[x] for x in key)
             for perm in (ROT7, DOUBLE7)]
    start = frozenset({0, 1})
    order, tree = orbit_walk(start, moves)
    assert set(order) == set(map(frozenset, combinations(range(7), 2)))
    assert_walk_tree(start, moves, order, tree)
    for limit in (1, 5, 20):
        head, head_tree = orbit_walk(start, moves, limit)
        assert head == order[:limit + 1]
        assert head_tree == {y: tree[y] for y in head}
    assert orbit_walk(start, moves, 21) == (order, tree)


def test_hamilton_cycle_examples():
    assert hamilton_cycle(cycle_graph(6)) == [0, 1, 2, 3, 4, 5]
    assert verify_hamilton_cycle(complete_graph(4), hamilton_cycle(complete_graph(4)))
    assert hamilton_cycle(PETERSEN) is None


def test_verify_hamilton_cycle_rejects_out_of_range_vertices():
    triangle = complete_graph(3)
    assert verify_hamilton_cycle(triangle, [2, 0, 1])
    for cyc in ([5, 0, 1], [0, 1, 5], [0, 1, -1], [0, 1], [0, 1, 1]):
        assert not verify_hamilton_cycle(triangle, cyc)
    # the closing edge, from the last vertex back to the first, is checked
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not verify_hamilton_cycle(path, [0, 1, 2, 3])
    assert verify_hamilton_cycle(cycle_graph(4), (0, 1, 2, 3))


def test_hamilton_cycle_edge_cases():
    assert hamilton_cycle(Graph(2, [(0, 1)])) is None
    assert hamilton_cycle(Graph(4, [(0, 1), (2, 3)])) is None  # disconnected
    with pytest.raises(BudgetExceeded):
        hamilton_cycle(gp(30, 7), budget=5)


def test_hamilton_cycle_long_cycle_keeps_recursion_limit():
    limit = sys.getrecursionlimit()
    g = cycle_graph(5000)
    assert verify_hamilton_cycle(g, hamilton_cycle(g))
    assert sys.getrecursionlimit() == limit


def test_search_expansions_psl2sub_9():
    # an order-91 valency-12 orbital graph whose cycle search took 1.89M
    # expansions before the connectivity and degree cuts
    g, _ = build_instance(Descriptor("psl2sub", (13, 2, 3, 3, 12, 9)))
    start = min(range(g.n), key=g.degree)
    cyc, expansions = _search(g, start, None, 10**4)
    assert verify_hamilton_cycle(g, cyc)
    assert expansions == 1175
    assert hamilton_cycle(g, budget=10**4) == cyc


def test_search_expansions_pinned():
    # the search is deterministic, so its expansion counts are exact: the
    # Petersen and gp(11,2) cycle absences, and all 231 pairs of gp(11,2),
    # 44 of them absences
    assert _search(PETERSEN, 0, None, 10**6) == (None, 34)
    g = gp(11, 2)
    assert _search(g, 0, None, 10**6) == (None, 658)
    total = absent = 0
    for x, y in combinations(range(22), 2):
        path, expansions = _search(g, x, y, 10**6)
        total += expansions
        absent += expansions if path is None else 0
    assert (total, absent) == (16382, 10428)


def search_cases():
    # seeded random graphs of order at most 12, each searched for a cycle
    # and for a path between two random ends, and every pair of ends of
    # gp(n,2) for n = 5..11
    rnd = random.Random(2525)
    for _ in range(2000):
        n = rnd.randrange(3, 13)
        g = random_graph(rnd, n, rnd.uniform(0.2, 0.7))
        yield g, min(range(n), key=g.degree), None
        yield (g, *rnd.sample(range(n), 2))
    for n in range(5, 12):
        g = gp(n, 2)
        yield g, 0, None
        for x, y in permutations(range(2 * n), 2):
            yield g, x, y


def test_search_agrees_with_the_reference_search():
    # the pruning rules may only cut subtrees without a solution, so the
    # first path found, or absence, is the reference's, in no more
    # expansions
    for g, start, target in search_cases():
        path, expansions = _search(g, start, target, 10**6)
        ref_path, ref_expansions = reference_search(g, start, target, 10**6)
        assert path == ref_path, (g.adjacency, start, target)
        assert expansions <= ref_expansions, (g.adjacency, start, target)


def test_search_walks_the_unvisited_vertices_at_the_root():
    # two disjoint 5-cycles: every vertex has two neighbours and the
    # start's neighbours share one component, so only a walk over all of
    # U = V - start sees the graph fall apart, before any expansion
    g = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
              + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    assert _search(g, 0, None, 10**6) == (None, 0)
    assert _search(g, 0, 2, 10**6) == (None, 0)
    assert _search(g, 0, 7, 10**6) == (None, 0)


def test_hamilton_path_examples():
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert hamilton_path(p4, 0, 3) == [0, 1, 2, 3]
    assert hamilton_path(p4, 1, 3) is None
    g = Graph(3, [(0, 1)])
    assert hamilton_path(g, 0, 1) is None  # disconnected
    with pytest.raises(ValueError):
        hamilton_path(p4, 2, 2)


def test_path_ends_must_be_vertices():
    # an end outside the graph is an error, not a proof of absence: the
    # prism gp(5,1) has Hamilton paths
    prism = gp(5, 1)
    assert verify_hamilton_path(prism, hamilton_path(prism, 0, 9), 0, 9)
    for u, v in ((0, 99), (-1, 3), (0, 10), (10, 0)):
        with pytest.raises(ValueError, match="range"):
            hamilton_path(prism, u, v)
    for x, y in ((0, 22), (-1, 3), (22, 0), (3, -21)):
        with pytest.raises(ValueError, match="range"):
            gp2_path_admissible(11, x, y)
    assert not gp2_path_admissible(11, 0, 1)


def test_gp2_admissible_only_where_gp2_exists():
    # gp(n, 2) needs n >= 3 and, without collapse, n != 4
    for n in range(1, 7):
        try:
            g = gp(n, 2)
        except ValueError:
            with pytest.raises(ValueError, match="does not exist"):
                gp2_path_admissible(n, 0, 1)
        else:
            assert g.n == 2 * n
            assert isinstance(gp2_path_admissible(n, 0, 1), bool)


def test_petersen_paths_nonadjacent_only():
    # hypohamiltonian: paths exist exactly between non-adjacent pairs
    for u, v in combinations(range(10), 2):
        p = hamilton_path(PETERSEN, u, v)
        if PETERSEN.has_edge(u, v):
            assert p is None
        else:
            assert verify_hamilton_path(PETERSEN, p, u, v)


def test_gp_examples():
    cube = Graph(8, [(a, b) for a, b in combinations(range(8), 2)
                     if bin(a ^ b).count("1") == 1])
    assert is_isomorphic(gp(4, 1), cube)
    prism = gp(3, 1)
    assert prism.n == 6 and prism.is_regular() and prism.valency() == 3
    with pytest.raises(ValueError):
        gp(8, 4)
    g = gp(8, 4, collapse=True)
    assert sorted({g.degree(v) for v in range(16)}) == [2, 3]


def test_gp_hamiltonian_criterion_examples():
    assert not gp_is_hamiltonian(5, 2)
    assert not gp_is_hamiltonian(8, 4)
    assert gp_is_hamiltonian(7, 2)
    assert not gp_is_hamiltonian(12, 6)
    assert gp_is_hamiltonian(6, 3)  # n = 6 < 8 escapes the n/2 exclusion
    assert not gp_is_hamiltonian(11, 5)  # (n-1)/2 with n = 5 mod 6


def test_gp_hamiltonian_criterion_exhaustive():
    for n in range(3, 15):
        for k in range(1, n):
            g = gp(n, k, collapse=True)
            got = hamilton_cycle(g, budget=5 * 10**6) is not None
            assert got == gp_is_hamiltonian(n, k), (n, k)


def test_gp2_admissible_matches_search_exactly():
    for n in range(7, 15):
        g = gp(n, 2)
        for x, y in combinations(range(2 * n), 2):
            adm = gp2_path_admissible(n, x, y)
            found = hamilton_path(g, x, y, budget=2 * 10**6) is not None
            assert adm == found, (n, x, y)


def test_gp2_admissible_spec_examples():
    assert all(gp2_path_admissible(7, x, y)
               for x, y in combinations(range(14), 2))
    assert not gp2_path_admissible(8, 8 + 0, 8 + 4)  # {v0, v4}, n = 2 mod 6
    n = 11
    assert gp2_path_admissible(n, 0, 4)  # nonadjacent outer pair
    assert not gp2_path_admissible(n, n + 0, n + 3)


def test_isomorphism_negative():
    assert not is_isomorphic(cycle_graph(6), complete_graph(4))
    assert not is_isomorphic(gp(6, 1), gp(6, 2))
    assert find_isomorphism(gp(9, 2), gp(9, 3)) is None
    # GP(7,2) and GP(7,3) coincide since 2*3 = -1 mod 7
    assert is_isomorphic(gp(7, 2), gp(7, 3))


def test_find_isomorphism_mappings_pinned():
    # the first mapping in candidate order, as the search has always found
    assert find_isomorphism(gp(7, 2), gp(7, 3)) == [
        7, 10, 13, 9, 12, 8, 11, 0, 3, 6, 2, 5, 1, 4]
    assert find_isomorphism(PETERSEN, PETERSEN, seed={0: 7}) == [
        7, 5, 8, 6, 9, 2, 0, 3, 1, 4]
    assert find_isomorphism(PETERSEN, PETERSEN, seed={0: 1, 1: 1}) is None


def test_find_isomorphism_long_cycle_keeps_recursion_limit():
    limit = sys.getrecursionlimit()
    g = cycle_graph(1500)
    m = find_isomorphism(g, g)
    assert sorted(m) == list(range(1500))
    assert all(g.has_edge(m[u], m[v]) for u, v in g.edges())
    assert sys.getrecursionlimit() == limit


def test_io_round_trips():
    text = format_edge_list(PETERSEN)
    assert text.splitlines()[0] == "10 15"
    assert parse_edge_list(text) == PETERSEN
    for bad in ("", " \n\n", "-3 0", "3 1\n0 5", "3 2\n0 1"):
        with pytest.raises(ValueError):
            parse_edge_list(bad)
    dot = format_dot(cycle_graph(3))
    assert "0 -- 1;" in dot and dot.startswith("graph g {")


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 11), st.integers(0, 2**30))
def test_random_graphs_cycle_verified(n, seed):
    g = random_graph(random.Random(seed), n, 0.5)
    try:
        cyc = hamilton_cycle(g, budget=10**5)
    except BudgetExceeded:
        return
    if cyc is not None:
        assert verify_hamilton_cycle(g, cyc)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 10), st.integers(0, 2**30))
def test_relabelled_graphs_isomorphic(n, seed):
    rnd = random.Random(seed)
    g = random_graph(rnd, n, 0.5)
    perm = list(range(n))
    rnd.shuffle(perm)
    h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    m = find_isomorphism(g, h)
    assert m is not None
    assert all(h.has_edge(m[u], m[v]) for u, v in g.edges())


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_search_agrees_with_permutation_brute_force(g):
    # every Hamilton path of g is a vertex permutation with all steps edges
    ends, has_cycle = set(), False
    for perm in permutations(range(g.n)):
        if all(g.has_edge(a, b) for a, b in zip(perm, perm[1:])):
            ends.add((perm[0], perm[-1]))
            has_cycle = has_cycle or (g.n >= 3 and g.has_edge(perm[-1],
                                                               perm[0]))
    cyc = hamilton_cycle(g)
    assert (cyc is not None) == has_cycle
    if cyc is not None:
        assert verify_hamilton_cycle(g, cyc)
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                path = hamilton_path(g, u, v)
                assert (path is not None) == ((u, v) in ends), (u, v)
                if path is not None:
                    assert verify_hamilton_path(g, path, u, v)
