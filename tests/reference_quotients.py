"""Oracles for the quotient tests: the graph a symbol describes, the
symbol-level search for isomorphisms that respect two semiregular
automorphisms, and a brute-force reference for that search.

brute_semiregular_isomorphism tries every vertex map
phi(perm_g^t(u_i)) = perm_h^(s_i + lam*t)(v_J(i)) over unit multipliers
lam, orbit bijections J and offset vectors s, with u_i and v_j the lowest
vertices of the orbits, and checks each map edge by edge with has_edge.
It shares no code with the symbol search, so it is only fit for small
graphs.
"""

from itertools import permutations, product
from math import gcd

from pqham.graphs import Graph
from pqham.quotients import quotient


def graph_from_symbol(sym):
    """Graph on m*n vertices realizing the symbol, orbit i position a at
    i*n+a: the source graph relabelled by orbits[i][a] -> i*n+a."""
    m, n = sym.m, sym.n
    edges = set()
    for i in range(m):
        for j in range(m):
            for t in sym.sets[i][j]:
                for a in range(n):
                    u = i * n + a
                    v = j * n + (a + t) % n
                    if u != v:
                        edges.add((min(u, v), max(u, v)))
    return Graph(m * n, sorted(edges))


def semiregular_isomorphism(g, perm_g, h, perm_h):
    """An isomorphism g -> h carrying perm_g to a power of perm_h, as a
    vertex list, or None.  ValueError unless both permutations are
    semiregular; a different orbit shape or edge count gives None.

    The search runs on the two symbols.  Such a map sends orbit i of g to
    orbit J[i] of h by t -> s[i] + lam*t for a unit lam mod n, so it
    exists iff S_h[J k][J i] = {s[i] - s[k] + lam*d : d in S_g[k][i]} for
    all k <= i.  Composing with a power of perm_h, an automorphism of h,
    makes s[0] = 0.  One explicit-stack depth-first search per lam places
    the orbits in turn and keeps a placement only if it fits every
    placed orbit."""
    qg, qh = quotient(g, perm_g), quotient(h, perm_h)
    m, n = qg.m, qg.n
    if (m, n) != (qh.m, qh.n) or g.edge_count != h.edge_count:
        return None
    sg, sh = qg.symbol.sets, qh.symbol.sets
    for lam in range(1, n):
        if gcd(lam, n) != 1:
            continue
        scaled = [[[lam * d % n for d in cell] for cell in row] for row in sg]
        place = []  # (J[k], s[k]) for the orbits k placed so far
        stack = [[(j, 0) for j in reversed(range(m))]]
        while stack:
            if not stack[-1]:
                stack.pop()
                if place:
                    place.pop()
                continue
            j, s = stack[-1].pop()
            i = len(place)
            place.append((j, s))
            if not all(sh[jk][j] == {(s - sk + d) % n for d in scaled[k][i]}
                       for k, (jk, sk) in enumerate(place)):
                place.pop()
            elif len(place) < m:
                used = {jk for jk, _ in place}
                stack.append([(j2, s2) for j2 in reversed(range(m))
                              if j2 not in used for s2 in reversed(range(n))])
            else:
                phi = [None] * g.n
                for orb, (j, s) in zip(qg.orbits, place):
                    target = qh.orbits[j]
                    for t, u in enumerate(orb):
                        phi[u] = target[(s + lam * t) % n]
                return phi
    return None


def cycles(perm):
    """The cycles of perm, each listed from its lowest vertex."""
    seen = set()
    out = []
    for v in range(len(perm)):
        if v in seen:
            continue
        cyc = [v]
        while perm[cyc[-1]] != v:
            cyc.append(perm[cyc[-1]])
        seen.update(cyc)
        out.append(cyc)
    return out


def brute_semiregular_isomorphism(g, perm_g, h, perm_h):
    """The first isomorphism g -> h of the form above, or None."""
    gorbs, horbs = cycles(perm_g), cycles(perm_h)
    m, n = len(gorbs), len(gorbs[0])
    if (m, n) != (len(horbs), len(horbs[0])) \
            or g.edge_count != h.edge_count:
        return None
    edges = g.edges()
    for lam in range(1, n):
        if gcd(lam, n) != 1:
            continue
        for J in permutations(range(m)):
            for s in product(range(n), repeat=m):
                phi = [None] * g.n
                for i, orb in enumerate(gorbs):
                    for t, u in enumerate(orb):
                        phi[u] = horbs[J[i]][(s[i] + lam * t) % n]
                if all(h.has_edge(phi[u], phi[v]) for u, v in edges):
                    return phi
    return None
