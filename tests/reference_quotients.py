"""Brute-force reference for quotients.semiregular_isomorphism.

It tries every vertex map phi(perm_g^t(u_i)) = perm_h^(s_i + lam*t)(v_J(i))
over unit multipliers lam, orbit bijections J and offset vectors s, with
u_i and v_j the lowest vertices of the orbits, and checks each map edge
by edge with has_edge. It shares no code with the symbol search, so it
is only fit for small graphs.
"""

from itertools import permutations, product
from math import gcd


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
