"""Edge-rule reference for families.metacirculant, and random valid
metacirculant specs to compare it on.

edge_rule_metacirculant applies the defining rule v_i^r ~ v_j^s iff
s - r lies in alpha^i T_{j-i} to every vertex pair class, so it shares
no transport or proof code with the library builder.
"""

from math import gcd

from pqham.families import MetacirculantSpec, _full_tails
from pqham.graphs import Graph
from pqham.quotients import permutation_orbits


def edge_rule_metacirculant(spec):
    """The metacirculant graph of spec, edge by edge from its rule."""
    m, n, a = spec.m, spec.n, spec.alpha
    tails = _full_tails(spec)
    edges = set()
    for i in range(m):
        ai = pow(a, i, n)
        for h in range(m):
            j = (i + h) % m
            for t in tails[h]:
                d = ai * t % n
                for r in range(n):
                    u = i * n + r
                    v = j * n + (r + d) % n
                    if u != v:
                        edges.add((min(u, v), max(u, v)))
    return Graph(m * n, edges)


def random_metacirculant_spec(rnd):
    """A valid MetacirculantSpec with m <= 4 and n <= 13. Each T_h is a
    random union of orbits of the multipliers its condition fixes:
    alpha^m always, -1 for T_0, and -alpha^mu for T_mu when m = 2 mu."""
    m = rnd.randint(1, 4)
    n = rnd.choice([2, 3, 4, 5, 6, 7, 9, 10, 11, 13])
    alpha = rnd.choice([a for a in range(1, n) if gcd(a, n) == 1])
    mu = m // 2

    def union_of_orbits(*mults):
        orbits = permutation_orbits(*[[c * x % n for x in range(n)]
                                      for c in mults])
        return frozenset(x for o in orbits if rnd.random() < 0.5 for x in o)

    tails = []
    for h in range(mu + 1):
        mults = [pow(alpha, m, n)]
        if h == 0:
            mults.append(n - 1)
        if m % 2 == 0 and h == mu:
            mults.append(-pow(alpha, mu, n) % n)
        tails.append(union_of_orbits(*mults))
    tails[0] -= {0}
    return MetacirculantSpec(m, n, alpha, tuple(tails))
