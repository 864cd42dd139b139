"""Edge-rule references for families.metacirculant and
families.fermat_graph, and random valid metacirculant specs to compare
them on.

edge_rule_metacirculant applies the defining rule v_i^r ~ v_j^s iff
s - r lies in alpha^i T_{j-i} to every vertex pair class, and
edge_rule_fermat lists the Fermat graph's edges from its rule, so
neither shares transport or proof code with the library builders.
"""

from itertools import combinations
from math import gcd

from pqham.families import (
    FermatSpec,
    MetacirculantSpec,
    _full_tails,
    _gf_powers,
)
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


def edge_rule_fermat(spec):
    """The Fermat graph of spec, edge by edge from its rule, with the
    vertex numbering of families.fermat_graph."""
    p, q = spec.p, spec.q
    S, T = spec.s_set, spec.t_set
    dlog = {x: i for i, x in enumerate(_gf_powers(p - 1))}
    INF = p - 1
    vid = lambda v, r: v * q + r % q
    edges = set()

    def add(u, v):
        if u != v:
            edges.add((min(u, v), max(u, v)))

    for r in range(q):
        for s in S:
            add(vid(INF, r), vid(INF, r + s))
        for v in range(p - 1):
            for s in S:
                add(vid(v, r), vid(v, r + s))
            for t in T:
                add(vid(INF, r), vid(v, r + t))
    for v in range(p - 1):
        for d in range(1, p - 1):
            i = dlog[d]
            vv = v ^ d
            for t in T:
                # (v, a) ~ (v + w^i, b) iff a + b = t + 2i (mod q)
                for a in range(q):
                    add(vid(v, a), vid(vv, (t + 2 * i - a) % q))
    return Graph(p * q, sorted(edges))


def fermat_shift_power(spec):
    """The shift (v, r) -> (v*w, r+1) composed (p-2)/q times, one step at
    a time, with v*w read off the table of powers of w."""
    p, q = spec.p, spec.q
    powers = _gf_powers(p - 1)
    times_w = {x: powers[(i + 1) % (p - 2)] for i, x in enumerate(powers)}
    INF = p - 1
    vid = lambda v, r: v * q + r % q
    shift = [0] * (p * q)
    for v in range(p - 1):
        for r in range(q):
            shift[vid(v, r)] = vid(times_w[v] if v else 0, r + 1)
    for r in range(q):
        shift[vid(INF, r)] = vid(INF, r + 1)
    rho = list(range(p * q))
    for _ in range((p - 2) // q):
        rho = [shift[x] for x in rho]
    return rho


def fermat_specs(p, q):
    """Every valid FermatSpec at p and q."""
    units = range(1, q)
    pairs = sorted({frozenset({x, q - x}) for x in units}, key=sorted)
    s_sets = [frozenset().union(*c) for k in range(len(pairs) + 1)
              for c in combinations(pairs, k)]
    t_sets = [frozenset(c) for k in range(1, q - 1)
              for c in combinations(units, k)]
    return [FermatSpec(p, q, s, t) for s in s_sets for t in t_sets]


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
