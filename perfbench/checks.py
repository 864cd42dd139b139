"""Correctness checks of the benchmark, computed apart from the program.

Each check returns a list of problem strings; an empty list means the
output passed. None of them calls the program's own verifiers
(graphs.verify_hamilton_cycle, engine.verify): adjacency is decided from
the definitions of the graphs, with the benchmark's own arithmetic.
"""

from collections import Counter
from math import isqrt


def cycle_problems(cycle, n, adjacent):
    """A Hamilton cycle visits each of the n vertices once and joins
    consecutive vertices, the last to the first, by edges."""
    if sorted(cycle) != list(range(n)):
        return ["cycle is not a permutation of the %d vertices" % n]
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % n]
        if not adjacent(u, v):
            return ["cycle steps along a non-edge %d-%d" % (u, v)]
    return []


def path_problems(path, n, x, y, adjacent):
    """A Hamilton path from x to y visits each vertex once along edges."""
    if sorted(path) != list(range(n)):
        return ["path is not a permutation of the %d vertices" % n]
    if path[0] != x or path[-1] != y:
        return ["path runs %d..%d, not %d..%d" % (path[0], path[-1], x, y)]
    for u, v in zip(path, path[1:]):
        if not adjacent(u, v):
            return ["path steps along a non-edge %d-%d" % (u, v)]
    return []


def edge_set_adjacency(edges):
    """Adjacency test over an explicit edge list."""
    nbrs = {}
    for u, v in edges:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    return lambda u, v: v in nbrs.get(u, ())


def gp2_adjacency(n):
    """gp(n,2) from its definition: outer cycle u_i ~ u_{i+1}, spokes
    u_i ~ v_i, inner v_i ~ v_{i+2}; u_i is vertex i, v_i vertex n+i."""
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n), (i, n + i), (n + i, n + (i + 2) % n)]
    return edge_set_adjacency(edges)


def coset_transport(n, base, gens):
    """For a transitive action given by generator permutations, the map
    (u, v) -> h^-1(v) for a fixed h taking the base point to u; None if
    the generators are not transitive."""
    inverses = []
    for g in gens:
        inv = [0] * n
        for i, j in enumerate(g):
            inv[j] = i
        inverses.append(inv)
    word = {base: ()}  # point -> generator indices, applied first to last
    frontier = [base]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = g[x]
                if y not in word:
                    word[y] = word[x] + (gi,)
                    nxt.append(y)
        frontier = nxt
    if len(word) != n:
        return None

    def transport(u, v):
        for gi in reversed(word[u]):
            v = inverses[gi][v]
        return v
    return transport


def coset_adjacency(transport, union_points):
    """Adjacency in the orbital graph of a suborbit union: u ~ v iff
    h^-1(v) lies in the union, for any h taking the base point to u. The
    union is invariant under the base point's stabilizer, so the choice
    of h is free."""
    union = frozenset(union_points)
    return lambda u, v: transport(u, v) in union


def quadric_adjacency(points, q, theta, lam):
    """Adjacency in the quadric graph with half form value +-lam: the
    polar form x2*y1 + x1*y2 - 2*x3*y3 + 2*theta*x4*y4 over GF(q)."""
    half = pow(2, -1, q)

    def adjacent(u, v):
        x, y = points[u], points[v]
        f = (x[1] * y[0] + x[0] * y[1] - 2 * x[2] * y[2]
             + 2 * theta * x[3] * y[3]) % q
        h = f * half % q
        return u != v and min(h, q - h) == lam
    return adjacent


def survey_problems(rows):
    """The paper's theorem on the surveyed orders: exactly one instance
    is non-hamiltonian, and it is the Petersen graph (order 10, valency
    3); every other instance is certified."""
    out = []
    exceptions = [r for r in rows if r["status"] == "exception"]
    if len(exceptions) != 1:
        out.append("%d non-hamiltonian instances, want 1" % len(exceptions))
    elif (exceptions[0]["order"], exceptions[0]["valency"]) != (10, 3):
        out.append("the exception has order %d valency %d, want 10 and 3"
                   % (exceptions[0]["order"], exceptions[0]["valency"]))
    for r in rows:
        if r["status"] not in ("hamiltonian", "exception"):
            out.append("%s: status %s" % (r["descriptor"], r["status"]))
    return out


def suborbit_problems(sizes, n, want_multiset=None):
    """The non-trivial suborbits partition the n-1 points other than the
    base point; optionally their sizes form a known multiset."""
    out = []
    if sum(sizes) != n - 1:
        out.append("suborbit sizes sum to %d, not %d" % (sum(sizes), n - 1))
    if want_multiset is not None and dict(Counter(sizes)) != want_multiset:
        out.append("suborbit size multiset %s, want %s"
                   % (dict(sorted(Counter(sizes).items())), want_multiset))
    return out


# ---------------------------------------------------------------------------
# the exceptional-sequence table


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for d in range(2, isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, n + 1, d)))
    return [p for p in range(n + 1) if sieve[p]]


def _prime_support(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def threshold_holds(s, t_primes, x):
    """2*phi(t)/t > 1 + 2(2s-1)sqrt(x)/(x-1) + (4s+2)/(x-1) at integer
    x >= 2, in exact integers: with a/b = 2*phi(t)/t, c = 4s-2 and
    d = 4s+2 it reads (a-b)(x-1) - b*d > b*c*sqrt(x)."""
    a, b = 2, 1
    for q in t_primes:
        a *= q - 1
        b *= q
    lhs = (a - b) * (x - 1) - b * (4 * s + 2)
    return lhs > 0 and lhs * lhs > b * b * (4 * s - 2) ** 2 * x


def split_of(sequence, split_type):
    """(s, primes of t) for a rendered split type: "3" t=1, "2" t the
    last prime, "1" t the last two primes, "t=N" t=N."""
    if split_type == "3":
        t_primes = ()
    elif split_type == "2":
        t_primes = sequence[-1:]
    elif split_type == "1":
        t_primes = sequence[-2:]
    else:
        t = int(split_type[2:])
        t_primes = tuple(q for q in sequence if t % q == 0)
    s = 1
    for q in sequence:
        if q not in t_primes:
            s *= q
    return s, t_primes


def parse_table(text):
    """Rows of `pqham tables` text output as {sequence: (k, type,
    primes, filtered primes)}."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("sequence"):
        raise ValueError("no table header")
    ints = lambda cell: () if cell == "no" else tuple(
        int(x) for x in cell.split(","))
    rows = {}
    for line in lines[1:]:
        seq, k, typ, primes, filtered = line.split()
        rows[ints(seq)] = (int(k), typ, ints(primes), ints(filtered))
    return rows


def table_problems(rows, reference, qm_cap):
    """The table equals the published one (with its documented exact
    divergences) restricted to sequences below qm_cap; each bound is the
    first integer from which the threshold inequality holds; the listed
    primes are exactly the primes p <= k whose p-1 has the sequence as
    its prime support, and the filtered ones those with p = 1 (mod 4)
    and (p+1)/2 prime."""
    out = []
    want = {s: r for s, r in reference.items() if s[-1] < qm_cap}
    if set(rows) != set(want):
        out.append("table has %d rows, the reference %d; %d differ"
                   % (len(rows), len(want), len(set(rows) ^ set(want))))
    top = max([row[0] for row in rows.values()] + [2])
    primes_upto = _primes_upto(top)
    prime_set = set(primes_upto)
    support = {p: tuple(_prime_support(p - 1)) for p in primes_upto}
    for seq, row in sorted(rows.items()):
        k, typ, primes, filtered = row
        if want.get(seq, row) != row:
            out.append("%s: row %s, published %s" % (seq, row, want[seq]))
        s, t_primes = split_of(seq, typ)
        if not (threshold_holds(s, t_primes, k)
                and not threshold_holds(s, t_primes, k - 1)):
            out.append("%s: the inequality does not switch on at k=%d"
                       % (seq, k))
        want_primes = tuple(p for p in primes_upto
                            if p <= k and support[p] == seq)
        if primes != want_primes:
            out.append("%s: primes %s, want %s" % (seq, primes, want_primes))
        want_filtered = tuple(p for p in want_primes
                              if p % 4 == 1 and (p + 1) // 2 in prime_set)
        if filtered != want_filtered:
            out.append("%s: filtered primes %s, want %s"
                       % (seq, filtered, want_filtered))
    return out
