"""Semiregular automorphisms, orbit quotient graphs, the orbit symbol
matrix, and cycle lifting through cyclic voltages."""

from dataclasses import dataclass
from functools import lru_cache

from .field import is_prime
from .graphs import Graph, maps_rows, orbit_walk


def is_automorphism(g, perm):
    return sorted(perm) == list(range(g.n)) and maps_rows(perm, g.adjacency)


def permutation_orbits(*perms):
    """Orbits of the group generated by perms, ordered by lowest vertex.
    For a single permutation each orbit is its cycle, listed from its
    lowest vertex by successive application."""
    moves = [perm.__getitem__ for perm in perms]
    seen = set()
    out = []
    for v in range(len(perms[0])):
        if v not in seen:
            orb = orbit_walk(v, moves)[0]
            seen.update(orb)
            out.append(orb)
    return out


@dataclass(frozen=True)
class Symbol:
    """m x m array S[i][j] = {t : u_i ~ perm^t(u_j)} over Z_n, with the
    base vertex u_i of each orbit."""
    n: int
    bases: tuple
    sets: tuple  # tuple of tuples of frozensets

    @property
    def m(self):
        return len(self.bases)


@dataclass(frozen=True)
class Quotient:
    """Orbit quotient of a graph under a semiregular automorphism perm.
    Orbit A is listed from its lowest vertex by successive application
    of perm; the symbol is taken relative to those lowest vertices, and
    d(A,B) = |S[A][B]|, d(A) = |S[A][A]|."""
    graph: Graph               # simple quotient: A ~ B iff d(A,B) >= 1
    orbits: tuple              # m tuples of length n
    symbol: Symbol

    @property
    def m(self):
        return len(self.orbits)

    @property
    def n(self):
        return len(self.orbits[0])

    @property
    def d_in(self):
        return tuple(self.d(a, a) for a in range(self.m))

    def d(self, a, b):
        return len(self.symbol.sets[a][b])


@lru_cache(maxsize=4)
def _cycles(perm):
    """(cycles, pos) of the permutation perm, a tuple: its cycles as
    permutation_orbits lists them, and pos[v] = (a, t) when v is the t-th
    point of cycle a. ValueError, before anything is cached, unless the
    cycles share one length n >= 2."""
    orbs = permutation_orbits(perm)
    if len({len(o) for o in orbs}) != 1 or len(orbs[0]) < 2:
        raise ValueError("permutation is not semiregular on the graph")
    pos = [None] * len(perm)
    for a, orb in enumerate(orbs):
        for t, v in enumerate(orb):
            pos[v] = (a, t)
    return tuple(map(tuple, orbs)), tuple(pos)


def quotient(g, perm):
    """The quotient of g by perm, with its symbol, read off one pass over
    each orbit's base adjacency. ValueError unless perm is a
    g-automorphism whose cycles all share one length n >= 2. A perm that
    g records as a proven automorphism is not checked again; the cycles
    of the last few permutations are kept, so graphs that share one
    perm walk its cycles once."""
    perm = tuple(perm)
    if perm not in g._automorphisms and not is_automorphism(g, perm):
        raise ValueError("permutation is not an automorphism of the graph")
    orbs, pos = _cycles(perm)
    m, n = len(orbs), len(orbs[0])
    sets = [[set() for _ in range(m)] for _ in range(m)]
    for a, orb in enumerate(orbs):
        row = sets[a]
        for w in g.adjacency[orb[0]]:
            b, t = pos[w]
            row[b].add(t)
    edges = [(a, b) for a in range(m) for b in range(a + 1, m)
             if sets[a][b]]
    sym = Symbol(n, tuple(o[0] for o in orbs),
                 tuple(tuple(frozenset(s) for s in row) for row in sets))
    return Quotient(Graph(m, edges), orbs, sym)


def format_symbol(sym):
    """Plain-text matrix with voltage sets in braces."""
    cells = [["{" + ",".join(map(str, sorted(s))) + "}" if s else "{}"
              for s in row] for row in sym.sets]
    w = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(w) for c in row) for row in cells)


@dataclass(frozen=True)
class LiftOutcome:
    """Result of lifting a quotient cycle: a full cycle of length k*n,
    or n disjoint k-cycles."""
    full: bool
    cycle: tuple        # vertex sequence when full, else one k-cycle
    piece_count: int    # 1 when full, else n


def lift_closed_walk(q, walk):
    """Lift a cycle of the quotient q (orbit indices, each visited once)
    through the voltages of its symbol. Requires prime orbit length."""
    n = q.n
    if not is_prime(n):
        raise ValueError("orbit length must be prime")
    k = len(walk)
    if k < 2 or len(set(walk)) != k:
        raise ValueError("walk must be a cycle visiting each orbit once")
    steps = [(walk[i], walk[(i + 1) % k]) for i in range(k)]
    volts = [q.symbol.sets[a][b] for a, b in steps]
    if any(not s for s in volts):
        raise ValueError("walk uses an absent quotient edge")
    if k == 2 and len(volts[0]) < 2:
        raise ValueError("a 2-cycle in the quotient needs a double edge")
    choice = [min(s) for s in volts]
    if k == 2:
        # The two steps traverse distinct parallel edges. volts[1] is
        # -volts[0], so it has a voltage other than -choice[0], and the
        # two never sum to 0: only k >= 3 reaches the pick below.
        choice[1] = min(t for t in volts[1] if t != (-choice[0]) % n)
    if sum(choice) % n == 0:
        # voltages lie in [0, n), so a second voltage at any one step
        # moves the sum off 0
        i = next((i for i, s in enumerate(volts) if len(s) > 1), None)
        if i is None:
            choice = None
        else:
            choice[i] = next(t for t in volts[i] if t != choice[i])
    orbs = q.orbits
    if choice is None:
        t0 = [min(s) for s in volts]
        piece = []
        a = 0
        for i in range(k):
            piece.append(orbs[walk[i]][a % n])
            a += t0[i]
        return LiftOutcome(False, tuple(piece), n)
    cyc = []
    a = 0
    for _ in range(n):
        for i in range(k):
            cyc.append(orbs[walk[i]][a % n])
            a = (a + choice[i]) % n
    return LiftOutcome(True, tuple(cyc), 1)
