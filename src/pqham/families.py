"""Constructors for the two imprimitive vertex-transitive families of
order p*q: metacirculants and the projective-line graphs over GF(2^(2^s))
("Fermat graphs"), each with its distinguished semiregular automorphism."""

from dataclasses import dataclass

from .field import is_prime
from .graphs import Graph, orbit_graph

# fixed irreducible polynomials for GF(2^(2^s)), s = 1, 2, 3
_IRREDUCIBLE = {4: 0b111, 16: 0b10011, 256: 0b100011011}


class GF2k:
    """GF(2^(2^s)) with elements as bitmask ints, plus discrete logs to
    the smallest-integer generator w."""

    def __init__(self, size):
        if size not in _IRREDUCIBLE:
            raise ValueError("field size %d not supported" % size)
        self.size = size
        self.poly = _IRREDUCIBLE[size]
        self.bits = size.bit_length() - 1

    def mul(self, a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & self.size:
                a ^= self.poly
        return r

    def order(self, a):
        k, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            k += 1
        return k

    @property
    def generator(self):
        for a in range(2, self.size):
            if self.order(a) == self.size - 1:
                return a
        raise AssertionError("no generator found")

    def dlog_table(self):
        """element -> i with w^i = element, for the fixed generator."""
        w = self.generator
        table = {1: 0}
        x = 1
        for i in range(1, self.size - 1):
            x = self.mul(x, w)
            table[x] = i
        return table


@dataclass(frozen=True)
class MetacirculantSpec:
    m: int
    n: int
    alpha: int
    tails: tuple  # T_0 .. T_mu as frozensets of Z_n

    def __post_init__(self):
        m, n, a = self.m, self.n, self.alpha
        if m < 1 or n < 2:
            raise ValueError("need m >= 1 and n >= 2")
        from math import gcd
        if gcd(a % n, n) != 1:
            raise ValueError("alpha must be a unit of Z_n")
        mu = m // 2
        if len(self.tails) != mu + 1:
            raise ValueError("need %d connection sets T_0..T_%d" % (mu + 1, mu))
        t0 = self.tails[0]
        if 0 in t0:
            raise ValueError("0 must not lie in T_0")
        if frozenset((-t) % n for t in t0) != frozenset(x % n for x in t0):
            raise ValueError("T_0 must be symmetric")
        for i, t in enumerate(self.tails):
            img = frozenset(pow(a, m, n) * x % n for x in t)
            if img != frozenset(x % n for x in t):
                raise ValueError("alpha^m T_%d != T_%d" % (i, i))
        if m % 2 == 0 and m >= 2:
            tm = self.tails[mu]
            img = frozenset(pow(a, mu, n) * x % n for x in tm)
            if img != frozenset((-x) % n for x in tm):
                raise ValueError("alpha^mu T_mu != -T_mu")


def _full_tails(spec):
    """T_h for all h in Z_m via T_{m-h} = -alpha^{-h} T_h."""
    m, n, a = spec.m, spec.n, spec.alpha
    mu = m // 2
    ainv = pow(a, -1, n)
    tails = {h: frozenset(x % n for x in t) for h, t in enumerate(spec.tails)}
    for h in range(1, mu + 1):
        hh = (m - h) % m
        img = frozenset((-pow(ainv, h, n) * x) % n for x in tails[h])
        if hh in tails and tails[hh] != img:
            raise ValueError("inconsistent T_%d" % hh)
        tails[hh] = img
    return tails


def metacirculant(spec):
    """Graph on m*n vertices v_i^r (vertex i*n+r), edge rule
    v_i^r ~ v_j^s iff s-r in alpha^i T_{j-i}; returns (graph, rho, sigma)
    with rho the (m,n)-semiregular rotation and sigma the orbit shift.
    Both are automorphisms and act transitively, so the graph is the one
    they carry from the neighbourhood {v_h^t : t in T_h} of v_0^0."""
    m, n, a = spec.m, spec.n, spec.alpha
    tails = _full_tails(spec)
    rho = [i * n + (r + 1) % n for i in range(m) for r in range(n)]
    sigma = [((i + 1) % m) * n + (a * r) % n for i in range(m) for r in range(n)]
    g = orbit_graph((rho, sigma), 0,
                    [h * n + t for h in range(m) for t in tails[h]])
    return g, rho, sigma


@dataclass(frozen=True)
class FermatSpec:
    p: int
    q: int
    s_set: frozenset  # symmetric subset of Z_q \ {0}
    t_set: frozenset  # nonempty proper subset of Z_q \ {0}

    def __post_init__(self):
        p, q = self.p, self.q
        if p - 1 not in _IRREDUCIBLE or not is_prime(p):
            raise ValueError("p must be one of 5, 17, 257")
        if not is_prime(q) or (p - 2) % q != 0:
            raise ValueError("q must be a prime dividing p-2")
        units = set(range(1, q))
        s = set(x % q for x in self.s_set)
        t = set(x % q for x in self.t_set)
        if not s <= units or s != {(-x) % q for x in s}:
            raise ValueError("S must be a symmetric subset of Z_q*")
        if not t or not t < units:
            raise ValueError("T must be a nonempty proper subset of Z_q*")


def fermat_graph(spec):
    """Graph on p*q vertices over PG(1, p-1) x Z_q: point v encoded as
    its field bitmask (infinity as p-1), vertex v*q + r. Returns
    (graph, rho) with rho the (p,q)-semiregular automorphism."""
    p, q = spec.p, spec.q
    S, T = spec.s_set, spec.t_set
    f = GF2k(p - 1)
    dlog = f.dlog_table()
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
    g = Graph(p * q, sorted(edges))
    # the shift (v, r) -> (v*w, r+1) composed (p-2)/q times is
    # (p,q)-semiregular
    w = f.generator
    shift = [0] * (p * q)
    for v in range(p - 1):
        for r in range(q):
            shift[vid(v, r)] = vid(f.mul(v, w) if v else 0, r + 1)
    for r in range(q):
        shift[vid(INF, r)] = vid(INF, r + 1)
    c = (p - 2) // q
    rho = list(range(p * q))
    for _ in range(c):
        rho = [shift[x] for x in rho]
    return g, rho


def parse_family_spec(text):
    """Family spec from line-oriented key=value text; returns the
    MetacirculantSpec or FermatSpec."""
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, _, v = line.partition("=")
        kv[k.strip()] = v.strip()
    fam = kv.get("family")
    ints = lambda s: frozenset(int(x) for x in s.split(",") if x.strip() != "")
    try:
        if fam == "metacirculant":
            m = int(kv["m"])
            tails = tuple(ints(kv.get("T%d" % i, ""))
                          for i in range(m // 2 + 1))
            return MetacirculantSpec(m, int(kv["n"]), int(kv["alpha"]), tails)
        if fam == "fermat":
            return FermatSpec(int(kv["p"]), int(kv["q"]),
                              ints(kv.get("S", "")), ints(kv["T"]))
    except KeyError as e:
        raise ValueError("%s spec has no %s= line" % (fam, e.args[0]))
    raise ValueError("unknown family %r" % fam)
