"""Constructors for the two imprimitive vertex-transitive families of
order p*q: metacirculants and the projective-line graphs over GF(2^(2^s))
("Fermat graphs"). Each graph records its distinguished semiregular
automorphism as the first generator of its action."""

from dataclasses import dataclass

from .field import is_prime
from .graphs import Action, orbit_graph

# fixed irreducible polynomials for GF(2^(2^s)), s = 1, 2, 3
_IRREDUCIBLE = {4: 0b111, 16: 0b10011, 256: 0b100011011}


def _gf_powers(size):
    """[1, w, w^2, ..., w^(size-2)] in GF(size), size 4, 16 or 256, with
    elements as bitmask ints and w the smallest-integer generator of the
    multiplicative group."""
    if size not in _IRREDUCIBLE:
        raise ValueError("field size %d not supported" % size)

    def times(x, a):
        r = 0
        while a:
            if a & 1:
                r ^= x
            a >>= 1
            x <<= 1
            if x & size:
                x ^= _IRREDUCIBLE[size]
        return r

    for w in range(2, size):
        powers = [1]
        while len(powers) < size - 1:
            powers.append(times(powers[-1], w))
        if len(set(powers)) == size - 1:
            return powers
    raise AssertionError("no generator found")


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
        # hh is already a key only when hh = h = mu, where __post_init__
        # has checked this same equation
        tails[hh] = frozenset((-pow(ainv, h, n) * x) % n for x in tails[h])
    return tails


def metacirculant(spec):
    """Graph on m*n vertices v_i^r (vertex i*n+r), edge rule
    v_i^r ~ v_j^s iff s-r in alpha^i T_{j-i}. The (m,n)-semiregular
    rotation rho and the orbit shift sigma are automorphisms and act
    transitively, so the graph is the one they carry from the
    neighbourhood {v_h^t : t in T_h} of v_0^0; it records (rho, sigma)."""
    m, n, a = spec.m, spec.n, spec.alpha
    tails = _full_tails(spec)
    rho = [i * n + (r + 1) % n for i in range(m) for r in range(n)]
    sigma = [((i + 1) % m) * n + (a * r) % n for i in range(m) for r in range(n)]
    return orbit_graph(Action((rho, sigma), 0),
                       [h * n + t for h in range(m) for t in tails[h]])


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
    its field bitmask (infinity as p-1), vertex v*q + r, logs taken to
    the smallest generator w. (v, r) ~ (v, r+s) for every point v and s
    in S; for t in T, (inf, r) ~ (v, r+t) and (v, a) ~ (v + w^i, b) when
    a + b = t + 2i.

    The graph is the one carried from the row of (inf, 0) by sigma:
    (v, r) -> (v*w, r+1), tau: (v, r) -> (v+1, r) and phi: (v, r) ->
    (1/v, r - 2 log v), (0, r) <-> (inf, -r). On the line these are
    x -> wx, x+1 and 1/x, which generate PSL(2, p-1), so the action is
    transitive. rho = sigma^((p-2)/q) is (p,q)-semiregular; orbit_graph
    proves rho, sigma, tau and phi automorphisms, and the graph records
    them in that order."""
    p, q = spec.p, spec.q
    powers = _gf_powers(p - 1)
    log = {x: i for i, x in enumerate(powers)}
    INF, N = p - 1, p - 2  # N is the order of w
    vid = lambda v, r: v * q + r % q

    def perm(move):
        return [vid(*move(v, r)) for v in range(p) for r in range(q)]

    def scale(k):
        # (v, r) -> (v * w^k, r + k)
        return perm(lambda v, r: (v if v in (0, INF)
                                  else powers[(log[v] + k) % N], r + k))

    tau = perm(lambda v, r: (v if v == INF else v ^ 1, r))
    phi = perm(lambda v, r: (INF, -r) if v == 0 else (0, -r) if v == INF
               else (powers[-log[v] % N], r - 2 * log[v]))
    rho = scale(N // q)
    row = [vid(INF, s) for s in spec.s_set] + \
        [vid(v, t) for v in range(INF) for t in spec.t_set]
    return orbit_graph(Action((rho, scale(1), tau, phi), vid(INF, 0)), row)


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
