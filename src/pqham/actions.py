"""Transitive group actions at desk scale: PSL(2,p) matrix arithmetic,
generic spaces with suborbit decompositions and orbital graphs, the
character model of PSL(2,p) acting on cosets of a maximal dihedral
subgroup, and the quadric-point model of PSL(2,q^2) acting on cosets
of PGL(2,q)."""

from dataclasses import dataclass, field
from itertools import combinations

from .field import (
    NONSQUARE,
    SQUARE,
    classify,
    is_prime,
    primitive_roots,
    root_counts,
    sqrt_mod,
)
from .graphs import Action, check_permutations, orbit_graph, orbit_walk
from .quotients import permutation_orbits, quotient


# ---------------------------------------------------------------------------
# PSL(2, p) matrices as canonical 4-tuples (a, b, c, d), determinant 1.

def psl2_canon(m, p):
    """Canonical representative of {M, -M}: first nonzero entry in
    reading order lies in [1, (p-1)/2]."""
    a, b, c, d = (x % p for x in m)
    for x in (a, b, c, d):
        if x:
            if x > (p - 1) // 2:
                return ((-a) % p, (-b) % p, (-c) % p, (-d) % p)
            return (a, b, c, d)
    raise ValueError("zero matrix")


def psl2_mul(m, k, p):
    a, b, c, d = m
    e, f, g, h = k
    return psl2_canon((a * e + b * g, a * f + b * h,
                       c * e + d * g, c * f + d * h), p)


PSL2_ID = (1, 0, 0, 1)


def psl2_order(m, p):
    k, x = 1, psl2_canon(m, p)
    while x != PSL2_ID:
        x = psl2_mul(x, m, p)
        k += 1
    return k


def psl2_elements(p):
    """Yield the p(p^2-1)/2 canonical matrices of PSL(2, p), sorted.

    A canonical matrix with a = 0 has b in [1, (p-1)/2], c = -1/b and any
    d; one with a != 0 has a in [1, (p-1)/2], any b and c, and
    d = (1 + bc)/a. Listing them in that nesting order sorts them."""
    half = (p - 1) // 2
    for b in range(1, half + 1):
        c = -pow(b, -1, p) % p
        yield from ((0, b, c, d) for d in range(p))
    for a in range(1, half + 1):
        a_inv = pow(a, -1, p)
        for b in range(p):
            yield from ((a, b, c, (1 + b * c) * a_inv % p) for c in range(p))


def _need_odd_prime(p):
    if p < 3 or not is_prime(p):
        raise ValueError("need an odd prime p, got %d" % p)


def psl2_dihedral_subgroup(p):
    """The maximal dihedral subgroup of order p-1 (diagonal and
    antidiagonal matrices) with its two generators."""
    _need_odd_prime(p)
    g = min(primitive_roots(p))
    gens = [psl2_canon((g, 0, 0, pow(g, -1, p)), p),
            psl2_canon((0, -1, 1, 0), p)]
    sub = _bounded_closure(gens, p, p - 1)
    assert sub is not None and len(sub) == p - 1
    return sub, gens


def psl2_subgroup_scan(p, order_a, order_b, order_ab, size):
    """First subgroup (in deterministic scan order) generated by an
    element of order order_a and one of order order_b whose product has
    order order_ab, of exactly the given size. Both scans stop at their
    first hit, so the elements past it are never built."""
    _need_odd_prime(p)
    a = next((m for m in psl2_elements(p) if psl2_order(m, p) == order_a),
             None)
    if a is None:
        raise ValueError("PSL(2,%d) has no element of order %d"
                         % (p, order_a))
    for b in psl2_elements(p):
        if psl2_order(b, p) != order_b:
            continue
        if psl2_order(psl2_mul(a, b, p), p) != order_ab:
            continue
        sub = _bounded_closure([a, b], p, size)
        if sub is not None:
            return sub, [a, b]
    raise ValueError("no subgroup of size %d found in PSL(2,%d)" % (size, p))


def _bounded_closure(gens, p, cap):
    """The subgroup gens generate, sorted, when it has exactly cap
    elements; None otherwise, found within cap + 1 elements."""
    moves = [lambda x, g=g: psl2_mul(x, g, p) for g in gens]
    order = orbit_walk(PSL2_ID, moves, cap)[0]
    return sorted(order) if len(order) == cap else None


# ---------------------------------------------------------------------------
# Generic transitive action with suborbit decomposition.

@dataclass(frozen=True)
class Suborbit:
    index: int
    points: tuple
    paired: int  # index of the paired suborbit

    @property
    def size(self):
        return len(self.points)

    @property
    def self_paired(self):
        return self.paired == self.index


@dataclass(frozen=True)
class CosetSpace:
    """A transitive action: the graphs.Action of the generators, with
    the suborbits as its partition, the base point's stabilizer
    generators, and the suborbit decomposition."""

    action: Action = field(repr=False, compare=False)
    stab_gens: tuple
    suborbits: tuple

    n = property(lambda self: len(self.action.order))
    base = property(lambda self: self.action.base)
    gens = property(lambda self: self.action.gens)


def action_space(base, gens, stab_gens):
    """Build a CosetSpace on range(n), n the length of the generators:
    suborbits are the orbits of the stabilizer, and the suborbit paired
    with the one holding x = t(base) holds t^-1(base), t the word of the
    action's tree taking base to x. Every generator must be a
    permutation of range(n), the generators must act transitively, and
    the stabilizer generators must fix base."""
    stab_gens = tuple(tuple(g) for g in stab_gens)
    n = len(gens[0])
    check_permutations(stab_gens, n)
    orbits = [tuple(sorted(o)) for o in permutation_orbits(*stab_gens)]
    action = Action(gens, base, orbits)
    if any(g[base] != base for g in stab_gens):
        raise ValueError("a stabilizer generator moves the base point")
    inverses = [sorted(range(n), key=g.__getitem__) for g in action.gens]
    where = {v: i for i, orbit in enumerate(orbits) for v in orbit}
    subs = []
    for i, orbit in enumerate(orbits):
        x, point = base, orbit[0]
        while point != base:  # t^-1 undoes t's moves, last move first
            gi, point = action.tree[point]
            x = inverses[gi][x]
        subs.append(Suborbit(i, orbit, where[x]))
    for s in subs:
        if subs[s.paired].paired != s.index or subs[s.paired].size != s.size:
            raise AssertionError("inconsistent suborbit pairing")
    return CosetSpace(action, stab_gens, tuple(subs))


def orbital_graph(space, union):
    """Graph whose edge set is the orbit of the edges joining the base
    point to the suborbits with the given indices. orbit_graph proves the
    union closed under pairing and under the whole base stabilizer, and
    rejects the trivial suborbit."""
    return orbit_graph(space.action,
                       [v for i in union for v in space.suborbits[i].points])


def suborbit_report(space):
    """Plain-text table of the suborbit decomposition."""
    lines = ["index size self-paired paired-with"]
    for s in space.suborbits:
        lines.append("%d %d %s %d"
                     % (s.index, s.size, "yes" if s.self_paired else "no",
                        s.paired))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Coset spaces of matrix subgroups of PSL(2, p).

def _moebius(m, p):
    """The permutation z -> (za + c)/(zb + d) of the projective line over
    F_p made by the matrix m = (a, b, c, d), with infinity encoded as p.
    It is the action on row vectors, so the map of a product xg is the
    map of x followed by the map of g."""
    a, b, c, d = m
    perm = [p if (z * b + d) % p == 0 else
            (z * a + c) * pow(z * b + d, -1, p) % p for z in range(p)]
    perm.append(p if b % p == 0 else a * pow(b, -1, p) % p)
    return perm


def _on_tuples(perm, k):
    """perm acting on ordered k-tuples of points, the tuple (z1, ..., zk)
    encoded as the number z1 z2 ... zk in base len(perm)."""
    size = len(perm)
    table = perm
    for _ in range(k - 1):
        table = [table[x // size] * size + perm[x % size]
                 for x in range(len(table) * size)]
    return table


def _invariant_sets(perms):
    """(k, O) for two sets O that the group with point permutations perms
    maps onto itself: its smallest orbit on points (k = 1), then its orbit
    on ordered triples through (0, 1, 2) (k = 3), encoded as _on_tuples
    encodes it."""
    size = len(perms[0])
    yield 1, min((frozenset(pi[z] for pi in perms) for z in range(size)),
                 key=len)
    yield 3, frozenset((pi[0] * size + pi[1]) * size + pi[2] for pi in perms)


def _key_search(start, moves):
    """orbit_walk from the key start along moves, each a table of the
    generators on encoded tuples: (index of each key, keys in the order
    found)."""
    keys = orbit_walk(start, [lambda key, m=move.__getitem__:
                              frozenset(map(m, key)) for move in moves])[0]
    return {key: i for i, key in enumerate(keys)}, keys


def psl2_coset_space(p, subgroup, sub_gens):
    """Action of PSL(2,p) on the right cosets of the given subgroup H, by
    right multiplication. Cosets are numbered in breadth-first order from
    H along t = (1,1,0,1) and s = (0,-1,1,0).

    The coset Hx is keyed by O.x, the image of a set O of points, or of
    ordered triples of points, of the projective line that H maps onto
    itself, so the key of (Hx).g is O.x moved by g. The key is one-to-one
    exactly when H is the whole setwise stabilizer of O, that is when the
    search finds |PSL(2,p)|/|H| keys. The smallest H-orbit on points is
    tried first; if it fails, its search stops within half that many keys.
    Then the H-orbit of one ordered triple serves, since only the identity
    fixes three points."""
    sub = [psl2_canon(h, p) for h in subgroup]
    subset = set(sub)
    for h in sub:
        for k in sub_gens:
            if psl2_mul(h, k, p) not in subset:
                raise ValueError("subgroup is not closed under its generators")
    n, rest = divmod(p * (p * p - 1) // 2, len(sub))
    if rest:
        raise ValueError("the subgroup order does not divide |PSL(2,%d)|" % p)
    t = _moebius((1, 1, 0, 1), p)
    s = _moebius((0, -1, 1, 0), p)
    for k, orbit in _invariant_sets([_moebius(h, p) for h in sub]):
        moves = (_on_tuples(t, k), _on_tuples(s, k))
        index, keys = _key_search(orbit, moves)
        if len(keys) == n:
            break
    else:
        raise ValueError("the subgroup is not a group")

    def perm_of(move):
        return tuple(index[frozenset(map(move.__getitem__, key))]
                     for key in keys)

    gens = tuple(map(perm_of, moves))
    stab = tuple(perm_of(_on_tuples(_moebius(h, p), k)) for h in sub_gens)
    return action_space(0, gens, stab)


def alternating_triple_space():
    """The alternating group on 7 letters, generated by the 7-cycle and
    (0 1 2), acting on the 35 unordered 3-subsets; the 7-cycle acts
    (5,7)-semiregularly. Triple 0 is {0, 1, 2};
    its stabilizer, of order 72, is generated by (0 1 2), (3 4 5),
    (4 5 6) and (0 1)(3 4)."""
    triples = list(combinations(range(7), 3))
    idx = {t: i for i, t in enumerate(triples)}

    def induced(images):
        return tuple(idx[tuple(sorted(images[x] for x in t))]
                     for t in triples)

    rot3 = (1, 2, 0, 3, 4, 5, 6)
    rot7 = (1, 2, 3, 4, 5, 6, 0)
    stab = (rot3, (0, 1, 2, 4, 5, 3, 6), (0, 1, 2, 3, 5, 6, 4),
            (1, 0, 2, 4, 3, 5, 6))
    return action_space(0, (induced(rot7), induced(rot3)),
                        tuple(map(induced, stab)))


# ---------------------------------------------------------------------------
# Character model of PSL(2,p) on the cosets of the dihedral subgroup of
# order p-1, the setwise stabilizer of {0, infinity}.  A coset is the
# unordered pair of points of the projective line it maps {0, infinity}
# to, labelled INF ({0, infinity} itself) or by a class of pairs
# (xi, eta) in F x F* under (xi, eta) ~ (1-xi, xi*eta/(xi-1)) for xi not
# in {0, 1}; swapping the two points swaps the class members.

INF = "inf"


def _char_class(xi, eta, p):
    xi %= p
    eta %= p
    if xi in (0, 1):
        return (xi, eta)
    other = ((1 - xi) % p, xi * eta * pow(xi - 1, -1, p) % p)
    return min((xi, eta), other)


def _pair_label(z1, z2, p):
    """Character label of the coset that maps the dihedral subgroup's
    pair {0, infinity} of points of the projective line to {z1, z2},
    infinity encoded as p and z1 < z2: xi = z1/(z1 - z2) and eta = 1/z1,
    which is xi = 0 when z2 is infinity. When z1 is 0 the points swap
    roles: xi = 1 and eta = 1/z2."""
    z1, z2 = min(z1, z2), max(z1, z2)
    if z1 == 0:
        return INF if z2 == p else (1, pow(z2, -1, p))
    if z2 == p:
        return (0, pow(z1, -1, p))
    return _char_class(z1 * pow(z1 - z2, -1, p), pow(z1, -1, p), p)


@dataclass(frozen=True)
class DihedralModel:
    """The dihedral-coset action in character coordinates, with the
    analytic suborbit family and the order-p shift rho, gens[0]."""

    p: int
    space: CosetSpace
    names: dict  # analytic name -> suborbit index
    orbits: dict  # x (canonical) or INF -> tuple of points

    rho = property(lambda self: self.space.gens[0])


def _suborbit_names(p):
    """Analytic suborbit family: name -> set of point labels."""
    h = root_counts(p)
    half = (p + 1) // 2
    # the units e that are squares (sign 1) and nonsquares (sign -1)
    units = {1: [e for e in range(1, p) if h[e]],
             -1: [e for e in range(1, p) if not h[e]]}
    fam = {("trivial",): {INF}}
    for sign in (1, -1):
        fam[("axis", sign)] = {(c, e) for c in (0, 1) for e in units[sign]}
    seen = set()
    for xi in range(2, p):
        if xi in seen:
            continue
        seen.update({xi, (1 - xi) % p})
        pts = lambda sign: {_char_class(xi, e, p) for e in units[sign]}
        if xi == half:
            fam[("half", 1)] = pts(1)
            fam[("half", -1)] = pts(-1)
        elif not h[(pow(xi, -1, p) - 1) % p]:
            fam[("one", xi)] = pts(1) | pts(-1)
        else:
            fam[("split", xi, 1)] = pts(1)
            fam[("split", xi, -1)] = pts(-1)
    return fam


def dihedral_model(p):
    """PSL(2,p) on the cosets of its dihedral subgroup of order p - 1,
    the point of a coset being its pair of points of the projective line,
    numbered in sorted order of their character labels, INF first."""
    if p % 4 != 1 or p < 13 or not is_prime(p):
        raise ValueError("need a prime p = 1 (mod 4), p >= 13")
    pair_of = {_pair_label(z1, z2, p): (z1, z2)
               for z1, z2 in combinations(range(p + 1), 2)}
    labels = sorted(pair_of, key=lambda lab: (lab != INF, lab))
    assert len(labels) == p * (p + 1) // 2
    index = {lab: i for i, lab in enumerate(labels)}
    pairs = [pair_of[lab] for lab in labels]

    def perm_of(m):
        move = _moebius(m, p)
        return tuple(index[_pair_label(move[z1], move[z2], p)]
                     for z1, z2 in pairs)

    g0 = min(primitive_roots(p))
    s = (0, -1, 1, 0)
    rho = perm_of((1, 1, 0, 1))
    space = action_space(0, (rho, perm_of(s)),
                         (perm_of((g0, 0, 0, pow(g0, -1, p))), perm_of(s)))
    names = {}
    by_points = {s_.points: s_.index for s_ in space.suborbits}
    for name, pts in _suborbit_names(p).items():
        key = tuple(sorted(index[lab] for lab in pts))
        if key not in by_points:
            raise AssertionError("analytic suborbit %r is not a "
                                 "stabilizer orbit" % (name,))
        names[name] = by_points[key]
    assert len(names) == len(space.suborbits)
    orbits = {}
    for orbit in map(tuple, permutation_orbits(rho)):
        if 0 in orbit:
            orbits[INF] = orbit
        else:
            x = min(e for lab in orbit if lab != 0
                    for e in [labels[lab][1]] if labels[lab][0] == 0)
            orbits[x] = orbit
    return DihedralModel(p, space, names, orbits)


def dihedral_row_unions(model):
    """All basic self-paired suborbit unions, as (row, xi, indices):
    rows 1-2 full/doubled one-parameter suborbits, rows 3-4 the two
    axis unions, row 5 (resp. 6-7) the doubled (resp. single) halves,
    rows 8-9 single split suborbits."""
    p = model.p
    h = root_counts(p)
    out = []
    for name, i in sorted(model.names.items()):
        kind = name[0]
        if kind == "one":
            xi = name[1]
            row = 1 if h[xi] != h[xi - 1] else 2
            out.append((row, xi, (i,)))
        elif kind == "axis":
            out.append((3 if name[1] == 1 else 4, None, (i,)))
        elif kind == "half" and name[1] == 1:
            j = model.names[("half", -1)]
            if p % 8 == 5:
                out.append((5, (p + 1) // 2, (i, j)))
            else:
                out.append((6, (p + 1) // 2, (i,)))
                out.append((7, (p + 1) // 2, (j,)))
        elif kind == "split" and h[name[1]] == h[name[1] - 1] == 2:
            if name[2] == 1:
                out.append((8, name[1], (i,)))
            else:
                out.append((9, name[1], (i,)))
    # row-2 doubled unions: split pairs with xi and xi-1 both nonsquares
    done = set()
    for name, i in sorted(model.names.items()):
        if name[0] != "split" or name[1] in done:
            continue
        xi = name[1]
        if h[xi] == h[xi - 1] == 0:
            done.add(xi)
            out.append((2, xi, (model.names[("split", xi, 1)],
                                model.names[("split", xi, -1)])))
    return sorted(out)


@dataclass(frozen=True)
class RowData:
    """Analytic quotient-multigraph data for one basic union: the
    number of edges inside the infinity block, from it to each block
    V_x, inside each V_y, and between blocks."""

    row: int
    d_inf: int
    d_inf_x: dict
    d_in: dict
    d_cross: dict


def _eta_solutions(p, xi, y, x, want):
    """Distinct shifts j for an edge from the block-V_y base vertex into
    the block V_x, for the one-parameter suborbit with the given class
    filter (SQUARE, NONSQUARE or None for both)."""
    sols = set()
    for disc in ((x + y) ** 2 - 4 * x * y * xi,
                 (x - y) ** 2 + 4 * x * y * xi):
        for r in sqrt_mod(disc, p):
            den = (y + x + r) % p
            if den == 0:
                continue
            eta = (y - 2 * y * y * pow(den, -1, p)) % p
            if eta == 0:
                continue
            if want is not None and classify(eta, p) != want:
                continue
            sols.add((y - x + r) * pow(2, -1, p) % p)
    return sols


def _axis_solutions(p, y, x, want):
    """Distinct shifts j for the axis unions, from the four closed-form
    branches."""
    sols = set()
    cands = []
    if (x - y) % p:
        cands.append((x * y * pow(x - y, -1, p), y - x))
    if (x + y) % p:
        cands.append((x * y * pow(x + y, -1, p), y))
    cands.append((y * (x + y) * pow(x, -1, p), -x))
    cands.append((y * (x - y) * pow(x, -1, p), 0))
    for eta, j in cands:
        if eta % p and classify(eta, p) == want:
            sols.add(j % p)
    return sols


def dihedral_row_data(model, row, xi=None):
    p = model.p
    h = root_counts(p)
    half = (p - 1) // 2
    xs = sorted(x for x in model.orbits if x != INF)
    if row in (3, 4):
        want = SQUARE if row == 3 else NONSQUARE
        d_inf = half
        d_inf_x = {x: 2 if (h[x] == 2) == (row == 3) else 0 for x in xs}
        d_in = {y: len(_axis_solutions(p, y, y, want)) for y in xs}
        d_cross = {(y, x): len(_axis_solutions(p, y, x, want))
                   for y in xs for x in xs if y < x}
    else:
        want = {1: None, 2: None, 5: None, 6: SQUARE, 7: NONSQUARE,
                8: SQUARE, 9: NONSQUARE}[row]
        d_inf = 0
        if row in (1, 2, 5):
            d_inf_x = {x: 2 if row in (1, 2) else 1 for x in xs}
        else:
            one = 1 if row in (6, 7) else 2
            d_inf_x = {x: one if (h[x] == 2) == (row in (6, 8)) else 0
                       for x in xs}
        d_in = {y: len(_eta_solutions(p, xi, y, y, want)) for y in xs}
        d_cross = {(y, x): len(_eta_solutions(p, xi, y, x, want))
                   for y in xs for x in xs if y < x}
    return RowData(row, d_inf, d_inf_x, d_in, d_cross)


def empirical_row_data(model, row, union):
    """The same quotient data read off the constructed orbital graph."""
    quot = quotient(orbital_graph(model.space, union), model.rho)
    block_of = {}
    for x, orbit in model.orbits.items():
        for v in orbit:
            block_of[v] = x
    bidx = {}
    for a, orbit in enumerate(quot.orbits):
        bidx[block_of[orbit[0]]] = a
    xs = sorted(x for x in model.orbits if x != INF)
    return RowData(
        row,
        quot.d(bidx[INF], bidx[INF]),
        {x: quot.d(bidx[INF], bidx[x]) for x in xs},
        {y: quot.d(bidx[y], bidx[y]) for y in xs},
        {(y, x): quot.d(bidx[y], bidx[x]) for y in xs for x in xs if y < x},
    )


def split_edge_table(p):
    """For every xi with xi and xi-1 squares (or zero), the primitive
    roots t where t^4 +- 2(1-2 xi) t^2 + 1 is a square or zero, and
    those where additionally the corresponding eta values are squares.

    Returns {xi: (plus, plus_good, minus, minus_good)} as frozensets.
    """
    h = root_counts(p)
    roots = sorted(primitive_roots(p))
    table = {}
    for xi in (x for x in range(2, p) if h[x] and h[x - 1]):
        row = []
        for sign in (1, -1):
            disc = lambda t: (pow(t, 4, p) + sign * 2 * (1 - 2 * xi) * t * t
                              + 1) % p
            tset = frozenset(t for t in roots if h[disc(t)])
            good = set()
            for t in tset:
                x = t * t % p
                # both roots; the one root of 0 gives the same den as p
                for r in sqrt_mod(disc(t), p):
                    den = (1 + x + r) % p
                    if den == 0:
                        continue
                    eta = (1 - 2 * pow(den, -1, p)) % p
                    if h[eta] == 2:
                        good.add(t)
            row += [tset, frozenset(good)]
        table[xi] = tuple(row)
    return table


# ---------------------------------------------------------------------------
# Quadric-point model of PSL(2,q^2) on the cosets of PGL(2,q):
# projective points <x> with Q(x) = x1 x2 - x3^2 + theta x4^2 a square.

@dataclass(frozen=True)
class OmegaModel:
    """The action on nonsingular projective points of the quadric, with
    the graphs.Action of generators of the whole group, partitioned by
    half form value with the base, the order-q shift rho = gens[0] and
    its normalizer generators, the suborbit family indexed by the half
    form value, and the rho-block split into inner (x2 = 0) and outer
    blocks."""

    q: int
    p: int
    theta: int
    points: tuple
    suborbits: dict  # lam -> tuple of points (base excluded)
    blocks: tuple
    inner_blocks: tuple
    outer_blocks: tuple
    norm_gens: tuple
    action: Action = field(repr=False, compare=False)

    base = property(lambda self: self.action.base)
    gens = property(lambda self: self.action.gens)  # rho, tau and flip
    rho = property(lambda self: self.action.gens[0])


def _form(x, y, q, theta):
    return (x[1] * y[0] + x[0] * y[1] - 2 * x[2] * y[2]
            + 2 * theta * x[3] * y[3]) % q


def _canon_point(x, q):
    neg = tuple((-c) % q for c in x)
    return min(x, neg)


def hermitian_matrix(g, q, theta):
    """4x4 matrix over F_q for the action of g = (a, b, c, d), the matrix
    [[a, b], [c, d]] in SL(2, q^2), on the quadric. Entries are pairs
    (c, d) standing for c + d*alpha in F_q(alpha), alpha^2 = theta. The
    point x is the Hermitian matrix H(x) = [[x1, x3 + x4 alpha],
    [x3 - x4 alpha, x2]], det H(x) = Q(x), and g acts by H -> g H g*,
    g* the conjugate transpose: row i is the point of g H(e_i) g*."""

    def mul(u, v):
        return ((u[0] * v[0] + theta * u[1] * v[1]) % q,
                (u[0] * v[1] + u[1] * v[0]) % q)

    def times(m, n):
        def entry(i, j):
            (c1, d1), (c2, d2) = mul(m[i][0], n[0][j]), mul(m[i][1], n[1][j])
            return (c1 + c2) % q, (d1 + d2) % q
        return ((entry(0, 0), entry(0, 1)), (entry(1, 0), entry(1, 1)))

    gm = (g[:2], g[2:])
    gstar = tuple(tuple((c, -d % q) for c, d in col) for col in zip(*gm))
    out = []
    for x1, x2, x3, x4 in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                           (0, 0, 0, 1)):
        h = (((x1, 0), (x3, x4)), ((x3, -x4 % q), (x2, 0)))
        y = times(times(gm, h), gstar)
        out.append((y[0][0][0], y[1][1][0]) + y[0][1])
    return tuple(out)


def _apply_matrix(x, m, q):
    return tuple(sum(x[i] * m[i][j] for i in range(4)) % q for j in range(4))


def omega_model(q):
    p = (q * q + 1) // 2
    if q < 5 or not is_prime(q) or not is_prime(p):
        raise ValueError("need an odd prime q >= 5 with (q^2+1)/2 prime")
    # a generator of F_q* is a nonsquare
    theta = min(primitive_roots(q))
    pts = set()
    for x1 in range(q):
        for x2 in range(q):
            for x3 in range(q):
                for x4 in range(q):
                    x = (x1, x2, x3, x4)
                    if (x1 * x2 - x3 * x3 + theta * x4 * x4) % q == 1:
                        pts.add(_canon_point(x, q))
    points = tuple(sorted(pts))
    assert len(points) == p * q
    index = {x: i for i, x in enumerate(points)}
    base = index[(1, 1, 0, 0)]
    vbase = points[base]
    inv2 = pow(2, -1, q)
    suborbits = {}
    for i, x in enumerate(points):
        if i != base:
            lam = _form(x, vbase, q, theta) * inv2 % q
            suborbits.setdefault(min(lam, q - lam), []).append(i)
    suborbits = {lam: tuple(v) for lam, v in suborbits.items()}

    def perm_of(g):
        m = hermitian_matrix(g, q, theta)
        return tuple(index[_canon_point(_apply_matrix(x, m, q), q)]
                     for x in points)

    one, zero, alpha = (1, 0), (0, 0), (0, 1)
    rho = perm_of((one, one, zero, one))
    delta = perm_of((alpha, zero, zero, (0, pow(theta, -1, q))))
    tau = perm_of((one, alpha, zero, one))
    # the upper unitriangular matrices rho and tau generate, with this
    # flip, all of SL(2, q^2)
    flip = perm_of((zero, (q - 1, 0), one, zero))
    blocks = tuple(map(tuple, permutation_orbits(rho)))
    inner = tuple(a for a, blk in enumerate(blocks)
                  if all(points[v][1] == 0 for v in blk))
    outer = tuple(a for a in range(len(blocks)) if a not in inner)
    assert len(inner) == (q + 1) // 2 and len(outer) == q * (q - 1) // 2
    action = Action((rho, tau, flip), base,
                    [(base,)] + [suborbits[lam] for lam in sorted(suborbits)])
    return OmegaModel(q, p, theta, points, suborbits, blocks, inner, outer,
                      (delta, tau, rho), action)


def omega_graph(model, lam):
    """Orbital graph for the suborbit with half form value +-lam."""
    if lam not in model.suborbits:
        raise ValueError("no suborbit with value %r" % (lam,))
    return orbit_graph(model.action, model.suborbits[lam])


@dataclass(frozen=True)
class OmegaBlockStats:
    eps: int
    inner_valency: dict  # d inside each outer block
    cross: dict  # (inner block, outer block) -> d
    outer_singles: int  # outer blocks joined to a fixed one by d = 1
    outer_doubles: int  # ... by d = 2


def omega_block_valencies(model, lam):
    g = omega_graph(model, lam)
    # quot.orbits are model.blocks: both are the cycles of rho in
    # permutation_orbits order
    quot = quotient(g, model.rho)
    inner, outer = model.inner_blocks, model.outer_blocks
    q = model.q
    eps = 2 if q % 8 in (1, 3) else 0
    inner_val = {a: quot.d(a, a) for a in outer}
    cross = {(a, b): quot.d(a, b) for a in inner for b in outer}
    b0 = outer[0]
    singles = sum(1 for b in outer if b != b0 and quot.d(b0, b) == 1)
    doubles = sum(1 for b in outer if b != b0 and quot.d(b0, b) == 2)
    return OmegaBlockStats(eps, inner_val, cross, singles, doubles)
