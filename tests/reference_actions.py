"""Frozen reference data for the coset-action module.

PUB_EDGE_TABLE_37 / PUB_EDGE_TABLE_61 are the published primitive-root
edge tables for the split-suborbit graphs (entries given as +-v pairs).
The p=61 table as published omits +-30 from the xi=13 "good plus" cell:
the discriminant tau^4 + 2(1-2 xi) tau^2 + 1 vanishes at tau = +-30, the
unique eta = 36 = 6^2 is a square, and the corresponding quotient edge
exists with multiplicity 1 (the analogous degenerate entry tau = +-2 is
included in the same published cell, so the omission is an inconsistency,
documented here and asserted in the tests).  EDGE_TABLE_61_FIXUPS maps
(xi, column) -> values to add to the published cell to obtain the
re-derived table.

SYMBOL_13 is the 7x7 symbol of the split-suborbit graph of order 91
relative to a (7,13)-semiregular automorphism.  The published matrix has
a one-cell misprint: cell (4,5) reads {5} (and (5,4) reads {8}) where the
true graph needs {2} (resp. {11}); as printed the derived graph is not
even vertex-transitive.  SYMBOL_13 carries the corrected cell and
SYMBOL_13_MISPRINT records the printed variant.

enumerate_psl2_coset_space builds the PSL(2,p) coset action by listing
every coset in full, the way the library did before it keyed cosets by
point sets of the projective line; the two must agree point for point.
"""

from pqham.actions import PSL2_ID, action_space, psl2_canon, psl2_mul


def enumerate_psl2_coset_space(p, subgroup, sub_gens):
    """Action of PSL(2,p) on the right cosets of subgroup by right
    multiplication, cosets numbered in breadth-first order along
    t = (1,1,0,1) and s = (0,-1,1,0) and labelled by their least
    canonical matrix."""
    sub = [psl2_canon(h, p) for h in subgroup]
    t = psl2_canon((1, 1, 0, 1), p)
    s = psl2_canon((0, -1, 1, 0), p)
    assign = {}
    reps = []
    queue = [PSL2_ID]
    while queue:
        x = queue.pop(0)
        if x in assign:
            continue
        coset = sorted(psl2_mul(h, x, p) for h in sub)
        i = len(reps)
        reps.append(coset[0])
        for y in coset:
            assign[y] = i
        for g in (t, s):
            y = psl2_mul(coset[0], g, p)
            if y not in assign:
                queue.append(y)
    n = len(reps)
    assert n * len(sub) == p * (p * p - 1) // 2

    def perm_of(g):
        return tuple(assign[psl2_mul(reps[u], g, p)] for u in range(n))

    return action_space(0, (perm_of(t), perm_of(s)),
                        tuple(perm_of(h) for h in sub_gens))


def _pm(p, *vals):
    return frozenset(x % p for v in vals for x in (v, -v))


def _rows(p, rows):
    return {xi: tuple(_pm(p, *cell) for cell in cells)
            for xi, cells in rows.items()}


# columns: T+, good T+, T-, good T-
PUB_EDGE_TABLE_37 = _rows(37, {
    4:  ((13, 17), (13, 17), (2, 13, 17, 18), (2, 18)),
    10: ((5, 15), (), (2, 18), ()),
    11: ((2, 13, 17, 18), (13, 17), (2, 5, 15, 18), (5, 15)),
    12: ((), (), (2, 5, 15, 18), (2, 18)),
    26: ((2, 5, 15, 18), (2, 18), (), ()),
    27: ((2, 5, 15, 18), (5, 15), (2, 13, 17, 18), (13, 17)),
    28: ((2, 18), (), (5, 15), ()),
    34: ((2, 13, 17, 18), (2, 18), (13, 17), (13, 17)),
})

PUB_EDGE_TABLE_61 = _rows(61, {
    4:  ((2, 6, 10, 30), (6, 10), (2, 30), ()),
    5:  ((6, 7, 10, 17, 18, 26), (6, 7, 10, 26), (), ()),
    13: ((2, 6, 7, 10, 17, 18, 26, 30), (2, 7, 17, 18, 26),
         (2, 6, 10, 30), ()),
    14: ((2, 7, 26, 30), (2, 31), (7, 17, 18, 26), ()),
    15: ((7, 26), (), (2, 17, 18, 30), (2, 30)),
    16: ((2, 6, 10, 30), (6, 10), (6, 10, 17, 18), ()),
    20: ((6, 10, 17, 18), (6, 10, 17, 18), (17, 18), (17, 18)),
    42: ((17, 18), (17, 18), (6, 10, 17, 18), (6, 10, 17, 18)),
    46: ((6, 10, 17, 18), (), (2, 6, 10, 30), (6, 10)),
    47: ((2, 17, 18, 30), (2, 30), (7, 26), ()),
    48: ((7, 17, 18, 26), (), (2, 7, 26, 30), (2, 30)),
    49: ((2, 6, 10, 30), (), (2, 6, 7, 10, 17, 18, 26, 30),
         (2, 7, 17, 18, 26, 30)),
    57: ((), (), (6, 7, 10, 17, 18, 26), (6, 7, 10, 26)),
    58: ((2, 30), (), (2, 6, 10, 30), (6, 10)),
})

# (xi, column index) -> extra values the re-derived table contains
EDGE_TABLE_61_FIXUPS = {(13, 1): _pm(61, 30)}

SYMBOL_13 = (
    ((), (0, 2), (6, 12), (1, 9), (), (), ()),
    ((0, 11), (2, 11), (), (), (0, 3), (), ()),
    ((1, 7), (), (6, 7), (), (), (0, 4), ()),
    ((4, 12), (), (), (5, 8), (), (), (7, 8)),
    ((), (0, 10), (), (), (3, 10), (2,), (10,)),
    ((), (), (0, 9), (), (11,), (4, 9), (8,)),
    ((), (), (), (5, 6), (3,), (5,), (1, 12)),
)

SYMBOL_13_MISPRINT = {(4, 5): (5,), (5, 4): (8,)}
