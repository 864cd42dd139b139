"""Published reference data for the exceptional-sequence tables and the
even-quartic exception sets, plus the provable divergences of the exact
re-derivation from the published values.

The published table was produced with floating-point threshold solving;
five rows are inconsistent with the table's own construction rule, which
exact integer arithmetic makes checkable:

* three rows are off by one at the threshold (the published value is the
  largest failing integer rather than the first value from which the
  inequality always holds; sibling rows use the latter convention);
* two rows use a non-minimal split, so their published bounds (37400 and
  36145) and prime lists are conservative: the extra published primes
  verifiably satisfy the split inequality with s=6, t=5*7*q5.

The quartic reference set omits (5,0): f(b)=b^4+1 equals 2 at every unit
mod 5 because b^4=1, and 2 is a non-square mod 5, so k=0 is a genuine
exception at p=5.

bisect_bound finds a split's threshold bound by bisection below an
explicit ceiling, independently of the closed form that
residues.bound_for_split uses.
"""

from pqham.residues import eq_k_holds


def bisect_bound(s, t_primes, ceiling):
    """Smallest integer k such that the threshold inequality holds for
    every integer x >= k, found by bisection on [1, ceiling]; None if it
    fails at the ceiling (so also if it never holds)."""
    if not eq_k_holds(s, t_primes, ceiling):
        return None
    # invariant: fails at lo (at x = 1 the right side is infinite) and
    # holds at hi, so the largest failing x is in [lo, hi)
    lo, hi = 1, ceiling
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if eq_k_holds(s, t_primes, mid):
            hi = mid
        else:
            lo = mid
    return lo + 1


# sequence -> (bound k, split type, primes <= k, filtered primes)
PUBLISHED_TABLE = {
    (2,): (55, "3", (3, 5, 17), (5,)),
    (2, 3, 5, 11): (2458, "1", (331, 661, 991, 1321), (661, 1321)),
    (2, 3, 5, 43): (1622, "1", (1291,), ()),
    (2, 3, 7, 17): (1372, "1", (), ()),
    (2, 3, 5, 7, 13): (7040, "t=455", (2731,), ()),
    (2, 3, 43): (460, "1", (), ()),
    (2, 3, 31): (496, "1", (373,), ()),
    (2, 3, 61): (435, "1", (367,), ()),
    (2, 3, 5, 7, 23): (5145, "t=805", (4831,), ()),
    (2, 3, 23): (547, "1", (139, 277), (277,)),
    (2, 3, 67): (430, "1", (), ()),
    (2, 3, 7, 13): (1517, "1", (547, 1093), (1093,)),
    (2, 3, 17): (632, "1", (103, 307, 409, 613), (613,)),
    (2, 3, 5, 13): (2238, "1", (1171, 1951), ()),
    (2, 3, 11): (788, "2", (67, 199, 397, 727), (397,)),
    (2, 7): (99, "2", (29,), ()),
    (2, 3, 13): (739, "2", (79, 157, 313), (157, 313)),
    (2, 3, 7): (1023, "2", (43, 127, 337, 379, 673, 757, 883, 1009), (673, 757)),
    (2, 23): (65, "2", (47,), ()),
    (2, 3, 5, 37): (1656, "1", (), ()),
    (2, 5): (133, "2", (11, 41, 101), ()),
    (2, 3, 5, 41): (1632, "1", (1231,), ()),
    (2, 3, 59): (437, "1", (), ()),
    (2, 3, 53): (444, "1", (), ()),
    (2, 3, 7, 19): (1327, "1", (), ()),
    (2, 3, 5, 29): (1727, "1", (), ()),
    (2, 17): (69, "2", (), ()),
    (2, 11): (78, "2", (23,), ()),
    (2, 3, 5, 19): (1921, "1", (571,), ()),
    (2, 3, 41): (464, "1", (), ()),
    (2, 3, 5, 7, 11): (8160, "t=385", (2311, 4621), (4621,)),
    (2, 3, 5): (
        1432, "2",
        (31, 61, 151, 181, 241, 271, 541, 601, 751, 811, 1201),
        (61, 541, 1201),
    ),
    (2, 3, 5, 47): (1604, "1", (), ()),
    (2, 3, 5, 31): (1705, "1", (), ()),
    (2, 3, 7, 23): (1265, "1", (967,), ()),
    (2, 5, 17): (180, "1", (), ()),
    (2, 3, 11, 13): (1130, "1", (859,), ()),
    (2, 13): (74, "2", (53,), ()),
    (2, 5, 11): (218, "1", (), ()),
    (2, 5, 13): (200, "1", (131,), ()),
    (2, 3, 37): (475, "1", (223,), ()),
    (2, 3, 5, 7): (3649, "1", (211, 421, 631, 1051, 1471, 2521, 3361), (421,)),
    (2, 3, 5, 7, 19): (36145, "1", (11971, 35911), ()),
    (2, 3): (384, "2", (7, 13, 19, 37, 73, 97, 109, 163, 193), (13, 37, 73, 193)),
    (2, 5, 7): (315, "1", (71, 281), ()),
    (2, 3, 5, 23): (1819, "1", (691, 1381), (1381,)),
    (2, 3, 47): (453, "1", (283,), ()),
    (2, 3, 5, 7, 17): (37400, "1", (3571, 10711, 14281, 17851), ()),
    (2, 3, 29): (506, "1", (349,), ()),
    (2, 3, 7, 11): (1646, "1", (463,), ()),
    (2, 3, 5, 17): (1995, "1", (1021, 1531), ()),
    (2, 29): (63, "2", (59,), ()),
    (2, 3, 19): (596, "1", (229, 457), (457,)),
    (2, 19): (68, "2", (), ()),
}

# sequence -> (exact bound, exact split type, exact primes, exact filtered)
# for the five rows where the exact re-derivation differs; all other rows
# must match PUBLISHED_TABLE bit for bit.
EXACT_DIVERGENCES = {
    (2,): (56, "3", (3, 5, 17), (5,)),
    (2, 3, 5, 7, 11): (8161, "t=385", (2311, 4621), (4621,)),
    (2, 3, 5, 7, 23): (5146, "t=805", (4831,), ()),
    (2, 3, 5, 7, 17): (5905, "t=595", (3571,), ()),
    (2, 3, 5, 7, 19): (5580, "t=665", (), ()),
}


def exact_table():
    """PUBLISHED_TABLE with the five exact divergences applied."""
    out = dict(PUBLISHED_TABLE)
    out.update(EXACT_DIVERGENCES)
    return out


QUARTIC_PRIMES = (
    5, 13, 37, 61, 73, 157, 193, 277, 313, 397, 421, 457, 541,
    613, 661, 673, 757, 1093, 1201, 1321, 1381, 4621,
)

# published exception sets; (5,0) is a provable omission, see module doc
PUBLISHED_QUARTIC_EXCEPTIONS = {
    5: {4},
    13: {1, 4, 5, 6, 7, 10},
    37: {3, 28, 29},
    61: {18, 37, 40},
}

EXACT_QUARTIC_EXCEPTIONS = {
    5: {0, 4},
    13: {1, 4, 5, 6, 7, 10},
    37: {3, 28, 29},
    61: {18, 37, 40},
}

XI_WITNESSES = {(13, 1): 10, (37, 28): 12, (61, 18): 57}
XI_BAR_WITNESSES = {(13, 1): 4, (37, 28): 26, (61, 18): 5}
