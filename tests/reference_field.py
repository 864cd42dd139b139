"""Set and loop oracles for the whole-field residue counts in
pqham.field: each count is taken from explicit Python sets of residues,
or by looping over every x, and shares no code with the package.

two_squares_counts runs the loop "for x, add 1 where k - x^2 is zero and
2 where it is a nonzero square" for every k at once, so the every-k
comparison costs one pass over the pairs (x, square) per prime.
"""

from collections import Counter
from dataclasses import dataclass


def squares(p):
    """The set S* of nonzero squares mod p."""
    return frozenset(x * x % p for x in range(1, p))


def nonsquares(p):
    sq = squares(p)
    return frozenset(x for x in range(1, p) if x not in sq)


@dataclass(frozen=True)
class Intersections:
    s_s_plus: int  # |S* cap S*+1|
    n_n_plus: int  # |N* cap N*+1|
    s_n_plus: int  # |S* cap N*+1|
    s_n_minus: int  # |S* cap N*-1|
    splus_cap_minus_s: int  # |S*+1 cap (-S*)|


def residue_intersections(p):
    sq = squares(p)
    nsq = nonsquares(p)
    sq1 = {(x + 1) % p for x in sq}
    ns1 = {(x + 1) % p for x in nsq}
    nm1 = {(x - 1) % p for x in nsq}
    minus_s = {(-x) % p for x in sq}
    return Intersections(
        s_s_plus=len(sq & sq1),
        n_n_plus=len(nsq & ns1),
        s_n_plus=len(sq & ns1),
        s_n_minus=len(sq & nm1),
        splus_cap_minus_s=len(sq1 & minus_s),
    )


def two_squares_counts(p):
    """[N(0), ..., N(p-1)], N(k) the number of pairs (x, y) in F_p^2 with
    x^2 + y^2 = k."""
    sq = squares(p)
    xx = [x * x % p for x in range(p)]
    # y = 0 reaches k = x^2 once; a nonzero square t = y^2 twice
    zero = Counter(xx)
    nonzero = Counter((a + t) % p for a in xx for t in sq)
    return [zero[k] + 2 * nonzero[k] for k in range(p)]


def square_witness_set(p):
    """T = {z in F* : 1 + z^2 in S*}."""
    sq = squares(p)
    return frozenset(z for z in range(1, p) if (1 + z * z) % p in sq)
