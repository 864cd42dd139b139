"""Arithmetic modulo an odd prime: squares, square roots, primitive roots,
and the residue-counting identities that drive the quotient analysis."""

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import mul, not_

ZERO = "zero"
SQUARE = "square"
NONSQUARE = "nonsquare"


def is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond 2^31
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """Distinct prime factors of n, increasing."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def classify(a, p):
    """Residue class of a mod p: ZERO, SQUARE or NONSQUARE."""
    a %= p
    if a == 0:
        return ZERO
    return SQUARE if pow(a, (p - 1) // 2, p) == 1 else NONSQUARE


@lru_cache(maxsize=16)
def root_counts(p):
    """The number of square roots of each residue mod p, as bytes of
    length p: 1 at zero, 2 at a nonzero square, 0 at a nonsquare. The
    module's only cache; a single query asks classify instead."""
    h = bytearray(p)
    # x and p - x have one square, so half the residues reach them all
    for x in range(1, p // 2 + 1):
        h[x * x % p] = 2
    h[0] = 1
    return bytes(h)


# bytes.translate tables from root counts to the indicators of S*, N*
_IS_SQUARE = bytes.maketrans(b"\0\1\2", b"\0\0\1")
_IS_NONSQUARE = bytes.maketrans(b"\0\1\2", b"\1\0\0")


def squares(p):
    """The set S* of nonzero squares mod p."""
    return frozenset(compress(range(1, p), root_counts(p)[1:]))


def nonsquares(p):
    """The set N* = F* \\ S*."""
    return frozenset(compress(range(p), map(not_, root_counts(p))))


def sqrt_mod(a, p):
    """Square roots of a mod p, smaller root first.

    Returns (r, p-r) for a nonzero square, (0,) for zero, () for a
    non-square.  Deterministic Tonelli-Shanks.
    """
    a %= p
    if a == 0:
        return (0,)
    if classify(a, p) == NONSQUARE:
        return ()
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = next(k for k in range(2, p) if classify(k, p) == NONSQUARE)
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            i, x = 0, t
            while x != 1:
                x = x * x % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    return (r, p - r) if r <= p - r else (p - r, r)


def sqrt_minus_one(p):
    """The smaller square root of -1 mod p (needs p = 1 mod 4)."""
    roots = sqrt_mod(p - 1, p)
    if not roots:
        raise ValueError("-1 is a non-square mod %d" % p)
    return roots[0]


def primitive_roots(p):
    """All generators of F_p*, as a frozenset."""
    n = p - 1
    qs = prime_factors(n)
    g = next(
        g for g in range(2, p) if all(pow(g, n // q, p) != 1 for q in qs)
    )
    return frozenset(pow(g, k, p) for k in range(1, n) if gcd(k, n) == 1)


@dataclass(frozen=True)
class ResidueIntersections:
    """Cardinalities of the four shifted-residue intersections plus
    |S*+1 cap (-S*)|."""

    s_s_plus: int  # |S* cap S*+1|
    n_n_plus: int  # |N* cap N*+1|
    s_n_plus: int  # |S* cap N*+1|
    s_n_minus: int  # |S* cap N*-1|
    splus_cap_minus_s: int  # |S*+1 cap (-S*)|


def residue_intersections(p):
    h = root_counts(p)
    s, n = h.translate(_IS_SQUARE), h.translate(_IS_NONSQUARE)
    # A+1's indicator is A's rotated one place right, A-1's one place
    # left; x+1 and -x both lie in S* when x and p-1-x do
    return ResidueIntersections(
        s_s_plus=sum(map(mul, s, s[-1:] + s[:-1])),
        n_n_plus=sum(map(mul, n, n[-1:] + n[:-1])),
        s_n_plus=sum(map(mul, s, n[-1:] + n[:-1])),
        s_n_minus=sum(map(mul, s, n[1:] + n[:1])),
        splus_cap_minus_s=sum(map(mul, s, s[::-1])),
    )


def sum_two_squares_count(k, p):
    """Number of ordered pairs (x,y) in F_p^2 with x^2+y^2 = k, k nonzero."""
    k %= p
    if k == 0:
        raise ValueError("k must be nonzero")
    h = root_counts(p)
    # the sum over a of h[a] * h[k - a], h[k - a] listed for a = 0..p-1
    return sum(map(mul, h, h[k::-1] + h[:k:-1]))


def square_witness_set(p):
    """T = {z in F* : 1 + z^2 in S*}."""
    h = root_counts(p)
    return frozenset(z for z in range(1, p) if h[(1 + z * z) % p] == 2)


def triple_square_witness(x, p):
    """One of x, i*x, i*x^2 lying in T = {z : 1+z^2 in S*}; p = 1 mod 8.

    i is the smaller square root of -1.  Existence is guaranteed: if
    1+x^2 and 1-x^2 are both non-squares their product 1+(i x^2)^2 is a
    square.
    """
    if p % 8 != 1:
        raise ValueError("requires p = 1 mod 8")
    x %= p
    if x == 0:
        raise ValueError("x must be nonzero")
    i = sqrt_minus_one(p)
    for z in (x, i * x % p, i * x * x % p):
        if classify(1 + z * z, p) == SQUARE:
            return z
    raise AssertionError("no witness among the three candidates (impossible)")
