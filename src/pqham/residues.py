"""Prime-sequence inequality machinery: the d/c/k sequence functions, the
coprime-split inequalities, the exceptional-sequence table with its bounds,
and the even-quartic primitive-root exception sets."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

from .field import is_prime, prime_factors, primitive_roots, root_counts


def _check_sequence(seq):
    seq = tuple(seq)
    if not seq or seq[0] != 2 or list(seq) != sorted(set(seq)):
        raise ValueError("need strictly increasing primes starting at 2: %r" % (seq,))
    for q in seq:
        if not is_prime(q):
            raise ValueError("not prime: %d" % q)
    return seq


def d_fn(n, m, seq):
    """2 * prod_{j=n..m} (1 - 1/q_j), exact."""
    seq = _check_sequence(seq)
    if not 1 <= n <= m <= len(seq):
        raise IndexError("need 1 <= n <= m <= %d" % len(seq))
    out = Fraction(2)
    for q in seq[n - 1 : m]:
        out *= Fraction(q - 1, q)
    return out


def c_fn(r, n, m, seq):
    """2r * sqrt(q_1...q_{n-1} / (q_n...q_m))."""
    seq = _check_sequence(seq)
    if not 1 <= n <= m <= len(seq):
        raise IndexError("need 1 <= n <= m <= %d" % len(seq))
    num = prod(seq[: n - 1])
    den = prod(seq[n - 1 : m])
    return 2 * r * (num / den) ** 0.5


def k_of(seq):
    """The unique k >= 2 with d(k-1,m) <= 1 < d(k,m)."""
    return _k_of(_check_sequence(seq))


def _k_of(seq):
    # d(k,m) grows with k and d(m+1,m) = 2, so walk j down from m keeping
    # prod_{i=j..m} (q_i - 1) / q_i as a / b: the first j with
    # d(j,m) = 2a/b <= 1 gives k = j + 1; q_1 = 2 makes j = 1 always stop
    a = b = 1
    for j in range(len(seq), 0, -1):
        q = seq[j - 1]
        a *= q - 1
        b *= q
        if 2 * a <= b:
            return j + 1


def _ineq_holds(a, b, c, d, x):
    # a/b > 1 + c*sqrt(x)/(x-1) + d/(x-1), exactly, for integer x >= 2
    lhs = (a - b) * (x - 1) - b * d
    return lhs > 0 and lhs * lhs > b * b * c * c * x


def eq_k_holds(s, t_primes, x):
    """The threshold inequality 2*phi(t)/t > 1 + 2(2s-1)*sqrt(x)/(x-1)
    + (4s+2)/(x-1) at integer x, with t squarefree of the given primes."""
    a = 2 * prod(q - 1 for q in t_primes)
    b = prod(t_primes)
    return _ineq_holds(a, b, 4 * s - 2, 4 * s + 2, x)


def alpha1_holds(s, t_primes, radical):
    """The split inequality with sqrt(st+1)/st, i.e. the threshold
    inequality evaluated at x = radical + 1."""
    return eq_k_holds(s, t_primes, radical + 1)


def corollary1_holds(s, t, p):
    """2*phi(t)/t > 1 + (4s-2)sqrt(p)/(p-1) + (4s+2)/(p-1) for a valid
    coprime split s,t of the prime support of p-1."""
    if gcd(s, t) != 1:
        raise ValueError("s and t must be coprime")
    if set(prime_factors(s * t)) != set(prime_factors(p - 1)):
        raise ValueError("prime support of s*t must equal that of p-1")
    return eq_k_holds(s, prime_factors(t), p)


def find_split(p):
    """A split s = q_1...q_n, t = q_{n+1}...q_m of the prime support of
    p-1 satisfying corollary1_holds, or None."""
    seq = prime_factors(p - 1)
    for n in range(len(seq) + 1):
        if eq_k_holds(prod(seq[:n]), seq[n:], p):
            return prod(seq[:n]), prod(seq[n:])
    return None


def bound_for_split(s, t_primes):
    """Smallest integer k such that the threshold inequality holds for
    every integer x >= k, or None if it never holds."""
    a = 2 * prod(q - 1 for q in t_primes)
    b = prod(t_primes)
    c, d, r = 4 * s - 2, 4 * s + 2, a - b
    if r <= 0:
        return None
    # with u = r + b*d it holds iff r*x - u > 0 and (r*x - u)^2 > b^2 c^2 x,
    # i.e. iff x lies above the larger root of r^2 x^2 - B x + u^2, which
    # is at least the vertex B / 2r^2 >= u / r; round it, then step to k
    u = r + b * d
    B = 2 * r * u + b * b * c * c
    k = (B + isqrt(B * B - 4 * r * r * u * u)) // (2 * r * r)
    while not _ineq_holds(a, b, c, d, k):
        k += 1
    while _ineq_holds(a, b, c, d, k - 1):
        k -= 1
    return k


TYPE_LAST_TWO = "1"
TYPE_LAST_ONE = "2"
TYPE_EMPTY = "3"


@dataclass(frozen=True)
class BoundRecord:
    sequence: tuple
    bound_k: int
    split_s: int
    split_t: int
    primes: tuple
    filtered_primes: tuple  # p = 1 mod 4 with (p+1)/2 prime

    @property
    def split_type(self):
        m = len(self.sequence)
        last = prod(self.sequence[m - 1 :])
        last_two = prod(self.sequence[m - 2 :]) if m >= 2 else None
        if self.split_t == 1:
            return TYPE_EMPTY
        if self.split_t == last:
            return TYPE_LAST_ONE
        if self.split_t == last_two:
            return TYPE_LAST_TWO
        return "t=%d" % self.split_t


def is_exceptional(seq):
    """True when no prefix split satisfies the radical-form inequality."""
    return _is_exceptional(_check_sequence(seq))


def _is_exceptional(seq):
    # the split with t empty never holds, so start from t = (q_m,) and move
    # the split point down, growing 2phi(t) as a and t as b; it stops
    # before t = seq, whose 2 makes 2phi(t) <= t
    x = prod(seq) + 1
    s, a, b = x - 1, 2, 1
    for q in reversed(seq[1:]):
        s //= q
        a *= q - 1
        b *= q
        if _ineq_holds(a, b, 4 * s - 2, 4 * s + 2, x):
            return False
    return True


def _exceptional_sequences(qm_cap):
    """The exceptional sequences with q_m < qm_cap, sorted, among the
    strictly increasing prime sequences starting at 2 that satisfy
    m <= 2k(m)+1: the threshold index analysis caps the shapes at m<=5
    (any tail), m<=7 starting 2,3 or 2,5, and m=9 starting 2,3,5."""
    pool = [q for q in range(3, qm_cap) if is_prime(q)]
    found = []

    def extend(seq, rest, i, m):
        # False when no larger last prime of seq can give a row: when the
        # smallest completion seq + rest[i:...] fails m <= 2k(m)+1, since
        # raising any q_j raises every d(j,m) and so can only lower k(m);
        # and when a complete seq is not exceptional, since its split has
        # q_m in t (t empty never holds), a larger q_m raises 2phi(t)/t and
        # x = radical+1, both right-hand terms fall in x, and it still holds
        low = seq + tuple(rest[i:i + m - len(seq)])
        if len(low) < m or m > 2 * _k_of(low) + 1:
            return False
        if len(seq) < m:
            for j in range(i, len(rest)):
                if not extend(seq + (rest[j],), rest, j + 1, m):
                    break
        elif _is_exceptional(seq):
            found.append(seq)
        else:
            return False
        return True

    # each shape once: the (2,) family already holds every length <= 5
    for start, lengths in (((2,), range(1, 6)), ((2, 3), (6, 7)),
                           ((2, 5), (6, 7)), ((2, 3, 5), (9,))):
        if start[-1] >= qm_cap:
            continue
        rest = [q for q in pool if q > start[-1]]
        for m in lengths:
            extend(start, rest, 0, m)
    return sorted(found)


def _primes_with_radical(seq, bound):
    """Primes p <= bound with prime support of p-1 exactly seq."""
    out = []

    def rec(i, acc):
        if i == len(seq):
            p = acc + 1
            if p <= bound and is_prime(p):
                out.append(p)
            return
        q = seq[i]
        acc *= q
        while acc + 1 <= bound:
            rec(i + 1, acc)
            acc *= q

    rec(0, 1)
    return tuple(sorted(out))


def exceptional_table(qm_cap=131):
    """The exceptional sequences with their threshold bounds, winning
    split, and qualifying prime lists; sorted by sequence."""
    records = []
    for seq in _exceptional_sequences(qm_cap):
        # some split has 2phi(t) > t and so a bound: t = (q_m,) when m >= 2,
        # t empty for (2,); ties prefer the shorter t
        k, _, s, t = min(
            (k, -n, prod(seq[:n]), prod(seq[n:]))
            for n in range(len(seq) + 1)
            if (k := bound_for_split(prod(seq[:n]), seq[n:])) is not None)
        primes = _primes_with_radical(seq, k)
        filtered = tuple(
            p for p in primes if p % 4 == 1 and is_prime((p + 1) // 2)
        )
        records.append(BoundRecord(seq, k, s, t, primes, filtered))
    return records


def render_table(records, fmt="text"):
    """Aligned text or semicolon-csv rendering of the bound records."""
    rows = [
        (
            ",".join(str(q) for q in r.sequence),
            str(r.bound_k),
            r.split_type,
            ",".join(str(p) for p in r.primes) or "no",
            ",".join(str(p) for p in r.filtered_primes) or "no",
        )
        for r in records
    ]
    header = ("sequence", "k", "type", "p<=k", "p=1(4), (p+1)/2 prime")
    if fmt == "csv":
        return "\n".join(";".join(row) for row in [header] + rows)
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(5)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in [header] + rows]
    return "\n".join(lines)


def primitive_square_witness(c4, c2, c0, p):
    """Smallest primitive root b with c4*b^4 + c2*b^2 + c0 a square or
    zero mod p; None if there is none."""
    if c0 % p == 0:
        raise ValueError("constant term must be nonzero")
    h = root_counts(p)
    for b in sorted(primitive_roots(p)):
        if h[(c4 * b**4 + c2 * b**2 + c0) % p]:
            return b
    return None


def quartic_exceptions(p):
    """All k for which b^4 + k*b^2 + 1 is a non-square at every
    primitive root b."""
    h = root_counts(p)
    pows = [(b * b % p, pow(b, 4, p)) for b in primitive_roots(p)]
    return {k for k in range(p)
            if not any(h[(b4 + k * b2 + 1) % p] for b2, b4 in pows)}


def exceptional_xi(p, k, conjugate=False):
    """The element xi with k = 2(1-2*xi) (or k = -2(1-2*xi) when
    conjugate) provided xi lands in S* cap S*+1; None otherwise."""
    inv4 = pow(4, p - 2, p)
    xi = (2 - k) * inv4 % p if not conjugate else (2 + k) * inv4 % p
    h = root_counts(p)
    if h[xi] == h[xi - 1] == 2:
        return xi
    return None
