import hashlib
import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from pqham import residues
from pqham.field import is_prime
from pqham.residues import (
    _is_exceptional,
    _k_of,
    alpha1_holds,
    bound_for_split,
    c_fn,
    corollary1_holds,
    d_fn,
    eq_k_holds,
    exceptional_table,
    exceptional_xi,
    find_split,
    is_exceptional,
    k_of,
    primitive_square_witness,
    quartic_exceptions,
    render_table,
)
from reference_tables import (
    EXACT_DIVERGENCES,
    EXACT_QUARTIC_EXCEPTIONS,
    PUBLISHED_TABLE,
    QUARTIC_PRIMES,
    XI_BAR_WITNESSES,
    XI_WITNESSES,
    bisect_bound,
    exact_table,
)


def test_d_fn_examples():
    assert d_fn(2, 2, (2, 3)) == Fraction(4, 3)
    assert d_fn(1, 1, (2,)) == 1
    assert d_fn(3, 3, (2, 3, 5)) == Fraction(8, 5)
    with pytest.raises(IndexError):
        d_fn(2, 3, (2, 3))


def test_c_fn_examples():
    assert c_fn(4, 1, 1, (2,)) == pytest.approx(8 / 2**0.5)
    assert c_fn(4, 2, 2, (2, 3)) == pytest.approx(8 * (2 / 3) ** 0.5)
    assert c_fn(1, 1, 1, (2,)) == pytest.approx(2 / 2**0.5)


def test_k_of_examples():
    assert k_of((2, 3)) == 2
    assert k_of((2, 3, 5, 7, 11)) == 3
    assert k_of((2,)) == 2


def test_k_of_consistent_with_d():
    rnd = random.Random(7)
    pool = [q for q in range(3, 200) if is_prime(q)]
    for _ in range(200):
        seq = (2,) + tuple(sorted(rnd.sample(pool, rnd.randint(0, 8))))
        m, k = len(seq), k_of(seq)
        assert 2 <= k <= m + 1
        if k - 1 <= m:
            assert d_fn(k - 1, m, seq) <= 1
        if k <= m:
            assert d_fn(k, m, seq) > 1


def test_k_of_and_is_exceptional_reject_bad_sequences():
    for bad in [(), (3, 5), (2, 2, 3), (2, 5, 3), (2, 9)]:
        with pytest.raises(ValueError):
            k_of(bad)
        with pytest.raises(ValueError):
            is_exceptional(bad)


def _reference_shapes(cap):
    # every shape of the four families, unpruned, built independently of
    # the table's pruned walk
    pool = [q for q in range(3, cap) if is_prime(q)]
    seen = set()
    for start, lengths in (((2,), range(5)), ((2, 3), range(6)),
                           ((2, 5), range(6)), ((2, 3, 5), (6,))):
        if start[-1] >= cap:
            continue
        rest = [q for q in pool if q > start[-1]]
        for r in lengths:
            for tail in itertools.combinations(rest, r):
                seen.add(start + tail)
    return sorted(seen)


def _live_reference_shapes(cap):
    return [seq for seq in _reference_shapes(cap)
            if len(seq) <= 2 * _k_of(seq) + 1]


def test_unchecked_k_of_matches_exact_d():
    # k is the unique k >= 2 with d(k-1,m) <= 1 < d(k,m), d(m+1,m) = 2;
    # the unpruned shapes keep the sequences with small k
    for seq in _reference_shapes(40):
        m = len(seq)
        ks = [k for k in range(2, m + 2)
              if d_fn(k - 1, m, seq) <= 1 and (k > m or d_fn(k, m, seq) > 1)]
        assert ks == [_k_of(seq)], seq


def test_split_with_empty_t_never_holds():
    for seq in _reference_shapes(60):
        radical = prod(seq)
        assert not alpha1_holds(radical, (), radical), seq


def test_raising_last_prime_keeps_non_exceptional():
    rnd = random.Random(19)
    pool = [q for q in range(3, 300) if is_prime(q)]
    checked = 0
    while checked < 100:
        seq = (2,) + tuple(sorted(rnd.sample(pool, rnd.randint(0, 6))))
        if is_exceptional(seq):
            continue
        checked += 1
        for q in pool:
            if q > seq[-1]:
                assert not is_exceptional(seq[:-1] + (q,)), (seq, q)


def test_exceptional_table_matches_brute_force():
    # the walk's two cuts are exact: each cap's rows are the exceptional
    # live shapes below it; a live shape below cap is one below 61 whose
    # last prime is below cap
    live = [seq for seq in _live_reference_shapes(61) if _is_exceptional(seq)]
    for cap in range(2, 61):
        want = [seq for seq in live if seq[-1] < cap]
        assert [r.sequence for r in exceptional_table(cap)] == want, cap


def test_incremental_is_exceptional_matches_every_split():
    for seq in _reference_shapes(60):
        radical = prod(seq)
        want = not any(alpha1_holds(prod(seq[:n]), seq[n:], radical)
                       for n in range(len(seq) + 1))
        assert _is_exceptional(seq) == want, seq


def test_table_walk_makes_6815_exceptionality_checks(monkeypatch):
    # a deterministic count of the work: one check per live shape until
    # the first non-exceptional last prime after each prefix
    calls = []
    check = residues._is_exceptional
    monkeypatch.setattr(residues, "_is_exceptional",
                        lambda seq: calls.append(seq) or check(seq))
    assert len(exceptional_table(131)) == 54
    assert len(calls) == len(set(calls)) == 6815


def test_tail_sequences_dominate_radical_term():
    # when m >= 2k(m)+2, d(k+1,m) exceeds 1 + c_4(k+1,m)
    rnd = random.Random(11)
    pool = [q for q in range(3, 300) if is_prime(q)]
    found = 0
    while found < 50:
        m = rnd.randint(4, 12)
        seq = (2,) + tuple(sorted(rnd.sample(pool, m - 1)))
        k = k_of(seq)
        if m < 2 * k + 2 or k + 1 > m:
            continue
        found += 1
        assert float(d_fn(k + 1, m, seq)) - c_fn(4, k + 1, m, seq) > 1


def test_corollary1_examples():
    assert corollary1_holds(2, 3, 2593)
    assert not corollary1_holds(2, 5, 11)
    assert not corollary1_holds(6, 1, 13)
    with pytest.raises(ValueError):
        corollary1_holds(6, 3, 13)  # not coprime
    with pytest.raises(ValueError):
        corollary1_holds(2, 7, 13)  # wrong prime support


def test_find_split_examples():
    assert find_split(11) is None
    assert find_split(1009) is None
    assert find_split(2593) == (2, 3)


def test_exact_threshold_brackets():
    # the returned bound holds and its predecessor fails
    for s, tp, want in [(2, (), 56), (2, (3,), 384), (6, (5, 7, 13), 7040)]:
        k = bound_for_split(s, tp)
        assert k == want
        assert eq_k_holds(s, tp, k)
        assert not eq_k_holds(s, tp, k - 1)


# far above any bound tested: below 10^50 for t of at most 8 primes
# under 200 and s below 10^6
BISECTION_CEILING = 10 ** 60


def _check_bound(s, tp):
    got = bound_for_split(s, tp)
    assert got == bisect_bound(s, tp, BISECTION_CEILING), (s, tp)
    # a bound exists exactly when 2phi(t) > t
    assert (got is None) == (2 * prod(q - 1 for q in tp) <= prod(tp)), (s, tp)


def test_bound_for_split_matches_bisection_on_table_splits():
    for r in exceptional_table(60):
        seq = r.sequence
        for n in range(len(seq) + 1):
            _check_bound(prod(seq[:n]), seq[n:])


def test_bound_for_split_matches_bisection_on_random_splits():
    rnd = random.Random(23)
    pool = [q for q in range(2, 200) if is_prime(q)]
    for _ in range(400):
        tp = tuple(sorted(rnd.sample(pool, rnd.randint(0, 8))))
        _check_bound(rnd.randint(1, 10 ** 6), tp)


def test_is_exceptional():
    assert is_exceptional((2,))
    assert is_exceptional((2, 3, 5, 7, 13))
    assert not is_exceptional((2, 127))
    assert not is_exceptional((2, 3, 5, 7, 29))


def test_table_matches_reference(table131):
    got = {r.sequence: r for r in table131}
    want = exact_table()
    assert set(got) == set(want)
    for seq, (k, ty, primes, filtered) in want.items():
        r = got[seq]
        assert (r.bound_k, r.split_type, r.primes, r.filtered_primes) == (
            k, ty, primes, filtered), seq


def test_table_divergences_are_harmless(table131):
    got = {r.sequence: r for r in table131}
    for seq, (pk, pty, pprimes, _) in PUBLISHED_TABLE.items():
        r = got[seq]
        if seq not in EXACT_DIVERGENCES:
            assert r.bound_k == pk and r.split_type == pty
            continue
        if r.split_type == pty:
            # rounding row: same split, bound one higher, same primes
            assert r.bound_k == pk + 1
            assert r.primes == pprimes
        else:
            # non-minimal published split: our bound is strictly better and
            # every published prime above it admits a valid split
            assert r.bound_k < pk
            for p in pprimes:
                if p > r.bound_k:
                    assert find_split(p) is not None, p


def test_find_split_complements_table(table131):
    exceptional = set()
    for r in table131:
        exceptional.update(r.primes)
    for p in range(7, 5000):
        if not is_prime(p):
            continue
        if p in exceptional:
            assert find_split(p) is None, p
        else:
            assert find_split(p) is not None, p


def test_render_table(table131):
    text = render_table(table131)
    csv = render_table(table131, fmt="csv")
    assert len(text.splitlines()) == 55
    assert csv.splitlines()[0].startswith("sequence;k;type")
    row2 = [l for l in csv.splitlines() if l.startswith("2;")]
    assert row2 == ["2;56;3;3,5,17;5"]


def test_render_table_pinned(table131):
    # md5 of `pqham tables --qm-cap 131` stdout, text and csv
    digests = [hashlib.md5((render_table(table131, fmt) + "\n").encode())
               .hexdigest() for fmt in ("text", "csv")]
    assert digests == ["41060ef0ba9cf217a32f655a79e2d353",
                       "753c6d0d338504b9f6fe17c9e5486c1b"]


def test_primitive_square_witness_examples():
    assert primitive_square_witness(1, 1, 1, 13) is None
    assert primitive_square_witness(1, 2, 1, 13) == 2
    assert primitive_square_witness(1, 4, 1, 5) is None
    with pytest.raises(ValueError):
        primitive_square_witness(1, 1, 0, 13)


def test_quartic_exceptions():
    for p in QUARTIC_PRIMES:
        assert quartic_exceptions(p) == EXACT_QUARTIC_EXCEPTIONS.get(p, set()), p


def test_xi_witnesses():
    all_exceptions = [
        (p, k) for p, ks in EXACT_QUARTIC_EXCEPTIONS.items() for k in ks
    ]
    for (p, k) in all_exceptions:
        xi = exceptional_xi(p, k)
        xibar = exceptional_xi(p, k, conjugate=True)
        assert xi == XI_WITNESSES.get((p, k)), (p, k)
        assert xibar == XI_BAR_WITNESSES.get((p, k)), (p, k)
    for (p, k), xi in XI_WITNESSES.items():
        assert (2 * (1 - 2 * xi)) % p == k % p
    for (p, k), xi in XI_BAR_WITNESSES.items():
        assert (-2 * (1 - 2 * xi)) % p == k % p
