import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference_field as ref
from pqham import field
from pqham.field import (
    NONSQUARE,
    SQUARE,
    ZERO,
    classify,
    is_prime,
    prime_factors,
    primitive_roots,
    residue_intersections,
    sqrt_minus_one,
    sqrt_mod,
    square_witness_set,
    squares,
    nonsquares,
    sum_two_squares_count,
    triple_square_witness,
)

PRIMES_SMALL = [p for p in range(3, 200) if is_prime(p)]

odd_primes = st.sampled_from(PRIMES_SMALL)


def test_is_prime_basics():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


def test_prime_factors():
    assert prime_factors(2592) == [2, 3]
    assert prime_factors(60) == [2, 3, 5]
    assert prime_factors(97) == [97]


def test_classify_examples():
    assert classify(-1, 13) == SQUARE
    assert classify(2, 7) == SQUARE
    assert classify(0, 5) == ZERO
    assert classify(2, 5) == NONSQUARE


def test_minus_one_rule():
    # -1 is a square exactly when p = 1 mod 4
    for p in PRIMES_SMALL:
        assert (classify(-1, p) == SQUARE) == (p % 4 == 1)


def test_two_rule():
    # 2 is a square exactly when p = 1,7 mod 8
    for p in PRIMES_SMALL:
        assert (classify(2, p) == SQUARE) == (p % 8 in (1, 7))


@given(odd_primes, st.integers(1, 10**6), st.integers(1, 10**6))
def test_classify_multiplicative(p, a, b):
    a, b = a % p, b % p
    if a == 0 or b == 0:
        return
    same = classify(a, p) == classify(b, p)
    assert (classify(a * b, p) == SQUARE) == same


@given(odd_primes)
def test_square_class_sizes(p):
    assert len(squares(p)) == (p - 1) // 2
    assert len(nonsquares(p)) == (p - 1) // 2


def test_squares_equal_the_full_range_set():
    for p in [2] + PRIMES_SMALL:
        assert squares(p) == frozenset(x * x % p for x in range(1, p)), p


def test_sqrt_mod_examples():
    assert sqrt_mod(12, 13) == (5, 8)
    assert sqrt_mod(0, 7) == (0,)
    assert sqrt_mod(2, 5) == ()


@given(odd_primes, st.integers(0, 10**6))
def test_sqrt_mod_roundtrip(p, a):
    roots = sqrt_mod(a, p)
    if classify(a, p) == NONSQUARE:
        assert roots == ()
    else:
        assert roots
        for r in roots:
            assert r * r % p == a % p
        assert list(roots) == sorted(roots)


def test_sqrt_minus_one():
    i = sqrt_minus_one(13)
    assert i * i % 13 == 12
    assert i <= 13 - i
    with pytest.raises(ValueError):
        sqrt_minus_one(7)


def test_primitive_roots_examples():
    assert primitive_roots(37) == frozenset(
        {2, 5, 13, 15, 17, 18, 19, 20, 22, 24, 32, 35})
    want61 = set()
    for a in (2, 6, 7, 10, 17, 18, 26, 30):
        want61 |= {a, 61 - a}
    assert primitive_roots(61) == frozenset(want61)
    assert primitive_roots(5) == frozenset({2, 3})


@given(odd_primes)
def test_primitive_roots_generate(p):
    for g in primitive_roots(p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1


def test_residue_intersections_closed_forms():
    for p in PRIMES_SMALL:
        ri = residue_intersections(p)
        if p % 4 == 1:
            assert ri.splus_cap_minus_s == (p - 5) // 4
            assert ri.s_s_plus == (p - 5) // 4
            assert ri.n_n_plus == (p - 1) // 4
            assert ri.s_n_plus == (p - 1) // 4
            assert ri.s_n_minus == (p - 1) // 4
        else:
            assert ri.splus_cap_minus_s == (p + 1) // 4


def test_sum_two_squares_examples():
    assert sum_two_squares_count(1, 13) == 12
    assert sum_two_squares_count(1, 7) == 8
    assert sum_two_squares_count(1, 5) == 4
    with pytest.raises(ValueError):
        sum_two_squares_count(0, 13)


@given(odd_primes, st.integers(1, 10**6))
def test_sum_two_squares_closed_form(p, k):
    if k % p == 0:
        return
    want = p - 1 if p % 4 == 1 else p + 1
    assert sum_two_squares_count(k, p) == want


def test_sum_two_squares_matches_brute_force():
    for p, k in [(13, 1), (13, 5), (7, 3), (11, 10)]:
        brute = sum(
            1 for x in range(p) for y in range(p) if (x * x + y * y - k) % p == 0
        )
        assert sum_two_squares_count(k, p) == brute


def test_ab_union_growth():
    # |A u B| >= |A| + 2 for both square/square and square/nonsquare shifts.
    # Needs three consecutive elements square, square, nonsquare, which first
    # happens at p = 13; p = 5 is a genuine (vacuous-context) exception.
    for p in [p for p in PRIMES_SMALL if p % 4 == 1 and p >= 13]:
        sq, nsq = squares(p), nonsquares(p)
        sq1 = {(x + 1) % p for x in sq}
        sqm = {(x - 1) % p for x in sq}
        a, b = sq & sq1, sq & sqm
        assert len(a | b) >= len(a) + 2
        ns1 = {(x + 1) % p for x in nsq}
        nsm = {(x - 1) % p for x in nsq}
        a, b = sq & ns1, sq & nsm
        assert len(a | b) >= len(a) + 2


def test_triple_square_witness():
    assert triple_square_witness(1, 17) == 1
    sq = squares(17)
    i = sqrt_minus_one(17)  # smaller root, 4
    assert i == 4
    w = triple_square_witness(4, 17)
    assert w in {4, i * 4 % 17, i * 16 % 17}
    assert (1 + w * w) % 17 in sq
    with pytest.raises(ValueError):
        triple_square_witness(1, 13)
    with pytest.raises(ValueError):
        triple_square_witness(0, 17)


def test_triple_square_witness_all_x():
    for p in [p for p in PRIMES_SMALL if p % 8 == 1]:
        t = square_witness_set(p)
        for x in range(1, p):
            assert triple_square_witness(x, p) in t


def test_counts_match_set_and_loop_oracles_below_1000():
    for p in range(3, 1000, 2):
        if not is_prime(p):
            continue
        assert squares(p) == ref.squares(p), p
        assert nonsquares(p) == ref.nonsquares(p), p
        assert (astuple(residue_intersections(p))
                == astuple(ref.residue_intersections(p))), p
        want = ref.two_squares_counts(p)
        assert [sum_two_squares_count(k, p) for k in range(1, p)] == want[1:], p
        assert square_witness_set(p) == ref.square_witness_set(p), p


RETAINED = """
import gc, sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from pqham.field import is_prime, nonsquares, residue_intersections, squares
primes = [p for p in range(3, 10 ** 4, 2) if is_prime(p)][:150]
tracemalloc.start()
for p in primes:
    squares(p), nonsquares(p), residue_intersections(p)
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_residue_questions_retain_bounded_memory():
    # a fresh interpreter, so that no earlier test has filled a cache; the
    # 150 primes run up to 877, and a set of each prime's squares kept
    # alive would retain megabytes
    src = str(Path(field.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", RETAINED, src],
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 256_000
