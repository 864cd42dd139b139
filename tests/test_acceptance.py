"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with -s to see the lines.
"""

import time
from collections import Counter
from itertools import combinations

from pqham.actions import (
    dihedral_model,
    dihedral_row_data,
    dihedral_row_unions,
    empirical_row_data,
    omega_block_valencies,
    omega_graph,
    omega_model,
    orbital_graph,
    psl2_coset_space,
    psl2_subgroup_scan,
    split_edge_table,
)
from pqham.engine import (
    Descriptor,
    NotHamiltonianException,
    build_instance,
    dihedral_union_labels,
    prove,
    survey,
    verify,
)
from pqham.field import (
    is_prime,
    nonsquares,
    residue_intersections,
    sqrt_minus_one,
    square_witness_set,
    squares,
    sum_two_squares_count,
)
from pqham.graphs import (
    gp,
    gp2_path_admissible,
    gp_is_hamiltonian,
    hamilton_cycle,
    hamilton_path,
)
from pqham.quotients import quotient
from pqham.residues import exceptional_table, exceptional_xi, quartic_exceptions
from reference_actions import (
    EDGE_TABLE_61_FIXUPS,
    PUB_EDGE_TABLE_37,
    PUB_EDGE_TABLE_61,
)
from reference_tables import (
    EXACT_QUARTIC_EXCEPTIONS,
    QUARTIC_PRIMES,
    XI_BAR_WITNESSES,
    XI_WITNESSES,
    exact_table,
)


def report(num, ok, detail, elapsed, limit):
    line = "criterion %d: %s (%s; %.1fs < %ds)" % (
        num, "PASS" if ok else "FAIL", detail, elapsed, limit)
    print(line)
    assert ok and elapsed < limit, line


def test_criterion_01_sequence_bound_table():
    t0 = time.time()
    want = exact_table()
    got = {r.sequence: (r.bound_k, r.split_type, r.primes, r.filtered_primes)
           for r in exceptional_table(131)}
    ok = got == want and len(got) == 54
    report(1, ok, "exceptional_table(131): %d/54 rows bit-exact"
           % sum(got.get(s) == want[s] for s in want), time.time() - t0, 300)


def test_criterion_02_quartic_exception_sets():
    t0 = time.time()
    ok = all(quartic_exceptions(p) == EXACT_QUARTIC_EXCEPTIONS.get(p, set())
             for p in QUARTIC_PRIMES)
    ok = ok and len(QUARTIC_PRIMES) == 22
    ok = ok and all(exceptional_xi(p, k) == xi
                    for (p, k), xi in XI_WITNESSES.items())
    ok = ok and all(exceptional_xi(p, k, conjugate=True) == xi
                    for (p, k), xi in XI_BAR_WITNESSES.items())
    report(2, ok, "22 exception sets exact, xi witnesses 10/12/57 and 4/26/5",
           time.time() - t0, 60)


def test_criterion_03_residue_propositions_to_1e4():
    t0 = time.time()
    ok = True
    checked = 0
    for p in range(3, 10 ** 4, 2):
        if not is_prime(p):
            continue
        checked += 1
        ri = residue_intersections(p)
        if p % 4 == 1:
            ok = ok and ri.s_s_plus == (p - 5) // 4
            ok = ok and ri.n_n_plus == (p - 1) // 4
            ok = ok and ri.s_n_plus == (p - 1) // 4
            ok = ok and ri.s_n_minus == (p - 1) // 4
            ok = ok and ri.splus_cap_minus_s == (p - 5) // 4
        else:
            ok = ok and ri.splus_cap_minus_s == (p + 1) // 4
        want = p - 1 if p % 4 == 1 else p + 1
        for k in (1, 2, 3):
            if k % p:
                ok = ok and sum_two_squares_count(k, p) == want
        if p % 4 == 1 and p >= 13:
            sq, nsq = squares(p), nonsquares(p)
            a = sq & {(x + 1) % p for x in sq}
            b = sq & {(x - 1) % p for x in sq}
            ok = ok and len(a | b) >= len(a) + 2
            a = sq & {(x + 1) % p for x in nsq}
            b = sq & {(x - 1) % p for x in nsq}
            ok = ok and len(a | b) >= len(a) + 2
        if p % 8 == 1:
            tset = square_witness_set(p)
            i = sqrt_minus_one(p)
            ok = ok and all(x in tset or i * x % p in tset
                            or i * x * x % p in tset for x in range(1, p))
        if not ok:
            break
    report(3, ok, "closed forms + two-squares counts + union growth + "
           "triple witnesses for %d odd primes" % checked,
           time.time() - t0, 120)


def test_criterion_04_dihedral_cosets_13():
    t0 = time.time()
    m = dihedral_model(13)
    info = {name: (m.space.suborbits[i].size, m.space.suborbits[i].self_paired)
            for name, i in m.names.items()}
    twelves = [n for n, (sz, sp) in info.items() if sz == 12]
    ok = len(twelves) == 5 and all(info[n][1] for n in twelves)
    ok = ok and info[("split", 4, 1)] == (6, True) \
        and info[("split", 4, -1)] == (6, True)
    ok = ok and info[("split", 6, 1)] == (6, False) \
        and info[("split", 6, -1)] == (6, False)
    ok = ok and info[("half", 1)] == (3, False) \
        and info[("half", -1)] == (3, False)
    certified = 0
    for label in sorted(dihedral_union_labels(m)):
        desc = Descriptor("dihedral", (13, label))
        cert = prove(desc)
        g, _ = build_instance(desc)
        if cert.order == 91 and verify(g, cert):
            certified += 1
    ok = ok and certified == 9
    report(4, ok, "suborbit structure exact, %d/9 basic unions certified "
           "at order 91" % certified, time.time() - t0, 30)


def test_criterion_05_dihedral_quotient_data():
    t0 = time.time()
    ok = True
    rows = 0
    for p in (13, 37, 61, 73):
        m = dihedral_model(p)
        for row, xi, union in dihedral_row_unions(m):
            rows += 1
            ok = ok and dihedral_row_data(m, row, xi) == \
                empirical_row_data(m, row, union)
    diffs = []
    got37 = split_edge_table(37)
    for xi, cells in PUB_EDGE_TABLE_37.items():
        for c in range(4):
            if got37[xi][c] != cells[c]:
                diffs.append((37, xi, c))
    got61 = split_edge_table(61)
    fix = {}
    for xi, cells in PUB_EDGE_TABLE_61.items():
        for c in range(4):
            if got61[xi][c] != cells[c]:
                fix[(xi, c)] = got61[xi][c] - cells[c]
    ok = ok and not diffs and fix == EDGE_TABLE_61_FIXUPS
    report(5, ok, "analytic==empirical for %d row unions (p=13,37,61,73); "
           "edge tables entry-wise exact, 1 known one-cell divergence at "
           "p=61 reported: %s" % (rows, sorted(fix)),
           time.time() - t0, 120)


def test_criterion_06_quadric_model_q5():
    t0 = time.time()
    m = omega_model(5)
    ok = len(m.points) == 65
    ok = ok and {lam: len(s) for lam, s in m.suborbits.items()} == \
        {0: 10, 1: 24, 2: 30}
    sizes = sorted(len(o) for o in _group_orbits(m.norm_gens, 65))
    ok = ok and sizes == [5, 5, 5, 50]
    ok = ok and len(m.inner_blocks) == 3 and len(m.outer_blocks) == 10
    st = omega_block_valencies(m, 0)
    ok = ok and set(st.cross.values()) == {1} and st.outer_singles == 3 \
        and st.outer_doubles == 2
    for lam in (1, 2):
        st = omega_block_valencies(m, lam)
        ok = ok and set(st.cross.values()) == {2} \
            and set(st.inner_valency.values()) == {2}
    certified = 0
    for lam in (0, 1, 2):
        desc = Descriptor("omega", (5, lam))
        cert = prove(desc)
        if cert.order == 65 and verify(omega_graph(m, lam), cert):
            certified += 1
    ok = ok and certified == 3
    report(6, ok, "65 points, suborbit sizes 10/24/30, orbit and block "
           "structure verified, %d/3 graphs certified" % certified,
           time.time() - t0, 60)


def _group_orbits(perms, n):
    seen = [False] * n
    out = []
    for v in range(n):
        if seen[v]:
            continue
        orb = {v}
        stack = [v]
        seen[v] = True
        while stack:
            x = stack.pop()
            for perm in perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = True
                    orb.add(y)
                    stack.append(y)
        out.append(orb)
    return out


def test_criterion_07_prism_consistency():
    t0 = time.time()
    ok = True
    pairs = 0
    for n in range(3, 15):
        for k in range(1, n):
            g = gp(n, k, collapse=True)
            got = hamilton_cycle(g, budget=5 * 10 ** 6) is not None
            ok = ok and got == gp_is_hamiltonian(n, k)
    for n in range(7, 15):
        g = gp(n, 2)
        for x, y in combinations(range(2 * n), 2):
            adm = gp2_path_admissible(n, x, y)
            found = hamilton_path(g, x, y, budget=2 * 10 ** 6) is not None
            ok = ok and adm == found
    for n in range(15, 21):
        g = gp(n, 2)
        for x, y in combinations(range(2 * n), 2):
            if gp2_path_admissible(n, x, y):
                pairs += 1
                ok = ok and hamilton_path(g, x, y,
                                          budget=5 * 10 ** 6) is not None
    report(7, ok, "criterion agrees with search for n<=14; admissible "
           "implies found for n<=20 (%d extra pairs)" % pairs,
           time.time() - t0, 300)


def test_criterion_08_small_case_certificates():
    t0 = time.time()
    ok = True
    for desc in (Descriptor("triple", (4,)),
                 Descriptor("psl2sub", (13, 2, 3, 3, 12, 8)),
                 Descriptor("psl2sub", (13, 2, 3, 3, 12, 9)),
                 Descriptor("fermat", _fermat53())):
        cert = prove(desc)
        g, _ = build_instance(desc)
        ok = ok and verify(g, cert)
    ok = ok and hamilton_cycle(gp(5, 2), budget=10 ** 6) is None
    try:
        prove(Descriptor("gp", (5, 2)))
        ok = False
    except NotHamiltonianException:
        pass
    report(8, ok, "orders 35/91/91/15 certified; Petersen flagged by a "
           "completed exhaustive search", time.time() - t0, 120)


def _fermat53():
    from pqham.families import FermatSpec
    return (FermatSpec(5, 3, frozenset(), frozenset({1})),)


def test_criterion_09_icosahedral_cosets_61():
    t0 = time.time()
    sub, gens = psl2_subgroup_scan(61, 2, 3, 5, 60)
    sp = psl2_coset_space(61, sub, gens)
    ok = sp.n == 1891
    sizes = Counter(s.size for s in sp.suborbits if s.size > 1)
    ok = ok and dict(sizes) == {6: 1, 10: 1, 12: 2, 20: 4, 30: 5, 60: 27}
    six = next(s for s in sp.suborbits if s.size == 6)
    desc = Descriptor("psl2sub", (61, 2, 3, 5, 60, six.index))
    cert = prove(desc)
    g = orbital_graph(sp, (six.index,))
    ok = ok and cert.strategy == "quotient-lift" and verify(g, cert)
    q = quotient(g, list(sp.gens[0]))
    ok = ok and (q.m, q.n) == (31, 61)
    report(9, ok, "1891 points, suborbit multiset exact, valency-6 graph "
           "certified by an order-61 quotient lift", time.time() - t0, 600)


def test_criterion_10_survey_to_255():
    t0 = time.time()
    rows = survey(255)
    exceptions = [r for r in rows if r.status == "exception"]
    ham = [r for r in rows if r.status == "hamiltonian"]
    ok = len(rows) >= 20 and len(exceptions) == 1 \
        and exceptions[0].order == 10 \
        and len(ham) == len(rows) - 1
    report(10, ok, "%d instances: %d certified hamiltonian, 1 exception of "
           "order 10" % (len(rows), len(ham)), time.time() - t0, 900)
