"""Tests of the benchmark itself: every workload runs at a small size,
traced counts repeat exactly, the benchmark's own adjacency tests agree
with the program's graphs, and every correctness check rejects a
corrupted output.

    python3 -m pytest -q perfbench/check_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import round as bench_round  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PQ = workloads.import_program()


def finished(name, seed=1):
    """A small workload after its run, its check passing."""
    w = workloads.make(name, PQ, seed, small=True)
    w.run(lambda fn: fn())
    assert w.check() == []
    return w


def swapped(cycle, i=1, j=3):
    out = list(cycle)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_round_is_correct_and_counts_repeat(name):
    plain = bench_round.run_round(name, 1, small=True)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= 1
    traced = [bench_round.run_round(name, seed, small=True, trace=True)
              for seed in (1, 2)]
    assert all(t["correct"] for t in traced)
    layer = [t["per_layer"] for t in traced]
    assert set(layer[0]) == set(spans.PER_LAYER) - {"trace.overhead_s"}
    counts = [{m: v for m, v in pl.items() if spans.PER_LAYER[m] != "s"}
              for pl in layer]
    assert counts[0] == counts[1]


def test_round_subprocess_prints_one_json_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "round.py"), "--workload", "tables-131",
         "--seed", "4", "--small"], capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["setup_s"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey-255",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_adjacency_tests_match_the_program_graphs():
    g = PQ["graphs"].gp(8, 2)
    adjacent = checks.gp2_adjacency(8)
    assert all(adjacent(u, v) == g.has_edge(u, v)
               for u, v in combinations(range(g.n), 2))
    actions = PQ["actions"]
    space = actions.psl2_coset_space(
        19, *actions.psl2_subgroup_scan(19, 2, 3, 5, 60))
    transport = checks.coset_transport(space.n, space.base, space.gens)
    for s in space.suborbits[1:]:
        union = [s.index, s.paired]
        g = actions.orbital_graph(space, union)
        points = [v for i in set(union) for v in space.suborbits[i].points]
        adjacent = checks.coset_adjacency(transport, points)
        assert all(adjacent(u, v) == g.has_edge(u, v)
                   for u, v in combinations(range(g.n), 2))
    model = actions.omega_model(5)
    for lam in model.suborbits:
        g = actions.omega_graph(model, lam)
        adjacent = checks.quadric_adjacency(model.points, 5, model.theta, lam)
        assert all(adjacent(u, v) == g.has_edge(u, v)
                   for u, v in combinations(range(g.n), 2))


def test_survey_check_rejects_corruption():
    w = finished("survey-255")
    desc, cert = w.certs[-1]
    w.certs[-1] = (desc, dataclasses.replace(cert, cycle=swapped(cert.cycle)))
    assert any("non-edge" in p for p in w.check())
    w = finished("survey-255")
    w.stdout = w.stdout.replace("exception", "hamiltonian")
    assert any("non-hamiltonian" in p for p in w.check())
    w = finished("survey-255")
    w.certs = w.certs[1:]
    assert any("no certificate" in p for p in w.check())


def test_prism_check_rejects_corruption():
    w = finished("prism-paths")
    pair = next(p for p, path in sorted(w.paths.items()) if path)
    w.paths[pair] = list(swapped(w.paths[pair]))
    assert any("non-edge" in p for p in w.check())
    w = finished("prism-paths")
    w.paths[pair] = None
    assert any("closed form" in p for p in w.check())


def test_large_action_check_rejects_corruption():
    w = finished("large-actions")
    for desc in w.certs:
        w = finished("large-actions")
        cert = w.certs[desc]
        w.certs[desc] = dataclasses.replace(cert, cycle=swapped(cert.cycle))
        assert any("non-edge" in p for p in w.check())
    assert checks.suborbit_problems([6, 10, 12], 29) == []
    assert checks.suborbit_problems([6, 10, 12], 30) != []
    assert checks.suborbit_problems([6, 10, 12], 29, {6: 1, 10: 1, 12: 2})


def test_table_check_rejects_corruption():
    w = finished("tables-131")
    rows = checks.parse_table(w.stdout)
    seq = max(rows)
    k, typ, primes, filtered = rows[seq]
    for shift in (1, -1):
        bad = (k + shift, typ, primes, filtered)
        shifted = {**rows, seq: bad}
        # against the published table, and on its own arithmetic alone
        assert checks.table_problems(shifted, rows, w.qm_cap)
        assert any("switch on" in p for p in
                   checks.table_problems(shifted, shifted, w.qm_cap))
    seq = next(s for s, r in sorted(rows.items()) if r[2])
    k, typ, primes, filtered = rows[seq]
    dropped = {**rows, seq: (k, typ, primes[1:], filtered)}
    assert any("primes" in p for p in
               checks.table_problems(dropped, dropped, w.qm_cap))
    missing = {s: r for s, r in rows.items() if s != seq}
    assert checks.table_problems(missing, workloads.published_table(),
                                 w.qm_cap)
