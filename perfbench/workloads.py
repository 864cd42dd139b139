"""The benchmark's four workloads.

Each workload is a closed loop: it issues its next call into the program
when the previous one returns. Its inputs are fixed enumerations from the
paper; the seed only permutes the order of the operations. A workload
object is built by `make` (the set-up), runs its operations through
`run(op)`, where `op(fn)` makes one call, and checks the program's
outputs with `check()`, which returns a list of problems.
"""

import contextlib
import importlib.util
import io
import random
import sys
from functools import partial
from itertools import combinations
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BUDGET = 5 * 10 ** 6  # search expansions, as in the acceptance gate

# PSL(2,61) on the cosets of A5: the paper's suborbit sizes
ICOSAHEDRAL_SUBORBITS = {6: 1, 10: 1, 12: 2, 20: 4, 30: 5, 60: 27}

FULL = {
    "survey-255": {"max_order": 255},
    # every endpoint pair of gp(11,2): successful searches and, at
    # n = 5 (mod 6), exhaustive absence proofs, each a quarter or more
    # of the time
    "prism-paths": {"n": 11},
    "large-actions": {"psl2": (61, (2, 3, 5), 60), "omega": 11,
                      "suborbits": ICOSAHEDRAL_SUBORBITS},
    "tables-131": {"qm_cap": 131},
}

# The same code paths at sizes that finish in seconds.
SMALL = {
    "survey-255": {"max_order": 35},
    "prism-paths": {"n": 5},
    "large-actions": {"psl2": (19, (2, 3, 5), 60), "omega": 5,
                      "suborbits": None},
    "tables-131": {"qm_cap": 20},
}


def import_program():
    """The pqham modules, {layer: module}, imported from the checkout."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from pqham import (actions, cli, engine, families, field, graphs,
                       quotients, residues)
    return dict(field=field, residues=residues, graphs=graphs,
                quotients=quotients, families=families, actions=actions,
                engine=engine, cli=cli)


def run_cli(cli, argv):
    """cli.main in-process; (exit status, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


class Survey:
    """`pqham survey --max-order 255`: one op, the whole sweep."""

    def __init__(self, pq, params, rng):
        self.pq = pq
        self.argv = ["survey", "--max-order", str(params["max_order"])]
        self.certs = []
        self.status, self.stdout = None, ""

    def run(self, op):
        op(self.survey)

    def survey(self):
        # record every certificate engine.survey obtains from prove
        engine = self.pq["engine"]
        prove = engine.prove

        def recording(desc, *args, **kwargs):
            cert = prove(desc, *args, **kwargs)
            self.certs.append((desc, cert))
            return cert
        engine.prove = recording
        try:
            self.status, self.stdout = run_cli(self.pq["cli"], self.argv)
        finally:
            engine.prove = prove

    def rows(self):
        out = []
        for line in self.stdout.splitlines()[1:]:
            cells = line.split()
            if len(cells) != 6:
                out.append({"descriptor": line, "status": "unparsed",
                            "order": 0, "valency": 0})
                continue
            out.append({"descriptor": cells[0], "order": int(cells[1]),
                        "valency": int(cells[2]), "status": cells[3]})
        return out

    def check(self):
        if self.status != 0:
            return ["survey exited %r" % self.status]
        rows = self.rows()
        problems = checks.survey_problems(rows)
        certified = {str(d): c for d, c in self.certs}
        for row in rows:
            if row["status"] != "hamiltonian":
                continue
            cert = certified.get(row["descriptor"])
            if cert is None:
                problems.append("%s: no certificate" % row["descriptor"])
            elif (cert.order, cert.valency) != (row["order"], row["valency"]):
                problems.append("%s: certificate of order %d valency %d"
                                % (row["descriptor"], cert.order,
                                   cert.valency))
        for desc, cert in self.certs:
            g, _ = self.pq["engine"].build_instance(desc)
            adjacent = checks.edge_set_adjacency(g.edges())
            problems += ["%s: %s" % (desc, p) for p in
                         checks.cycle_problems(list(cert.cycle), g.n,
                                               adjacent)]
        return problems


class PrismPaths:
    """Hamilton paths between every pair of vertices of gp(n,2), one op
    per pair: successful searches, and at n = 5 (mod 6) exhaustive
    absence proofs for the inadmissible pairs."""

    def __init__(self, pq, params, rng):
        self.pq = pq
        self.n = params["n"]
        self.graph = pq["graphs"].gp(self.n, 2)
        self.pairs = list(combinations(range(2 * self.n), 2))
        rng.shuffle(self.pairs)
        self.paths = {}

    def run(self, op):
        for pair in self.pairs:
            op(partial(self.search, pair))

    def search(self, pair):
        self.paths[pair] = self.pq["graphs"].hamilton_path(
            self.graph, *pair, budget=BUDGET)

    def check(self):
        problems = []
        n = self.n
        adjacent = checks.gp2_adjacency(n)
        admissible = self.pq["graphs"].gp2_path_admissible
        for (x, y), path in sorted(self.paths.items()):
            if admissible(n, x, y) != (path is not None):
                problems.append("gp(%d,2) %d-%d: search %s, closed form %s"
                                % (n, x, y, path is not None,
                                   admissible(n, x, y)))
            if path is not None:
                problems += ["gp(%d,2) %d-%d: %s" % (n, x, y, p) for p in
                             checks.path_problems(path, 2 * n, x, y,
                                                  adjacent)]
        return problems


class LargeActions:
    """One engine.prove per orbital graph of PSL(2,61) on the 1891 cosets
    of A5 (self-paired suborbits and paired unions) and of the 671-point
    quadric action omega(11, lambda)."""

    def __init__(self, pq, params, rng):
        self.pq = pq
        self.params = params
        self.rng = rng
        self.certs = {}

    def run(self, op):
        actions, Descriptor = self.pq["actions"], self.pq["engine"].Descriptor
        p, orders, size = self.params["psl2"]
        sub, gens = actions.psl2_subgroup_scan(p, *orders, size)
        self.space = actions.psl2_coset_space(p, sub, gens)
        self.model = actions.omega_model(self.params["omega"])
        descs = [Descriptor("psl2sub", (p, *orders, size, s.index))
                 for s in self.space.suborbits
                 if s.points != (self.space.base,) and s.index <= s.paired]
        descs += [Descriptor("omega", (self.model.q, lam))
                  for lam in sorted(self.model.suborbits)]
        self.rng.shuffle(descs)
        for desc in descs:
            op(partial(self.prove, desc))

    def prove(self, desc):
        self.certs[desc] = self.pq["engine"].prove(desc, budget=BUDGET)

    def check(self):
        space, model = self.space, self.model
        nontrivial = [s for s in space.suborbits if s.points != (space.base,)]
        problems = checks.suborbit_problems(
            [s.size for s in nontrivial], space.n, self.params["suborbits"])
        problems += checks.suborbit_problems(
            [len(v) for v in model.suborbits.values()], len(model.points))
        transport = checks.coset_transport(space.n, space.base, space.gens)
        if transport is None:
            return problems + ["the coset action is not transitive"]
        for desc, cert in self.certs.items():
            if desc.family == "psl2sub":
                s = space.suborbits[desc.params[-1]]
                union = {s.index, s.paired}
                points = [v for i in union
                          for v in space.suborbits[i].points]
                n = space.n
                adjacent = checks.coset_adjacency(transport, points)
            else:
                lam = desc.params[1]
                points = model.suborbits[lam]
                n = len(model.points)
                adjacent = checks.quadric_adjacency(model.points, model.q,
                                                    model.theta, lam)
            if (cert.order, cert.valency) != (n, len(points)):
                problems.append("%s: order %d valency %d, want %d and %d"
                                % (desc, cert.order, cert.valency, n,
                                   len(points)))
            problems += ["%s: %s" % (desc, p) for p in
                         checks.cycle_problems(list(cert.cycle), n, adjacent)]
        return problems


def published_table():
    """The published exceptional-sequence table with its documented
    exact-arithmetic divergences, from the repository's reference data."""
    path = ROOT / "tests" / "reference_tables.py"
    spec = importlib.util.spec_from_file_location("reference_tables", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.exact_table()


class Tables:
    """`pqham tables --qm-cap 131`: one op, the whole table."""

    def __init__(self, pq, params, rng):
        self.pq = pq
        self.qm_cap = params["qm_cap"]
        self.status, self.stdout = None, ""

    def run(self, op):
        op(self.tables)

    def tables(self):
        self.status, self.stdout = run_cli(
            self.pq["cli"], ["tables", "--qm-cap", str(self.qm_cap)])

    def check(self):
        if self.status != 0:
            return ["tables exited %r" % self.status]
        return checks.table_problems(checks.parse_table(self.stdout),
                                     published_table(), self.qm_cap)


WORKLOADS = {"survey-255": Survey, "prism-paths": PrismPaths,
             "large-actions": LargeActions, "tables-131": Tables}


def make(name, pq, seed, small=False):
    """Set up a workload: its inputs, in the order the seed gives."""
    params = (SMALL if small else FULL)[name]
    return WORKLOADS[name](pq, params, random.Random(seed))
