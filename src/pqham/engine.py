"""Hamiltonicity certification: per-family graph construction, a
two-rung proof (quotient-cycle lifting, then budgeted direct search),
verifiable certificates, valency arithmetic for the two
sporadic actions, and a survey driver."""

import hashlib
import io
import time
from bisect import bisect_right
from csv import writer as csv_writer
from dataclasses import dataclass
from functools import lru_cache

from .actions import (
    alternating_triple_space,
    dihedral_model,
    dihedral_row_unions,
    omega_model,
    psl2_coset_space,
    psl2_subgroup_scan,
)
from .families import (
    FermatSpec,
    MetacirculantSpec,
    fermat_graph,
    metacirculant,
)
from .field import is_prime
from .graphs import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    gp,
    hamilton_cycle,
    hamilton_path,
    orbit_graph,
    verify_hamilton_cycle,
)
from .quotients import lift_closed_walk, quotient


class _Uncertified(Exception):
    """prove ended without a certificate; carries the order and valency
    of the graph it built."""

    def __init__(self, message, g):
        super().__init__(message)
        self.order, self.valency = g.n, g.valency()


class NotHamiltonianException(_Uncertified):
    """Raised when a completed exhaustive search proves that the graph has
    no Hamilton cycle."""


class ProofFailure(_Uncertified):
    """No strategy produced a certificate within the budget."""


@dataclass(frozen=True)
class Certificate:
    order: int
    valency: int
    fingerprint: str
    cycle: tuple
    strategy: str
    trace: tuple  # of "key=value" strings


def graph_fingerprint(g):
    h = hashlib.sha256()
    h.update(("%d;%d;" % (g.n, g.edge_count)).encode())
    names = [str(v) for v in range(g.n)]
    for u, row in enumerate(g.adjacency):
        later = row[bisect_right(row, u):]
        if later:
            pre = names[u] + ","
            h.update((pre + (";" + pre).join([names[v] for v in later])
                      + ";").encode())
    return h.hexdigest()[:16]


def verify(g, cert):
    """True iff the certificate belongs to g and its cycle is a Hamilton
    cycle; checked independently of the search code."""
    return cert.fingerprint == graph_fingerprint(g) and _cycle_fits(g, cert)


def _cycle_fits(g, cert):
    """The checks of verify that do not hash g."""
    if cert.order != g.n or cert.valency != g.valency():
        return False
    return verify_hamilton_cycle(g, cert.cycle)


def format_certificate(cert):
    lines = ["order=%d" % cert.order, "valency=%d" % cert.valency,
             "fingerprint=%s" % cert.fingerprint,
             "strategy=%s" % cert.strategy]
    lines += list(cert.trace)
    lines.append("cycle=%s" % ",".join(map(str, cert.cycle)))
    return "\n".join(lines) + "\n"


def parse_certificate(text):
    kv = {}
    trace = []
    fields = ("order", "valency", "fingerprint", "strategy", "cycle")
    for line in text.splitlines():
        k, _, v = line.partition("=")
        if k in fields:
            kv[k] = v
        else:
            trace.append(line)
    missing = [k for k in fields if k not in kv]
    if missing:
        raise ValueError("certificate lacks %s" % ", ".join(missing))

    def integer(key, text):
        try:
            return int(text)
        except ValueError:
            raise ValueError("certificate %s holds %r, not an integer"
                             % (key, text)) from None
    return Certificate(integer("order", kv["order"]),
                       integer("valency", kv["valency"]), kv["fingerprint"],
                       tuple(integer("cycle", x)
                             for x in kv["cycle"].split(",")),
                       kv["strategy"], tuple(trace))


# ---------------------------------------------------------------------------
# descriptors


@dataclass(frozen=True)
class Descriptor:
    """A constructible instance: family tag plus its parameters."""
    family: str
    params: tuple

    def __str__(self):
        def show(p):
            if isinstance(p, MetacirculantSpec):
                return "m=%d,n=%d,alpha=%d" % (p.m, p.n, p.alpha)
            if isinstance(p, FermatSpec):
                return "p=%d,q=%d" % (p.p, p.q)
            return str(p)
        return "%s(%s)" % (self.family, ",".join(show(p) for p in self.params))


def dihedral_union_labels(model):
    """Printable label for each basic self-paired union, e.g. S2, S4+,
    axis+; returns {label: (row, xi, union)}."""
    out = {}
    for row, xi, union in dihedral_row_unions(model):
        if row in (1, 2):
            label = "S%d" % xi
        elif row == 3:
            label = "axis+"
        elif row == 4:
            label = "axis-"
        elif row == 5:
            label = "S%d" % xi
        else:
            label = "S%d%s" % (xi, "+" if row in (6, 8) else "-")
        out[label] = (row, xi, union)
    return out


# what the last parameter of a descriptor names, per action family
_GRAPH_NAMES = {"triple": "suborbit of size", "dihedral": "union",
                "psl2sub": "suborbit", "omega": "suborbit with value"}


@lru_cache(maxsize=None)
def _action_family(family, key):
    """(action, rows) for an action family at the descriptor's parameters
    but the last, shared by every graph drawn from it: rows maps each
    graph name to the base point's neighbourhood, a triple or psl2sub
    suborbit joined with its paired one. Unbounded, as it is keyed by
    family parameters: a survey up to order 255 holds four entries."""
    if family == "omega":
        model = omega_model(*key)
        return model.action, model.suborbits
    if family == "dihedral":
        model = dihedral_model(*key)
        sp = model.space
        unions = {label: union for label, (_, _, union)
                  in dihedral_union_labels(model).items()}
    else:
        sp = (alternating_triple_space(*key) if family == "triple" else
              psl2_coset_space(key[0], *psl2_subgroup_scan(*key)))
        unions = {s.size if family == "triple" else s.index:
                  {s.index, s.paired}
                  for s in sp.suborbits if s.points != (sp.base,)}
    return sp.action, {name: tuple(sorted(v for i in union
                                          for v in sp.suborbits[i].points))
                       for name, union in unions.items()}


def build_instance(desc):
    """(graph, rho) for a descriptor: gp's rotation, else the first
    generator of the action orbit_graph built the graph from."""
    fam, params = desc.family, desc.params
    if fam == "gp":
        n, k = params
        rho = [(v + 1) % n if v < n else n + (v - n + 1) % n
               for v in range(2 * n)]
        return gp(n, k), rho
    if fam == "metacirculant":
        g = metacirculant(params[0])
    elif fam == "fermat":
        g = fermat_graph(params[0])
    elif fam in _GRAPH_NAMES:
        *key, name = params
        action, rows = _action_family(fam, tuple(key))
        if name not in rows:
            raise ValueError("no %s %r; have %s"
                             % (_GRAPH_NAMES[fam], name, sorted(rows)))
        g = orbit_graph(action, rows[name])
    else:
        raise ValueError("unknown family %r" % fam)
    return g, g._automorphisms[0]


# ---------------------------------------------------------------------------
# strategies


def _quotient_lift(g, q, trace, budget):
    """Hamilton cycle through a quotient Hamilton cycle containing a
    multiplicity >= 2 edge, lifted along its voltages."""
    m, n = q.m, q.n
    if not is_prime(n):
        return None
    if m == 1:
        # circulant on a prime number of vertices: one voltage suffices
        orb = q.orbits[0]
        for t in range(1, n):
            if g.has_edge(orb[0], orb[t]):
                trace.append("voltage=%d" % t)
                return [orb[(t * i) % n] for i in range(n)]
        return None  # no edges: the graph is disconnected
    doubles = sorted((a, b) for a in range(m) for b in range(a + 1, m)
                     if q.d(a, b) >= 2)
    for a, b in doubles:
        path = hamilton_path(q.graph, a, b, budget=budget)
        if path is None:
            continue
        out = lift_closed_walk(q, path)
        if out.full:
            trace.append("quotient_cycle=%s" % ",".join(map(str, path)))
            trace.append("double_edge=%d-%d" % (a, b))
            return list(out.cycle)
    # no usable double edge: a plain quotient cycle may still lift fully
    cyc = hamilton_cycle(q.graph, budget=budget)
    if cyc is not None:
        out = lift_closed_walk(q, cyc)
        if out.full:
            trace.append("quotient_cycle=%s" % ",".join(map(str, cyc)))
            return list(out.cycle)
    return None


def prove(desc, budget=DEFAULT_BUDGET):
    """A verified Hamilton certificate for the descriptor's graph.
    Raises NotHamiltonianException when a completed search proves that
    the graph has none, and ProofFailure when the graph is disconnected
    or the search exhausts its budget. The cycle is a lifted quotient
    cycle when rho is semiregular of prime orbit length and one lifts
    fully, else the direct search's; each search gets budget expansions."""
    g, rho = build_instance(desc)
    trace = ["descriptor=%s" % desc]
    cycle = None
    try:
        q = quotient(g, rho)
    except ValueError:
        pass  # rho is not semiregular: no quotient strategy applies
    else:
        try:
            cycle = _quotient_lift(g, q, trace, budget)
        except BudgetExceeded:
            pass  # a quotient search ran out: the direct search decides
        strategy = "quotient-lift"
    if cycle is None:
        try:
            cycle = hamilton_cycle(g, budget=budget)
        except BudgetExceeded:
            raise ProofFailure("budget exhausted on %s" % desc, g)
        strategy = "direct-search"
        if cycle is None:
            # the search ends at once on a disconnected graph
            if not g.is_connected():
                raise ProofFailure("%s is disconnected" % desc, g)
            raise NotHamiltonianException(
                "exhaustive search found no Hamilton cycle in %s" % desc, g)
    cert = Certificate(g.n, g.valency(), graph_fingerprint(g), tuple(cycle),
                       strategy, tuple(trace))
    # the fingerprint was just taken from g; hashing again proves nothing
    if not _cycle_fits(g, cert):
        raise AssertionError("produced certificate failed verification")
    return cert


# ---------------------------------------------------------------------------
# valency arithmetic for the two actions without explicit constructions


def row12_valency_check(row, eps=None, d=None, valency=None):
    """Jackson-hypothesis arithmetic (valency > order/3) for the two
    families given only by their parameters.

    Row 1: p and q determined by eps and d (p = 2^d - eps prime,
    q = 2^(d-1) + eps prime); returns {valency: bool} for the two stated
    valencies.  Row 2: the order-77 action; returns the bool for the
    given valency (16 or 60).
    """
    if row == 1:
        if eps not in (1, -1):
            raise ValueError("eps must be +-1")
        p = 2 ** d - eps
        q = 2 ** (d - 1) + eps
        if not (is_prime(p) and is_prime(q)):
            raise ValueError("2^%d-(%d) and 2^%d+(%d) must both be prime"
                             % (d, eps, d - 1, eps))
        order = p * q
        v1 = q * q - eps * q - 2
        v2 = (q - eps) ** 2
        return {v1: 3 * v1 > order, v2: 3 * v2 > order}
    if row == 2:
        if valency not in (16, 60):
            raise ValueError("the order-77 action has valencies 16 and 60")
        return 3 * valency > 77
    raise ValueError("row must be 1 or 2")


# ---------------------------------------------------------------------------
# survey


@dataclass(frozen=True)
class SurveyRow:
    descriptor: str
    order: int
    valency: int
    status: str    # hamiltonian | exception | failed: ...
    strategy: str
    seconds: float


# The hand-picked metacirculant and Fermat instances of the survey.
_SURVEY_SPECS = (
    MetacirculantSpec(2, 5, 2, (frozenset({1, 4}), frozenset({0}))),
    FermatSpec(5, 3, frozenset(), frozenset({1})),
    MetacirculantSpec(3, 7, 2, (frozenset({1, 6}), frozenset({0, 3}))),
    FermatSpec(17, 3, frozenset(), frozenset({1})),
    FermatSpec(17, 5, frozenset({1, 4}), frozenset({1, 2})),
)


def _survey_keys(max_order):
    """(order, family, key) for each key of order at most max_order of
    the paper's action families: A7 on triples; omega(q) for
    (q^2+1)/2 prime; dihedral(p) for p = 1 (mod 4), p >= 13, (p+1)/2
    prime; PSL(2,13) on the cosets of A4 and PSL(2,61) on those of A5."""
    if 35 <= max_order:
        yield 35, "triple", ()
    q = 5
    while q * (q * q + 1) // 2 <= max_order:
        if is_prime(q) and is_prime((q * q + 1) // 2):
            yield q * (q * q + 1) // 2, "omega", (q,)
        q += 2
    p = 13
    while p * (p + 1) // 2 <= max_order:
        if is_prime(p) and is_prime((p + 1) // 2):
            yield p * (p + 1) // 2, "dihedral", (p,)
        p += 4
    for key in ((13, 2, 3, 3, 12), (61, 2, 3, 5, 60)):
        order = key[0] * (key[0] ** 2 - 1) // (2 * key[-1])
        if order <= max_order:
            yield order, "psl2sub", key


def survey_descriptors(max_order):
    """The survey's instances of order <= max_order, stably sorted by
    order: the hand-picked metacirculant and Fermat specs, then every
    graph of the action families _survey_keys lists, one descriptor per
    distinct graph, by its least name."""
    found = [(s.m * s.n, Descriptor("metacirculant", (s,)))
             if isinstance(s, MetacirculantSpec)
             else (s.p * s.q, Descriptor("fermat", (s,)))
             for s in _SURVEY_SPECS]
    found = [f for f in found if f[0] <= max_order]
    for order, family, key in _survey_keys(max_order):
        least = {}  # row -> its least name
        for name, row in sorted(_action_family(family, key)[1].items()):
            least.setdefault(row, name)
        found += [(order, Descriptor(family, key + (name,)))
                  for name in least.values()]
    found.sort(key=lambda f: f[0])
    return [desc for _, desc in found]


def survey(max_order, budget=DEFAULT_BUDGET):
    rows = []
    for desc in survey_descriptors(max_order):
        t0 = time.perf_counter()
        try:
            outcome = prove(desc, budget=budget)
            status, strategy = "hamiltonian", outcome.strategy
        except NotHamiltonianException as e:
            outcome, status, strategy = e, "exception", "-"
        except ProofFailure as e:
            outcome, status, strategy = e, "failed: %s" % e, "-"
        seconds = round(time.perf_counter() - t0, 3)
        rows.append(SurveyRow(str(desc), outcome.order, outcome.valency,
                              status, strategy, seconds))
    return rows


def format_survey(rows, csv=False):
    if csv:
        out = io.StringIO()
        writer = csv_writer(out, lineterminator="\n")
        writer.writerow(["descriptor", "order", "valency", "status",
                         "strategy", "seconds"])
        writer.writerows([r.descriptor, r.order, r.valency, r.status,
                          r.strategy, "%.3f" % r.seconds] for r in rows)
        return out.getvalue()
    w = max(len(r.descriptor) for r in rows) if rows else 10
    lines = ["%-*s  %5s  %7s  %-12s  %-17s  %7s"
             % (w, "descriptor", "order", "valency", "status", "strategy",
                "seconds")]
    for r in rows:
        lines.append("%-*s  %5d  %7d  %-12s  %-17s  %7.3f"
                     % (w, r.descriptor, r.order, r.valency, r.status,
                        r.strategy, r.seconds))
    return "\n".join(lines) + "\n"
