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
    omega_graph,
    omega_model,
    orbital_graph,
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


# The coset spaces and models behind the action families, built once per
# parameter set and shared by every orbital graph drawn from them. They
# stay unbounded: they are keyed by family parameters, so a survey up to
# order 255 holds four and a single instance one.

@lru_cache(maxsize=None)
def _triple_space():
    return alternating_triple_space()


@lru_cache(maxsize=None)
def _dihedral_model(p):
    return dihedral_model(p)


@lru_cache(maxsize=None)
def _psl2_space(p, oa, ob, oab, size):
    return psl2_coset_space(p, *psl2_subgroup_scan(p, oa, ob, oab, size))


@lru_cache(maxsize=None)
def _omega_model(q):
    return omega_model(q)


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
    elif fam == "triple":
        sp = _triple_space()
        sizes = {s.size: s.index for s in sp.suborbits
                 if s.points != (sp.base,)}
        if params[0] not in sizes:
            raise ValueError("no suborbit of size %r; have %s"
                             % (params[0], sorted(sizes)))
        g = orbital_graph(sp, (sizes[params[0]],))
    elif fam == "dihedral":
        p, label = params
        model = _dihedral_model(p)
        labels = dihedral_union_labels(model)
        if label not in labels:
            raise ValueError("unknown union %r; have %s"
                             % (label, sorted(labels)))
        _, _, union = labels[label]
        g = orbital_graph(model.space, union)
    elif fam == "psl2sub":
        *key, idx = params
        sp = _psl2_space(*key)
        if not 0 <= idx < len(sp.suborbits):
            raise ValueError("no suborbit %d; have 0..%d"
                             % (idx, len(sp.suborbits) - 1))
        sub = sp.suborbits[idx]
        union = (idx,) if sub.self_paired else (idx, sub.paired)
        g = orbital_graph(sp, union)
    elif fam == "omega":
        q, lam = params
        g = omega_graph(_omega_model(q), lam)
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


def survey_descriptors(max_order):
    """All implemented instances of order <= max_order, in a
    deterministic order."""
    out = []
    pet = MetacirculantSpec(2, 5, 2, (frozenset({1, 4}), frozenset({0})))
    if 10 <= max_order:
        out.append(Descriptor("metacirculant", (pet,)))
    if 15 <= max_order:
        out.append(Descriptor("fermat",
                              (FermatSpec(5, 3, frozenset(), frozenset({1})),)))
    if 21 <= max_order:
        out.append(Descriptor("metacirculant",
                              (MetacirculantSpec(3, 7, 2, (frozenset({1, 6}),
                                                           frozenset({0, 3}))),)))
    if 35 <= max_order:
        for size in (4, 12, 18):
            out.append(Descriptor("triple", (size,)))
    if 51 <= max_order:
        out.append(Descriptor("fermat",
                              (FermatSpec(17, 3, frozenset(), frozenset({1})),)))
    if 65 <= max_order:
        for lam in (0, 1, 2):
            out.append(Descriptor("omega", (5, lam)))
    if 85 <= max_order:
        out.append(Descriptor("fermat",
                              (FermatSpec(17, 5, frozenset({1, 4}),
                                          frozenset({1, 2})),)))
    if 91 <= max_order:
        for label in sorted(dihedral_union_labels(_dihedral_model(13))):
            out.append(Descriptor("dihedral", (13, label)))
        sp = _psl2_space(13, 2, 3, 3, 12)
        for s in sp.suborbits:
            if s.size > 1 and s.self_paired:
                out.append(Descriptor("psl2sub", (13, 2, 3, 3, 12, s.index)))
    return out


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
