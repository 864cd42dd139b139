"""Command-line front end: graph construction, suborbit tables, orbit
quotients, Hamilton certificates, the survey driver, the prime-sequence
bound tables and the quartic exception scan.

Exit status: 0 on success, 1 when no Hamilton certificate is produced
(including when a completed search proves that none exists), 2 on bad
flags or parameters, never with a traceback.
"""

import argparse
import sys

from .actions import (
    alternating_triple_space,
    dihedral_model,
    psl2_coset_space,
    psl2_dihedral_subgroup,
    psl2_subgroup_scan,
    suborbit_report,
)
from .engine import (
    DEFAULT_BUDGET,
    Descriptor,
    NotHamiltonianException,
    ProofFailure,
    build_instance,
    format_certificate,
    format_survey,
    prove,
    survey,
)
from .families import MetacirculantSpec, parse_family_spec
from .field import is_prime
from .graphs import format_dot, format_edge_list
from .quotients import format_symbol, quotient
from .residues import exceptional_table, quartic_exceptions, render_table


def _reject(message):
    """Report bad input on one stderr line and exit 2."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _bad_budget(args):
    """Report a budget that allows no search at all; True when reported."""
    if args.budget > 0:
        return False
    print("--budget must be positive, got %d" % args.budget, file=sys.stderr)
    return True


def _ints(s):
    """The --orders list; anything but comma-separated integers is bad
    input."""
    try:
        return [int(x) for x in s.split(",") if x.strip() != ""]
    except ValueError:
        _reject("--orders must be comma-separated integers, got %r" % s)


def _descriptor(args, parser):
    """Build the engine descriptor from the family flags."""
    fam = args.family
    need = lambda flag, val: val if val is not None else parser.error(
        "--family %s requires --%s" % (fam, flag))
    if fam in ("metacirculant", "fermat"):
        path = need("spec", args.spec)
        try:
            with open(path) as fh:
                spec = parse_family_spec(fh.read())
        except (OSError, ValueError) as e:
            _reject("--spec %s: %s" % (path, e))
        got = "metacirculant" if isinstance(spec, MetacirculantSpec) \
            else "fermat"
        if got != fam:
            parser.error("spec file describes a %s, not a %s" % (got, fam))
        return Descriptor(fam, (spec,))
    if fam == "gp":
        return Descriptor("gp", (need("n", args.n), need("k", args.k)))
    if fam == "triple":
        return Descriptor("triple", (need("size", args.size),))
    if fam == "dihedral":
        return Descriptor("dihedral", (need("p", args.p),
                                       need("suborbit", args.suborbit)))
    if fam == "psl2sub":
        orders = _ints(need("orders", args.orders))
        if len(orders) != 3:
            parser.error("--orders needs three generator orders a,b,ab")
        return Descriptor("psl2sub", (need("p", args.p), *orders,
                                      need("size", args.size),
                                      need("index", args.index)))
    if fam == "omega":
        return Descriptor("omega", (need("q", args.q), need("lam", args.lam)))
    parser.error("unknown family %r" % fam)


def _instance(desc):
    """build_instance, with parameters it rejects reported as bad input."""
    try:
        return build_instance(desc)
    except ValueError as e:
        _reject("%s: %s" % (desc, e))


def _add_family_flags(sub):
    sub.add_argument("--family", required=True,
                     choices=["metacirculant", "fermat", "gp", "triple",
                              "dihedral", "psl2sub", "omega"])
    sub.add_argument("--spec", help="family spec file (metacirculant/fermat)")
    sub.add_argument("--n", type=int, help="generalized prism order")
    sub.add_argument("--k", type=int, help="generalized prism skip")
    sub.add_argument("--size", type=int, help="suborbit size (triple/psl2sub)")
    sub.add_argument("--p", type=int, help="prime of the coset action")
    sub.add_argument("--suborbit", help="basic union label, e.g. S7, axis+")
    sub.add_argument("--orders", help="generator orders a,b,ab (psl2sub)")
    sub.add_argument("--index", type=int, help="suborbit index (psl2sub)")
    sub.add_argument("--q", type=int, help="field order of the quadric model")
    sub.add_argument("--lam", type=int, help="form value selecting the graph")


def _cmd_construct(args, parser):
    desc = _descriptor(args, parser)
    g, _ = _instance(desc)
    if args.format == "dot":
        sys.stdout.write(format_dot(g))
    else:
        sys.stdout.write(format_edge_list(g))
    return 0


def _space_for(args, parser):
    """The coset space named by the flags; parameters the builders reject
    are reported as bad input."""
    if args.space == "triple":
        return alternating_triple_space()
    if args.p is None:
        parser.error("--space %s requires --p" % args.space)
    try:
        if args.space == "dihedral":
            return dihedral_model(args.p).space
        if args.orders:
            orders = _ints(args.orders)
            if len(orders) != 3:
                _reject("--orders needs three generator orders a,b,ab")
            if args.size is None:
                parser.error("--orders also needs --size")
            sub, gens = psl2_subgroup_scan(args.p, *orders, args.size)
        else:
            sub, gens = psl2_dihedral_subgroup(args.p)
        return psl2_coset_space(args.p, sub, gens)
    except ValueError as e:
        _reject("--space %s --p %d: %s" % (args.space, args.p, e))


def _cmd_suborbits(args, parser):
    sp = _space_for(args, parser)
    if args.format == "csv":
        lines = ["index,size,self_paired,paired"]
        lines += ["%d,%d,%s,%d" % (s.index, s.size,
                                   "yes" if s.self_paired else "no", s.paired)
                  for s in sp.suborbits]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(suborbit_report(sp))
    return 0


def _cmd_quotient(args, parser):
    desc = _descriptor(args, parser)
    g, rho = _instance(desc)
    try:
        q = quotient(g, rho)
    except ValueError:
        print("the automorphism of %s is not semiregular" % desc,
              file=sys.stderr)
        return 1
    out = ["orbits=%d orbit_length=%d" % (q.m, q.n),
           "d_in=%s" % ",".join(map(str, q.d_in)),
           "symbol:", format_symbol(q.symbol)]
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_hamilton(args, parser):
    if _bad_budget(args):
        return 2
    desc = _descriptor(args, parser)
    try:
        cert = prove(desc, budget=args.budget)
    except ValueError as e:  # parameters build_instance rejects
        _reject("%s: %s" % (desc, e))
    except NotHamiltonianException as e:
        print("NotHamiltonian: %s" % e, file=sys.stderr)
        return 1
    except ProofFailure as e:
        print("ProofFailure: %s" % e, file=sys.stderr)
        return 1
    if args.format == "text":
        sys.stdout.write("hamiltonian %s order=%d valency=%d strategy=%s\n"
                         % (desc, cert.order, cert.valency, cert.strategy))
    else:
        sys.stdout.write(format_certificate(cert))
    return 0


def _cmd_survey(args, parser):
    if _bad_budget(args):
        return 2
    rows = survey(args.max_order, budget=args.budget)
    sys.stdout.write(format_survey(rows, csv=args.format == "csv"))
    failed = [r for r in rows if r.status.startswith("failed")]
    return 1 if failed else 0


def _cmd_tables(args, parser):
    if args.qm_cap < 3:
        _reject("--qm-cap must be at least 3, got %d" % args.qm_cap)
    records = exceptional_table(args.qm_cap)
    sys.stdout.write(render_table(records, fmt=args.format) + "\n")
    return 0


def _cmd_quartic(args, parser):
    if args.p is not None and (args.p < 3 or not is_prime(args.p)):
        _reject("--p must be an odd prime, got %d" % args.p)
    primes = [args.p] if args.p is not None else [
        p for p in range(5, args.max + 1)
        if is_prime(p) and p % 4 == 1 and is_prime((p + 1) // 2)]
    lines = []
    for p in primes:
        exc = quartic_exceptions(p)
        if exc or args.p is not None:
            lines.append("%d: %s" % (p, ",".join(map(str, sorted(exc)))))
    sys.stdout.write("\n".join(lines) + ("\n" if lines else ""))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pqham",
        description="vertex-transitive graphs of order pq: constructions, "
                    "quotients and Hamilton-cycle certificates")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="emit a graph")
    _add_family_flags(p)
    p.add_argument("--format", choices=["text", "dot"], default="text")
    p.set_defaults(func=_cmd_construct)

    p = subs.add_parser("suborbits", help="suborbit table of a coset action")
    p.add_argument("--space", required=True,
                   choices=["dihedral", "psl2cosets", "triple"])
    p.add_argument("--p", type=int)
    p.add_argument("--orders", help="generator orders a,b,ab")
    p.add_argument("--size", type=int, help="subgroup size for the scan")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_suborbits)

    p = subs.add_parser("quotient", help="orbit symbol and multigraph data")
    _add_family_flags(p)
    p.set_defaults(func=_cmd_quotient)

    p = subs.add_parser("hamilton", help="certify a Hamilton cycle")
    _add_family_flags(p)
    p.add_argument("--format", choices=["cert", "text"], default="cert")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_hamilton)

    p = subs.add_parser("survey", help="certify every instance up to a bound")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_survey)

    p = subs.add_parser("tables", help="prime-sequence inequality bounds")
    p.add_argument("--qm-cap", type=int, default=131)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_tables)

    p = subs.add_parser("quartic", help="quartic exception sets per prime")
    p.add_argument("--p", type=int, help="a single prime")
    p.add_argument("--max", type=int, default=300,
                   help="scan primes p = 1 (mod 4) with (p+1)/2 prime")
    p.set_defaults(func=_cmd_quartic)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
