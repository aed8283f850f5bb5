"""coxlow command-line interface.

Subcommands: small-roots, low-elements, automaton, growth, verify, render.
Exit codes: 0 success, 2 validation/parse error, 3 verification unresolved
at the requested bound (distinct from a crash).
"""

import argparse
import functools
import json
import os
import sys

from . import __version__
from .automaton import build_automaton, count_elements, export_dot, growth_series
from .conjecture import (
    check_gbip_walk, verify_bijection, verify_inversion_polytopes)
from .core import DEFAULT_EPS
from .elements import enumerate_low
from .errors import (
    CoxlowError, OutputError, ParseError, RankNotThree, ValidationError)
from .groupfile import load_root_system
from .render import RenderOptions, render_svg
from .smallroots import small_roots

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNRESOLVED = 3


def _tolerance(args):
    """The tolerance, from --tolerance, else COXLOW_TOLERANCE, else
    DEFAULT_EPS; each spelling is converted here and only here."""
    if args.tolerance is not None:
        name, text = "--tolerance ", args.tolerance
    else:
        name, text = "COXLOW_TOLERANCE=", os.environ.get("COXLOW_TOLERANCE")
        if not text:
            return DEFAULT_EPS
    try:
        return float(text)
    except ValueError:
        raise ValidationError("%s%r is not a number" % (name, text))


def _load(args):
    try:
        with open(args.group, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (args.group, exc.strerror))
    except UnicodeDecodeError as exc:
        raise ParseError("cannot read %s: %s" % (args.group, exc))
    return load_root_system(text, backend=args.backend, eps=_tolerance(args))


def _emit(path, text):
    """Write a command's document to ``path``, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError("cannot write %s: %s" % (path, exc.strerror))


def _word_str(word):
    return "".join("s%d" % s for s in word) or "e"


def cmd_small_roots(args, rs):
    sigma = small_roots(rs)
    print("small roots (%d):" % len(sigma))
    print("%5s  %-30s %5s" % ("index", "coordinates", "depth"))
    payload = []
    for i, root in enumerate(sigma):
        coords = [float(c) for c in root.coords]
        print("%5d  %-30s %5d"
              % (i, "(" + ", ".join("%g" % c for c in coords) + ")", root.depth))
        payload.append({"index": i, "coords": coords, "depth": root.depth})
    _emit(args.out, json.dumps({"schema": "coxlow/small-roots/1",
                                "count": len(sigma), "roots": payload},
                               indent=2) + "\n")
    return EXIT_OK


def cmd_low_elements(args, rs):
    sigma = small_roots(rs)
    lows, report = enumerate_low(rs, sigma, args.max_length)
    print("low elements up to length %d: %d found" % (args.max_length, len(lows)))
    payload = []
    for low, mask in report.mapping.items():
        print("  %-20s length=%2d lambda=%s"
              % (_word_str(low.word), low.length, bin(mask)))
        payload.append({"word": list(low.word), "length": low.length,
                        "lambda_mask": mask})
    status = "complete" if report.complete else \
        "INCOMPLETE: %d of %d small inversion sets unrealized" \
        % (len(report.unresolved_masks), report.n_lambda)
    print("completeness: %s (|Lambda| = %d)" % (status, report.n_lambda))
    doc = {"schema": "coxlow/low-elements/1", "max_length": args.max_length,
           "low_elements": payload, "n_lambda": report.n_lambda,
           "complete": report.complete,
           "unrealized_masks": list(report.unresolved_masks)}
    _emit(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_automaton(args, rs):
    sigma = small_roots(rs)
    aut = build_automaton(rs, sigma)
    _emit(args.dot or args.out, export_dot(aut))
    if args.dot:
        print("automaton: %d states, written to %s" % (len(aut.states), args.dot))
    return EXIT_OK


def cmd_growth(args, rs):
    sigma = small_roots(rs)
    aut = build_automaton(rs, sigma)
    words = growth_series(aut, args.terms)
    rows = {"schema": "coxlow/growth/1", "terms": args.terms,
            "reduced_words": words}
    print("reduced words by length: %s" % words)
    if args.elements:
        elems = count_elements(rs, sigma, args.terms)
        print("elements by length:      %s" % elems)
        rows["elements"] = elems
    _emit(args.out, json.dumps(rows, indent=2) + "\n")
    return EXIT_OK


def cmd_verify(args, rs):
    if args.polytopes and rs.rank != 3:
        raise RankNotThree("--polytopes needs rank 3, not %d" % rs.rank)
    sigma = small_roots(rs)
    aut = build_automaton(rs, sigma)
    bij = verify_bijection(rs, sigma, aut, args.max_length)
    print("group: %s" % args.group)
    print("|Sigma| = %d, |Lambda| = %d, low elements found = %d"
          % (len(sigma), bij.n_lambda, bij.n_low))
    print("injective: %s, surjective: %s" % (bij.injective, bij.complete))
    if bij.unresolved_masks:
        print("unresolved at max length %d: %d small inversion sets"
              % (args.max_length, len(bij.unresolved_masks)))

    gbip_summary = None
    if rs.rank == 3:
        checked, failed = check_gbip_walk(rs, sigma, args.gbip_length)
        gbip_summary = {"max_length": args.gbip_length,
                        "elements_checked": checked, "violations": len(failed)}
        print("graph checks (length <= %d): %d elements, %d violations"
              % (args.gbip_length, checked, len(failed)))

    poly_summary = None
    if args.polytopes:
        rep = verify_inversion_polytopes(rs, sigma, aut, bij.inversions)
        if not rep.hypothesis_met:
            print("note: small roots leave the simplex edges; the polytope "
                  "claim is outside its stated hypothesis")
        poly_summary = {"hypothesis_met": rep.hypothesis_met,
                        "matched": rep.matched, "total": len(rep.witnesses)}
        print("inversion polytopes: %d/%d matched (hypothesis %s)"
              % (rep.matched, len(rep.witnesses),
                 "met" if rep.hypothesis_met else "not met"))

    report = {
        "schema": "coxlow/verify/1",
        "group_file": args.group,
        "n_sigma": len(sigma),
        "n_lambda": bij.n_lambda,
        "n_low": bij.n_low,
        "max_length": args.max_length,
        "injective": bij.injective,
        "surjective": bij.complete,
        "bijective": bij.bijective,
        "witnesses": {str(mask): list(low.word)
                      for low, mask in bij.mapping.items()},
        "unresolved_masks": list(bij.unresolved_masks),
        "gbip": gbip_summary,
        "polytopes": poly_summary,
    }
    _emit(args.out, json.dumps(report, indent=2) + "\n")
    unresolved = bool(bij.unresolved_masks) or \
        (gbip_summary and gbip_summary["violations"]) or \
        (poly_summary and poly_summary["matched"] < poly_summary["total"])
    return EXIT_UNRESOLVED if unresolved else EXIT_OK


def cmd_render(args, rs):
    sigma = small_roots(rs)
    opts = RenderOptions(depth=args.depth, size=args.size, labels=args.labels)
    lambdas = build_automaton(rs, sigma).states if args.lambdas else ()
    _emit(args.out, render_svg(rs, sigma, lambdas, opts))
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later ``main`` in the process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("group", help="group-input JSON file")
    common.add_argument("--tolerance", default=None,
                        help="comparison tolerance (or env COXLOW_TOLERANCE)")
    common.add_argument("--backend", default=None,
                        help="override the file's backend: float or rational")
    common.add_argument("--out", default=None, help="output file")

    parser = argparse.ArgumentParser(
        prog="coxlow",
        description="Small roots, reduced-word automata and low elements "
                    "of Coxeter groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("small-roots", parents=[common],
                   help="print the small roots").set_defaults(func=cmd_small_roots)

    p = sub.add_parser("low-elements", parents=[common],
                       help="enumerate low elements")
    p.add_argument("--max-length", type=int, required=True)
    p.set_defaults(func=cmd_low_elements)

    p = sub.add_parser("automaton", parents=[common],
                       help="build the reduced-word automaton")
    p.add_argument("--dot", default=None, help="write DOT to this file")
    p.set_defaults(func=cmd_automaton)

    p = sub.add_parser("growth", parents=[common],
                       help="reduced-word growth series")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--elements", action="store_true",
                   help="also count distinct elements per length")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("verify", parents=[common],
                       help="run the bijection and graph checks")
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--gbip-length", type=int, default=8)
    p.add_argument("--polytopes", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", parents=[common],
                       help="render the projective picture as SVG")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--size", type=int, default=600)
    p.add_argument("--labels", action="store_true")
    p.add_argument("--lambdas", action="store_true",
                   help="overlay conv(lambda) polygons")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for opt in ("max_length", "gbip_length", "terms"):
            if getattr(args, opt, 0) < 0:
                raise ValidationError("--%s %d must be >= 0" % (
                    opt.replace("_", "-"), getattr(args, opt)))
        return args.func(args, _load(args))
    except CoxlowError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
