"""Command line front end: canonical JSON in, canonical JSON out.

Exit codes: 0 for a computed result (or a true predicate), 1 for a
false predicate (a certificate is still printed), 2 for usage or input
errors, reported as {"error": ..., "message": ..., "witness": ...}
(a usage error on stdout, with argparse's text as its message);
an unexpected fault of the program is reported the same way, as an
"InternalError" with exit 2.
Identical inputs always produce byte-identical outputs.
"""

import argparse
import json
import sys

from . import jsonio
from .errors import (NotPluecker, OutOfDomain, PointOutsideL, TroplinError,
                     UsageError, WrongArity)
from .gammoid import digraph_from_presentation, gammoid_valuation
from .presentations import (apices, distinguished, sample_presentation,
                            verify_presentation)
from .transversal import (is_transversal, max_presentation,
                          verify_set_presentation)
from .trop import check_point, stiefel
from .util import list1, mask_of
from .valuated import (cell_complex, check_pluecker, initial_matroid,
                       maximal_cells, membership, require_loop_free,
                       stable_intersection, stable_sum, v_contract, v_dual,
                       v_restrict)


def _need(payload, key):
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError("input needs a %r field" % key)
    return payload[key]


def _rows(payload):
    "A matrix, accepted bare or under a 'matrix'/'points' key."
    if isinstance(payload, dict):
        payload = payload.get("matrix", payload.get("points"))
    return jsonio.parse_matrix(payload)


def _require_pluecker(vm):
    """Raise NotPluecker, with the failing relation, unless vm is a
    valuated matroid.  The commands that assume one call this once,
    after parsing their payload and before computing."""
    ok, witness = check_pluecker(vm)
    if not ok:
        raise NotPluecker("input is not a valuated matroid",
                          witness=witness)


def cmd_stiefel(payload, args):
    return 0, jsonio.fmt_valuated(stiefel(_rows(payload)))


def cmd_check_pluecker(payload, args):
    ok, witness = check_pluecker(jsonio.parse_valuated(payload))
    if ok:
        return 0, {"ok": True}
    return 1, {"ok": False, "witness": witness}


def cmd_underlying(payload, args):
    return 0, jsonio.fmt_matroid(jsonio.parse_valuated(payload).underlying())


def cmd_dual(payload, args):
    return 0, jsonio.fmt_valuated(v_dual(jsonio.parse_valuated(payload)))


def cmd_restrict(payload, args):
    vm = jsonio.parse_valuated(_need(payload, "valuation"))
    subset = jsonio.parse_elements(_need(payload, "set"), vm.n)
    return 0, jsonio.fmt_valuated(v_restrict(vm, subset))


def cmd_contract(payload, args):
    vm = jsonio.parse_valuated(_need(payload, "valuation"))
    subset = jsonio.parse_elements(_need(payload, "set"), vm.n)
    return 0, jsonio.fmt_valuated(v_contract(vm, subset))


def cmd_initial(payload, args):
    vm = jsonio.parse_valuated(_need(payload, "valuation"))
    x = jsonio.parse_point(_need(payload, "point"))
    return 0, jsonio.fmt_matroid(initial_matroid(vm, x))


def cmd_cells(payload, args):
    vm = jsonio.parse_valuated(payload)
    _require_pluecker(vm)
    cells = [{"bases": [list1(b) for b in c.matroid.bases],
              "witness": jsonio.fmt_scaled(*c.scaled),
              "maximal": c.is_maximal}
             for c in cell_complex(vm)]
    return 0, {"n": vm.n, "rank": vm.d, "cells": cells}


def cmd_vertices(payload, args):
    """One vertex per connected cell: each maximal cell of a connected
    support, as each has its components (maximal_cells); none else."""
    vm = jsonio.parse_valuated(payload)
    _require_pluecker(vm)
    require_loop_free(vm)
    connected = len(vm.underlying().connected_components()) == 1
    out = [{"bases": [list1(b) for b in c.matroid.bases],
            "point": jsonio.fmt_scaled(*c.scaled, lower=True)}
           for c in (maximal_cells(vm) if connected else [])]
    return 0, {"n": vm.n, "vertices": out}


def cmd_is_transversal_matroid(payload, args):
    m = jsonio.parse_matroid(payload)
    ok, data = is_transversal(m)
    if ok:
        return 0, {"transversal": True,
                   "presentation": jsonio.fmt_sets(m.n, data)}
    return 1, {"transversal": False, "certificate": data}


def cmd_max_presentation(payload, args):
    m = jsonio.parse_matroid(payload)
    return 0, jsonio.fmt_sets(m.n, max_presentation(m))


def cmd_verify_set_presentation(payload, args):
    m = jsonio.parse_matroid(_need(payload, "matroid"))
    sets = [jsonio.parse_elements(s, m.n)
            for s in _need(payload, "sets")]
    ok = verify_set_presentation(m, sets)
    return (0 if ok else 1), {"ok": ok}


def cmd_verify_presentation(payload, args):
    vm = jsonio.parse_valuated(_need(payload, "valuation"))
    points = [jsonio.parse_point(p) for p in _need(payload, "points")]
    _require_pluecker(vm)
    try:
        report = verify_presentation(vm, points)
    except PointOutsideL as exc:
        return 1, {"ok": False, "violations": [],
                   "outside": exc.witness}
    return (0 if report["ok"] else 1), report


def cmd_distinguished(payload, args):
    vm = jsonio.parse_valuated(payload)
    _require_pluecker(vm)
    data = distinguished(vm)
    entries = [{"flat": list1(e.flat),
                "matroid": jsonio.fmt_matroid(e.matroid),
                "coords": [g + 1 for g in e.coords],
                "multiplicity": e.multiplicity,
                "vertex": jsonio.fmt_point(e.vertex),
                "apex": jsonio.fmt_point(e.apex)}
               for e in data]
    return 0, {"n": vm.n, "rank": vm.d, "entries": entries,
               "apices": [jsonio.fmt_point(a) for a in apices(data)]}


def cmd_in_presentation_space(payload, args):
    vm = jsonio.parse_valuated(_need(payload, "valuation"))
    points = [jsonio.parse_point(p) for p in _need(payload, "points")]
    # by the definition, stiefel(points) == vm; a Stiefel image is a
    # valuated matroid, so a true answer needs no Pluecker check, and
    # a tuple outside the domain of stiefel presents nothing
    if vm.d and len(points) == vm.d and all(len(p) == vm.n for p in points):
        try:
            if stiefel(points) == vm:
                return 0, {"ok": True}
        except OutOfDomain:
            pass
    # otherwise the answer is false, after the input errors in order;
    # the empty tuple presents a rank-0 valuation
    _require_pluecker(vm)
    if len(points) != vm.d:
        raise WrongArity(witness={"expected": vm.d, "got": len(points)})
    for p in points:
        check_point(p, vm.n)
    ok = vm.d == 0
    return (0 if ok else 1), {"ok": ok}


def cmd_sample_presentation(payload, args):
    vm = jsonio.parse_valuated(payload)
    _require_pluecker(vm)
    points = sample_presentation(vm, args.seed)
    return 0, {"n": vm.n, "points": jsonio.fmt_matrix(points)}


def cmd_stable_sum(payload, args):
    v1 = jsonio.parse_valuated(_need(payload, "first"))
    v2 = jsonio.parse_valuated(_need(payload, "second"))
    return 0, jsonio.fmt_valuated(stable_sum(v1, v2))


def cmd_stable_intersect(payload, args):
    v1 = jsonio.parse_valuated(_need(payload, "first"))
    v2 = jsonio.parse_valuated(_need(payload, "second"))
    return 0, jsonio.fmt_valuated(stable_intersection(v1, v2))


def cmd_gammoid(payload, args):
    g = jsonio.parse_digraph(payload)
    return 0, jsonio.fmt_valuated(gammoid_valuation(g))


def cmd_digraph_from_presentation(payload, args):
    points = jsonio.parse_matrix(_need(payload, "points"))
    n = len(points[0])
    basis = None
    sigma = None
    if isinstance(payload, dict) and payload.get("matching") is not None:
        cols = payload["matching"]
        if not isinstance(cols, list) or len(cols) != len(points):
            raise ValueError("matching needs one column per row")
        for k, c in enumerate(cols):
            if isinstance(c, bool) or not isinstance(c, int) \
                    or not 1 <= c <= n:
                raise ValueError("matching column out of range")
            if c in cols[:k]:
                raise ValueError("matching column %d repeats" % c)
        sigma = [c - 1 for c in cols]
    if isinstance(payload, dict) and payload.get("basis") is not None:
        basis = jsonio.parse_elements(payload["basis"], n)
    elif sigma is not None:
        basis = mask_of(sigma)
    g = digraph_from_presentation(points, basis, sigma)
    return 0, jsonio.fmt_digraph(g)


def cmd_membership(payload, args):
    vm = jsonio.parse_valuated(_need(payload, "valuation"))
    y = jsonio.parse_point(_need(payload, "point"))
    ok = membership(vm, y)
    return (0 if ok else 1), {"ok": ok}


COMMANDS = {
    "stiefel": cmd_stiefel,
    "check-pluecker": cmd_check_pluecker,
    "underlying": cmd_underlying,
    "dual": cmd_dual,
    "restrict": cmd_restrict,
    "contract": cmd_contract,
    "initial": cmd_initial,
    "cells": cmd_cells,
    "vertices": cmd_vertices,
    "is-transversal-matroid": cmd_is_transversal_matroid,
    "max-presentation": cmd_max_presentation,
    "verify-set-presentation": cmd_verify_set_presentation,
    "verify-presentation": cmd_verify_presentation,
    "distinguished": cmd_distinguished,
    "in-presentation-space": cmd_in_presentation_space,
    "sample-presentation": cmd_sample_presentation,
    "stable-sum": cmd_stable_sum,
    "stable-intersect": cmd_stable_intersect,
    "gammoid": cmd_gammoid,
    "digraph-from-presentation": cmd_digraph_from_presentation,
    "membership": cmd_membership,
}


def _refuse_constant(token):
    raise ValueError("input JSON holds the non-JSON number %s" % token)


_DECODER = json.JSONDecoder(parse_float=str, parse_constant=_refuse_constant)


def _read(path):
    """The payload.  A bare number with a fraction or an exponent is kept
    as its text, so that jsonio reads it exactly, under its exponent
    bound, as the same text in a string; NaN, Infinity and -Infinity,
    and JSON nested beyond the decoder's depth, are input errors.  One
    decoder serves every request; a leading byte-order mark is refused
    as json.loads refuses it."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


class _Parser(argparse.ArgumentParser):
    """Reports usage errors (an unknown command, a bad flag or flag
    value) as UsageError, with argparse's text, instead of exiting."""

    def error(self, message):
        raise UsageError(message)


_PARSER = None


def _parser():
    "The argument parser, built on first use and kept for the process."
    global _PARSER
    if _PARSER is None:
        ap = _Parser(
            prog="troplin",
            description="Exact min-plus computations with valuated "
                        "matroids. All ground-set elements in the JSON "
                        "formats are 1-based.")
        ap.add_argument("command", choices=sorted(COMMANDS))
        ap.add_argument("--input", default="-", metavar="FILE",
                        help="input JSON file, or - for stdin (default)")
        ap.add_argument("--output", default="-", metavar="FILE",
                        help="output JSON file, or - for stdout (default)")
        ap.add_argument("--seed", type=int, default=0,
                        help="sampling seed (0 picks the canonical answer)")
        ap.add_argument("--threads", type=int, default=1,
                        help="accepted for interface compatibility; all "
                             "computations are single-threaded")
        ap.add_argument("--pretty", action="store_true",
                        help="indent the output JSON")
        _PARSER = ap
    return _PARSER


def run(argv=None):
    output, pretty = "-", False
    try:
        args = _parser().parse_args(argv)
        output, pretty = args.output, args.pretty
        payload = _read(args.input)
        code, out = COMMANDS[args.command](payload, args)
    except (TroplinError, ValueError, KeyError, TypeError, OSError) as exc:
        out = {"error": type(exc).__name__, "message": str(exc),
               "witness": getattr(exc, "witness", None)}
        code = 2
    except Exception as exc:
        # a fault of the program, not of the input: still exit 2 with a
        # JSON body, so that exit 1 keeps meaning "false predicate".
        # traceback is imported only here, off the start-up path.
        import traceback

        traceback.print_exc()
        out = {"error": "InternalError", "message": str(exc),
               "witness": None}
        code = 2
    try:
        _write(output, jsonio.dumps(out, pretty))
    except OSError as exc:  # the output file: report on stdout instead
        out = {"error": type(exc).__name__, "message": str(exc),
               "witness": None}
        _write("-", jsonio.dumps(out, pretty))
        return 2
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
