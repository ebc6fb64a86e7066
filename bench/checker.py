"""Output checker: judges each response against references that do not
share the program's fast paths.

Stiefel images, gammoids, stable intersections and digraph
presentations are compared with troplin.oracle.stiefel_bruteforce; cell
complexes with troplin.oracle.cell_complex_bruteforce; presentation
decisions with `stiefel_bruteforce(points) == valuation`.  Minors and
initial matroids are recomputed here from their definitions, and every
certificate a false answer carries (Pluecker witness, transversality
family) is re-verified.  Runs after timing, so its cost is not measured.
"""

import json
from fractions import Fraction
from itertools import combinations

from troplin.errors import OutOfDomain
from troplin.oracle import cell_complex_bruteforce, stiefel_bruteforce
from troplin.valuated import ValuatedMatroid
from workloads import initial_bases, key_of

INF = float("inf")


class Checker:
    "Holds the brute-force results shared by requests with equal inputs."

    def __init__(self):
        self._stiefel = {}

    def stiefel(self, rows):
        "Oracle Pluecker table of rows, or None outside the domain."
        key = tuple(tuple(r) for r in rows)
        if key not in self._stiefel:
            try:
                self._stiefel[key] = stiefel_bruteforce(rows).table
            except OutOfDomain:
                self._stiefel[key] = None
        return self._stiefel[key]

    def check(self, req, code, body):
        """None if (code, body) is the right answer to req, else a reason."""
        try:
            out = json.loads(body)
        except ValueError:
            return "response is not JSON"
        exp = req.expect
        kind = exp["check"]
        if kind in ("out-of-domain", "loop-error"):
            return _check_error(kind, exp, code, out)
        if code == 2:
            return "unexpected error %s: %s" % (out.get("error"),
                                                out.get("message"))
        return CHECKS[kind](self, exp, code, out)


# ------------------------------------------------------------- helpers

def _scalar(s):
    return INF if s == "inf" else Fraction(s)


def _mask(elems):
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def _table(out):
    "(n, rank, {mask: value}) of a valuation object, missing keys inf."
    table = {}
    for key, val in out["entries"].items():
        table[_mask(int(e) for e in key.split(",") if e)] = _scalar(val)
    return out["n"], out["rank"], table


def _tables_differ(out, n, d, ref):
    got_n, got_d, got = _table(out)
    if (got_n, got_d) != (n, d):
        return "shape (%d, %d), expected (%d, %d)" % (got_d, got_n, d, n)
    for b in set(got) | set(ref):
        if got.get(b, INF) != ref.get(b, INF):
            return "entry %s is %s, expected %s" % (
                key_of(b), got.get(b, INF), ref.get(b, INF))
    return None


def _normalize(table):
    low = min(v for v in table.values() if v != INF)
    return {b: (v if v == INF else v - low) for b, v in table.items()}


def _subsets(mask, k):
    elems = [e for e in range(mask.bit_length()) if (mask >> e) & 1]
    return [sum(1 << e for e in c) for c in combinations(elems, k)]


def _rank(bases, s):
    return max((b & s).bit_count() for b in bases)


def _connected(bases, n):
    "No proper separator S with r(S) + r(E - S) = rank."
    full = (1 << n) - 1
    d = bases[0].bit_count()
    return all(_rank(bases, s) + _rank(bases, full ^ s) != d
               for s in range(1, full))


def _expect_code(code, want):
    if code != want:
        return "exit code %r, expected %d" % (code, want)
    return None


# -------------------------------------------------------------- checks

def _check_error(kind, exp, code, out):
    bad = _expect_code(code, 2)
    if bad:
        return bad
    if kind == "out-of-domain":
        if out.get("error") != "OutOfDomain":
            return "error %r, expected OutOfDomain" % out.get("error")
        rows, cols = out["witness"]["rows"], out["witness"]["cols"]
        n = len(exp["rows"][0])
        if len(cols) != n + 1 - len(rows):
            return "witness block has the wrong size"
        if any(exp["rows"][i - 1][j - 1] != "inf" for i in rows
               for j in cols):
            return "witness block is not all infinite"
        return None
    # loop-error: the cell complex refuses a support with loops
    if out.get("error") != "TroplinError":
        return "error %r, expected TroplinError" % out.get("error")
    table, n = exp["table"], exp["n"]
    union = 0
    for b, v in table.items():
        if v != INF:
            union |= b
    loops = [e + 1 for e in range(n) if not (union >> e) & 1]
    if out.get("witness") != loops:
        return "loop witness %r, expected %r" % (out.get("witness"), loops)
    return None


def check_valuation(chk, exp, code, out):
    return _expect_code(code, 0) or _tables_differ(
        out, exp["n"], exp["d"], exp["table"])


def check_dual_valuation(chk, exp, code, out):
    "Gammoids and stable intersections: dual of the Stiefel image of rows."
    ref = chk.stiefel(exp["rows"])
    n = exp["n"]
    full = (1 << n) - 1
    dual = {full ^ b: v for b, v in ref.items()}
    return _expect_code(code, 0) or _tables_differ(out, n, exp["d"], dual)


def check_digraph(chk, exp, code, out):
    "The digraph's reduction matrix must have the points' Stiefel image."
    bad = _expect_code(code, 0)
    if bad:
        return bad
    n = exp["n"]
    if out["n"] != n:
        return "digraph has %d vertices, expected %d" % (out["n"], n)
    sinks = set(out["sinks"])
    rows = {i: [INF] * n for i in range(1, n + 1) if i not in sinks}
    for i, row in rows.items():
        row[i - 1] = Fraction(0)
    for e in out["edges"]:
        if e["from"] in rows:
            rows[e["from"]][e["to"] - 1] = _scalar(e["w"])
    red = [rows[i] for i in sorted(rows)]
    if len(red) != exp["d"]:
        return "digraph has %d non-sinks, expected the rank" % len(red)
    if chk.stiefel(red) != exp["table"]:
        return "reduction matrix does not present the points' valuation"
    return None


def check_pluecker_ok(chk, exp, code, out):
    return _expect_code(code, 0) or (
        None if out == {"ok": True} else "expected {\"ok\": true}")


def check_pluecker_violation(chk, exp, code, out):
    bad = _expect_code(code, 1)
    if bad:
        return bad
    if out.get("ok") is not False:
        return "expected ok false"
    table, d = exp["table"], exp["d"]
    a, c = _mask(out["witness"]["a"]), _mask(out["witness"]["c"])
    if a.bit_count() != d - 1 or c.bit_count() != d + 1:
        return "witness sets have the wrong sizes"
    terms = []
    for j in range(c.bit_length()):
        if (c >> j) & 1 and not (a >> j) & 1:
            left, right = table[a | 1 << j], table[c ^ 1 << j]
            if left != INF and right != INF:
                terms.append(left + right)
    if not terms or terms.count(min(terms)) != 1:
        return "witness relation is not violated"
    return None


def check_predicate(chk, exp, code, out):
    return _expect_code(code, 0 if exp["ok"] else 1) or (
        None if out == {"ok": exp["ok"]} else "expected ok %s" % exp["ok"])


def _minor(table, n, d, subset, fixed, size):
    "Entries table[s | fixed] on the size-subsets s of subset, relabelled."
    kept = [e for e in range(n) if (subset >> e) & 1]
    pos = {e: i for i, e in enumerate(kept)}
    out = {}
    for s in _subsets(subset, size):
        out[sum(1 << pos[e] for e in kept if (s >> e) & 1)] = table[s | fixed]
    return len(kept), size, _normalize(out)


def check_restrict(chk, exp, code, out):
    """Restriction to S, read off against the lex-greatest complement
    extending S to a spanning set (the program takes the lex-least)."""
    table, n, d, s = exp["table"], exp["n"], exp["d"], exp["set"]
    bases = [b for b, v in table.items() if v != INF]
    k = _rank(bases, s)
    fixed, cur = 0, s
    for e in reversed(range(n)):
        if not (s >> e) & 1 and _rank(bases, cur | 1 << e) > _rank(bases,
                                                                   cur):
            cur |= 1 << e
            fixed |= 1 << e
    m, r, ref = _minor(table, n, d, s, fixed, k)
    return _expect_code(code, 0) or _tables_differ(out, m, r, ref)


def check_contract(chk, exp, code, out):
    """Contraction by S, read off against the lex-greatest basis of S."""
    table, n, d, s = exp["table"], exp["n"], exp["d"], exp["set"]
    bases = [b for b, v in table.items() if v != INF]
    fixed = 0
    for e in reversed(range(n)):
        if (s >> e) & 1 and _rank(bases, fixed | 1 << e) > _rank(bases,
                                                                 fixed):
            fixed |= 1 << e
    rest = ((1 << n) - 1) ^ s
    m, r, ref = _minor(table, n, d, rest, fixed, d - fixed.bit_count())
    return _expect_code(code, 0) or _tables_differ(out, m, r, ref)


def check_dual(chk, exp, code, out):
    n = exp["n"]
    full = (1 << n) - 1
    dual = {full ^ b: v for b, v in exp["table"].items()}
    return _expect_code(code, 0) or _tables_differ(out, n, n - exp["d"],
                                                   dual)


def _cells_of(out):
    return [tuple(sorted(_mask(b) for b in c["bases"])) for c in out]


def check_cells(chk, exp, code, out):
    """Same cells as the brute-force complex; each witness lands in its
    cell; a cell is flagged maximal iff no other cell contains it."""
    bad = _expect_code(code, 0)
    if bad:
        return bad
    table, n = exp["table"], exp["n"]
    ref = cell_complex_bruteforce(ValuatedMatroid(n, exp["d"], table))
    cells = _cells_of(out["cells"])
    if len(set(cells)) != len(cells):
        return "a cell is listed twice"
    if set(cells) != ref:
        return "%d cells, brute force finds %d (%d in common)" % (
            len(cells), len(ref), len(ref & set(cells)))
    sets = [set(c) for c in cells]
    for c, cell, mine in zip(out["cells"], cells, sets):
        x = [_scalar(v) for v in c["witness"]]
        if tuple(initial_bases(table, x)) != cell:
            return "witness %r is not in its cell" % (c["witness"],)
        maximal = not any(mine < other for other in sets)
        if c["maximal"] != maximal:
            return "cell %r has the wrong maximal flag" % (c["bases"],)
    return None


def check_vertices(chk, exp, code, out):
    """One vertex per connected brute-force cell, each one a point whose
    initial matroid is exactly that cell."""
    bad = _expect_code(code, 0)
    if bad:
        return bad
    table, n = exp["table"], exp["n"]
    ref = cell_complex_bruteforce(ValuatedMatroid(n, exp["d"], table))
    want = {c for c in ref if _connected(c, n)}
    cells = _cells_of(out["vertices"])
    if len(cells) != len(want) or set(cells) != want:
        return "%d vertices, brute force finds %d connected cells" % (
            len(cells), len(want))
    for v, cell in zip(out["vertices"], cells):
        y = [_scalar(s) for s in v["point"]]
        if tuple(initial_bases(table, y)) != cell:
            return "vertex %r does not pin down its cell" % (v["point"],)
    return None


def check_presentation(chk, exp, code, out):
    "verify-presentation and in-presentation-space: ok iff in the fiber."
    want = chk.stiefel(exp["points"]) == exp["table"]
    if want != exp["ok"]:
        return "generator and checker disagree on the expected answer"
    bad = _expect_code(code, 0 if want else 1)
    if bad:
        return bad
    if out.get("ok") is not want:
        return "ok %r, expected %r" % (out.get("ok"), want)
    if want and out.get("violations"):
        return "a presentation is reported with violations"
    return None


def _presents(chk, exp, points):
    rows = [[_scalar(s) for s in p] for p in points]
    if len(rows) != exp["d"]:
        return "%d points, expected the rank %d" % (len(rows), exp["d"])
    if chk.stiefel(rows) != exp["table"]:
        return "points do not present the valuation"
    return None


def check_distinguished(chk, exp, code, out):
    "The apex multiset is a presentation: rank-many rows spanning it."
    return _expect_code(code, 0) or _presents(chk, exp, out["apices"])


def check_sample(chk, exp, code, out):
    return _expect_code(code, 0) or _presents(chk, exp, out["points"])


def check_initial(chk, exp, code, out):
    got = sorted(_mask(b) for b in out["bases"])
    return _expect_code(code, 0) or (
        None if got == exp["bases"] else "initial matroid differs")


def _transversal_bases(sets, n, d):
    "Bases of the transversal matroid of the set system, by matching."
    def matchable(b):
        owner = {}

        def augment(e, seen):
            for i, a in enumerate(sets):
                if i in seen or not (a >> e) & 1:
                    continue
                seen.add(i)
                if i not in owner or augment(owner[i], seen):
                    owner[i] = e
                    return True
            return False

        return all(augment(e, set()) for e in range(n) if (b >> e) & 1)

    return sorted(b for b in _subsets((1 << n) - 1, d) if matchable(b))


def _is_cyclic_flat(bases, n, f):
    r = _rank(bases, f)
    outside = [e for e in range(n) if not (f >> e) & 1]
    inside = [e for e in range(n) if (f >> e) & 1]
    return (all(_rank(bases, f | 1 << e) > r for e in outside)
            and all(_rank(bases, f ^ 1 << e) == r for e in inside))


def check_transversal(chk, exp, code, out):
    """Accepted: the presentation's matchings give back the bases.
    Rejected: the certificate family breaks the rank inequality."""
    bases, n, d = exp["bases"], exp["n"], exp["d"]
    if out.get("transversal") is True:
        bad = _expect_code(code, 0)
        if bad:
            return bad
        sets = [_mask(s) for s in out["presentation"]["sets"]]
        if len(sets) != d or _transversal_bases(sets, n, d) != bases:
            return "presentation does not give back the matroid"
        return None
    bad = _expect_code(code, 1)
    if bad:
        return bad
    fam = [_mask(f) for f in out["certificate"]["family"]]
    if not all(_is_cyclic_flat(bases, n, f) for f in fam):
        return "certificate family has a set that is not a cyclic flat"
    total = 0
    for i in range(1, len(fam) + 1):
        for sub in combinations(fam, i):
            u = 0
            for f in sub:
                u |= f
            total += (-1 if i % 2 else 1) * _rank(bases, u)
    inter = (1 << n) - 1
    for f in fam:
        inter &= f
    if total <= -_rank(bases, inter):
        return "certificate family satisfies the rank inequality"
    return None


CHECKS = {
    "valuation": check_valuation,
    "dual-valuation": check_dual_valuation,
    "digraph": check_digraph,
    "pluecker-ok": check_pluecker_ok,
    "pluecker-violation": check_pluecker_violation,
    "predicate": check_predicate,
    "restrict": check_restrict,
    "contract": check_contract,
    "dual": check_dual,
    "cells": check_cells,
    "vertices": check_vertices,
    "presentation": check_presentation,
    "distinguished": check_distinguished,
    "sample": check_sample,
    "initial": check_initial,
    "transversal": check_transversal,
}
