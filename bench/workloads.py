"""Seeded request streams for the benchmark workloads.

A stream is a list of Request objects, fixed before any timing starts:
each one is a CLI command, its extra arguments and the JSON payload text
the program will see on stdin, plus what the checker needs to judge the
answer.  Inputs are built here from random matrices; valuations come
from this module's own brute-force minors, never from the fast paths
being measured.

Each workload is a template of slots with a fixed command and shape; a
stream is `reps` copies of the template, each filled with fresh random
entries, shuffled together.  So the seed changes every input and the
order, while the command mix and the (d, n) sizes stay the same, which
keeps run-to-run spread down.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

INF = float("inf")


class Request:
    """One CLI call: `troplin <command> <argv...>` with `text` on stdin.

    expect: what the checker compares the answer against (never shown
    to the program).  shape: (d, n) of the main input.  key: identity of
    the valuation (or whole payload) carried, for the repeat share.
    outcome: "ok", "false" (predicate expected false, exit 1), "error"
    (expected error, exit 2), or "either" (decided by the checker).
    """

    __slots__ = ("command", "argv", "text", "expect", "shape", "key",
                 "outcome")

    def __init__(self, command, payload, expect, shape, key=None,
                 outcome="ok", argv=()):
        self.command = command
        self.argv = list(argv)
        self.text = json.dumps(payload, sort_keys=True)
        self.expect = expect
        self.shape = shape
        self.key = key if key is not None else self.text
        self.outcome = outcome

    def describe(self):
        return "%s d=%d n=%d" % (self.command, self.shape[0], self.shape[1])


# ---------------------------------------------------------------- scalars

def scalar(v):
    return "inf" if v == INF else str(v)


def rand_entry(rng, inf_prob, top=8):
    "inf with probability inf_prob, else k or k/2 for k in 0..top."
    if rng.random() < inf_prob:
        return INF
    return Fraction(rng.randint(0, top), rng.choice((1, 2)))


def rand_matrix(rng, d, n, inf_prob, top=8):
    return [[rand_entry(rng, inf_prob, top) for _ in range(n)]
            for _ in range(d)]


def matrix_json(rows):
    return [[scalar(v) for v in row] for row in rows]


def key_of(mask):
    return ",".join(str(e + 1) for e in range(mask.bit_length())
                    if (mask >> e) & 1)


def valuation_json(n, d, table):
    return {"n": n, "rank": d, "sparse": False,
            "entries": {key_of(b): scalar(v)
                        for b, v in sorted(table.items())}}


def valuation_key(vjson):
    "Identity of a valuation payload, for the repeat share."
    return json.dumps(vjson["entries"], sort_keys=True)


def minors_table(rows):
    """Normalized tropical maximal minors of rows, or None if all are inf.

    The generator's own exact reference: entries are scaled to integers
    and each minor is a min-cost assignment by dynamic programming over
    column subsets, so inputs are built without the program's fast paths
    and much faster than with the permutation scan in troplin.oracle
    (which the checker uses).
    """
    d, n = len(rows), len(rows[0])
    scale = 1
    for r in rows:
        for v in r:
            if v != INF:
                scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [[None if v == INF else int(v * scale) for v in r] for r in rows]
    table = {}
    for cols in combinations(range(n), d):
        best = {0: 0}
        for row in ints:
            nxt = {}
            for used, cost in best.items():
                for k, c in enumerate(cols):
                    if (used >> k) & 1 or row[c] is None:
                        continue
                    key = used | 1 << k
                    if cost + row[c] < nxt.get(key, cost + row[c] + 1):
                        nxt[key] = cost + row[c]
            best = nxt
        total = best.get((1 << d) - 1)
        table[sum(1 << c for c in cols)] = INF if total is None else total
    finite = [v for v in table.values() if v != INF]
    if not finite:
        return None
    low = min(finite)
    return {b: (v if v == INF else Fraction(v - low, scale))
            for b, v in table.items()}


def in_domain(rng, d, n, inf_prob, loop_free=False, coloop_free=False,
              top=8):
    "Random in-domain matrix with its minors table, resampled until valid."
    while True:
        rows = rand_matrix(rng, d, n, inf_prob, top)
        table = minors_table(rows)
        if table is None:
            continue
        finite = [b for b, v in table.items() if v != INF]
        union, inter = 0, (1 << n) - 1
        for b in finite:
            union |= b
            inter &= b
        if loop_free and union != (1 << n) - 1:
            continue
        if coloop_free and inter:
            continue
        return rows, table


def trop_combination(rng, rows):
    "min_i (c_i + row_i) for random finite c: a point of the row span."
    coeffs = [Fraction(rng.randint(0, 6), 2) for _ in rows]
    n = len(rows[0])
    return [min((c + r[j] for c, r in zip(coeffs, rows) if r[j] != INF),
                default=INF) for j in range(n)]


def initial_bases(table, x):
    "Finite bases minimizing table[B] - x(B): the initial matroid at x."
    best = INF
    keep = []
    for b, v in sorted(table.items()):
        if v == INF:
            continue
        w = v - sum(x[e] for e in range(len(x)) if (b >> e) & 1)
        if w < best:
            best, keep = w, [b]
        elif w == best:
            keep.append(b)
    return keep


def elements(mask):
    return [e + 1 for e in range(mask.bit_length()) if (mask >> e) & 1]


# ----------------------------------------------------------------- minors

def minors_slot(rng, kind, d, n):
    p = rng.uniform(0.0, 0.25)  # share of infinite entries
    if kind == "stiefel":
        rows, table = in_domain(rng, d, n, p)
        return Request("stiefel", matrix_json(rows),
                       {"check": "valuation", "table": table, "n": n, "d": d},
                       (d, n))
    if kind == "stiefel-out-of-domain":
        k = rng.randint(1, d)
        rows = rand_matrix(rng, d, n, p)
        cols = rng.sample(range(n), n + 1 - k)
        for i in rng.sample(range(d), k):
            for j in cols:
                rows[i][j] = INF
        return Request("stiefel", matrix_json(rows),
                       {"check": "out-of-domain", "rows": matrix_json(rows)},
                       (d, n), outcome="error")
    if kind == "gammoid":
        # d non-sink vertices whose rows form the reduction matrix
        nonsinks = sorted(rng.sample(range(n), d))
        sinks = [j for j in range(n) if j not in nonsinks]
        edges = []
        red = []
        for i in nonsinks:
            row = [INF] * n
            row[i] = Fraction(0)
            for j in range(n):
                if j != i and rng.random() < 1 - p:
                    row[j] = Fraction(rng.randint(0, 8), rng.choice((1, 2)))
                    edges.append({"from": i + 1, "to": j + 1,
                                  "w": scalar(row[j])})
            red.append(row)
        payload = {"n": n, "sinks": [s + 1 for s in sinks], "edges": edges}
        return Request("gammoid", payload,
                       {"check": "dual-valuation", "rows": red,
                        "n": n, "d": n - d}, (n - d, n))
    if kind == "stable-intersect":
        apices = [[Fraction(rng.randint(0, 8), rng.choice((1, 2)))
                   for _ in range(n)] for _ in range(2)]
        full = (1 << n) - 1
        hyper = [valuation_json(n, n - 1, {full ^ (1 << i): a[i]
                                           for i in range(n)})
                 for a in apices]
        return Request("stable-intersect",
                       {"first": hyper[0], "second": hyper[1]},
                       {"check": "dual-valuation", "rows": apices,
                        "n": n, "d": n - 2}, (n - 2, n))
    if kind == "digraph-from-presentation":
        rows, table = in_domain(rng, d, n, p)
        return Request("digraph-from-presentation",
                       {"points": matrix_json(rows)},
                       {"check": "digraph", "table": table, "n": n, "d": d},
                       (d, n))

    rows, table = in_domain(rng, d, n, p)
    vjson = valuation_json(n, d, table)
    key = valuation_key(vjson)
    if kind == "check-pluecker":
        return Request("check-pluecker", vjson, {"check": "pluecker-ok"},
                       (d, n), key)
    if kind == "check-pluecker-broken":
        bad = _break_pluecker(table, n)
        vjson = valuation_json(n, d, bad)
        return Request("check-pluecker", vjson,
                       {"check": "pluecker-violation", "table": bad, "d": d},
                       (d, n), valuation_key(vjson),
                       outcome="false")
    if kind == "membership":
        y = trop_combination(rng, rows)
        return Request("membership",
                       {"valuation": vjson, "point": [scalar(v) for v in y]},
                       {"check": "predicate", "ok": True}, (d, n), key)
    if kind == "membership-outside":
        y = _outside_point(rng, table, n)
        return Request("membership",
                       {"valuation": vjson, "point": [scalar(v) for v in y]},
                       {"check": "predicate", "ok": False}, (d, n), key,
                       outcome="false")
    if kind == "dual":
        return Request("dual", vjson,
                       {"check": "dual", "table": table, "n": n, "d": d},
                       (d, n), key)
    if kind in ("restrict", "contract"):
        size = n - 2 if kind == "restrict" else rng.randint(1, 2)
        subset = sorted(rng.sample(range(n), size))
        mask = sum(1 << e for e in subset)
        return Request(kind, {"valuation": vjson,
                              "set": [e + 1 for e in subset]},
                       {"check": kind, "table": table, "n": n, "d": d,
                        "set": mask}, (d, n), key)
    raise ValueError("unknown minors slot %r" % kind)


def _break_pluecker(table, n):
    """Copy of table with one three-term relation broken on purpose.

    Picks the lex-first finite basis B, element i of B and finite basis
    D with i not in D and |D - B| >= 2; then (a, c) = (B - i, D + i) is a
    relation whose terms are all distinct table entries, and lowering
    table[B] below -table[D] makes its term the unique minimum.
    """
    finite = sorted(b for b, v in table.items() if v != INF)
    for b in finite:
        for i in range(n):
            if not (b >> i) & 1:
                continue
            for dd in finite:
                if (dd >> i) & 1 or (dd & ~b).bit_count() < 2:
                    continue
                bad = dict(table)
                bad[b] = -table[dd] - 1
                low = min(v for v in bad.values() if v != INF)
                return {k: (v if v == INF else v - low)
                        for k, v in bad.items()}
    raise ValueError("valuation too degenerate to break")


def _outside_point(rng, table, n):
    """A point whose relation at some circuit c = D + j has a unique
    minimum (the j term, 0; every other term >= 50), so it is outside."""
    finite = [b for b, v in sorted(table.items()) if v != INF]
    while True:
        dd = rng.choice(finite)
        outside = [j for j in range(n) if not (dd >> j) & 1]
        if outside:
            break
    j = rng.choice(outside)
    y = [Fraction(50 + rng.randint(0, 8))] * n
    y[j] = -table[dd]
    return y


# The two 4 x 10 Pluecker checks are the costliest slots (near a second on
# the reference machine); two per copy put the tail inside their class.
MINORS_TEMPLATE = (
    ("stiefel", 3, 7), ("stiefel", 3, 9), ("stiefel", 4, 8),
    ("stiefel", 4, 10), ("stiefel", 5, 9), ("stiefel", 5, 10),
    ("stiefel-out-of-domain", 4, 9),
    ("check-pluecker", 3, 8), ("check-pluecker", 3, 10),
    ("check-pluecker", 4, 9), ("check-pluecker", 5, 9),
    ("check-pluecker", 4, 10), ("check-pluecker", 4, 10),
    ("check-pluecker-broken", 4, 10),
    ("membership", 3, 7), ("membership", 4, 9), ("membership", 5, 9),
    ("membership-outside", 4, 8),
    ("dual", 3, 8), ("dual", 5, 9),
    ("restrict", 4, 9), ("contract", 4, 10), ("contract", 5, 9),
    ("stable-intersect", 0, 8), ("stable-intersect", 0, 10),
    ("gammoid", 3, 9), ("gammoid", 4, 10),
    ("digraph-from-presentation", 4, 8),
    ("digraph-from-presentation", 5, 9),
)


def minors(rng):
    return [minors_slot(rng, kind, d, n) for kind, d, n in MINORS_TEMPLATE]


# ------------------------------------------------------------ subdivision

def perturb_entry(rng, points):
    "Raise one finite entry of one random row by k/2, k in 1..4."
    row = points[rng.randrange(len(points))]
    row[rng.choice([j for j, v in enumerate(row) if v != INF])] += Fraction(
        rng.randint(1, 4), 2)


def presentation_request(command, points, table, vjson, d, n):
    "Is `points` a presentation of the valuation?  Expected: its minors."
    expect_ok = minors_table(points) == table
    return Request(command,
                   {"valuation": vjson, "points": matrix_json(points)},
                   {"check": "presentation", "ok": expect_ok,
                    "table": table, "points": points},
                   (d, n), valuation_key(vjson),
                   outcome="ok" if expect_ok else "false")


# finite entries k/2 for k up to this give nearly generic valuations,
# whose subdivisions (and so request costs) vary least
SUBDIVISION_TOP = 40


def subdivision_slot(rng, kind, d, n):
    if kind == "cells-loop":
        while True:
            rows = rand_matrix(rng, d, n, 0.0, SUBDIVISION_TOP)
            j = rng.randrange(n)
            for r in rows:
                r[j] = INF
            table = minors_table(rows)
            if table is not None:
                break
        vjson = valuation_json(n, d, table)
        return Request("cells", vjson,
                       {"check": "loop-error", "table": table, "n": n},
                       (d, n), valuation_key(vjson),
                       outcome="error")
    rows, table = in_domain(rng, d, n, 0.0, loop_free=True,
                            coloop_free=True, top=SUBDIVISION_TOP)
    if kind in ("cells", "vertices"):
        vjson = valuation_json(n, d, table)
        return Request(kind, vjson,
                       {"check": kind, "table": table, "n": n, "d": d},
                       (d, n), valuation_key(vjson))
    points = [list(r) for r in rows]
    if kind == "verify-row-span":
        # another point of the row span replaces a row: still inside the
        # tropical linear space, so the full verifier runs
        points[rng.randrange(d)] = trop_combination(rng, rows)
    elif kind == "verify-entry":
        perturb_entry(rng, points)
    elif kind != "verify":
        raise ValueError("unknown subdivision slot %r" % kind)
    return presentation_request("verify-presentation", points, table,
                                valuation_json(n, d, table), d, n)


# Three cost tiers of four slots (about 0.9 s, 0.3 s and under 0.15 s
# on the reference machine), so the median lands inside the middle tier
# and the tail (10 requests beyond it) inside the top one.
SUBDIVISION_TEMPLATE = (
    ("cells", 2, 6), ("vertices", 2, 6), ("verify", 3, 6), ("cells", 2, 6),
    ("cells", 3, 5), ("vertices", 3, 5), ("cells", 3, 5), ("vertices", 3, 5),
    ("cells-loop", 2, 5), ("verify", 2, 5), ("verify-row-span", 2, 6),
    ("verify-entry", 3, 5),
)


def subdivision(rng):
    return [subdivision_slot(rng, kind, d, n)
            for kind, d, n in SUBDIVISION_TEMPLATE]


# ------------------------------------------------------------------ fiber

# (d, n, visits): the pool of one template copy, most popular first; the
# costly 4 x 8 valuations come three to a copy so the tail has many
FIBER_POOL = ((3, 6, 14), (2, 5, 10), (3, 7, 8), (4, 7, 6), (2, 6, 5),
              (3, 8, 3), (4, 8, 2), (4, 8, 2), (4, 8, 2))

# what the k-th visit to a pool valuation asks, cycling
FIBER_VISITS = ("member", "distinguished", "initial", "perturbed", "sample",
                "shift", "member", "initial", "perturbed")


def fiber_visit(rng, kind, rows, table, vjson, d, n):
    key = valuation_key(vjson)
    if kind in ("member", "shift", "perturbed"):
        points = [list(r) for r in rows]
        if kind == "shift":
            points = [[v + Fraction(rng.randint(-4, 4)) for v in r]
                      for r in points]
        elif kind == "perturbed":
            perturb_entry(rng, points)
        return [presentation_request("in-presentation-space", points, table,
                                     vjson, d, n)]
    if kind == "distinguished":
        return [Request("distinguished", vjson,
                        {"check": "distinguished", "table": table, "d": d},
                        (d, n), key)]
    if kind == "sample":
        seed = rng.randint(1, 10 ** 6)
        return [Request("sample-presentation", vjson,
                        {"check": "sample", "table": table, "d": d},
                        (d, n), key, argv=("--seed", str(seed)))]
    if kind == "initial":
        x = trop_combination(rng, rows)
        bases = initial_bases(table, x)
        matroid = {"n": n, "rank": d, "bases": [elements(b) for b in bases]}
        return [Request("initial",
                        {"valuation": vjson, "point": [scalar(v) for v in x]},
                        {"check": "initial", "bases": bases}, (d, n), key),
                Request("is-transversal-matroid", matroid,
                        {"check": "transversal", "bases": bases, "n": n,
                         "d": d}, (d, n), outcome="either")]
    raise ValueError("unknown fiber visit %r" % kind)


def fiber(rng):
    out = []
    for d, n, visits in FIBER_POOL:
        rows, table = in_domain(rng, d, n, rng.uniform(0.0, 0.2),
                                loop_free=True, coloop_free=True)
        vjson = valuation_json(n, d, table)
        for k in range(visits):
            kind = FIBER_VISITS[k % len(FIBER_VISITS)]
            out.extend(fiber_visit(rng, kind, rows, table, vjson, d, n))
    return out


WORKLOADS = {"minors": minors, "subdivision": subdivision, "fiber": fiber}


def build_stream(workload, seed, reps):
    """`reps` freshly filled copies of the workload's template, shuffled.

    Depends only on (workload, seed, reps); the same arguments always
    give the same request texts in the same order.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    make = WORKLOADS[workload]
    stream = []
    for _ in range(reps):
        stream.extend(make(rng))
    rng.shuffle(stream)
    return stream
