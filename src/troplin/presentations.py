"""Presentations of valuated matroids: regions, apices, the presentation space.

A presentation is a d-tuple of points of the tropical linear space whose
min-plus row span recovers the valuation.  The verifier counts points in
escape regions against coranks of flats; the distinguished apices are the
vertices of connected maximal cells of the contractions at cyclic flats.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from .errors import (AllInfinite, NotTransversalFacets, PointOutsideL,
                     TroplinError, WrongArity)
from .linprog import distinct_rows, solve_lp
from .matroid import Matroid
from .trop import INF, check_point, integer_scaled, lowered, relsupp
from .util import bits, elems, list1, mask_of
from .valuated import (MAX_SLOTS, _face, face_witness, maximal_cells,
                       membership, v_contract)
from . import transversal


def _escape_region(vm, cell, flat):
    """The escape-region LP of `flat` on the cell, with no face matroid
    (valuated._face), on integers: the scale D of the face point xw and
    its table (face_witness), xw times D, each element's face component,
    the component count c, the region rows (one per distinct constraint)
    in the component shifts t_0..t_{c-2}, the last one gauged to 0, and
    a margin s, all times D (moving no pivot and no sign of the
    optimum), and the objective s."""
    _, face, comps = _face(cell.matroid, flat)
    (scale, xs), vals = face_witness(vm, cell, flat)
    c = len(comps)
    where = {e: i for i, k in enumerate(comps) for e in bits(k)}
    ranks = [(face[0] & k).bit_count() for k in comps]
    w0 = vals[face[0]]
    onface = set(face)
    region = []
    for b, v in vals.items():
        if b in onface:
            continue
        coeffs = [0] * c
        for i in range(c - 1):
            coeffs[i] = (b & comps[i]).bit_count() - ranks[i]
        coeffs[c - 1] = 1
        region.append((coeffs, v - w0))
    cap = [0] * c
    cap[c - 1] = 1
    region.append((cap, scale))
    return scale, xs, where, c, distinct_rows(region), cap


def _in_region(region, flat, z):
    """Is the checked point z inside the escape region of `flat`, on the
    rows of _escape_region?  It is unless some finite coordinate j of z
    on the flat can attain the minimum of z - y for a y interior to the
    cell of the face at the flat: one small exact LP maximizing s per
    such j, whose extra rows, saying that j attains the minimum,
    collapse to one per pair of components.  A finite z[k] in j's own
    component with z[k] - z[j] < xw[k] - xw[j] rules j out with no LP at
    all.  Rows go to a larger scale only if z's denominators do not
    divide D."""
    scale, xs, where, c, rows, cap = region
    common, zs = integer_scaled(z, scale)
    up = common // scale
    if up > 1:
        xs = [v * up for v in xs]
        rows = [(coeffs, rhs * up) for coeffs, rhs in rows]
    for j in bits(flat):
        if zs[j] == INF:
            continue
        cons = []
        for k in range(len(zs)):
            if k == j or zs[k] == INF:
                continue
            coeffs = [0] * c
            ck, cj = where[k], where[j]
            if ck < c - 1:
                coeffs[ck] += 1
            if cj < c - 1:
                coeffs[cj] -= 1
            cons.append((coeffs, (zs[k] - zs[j]) - (xs[k] - xs[j])))
        # these rows leave s free, so none repeats a region row
        cons = distinct_rows(cons)
        if cons is None:
            continue
        status, value, _ = solve_lp(c, cap, rows + cons)
        if status == "optimal" and value > 0:
            return False
    return True


def _loop_and_coloop_free(vm):
    "The support of vm, refused if it has a loop or a coloop."
    uv = vm.underlying()
    bad = uv.loops() | uv.coloops()
    if bad:
        raise TroplinError("support must be loop- and coloop-free",
                           witness=list1(bad))
    return uv


def verify_presentation(vm, points):
    """Check the point-counting conditions that characterize presentations.

    For every connected maximal cell, with vertex v (its witness, up to
    a constant that moves no relative support): at most cork(F) points
    may have relative support from v covering the flat F, and for cyclic
    F the escape-region count must equal cork(F) exactly.  A support rs
    is a flat of the cell, as v + eps e_rs lies in the space (tropical
    convexity), so the first count runs only at the meets of the
    supports, in transversal.covering_violations.
    Returns {"ok": bool, "violations": [...]}.
    """
    if len(points) != vm.d:
        raise WrongArity(witness={"expected": vm.d, "got": len(points)})
    _loop_and_coloop_free(vm)
    points = [check_point(p) for p in points]
    for i, p in enumerate(points):
        if not membership(vm, p):  # also refuses a wrong length
            raise PointOutsideL(witness={"index": i + 1})
    violations = []
    for cell in maximal_cells(vm):
        m = cell.matroid
        if len(m.connected_components()) != 1:
            continue
        supports = Counter(relsupp(cell.witness, p) for p in points)
        for f, count in transversal.covering_violations(m, supports):
            violations.append(
                {"cell": [list1(b) for b in m.bases],
                 "flat": list1(f), "kind": "sigma0",
                 "count": count, "bound": m.corank(f)})
        for f in m.cyclic_flats():
            if f == 0:
                continue  # all d points count there, and cork(0) = d
            region = _escape_region(vm, cell, f)
            count = sum(1 for p in points if _in_region(region, f, p))
            if count != m.corank(f):
                violations.append(
                    {"cell": [list1(b) for b in m.bases],
                     "flat": list1(f), "kind": "sigmainf",
                     "count": count, "bound": m.corank(f)})
    return {"ok": not violations, "violations": violations}


def _first_nontransversal_cell(vm):
    "The first maximal cell failing the counting conditions, else None."
    for cell in maximal_cells(vm):
        if transversal._counting_violation(cell.matroid) is not None:
            return cell


def is_transversal_valuated(vm):
    "A valuated matroid is transversal iff all its maximal cells are."
    return _first_nontransversal_cell(vm) is None


class DistinguishedEntry:
    """One distinguished matroid with its apex.

    flat: cyclic flat of the support (global mask); matroid: connected
    maximal cell of the contraction, on the remaining elements; coords:
    global labels of those elements; multiplicity: how many presentation
    points it accounts for; vertex: the cell's witness less its minimum;
    apex: the vertex, extended by inf on flat.
    """

    def __init__(self, flat, matroid, coords, multiplicity, vertex, apex):
        self.flat = flat
        self.matroid = matroid
        self.coords = coords
        self.multiplicity = multiplicity
        self.vertex = vertex
        self.apex = apex

    def __repr__(self):
        return "DistinguishedEntry(flat=%r, mult=%d, %r)" % (
            list1(self.flat), self.multiplicity, self.matroid)


def apices(entries):
    "The apex multiset of distinguished entries, one copy per multiplicity."
    return [e.apex for e in entries for _ in range(e.multiplicity)]


# distinguished's answers by canonical valuation, oldest first, as plain
# tuples (no valuation, cell or matroid), with their cost in key slots
# plus stored bases; _memo_size, their total, stays within MAX_SLOTS.
_MEMO = {}
_memo_size = 0


def distinguished(vm):
    """All distinguished matroids of the valuation, with apices: the
    list of DistinguishedEntry sorted by (flat, bases).

    Scans the cyclic flats F of the support; for each, the connected
    maximal cells M of the contraction at F with positive empty-flat
    multiplicity contribute; the vertex is M's witness less its minimum
    (M fixes its point up to a constant), the apex that extended by inf
    on F.  Multiplicities always sum to the rank, and the apices present
    vm.  Assumes vm is a valuated matroid (see check_pluecker).

    The answer is kept in _MEMO under vm.canonical(), within MAX_SLOTS
    (_remember), so a valuation met again, in any spelling, is rebuilt
    from plain data with no walk.  A refusal is never kept, so it is
    found again on every call.
    """
    key = vm.canonical()
    hit = _MEMO.get(key)
    if hit is not None:
        return [DistinguishedEntry(f, Matroid(n, bases, check=False), *rest)
                for f, n, bases, *rest in hit[1]]
    uv = _loop_and_coloop_free(vm)
    bad = _first_nontransversal_cell(vm)
    if bad is not None:
        raise NotTransversalFacets(
            "a maximal cell is not transversal",
            witness={"cell": [list1(b) for b in bad.matroid.bases],
                     "certificate": transversal.is_transversal(
                         bad.matroid)[1]})
    entries = []
    for f in uv.cyclic_flats():
        if f == uv.full:
            continue
        vf = vm if f == 0 else v_contract(vm, f)
        coords = tuple(elems(vm.full ^ f))
        for cell in maximal_cells(vf):
            m = cell.matroid
            if len(m.connected_components()) != 1:
                continue
            t = m.cyclic_flats().tau(0)
            if t <= 0:
                continue
            v = lowered(*cell.scaled)
            apex = [INF] * vm.n
            for i, g in enumerate(coords):
                apex[g] = v[i]
            entries.append(DistinguishedEntry(
                f, m, coords, t, v, tuple(apex)))
    total = sum(e.multiplicity for e in entries)
    if total != vm.d:
        raise TroplinError("apex multiplicities do not sum to the rank",
                           witness={"total": total, "rank": vm.d})
    entries.sort(key=lambda e: (e.flat, e.matroid.bases))
    _remember(key, tuple((e.flat, e.matroid.n, e.matroid.bases, e.coords,
                          e.multiplicity, e.vertex, e.apex)
                         for e in entries))
    return entries


def _remember(key, plain):
    """Keep plain under key in _MEMO, evicting the oldest answers while
    the key slots plus stored bases pass MAX_SLOTS; an answer costing
    more than that alone is not kept."""
    global _memo_size
    cost = len(key[3]) + sum(len(p[2]) for p in plain)
    if cost > MAX_SLOTS:
        return
    _MEMO[key] = cost, plain
    _memo_size += cost
    while _memo_size > MAX_SLOTS:
        _memo_size -= _MEMO.pop(next(iter(_MEMO)))[0]


def presentation_fan_member(m, points):
    """Do these points fill the free slots of a presentation of m?

    There are tau(empty) slots; each point's relative support from the
    origin must be an independent flat, and those flats together with
    the other cyclic flats, each weighted by its positive tau, must pass
    the covering counts (transversal.covering_violations).  That is the
    set-presentation test on the complements: the pseudopresentation
    half holds once no tau is negative, since an independent flat has
    an empty coclosure and a cyclic flat is its own, and a negative tau
    fails the counts: at a largest cyclic flat F with tau(F) < 0, the
    positive tau above F sum to cork(F) - tau(F) > cork(F), all of them
    on flats containing their meet, whose corank is at most cork(F).  It
    puts each point in the tropical linear space of m valued 0 with no
    circuit scan: a circuit C is not inside the support g, and meeting
    E - g in one element e would put e in cl(C - e), inside g, so the
    least coordinate on C is attained twice.
    """
    cf = m.cyclic_flats()
    t = cf.tau(0)
    if len(points) != t:
        raise WrongArity(witness={"expected": t, "got": len(points)})
    weights = Counter()
    for p in points:
        try:
            p = check_point(p, m.n)
        except AllInfinite:
            return False
        # the relative support from the origin: coordinates above the least
        _, vs = integer_scaled(p)
        low = min(vs)
        g = mask_of(j for j, v in enumerate(vs) if v > low)
        if not m.independent(g) or not m.is_flat(g):
            return False
        weights[g] += 1
    for f, w in cf.transform.items():
        if f and w > 0:
            weights[f] = w
    return not transversal.covering_violations(m, weights)


def presentation_space_member(vm, points):
    """Is the tuple of points a presentation, decided by the apex geometry?

    Some assignment of the points to the distinguished entries (respecting
    multiplicities) must restrict-and-translate into each entry's fan.
    """
    if len(points) != vm.d:
        raise WrongArity(witness={"expected": vm.d, "got": len(points)})
    points = [check_point(p, vm.n) for p in points]
    return _fits_distinguished(distinguished(vm), points)


def _fits_distinguished(entries, points):
    """The assignment search of presentation_space_member, on checked
    points of the right arity (only inf is a float) and the valuation's
    distinguished entries."""
    infmask = [mask_of(j for j, v in enumerate(p) if isinstance(v, float))
               for p in points]
    if any(all(e.flat & ~im for e in entries) for im in infmask):
        return False
    return _assign(entries, points, infmask, {}, 0,
                   frozenset(range(len(points))))


def _assign(entries, points, infmask, local, i, remaining):
    """Can the points in `remaining` fill entries i, i+1, ... by their
    multiplicities?  local[i, j] is point j translated to entry i
    (_translated), made once per (entry, point) in one search.  Not a
    closure: a recursive closure would hold the request's entries in a
    reference cycle until the cyclic GC runs.  A candidate is inf on the
    entry's flat and finite somewhere, so finite on its coordinates."""
    if i == len(entries):
        return True
    e = entries[i]
    cand = [j for j in remaining if e.flat & ~infmask[j] == 0]
    if len(cand) < e.multiplicity:
        return False
    for group in combinations(cand, e.multiplicity):
        for j in group:
            if (i, j) not in local:
                local[i, j] = _translated(e, points[j])
        if presentation_fan_member(e.matroid, [local[i, j] for j in group]) \
                and _assign(entries, points, infmask, local, i + 1,
                            remaining - set(group)):
            return True
    return False


def _translated(e, p):
    """The checked point p on the entry's coordinates less its vertex,
    subtracted on one integer scale: a Fraction per finite coordinate
    out, inf where p is inf."""
    k = len(e.coords)
    common, vs = integer_scaled([*e.vertex, *(p[g] for g in e.coords)])
    return tuple(v if v is INF else Fraction(v - vs[i], common)
                 for i, v in enumerate(vs[k:]))


def sample_presentation(vm, seed=0):
    """A presentation of vm: the apices for seed 0, a jittered one else.

    Jitter moves each point away from its apex along a random independent
    flat of its cell; candidates are rejection-tested by the assignment
    search of presentation_space_member, falling back to the apices.
    Assumes vm is a valuated matroid (see check_pluecker).
    """
    entries = distinguished(vm)
    if seed:
        rng = random.Random(seed)
        indeps = [[f for f in e.matroid.flats() if e.matroid.independent(f)]
                  for e in entries]
        for _ in range(25):
            trial = []
            for e, indep in zip(entries, indeps):
                for _ in range(e.multiplicity):
                    g = rng.choice(indep)
                    c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                    p = list(e.apex)
                    for i, gl in enumerate(e.coords):
                        if (g >> i) & 1:
                            p[gl] = e.apex[gl] + c
                    trial.append(tuple(p))
            if _fits_distinguished(entries, trial):
                return trial
    return apices(entries)
