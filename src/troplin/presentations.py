"""Presentations of valuated matroids: regions, apices, the presentation space.

A presentation is a d-tuple of points of the tropical linear space whose
min-plus row span recovers the valuation, a point of the fiber of the
tropical Stiefel map, so membership is one stiefel image compared with
the valuation.  The verifier counts points in escape regions against
coranks of flats; the distinguished apices are the vertices of connected
maximal cells of the contractions at cyclic flats, and
sample_presentation jitters them.
"""

import random
from collections import Counter
from fractions import Fraction

from .errors import (NotTransversalFacets, OutOfDomain, PointOutsideL,
                     TroplinError, WrongArity)
from .linprog import distinct_rows, solve_lp
from .matroid import Matroid
from .trop import INF, check_point, integer_scaled, lowered, relsupp, stiefel
from .util import MAX_SLOTS, BoundedMemo, bits, elems, list1
from .valuated import face_witness, maximal_cells, membership, v_contract
from . import transversal


def _escape_region(vm, cell, flat):
    """The escape-region LP of `flat` on the cell, on integers: the
    scale D of the face point xw and its table (face_witness), xw times
    D, each element's component in the face (Matroid.polytope_face),
    the component count c, the region rows (one per distinct constraint)
    in the component shifts t_0..t_{c-2}, the last one gauged to 0, and
    a margin s, all times D (moving no pivot and no sign of the
    optimum), and the objective s.  It answers at the full flat too,
    which verify_presentation skips."""
    face = cell.matroid.polytope_face(flat)
    comps = face.connected_components()
    (scale, xs), vals = face_witness(vm, cell, flat)
    c = len(comps)
    where = {e: i for i, k in enumerate(comps) for e in bits(k)}
    b0 = face.bases[0]
    ranks = [(b0 & k).bit_count() for k in comps]
    w0 = vals[b0]
    region = []
    for b, v in vals.items():
        if b in face.baseset:
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
    cell of the face at the flat, y = xw + t, t constant on each face
    component.  On the gaps z - xw, j must attain the least gap low[K]
    of its own component K, and then the rows saying that j attains the
    minimum are t_K' - t_K <= low[K'] - low[K], one per other component
    K' that z meets, the same for every such j of K.  Each face
    component lies wholly on or off the flat.  If a component on the
    flat reaches the least gap of all, t = 0 satisfies those rows and
    leaves the margin s > 0 (off-face bases are strictly above the face
    ones at xw), so z is outside with no LP: at the full flat of a
    connected cell, every z.  Else one small exact LP maximizing s runs
    per component on the flat that z meets.  Rows go to a larger scale
    only if z's denominators do not divide D."""
    scale, xs, where, c, rows, cap = region
    common, zs = integer_scaled(z, scale)
    up = common // scale
    if up > 1:
        xs = [v * up for v in xs]
        rows = [(coeffs, rhs * up) for coeffs, rhs in rows]
    low = {}
    for k, v in enumerate(zs):
        if v is not INF:
            i, gap = where[k], v - xs[k]
            if i not in low or gap < low[i]:
                low[i] = gap
    on_flat = sorted({where[j] for j in bits(flat)}.intersection(low))
    least = min(low.values())  # z, checked, has a finite coordinate
    if any(low[i] == least for i in on_flat):
        return False
    for i in on_flat:
        cons = list(rows)
        for other, gap in low.items():
            if other != i:
                coeffs = [0] * c
                if other < c - 1:
                    coeffs[other] = 1
                if i < c - 1:
                    coeffs[i] = -1
                cons.append((coeffs, gap - low[i]))
        status, value, _ = solve_lp(c, cap, cons)
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

    A maximal cell has the support's components (maximal_cells), so a
    support of two components or more has no connected maximal cell to
    count on: its verdict is the definition, stiefel(points) == vm, an
    OutOfDomain read as false.  On a connected support, for every
    maximal cell, with vertex v (its witness, up to a constant that
    moves no relative support): at most cork(F) points may have relative
    support from v covering the flat F, and for cyclic F the
    escape-region count must equal cork(F) exactly, which holds at
    F = E with no region built: no point is in it (_in_region) and
    cork(E) = 0.  A support rs is a flat of the cell, as v + eps e_rs
    lies in the space (tropical convexity), so the first count runs only
    at the meets of the supports, in transversal.covering_violations.
    Each point is placed in or out of an escape region at the region's
    face point when its least gap there lies on the flat, and else by
    one LP per face component on the flat (_in_region).
    Returns {"ok": bool, "violations": [...]}.
    """
    if len(points) != vm.d:
        raise WrongArity(witness={"expected": vm.d, "got": len(points)})
    uv = _loop_and_coloop_free(vm)
    points = [check_point(p) for p in points]
    for i, p in enumerate(points):
        if not membership(vm, p):  # also refuses a wrong length
            raise PointOutsideL(witness={"index": i + 1})
    if len(uv.connected_components()) > 1:
        try:
            return {"ok": stiefel(points) == vm, "violations": []}
        except OutOfDomain:
            return {"ok": False, "violations": []}
    violations = []
    for cell in maximal_cells(vm):
        m = cell.matroid
        supports = Counter(relsupp(cell.witness, p) for p in points)
        for f, count in transversal.covering_violations(m, supports):
            violations.append(
                {"cell": [list1(b) for b in m.bases],
                 "flat": list1(f), "kind": "sigma0",
                 "count": count, "bound": m.corank(f)})
        for f in m.cyclic_flats():
            if f == 0 or f == m.full:
                continue  # d points at 0, none at E: cork(0) = d, cork(E) = 0
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
# plus stored bases; their total stays within MAX_SLOTS.
_MEMO = BoundedMemo()


def distinguished(vm):
    """All distinguished matroids of the valuation, with apices: the
    list of DistinguishedEntry sorted by (flat, bases).

    Walks the contraction at each cyclic flat F of the support whose
    own support is connected, so that its maximal cells are all
    connected (maximal_cells); those M with positive empty-flat
    multiplicity contribute, the vertex M's witness less its minimum (M
    fixes its point up to a constant), the apex that extended by inf on
    F.  Multiplicities always sum to the rank, and the apices present
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
        if len(vf.underlying().connected_components()) > 1:
            continue
        coords = tuple(elems(vm.full ^ f))
        for cell in maximal_cells(vf):
            m = cell.matroid
            t = m.cyclic_flats()[0]  # m has no loops: vf contracts a flat
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
    """Keep plain under key in _MEMO at a cost of its key slots plus
    stored bases, within MAX_SLOTS: the oldest answers are evicted
    first, and an answer costing more than that alone is not kept."""
    cost = len(key[3]) + sum(len(p[2]) for p in plain)
    _MEMO.keep(key, cost, plain, MAX_SLOTS)


def sample_presentation(vm, seed=0):
    """A presentation of vm: the apices for seed 0, a jittered one else.

    Jitter moves each point away from its apex along a random independent
    flat of its cell; up to 25 candidates are rejection-tested by the
    definition, stiefel(trial) == vm, falling back to the apices.  A
    trial has the apices' infinite coordinates, so it is in the domain
    of stiefel.
    Assumes vm is a valuated matroid (see check_pluecker).
    """
    entries = distinguished(vm)
    if seed:
        rng = random.Random(seed)
        indeps = [e.matroid.independent_flats() for e in entries]
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
            if stiefel(trial) == vm:
                return trial
    return apices(entries)
