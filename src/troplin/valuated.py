"""Valuated matroids: exact min-plus Pluecker vectors and their subdivisions.

Entries live on d-subsets of {0..n-1} (as bitmasks) and are normalized so
the least finite entry is 0.  The induced regular subdivision of the basis
polytope is computed exactly: maximal cells by a descent-plus-wall-flip
walk, the full face complex by closing the maximal cells under facets
(one facet test, _facets, serves both).  The walk compares on integers:
the table pl(B) - x(B) of every support basis is kept on one integer
scale, starting from the valuation's own integers at x = 0, and each
descent step, wall flip and face point moves that table and the
witness x, itself integers on the table's scale (_moved).  Each cell
keeps its point and table.  _first_break reads off, as an integer
ratio, how far x moves along a flat before other bases tie the current
cell; neither the walk nor the faces build a Fraction.  Each wall is
crossed once: a cell reached across a wall skips the wall back.
"""

from fractions import Fraction
from itertools import combinations, repeat
from math import gcd, lcm

from .errors import (AllInfinite, EmptyIntersection, EmptySupport,
                     InconsistentCell, InfiniteBase, NotAMatroid,
                     RankCollapse, TroplinError)
from .matroid import Matroid, circuit_blocks
from .trop import INF, check_point, integer_scaled
from .util import bits, ksubsets, list1, mask_of, slot_table, submasks


class ValuatedMatroid:
    """Dense table of min-plus Pluecker coordinates.

    entries[b] / den is pl(b), and d-sets left out are INF.  With den
    given, entries are ints or INF; without, ints, Fractions or INF,
    scaled by the lcm of their denominators.  The constructor is the
    one place that normalizes: ints[b] / den is pl(b), with the least
    finite entry 0 and den reduced by the gcd of den and the entries
    less their minimum, so sums of entries compare on integers and
    (den, ints) is the same for every spelling of one valuation:
    canonical() reads it, for equality, hashing and the memo of
    presentations.distinguished.  Keys are checked, and ints laid out in
    slot order, through the shape's util.slot_table, kept as slots; a
    caller holding that table already (jsonio.parse_valuated) passes it.
    table is the Fraction view of ints, built on first use, for the
    library API.  underlying() checks that the support is a matroid;
    check_pluecker() checks that and the tropical Pluecker relations.
    The other views kept are those a request reuses: underlying() and
    maximal_cells().
    """

    def __init__(self, n, d, entries, den=None, slots=None):
        if slots is None:
            slots = slot_table(n, d)
        if not slots.maskset.issuperset(entries):
            raise ValueError("entry key is not a %d-subset mask" % d)
        raw = map(entries.get, slots.masks, repeat(INF))
        if den is None:
            den, raw = integer_scaled(raw)
        else:
            raw = list(raw)
        finite = [v for v in raw if v != INF]
        if not finite:
            raise AllInfinite("no finite Pluecker entry")
        low = min(finite)
        g = gcd(den, *(v - low for v in finite))
        if low or g != 1:
            den //= g
            raw = [v if v == INF else (v - low) // g for v in raw]
        ints = dict(zip(slots.masks, raw))
        self.n = n
        self.d = d
        self.full = (1 << n) - 1
        self.den = den
        self.ints = ints
        self.slots = slots
        self._table = None
        self.support = tuple(b for b, v in ints.items() if v != INF)
        self._underlying = None
        self._maxcells = None

    @property
    def table(self):
        if self._table is None:
            den = self.den
            self._table = {b: (v if v == INF else Fraction(v, den))
                           for b, v in self.ints.items()}
        return self._table

    def underlying(self):
        if self._underlying is None:
            self._underlying = Matroid(self.n, self.support, check=True)
        return self._underlying

    def canonical(self):
        """(n, d, den, the entries in slot order): one value per
        valuation, whatever its spelling or additive shift."""
        return self.n, self.d, self.den, tuple(self.ints.values())

    def __eq__(self, other):
        return (isinstance(other, ValuatedMatroid)
                and self.canonical() == other.canonical())

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        return "ValuatedMatroid(n=%d, d=%d, %d finite entries)" % (
            self.n, self.d, len(self.support))


class SubdivisionCell:
    """A cell of the subdivision: its matroid, whether it is maximal,
    and a witness point x whose initial matroid it is, with its table.
    scaled is (common, xs) with x = xs / common, and vals[b] / common is
    pl(b) - x(b) for each support basis b, on integers (_moved).  Tables
    are never mutated, so cells may share one.  The Fraction tuple
    witness is built on first read, since most witnesses of a walk are
    never read."""

    def __init__(self, matroid, scaled, vals, is_maximal):
        self.matroid = matroid
        self.scaled = scaled
        self.vals = vals
        self.is_maximal = is_maximal
        self._witness = None

    @property
    def witness(self):
        if self._witness is None:
            common, xs = self.scaled
            self._witness = tuple(Fraction(v, common) for v in xs)
        return self._witness

    def __repr__(self):
        return "SubdivisionCell(%r, maximal=%r)" % (
            self.matroid, self.is_maximal)


def check_pluecker(vm):
    """Tropical Pluecker relations of the table, in two phases.

    Phase one checks that the support is a matroid (basis exchange, via
    underlying()).  Phase two checks the three-term relations: for every
    (d-2)-set S and i < j < k < l outside S, the least of
    pl(Sij) + pl(Skl), pl(Sik) + pl(Sjl) and pl(Sil) + pl(Sjk) is
    attained twice when finite.  Over a matroid support these imply
    every (d-1, d+1) relation (Dress-Wenzel 1992).  That loop runs on
    integers only, on one pair table per (d-2)-set and over the elements
    of its finite pairs, so its cost follows the support (see
    _three_term_violation).

    Returns (True, None), or (False, witness) where the witness names a
    (d-1, d+1)-set pair (a, c) whose minimum over j in c - a of
    pl(a + j) + pl(c - j) is finite and attained only once: the first
    violated relation the check meets, read off the failure in hand.
    An exchange failure (b1, b2, e) gives a = b1 - e, c = b2 + e, whose
    only finite term is j = e: no b1 - e + f with f in b2 - b1 is in
    the support.
    """
    try:
        vm.underlying()
    except NotAMatroid as exc:
        w = exc.witness
        return False, {"a": [x for x in w["b1"] if x != w["e"]],
                       "c": sorted(w["b2"] + [w["e"]])}
    witness = _three_term_violation(vm.n, vm.d, vm.ints)
    return witness is None, witness


def _three_term_violation(n, d, table):
    """The first failing three-term relation, checked on integers only,
    as the witness {"a", "c"} of the pair (S + i, S + jkl), whose three
    terms are the relation's three sums; None if every relation holds.

    table must be normalized (least entry 0, as ValuatedMatroid.ints
    is); it is read in place, with no copy.  INF is read as
    big = 2 * max(finite) + 1: a sum of two finite entries is below big,
    and a sum with an INF is at or above it.  So z = pl(Sil) + pl(Sjk)
    breaks the relation iff z < lo and z < big, or z > lo, lo < hi and
    lo < big, where lo <= hi are the other two sums.

    Each (d-2)-set S reads its pair table p, the values at S + ij, once,
    and the quadruples run on indices into p (_quadruples).  Only the
    elements of finite pairs at S can break a relation at S, since each
    sum covers all four of i, j, k, l: when p holds an INF, the scan
    runs on those elements alone, in the same order, with INF as big in
    their pair table, and skips S when there are fewer than four.  So
    the first failure met is the same as over every quadruple, and a
    sparse table costs about its support.
    """
    if n - d < 2:
        return None  # no (d-2)-set leaves four elements outside it
    big = 2 * max(v for v in table.values() if v != INF) + 1
    full = (1 << n) - 1
    for s in ksubsets(n, d - 2):
        rest = [1 << e for e in bits(full & ~s)]
        p = [table[s | a | b] for a, b in combinations(rest, 2)]
        if INF in p:
            live = 0
            for ab, v in zip(map(sum, combinations(rest, 2)), p):
                if v != INF:
                    live |= ab
            if live.bit_count() < 4:
                continue
            rest = [1 << e for e in bits(live)]
            p = [big if v == INF else v
                 for v in [table[s | a | b]
                           for a, b in combinations(rest, 2)]]
        for ij, kl, ik, jl, il, jk in _quadruples(len(rest)):
            x = p[ij] + p[kl]
            y = p[ik] + p[jl]
            z = p[il] + p[jk]
            lo, hi = (x, y) if x <= y else (y, x)
            if (z < big) if z < lo else (z > lo and lo < hi and lo < big):
                pairs = list(combinations(rest, 2))
                (i, j), (k, l) = pairs[ij], pairs[kl]
                return {"a": list1(s | i), "c": list1(s | j | k | l)}
    return None


QUADRUPLE_CACHE_MAX = 16
_QUADRUPLES = {}


def _quadruples(m):
    """(ij, kl, ik, jl, il, jk) for each i < j < k < l below m, in
    combinations order: the indices of its six pairs in the
    combinations order of the pairs below m.  Kept as a tuple for
    m <= QUADRUPLE_CACHE_MAX (1,820 quadruples at 16); larger m get a
    generator of the same tuples, since C(m, 4) outgrows memory within
    the slot limit."""
    quads = _QUADRUPLES.get(m)
    if quads is None:
        index = {ab: x for x, ab in enumerate(combinations(range(m), 2))}
        quads = ((index[i, j], index[k, l], index[i, k], index[j, l],
                  index[i, l], index[j, k])
                 for i, j, k, l in combinations(range(m), 4))
        if m <= QUADRUPLE_CACHE_MAX:
            quads = _QUADRUPLES[m] = tuple(quads)
    return quads


def membership(vm, y):
    """Does y lie in the tropical linear space cut out by vm?

    For every (d+1)-set c, the least finite y[j] + pl(c - j) over j in c
    must be attained twice.  Compared on integers, as in _values: the
    finite coordinates of y and the table times the lcm of den and
    their denominators; infinite coordinates take no part.
    """
    y = check_point(y, vm.n)
    finite = mask_of(j for j, v in enumerate(y) if v != INF)
    common, ys = integer_scaled(y, vm.den)
    scale = common // vm.den
    ints = vm.ints
    for c in ksubsets(vm.n, vm.d + 1):
        best = INF
        cnt = 0
        for j in bits(c & finite):
            t = ints[c ^ (1 << j)]
            if t == INF:
                continue
            t = ys[j] + t * scale
            if t < best:
                best = t
                cnt = 1
            elif t == best:
                cnt += 1
        if best != INF and cnt < 2:
            return False
    return True


def v_dual(vm):
    full = vm.full
    return ValuatedMatroid(vm.n, vm.n - vm.d,
                           {full ^ b: v for b, v in vm.ints.items()}, vm.den)


def v_restrict(vm, subset):
    """Restriction to `subset`, relabelled order-preserving, read at the
    lex-least extension of `subset` to a spanning set (_minor_at).
    Another choice shifts every entry by one constant, which
    normalization removes."""
    if subset == 0:
        raise RankCollapse("restriction to the empty set")
    return _minor_at(vm, subset, vm.underlying().greedy(subset,
                                                        vm.full ^ subset))


def v_contract(vm, subset):
    """Contraction of `subset`, relabelled order-preserving, read at the
    lex-least basis of `subset` as Matroid.contract picks it, with no
    dual built; the empty set comes back with no exchange check."""
    if subset == vm.full:
        raise RankCollapse("contraction of the full ground set")
    if subset == 0:
        return ValuatedMatroid(vm.n, vm.d, vm.ints, vm.den)
    return _minor_at(vm, vm.full ^ subset, vm.underlying().greedy(0, subset))


def _minor_at(vm, kept, fixed):
    """The minor on `kept` at the independent set `fixed` outside it:
    pl(b) for each support basis b with b - kept = fixed, keyed by
    b & kept relabelled, in one pass over the support."""
    pos = {e: i for i, e in enumerate(bits(kept))}
    entries = {}
    for b in vm.support:
        if b & ~kept == fixed:
            entries[mask_of(pos[e] for e in bits(b & kept))] = vm.ints[b]
    return ValuatedMatroid(len(pos), vm.d - fixed.bit_count(), entries,
                           vm.den)


def _values(vm, x):
    """(common, vals): vals[b] / common is pl(b) - x(b) for every support
    basis b, on integers, common the lcm of den and the denominators of
    x.  x must be finite.  Only initial_matroid runs it: the walk starts
    from the table at x = 0, ints itself, and moves it (_moved), and
    each cell keeps the table of its point."""
    common, xs = integer_scaled(x, vm.den)
    scale = common // vm.den
    vals = {}
    for b in vm.support:
        v = vm.ints[b] * scale
        for e in bits(b):
            v -= xs[e]
        vals[b] = v
    return common, vals


def _first_break(vals, m, flat, r):
    """(num, cnt), ties: the least (val(b) - val(m)) / (|b & flat| - r)
    over support bases b with |b & flat| > r, as the integer ratio
    num / cnt, or None, and the bases attaining it.  On the table
    (common, vals) of a point x, x may move by t = num / (cnt * common)
    on `flat` before another basis ties the cell m, and the ties are
    those bases.  r is the rank of `flat` in m, so no basis of m counts.
    The counts are positive, so candidates compare exactly."""
    m0 = vals[m.bases[0]]
    num, cnt = None, 1
    ties = []
    for b, v in vals.items():
        k = (b & flat).bit_count() - r
        if k <= 0:
            continue
        gap = (v - m0) * cnt
        if num is None or gap < num * k:
            num, cnt = v - m0, k
            ties = [b]
        elif gap == num * k:
            ties.append(b)
    return (None if num is None else (num, cnt)), ties


def _moved(vm, xs, common, vals, flat, num, cnt):
    """(xs', common', vals'): the point x = xs / common moved by
    t = num / (cnt * common) on `flat`, and its table from the table
    (common, vals) of x, all on integers.  On the scale common * cnt,
    x' is xs * cnt + num on the flat and the entry of b is
    v * cnt - num * |b & flat|.  Both are divided by q, the gcd of
    common * cnt / den and the coordinates of x' on that scale, so
    common' = common * cnt / q is the lcm of den and the denominators
    of x': the table equals _values(vm, x') and its integers do not
    grow along a walk."""
    scale = common * cnt
    xs = [v * cnt + num if (flat >> e) & 1 else v * cnt
          for e, v in enumerate(xs)]
    q = gcd(scale // vm.den, *xs)
    return (tuple(v // q for v in xs), scale // q,
            {b: (v * cnt - num * (b & flat).bit_count()) // q
             for b, v in vals.items()})


def _lowest(n, vals):
    "The matroid of the bases of least value in a table vals."
    best = min(vals.values())
    return Matroid(n, [b for b, v in vals.items() if v == best], check=False)


def initial_matroid(vm, x):
    """Bases minimizing pl(B) - x(B), compared on _values.  x must be
    finite: a wrong length, then an infinite coordinate (InfiniteBase),
    then a finite float (check_point) is refused."""
    x = tuple(x)
    if len(x) != vm.n:
        raise ValueError("point length mismatch")
    inf = mask_of(j for j, v in enumerate(x)
                  if isinstance(v, float) and v == INF)
    if inf:
        raise InfiniteBase("initial matroid needs a finite point",
                           witness=list1(inf))
    return _lowest(vm.n, _values(vm, check_point(x))[1])


def _descend_to_maximal(vm, uv, target):
    """Walk from the all-zero point to a point whose cell is maximal:
    (cell, xs, common, vals), the witness xs / common and its table,
    which at 0 is ints on the support over den, moved per step
    (_moved)."""
    n = vm.n
    x = (0,) * n
    common = vm.den
    vals = {b: vm.ints[b] for b in vm.support}
    guard = 0
    while True:
        m = _lowest(n, vals)
        comps = m.connected_components()
        if len(comps) == target:
            return m, x, common, vals
        guard += 1
        if guard > len(vm.support) + n:
            raise InconsistentCell("descent failed to converge")
        # cell components refine support components, so some k is not one
        k = next(c for c in comps if c not in uv.connected_components())
        r = (m.bases[0] & k).bit_count()
        brk = _first_break(vals, m, k, r)[0]
        if brk is None:
            # no break forward on k: step back, forward on its complement
            brk = _first_break(vals, m, vm.full ^ k, vm.d - r)[0]
            if brk is None:
                raise InconsistentCell("descent found no breakpoint")
            brk = (-brk[0], brk[1])
        x, common, vals = _moved(vm, x, common, vals, k, *brk)


def _face(m, f):
    """(r(f), face bases, face components) for a flat f of m, with no
    face matroid built.  The face is the bases b with |b & f| = r(f),
    found with r(f) in one scan.  For a face basis b0, the face's
    fundamental circuit of e is C(e, b0) cut down to the side of f that
    holds e, its one element outside b0, so the components come from
    one basis, sorted by value as connected_components() gives them."""
    r = -1
    face = []
    for b in m.bases:
        k = (b & f).bit_count()
        if k > r:
            r = k
            face = [b]
        elif k == r:
            face.append(b)
    b0 = face[0]
    side = m.full ^ f
    circ = [c & (f if c & f & ~b0 else side)
            for c in m._fundamental_circuits(b0)]
    return r, tuple(face), circuit_blocks(m.full, circ)


def _facets(m, flats):
    """(f, r(f), face bases) for each proper flat f in `flats` whose face
    has one more component than m (_face)."""
    target = len(m.connected_components()) + 1
    for f in flats:
        if f == 0 or f == m.full:
            continue
        r, face, comps = _face(m, f)
        if len(comps) == target:
            yield f, r, face


def maximal_cells(vm):
    """All maximal cells of the induced subdivision, with witness points.

    Starts from one maximal cell and flips across every interior wall,
    a face at a proper cyclic flat with one more component (_facets).
    At the first breakpoint on the wall's flat f, bases meeting f in
    fewer than r(f) elements are behind, so the cell across the wall is
    the face bases (|b & f| = r(f)) and the bases tying there.  The walk
    starts from the integer table at 0, ints itself, and each descent
    step and each flip moves that table with the witness, both on
    integers (_moved).  Each wall is crossed
    once: a cell reached across f skips its wall back, the flat
    (K - f) + loops, K the support component that f splits.  That wall
    leads back to the cell the walk came from only if vm is a valuated
    matroid (see check_pluecker), which the walk assumes.
    """
    if vm._maxcells is not None:
        return vm._maxcells
    uv = vm.underlying()
    comps = uv.connected_components()
    loops = uv.loops()
    first, x0, common, vals = _descend_to_maximal(vm, uv, len(comps))
    cells = {first.bases: SubdivisionCell(first, (common, x0), vals, True)}
    queue = [(cells[first.bases], None)]
    while queue:
        cell, back = queue.pop()
        m = cell.matroid
        common, xs = cell.scaled
        walls = [f for f in m.cyclic_flats() if f != back]
        for f, r, face in _facets(m, walls):
            brk, ties = _first_break(cell.vals, m, f, r)
            if brk is None:
                continue  # wall sits on the boundary of the support
            keep = tuple(sorted(face + tuple(ties)))
            if keep in cells:
                continue
            m2 = Matroid(vm.n, keep, check=False)
            if len(m2.connected_components()) != len(comps):
                raise InconsistentCell(
                    "wall flip did not land on a maximal cell",
                    witness={"flat": list1(f)})
            x2, common2, vals2 = _moved(vm, xs, common, cell.vals, f, *brk)
            k = next(c for c in comps if c & f and c & ~f)
            nc = SubdivisionCell(m2, (common2, x2), vals2, True)
            cells[keep] = nc
            queue.append((nc, (k & ~f) | loops))
    out = sorted(cells.values(), key=lambda c: c.matroid.bases)
    vm._maxcells = out
    return out


def face_witness(vm, cell, flat):
    """(scaled, vals) of a point whose cell is exactly the face of `cell`
    at `flat`, as SubdivisionCell keeps them: the cell's own if every
    basis meets the flat in full rank, else its point moved on the flat
    by half the first breakpoint, or by 1 if none (_moved)."""
    m = cell.matroid
    r = m.rank(flat)
    if all((b & flat).bit_count() == r for b in m.bases):
        return cell.scaled, cell.vals
    common, xs = cell.scaled
    brk = _first_break(cell.vals, m, flat, r)[0]
    num, cnt = (common, 1) if brk is None else (brk[0], 2 * brk[1])
    xs, common, vals = _moved(vm, xs, common, cell.vals, flat, num, cnt)
    return (common, xs), vals


def require_loop_free(vm):
    "Refuse a support with loops, which have no cell complex."
    lp = vm.underlying().loops()
    if lp:
        raise TroplinError("cell complex needs a loop-free support",
                           witness=list1(lp))


def cell_complex(vm):
    """Every loop-free cell of the subdivision (faces included).

    Every face of a polytope is a facet of a facet, and so on.  A facet
    of a loop-free matroid polytope is its face at a flat F with one more
    component, and the restriction to F is connected (Feichtner-Sturmfels
    2005), so F is a cyclic flat or a one-element flat.  So closing the
    maximal cells under those facets reaches every loop-free cell and no
    other, with no flat lattice; each new face is built once.  Maximal
    cells come first, each run sorted by bases.  A connected cell is
    maximal; its vertex is its witness shifted to minimum 0.  Assumes
    vm is a valuated matroid (see check_pluecker).
    """
    require_loop_free(vm)
    found = {c.matroid.bases: c for c in maximal_cells(vm)}
    queue = list(found.values())
    while queue:
        cell = queue.pop()
        m = cell.matroid
        points = [1 << e for e in range(vm.n) if m.is_flat(1 << e)]
        for f, _, face in _facets(m, [*m.cyclic_flats(), *points]):
            if face in found:
                continue
            nc = SubdivisionCell(Matroid(vm.n, face, check=False),
                                 *face_witness(vm, cell, f), False)
            found[face] = nc
            queue.append(nc)
    return sorted(found.values(),
                  key=lambda c: (not c.is_maximal, c.matroid.bases))


def stable_sum(v1, v2):
    """Min-plus convolution of two valuations on the same ground set,
    on integers over the lcm of their denominators.  A sum of more slots
    than util.slot_table admits is refused before any slot is filled."""
    if v1.n != v2.n:
        raise ValueError("ground sets differ")
    k = v1.d + v2.d
    if k > v1.n:
        raise EmptySupport("ranks add up beyond the ground set")
    den = lcm(v1.den, v2.den)
    s1, s2 = den // v1.den, den // v2.den
    entries = {}
    for j in slot_table(v1.n, k).masks:
        best = INF
        for s in submasks(j, v1.d):
            a = v1.ints[s]
            b = v2.ints[j ^ s]
            if a == INF or b == INF:
                continue
            t = a * s1 + b * s2
            if t < best:
                best = t
        entries[j] = best
    try:
        return ValuatedMatroid(v1.n, k, entries, den)
    except AllInfinite:
        raise EmptySupport("min-plus sum has empty support")


def stable_intersection(v1, v2):
    "Dual of the min-plus sum of the duals."
    if v1.n != v2.n:
        raise ValueError("ground sets differ")
    if v1.d + v2.d < v1.n:
        raise EmptyIntersection("ranks do not add up to the ground set")
    try:
        return v_dual(stable_sum(v_dual(v1), v_dual(v2)))
    except EmptySupport:
        raise EmptyIntersection("stable intersection is empty")


def hyperplane(apex):
    "Corank-1 valuation whose entry at the complement of {i} is apex[i]."
    apex = check_point(apex)
    n = len(apex)
    full = (1 << n) - 1
    entries = {full ^ (1 << i): apex[i] for i in range(n)
               if apex[i] != INF}
    return ValuatedMatroid(n, n - 1, entries)
