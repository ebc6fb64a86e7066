"""Reference implementations that the tests check the package against.

Everything here trades time for obviousness: permutation enumeration instead
of augmenting paths, point sampling instead of wall flips, full multiset
scans instead of Moebius counting.  Sizes are capped accordingly.

Next to the brute-force references are the definitional forms that no
command runs: zoom, trop_cone_sample, r0_member, rinf_member (one point
against the escape region of one cell, through the _escape_region and
_in_region that verify_presentation runs), contract_presentation,
trop_minor (one tropical maximal minor) and linking_value, the
definition that gammoid_valuation is checked against.
cell_complex_by_faces is the face closure that counts each candidate
face's components, which cell_complex reads off the cyclic-flat
lattice instead.  The paper's
explicit fiber description is here too: presentation_space_member
assigns the points to the distinguished apices, and
presentation_fan_member tests each apex's group against the fan of its
matroid.  The commands decide fiber membership by the definition,
stiefel(points) == v, and the tests hold the two routes equal.
census lists every valuated matroid of a small class, as ground truth
for the theorems.  troplin.oracle keeps only the references that
bench/checker.py runs.
"""

import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

from troplin.errors import (AllInfinite, InfiniteBase, NoBasis, NotAMatroid,
                            NotMinimalMatching, TroplinError, WrongArity)
from troplin.gammoid import WeightedDigraph, _fmt
from troplin.linprog import solve_lp
from troplin.matroid import Matroid
from troplin.presentations import _escape_region, _in_region, distinguished
from troplin.transversal import (covering_violations, is_pseudopresentation,
                                 is_transversal, transversal_matroid,
                                 verify_set_presentation)
from troplin.trop import (INF, ONE, ZERO, check_point, integer_scaled,
                          matrix_shape, min_assignment, relsupp, stiefel)
from troplin.util import bits, elems, ksubsets, list1, mask_of, submasks
from troplin.valuated import (SubdivisionCell, ValuatedMatroid, check_pluecker,
                              face_witness, initial_matroid, maximal_cells,
                              membership, require_loop_free)


class NotCyclicFlat(TroplinError):
    "A reference was asked about a flat that is not cyclic."


def xsum(x, mask):
    "x(mask), the Fraction sum of the coordinates of x on mask."
    s = ZERO
    for e in bits(mask):
        s += x[e]
    return s


def normalize_point_fraction(y):
    "trop.normalize_point on Fractions: shift the least finite coordinate to 0."
    y = check_point(y)
    m = min(v for v in y if v != INF)
    return tuple(INF if v == INF else v - m for v in y)


def relsupp_fraction(x, y):
    """trop.relsupp on Fractions: the mask where y - x does not attain its
    minimum, refusing an infinite x, then unequal lengths, then an
    all-infinite y."""
    if any(v == INF for v in x):
        raise InfiniteBase("basepoint must be finite", witness=list1(
            mask_of(j for j, v in enumerate(x) if v == INF)))
    if len(x) != len(y):
        raise ValueError("length mismatch")
    diffs = [INF if v == INF else v - x[j] for j, v in enumerate(y)]
    m = min(diffs)
    if m == INF:
        raise AllInfinite("point has no finite coordinate")
    return mask_of(j for j, dv in enumerate(diffs) if dv > m)


def mask_to_key(mask):
    "The canonical JSON key of a subset mask: its 1-based elements, joined."
    return ",".join(str(e) for e in list1(mask))


def _mask1(elements):
    "The mask of a 1-based element list, the JSON witness convention."
    return mask_of(x - 1 for x in elements)


def violated_relation(vm, a, c):
    """Is the witness {"a": a, "c": c} (1-based lists) a violated
    relation of vm by definition: |a| = d - 1, |c| = d + 1, and the
    least of pl(a + j) + pl(c - j) over j in c - a, on the Fraction
    table, is finite and attained only once?"""
    a, c = _mask1(a), _mask1(c)
    if (a | c) & ~vm.full or a.bit_count() != vm.d - 1 \
            or c.bit_count() != vm.d + 1:
        return False
    terms = []
    for j in bits(c & ~a):
        left = vm.table[a | 1 << j]
        right = vm.table[c ^ 1 << j]
        if left != INF and right != INF:
            terms.append(left + right)
    return bool(terms) and terms.count(min(terms)) == 1


def check_pluecker_bruteforce(vm):
    """Every (d-1, d+1) relation in ascending mask order:
    (True, None) or (False, {"a", "c"}) for the first violated pair."""
    for a in ksubsets(vm.n, vm.d - 1):
        for c in ksubsets(vm.n, vm.d + 1):
            if violated_relation(vm, list1(a), list1(c)):
                return False, {"a": list1(a), "c": list1(c)}
    return True, None


def exchange_fails(m, b1, b2, e):
    """Is the witness {"b1", "b2", "e"} (1-based) a failing exchange of
    m by definition: b1 and b2 are bases, e is in b1 - b2, and no
    b1 - e + f with f in b2 - b1 is a basis?"""
    b1, b2, e = _mask1(b1), _mask1(b2), e - 1
    if b1 not in m.baseset or b2 not in m.baseset or not (b1 & ~b2) >> e & 1:
        return False
    removed = b1 ^ (1 << e)
    return not any(removed | (1 << f) in m.baseset for f in bits(b2 & ~b1))


def check_exchange_bruteforce(m):
    """Basis exchange over all ordered (b1, b2, e) triples, searching
    b2 - b1 for each; raises NotAMatroid at the first failing triple."""
    for b1 in m.bases:
        for b2 in m.bases:
            for e in bits(b1 & ~b2):
                witness = {"b1": list1(b1), "b2": list1(b2), "e": e + 1}
                if exchange_fails(m, **witness):
                    raise NotAMatroid("exchange fails", witness=witness)


def three_term_violation_scan(n, d, table):
    """valuated._three_term_violation as a plain scan: every (d-2)-set S
    and every i < j < k < l outside it, read off the table one key at a
    time.  The same first witness is expected, since the fast path
    keeps this order and the CLI prints the witness."""
    big = 2 * max(v for v in table.values() if v != INF) + 1
    t = {b: big if v == INF else v for b, v in table.items()}
    full = (1 << n) - 1
    for s in ksubsets(n, d - 2):
        rest = [1 << e for e in bits(full & ~s)]
        for i, j, k, l in combinations(rest, 4):
            si = s | i
            sj = s | j
            x = t[si | j] + t[s | k | l]
            y = t[si | k] + t[sj | l]
            z = t[si | l] + t[sj | k]
            lo, hi = (x, y) if x <= y else (y, x)
            if (z < big) if z < lo else (z > lo and lo < hi and lo < big):
                return {"a": list1(si), "c": list1(sj | k | l)}
    return None


def cover_mask_exchange(m):
    """Matroid._check_exchange by explicit cover masks: the mask of
    (b1, e) is e plus every f outside b1 with b1 - e + f a basis, each
    distinct mask keeps its first (b1, e), and every basis is ANDed
    with every mask.  Raises NotAMatroid with the same witness as the
    fast check: the first basis b2 that misses a mask, the first such
    mask."""
    if len(m.bases) == comb(m.n, m.d):
        return
    bs = m.baseset
    first = {}
    for b1 in m.bases:
        outside = m.full & ~b1
        for e in bits(b1):
            removed = b1 ^ (1 << e)
            c = 1 << e
            for f in bits(outside):
                if removed | (1 << f) in bs:
                    c |= 1 << f
            if c not in first:
                first[c] = (b1, e)
    for b2 in m.bases:
        for c in first:
            if not b2 & c:
                b1, e = first[c]
                raise NotAMatroid(
                    "exchange fails",
                    witness={"b1": list1(b1), "b2": list1(b2),
                             "e": e + 1})


def digraph_from_presentation_stiefel(points, basis=None, matching=None):
    """gammoid.digraph_from_presentation read off the whole Stiefel
    image: its support gives the lex-least basis and decides whether a
    given basis is one, and the digraph is checked for negative cycles
    as it is built."""
    a = [tuple(row) for row in points]
    w = stiefel(a)
    uw = w.underlying()
    d, n = len(a), w.n
    if basis is None:
        basis = min(uw.bases, key=lambda b: tuple(bits(b)))
    elif basis not in uw.baseset:
        raise NoBasis("not a basis of the row span", witness=list1(basis))
    cols = elems(basis)
    value, match = min_assignment([[row[c] for c in cols] for row in a])
    best = value
    if matching is None:
        sigma = [cols[match[r]] for r in range(d)]
    else:
        sigma = list(matching)
        if sorted(sigma) != cols:
            raise ValueError("matching is not a bijection onto the basis")
        total = ZERO
        for r in range(d):
            if a[r][sigma[r]] == INF:
                total = INF
                break
            total += a[r][sigma[r]]
        if total != best:
            raise NotMinimalMatching(
                "matching does not attain the tropical minor",
                witness={"weight": _fmt(total), "minimum": _fmt(best)})
    weights = {}
    for r in range(d):
        i = sigma[r]
        base = a[r][i]
        for j in range(n):
            if j == i or a[r][j] == INF:
                continue
            weights[(i, j)] = a[r][j] - base
    return WeightedDigraph(n, ((1 << n) - 1) ^ basis, weights)


def subdivision_sample(vm, trials=2000, seed=0):
    """Audit maximal_cells by exact point sampling.

    Checks that each claimed cell is genuinely the cell of its witness
    and has the right component count, that claimed cells only overlap
    in proper faces, and that cell barycenters plus `trials` random
    convex combinations of support vertices are all covered by some
    claimed cell (polymatroid membership, checked subset by subset).
    Raises AssertionError on any failure; returns the set of claimed
    matroids hit by samples (always all of them, via the barycenters).
    """
    uv = vm.underlying()
    target = len(uv.connected_components())
    claimed = maximal_cells(vm)
    n = vm.n
    for cell in claimed:
        again = initial_matroid(vm, cell.witness)
        assert again.bases == cell.matroid.bases, "witness mismatch"
        assert len(cell.matroid.connected_components()) == target, \
            "claimed cell is not maximal"
    for i in range(len(claimed)):
        for j in range(i + 1, len(claimed)):
            inter = claimed[i].matroid.baseset & claimed[j].matroid.baseset
            if inter:
                km = Matroid(n, sorted(inter), check=False)
                assert len(km.connected_components()) > target, \
                    "claimed cells overlap beyond a proper face"
    tables = []
    for cell in claimed:
        m = cell.matroid
        tables.append([m.rank(s) for s in range(1 << n)])
    pts = []
    for cell in claimed:
        bs = cell.matroid.bases
        cnt = [0] * n
        for b in bs:
            for e in bits(b):
                cnt[e] += 1
        pts.append([Fraction(c, len(bs)) for c in cnt])
    rng = random.Random(seed)
    support = list(vm.support)
    for _ in range(trials):
        k = rng.randint(1, min(6, len(support)))
        chosen = rng.sample(support, k)
        wts = [rng.randint(1, 9) for _ in chosen]
        tot = sum(wts)
        x = [ZERO] * n
        for b, wt in zip(chosen, wts):
            f = Fraction(wt, tot)
            for e in bits(b):
                x[e] += f
        pts.append(x)
    hits = set()
    for x in pts:
        sums = [ZERO] * (1 << n)
        for s in range(1, 1 << n):
            low = s & -s
            sums[s] = sums[s ^ low] + x[low.bit_length() - 1]
        covered = False
        for idx, table in enumerate(tables):
            ok = True
            for s in range(1, 1 << n):
                if sums[s] > table[s]:
                    ok = False
                    break
            if ok:
                hits.add(idx)
                covered = True
        if not covered:
            raise AssertionError("sample point not covered: %r" % (x,))
    return {claimed[i].matroid for i in hits}


def presentations_exhaustive(m):
    """All set system presentations of m, by trying every multiset.

    Presentation sets never contain loops (a matched element is
    independent), so candidates range over nonempty subsets of the
    non-loops.  The families depend only on (n, d, non-loops), so they
    are grouped by the bases they present once per such triple
    (_presentation_index).  Ground sets beyond 5 elements are refused.
    """
    if m.n > 5:
        raise ValueError("exhaustive search capped at 5 elements")
    index = _presentation_index(m.n, m.d, m.full ^ m.loops())
    return list(index.get(m.bases, ()))


@functools.cache
def _presentation_index(n, d, nonloops):
    """{bases: families}: every d-multiset of nonempty subsets of the
    mask nonloops, in enumeration order, under the bases of the
    transversal matroid it presents on n elements."""
    subsets = [s for s in range(1, 1 << n) if s & ~nonloops == 0]
    index = {}
    for fam in combinations_with_replacement(subsets, d):
        try:
            t = transversal_matroid(list(fam), n)
        except NoBasis:
            continue
        index.setdefault(t.bases, []).append(fam)
    return index


def linking_bruteforce(g, subset):
    "Min-weight vertex-disjoint path system by explicit search; n <= 7."
    if g.n > 7:
        raise ValueError("enumeration capped at 7 vertices")
    if subset.bit_count() != g.sinks.bit_count():
        raise ValueError("need a subset the size of the sink set")
    srcs = elems(subset)
    adj = {v: [] for v in range(g.n)}
    for (i, j), w in g.edges.items():
        adj[i].append((j, w))
    best = [INF]

    def rec(i, used, total):
        if i == len(srcs):
            if total < best[0]:
                best[0] = total
            return
        s = srcs[i]
        if (used >> s) & 1:
            return

        def walk(v, pathmask, acc):
            if (g.sinks >> v) & 1:
                rec(i + 1, used | pathmask, total + acc)
            for u, w in adj[v]:
                if ((used | pathmask) >> u) & 1:
                    continue
                walk(u, pathmask | (1 << u), acc + w)

        walk(s, 1 << s, ZERO)

    rec(0, 0, ZERO)
    return best[0]


def rinf_facet_oracle(vm, cell, flat, z):
    """Escape-region membership by interval arithmetic, for wall cells only.

    When the face cell at `flat` has exactly two components its region
    is a line, so each potential escape coordinate reduces to comparing
    one rational interval; no simplex involved.  Returns None when the
    face has more components (oracle not applicable).
    """
    m = cell.matroid
    if all(z[j] == INF for j in bits(flat)):
        return True
    w = m.polytope_face(flat)
    comps = w.connected_components()
    if len(comps) != 2:
        return None
    xw = face_point_fraction(vm, m, cell.witness, flat)
    k1 = comps[0]
    r1 = w.rank(k1)
    m0 = vm.table[w.bases[0]] - xsum(xw, w.bases[0])
    lo, hi = None, None  # open interval of the region parameter
    for b in vm.support:
        if b in w.baseset:
            continue
        aa = (b & k1).bit_count() - r1
        gap = vm.table[b] - xsum(xw, b) - m0
        if aa > 0:
            t = gap / aa
            if hi is None or t < hi:
                hi = t
        elif aa < 0:
            t = gap / aa
            if lo is None or t > lo:
                lo = t
    assert lo is None or lo < 0
    assert hi is None or hi > 0
    for j in bits(flat):
        if z[j] == INF:
            continue
        jlo, jhi = None, None
        feasible = True
        for k in range(vm.n):
            if k == j or z[k] == INF:
                continue
            bound = (z[k] - z[j]) - (xw[k] - xw[j])
            coeff = ((k1 >> k) & 1) - ((k1 >> j) & 1)
            if coeff == 0:
                if bound < 0:
                    feasible = False
                    break
            elif coeff > 0:
                if jhi is None or bound < jhi:
                    jhi = bound
            else:
                if jlo is None or -bound > jlo:
                    jlo = -bound
        if not feasible:
            continue
        glo = lo if jlo is None else (jlo if lo is None else max(lo, jlo))
        ghi = hi if jhi is None else (jhi if hi is None else min(hi, jhi))
        # escape needs t with lo < t < hi, jlo <= t <= jhi
        if glo is None or ghi is None:
            return False
        if glo < ghi:
            return False
        if glo == ghi:
            closed_lo = jlo is not None and glo == jlo and (
                lo is None or lo < glo)
            closed_hi = jhi is not None and ghi == jhi and (
                hi is None or hi > ghi)
            if closed_lo and closed_hi:
                return False
    return True


def rinf_member_lp(vm, cell, flat, z):
    """Escape-region membership by the full-row LP, with no cache.

    One LP per finite coordinate j of z on the flat, with one region row
    per support basis off the face and one row per other finite
    coordinate, duplicates included; rinf_member sends the same LP with
    every duplicate row collapsed.
    """
    m = cell.matroid
    cf = m.cyclic_flats()
    if flat not in cf:
        raise NotCyclicFlat(witness=list1(flat))
    z = check_point(z)
    if all(z[j] == INF for j in bits(flat)):
        return True
    w = m.polytope_face(flat)
    xw = face_point_fraction(vm, m, cell.witness, flat)
    comps = w.connected_components()
    c = len(comps)
    where = {}
    for i, k in enumerate(comps):
        for e in bits(k):
            where[e] = i
    ranks = [w.rank(k) for k in comps]
    m0 = vm.table[w.bases[0]] - xsum(xw, w.bases[0])
    # variables t_0..t_{c-2} (component shifts, last one gauged to 0), s
    region = []
    for b in vm.support:
        if b in w.baseset:
            continue
        coeffs = [ZERO] * c
        for i in range(c - 1):
            coeffs[i] = Fraction((b & comps[i]).bit_count() - ranks[i])
        coeffs[c - 1] = ONE
        gap = vm.table[b] - xsum(xw, b) - m0
        region.append((coeffs, gap))
    cap = [ZERO] * c
    cap[c - 1] = ONE
    region.append((cap, ONE))
    for j in bits(flat):
        if z[j] == INF:
            continue
        cons = list(region)
        bad = False
        for k in range(vm.n):
            if k == j or z[k] == INF:
                continue
            coeffs = [ZERO] * c
            ck, cj = where[k], where[j]
            if ck < c - 1:
                coeffs[ck] += 1
            if cj < c - 1:
                coeffs[cj] -= 1
            rhs = (z[k] - z[j]) - (xw[k] - xw[j])
            if ck == cj and rhs < 0:
                bad = True
                break
            cons.append((coeffs, rhs))
        if bad:
            continue
        status, value, _ = solve_lp(c, cap, cons)
        if status == "optimal" and value > 0:
            return False
    return True


def _solve_exactly(a, b):
    "The unique solution of the square system a x = b, or None."
    n = len(a)
    rows = [list(r) + [v] for r, v in zip(a, b)]
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col] / rows[col][col]
                rows[i] = [u - f * v for u, v in zip(rows[i], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def lp_bruteforce(num_vars, objective, constraints):
    """Maximize objective . x by enumerating vertices, for bounded regions.

    Every choice of num_vars rows, made tight, is solved exactly; the
    feasible solutions are the vertices of the region.  The region must
    be bounded (a box among the rows, say): then it is empty, and the
    answer ("infeasible", None), or it has a vertex, and the answer is
    ("optimal", the largest objective value over the vertices).
    """
    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs = [Fraction(v) for v in coeffs]
        rhs = Fraction(rhs)
        if rel == ">=":
            coeffs, rhs, rel = [-v for v in coeffs], -rhs, "<="
        rows.append((coeffs, rel, rhs))
    best = None
    for pick in combinations(rows, num_vars):
        x = _solve_exactly([r[0] for r in pick], [r[2] for r in pick])
        if x is None:
            continue
        ok = True
        for coeffs, rel, rhs in rows:
            lhs = sum(u * v for u, v in zip(coeffs, x))
            if lhs > rhs or (rel == "=" and lhs != rhs):
                ok = False
                break
        if ok:
            val = sum(Fraction(u) * v for u, v in zip(objective, x))
            if best is None or val > best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def connected_components_bruteforce(m):
    """Partition of the ground set by direct-sum separators, as masks:
    every subset s with rank(s) + rank(E - s) = d splits the classes."""
    comp = {e: m.full for e in range(m.n)}
    for s in range(1, m.full):
        if m.rank(s) + m.rank(m.full ^ s) != m.d:
            continue
        t = m.full ^ s
        for e in range(m.n):
            comp[e] &= s if (s >> e) & 1 else t
    return tuple(sorted(set(comp.values())))


def initial_matroid_bruteforce(vm, x):
    "Bases minimizing pl(B) - x(B), by Fraction sums over the support."
    best = INF
    keep = []
    for b in vm.support:
        v = vm.table[b] - xsum(x, b)
        if v < best:
            best = v
            keep = [b]
        elif v == best:
            keep.append(b)
    return Matroid(vm.n, keep, check=False)


def face_point_fraction(vm, m, x, flat):
    """valuated.face_witness's point on Fractions, from the witness x of
    the cell m: x itself if every basis of m meets the flat in full rank,
    else x moved on the flat by half the first breakpoint
    (first_breakpoint_bruteforce), or by 1 if there is none."""
    r = m.rank(flat)
    if all((b & flat).bit_count() == r for b in m.bases):
        return tuple(x)
    t = first_breakpoint_bruteforce(vm, m, x, flat, r)[0]
    t = Fraction(1) if t == INF else t / 2
    return tuple(v + t if (flat >> e) & 1 else v for e, v in enumerate(x))


def first_breakpoint_bruteforce(vm, m, x, flat, r):
    """(tstar, ties): the least (pl(b) - x(b) - pl(m) + x(m)) /
    (|b & flat| - r) over the support bases b off the cell m with
    |b & flat| > r, or INF, and the bases that attain it, by Fraction
    sums."""
    m0 = vm.table[m.bases[0]] - xsum(x, m.bases[0])
    tstar = INF
    ties = []
    for b in vm.support:
        if b in m.baseset:
            continue
        cnt = (b & flat).bit_count()
        if cnt <= r:
            continue
        t = (vm.table[b] - xsum(x, b) - m0) / (cnt - r)
        if t < tstar:
            tstar = t
            ties = [b]
        elif t == tstar:
            ties.append(b)
    return tstar, ties


def membership_bruteforce(vm, y):
    """Membership of y in the tropical linear space of vm, by Fraction
    sums: for every (d+1)-set c, the least finite y[j] + pl(c - j) over
    j in c is attained twice."""
    for c in ksubsets(vm.n, vm.d + 1):
        best = INF
        cnt = 0
        for j in bits(c):
            b = c ^ (1 << j)
            if y[j] == INF or vm.table[b] == INF:
                continue
            t = y[j] + vm.table[b]
            if t < best:
                best = t
                cnt = 1
            elif t == best:
                cnt += 1
        if best != INF and cnt < 2:
            return False
    return True


def circuits_bruteforce(m):
    """Minimal dependent sets, by a scan over all subsets, sorted by
    (size, mask)."""
    dep = [s for s in range(m.full + 1) if not m.independent(s)]
    return tuple(sorted((s for s in dep
                         if all(m.independent(s ^ (1 << e))
                                for e in bits(s))),
                        key=lambda s: (s.bit_count(), s)))


def cyclic_flats_bruteforce(m):
    """Cyclic flats by filtering the whole flat lattice: the flats f with
    coclosure(f) == f, sorted by (size, mask)."""
    return tuple(f for f in m.flats() if m.coclosure(f) == f)


def _face_facets(m, flats):
    """(f, face bases) for each proper flat f in `flats` whose face has
    one more component than m, the face built by Matroid.polytope_face."""
    target = len(m.connected_components()) + 1
    for f in flats:
        if f == 0 or f == m.full:
            continue
        face = m.polytope_face(f)
        if len(face.connected_components()) == target:
            yield f, face.bases


def cell_complex_by_faces(vm):
    """valuated.cell_complex as a closure of the maximal cells under the
    facets that _face_facets finds: every cyclic flat of each cell, from
    its own cyclic_flats(), then every point flat by element, each face
    matroid built and its components counted.  The cells come in the same
    order, each face first found from the same (cell, flat), so the
    witnesses are the same too."""
    require_loop_free(vm)
    found = {c.matroid.bases: c for c in maximal_cells(vm)}
    queue = list(found.values())
    while queue:
        cell = queue.pop()
        m = cell.matroid
        points = [1 << e for e in range(vm.n) if m.is_flat(1 << e)]
        for f, face in _face_facets(m, [*m.cyclic_flats(), *points]):
            if face in found:
                continue
            nc = SubdivisionCell(Matroid(vm.n, face, check=False),
                                 *face_witness(vm, cell, f), False, None)
            found[face] = nc
            queue.append(nc)
    return sorted(found.values(),
                  key=lambda c: (not c.is_maximal, c.matroid.bases))


def component_flacets(m):
    """The walls of the cell m that the cell walk tries, each spelled
    once: the cyclic flats of m that lie in one component K plus the
    loops, proper and non-empty in K, whose face has one more component
    than m (_face_facets)."""
    loops = m.loops()
    inside = [f for f in m.cyclic_flats()
              if any(not f & ~(k | loops) and 0 != f & k != k
                     for k in m.connected_components())]
    return [f for f, _ in _face_facets(m, inside)]


def rank_violation_scan(m):
    """First cyclic-flat family breaking the alternating rank inequality,
    or None.

    Families are scanned without repetition, by size then index order,
    over cyclic flats sorted by (size, mask); repetitions never help and
    family size d+1 always suffices.  Each family of size k costs 2^k
    union ranks.
    """
    cf = list(m.cyclic_flats())
    kmax = min(m.d + 1, len(cf))
    for k in range(1, kmax + 1):
        for fam in combinations(cf, k):
            total = 0
            for i in range(1, k + 1):
                sign = -1 if i % 2 else 1
                for sub in combinations(fam, i):
                    u = 0
                    for f in sub:
                        u |= f
                    total += sign * m.rank(u)
            inter = m.full
            for f in fam:
                inter &= f
            if total > -m.rank(inter):
                return {"family": [list1(f) for f in fam],
                        "value": total, "bound": -m.rank(inter)}
    return None


def corank_transform_mobius(m):
    """{cyclic flat f: tau(f)}, by the Moebius function of the poset of
    cyclic flats: tau(f) = sum of mu(f, g) cork(g) over cyclic g above f,
    with mu computed by its defining recursion."""
    flats = list(m.cyclic_flats())
    mu = {}

    def mobius(f, g):
        if f & g != f:
            return 0
        if (f, g) not in mu:
            mu[f, g] = 1 if f == g else -sum(
                mobius(f, h) for h in flats
                if f & h == f and h & g == h and h != g)
        return mu[f, g]

    return {f: sum(mobius(f, g) * m.corank(g)
                   for g in flats if f & g == f)
            for f in flats}


def census(n, d, values):
    """Every table of a valuated matroid of rank d on n elements with its
    entries in `values` (INF allowed), as {mask: value} dicts, listed by
    backtracking over the slots in ksubsets order.  Each three-term
    relation is checked as soon as its last slot is set, and a leaf
    with a finite entry is kept iff check_pluecker accepts it, which
    adds the exchange axiom of the support.  Tables that differ by a
    constant are listed apart; ValuatedMatroid equality merges them."""
    slots = ksubsets(n, d)
    index = {b: x for x, b in enumerate(slots)}
    due = [[] for _ in slots]
    for s in ksubsets(n, d - 2):
        rest = [1 << e for e in bits(((1 << n) - 1) & ~s)]
        for i, j, k, l in combinations(rest, 4):
            terms = [(index[s | i | j], index[s | k | l]),
                     (index[s | i | k], index[s | j | l]),
                     (index[s | i | l], index[s | j | k])]
            due[max(map(max, terms))].append(terms)
    tables = []
    _census_fill(n, d, values, slots, due, [None] * len(slots), 0, tables)
    return tables


def _census_fill(n, d, values, slots, due, vals, x, tables):
    "census's backtracking from slot x on, vals[:x] already set."
    if x == len(slots):
        table = dict(zip(slots, vals))
        if (any(v != INF for v in vals)
                and check_pluecker(ValuatedMatroid(n, d, table))[0]):
            tables.append(table)
        return
    for v in values:
        vals[x] = v
        if all(_three_terms_hold(vals, terms) for terms in due[x]):
            _census_fill(n, d, values, slots, due, vals, x + 1, tables)


def _three_terms_hold(vals, terms):
    "Is the least of the three sums infinite or attained twice?"
    sums = sorted(vals[a] + vals[b] for a, b in terms)
    return sums[0] == INF or sums[0] == sums[1]


def set_presentation_scan(m, sets):
    """Set presentation by every subfamily: the complements form a
    pseudopresentation, m is transversal, and every k of the complements
    meet in a flat of corank at least k.  2^k intersections."""
    comps = [m.full ^ a for a in sets]
    if not is_pseudopresentation(m, comps) or not is_transversal(m)[0]:
        return False
    for k in range(1, len(comps) + 1):
        for sub in combinations(comps, k):
            inter = m.full
            for f in sub:
                inter &= f
            if m.corank(inter) < k:
                return False
    return True


def fan_member_by_sets(m, points):
    """presentation_fan_member through the set-presentation test: the
    complements of the points' relative supports from the origin (each
    an independent flat) and of the other cyclic flats, each tau times,
    must present m (verify_set_presentation)."""
    cf = m.cyclic_flats()
    if 0 not in cf:
        raise NotCyclicFlat(witness=[])
    t = cf[0]
    if len(points) != t:
        raise WrongArity(witness={"expected": t, "got": len(points)})
    sets = []
    for p in points:
        try:
            p = check_point(p, m.n)
        except AllInfinite:
            return False
        _, vs = integer_scaled(p)
        low = min(vs)
        g = mask_of(j for j, v in enumerate(vs) if v > low)
        if not m.independent(g) or not m.is_flat(g):
            return False
        sets.append(m.full ^ g)
    for f in cf:
        if f == 0:
            continue
        sets.extend([m.full ^ f] * cf[f])
    return verify_set_presentation(m, sets)


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
    if 0 not in cf:
        raise NotCyclicFlat(witness=[])
    t = cf[0]
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
    for f, w in cf.items():
        if f and w > 0:
            weights[f] = w
    return not covering_violations(m, weights)


def presentation_space_member(vm, points):
    """Is the tuple of points a presentation, decided by the apex geometry?

    Some assignment of the points to the distinguished entries (respecting
    multiplicities) must restrict-and-translate into each entry's fan.
    That is the paper's explicit description of the fiber; the commands
    decide by the definition, stiefel(points) == vm, and the tests hold
    the two equal.
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



def _support_rank(vm, s):
    return max((b & s).bit_count() for b in vm.support)


def _minor_by_subsets(vm, kept, fixed):
    """The table at s + fixed over the size-subsets s of `kept`, where
    size is d - |fixed|, relabelled order-preserving: every subset
    enumerated and read off the Fraction table."""
    pos = {e: i for i, e in enumerate(bits(kept))}
    entries = {mask_of(pos[e] for e in bits(s)): vm.table[s | fixed]
               for s in submasks(kept, vm.d - fixed.bit_count())}
    return ValuatedMatroid(len(pos), vm.d - fixed.bit_count(), entries)


def restrict_lex_greatest(vm, subset):
    """The restriction to `subset`, read at the lex-greatest extension of
    `subset` to a spanning set, as bench/checker.py reads it."""
    fixed, cur = 0, subset
    for e in reversed(range(vm.n)):
        if not (subset >> e) & 1 \
                and _support_rank(vm, cur | 1 << e) > _support_rank(vm, cur):
            cur |= 1 << e
            fixed |= 1 << e
    return _minor_by_subsets(vm, subset, fixed)


def contract_lex_greatest(vm, subset):
    """The contraction of `subset`, read at its lex-greatest basis, as
    bench/checker.py reads it."""
    fixed = 0
    for e in reversed(range(vm.n)):
        if (subset >> e) & 1 and _support_rank(vm, fixed | 1 << e) > \
                _support_rank(vm, fixed):
            fixed |= 1 << e
    return _minor_by_subsets(vm, vm.full ^ subset, fixed)


def sigma0_lattice_scan(m, supports):
    """(f, count) for each flat f of the whole lattice, in (size, mask)
    order, covered by more than cork(f) of the relative supports."""
    out = []
    for f in m.flats():
        count = sum(1 for rs in supports if rs & f == f)
        if count > m.corank(f):
            out.append((f, count))
    return out


def zoom(x, y):
    "Replace y by its 0/inf shadow relative to x."
    rs = relsupp(x, y)
    return tuple(INF if (rs >> j) & 1 else ZERO for j in range(len(x)))


def trop_cone_sample(a, coeffs):
    "Min-plus row combination sum_i coeffs[i] + a[i]; raw, not normalized."
    d, n = matrix_shape(a)
    if len(coeffs) != d:
        raise ValueError("need one coefficient per row")
    y = []
    for j in range(n):
        best = INF
        for i in range(d):
            if coeffs[i] == INF or a[i][j] == INF:
                continue
            t = coeffs[i] + a[i][j]
            if t < best:
                best = t
        y.append(best)
    return check_point(y)


def r0_member(vm, flat, x, z):
    "Is z a point of the space whose relative support from x covers `flat`?"
    if not membership(vm, z):
        return False
    return relsupp(x, z) & flat == flat


def rinf_member(vm, cell, flat, z):
    """Is z inside the escape region of `flat` seen from everywhere on the
    cell's stretch of the space?

    cell is a SubdivisionCell of vm (its matroid, point and table),
    for instance one of maximal_cells(vm).  z escapes iff some finite
    coordinate j of z on the flat can attain the minimum of z - y for a
    y interior to the cell of the face at the flat (_in_region).
    """
    m = cell.matroid
    if flat not in m.cyclic_flats():
        raise NotCyclicFlat(witness=list1(flat))
    z = check_point(z, vm.n)
    if all(z[j] == INF for j in bits(flat)):
        return True
    return _in_region(_escape_region(vm, cell, flat), flat, z)


def contract_presentation(vm, points, flat):
    """Select the points infinite on a cyclic flat and project them off it.

    The selected count must be the corank of the flat; the projections
    present the contraction.
    """
    uv = vm.underlying()
    if flat not in uv.cyclic_flats():
        raise NotCyclicFlat(witness=list1(flat))
    if len(points) != vm.d:
        raise WrongArity(witness={"expected": vm.d, "got": len(points)})
    points = [check_point(p, vm.n) for p in points]
    keep = elems(vm.full ^ flat)
    chosen = [p for p in points
              if all(p[j] == INF for j in bits(flat))]
    want = vm.d - uv.rank(flat)
    if len(chosen) != want:
        raise WrongArity(witness={"expected": want, "got": len(chosen)})
    return [tuple(p[g] for g in keep) for p in chosen]


def _as_cols(n, cols):
    if isinstance(cols, int):
        return list(bits(cols))
    return sorted(cols)


def trop_minor(a, cols):
    "Min over permutations of the row sums into the given columns."
    d, n = matrix_shape(a)
    cols = _as_cols(n, cols)
    if len(cols) != d:
        raise ValueError("column set size must equal the row count")
    value, _ = min_assignment([[row[c] for c in cols] for row in a])
    return value


def linking_value(g, subset):
    """Min total weight of a vertex-disjoint path system from `subset`
    onto the sinks, as the raw (unnormalized) tropical minor of the
    reduction matrix at the complementary columns.
    """
    d = g.sinks.bit_count()
    if subset.bit_count() != d:
        raise ValueError("need a subset the size of the sink set")
    if g.sinks == g.n_full():
        return ZERO
    return trop_minor(g.reduction_matrix(), g.n_full() ^ subset)
