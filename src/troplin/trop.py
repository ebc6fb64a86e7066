"""Exact min-plus scalars, points and matrices over Q + {inf}.

Scalars are fractions.Fraction or float("inf").  Points compute on
integer scales: integer_scaled puts their finite coordinates over the
lcm of their denominators, and sums, differences and comparisons run on
those integers, with inf tested by type.  Fractions appear at the API,
where a point is returned, so no rounding can occur anywhere.
"""

from fractions import Fraction
from math import comb, lcm

from .errors import AllInfinite, InfiniteBase, OutOfDomain
from .util import bits, check_slots, list1, mask_of, slot_table

INF = float("inf")
ZERO = Fraction(0)
ONE = Fraction(1)


def check_point(y, n=None):
    """y as a tuple, refused if it has no finite coordinate
    (AllInfinite), if n is given and y has another length, or if a
    coordinate is a finite float (ValueError naming it, 1-based)."""
    y = tuple(y)
    if all(isinstance(v, float) and v == INF for v in y):
        raise AllInfinite("point has no finite coordinate")
    if n is not None and len(y) != n:
        raise ValueError("point length mismatch")
    for j, v in enumerate(y):
        if isinstance(v, float) and v != INF:
            raise ValueError("coordinate %d is a finite float" % (j + 1))
    return y


def normalize_point(y):
    "Shift so the least finite coordinate is 0, on integers (lowered)."
    return lowered(*integer_scaled(check_point(y)))


def lowered(den, ys):
    """The point ys / den, as integer_scaled gives it, shifted so its
    least finite coordinate is 0: one Fraction per finite coordinate."""
    m = min(v for v in ys if v is not INF)
    return tuple(INF if v is INF else Fraction(v - m, den) for v in ys)


def relsupp(x, y):
    """Relative support of y seen from the finite basepoint x.

    Bitmask of the coordinates where y - x does not attain its minimum
    (infinite coordinates of y always belong).  Refused in this order:
    an infinite coordinate of x (InfiniteBase), lengths that differ,
    then y as check_point refuses it, then a finite float in x.  The
    differences compare on one integer scale for x and y.
    """
    inf = mask_of(j for j, v in enumerate(x)
                  if isinstance(v, float) and v == INF)
    if inf:
        raise InfiniteBase("basepoint must be finite", witness=list1(inf))
    if len(x) != len(y):
        raise ValueError("length mismatch")
    check_point(y)
    check_point(x)
    n = len(x)
    _, vs = integer_scaled((*x, *y))
    diffs = [v if v is INF else v - vs[j] for j, v in enumerate(vs[n:])]
    m = min(diffs)
    return mask_of(j for j, dv in enumerate(diffs) if dv > m)


def matrix_shape(a):
    d = len(a)
    if d == 0:
        raise ValueError("matrix has no rows")
    n = len(a[0])
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    return d, n


def min_assignment(cost):
    """Exact min-cost perfect matching of a square min-plus matrix.

    Returns (value, match) with match[row] = col, or (INF, None) when
    every system of distinct representatives hits an infinite entry.
    Shortest augmenting paths with Fraction potentials; the Dijkstra
    step is a plain linear scan, which is fine at these sizes.
    """
    k = len(cost)
    if k == 0:
        return ZERO, []
    u = [ZERO] * (k + 1)
    v = [ZERO] * (k + 1)
    p = [0] * (k + 1)  # p[j] = row currently matched to column j (1-based)
    way = [0] * (k + 1)
    for i in range(1, k + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (k + 1)
        used = [False] * (k + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, k + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1]
                if cur != INF:
                    cur = cur - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if delta == INF:
                return INF, None
            for j in range(k + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] != INF:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    match = [0] * k
    for j in range(1, k + 1):
        match[p[j] - 1] = j - 1
    value = ZERO
    for r, c in enumerate(match):
        value += cost[r][c]
    return value, match


def stiefel_domain_witness(a):
    """None, or (rows, cols) masks of an all-infinite k x (n+1-k) block.

    Such a block exists iff some d-column-set admits no finite matching
    (defect Hall condition); found via one maximum bipartite matching on
    the finite entries followed by an alternating-path reachability scan.
    """
    d, n = matrix_shape(a)
    adj = [[j for j in range(n) if a[i][j] != INF] for i in range(d)]
    owner = [-1] * n
    matched = []
    free = None
    for i in range(d):
        if _augment(adj, owner, i, [False] * n):
            matched.append(i)
        else:
            free = i
    if free is None:
        return None
    # Alternating reachability from the exposed row: R = reachable rows,
    # N(R) = reachable columns; every column of N(R) is matched into R,
    # so rows R see only |R| - 1 columns and the complement block is inf.
    rows = {free}
    colseen = set()
    queue = [free]
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j in colseen:
                continue
            colseen.add(j)
            if owner[j] >= 0 and owner[j] not in rows:
                rows.add(owner[j])
                queue.append(owner[j])
    k = len(rows)
    badcols = [j for j in range(n) if j not in colseen]
    return mask_of(rows), mask_of(badcols[: n + 1 - k])


def _augment(adj, owner, i, seen):
    """Augment the bipartite matching `owner` (right vertex -> left
    vertex) from the left vertex i, along the edges adj[i].  Not a
    closure: a recursive closure would leave a reference cycle per call
    for the cyclic GC."""
    for j in adj[i]:
        if seen[j]:
            continue
        seen[j] = True
        if owner[j] < 0 or _augment(adj, owner, owner[j], seen):
            owner[j] = i
            return True
    return False


def integer_scaled(values, base=1):
    """(den, ints): each finite int or Fraction times den, the lcm of
    base and their denominators, inf left as inf.  Integer sums and
    compares cost several times less than Fraction ones in the hot
    loops.  Only a float can be inf, so the type is tested first: a
    Fraction never meets a float in ==, and a finite float still
    fails on .denominator."""
    values = [INF if isinstance(v, float) and v == INF else v
              for v in values]
    den = lcm(base, *(v.denominator for v in values if v is not INF))
    return den, [v if v is INF else v.numerator * (den // v.denominator)
                 for v in values]


def stiefel(a):
    """Tropical minors of all d-column-sets, as a valuated matroid.

    Two exact methods, chosen by shape (see _laplace_pays): one min-plus
    Laplace expansion shared by all column sets, or one Hungarian run per
    column set.
    """
    from .valuated import ValuatedMatroid

    d, n = matrix_shape(a)
    if d > n:
        raise ValueError("more rows than columns")
    check_slots(n, d)
    wit = stiefel_domain_witness(a)
    if wit is not None:
        rows, cols = wit
        raise OutOfDomain(
            "matrix carries an all-infinite blocking submatrix",
            witness={"rows": list1(rows), "cols": list1(cols)})
    if _laplace_pays(d, n):
        den, entries = _laplace_minors(a)
    else:
        den, entries = None, _assignment_minors(a)
    return ValuatedMatroid(n, d, entries, den)


def _laplace_pays(d, n):
    """Is the Laplace expansion the cheaper method for a d x n matrix?

    It keeps a state for every k-subset of columns, k < d: cheap while d
    is small against n, about 2^n when d is near n.  A Hungarian run
    costs about d^3 steps, each measured about as dear as one state.
    """
    return sum(comb(n, k) for k in range(d)) <= comb(n, d) * d ** 3


def _laplace_minors(a):
    """(den, cur): all maximal minors, raw, in one expansion along the
    rows, on integers over den: after row k, cur[S] / den is the minor
    of rows 1..k on the k-set S, the min over j in S of the minor on
    S - j plus a[k][j].  Absent keys stand for inf."""
    d, n = matrix_shape(a)
    den, flat = integer_scaled(v for row in a for v in row)
    finite = [[(1 << j, v) for j, v in enumerate(flat[i * n:(i + 1) * n])
               if v is not INF] for i in range(d)]
    cur = {0: 0}
    for row in finite:
        prev, cur = cur, {}
        for s, base in prev.items():
            for jb, v in row:
                if s & jb:
                    continue
                t = base + v
                key = s | jb
                old = cur.get(key)
                if old is None or t < old:
                    cur[key] = t
    return den, cur


def _assignment_minors(a):
    "All maximal minors, raw, by one Hungarian run per column set."
    d, n = matrix_shape(a)
    return {b: min_assignment([[row[c] for c in bits(b)] for row in a])[0]
            for b in slot_table(n, d).masks}
