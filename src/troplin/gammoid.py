"""Valuated strict gammoids: weighted digraphs, linkings, and the bridge
between row presentations and digraph presentations.

Vertices are {0..n-1}; absent edges weigh inf and every vertex reaches
itself at cost 0.  All valuations here arise by tropical minors of the
reduction matrix, whose rows are indexed by the non-sink vertices.
"""

from .errors import NegativeCycle, NoBasis, NotMinimalMatching
from .trop import INF, ZERO, _augment, matrix_shape, min_assignment, stiefel
from .util import check_slots, elems, list1
from .valuated import ValuatedMatroid, v_dual


def _fmt(v):
    return "inf" if v == INF else str(v)


class WeightedDigraph:
    """Digraph on {0..n-1} with its sink set, edges (i, j) -> weight.

    INF weights are dropped and self-loops must weigh 0.  check=True
    refuses a negative cycle on construction (NegativeCycle, its
    vertices as the witness).  The check is only worth skipping for
    digraphs free of negative cycles by construction, as the one
    digraph_from_presentation builds.
    """

    def __init__(self, n, sinks, weights, check=True):
        if n <= 0:
            raise ValueError("need at least one vertex")
        full = (1 << n) - 1
        if sinks == 0 or sinks & ~full:
            raise ValueError("sinks must be a nonempty subset of vertices")
        edges = {}
        for (i, j), w in weights.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError("edge endpoint out of range")
            if w == INF:
                continue
            if i == j:
                if w != 0:
                    raise ValueError("self-loops must weigh 0")
                continue
            edges[(i, j)] = w
        self.n = n
        self.sinks = sinks
        self.edges = edges
        if check:
            self._check_cycles()

    def _check_cycles(self):
        "Bellman-Ford from a virtual source; a relaxing nth pass is a cycle."
        n = self.n
        dist = [ZERO] * n
        pred = [-1] * n
        bad = -1
        for it in range(n):
            bad = -1
            for (i, j), w in self.edges.items():
                if dist[i] + w < dist[j]:
                    dist[j] = dist[i] + w
                    pred[j] = i
                    bad = j
            if bad < 0:
                return
        v = bad
        for _ in range(n):
            v = pred[v]
        cycle = [v]
        u = pred[v]
        while u != v:
            cycle.append(u)
            u = pred[u]
        cycle.reverse()
        raise NegativeCycle("digraph has a negative cycle",
                            witness=[u + 1 for u in cycle])

    def weight(self, i, j):
        if i == j:
            return ZERO
        return self.edges.get((i, j), INF)

    def n_full(self):
        return (1 << self.n) - 1

    def reduction_matrix(self):
        "One row per non-sink vertex, entries the outgoing edge weights."
        rows = elems(self.n_full() ^ self.sinks)
        return [[self.weight(i, j) for j in range(self.n)] for i in rows]


def gammoid_valuation(g):
    """The valuated matroid of min-weight linkings onto the sinks: the
    dual of the Stiefel image of the reduction matrix, since the linking
    value of a set is the minor at its complementary columns."""
    if g.sinks == g.n_full():
        return ValuatedMatroid(g.n, g.n, {g.n_full(): ZERO})
    return v_dual(stiefel(g.reduction_matrix()))


def digraph_from_presentation(points, basis=None, matching=None):
    """Turn a row presentation into a digraph presenting the dual.

    Rows are matched minimally onto a basis of their span; each matched
    column becomes a non-sink vertex whose outgoing weights are its row,
    rescaled so the matched entry is 0.  Defaults: the lexicographically
    least basis, and the matching the assignment solver reports first.

    The bases of the span are the column sets that the rows match onto
    through finite entries (the support of stiefel(points)), so no
    minor is computed beyond the basis's own: the least basis is
    greedy over the columns, and a given one is a basis iff its
    assignment is finite.  Refusals come in the order the Stiefel image
    gives them (matrix shape, the slot limit, then OutOfDomain, which
    stiefel raises when the rows match onto no d columns), then NoBasis
    and the matching's.  A cycle of the digraph weighs the cost change
    of reassigning its rows along it, which is >= 0 since the matching
    is minimal: the digraph is built without the negative-cycle check.
    """
    a = [tuple(row) for row in points]
    d, n = matrix_shape(a)
    check_slots(n, d)
    full = (1 << n) - 1
    adj = [[r for r in range(d) if a[r][j] != INF] for j in range(n)]
    owner = [-1] * d
    least = 0
    for j in range(n):
        if _augment(adj, owner, j, [False] * d):
            least |= 1 << j
            if least.bit_count() == d:
                break
    else:
        stiefel(a)  # raises: more rows than columns, or OutOfDomain
    if basis is None:
        basis = least
    elif basis & ~full or basis.bit_count() != d:
        raise NoBasis("not a basis of the row span", witness=list1(basis))
    cols = elems(basis)
    value, match = min_assignment([[row[c] for c in cols] for row in a])
    if value == INF:
        raise NoBasis("not a basis of the row span", witness=list1(basis))
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
    return WeightedDigraph(n, full ^ basis, weights, check=False)


def stable_intersect_hyperplanes(apices, target):
    """Fold the apices' min-plus hyperplanes by stable intersection and
    compare with the target valuation."""
    from .valuated import hyperplane, stable_intersection

    if not apices:
        raise ValueError("need at least one apex")
    n = len(apices[0])
    if target.n != n or target.d != n - len(apices):
        raise ValueError("target rank does not match the apex count")
    cur = hyperplane(apices[0])
    for apex in apices[1:]:
        cur = stable_intersection(cur, hyperplane(apex))
    return cur == target
