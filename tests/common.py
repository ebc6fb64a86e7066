"""Shared builders for the test suite.

Everything returns fresh objects so tests can mutate rows freely.
Ground-set elements are 0-based masks internally; helpers that freeze
expected values comment them in 1-based labels to match the JSON layer.
"""

from fractions import Fraction

from troplin import INF, Matroid, OutOfDomain, ValuatedMatroid, stiefel
from troplin.util import ksubsets, mask_of


def fr(a, b=1):
    return Fraction(a, b)


# 2x4, rank 2: the one bent square, V_34 = 1 and 0 elsewhere.
def rank2_four_rows():
    return [[fr(0), fr(0), fr(0), fr(0)],
            [fr(0), fr(0), fr(1), fr(1)]]


def rank2_four():
    return stiefel(rank2_four_rows())


# 3x5, rank 3: V_123 = 1, V_145 = inf, all other triples 0.
def rank3_five_rows():
    return [[fr(0), fr(0), fr(0), fr(0), fr(0)],
            [fr(1), fr(1), fr(1), fr(0), fr(0)],
            [INF, fr(0), fr(0), INF, INF]]


def rank3_five():
    return stiefel(rank3_five_rows())


# Rank 2 on 6 elements with the three disjoint pairs 12, 34, 56 removed:
# the smallest non-transversal matroid of this shape.
PAIR_MASKS = (mask_of([0, 1]), mask_of([2, 3]), mask_of([4, 5]))


def three_pair_matroid():
    return Matroid(6, [b for b in ksubsets(6, 2) if b not in PAIR_MASKS],
                   check=False)


# Same ground set, all twenty-one pairs present, weight 1 on the three
# disjoint pairs and 0 elsewhere.  Its subdivision has the three-pair
# matroid as a facet.
def three_pair_valuation():
    return ValuatedMatroid(
        6, 2, {b: (fr(1) if b in PAIR_MASKS else fr(0))
               for b in ksubsets(6, 2)})


def k4_graphic_valuation():
    "The trivial valuation of M(K4): edges 12 13 14 23 24 34, no triangle."
    triangles = {mask_of(t) for t in ((0, 1, 3), (0, 2, 4), (1, 2, 5),
                                      (3, 4, 5))}
    return ValuatedMatroid(6, 3, {b: 0 for b in ksubsets(6, 3)
                                  if b not in triangles})


# A 4x6 presentation of the dual of three_pair_valuation, plus the
# matching of its rows onto the basis {1,2,3,5} that attains V*_{1235}.
def three_pair_dual_rows():
    return [[fr(0), INF, fr(0), INF, fr(0), INF],
            [INF, INF, INF, fr(1), fr(0), fr(0)],
            [INF, INF, fr(0), fr(0), fr(1), INF],
            [fr(0), fr(0), fr(1), INF, INF, INF]]


THREE_PAIR_DUAL_BASIS = mask_of([0, 1, 2, 4])
THREE_PAIR_DUAL_MATCHING = [0, 4, 2, 1]  # row r is matched onto column


def random_rows(rng, d, n, inf_prob=0.0, lo=0, hi=8):
    "Random in-domain d x n matrix with small rational entries."
    while True:
        rows = [[(INF if rng.random() < inf_prob
                  else Fraction(rng.randint(lo, hi), rng.choice((1, 2))))
                 for _ in range(n)] for _ in range(d)]
        try:
            stiefel(rows)
        except OutOfDomain:
            continue
        return rows


def random_valuation(rng, d, n, inf_prob=0.0):
    return stiefel(random_rows(rng, d, n, inf_prob))


def block_diagonal_rows(rng, shapes, inf_prob=0.0):
    """A block-diagonal matrix with columns shuffled: one random_rows
    block per (d, n) in shapes, INF off the blocks.  Its Stiefel image
    is the direct sum of the blocks' images."""
    width = sum(n for _, n in shapes)
    rows, left = [], 0
    for d, n in shapes:
        for row in random_rows(rng, d, n, inf_prob):
            rows.append([INF] * left + row + [INF] * (width - left - n))
        left += n
    order = rng.sample(range(width), width)
    return [[row[j] for j in order] for row in rows]


def points_of(rows):
    return [tuple(r) for r in rows]


def random_point(rng, n, dens=(1,), lo=-6, hi=6):
    "Finite point with coordinates k/q, k in [lo, hi], q drawn from dens."
    return tuple(Fraction(rng.randint(lo, hi), rng.choice(dens))
                 for _ in range(n))


def matroid_pool(rng, count):
    """`count` matroids for property tests against the oracle.

    Cycles through initial matroids of random valuations with d <= 4,
    n <= 8 (at coarse random points, and maximal cells), flat faces and
    duals of those, direct sums of two random matroids, sums with loops
    and coloops, rank-2 matroids of random parallel classes, uniform
    matroids and single-basis matroids.
    """
    from troplin import (direct_sum, initial_matroid, maximal_cells,
                         uniform_matroid)

    def initial():
        d = rng.randint(1, 4)
        n = rng.randint(d, 8)
        v = random_valuation(rng, d, n, inf_prob=rng.uniform(0, 0.4))
        if rng.random() < 0.5:
            return rng.choice(maximal_cells(v)).matroid
        return initial_matroid(v, random_point(rng, n, (1, 2), 0, 2))

    def face():
        m = initial()
        return m.polytope_face(rng.choice(m.flats()))

    def small():
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            return uniform_matroid(rng.randint(0, n), n)
        d = rng.randint(1, min(n, 3))
        v = random_valuation(rng, d, n, inf_prob=rng.uniform(0, 0.4))
        return v.underlying()

    def loops_coloops():
        m = small()
        k = rng.randint(1, 2)
        extra = uniform_matroid(rng.choice((0, k)), k)
        return direct_sum(extra, m) if rng.random() < 0.5 \
            else direct_sum(m, extra)

    def parallel_classes():
        "Rank 2: a pair is a basis iff it meets two different classes."
        n = rng.randint(4, 8)
        label = [rng.randint(0, 2) for _ in range(n)]
        label[:2] = [0, 1]
        return Matroid(n, [b for b in ksubsets(n, 2)
                           if len({label[e] for e in range(n)
                                   if (b >> e) & 1}) == 2], check=False)

    def uniform():
        n = rng.randint(0, 7)
        return uniform_matroid(rng.randint(0, n), n)

    def single():
        n = rng.randint(0, 8)
        return Matroid(n, [mask_of(e for e in range(n)
                                   if rng.random() < 0.5)], check=False)

    kinds = (initial, initial, face, lambda: initial().dual(),
             lambda: direct_sum(small(), small()), loops_coloops,
             parallel_classes, uniform, single)
    return [kinds[i % len(kinds)]() for i in range(count)]
