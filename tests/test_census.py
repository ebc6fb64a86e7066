"""The theorem census: every valuated matroid of a small class, listed
by reference.census, as ground truth for the theorems.

Each class runs in a test of its own, so that its cost shows.
"""

from collections import Counter
from fractions import Fraction

import pytest

from reference import (census, corank_transform_mobius,
                       presentation_space_member, rank_violation_scan)
from troplin import (INF, Matroid, NotTransversalFacets, ValuatedMatroid,
                     apices, distinguished, is_transversal_valuated,
                     maximal_cells, sample_presentation, stiefel)
from troplin.util import mask_of


def test_census_rank3_on_6_with_values_0_1():
    """Rank 3 on 6 elements, values {0, 1}: 1,244 tables, which are
    1,243 valuations (the all-0 and all-1 tables are one), every one
    connected, loop-free and coloop-free.  Every maximal cell's corank
    transform is the Moebius sum.  The 1,213 transversal ones are the
    Stiefel image of their distinguished apices; for the 30 others
    distinguished refuses with a maximal cell that the alternating rank
    inequality rejects."""
    tables = census(6, 3, (0, 1))
    assert len(tables) == 1244
    vals = {ValuatedMatroid(6, 3, t) for t in tables}
    assert len(vals) == 1243
    verdicts = []
    for v in vals:
        uv = v.underlying()
        assert len(uv.connected_components()) == 1
        assert not uv.loops() and not uv.coloops()
        cells = [c.matroid for c in maximal_cells(v)]
        for m in cells:
            assert m.cyclic_flats() == corank_transform_mobius(m)
        verdict = is_transversal_valuated(v)
        verdicts.append(verdict)
        if verdict:
            assert stiefel(apices(distinguished(v))) == v
            continue
        with pytest.raises(NotTransversalFacets) as err:
            distinguished(v)
        bad = Matroid(6, [mask_of(e - 1 for e in b)
                          for b in err.value.witness["cell"]])
        assert bad in cells
        assert rank_violation_scan(bad) is not None
    assert verdicts.count(True) == 1213 and verdicts.count(False) == 30


def test_census_fiber_route_equals_the_definition():
    """The paper's fiber description (reference.presentation_space_member)
    answers stiefel(points) == v on all 1,213 transversal valuations of
    rank 3 on 6 elements with values {0, 1}, on four tuples each: the
    apices, sample_presentation with seeds 1 and 2, and the seed-1
    sample with its first finite coordinate moved by 1/2.  Of the 4,852
    tuples, 4,549 present their valuation; the 303 others are moved
    samples."""
    vals = [v for v in {ValuatedMatroid(6, 3, t) for t in census(6, 3, (0, 1))}
            if is_transversal_valuated(v)]
    assert len(vals) == 1213
    cases = Counter()
    for v in vals:
        first = sample_presentation(v, 1)
        moved = [list(p) for p in first]
        i, j = next((i, j) for i, p in enumerate(moved)
                    for j, x in enumerate(p) if x != INF)
        moved[i][j] += Fraction(1, 2)
        for kind, points in (("apices", apices(distinguished(v))),
                             ("seed 1", first),
                             ("seed 2", sample_presentation(v, 2)),
                             ("moved", moved)):
            want = stiefel(points) == v
            assert presentation_space_member(v, points) == want
            cases[kind, want] += 1
    assert cases == {("apices", True): 1213, ("seed 1", True): 1213,
                     ("seed 2", True): 1213, ("moved", True): 910,
                     ("moved", False): 303}
