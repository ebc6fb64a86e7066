"""The theorem census: every valuated matroid of a small class, listed
by reference.census, as ground truth for the theorems.

Each class runs in a test of its own, so that its cost shows.
"""

import pytest

from reference import census, corank_transform_mobius, rank_violation_scan
from troplin import (Matroid, NotTransversalFacets, ValuatedMatroid, apices,
                     distinguished, is_transversal_valuated, maximal_cells,
                     stiefel)
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
