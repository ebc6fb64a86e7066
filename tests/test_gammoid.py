import random
from fractions import Fraction

import pytest

from common import (THREE_PAIR_DUAL_BASIS, THREE_PAIR_DUAL_MATCHING, fr,
                    random_rows, three_pair_dual_rows, three_pair_valuation)
from reference import (digraph_from_presentation_stiefel, linking_bruteforce,
                       linking_value)
from troplin import (INF, NegativeCycle, NoBasis, NotMinimalMatching,
                     ValuatedMatroid, WeightedDigraph,
                     digraph_from_presentation, gammoid, gammoid_valuation,
                     jsonio, stable_intersect_hyperplanes, stiefel, v_dual)
from troplin.util import ksubsets, mask_of


def paper_weights(g):
    return sorted((i + 1, j + 1, w) for (i, j), w in g.edges.items())


def matched_digraph():
    return digraph_from_presentation(three_pair_dual_rows(),
                                     basis=THREE_PAIR_DUAL_BASIS,
                                     matching=THREE_PAIR_DUAL_MATCHING)


def test_digraph_validation():
    with pytest.raises(ValueError):
        WeightedDigraph(0, 0, {})
    with pytest.raises(ValueError):
        WeightedDigraph(3, 0, {})
    with pytest.raises(ValueError):
        WeightedDigraph(3, 1, {(0, 3): fr(1)})
    with pytest.raises(ValueError):
        WeightedDigraph(3, 1, {(1, 1): fr(1)})
    g = WeightedDigraph(3, 1, {(1, 1): fr(0), (0, 1): INF, (1, 2): fr(2)})
    assert g.edges == {(1, 2): fr(2)}
    assert g.weight(0, 0) == 0 and g.weight(0, 1) == INF


def test_negative_cycle_witness():
    with pytest.raises(NegativeCycle) as err:
        WeightedDigraph(2, mask_of([1]), {(0, 1): fr(-1), (1, 0): fr(0)})
    assert sorted(err.value.witness) == [1, 2]
    # a negative edge without a negative cycle is fine
    WeightedDigraph(2, mask_of([1]), {(0, 1): fr(-5)})
    # and check=False builds without looking
    g = WeightedDigraph(2, mask_of([1]), {(0, 1): fr(-1), (1, 0): fr(0)},
                        check=False)
    with pytest.raises(NegativeCycle):
        g._check_cycles()


def test_matched_digraph_shape():
    g = matched_digraph()
    assert g.sinks == mask_of([3, 5])
    assert paper_weights(g) == [
        (1, 3, fr(0)), (1, 5, fr(0)), (2, 1, fr(0)), (2, 3, fr(1)),
        (3, 4, fr(0)), (3, 5, fr(1)), (5, 4, fr(1)), (5, 6, fr(0))]


def test_linking_values_matched_digraph():
    g = matched_digraph()
    assert linking_value(g, mask_of([3, 5])) == 0
    assert linking_value(g, mask_of([0, 1])) == 1
    assert linking_value(g, mask_of([4, 5])) == 1
    with pytest.raises(ValueError):
        linking_value(g, mask_of([0]))


def test_linking_matches_bruteforce_on_matched_digraph():
    g = matched_digraph()
    for b in ksubsets(6, 2):
        assert linking_value(g, b) == linking_bruteforce(g, b)


def test_linking_matches_bruteforce_random():
    rng = random.Random(6174)
    built = 0
    while built < 12:
        n = rng.randint(3, 6)
        sinks = mask_of(rng.sample(range(n), rng.randint(1, n - 1)))
        weights = {}
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.4:
                    if rng.random() < 0.3 and i < j:
                        w = Fraction(rng.randint(-3, -1))
                    else:
                        w = Fraction(rng.randint(0, 5), rng.choice((1, 2)))
                    if i > j and w < 0:
                        w = -w
                    weights[(i, j)] = w
        try:
            g = WeightedDigraph(n, sinks, weights)
        except NegativeCycle:
            continue
        for b in ksubsets(n, sinks.bit_count()):
            assert linking_value(g, b) == linking_bruteforce(g, b)
        built += 1


def test_gammoid_valuation_matched_and_default():
    snow = three_pair_valuation()
    assert gammoid_valuation(matched_digraph()) == snow
    g = digraph_from_presentation(three_pair_dual_rows())
    assert g.sinks == mask_of([4, 5])
    assert gammoid_valuation(g) == snow


def test_gammoid_no_edges_single_basis():
    g = WeightedDigraph(4, mask_of([1, 3]), {})
    v = gammoid_valuation(g)
    assert v.d == 2
    assert {b for b, x in v.table.items() if x != INF} == {mask_of([1, 3])}
    g_all = WeightedDigraph(3, mask_of([0, 1, 2]), {})
    assert gammoid_valuation(g_all).table == {mask_of([0, 1, 2]): fr(0)}


def test_reduction_matrix_spans_the_same_valuation():
    g = matched_digraph()
    rows = g.reduction_matrix()
    assert len(rows) == 4
    assert stiefel(rows) == stiefel(three_pair_dual_rows())


def test_gammoid_round_trip_random():
    rng = random.Random(31337)
    for _ in range(15):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 6)
        rows = random_rows(rng, d, n, inf_prob=0.2)
        g = digraph_from_presentation(rows)
        assert gammoid_valuation(g) == v_dual(stiefel(rows))


def test_digraph_from_presentation_guards():
    with pytest.raises(NotMinimalMatching) as err:
        digraph_from_presentation([[fr(0), fr(1)], [fr(0), fr(0)]],
                                  basis=mask_of([0, 1]), matching=[1, 0])
    assert err.value.witness == {"weight": "1", "minimum": "0"}
    with pytest.raises(NoBasis) as err:
        digraph_from_presentation([[fr(0), fr(0), INF], [fr(0), fr(0), INF]],
                                  basis=mask_of([0, 2]))
    assert err.value.witness == [1, 3]
    with pytest.raises(ValueError):
        digraph_from_presentation(three_pair_dual_rows(),
                                  basis=THREE_PAIR_DUAL_BASIS,
                                  matching=[0, 1, 2, 3])


def digraph_outcome(build, *args):
    """fmt_digraph bytes of the answer, after its negative-cycle check,
    or the refusal's type, message and witness."""
    try:
        g = build(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    g._check_cycles()
    return jsonio.dumps(jsonio.fmt_digraph(g))


def digraph_calls(rng):
    """Argument tuples for 400 seeded matrices with d <= 5, n <= 9 and up
    to half their entries inf, in or out of the Stiefel domain: the
    defaults, every basis mask when n <= 6, and matchings onto random
    column sets, given with their basis or alone, minimal or not."""
    for _ in range(400):
        d = rng.randint(1, 5)
        n = rng.randint(d, 9)
        share = rng.uniform(0, 0.5)
        rows = [[INF if rng.random() < share
                 else Fraction(rng.randint(-3, 8), rng.choice((1, 2, 3)))
                 for _ in range(n)] for _ in range(d)]
        yield (rows,)
        if n <= 6:
            for basis in range(1 << n):
                yield rows, basis
        for _ in range(3):
            sigma = rng.sample(range(n), d)
            yield rows, mask_of(sigma), sigma
            yield rows, None, sigma


def test_digraph_matches_the_stiefel_reference():
    """Same bytes or the same refusal as the reference that reads the
    whole Stiefel image, and every digraph free of negative cycles,
    though it is built without the check."""
    seen = {}
    for args in digraph_calls(random.Random(9091)):
        got = digraph_outcome(digraph_from_presentation, *args)
        assert got == digraph_outcome(digraph_from_presentation_stiefel,
                                      *args)
        kind = "ok" if isinstance(got, str) else got[0]
        seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"ok", "OutOfDomain", "NoBasis", "ValueError",
                         "NotMinimalMatching"}
    assert min(seen.values()) > 50


@pytest.mark.parametrize("points, error", [
    ([], "ValueError"), ([[fr(0), fr(1)], [fr(0)]], "ValueError"),
    ([[fr(0)], [fr(1)]], "ValueError"),
    ([[fr(0), fr(0), fr(0)]] + [[fr(0), INF, INF]] * 2, "OutOfDomain"),
    ([[fr(0)] * 20] * 10, "TooLarge")])
def test_digraph_refusals_match_the_reference(points, error):
    "Empty, ragged, more rows than columns, OutOfDomain and TooLarge."
    got = digraph_outcome(digraph_from_presentation, points)
    assert got[0] == error
    assert got == digraph_outcome(digraph_from_presentation_stiefel, points)


def test_full_rank_digraph_needs_no_stiefel_image(monkeypatch):
    def refuse(a):
        raise AssertionError("computed the Stiefel image")

    monkeypatch.setattr(gammoid, "stiefel", refuse)
    g = digraph_from_presentation(three_pair_dual_rows())
    assert g.sinks == mask_of([4, 5])
    g = digraph_from_presentation(three_pair_dual_rows(),
                                  basis=THREE_PAIR_DUAL_BASIS,
                                  matching=THREE_PAIR_DUAL_MATCHING)
    assert g.sinks == mask_of([3, 5])


def test_stable_intersect_hyperplanes():
    snow = three_pair_valuation()
    rows = [tuple(r) for r in three_pair_dual_rows()]
    assert stable_intersect_hyperplanes(rows, snow)
    almost = dict(snow.table)
    almost[mask_of([0, 1])] = fr(2)
    assert not stable_intersect_hyperplanes(
        rows, ValuatedMatroid(6, 2, almost))
    with pytest.raises(ValueError):
        stable_intersect_hyperplanes(rows[:2], snow)
    with pytest.raises(ValueError):
        stable_intersect_hyperplanes([], snow)


def random_acyclic_digraph(rng, n, nsinks, density):
    order = rng.sample(range(n), n)
    weights = {}
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < density:
                weights[(order[x], order[y])] = Fraction(
                    rng.randint(-3, 6), rng.choice((1, 2)))
    return WeightedDigraph(n, mask_of(rng.sample(range(n), nsinks)), weights)


def assert_matches_linking_values(g):
    v = gammoid_valuation(g)
    raw = {b: linking_value(g, b) for b in ksubsets(g.n, g.sinks.bit_count())}
    low = min(raw.values())
    assert v.table == {b: (INF if x == INF else x - low)
                       for b, x in raw.items()}


def test_gammoid_valuation_matches_linking_values():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(1, 7)
        assert_matches_linking_values(
            random_acyclic_digraph(rng, n, rng.randint(1, n), 0.5))


def test_gammoid_valuation_with_few_sinks():
    # reduction matrices of 15 x 16 and 14 x 16: the first is past the
    # point where the Laplace expansion would keep about 2^16 states
    rng = random.Random(2024)
    for nsinks in (1, 2):
        assert_matches_linking_values(
            random_acyclic_digraph(rng, 16, nsinks, 0.8))
