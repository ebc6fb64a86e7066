import gc
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from common import (fr, rank2_four, rank2_four_rows, rank3_five_rows,
                    random_rows)
from reference import (normalize_point_fraction, relsupp_fraction,
                       trop_cone_sample, trop_minor, zoom)
from troplin import (INF, AllInfinite, InfiniteBase, OutOfDomain,
                     ValuatedMatroid, membership, min_assignment,
                     normalize_point, relsupp, stiefel)
from troplin.oracle import stiefel_bruteforce, trop_minor_bruteforce
from troplin.trop import (_assignment_minors, _laplace_minors, _laplace_pays,
                          integer_scaled, stiefel_domain_witness)
from troplin.util import ksubsets, mask_of


def test_stiefel_rank2_four_table():
    v = rank2_four()
    want = {b: fr(0) for b in ksubsets(4, 2)}
    want[mask_of([2, 3])] = fr(1)
    assert v.n == 4 and v.d == 2
    assert v.table == want


def test_stiefel_normalizes():
    shifted = [[x + 7 for x in row] for row in rank2_four_rows()]
    assert stiefel(shifted) == rank2_four()


def test_stiefel_rank3_five_entries():
    v = stiefel(rank3_five_rows())
    assert v.table[mask_of([0, 1, 2])] == 1
    assert v.table[mask_of([0, 3, 4])] == INF
    others = [b for b in ksubsets(5, 3)
              if b not in (mask_of([0, 1, 2]), mask_of([0, 3, 4]))]
    assert all(v.table[b] == 0 for b in others)


def test_stiefel_matches_bruteforce():
    rng = random.Random(20240)
    for _ in range(60):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 5)
        rows = random_rows(rng, d, n, inf_prob=0.2)
        assert stiefel(rows) == stiefel_bruteforce(rows)


def test_stiefel_out_of_domain_witness():
    with pytest.raises(OutOfDomain) as err:
        stiefel([[INF, INF], [fr(0), fr(0)]])
    assert err.value.witness == {"rows": [1], "cols": [1, 2]}


def test_out_of_domain_witness_block_is_infinite():
    # the reported block must consist of infinite entries only, and be
    # large enough (k rows, n+1-k columns) to force degeneracy
    rows = [[INF, fr(0), INF, INF],
            [INF, fr(1), INF, INF],
            [fr(0), fr(0), fr(2), INF]]
    with pytest.raises(OutOfDomain) as err:
        stiefel(rows)
    wit = err.value.witness
    k = len(wit["rows"])
    assert len(wit["cols"]) == 4 + 1 - k
    for r in wit["rows"]:
        for c in wit["cols"]:
            assert rows[r - 1][c - 1] == INF


def test_stiefel_rejects_more_rows_than_columns():
    with pytest.raises(ValueError):
        stiefel([[fr(0)], [fr(0)]])


def test_min_assignment_square_golden():
    value, match = min_assignment([[fr(0), fr(1)], [fr(0), fr(0)]])
    assert value == 0
    assert sorted(match) == [0, 1]
    value, match = min_assignment([[fr(0), INF], [fr(0), INF]])
    assert value == INF and match is None


def test_min_assignment_matches_bruteforce():
    rng = random.Random(901)
    for _ in range(200):
        d = rng.randint(1, 4)
        a = [[(INF if rng.random() < 0.25
               else Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
              for _ in range(d)] for _ in range(d)]
        value, match = min_assignment(a)
        assert value == trop_minor_bruteforce(a, (1 << d) - 1)
        if value != INF:
            assert sorted(match) == list(range(d))
            assert sum(a[r][match[r]] for r in range(d)) == value


def test_trop_minor_column_selection():
    a = rank2_four_rows()
    assert trop_minor(a, mask_of([2, 3])) == 1
    assert trop_minor(a, mask_of([0, 1])) == 0
    with pytest.raises(ValueError):
        trop_minor(a, mask_of([0, 1, 2]))


def test_relsupp_rank3_five():
    x = (fr(1), fr(1), fr(1), fr(0), fr(0))
    rows = rank3_five_rows()
    assert relsupp(x, tuple(rows[0])) == mask_of([3, 4])
    assert relsupp(x, tuple(rows[1])) == 0
    assert relsupp(x, tuple(rows[2])) == mask_of([0, 3, 4])


def test_relsupp_needs_finite_base():
    with pytest.raises(InfiniteBase) as err:
        relsupp((fr(0), INF), (fr(0), fr(0)))
    assert err.value.witness == [2]


def test_zoom_rank3_five():
    x = (fr(1), fr(1), fr(1), fr(0), fr(0))
    rows = rank3_five_rows()
    assert zoom(x, tuple(rows[0])) == (fr(0), fr(0), fr(0), INF, INF)
    assert zoom(x, tuple(rows[1])) == (fr(0), fr(0), fr(0), fr(0), fr(0))
    assert zoom(x, tuple(rows[2])) == (INF, fr(0), fr(0), INF, INF)


def test_normalize_point():
    assert normalize_point((fr(3), fr(4), INF)) == (fr(0), fr(1), INF)
    with pytest.raises(AllInfinite):
        normalize_point((INF, INF))


def _coords(dens, size):
    finite = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(dens))
    return st.lists(st.one_of(st.just(INF), finite, st.integers(-9, 9)),
                    min_size=size[0], max_size=size[1]).map(tuple)


def _outcome(f, *args):
    "f's value, or the type and message of what it raised."
    try:
        return f(*args)
    except (ValueError, AllInfinite, InfiniteBase) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


@settings(max_examples=400)
@given(data=st.data())
def test_integer_points_match_the_fraction_references(data):
    """relsupp and normalize_point on integer scales give what the
    Fraction bodies give (troplin.oracle), refusals included and in the
    same order: an infinite basepoint, then unequal lengths, then an
    all-infinite point.  Coordinates hold inf, negatives and
    denominators 1-12; basepoints are drawn on other denominators too."""
    y = data.draw(_coords(range(1, 13), (1, 7)))
    same = data.draw(st.booleans())
    x = data.draw(_coords((1, 5, 7, 11, 13, 16, 30),
                          (len(y), len(y)) if same else (1, 7)))
    if data.draw(st.booleans()):
        x = tuple(v if v != INF else Fraction(-3, 13) for v in x)
    got = _outcome(relsupp, x, y)
    assert got == _outcome(relsupp_fraction, x, y)
    got = _outcome(normalize_point, y)
    assert got == _outcome(normalize_point_fraction, y)
    if not isinstance(got[0], type):
        assert all(v is INF or type(v) is Fraction for v in got)


def test_cone_sample_golden():
    rows = rank2_four_rows()
    assert trop_cone_sample(rows, (fr(0), INF)) == (0, 0, 0, 0)
    assert trop_cone_sample(rows, (fr(0), fr(0))) == (0, 0, 0, 0)
    assert trop_cone_sample(rows, (fr(1), fr(0))) == (0, 0, 1, 1)
    with pytest.raises(AllInfinite):
        trop_cone_sample(rows, (INF, INF))


def test_cone_samples_stay_in_the_space():
    rng = random.Random(42)
    v = rank2_four()
    rows = rank2_four_rows()
    for _ in range(25):
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in rows)
        y = trop_cone_sample(rows, coeffs)
        assert membership(v, y)


def test_stiefel_dp_matches_bruteforce():
    rng = random.Random(2718)
    inside = outside = 0
    for _ in range(120):
        d = rng.randint(1, 5)
        n = rng.randint(d, 9 if d < 5 else 7)
        p = rng.uniform(0.0, 0.5)
        a = [[(INF if rng.random() < p
               else Fraction(rng.randint(-4, 8), rng.choice((1, 2, 3))))
              for _ in range(n)] for _ in range(d)]
        try:
            want = stiefel_bruteforce(a)
        except OutOfDomain:
            with pytest.raises(OutOfDomain):
                stiefel(a)
            outside += 1
            continue
        got = stiefel(a)
        assert got.table == want.table
        inside += 1
    assert inside > 60 and outside > 0


def test_stiefel_methods_agree_on_both_sides_of_the_choice():
    rng = random.Random(1618)
    shapes = [(3, 7), (5, 10), (8, 10), (9, 10), (11, 12), (15, 16)]
    assert [_laplace_pays(d, n) for d, n in shapes] == [True] * 5 + [False]
    for d, n in shapes:
        a = [[(INF if rng.random() < 0.2
               else Fraction(rng.randint(-4, 8), rng.choice((1, 2, 3))))
              for _ in range(n)] for _ in range(d)]
        raw = _assignment_minors(a)
        den, fast = _laplace_minors(a)
        assert set(fast) <= set(raw)
        assert raw == {b: Fraction(fast[b], den) if b in fast else INF
                       for b in raw}
        v, w = ValuatedMatroid(n, d, fast, den), ValuatedMatroid(n, d, raw)
        assert (v.den, v.ints) == (w.den, w.ints)


def test_stiefel_picks_the_method_by_shape(monkeypatch):
    import troplin.trop as trop

    def refuse(a):
        raise AssertionError("wrong method for this shape")

    wide = [[fr(i * j % 5) for j in range(10)] for i in range(5)]
    square = [[fr(i * j % 7) for j in range(16)] for i in range(15)]
    monkeypatch.setattr(trop, "_assignment_minors", refuse)
    want = stiefel(wide)
    monkeypatch.undo()
    monkeypatch.setattr(trop, "_laplace_minors", refuse)
    assert want == stiefel_bruteforce(wide)
    assert stiefel(square).table == ValuatedMatroid(
        16, 15, _assignment_minors(square)).table


def test_integer_scaled_matches_the_old_definition():
    """The type test for INF gives what comparing every value with INF
    gave, on ints, Fractions and INF; a finite float still fails."""
    def old(values):
        values = list(values)
        den = lcm(*(v.denominator for v in values if v != INF))
        return den, [v if v == INF else v.numerator * (den // v.denominator)
                     for v in values]

    rng = random.Random(5150)
    for _ in range(300):
        values = [rng.choice((INF, float("inf"), rng.randint(-9, 9),
                              Fraction(rng.randint(-40, 40),
                                       rng.randint(1, 12))))
                  for _ in range(rng.randint(0, 8))]
        assert integer_scaled(values) == old(values)
        assert integer_scaled(iter(values)) == old(values)
    for bad in ([Fraction(1), 0.5], [-INF], [1, float("nan")]):
        with pytest.raises(AttributeError):
            old(bad)
        with pytest.raises(AttributeError):
            integer_scaled(bad)


def test_stiefel_leaves_no_reference_cycle():
    """The matching behind the domain test is a module-level recursion:
    with the collector off, a stiefel call leaves nothing for it."""
    rows = [[v if v == INF else Fraction(v) for v in row]
            for row in ([0, 1, INF, 2, INF], [INF, 0, 1, INF, 3],
                        [2, INF, 0, 1, INF])]
    gc.collect()
    gc.disable()
    try:
        v = stiefel(rows)
        blocked = stiefel_domain_witness([[0, INF, INF], [1, INF, INF]])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert v.support and blocked is not None
