import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from common import (block_diagonal_rows, fr, random_point, random_rows,
                    rank2_four, rank3_five, random_valuation,
                    three_pair_valuation)
from reference import (cell_complex_by_faces, census,
                       check_pluecker_bruteforce, component_flacets,
                       contract_lex_greatest,
                       face_point_fraction, first_breakpoint_bruteforce,
                       initial_matroid_bruteforce, membership_bruteforce,
                       restrict_lex_greatest, subdivision_sample,
                       three_term_violation_scan, trop_cone_sample,
                       violated_relation)
from troplin import (INF, AllInfinite, EmptyIntersection, EmptySupport,
                     InfiniteBase, Matroid, NotAMatroid, OutOfDomain,
                     ValuatedMatroid, cell_complex, check_pluecker, hyperplane,
                     initial_matroid, linprog, maximal_cells, membership,
                     normalize_point, stable_intersection, stable_sum,
                     stiefel, trop, uniform_matroid, v_contract, v_dual,
                     v_restrict, valuated)
from troplin.oracle import cell_complex_bruteforce
from troplin.util import BoundedMemo, bits, elems, ksubsets, mask_of, submasks


def cell_without_34():
    return Matroid(4, [b for b in ksubsets(4, 2) if b != mask_of([2, 3])],
                   check=False)


def cell_without_12():
    return Matroid(4, [b for b in ksubsets(4, 2) if b != mask_of([0, 1])],
                   check=False)


def vertices(cells):
    "The vertex of each connected cell: its witness less its minimum."
    return {c.matroid.bases: normalize_point(c.witness) for c in cells
            if len(c.matroid.connected_components()) == 1}


def test_constructor_coerces_and_normalizes():
    v = ValuatedMatroid(3, 2, {mask_of([0, 1]): 5, mask_of([0, 2]): 7})
    assert v.table[mask_of([0, 1])] == 0
    assert v.table[mask_of([0, 2])] == 2
    assert isinstance(v.table[mask_of([0, 2])], Fraction)
    assert v.table[mask_of([1, 2])] == INF


def test_constructor_matches_the_fraction_reference():
    """table, support, == and hash agree with a table normalized on
    Fractions: mixed int and Fraction inputs with denominators 1..12,
    least entry not 0, and a share of INF from 0 to 0.5."""
    def reference(n, d, entries):
        full = {b: (INF if entries.get(b, INF) == INF
                    else Fraction(entries[b])) for b in ksubsets(n, d)}
        low = min(full.values())
        return {b: v if v == INF else v - low for b, v in full.items()}

    rng = random.Random(4104)
    for _ in range(200):
        d = rng.randint(0, 4)
        n = rng.randint(max(d, 1), 7)
        share = rng.uniform(0, 0.5)
        entries = {}
        for b in ksubsets(n, d):
            if rng.random() < share:
                if rng.random() < 0.5:
                    entries[b] = INF
            elif rng.random() < 0.3:
                entries[b] = rng.randint(-20, 20)
            else:
                entries[b] = Fraction(rng.randint(-40, 40),
                                      rng.randint(1, 12))
        if all(v == INF for v in entries.values()):
            entries[rng.choice(ksubsets(n, d))] = rng.randint(1, 5)
        v = ValuatedMatroid(n, d, entries)
        want = reference(n, d, entries)
        assert v.table == want
        assert all(type(t) is Fraction for t in v.table.values() if t != INF)
        assert min(v.ints.values()) == 0
        assert all(t == INF if u == INF else t == Fraction(u, v.den)
                   for t, u in zip(v.table.values(), v.ints.values()))
        assert v.support == tuple(b for b, t in want.items() if t != INF)
        shift = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        w = ValuatedMatroid(n, d, {b: t if t == INF else t + shift
                                   for b, t in want.items()})
        assert v == w and hash(v) == hash(w)
        if len(v.support) > 1:
            other = dict(want)
            other[v.support[-1]] += 1
            assert v != ValuatedMatroid(n, d, other)


def test_valuation_is_scaled_once(monkeypatch):
    """After construction, the Pluecker check, initial matroids and the
    cell walk read the valuation's own integer table: they put points
    on its scale, never the table again."""
    def no_scaling(values, base=1):
        values = list(values)
        if len(values) > v.n:
            raise AssertionError("integer_scaled called after construction")
        return scaled(values, base)

    scaled = trop.integer_scaled
    rng = random.Random(6174)
    rows = [[v if v == INF else v / rng.randint(1, 12) for v in row]
            for row in random_rows(rng, 4, 8, 0.2)]
    v = stiefel(rows)
    points = [random_point(rng, 8, range(1, 13), -12, 12) for _ in range(3)]
    want = (check_pluecker(v), [initial_matroid(v, x) for x in points],
            [(c.matroid, c.witness) for c in maximal_cells(v)])
    fresh = ValuatedMatroid(v.n, v.d, v.table)
    monkeypatch.setattr(trop, "integer_scaled", no_scaling)
    monkeypatch.setattr(valuated, "integer_scaled", no_scaling)
    assert check_pluecker(fresh) == want[0] == (True, None)
    assert [initial_matroid(fresh, x) for x in points] == want[1]
    assert [(c.matroid, c.witness)
            for c in maximal_cells(fresh)] == want[2]


def test_constructor_rejects_bad_keys_and_empty():
    with pytest.raises(ValueError):
        ValuatedMatroid(3, 2, {mask_of([0]): 0})
    with pytest.raises(AllInfinite):
        ValuatedMatroid(3, 2, {})
    with pytest.raises(AllInfinite):
        ValuatedMatroid(3, 2, {mask_of([0, 1]): INF})


def test_equality_is_projective():
    a = ValuatedMatroid(3, 2, {mask_of([0, 1]): 1, mask_of([0, 2]): 3})
    b = ValuatedMatroid(3, 2, {mask_of([0, 1]): 0, mask_of([0, 2]): 2})
    assert a == b and hash(a) == hash(b)


def test_one_valuation_has_one_integer_table():
    """(den, ints) depends on the valuation, not on how its entries are
    written: 1/2, 1/2, 3/2 (and 1, 1, 3 over den 2) give den 1 and ints
    0, 0, 1, as 0, 0, 1 does, so equality and hashing read them."""
    keys = [mask_of([0, 1]), mask_of([0, 2]), mask_of([1, 2])]
    want = ValuatedMatroid(3, 2, dict(zip(keys, (0, 0, 1))))
    for v in (ValuatedMatroid(3, 2, dict(zip(keys, (fr(1, 2), fr(1, 2),
                                                    fr(3, 2))))),
              ValuatedMatroid(3, 2, dict(zip(keys, (1, 1, 3))), 2),
              want):
        assert v.den == 1 and [v.ints[b] for b in keys] == [0, 0, 1]
        assert v == want and hash(v) == hash(want)
    assert ValuatedMatroid(3, 2, dict(zip(keys, (0, 0, 2)))) != want


def test_underlying_requires_exchange():
    v = ValuatedMatroid(4, 2, {mask_of([0, 1]): 0, mask_of([2, 3]): 0})
    with pytest.raises(NotAMatroid):
        v.underlying()


def test_check_pluecker_golden_failure():
    bad = ValuatedMatroid(4, 2, {b: (0 if b == mask_of([0, 1]) else 1)
                                 for b in ksubsets(4, 2)})
    ok, wit = check_pluecker(bad)
    assert not ok
    assert wit == {"a": [1], "c": [2, 3, 4]}


def test_check_pluecker_accepts_examples_and_images():
    assert check_pluecker(rank2_four()) == (True, None)
    assert check_pluecker(rank3_five()) == (True, None)
    assert check_pluecker(three_pair_valuation()) == (True, None)
    rng = random.Random(5150)
    for _ in range(20):
        d = rng.randint(1, 3)
        v = random_valuation(rng, d, rng.randint(d + 1, 6), inf_prob=0.2)
        assert check_pluecker(v) == (True, None)


def random_pluecker_case(rng):
    """A table with d <= 4 and n <= 8: a Stiefel image, one perturbed
    entry, entries killed to inf, random 0/inf/small-integer values, a
    single finite entry, an image with every finite entry 0 (so the
    three-term loop's INF stand-in is 1), or an image scaled by 10^400,
    perturbed or not, where adding a float INF to an entry would raise
    OverflowError."""
    d = rng.randint(0, 4)
    n = rng.randint(max(d, 1), 8)
    slots = ksubsets(n, d)
    kind = rng.choice(("image", "perturbed", "killed", "random", "single",
                       "zeros", "huge"))
    if kind == "single":
        return ValuatedMatroid(n, d, {rng.choice(slots): 0})
    if kind == "random" or d == 0:
        table = {b: rng.choice((INF, 0, 0, 1, 2, 3)) for b in slots}
        table[rng.choice(slots)] = 0
        return ValuatedMatroid(n, d, table)
    table = dict(stiefel(random_rows(rng, d, n, rng.uniform(0, 0.4))).table)
    finite = [b for b in slots if table[b] != INF]
    if kind == "zeros":
        table = {b: v if v == INF else 0 for b, v in table.items()}
    elif kind == "huge":
        table = {b: v if v == INF else v * 10 ** 400
                 for b, v in table.items()}
        if rng.random() < 0.5:
            table[rng.choice(finite)] += rng.choice((-1, 1))
    elif kind == "perturbed":
        b = rng.choice(finite)
        table[b] += rng.choice((-1, 1)) * Fraction(rng.randint(1, 4), 2)
    elif kind == "killed":
        for b in rng.sample(finite, rng.randint(1, len(finite))):
            table[b] = INF
        table[rng.choice(finite)] = 0
    return ValuatedMatroid(n, d, table)


def test_check_pluecker_matches_the_ordered_full_scan():
    """Verdict equal to the ordered reference's, and every false
    witness a violated relation by definition: the certificate is read
    off the exchange failure or the three-term relation that the check
    met, not rescanned in order."""
    rng = random.Random(1992)
    verdicts = {True: 0, False: 0}
    for _ in range(600):
        v = random_pluecker_case(rng)
        ok, witness = check_pluecker(v)
        assert ok == check_pluecker_bruteforce(v)[0]
        assert ok == (witness is None)
        assert ok or violated_relation(v, **witness)
        verdicts[ok] += 1
    assert verdicts[True] > 200 and verdicts[False] > 50
    # the witnesses of the two failure kinds, on fixed tables
    non_matroid = ValuatedMatroid(5, 2, {mask_of([0, 1]): 0,
                                         mask_of([2, 3]): 0})
    assert check_pluecker(non_matroid) == (False, {"a": [4], "c": [1, 2, 3]})
    assert violated_relation(non_matroid, [4], [1, 2, 3])
    assert not violated_relation(non_matroid, [1], [3, 4, 5])  # no term
    assert not violated_relation(non_matroid, [4], [1, 2])  # wrong size


def three_term_case(rng):
    """A table with d <= 5 and n <= 9: a Stiefel image, the image with
    up to 95% of its entries killed to inf, or the image with one entry
    moved, so dense, sparse and broken tables all occur."""
    d = rng.randint(2, 5)
    n = rng.randint(d, 9)
    table = dict(stiefel(random_rows(rng, d, n, rng.uniform(0, 0.3))).table)
    finite = [b for b, v in table.items() if v != INF]
    kind = rng.choice(("dense", "sparse", "broken"))
    if kind == "sparse":
        share = rng.uniform(0, 0.95)
        for b in finite:
            if rng.random() < share:
                table[b] = INF
        table[rng.choice(finite)] = 0
    elif kind == "broken":
        table[rng.choice(finite)] += rng.choice((-1, 1))
    return ValuatedMatroid(n, d, table)


@pytest.mark.parametrize("cache_max", [valuated.QUADRUPLE_CACHE_MAX, 3])
def test_three_term_violation_matches_the_plain_scan(monkeypatch, cache_max):
    """The pair-table loop returns exactly the plain scan's result, the
    witness included, since the CLI prints it; with the cache bound
    patched low, the generator path gives the same."""
    monkeypatch.setattr(valuated, "QUADRUPLE_CACHE_MAX", cache_max)
    monkeypatch.setattr(valuated, "_QUADRUPLES", {})
    rng = random.Random(4711)
    failures = 0
    for _ in range(400):
        v = three_term_case(rng)
        got = valuated._three_term_violation(v.n, v.d, v.ints)
        assert got == three_term_violation_scan(v.n, v.d, v.ints)
        failures += got is not None
    assert 60 < failures < 340
    assert set(valuated._QUADRUPLES) <= set(range(cache_max + 1))


def full_support_case(rng):
    """A table with no INF, d <= 5 and n <= 8: random {0, 1, 2} entries
    (nearly always broken, often first at a (d-2)-set holding element
    0), a Stiefel image of a finite matrix (valid), or that image with
    one entry moved by 1."""
    d = rng.randint(2, 5)
    n = rng.randint(d + 2, 8)
    kind = rng.choice(("random", "image", "moved"))
    if kind == "random":
        return ValuatedMatroid(n, d, {b: rng.choice((0, 1, 2))
                                      for b in ksubsets(n, d)})
    table = dict(stiefel(random_rows(rng, d, n)).table)
    if kind == "moved":
        table[rng.choice(ksubsets(n, d))] += rng.choice((-1, 1))
    return ValuatedMatroid(n, d, table)


def fails_at_a_set_holding_the_last(v):
    """Does a three-term relation of the full table v fail at a
    (d-2)-set S holding n - 1?  At S they are the four-point condition
    of the rank-2 table p(ab) = pl(S + ab), the plain scan's relations
    at the empty set when the elements of S are loops."""
    top = 1 << (v.n - 1)
    for s in ksubsets(v.n, v.d - 2):
        if s & top:
            pairs = {b ^ s: t for b, t in v.ints.items() if b & s == s}
            if three_term_violation_scan(v.n, 2, ValuatedMatroid(
                    v.n, 2, pairs).ints) is not None:
                return True
    return False


@pytest.mark.parametrize("cache_max", [valuated.QUADRUPLE_CACHE_MAX, 3])
def test_full_support_scan_stops_at_the_first_set_holding_the_last(
        monkeypatch, cache_max):
    """On a full support the scan reads the (d-2)-sets in ksubsets order
    and stops at the first one holding n - 1, since the sets holding
    n - 1 come last and are implied by the others (lemma 2), so its
    first failure is the first in full order with no rescan.  Equal to
    the plain scan on dense tables with n <= 8, valid and broken, among
    them tables whose first failure sits before a failing set that holds
    n - 1, which the scan never reads; with the cache bound patched low,
    the generator path gives the same."""
    monkeypatch.setattr(valuated, "QUADRUPLE_CACHE_MAX", cache_max)
    monkeypatch.setattr(valuated, "_QUADRUPLES", {})
    monkeypatch.setattr(valuated, "_PAIR_INDEX", BoundedMemo())
    rng = random.Random(1729)
    seen = Counter()
    for _ in range(300):
        v = full_support_case(rng)
        got = valuated._three_term_violation(v.n, v.d, v.ints)
        assert got == three_term_violation_scan(v.n, v.d, v.ints)
        seen["valid" if got is None else
             "also at n - 1" if fails_at_a_set_holding_the_last(v) else
             "before n - 1 only"] += 1
    assert min(seen.values()) > 30, seen
    assert set(valuated._QUADRUPLES) <= set(range(cache_max + 1))
    assert len(valuated._PAIR_INDEX) > 10


def test_a_valid_full_support_scans_4_in_n_of_the_relations(monkeypatch):
    """A valid full 4 x 10 table makes 1,260 quadruple tests, the
    prefixes through 0 at the 36 (d-2)-sets without 0, where the scan
    over every quadruple at every (d-2)-set makes 3,150."""
    quadruples, tested = valuated._quadruples, []

    def counted(m):
        for q in quadruples(m):
            tested.append(m)
            yield q

    monkeypatch.setattr(valuated, "_quadruples", counted)
    v = stiefel(random_rows(random.Random(10), 4, 10))
    assert len(v.support) == 210
    assert check_pluecker(v) == (True, None)
    assert len(tested) == comb(9, 2) * comb(7, 3) == 1260
    assert comb(10, 2) * comb(8, 4) == 3150 == 1260 * 10 // 4
    # a broken one stops at its first failure, the first in full order,
    # with no rescan
    table = dict(v.table)
    table[mask_of([0, 1, 2, 3])] += 1
    del tested[:]
    broken = ValuatedMatroid(10, 4, table)
    got = valuated._three_term_violation(10, 4, broken.ints)
    assert got == three_term_violation_scan(10, 4, broken.ints) \
        == {"a": [1, 2, 3], "c": [1, 2, 4, 5, 6]}
    assert 0 < len(tested) < 35


def test_base_point_prefix_needs_one_finite_pair_at_the_base():
    """Lemma 1 holds when the base point x0 has one finite pair: the
    quadruples through x0 make the pairs of the elements g with
    p(x0 g) = INF all INF, and p(f g) - p(x0 f) one constant over the
    other f, so no failure lies outside them.  The scan takes x0 as the
    first live element: with element 1 a loop, whose row is all INF,
    the one violated quadruple 2345 lies outside the quadruples through
    1 and is found through 2.  On random pair tables whose base row
    holds an INF beside a finite value, the prefix gives the plain
    scan's witness."""
    table = {mask_of(ab): 1 for ab in combinations(range(1, 5), 2)}
    table[mask_of([1, 2])] = 0
    loop = ValuatedMatroid(5, 2, table)
    assert loop.ints[mask_of([0, 1])] == INF
    assert check_pluecker(loop) == (False, {"a": [2], "c": [3, 4, 5]})
    assert three_term_violation_scan(5, 2, loop.ints) == {"a": [2],
                                                          "c": [3, 4, 5]}
    rng = random.Random(3141)
    verdicts = Counter()
    for _ in range(600):
        d = rng.randint(2, 3)
        n = rng.randint(d + 2, d + 5)
        s = mask_of(rng.sample(range(n), d - 2))
        rest = [e for e in range(n) if not s >> e & 1]
        table = {s | 1 << a | 1 << b: rng.choice((0, 1, 2, INF))
                 for a, b in combinations(rest, 2)}
        dead, kept = rng.sample(rest[1:], 2)
        table[s | 1 << rest[0] | 1 << dead] = INF
        table[s | 1 << rest[0] | 1 << kept] = rng.randint(0, 2)
        v = ValuatedMatroid(n, d, table)
        got = valuated._three_term_violation(n, d, v.ints)
        assert got == three_term_violation_scan(n, d, v.ints)
        verdicts[got is None] += 1
    assert min(verdicts.values()) > 30, verdicts


def test_three_term_violation_reads_inf_pairs_among_live_elements():
    """At one (d-2)-set S, the pairs on a live set L (every element of L
    in some finite pair at S) are drawn from {0, 1, 2, INF} with INF
    among them, so the scan restricted to L reads INF as big in its pair
    table; the rest of the table is sparse.  Witnesses equal the plain
    scan's, and both answers occur."""
    rng = random.Random(2718)
    verdicts = set()
    for _ in range(300):
        d = rng.randint(2, 4)
        n = rng.randint(d + 3, 9)
        s = mask_of(rng.sample(range(n), d - 2))
        live = rng.sample([e for e in range(n) if not s >> e & 1],
                          rng.randint(4, min(6, n - d + 2)))
        pairs = [(i, j) for x, i in enumerate(live) for j in live[x + 1:]]
        table = {s | 1 << i | 1 << j: rng.choice((0, 1, 2, INF))
                 for i, j in pairs}
        dead = rng.sample(pairs, rng.randint(1, len(pairs) // 3))
        for i, j in dead:
            table[s | 1 << i | 1 << j] = INF
        for i, j in zip(live, live[1:] + live[:1]):
            if (i, j) not in dead and (j, i) not in dead:
                table[s | 1 << i | 1 << j] = rng.randint(0, 2)
        for b in rng.sample(ksubsets(n, d), 3):
            table.setdefault(b, rng.randint(0, 3))
        v = ValuatedMatroid(n, d, table)
        got = valuated._three_term_violation(n, d, v.ints)
        assert got == three_term_violation_scan(n, d, v.ints)
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_three_term_scan_is_sized_by_the_support(monkeypatch):
    """Only the elements of finite pairs at S enter the scan at S, so a
    sparse table never runs the quadruples of its ground set."""
    quadruples = valuated._quadruples

    def small_only(m):
        if m > 4:
            raise AssertionError("scanned %d elements" % m)
        return quadruples(m)

    monkeypatch.setattr(valuated, "_quadruples", small_only)
    assert check_pluecker(ValuatedMatroid(200, 2, {mask_of([0, 1]): 0})) \
        == (True, None)
    # bases 13, 14, 23, 24, and on 1234 the sums inf, 1 and 0: least once
    broken = {mask_of([0, 2]): 0, mask_of([0, 3]): 0, mask_of([1, 2]): 0,
              mask_of([1, 3]): 1}
    small = ValuatedMatroid(8, 2, broken)
    witness = three_term_violation_scan(8, 2, small.ints)
    assert witness is not None
    assert check_pluecker(ValuatedMatroid(200, 2, broken)) == (False, witness)


def test_three_term_scan_lists_no_set_at_corank_below_two(monkeypatch):
    """At d >= n - 1 no (d-2)-set leaves four elements outside it, so the
    scan lists none: the corank-1 all-zero table at n = 120 passes, as
    do a corank-0 table and a corank-1 table on two bases."""
    tables = [(120, 119, {b: 0 for b in ksubsets(120, 119)}),
              (5, 5, {mask_of(range(5)): 0}),
              (4, 3, {mask_of([0, 1, 2]): 0, mask_of([1, 2, 3]): 1})]
    vms = [ValuatedMatroid(n, d, t) for n, d, t in tables]
    slots = valuated.ksubsets

    def no_relations(n, k):
        if any(k == vm.d - 2 for vm in vms):
            raise AssertionError("listed the %d-sets of %d" % (k, n))
        return slots(n, k)

    monkeypatch.setattr(valuated, "ksubsets", no_relations)
    assert [check_pluecker(vm) for vm in vms] == [(True, None)] * 3


def test_check_pluecker_vacuous_ranks():
    rng = random.Random(77)
    for n in range(1, 7):
        for d in {0, 1, n - 1, n}:
            slots = ksubsets(n, d)
            table = {b: rng.choice((INF, 0, 1, 2)) for b in slots}
            table[slots[-1]] = 0
            v = ValuatedMatroid(n, d, table)
            assert check_pluecker(v) == check_pluecker_bruteforce(v)


def test_membership_golden():
    v = rank2_four()
    assert membership(v, (fr(0), fr(0), fr(0), fr(0)))
    assert membership(v, (fr(0), fr(0), fr(1), fr(1)))
    assert not membership(v, (fr(0), fr(1), fr(1), fr(1)))
    assert membership(v, (INF, fr(0), fr(0), fr(0)))
    with pytest.raises(AllInfinite):
        membership(v, (INF, INF, INF, INF))


def test_membership_matches_the_fraction_reference():
    """The integer scan answers as the Fraction scan: valuations with
    denominators up to 12, points with denominators 1..12 and infinite
    coordinates, drawn from row combinations (inside the space) and
    moved off it at random."""
    rng = random.Random(6174)
    seen = {True: 0, False: 0}
    for _ in range(120):
        d = rng.randint(1, 4)
        n = rng.randint(d, 7)
        q = Fraction(1, rng.randint(1, 12))
        rows = [[v if v == INF else v * q for v in row]
                for row in random_rows(rng, d, n, rng.uniform(0, 0.3))]
        v = stiefel(rows)
        for _ in range(6):
            coeffs = [INF if rng.random() < 0.2 else
                      Fraction(rng.randint(-6, 6), rng.randint(1, 12))
                      for _ in range(d)]
            if all(c == INF for c in coeffs):
                coeffs[0] = fr(0)
            try:
                y = list(trop_cone_sample(rows, coeffs))
            except AllInfinite:
                continue
            if rng.random() < 0.5:
                j = rng.randrange(n)
                y[j] = (Fraction(rng.randint(-6, 6), rng.randint(1, 12))
                        if y[j] == INF or rng.random() < 0.5 else INF)
            if all(c == INF for c in y):
                continue
            got = membership(v, y)
            assert got == membership_bruteforce(v, y)
            seen[got] += 1
    assert seen[True] > 200 and seen[False] > 100


def test_initial_matroid_golden():
    v = rank2_four()
    assert initial_matroid(v, (fr(0),) * 4) == cell_without_34()
    assert initial_matroid(v, (fr(0), fr(0), fr(1), fr(1))) == cell_without_12()
    with pytest.raises(InfiniteBase):
        initial_matroid(v, (fr(0), INF, fr(0), fr(0)))


def test_initial_matroid_matches_the_fraction_reference():
    """The integer comparison picks the bases that Fraction sums pick:
    valuations with denominators up to 24, points with denominators
    1..12 and negative coordinates, cell witnesses and vertices."""
    rng = random.Random(8128)
    ties = 0
    for _ in range(90):
        d = rng.randint(1, 4)
        n = rng.randint(d, 8)
        q = Fraction(1, rng.randint(1, 12))
        rows = [[v if v == INF else v * q for v in row]
                for row in random_rows(rng, d, n, rng.uniform(0, 0.3))]
        v = stiefel(rows)
        points = [random_point(rng, n, range(1, 13), -12, 12),
                  random_point(rng, n, (1, 2), -2, 2),
                  tuple(x * q for x in random_point(rng, n, (1,), -2, 2))]
        points += [c.witness for c in maximal_cells(v)]
        if n <= 6 and not v.underlying().loops():
            cc = cell_complex(v)
            points += [c.witness for c in cc] + list(vertices(cc).values())
        for x in points:
            m = initial_matroid(v, x)
            assert m == initial_matroid_bruteforce(v, x)
            ties += len(m.bases) > 1
    assert ties > 300


def test_initial_matroid_needs_no_fraction_sums():
    def faces(vm):
        return [(c.matroid, f, valuated.face_witness(vm, c, f))
                for c in maximal_cells(vm) for f in c.matroid.flats()]

    rng = random.Random(496)
    v = stiefel(random_rows(rng, 3, 8))
    points = [c.witness for c in maximal_cells(v)]
    points.append(random_point(rng, 8, range(1, 13)))
    want = [initial_matroid_bruteforce(v, x) for x in points]
    fresh = ValuatedMatroid(v.n, v.d, v.table)
    v2 = stiefel(random_rows(rng, 3, 8))
    want_cells = [(c.matroid, c.witness) for c in maximal_cells(v2)]
    want_faces = faces(v2)
    fresh2 = ValuatedMatroid(v2.n, v2.d, v2.table)
    assert not hasattr(trop, "xsum") and not hasattr(valuated, "xsum")
    assert [initial_matroid(fresh, x) for x in points] == want
    assert [(c.matroid, c.witness)
            for c in maximal_cells(fresh2)] == want_cells
    assert faces(fresh2) == want_faces


def test_first_break_matches_the_fraction_reference():
    """_first_break on the integer values of _values, read as
    num / (cnt * common), equals the Fraction loop, INF included, and so
    do the bases that tie at the breakpoint: Stiefel images with d <= 4,
    n <= 8 and denominators up to 12, at every flat of every maximal
    cell, seen from its witness and from a random point, at every flat
    of the cells of random points, and along the complements of
    components with the complementary rank, as the descent asks."""
    rng = random.Random(1729)
    seen = {"inf": 0, "finite": 0, "ties": 0}
    for _ in range(40):
        d = rng.randint(1, 4)
        n = rng.randint(d, 8)
        rows = [[v if v == INF else v / rng.randint(1, 12) for v in row]
                for row in random_rows(rng, d, n, rng.uniform(0, 0.3))]
        v = stiefel(rows)
        pairs = []
        for c in maximal_cells(v):
            x = random_point(rng, n, range(1, 13), -12, 12)
            pairs += [(c.matroid, c.witness), (c.matroid, x)]
        for x in (random_point(rng, n, range(1, 13), -12, 12),
                  random_point(rng, n, (1, 2), -2, 2)):
            pairs.append((initial_matroid(v, x), x))
        for m, x in pairs:
            common, vals = valuated._values(v, x)
            asks = [(f, m.rank(f)) for f in m.flats()]
            asks += [(v.full ^ k, d - m.rank(k))
                     for k in m.connected_components()]
            for f, r in asks:
                brk, ties = valuated._first_break(vals, m, f, r)
                got = INF if brk is None else Fraction(brk[0],
                                                       brk[1] * common)
                assert (got, ties) == first_breakpoint_bruteforce(
                    v, m, x, f, r)
                seen["inf" if got == INF else "finite"] += 1
                seen["ties"] += len(ties) > 1
    assert seen["inf"] > 1000 and seen["finite"] > 1000
    assert seen["ties"] > 500


def test_wall_flips_build_no_face_and_run_no_initial_matroid(monkeypatch):
    """On 4x8 Stiefel images the walk finds the cells and witnesses it
    found when every wall built its face matroid and every flip ran
    initial_matroid (frozen as a digest), with polytope_face failing,
    and a cell read off values (as initial_matroid does) only inside
    the descent."""
    import hashlib

    inside = []
    calls = []
    descend = valuated._descend_to_maximal
    lowest = valuated._lowest

    def counted_descend(*args):
        inside.append(True)
        try:
            return descend(*args)
        finally:
            inside.pop()

    def counted_lowest(n, vals):
        calls.append(bool(inside))
        return lowest(n, vals)

    def no_face(self, flat):
        raise AssertionError("the walk built a face matroid")

    monkeypatch.setattr(valuated, "_descend_to_maximal", counted_descend)
    monkeypatch.setattr(valuated, "_lowest", counted_lowest)
    monkeypatch.setattr(Matroid, "polytope_face", no_face)
    h = hashlib.sha256()
    count = 0
    for seed in range(6):
        rows = random_rows(random.Random(1000 + seed), 4, 8, inf_prob=0.15)
        cells = maximal_cells(stiefel(rows))
        count += len(cells)
        for c in cells:
            h.update(repr((c.matroid.bases, c.witness)).encode())
    assert count == 93
    assert h.hexdigest() == ("4496171d92f1e502b8c1e69ad03185e5"
                             "9246bef0c95c7ade039aedf791be2055")
    assert calls and all(calls)


def walk_images(rng, count):
    """Seeded Stiefel images with d <= 4, n <= 8 and denominators up to
    12, each with its support's loops and components that are not
    loops: every third a block-diagonal matrix (a direct sum), and an
    all-inf column now and then (a loop)."""
    out = []
    while len(out) < count:
        block = len(out) % 3 == 2
        d = rng.randint(3, 4) if block else rng.randint(1, 4)
        n = rng.randint(d + 3, 8) if block else rng.randint(d, 8)
        if block:
            d1 = rng.randint(1, d - 1)
            n1 = rng.randint(d1 + 1, n - (d - d1) - 1)
            top = random_rows(rng, d1, n1, rng.uniform(0, 0.2))
            low = random_rows(rng, d - d1, n - n1, rng.uniform(0, 0.2))
            rows = ([r + [INF] * (n - n1) for r in top]
                    + [[INF] * n1 + r for r in low])
        else:
            rows = random_rows(rng, d, n, rng.uniform(0, 0.4))
        if n > d and rng.random() < 0.3:
            j = rng.randrange(n)
            for r in rows:
                r[j] = INF
        rows = [[v if v == INF else v / rng.randint(1, 12) for v in r]
                for r in rows]
        try:
            v = stiefel(rows)
        except OutOfDomain:
            continue
        uv = v.underlying()
        loops = uv.loops()
        out.append((v, loops, [k for k in uv.connected_components()
                               if not k & loops]))
    return out


def test_walk_carries_the_table_of_its_witness(monkeypatch):
    """The integer table the walk carries is _values at its point,
    exactly: at the end of the descent and at every step and flip, on
    images with loops and with several components among them."""
    inside = []
    flips = []
    descend = valuated._descend_to_maximal
    moved = valuated._moved

    def checked_descend(vm, uv, target):
        inside.append(True)
        try:
            m, x, common, vals = descend(vm, uv, target)
        finally:
            inside.pop()
        assert (common, vals) == valuated._values(
            vm, tuple(Fraction(v, common) for v in x))
        return m, x, common, vals

    def checked_moved(vm, *args):
        x, common, vals = moved(vm, *args)
        assert (common, vals) == valuated._values(
            vm, tuple(Fraction(v, common) for v in x))
        flips.append(not inside)
        return x, common, vals

    monkeypatch.setattr(valuated, "_descend_to_maximal", checked_descend)
    monkeypatch.setattr(valuated, "_moved", checked_moved)
    seen = {"loops": 0, "components": 0, "both": 0}
    for v, loops, comps in walk_images(random.Random(2718), 240):
        if len(maximal_cells(v)) > 1:
            seen["loops"] += bool(loops)
            seen["components"] += len(comps) > 1
            seen["both"] += bool(loops) and len(comps) > 1
    assert flips.count(True) > 300 and flips.count(False) > 300
    assert min(seen.values()) > 10


def test_face_points_match_the_fraction_reference():
    """face_witness at every flat of every maximal cell gives, read as
    Fractions, the point of the Fraction reference (the cell's witness
    or that moved by half the first breakpoint, or by 1 if none), and
    its table is _values at that point, on images with loops and with
    several components among them."""
    seen = {"own": 0, "half": 0, "one": 0}
    for v, _, _ in walk_images(random.Random(5040), 90):
        for cell in maximal_cells(v):
            m = cell.matroid
            for f in m.flats():
                (common, xs), vals = valuated.face_witness(v, cell, f)
                x = tuple(Fraction(e, common) for e in xs)
                assert x == face_point_fraction(v, m, cell.witness, f)
                assert (common, vals) == valuated._values(v, x)
                if vals is cell.vals:
                    seen["own"] += 1
                elif first_breakpoint_bruteforce(v, m, cell.witness, f,
                                                 m.rank(f))[0] == INF:
                    seen["one"] += 1
                else:
                    seen["half"] += 1
    assert min(seen.values()) > 500, seen


def test_each_wall_is_crossed_once(monkeypatch):
    """Outside the descent, the walk runs _first_break once per wall of
    each cell but the one it came in by, a wall spelled once as a
    facet at a cyclic flat inside one component plus the loops
    (reference.component_flacets), and _values never (the table at 0 is
    the valuation's own), on images with loops and with several
    components among them."""
    inside = []
    breaks = []
    evaluations = []
    descend = valuated._descend_to_maximal
    first_break = valuated._first_break
    values = valuated._values

    def counted_descend(*args):
        inside.append(True)
        try:
            return descend(*args)
        finally:
            inside.pop()

    def counted_break(*args):
        breaks.append(not inside)
        return first_break(*args)

    def counted_values(*args):
        evaluations.append(True)
        return values(*args)

    monkeypatch.setattr(valuated, "_descend_to_maximal", counted_descend)
    monkeypatch.setattr(valuated, "_first_break", counted_break)
    monkeypatch.setattr(valuated, "_values", counted_values)
    skipped = 0
    for v, loops, comps in walk_images(random.Random(1618), 400):
        breaks.clear()
        evaluations.clear()
        cells = maximal_cells(v)
        walls = sum(len(component_flacets(c.matroid)) for c in cells)
        assert sum(breaks) == walls - (len(cells) - 1)
        assert not evaluations
        assert maximal_cells(v) is cells and not evaluations
        if loops or len(comps) > 1:
            skipped += len(cells) - 1
    assert skipped > 150


def test_every_maximal_cell_has_its_supports_components():
    """A maximal cell spans the support's polytope, so it has exactly
    the support's connected components; the walk reads each cell's
    parts with them and recomputes none per flip, so this test holds
    it.  On Stiefel images with INF entries, loops and disconnected
    supports among them, and on block-diagonal images, direct sums of
    two or three blocks."""
    rng = random.Random(2019)
    seen = Counter()
    for i in range(200):
        if i % 2:
            shapes = [(d, rng.randint(d, d + 3))
                      for d in rng.choices((1, 2, 3), k=rng.randint(2, 3))]
            if sum(n for _, n in shapes) > 10:
                shapes = shapes[:2]
            rows = block_diagonal_rows(rng, shapes, rng.uniform(0, 0.2))
        else:
            d = rng.randint(1, 4)
            rows = random_rows(rng, d, rng.randint(d, 8),
                               rng.uniform(0.1, 0.5))
        v = stiefel(rows)
        uv = v.underlying()
        comps = uv.connected_components()
        cells = maximal_cells(v)
        assert cells
        for cell in cells:
            assert cell.matroid.connected_components() == comps
        seen["loops"] += bool(uv.loops())
        seen["two parts"] += sum(k.bit_count() > 1 for k in comps) > 1
        seen["walls"] += len(cells) > 1
    assert min(seen.values()) > 30, seen


def test_maximal_cells_rank2_four():
    cells = maximal_cells(rank2_four())
    got = {c.matroid for c in cells}
    assert got == {cell_without_34(), cell_without_12()}
    for c in cells:
        assert c.is_maximal
        assert initial_matroid(rank2_four(), c.witness) == c.matroid


def test_maximal_cells_rank3_five():
    v = rank3_five()
    cells = maximal_cells(v)
    wanted_a = Matroid(5, [b for b in ksubsets(5, 3)
                           if b not in (mask_of([0, 1, 2]),
                                        mask_of([0, 3, 4]))], check=False)
    wanted_b = Matroid(5, [b for b in ksubsets(5, 3)
                           if b & mask_of([3, 4]) != mask_of([3, 4])],
                       check=False)
    assert {c.matroid for c in cells} == {wanted_a, wanted_b}
    for c in cells:
        assert initial_matroid(v, c.witness) == c.matroid


def test_cell_complex_rank2_four():
    v = rank2_four()
    cc = cell_complex(v)
    assert len(cc) == 7
    maximal = [c for c in cc if c.is_maximal]
    assert {c.matroid for c in maximal} == {cell_without_34(), cell_without_12()}
    square = Matroid(4, [mask_of([0, 2]), mask_of([1, 2]),
                         mask_of([0, 3]), mask_of([1, 3])], check=False)
    bases = {c.matroid.bases for c in cc}
    assert square.bases in bases
    triangles = [c for c in cc
                 if not c.is_maximal and len(c.matroid.bases) == 3]
    assert len(triangles) == 4
    assert uniform_matroid(2, 4).bases not in bases


def test_cell_vertices_rank2_four():
    v = rank2_four()
    assert vertices(cell_complex(v)) == {
        tuple(sorted(cell_without_34().bases)): (fr(0), fr(0), fr(0), fr(0)),
        tuple(sorted(cell_without_12().bases)): (fr(0), fr(0), fr(1), fr(1)),
    }


def test_cell_vertices_pin_down_their_cells():
    """On Stiefel images with d <= 4, n <= 8 and denominators up to 12,
    the vertex of every connected cell of cell_complex, its witness less
    its minimum, has that cell as its initial matroid, by Fraction sums,
    and minimum 0.  Every connected cell is maximal, and the maximal
    cells come first in bases order, so the vertices come in that order
    too."""
    rng = random.Random(2718)
    seen = {"connected": 0, "disconnected": 0}
    shapes = set()
    while seen["connected"] < 400:
        d = rng.randint(1, 4)
        n = rng.randint(d + 1, 8)
        q = Fraction(1, rng.randint(1, 12))
        rows = [[v if v == INF else v * q for v in row]
                for row in random_rows(rng, d, n, rng.uniform(0, 0.3))]
        v = stiefel(rows)
        if v.underlying().loops():
            continue
        shapes.add((d, n))
        cc = cell_complex(v)
        maximal = [c.matroid.bases for c in cc if c.is_maximal]
        assert maximal == [c.matroid.bases for c in cc[:len(maximal)]]
        assert maximal == sorted(maximal)
        verts = vertices(cc)
        assert set(verts) <= set(maximal)
        for bases, y in verts.items():
            assert initial_matroid_bruteforce(v, y).bases == bases
            assert min(y) == 0
        seen["connected"] += len(verts)
        seen["disconnected"] += len(cc) - len(verts)
    assert (4, 8) in shapes and seen["disconnected"] > 1000


def test_cell_complex_reads_only_the_integer_table(monkeypatch):
    """cell_complex, vertices included, never builds the Fraction view:
    with reading table made an error, a fresh valuation gives the same
    cells, witnesses and vertices, and its view is still unbuilt."""
    def refuse(vm):
        raise AssertionError("the Fraction table was built")

    v = stiefel(random_rows(random.Random(4096), 4, 8))
    want = cell_complex(v)
    assert vertices(want)
    fresh = ValuatedMatroid(v.n, v.d, v.table)
    assert fresh._table is None
    monkeypatch.setattr(ValuatedMatroid, "table", property(refuse))
    got = cell_complex(fresh)
    assert fresh._table is None
    assert [(c.matroid, c.witness, c.is_maximal) for c in got] == \
        [(c.matroid, c.witness, c.is_maximal) for c in want]
    assert vertices(got) == vertices(want)


def test_cell_complex_matches_bruteforce(monkeypatch):
    """Closing the maximal cells under facets reaches every loop-free
    cell: the result equals the closure under all faces, on Stiefel
    images up to (d, n) = (4, 7), and every witness has its cell as its
    initial matroid.  With the maximal cells known, the closure runs no
    LP, no flat lattice, no polytope_face, no initial_matroid, no
    circuit pass and no cyclic_flats, and builds one Matroid per face it
    adds."""
    def refuse(name):
        def fail(*args):
            raise AssertionError("cell_complex ran " + name)
        return fail

    built = []

    def counted(*args, **kwargs):
        built.append(True)
        return Matroid(*args, **kwargs)

    rng = random.Random(31415)
    pool = [rank2_four(), rank3_five()]
    shapes = set()
    while len(pool) < 74:
        d = rng.randint(1, 3) if len(pool) < 44 else rng.randint(2, 4)
        n = rng.randint(d + 1, 6 if len(pool) < 44 else 7)
        v = random_valuation(rng, d, n, inf_prob=rng.uniform(0, 0.3))
        if not v.underlying().loops():
            pool.append(v)
            shapes.add((d, n))
    assert {(2, 6), (3, 6), (4, 7)} <= shapes
    faces = 0
    for v in pool:
        with monkeypatch.context() as mp:
            mp.setattr(linprog, "solve_lp", refuse("the simplex"))
            maximal = maximal_cells(v)
        built.clear()
        with monkeypatch.context() as mp:
            mp.setattr(linprog, "solve_lp", refuse("the simplex"))
            mp.setattr(Matroid, "flats", refuse("Matroid.flats"))
            mp.setattr(Matroid, "polytope_face", refuse("polytope_face"))
            mp.setattr(valuated, "initial_matroid", refuse("initial_matroid"))
            mp.setattr(Matroid, "circuits", refuse("Matroid.circuits"))
            mp.setattr(Matroid, "cyclic_flats", refuse("cyclic_flats"))
            mp.setattr(valuated, "Matroid", counted)
            cc = cell_complex(v)
        assert len(built) == len(cc) - len(maximal)
        faces += len(built)
        got = {c.matroid.bases for c in cc}
        assert got == cell_complex_bruteforce(v)
        for c in cc:
            assert not c.matroid.loops()
            assert initial_matroid(v, c.witness) == c.matroid
    assert faces > 1000


def census_sample(rng):
    """A seeded sample of three census classes: 150 of the 1,243
    valuations of rank 3 on 6 elements with values {0, 1}, and 60 tables
    each of ranks 2 and 3 on 5 elements with values {0, 1, inf}."""
    pool = [ValuatedMatroid(6, 3, t)
            for t in rng.sample(census(6, 3, (0, 1)), 150)]
    for d in (2, 3):
        pool += [ValuatedMatroid(5, d, t)
                 for t in rng.sample(census(5, d, (0, 1, INF)), 60)]
    return pool


def test_lattice_facet_test_matches_face_components():
    """On every cell of a census sample and of walk_images (loops and
    several components among them), faces included where the support is
    loop-free: each cell carries the parts of its matroid (_parts).  At
    every cyclic flat, _flacet on the one part the flat splits finds a
    facet iff the face (Matroid.polytope_face) has one more component,
    with whole parts added or not; at every point, _point does iff {e}
    is a flat and its face has one more.  Each facet's new parts are the
    parts of its face."""
    def by_part(parts):
        return sorted(parts, key=lambda p: p[0])

    def face_parts(face, loops):
        return by_part(valuated._parts(face, face.connected_components(),
                                       loops))

    rng = random.Random(3571)
    pool = census_sample(rng) + [v for v, _, _ in walk_images(rng, 120)]
    seen = Counter()
    for v in pool:
        loops = v.underlying().loops()
        for cell in maximal_cells(v) if loops else cell_complex(v):
            m = Matroid(v.n, cell.matroid.bases, check=False)
            parts = cell.parts
            assert by_part(parts) == by_part(valuated._parts(
                m, m.connected_components(), loops))
            target = len(m.connected_components()) + 1
            for f in m.cyclic_flats():
                split = [(j, f & k) for j, (k, _) in enumerate(parts)
                         if 0 != f & k != k]
                new = len(split) == 1 and valuated._flacet(
                    parts[split[0][0]], split[0][1])
                face = m.polytope_face(f)
                assert bool(new) == (len(face.connected_components())
                                     == target)
                if new:
                    j = split[0][0]
                    assert by_part([*parts[:j], *new, *parts[j + 1:]]) == \
                        face_parts(face, loops)
                    seen["flacet" if split[0][1] == f & ~loops
                         else "flacet with whole parts"] += 1
                else:
                    seen["cyclic, no facet"] += 1
            if loops:
                continue
            for e in range(v.n):
                j = next((j for j, (k, _) in enumerate(parts) if k >> e & 1),
                         None)
                new = j is not None and valuated._point(parts[j], e)
                face = m.polytope_face(1 << e) if m.is_flat(1 << e) else None
                assert bool(new) == (face is not None and len(
                    face.connected_components()) == target)
                if new:
                    assert by_part([*parts[:j], *new, *parts[j + 1:]]) == \
                        face_parts(face, loops)
                seen["point" if new else "point, no facet"] += 1
    assert min(seen.values()) > 300, seen


def test_cell_complex_equals_the_face_count_closure():
    """cell_complex gives the cells of reference.cell_complex_by_faces,
    which counts each candidate face's components on its matroid
    (Matroid.polytope_face), in the same order with the same witness
    integers, on a census sample."""
    for v in census_sample(random.Random(2357)):
        if v.underlying().loops():
            continue
        want = cell_complex_by_faces(ValuatedMatroid(v.n, v.d, v.ints, v.den))
        assert [(c.matroid.bases, c.scaled, c.is_maximal)
                for c in cell_complex(v)] == \
            [(c.matroid.bases, c.scaled, c.is_maximal) for c in want]


def test_subdivision_sampler_agrees():
    v = rank2_four()
    hits = subdivision_sample(v, trials=300, seed=11)
    assert hits == {c.matroid for c in maximal_cells(v)}


def test_dual_involution_and_rank():
    pool = [rank2_four(), rank3_five(), three_pair_valuation()]
    rng = random.Random(88)
    for _ in range(10):
        d = rng.randint(1, 3)
        pool.append(random_valuation(rng, d, rng.randint(d + 1, 6),
                                     inf_prob=0.2))
    for v in pool:
        w = v_dual(v)
        assert w.d == v.n - v.d
        assert v_dual(w) == v


def test_restriction_is_choice_independent():
    rng = random.Random(2718)
    pool = [rank3_five(), rank2_four()]
    for _ in range(6):
        d = rng.randint(2, 3)
        pool.append(random_valuation(rng, d, rng.randint(d + 1, 6),
                                     inf_prob=0.2))
    checked = 0
    for v in pool:
        u = v.underlying()
        for s in range(1, v.full):
            r = u.rank(s)
            if r == 0 or r == v.d:
                continue
            got = v_restrict(v, s)
            rest = v.full ^ s
            for j in submasks(rest, v.d - r):
                if u.rank(s | j) != v.d or u.rank(j) != v.d - r:
                    continue
                entries = {}
                pos = list(elems(s))
                for t in ksubsets(len(pos), r):
                    glob = mask_of(pos[i] for i in bits(t))
                    entries[t] = v.table[glob | j]
                try:
                    alt = ValuatedMatroid(len(pos), r, entries)
                except AllInfinite:
                    continue
                assert alt == got
                checked += 1
    assert checked > 50


def test_contraction_rank3_five():
    v = rank3_five()
    c = v_contract(v, mask_of([0, 3, 4]))
    assert c == ValuatedMatroid(2, 1, {1: 0, 2: 0})
    d = v_contract(v, mask_of([3, 4]))
    assert d.n == 3 and d.d == 1


def test_contraction_is_dual_restriction():
    rng = random.Random(1618)
    pool = [rank3_five()]
    for _ in range(5):
        d = rng.randint(2, 3)
        pool.append(random_valuation(rng, d, rng.randint(d + 2, 6),
                                     inf_prob=0.25))
    for v in pool:
        u = v.underlying()
        for s in range(1, v.full):
            r = u.rank(s)
            if r == 0 or r == v.d:
                continue
            left = v_contract(v, s)
            right = v_dual(v_restrict(v_dual(v), v.full ^ s))
            assert left == right


def test_minors_match_the_lex_greatest_reading():
    """v_restrict and v_contract, each read at one lex-least choice in
    one pass over the support, equal the readings at the lex-greatest
    choice over every subset (as bench/checker.py checks them) on 2,400
    (valuation, set) pairs, d <= 4, n <= 8, up to 40% inf matrix
    entries, half the sets or more not flats."""
    rng = random.Random(3141)
    pairs = nonflat = 0
    while pairs < 2400:
        d = rng.randint(1, 4)
        v = random_valuation(rng, d, rng.randint(d + 1, 8),
                             inf_prob=rng.uniform(0, 0.4))
        u = v.underlying()
        for _ in range(6):
            s = rng.randint(1, v.full - 1)
            assert v_restrict(v, s) == restrict_lex_greatest(v, s)
            assert v_contract(v, s) == contract_lex_greatest(v, s)
            pairs += 1
            nonflat += not u.is_flat(s)
    assert nonflat >= 1200


def test_contraction_builds_one_valuation_and_no_dual(monkeypatch):
    """v_contract builds exactly one ValuatedMatroid and never calls
    v_dual, on fresh valuations whose support is not yet checked."""
    rng = random.Random(1414)
    cases = [(rank3_five(), mask_of([0, 3, 4]))]
    for _ in range(8):
        d = rng.randint(2, 4)
        v = random_valuation(rng, d, rng.randint(d + 2, 8), inf_prob=0.3)
        cases.append((v, rng.randint(1, v.full - 1)))
    want = [v_contract(v, s) for v, s in cases]
    fresh = [ValuatedMatroid(v.n, v.d, v.ints, v.den) for v, _ in cases]
    init = ValuatedMatroid.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    def refuse(vm):
        raise AssertionError("v_contract built a dual")

    monkeypatch.setattr(ValuatedMatroid, "__init__", counted)
    monkeypatch.setattr(valuated, "v_dual", refuse)
    for v, (_, s), w in zip(fresh, cases, want):
        del built[:]
        assert v_contract(v, s) == w
        assert len(built) == 1


def test_minors_of_a_non_matroid_support():
    """A support that is not a matroid is refused by both minors with
    the exchange witness of its own bases, not of its dual's;
    contracting the empty set answers with no exchange check."""
    bad = ValuatedMatroid(5, 2, {mask_of([0, 1]): 0, mask_of([2, 3]): 0})
    with pytest.raises(NotAMatroid) as want:
        bad.underlying()
    for minor in (v_restrict, v_contract):
        with pytest.raises(NotAMatroid) as err:
            minor(bad, mask_of([0]))
        assert err.value.witness == want.value.witness
    assert v_contract(bad, 0) == bad


def test_stable_sum_and_intersection_duality():
    v = rank2_four()
    h = hyperplane((fr(0), fr(0), fr(0), fr(0)))
    inter = stable_intersection(v, h)
    assert inter.d == 1
    assert v_dual(inter) == stable_sum(v_dual(v), v_dual(h))
    rng = random.Random(4)
    for _ in range(8):
        a = random_valuation(rng, 1, 4)
        b = random_valuation(rng, 2, 4)
        assert v_dual(stable_sum(a, b)) == \
            stable_intersection(v_dual(a), v_dual(b))


def test_stable_guards():
    v3 = random_valuation(random.Random(9), 3, 4)
    with pytest.raises(EmptySupport):
        stable_sum(v3, v3)
    w = ValuatedMatroid(2, 1, {1: 0})
    with pytest.raises(EmptyIntersection,
                       match="^stable intersection is empty$"):
        stable_intersection(w, w)
    u = ValuatedMatroid(3, 1, {1: 0})
    with pytest.raises(EmptyIntersection,
                       match="^ranks do not add up to the ground set$"):
        stable_intersection(u, u)
    with pytest.raises(ValueError):
        stable_sum(v3, ValuatedMatroid(3, 1, {1: 0}))


def test_stable_intersection_matches_the_entrywise_minimum():
    """The entry at a k-set j, k = d1 + d2 - n, is the least
    v1[j | s] + v2[full - s] over (d1 - k)-sets s outside j,
    normalized: Stiefel pairs and hyperplanes with infinite apex
    coordinates, empty intersections included."""
    def reference(v1, v2):
        n, full = v1.n, v1.full
        k = v1.d + v2.d - n
        entries = {}
        for j in ksubsets(n, k):
            sums = [v1.table[j | s] + v2.table[full ^ s]
                    for s in submasks(full ^ j, v1.d - k)]
            entries[j] = min(sums, default=INF)
        low = min(entries.values())
        if low == INF:
            return None
        return {j: v if v == INF else v - low for j, v in entries.items()}

    rng = random.Random(3301)
    seen = {"finite": 0, "empty": 0}
    for _ in range(150):
        n = rng.randint(2, 7)
        d1 = rng.randint(1, n)
        v1 = random_valuation(rng, d1, n, rng.uniform(0, 0.7))
        if rng.random() < 0.5:
            apex = [INF if rng.random() < 0.5
                    else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(n)]
            if all(v == INF for v in apex):
                apex[rng.randrange(n)] = fr(0)
            v2 = hyperplane(apex)
        else:
            v2 = random_valuation(rng, rng.randint(max(1, n - d1), n), n,
                                  rng.uniform(0, 0.7))
        want = reference(v1, v2)
        if want is None:
            with pytest.raises(EmptyIntersection,
                               match="^stable intersection is empty$"):
                stable_intersection(v1, v2)
            seen["empty"] += 1
        else:
            assert stable_intersection(v1, v2).table == want
            seen["finite"] += 1
    assert seen["finite"] > 100 and seen["empty"] > 2


def test_stable_intersection_can_reach_rank_zero():
    h = hyperplane((fr(0), fr(0), fr(0), fr(0)))
    w = ValuatedMatroid(4, 1, {1: 0})
    z = stable_intersection(h, w)
    assert z.d == 0 and z.table == {0: fr(0)}


def test_hyperplane_entries():
    h = hyperplane((fr(2), INF, fr(0)))
    assert h.d == 2
    assert h.table == {mask_of([1, 2]): fr(2), mask_of([0, 1]): fr(0),
                       mask_of([0, 2]): INF}
