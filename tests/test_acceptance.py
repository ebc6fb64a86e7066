"""End-to-end acceptance suite: one test per shipped guarantee.

Every comparison here is exact — rational arithmetic throughout, no
tolerances anywhere.  The two property suites over random matrices
assert their own wall-clock budget; the exhaustive small-ground-set
equivalence check is the only slow test (a few minutes).
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from common import (THREE_PAIR_DUAL_BASIS, THREE_PAIR_DUAL_MATCHING, fr,
                    points_of, random_rows, random_valuation, rank2_four,
                    rank2_four_rows, rank3_five, rank3_five_rows,
                    three_pair_dual_rows, three_pair_matroid,
                    three_pair_valuation)
from reference import (contract_presentation, linking_bruteforce,
                       linking_value, presentation_space_member,
                       presentations_exhaustive, subdivision_sample,
                       trop_cone_sample, trop_minor, zoom)
from troplin import (INF, Matroid, NegativeCycle, NotAMatroid, NotTransversal,
                     PointOutsideL, ValuatedMatroid, WeightedDigraph, apices,
                     beta_solutions, digraph_from_presentation, distinguished,
                     gammoid_valuation, hyperplane, initial_matroid,
                     is_transversal, maximal_cells, membership,
                     sample_presentation, stable_intersection, stiefel,
                     transversal_matroid, v_contract, v_dual,
                     verify_presentation, verify_set_presentation)
from troplin.oracle import trop_minor_bruteforce
from troplin.util import ksubsets, mask_of


def test_criterion_01_stiefel_square_example():
    v = stiefel(rank2_four_rows())
    want = ValuatedMatroid(
        4, 2, {b: (fr(1) if b == mask_of([2, 3]) else fr(0))
               for b in ksubsets(4, 2)})
    assert v == want
    assert v.table == want.table


def test_criterion_02_zoom_localizes_and_presents_initial_matroid():
    rows = rank3_five_rows()
    v = stiefel(rows)
    want = {b: fr(0) for b in ksubsets(5, 3)}
    want[mask_of([0, 1, 2])] = fr(1)
    want[mask_of([0, 3, 4])] = INF
    assert v == ValuatedMatroid(5, 3, want)
    assert v.table == want

    x = tuple(rows[1])
    shadows = [zoom(x, tuple(r)) for r in rows]
    assert shadows == [
        (fr(0), fr(0), fr(0), INF, INF),
        (fr(0), fr(0), fr(0), fr(0), fr(0)),
        (INF, fr(0), fr(0), INF, INF)]

    supports = [mask_of([j for j, c in enumerate(p) if c != INF])
                for p in shadows]
    full = (1 << 5) - 1
    assert [full ^ s for s in supports] == [
        mask_of([3, 4]), 0, mask_of([0, 3, 4])]

    m = initial_matroid(v, x)
    pair45 = mask_of([3, 4])
    assert m == Matroid(5, [b for b in ksubsets(5, 3)
                            if b & pair45 != pair45], check=False)
    assert transversal_matroid(supports, 5) == m
    assert verify_set_presentation(m, supports)


def test_criterion_03_three_pair_matroid_rejected_with_certificate():
    m = three_pair_matroid()
    ok, cert = is_transversal(m)
    assert ok is False
    assert cert == {"family": [[1, 2], [3, 4], [5, 6]],
                    "value": 1, "bound": 0}
    # the counting route refuses independently of the rank-sum route
    with pytest.raises(NotTransversal):
        beta_solutions(m)


def test_criterion_04_distinguished_apices_of_rank3_example():
    v = rank3_five()
    data = distinguished(v)
    assert Counter(apices(data)) == Counter([
        (fr(0),) * 5,
        (fr(1), fr(1), fr(1), fr(0), fr(0)),
        (INF, fr(0), fr(0), INF, INF)])
    assert sum(e.multiplicity for e in data) == 3 == v.d


def test_criterion_05_dual_three_pair_chain():
    v = three_pair_valuation()
    vd = v_dual(v)

    banned = (mask_of([0, 1, 2, 3]), mask_of([0, 1, 4, 5]),
              mask_of([2, 3, 4, 5]))
    m1 = Matroid(6, [b for b in ksubsets(6, 4) if b not in banned],
                 check=False)

    def avoiding(pair):
        return Matroid(6, [b for b in ksubsets(6, 4) if b & pair != pair],
                       check=False)

    data = distinguished(vd)
    got = Counter(e.matroid for e in data
                  for _ in range(e.multiplicity))
    assert got == Counter([m1, avoiding(mask_of([4, 5])),
                           avoiding(mask_of([2, 3])),
                           avoiding(mask_of([0, 1]))])
    assert Counter(apices(data)) == Counter([
        (fr(0),) * 6,
        (fr(1), fr(1), fr(1), fr(1), fr(0), fr(0)),
        (fr(1), fr(1), fr(0), fr(0), fr(1), fr(1)),
        (fr(0), fr(0), fr(1), fr(1), fr(1), fr(1))])

    pts = points_of(three_pair_dual_rows())
    assert stiefel(pts) == vd
    assert verify_presentation(vd, pts)["ok"]
    assert presentation_space_member(vd, pts)

    inter = hyperplane(pts[0])
    for p in pts[1:]:
        inter = stable_intersection(inter, hyperplane(p))
    assert inter == v

    g = digraph_from_presentation(pts, THREE_PAIR_DUAL_BASIS,
                                  THREE_PAIR_DUAL_MATCHING)
    assert g.sinks == mask_of([3, 5])
    assert gammoid_valuation(g) == v


DELTAS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
          Fraction(2), Fraction(1, 3), Fraction(5))


@pytest.fixture(scope="module")
def fiber_harness():
    """210 random in-domain matrices plus 200 perturbed copies.

    Each perturbation changes at least one raw tropical minor; 40 of
    them shift a whole row, which moves every minor but leaves the
    projective Stiefel image unchanged.
    """
    rng = random.Random(20250825)
    randoms = []
    for _ in range(210):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 6)
        rows = random_rows(rng, d, n)
        randoms.append((rows, stiefel(rows)))
    adversarial = []
    for k in range(200):
        rows, v = randoms[rng.randrange(len(randoms))]
        tweak = [list(r) for r in rows]
        d, n = len(tweak), len(tweak[0])
        before = [trop_minor(tweak, c) for c in ksubsets(n, d)]
        if k % 5 == 2:
            delta = rng.choice(DELTAS)
            i = rng.randrange(d)
            for j in range(n):
                tweak[i][j] += delta
        else:
            while True:
                i, j = rng.randrange(d), rng.randrange(n)
                tweak[i][j] += rng.choice(DELTAS)
                if [trop_minor(tweak, c)
                        for c in ksubsets(n, d)] != before:
                    break
        adversarial.append((v, points_of(tweak), stiefel(tweak)))
    return randoms, adversarial


def test_criterion_06_presentation_space_decides_stiefel_fibers(
        fiber_harness):
    randoms, adversarial = fiber_harness
    start = time.monotonic()
    for rows, v in randoms:
        assert presentation_space_member(v, points_of(rows))
    same = diff = 0
    for v, pts, pv in adversarial:
        expect = pv == v
        same += expect
        diff += not expect
        assert presentation_space_member(v, pts) == expect
    assert len(randoms) >= 200 and len(adversarial) >= 200
    assert same >= 40 and diff >= 100
    assert time.monotonic() - start < 60


def _verifier_accepts(v, pts):
    try:
        return verify_presentation(v, pts)["ok"]
    except PointOutsideL:
        return False


def test_criterion_07_presentation_verifier_decides_stiefel_fibers(
        fiber_harness):
    randoms, adversarial = fiber_harness
    start = time.monotonic()
    for rows, v in randoms:
        assert _verifier_accepts(v, points_of(rows))
    for v, pts, pv in adversarial:
        assert _verifier_accepts(v, pts) == (pv == v)
    assert time.monotonic() - start < 60


def test_criterion_08_distinguished_multiset_has_rank_many_entries(
        fiber_harness):
    randoms, adversarial = fiber_harness
    seen = set()
    for v in ([v for _, v in randoms]
              + [pv for _, _, pv in adversarial]):
        if v in seen:
            continue
        seen.add(v)
        pts = apices(distinguished(v))
        assert len(pts) == v.d
        assert stiefel(pts) == v
        if len(seen) <= 50:
            for seed in (1, 2):
                assert stiefel(sample_presentation(v, seed)) == v
    assert len(seen) >= 300


def _random_digraph(rng):
    while True:
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        sinks = mask_of(rng.sample(range(n), k))
        weights = {}
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.45:
                    weights[(i, j)] = Fraction(
                        rng.choice((-1, 0, 0, 1, 1, 2, 3)),
                        rng.choice((1, 2)))
        try:
            return WeightedDigraph(n, sinks, weights)
        except NegativeCycle:
            continue


def test_criterion_09_oracles_agree():
    rng = random.Random(1729)

    # minors against raw assignment enumeration, 500 cases
    for _ in range(500):
        d = rng.randint(1, 4)
        n = rng.randint(d, 7)
        a = [[INF if rng.random() < 0.15 else
              Fraction(rng.randint(-6, 9), rng.choice((1, 2, 3)))
              for _ in range(n)] for _ in range(d)]
        cols = mask_of(rng.sample(range(n), d))
        assert trop_minor(a, cols) == trop_minor_bruteforce(a, cols)

    # subdivision facets against random point sampling, >= 10^4 points
    pool = [(rank2_four(), 1500), (rank3_five(), 1500),
            (three_pair_valuation(), 1200),
            (v_dual(three_pair_valuation()), 1200)]
    for _ in range(7):
        while True:
            d = rng.randint(1, 3)
            n = rng.randint(d + 1, 6)
            v = random_valuation(rng, d, n,
                                 inf_prob=rng.choice((0, 0, 0.2)))
            if not v.underlying().loops():
                break
        pool.append((v, 660))
    spent = 0
    for v, trials in pool:
        hits = subdivision_sample(v, trials, seed=rng.randrange(10 ** 6))
        assert hits == {c.matroid for c in maximal_cells(v)}
        spent += trials
    assert spent >= 10 ** 4

    # linkings against explicit path-system enumeration, 50 digraphs
    for _ in range(50):
        g = _random_digraph(rng)
        k = g.sinks.bit_count()
        for sub in ksubsets(g.n, k):
            assert linking_value(g, sub) == linking_bruteforce(g, sub)

    # the two presentation enumerations coincide on every matroid with
    # at most 5 elements (all of which turn out transversal)
    for n in range(1, 6):
        for d in range(1, n + 1):
            ks = list(ksubsets(n, d))
            for r in range(1, len(ks) + 1):
                for combo in combinations(ks, r):
                    try:
                        m = Matroid(n, list(combo), check=True)
                    except NotAMatroid:
                        continue
                    pres = set(presentations_exhaustive(m))
                    assert is_transversal(m)[0] == bool(pres)
                    nonloops = m.full ^ m.loops()
                    subsets = [s for s in range(1, m.full + 1)
                               if s & ~nonloops == 0]
                    filt = {fam for fam in combinations_with_replacement(
                                subsets, m.d)
                            if verify_set_presentation(m, list(fam))}
                    assert filt == pres


CONE_COEFFS = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2),
               Fraction(3), INF)


def test_criterion_10_involutions_and_containments():
    rng = random.Random(424242)
    named = [rank2_four(), rank3_five(), three_pair_valuation(),
             v_dual(three_pair_valuation())]

    # double dual is the identity
    duals = list(named)
    for _ in range(100):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 6)
        duals.append(random_valuation(
            rng, d, n, inf_prob=rng.choice((0, 0, 0.2, 0.3))))
    for v in duals:
        w = v_dual(v)
        assert w.d == v.n - v.d
        assert v_dual(w) == v

    # presentation points, and tropical cone combinations of them,
    # always satisfy point membership (the three-pair valuation itself
    # has no presentation, so only its dual joins this pool)
    pool = [rank2_four(), rank3_five(), v_dual(three_pair_valuation())]
    while len(pool) < 8:
        d = rng.randint(2, 3)
        n = rng.randint(d + 1, 6)
        pool.append(random_valuation(rng, d, n))
    for v in pool:
        gens = None
        for seed in (0, 1):
            pts = sample_presentation(v, seed)
            assert len(pts) == v.d
            for p in pts:
                assert membership(v, p)
            gens = pts
        for _ in range(100):
            coeffs = [rng.choice(CONE_COEFFS) for _ in range(v.d)]
            if all(c == INF for c in coeffs):
                coeffs[rng.randrange(v.d)] = Fraction(0)
            assert membership(v, trop_cone_sample(gens, coeffs))

    # contracting a presentation matches contracting the valuation
    done = nontrivial = 0
    while done < 100:
        d = rng.randint(2, 3)
        n = rng.randint(d + 2, 6)
        rows = random_rows(rng, d, n, inf_prob=0.3)
        v = stiefel(rows)
        u = v.underlying()
        for f in u.cyclic_flats():
            if f == u.full or u.rank(f) == v.d:
                continue
            proj = contract_presentation(v, points_of(rows), f)
            assert stiefel(proj) == v_contract(v, f)
            done += 1
            nontrivial += bool(f)
    assert done >= 100 and nontrivial >= 25
