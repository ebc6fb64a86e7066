import gc
import json
import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from common import matroid_pool, three_pair_matroid
from reference import (presentations_exhaustive, rank_violation_scan,
                       set_presentation_scan)
from troplin import (Matroid, NoBasis, NotTransversal, TooLarge,
                     beta_solutions, direct_sum, is_pseudopresentation,
                     is_transversal, max_presentation, transversal,
                     transversal_matroid, uniform_matroid,
                     verify_set_presentation)
from troplin.cli import run
from troplin.transversal import _counting_violation, covering_violations
from troplin.util import MAX_SLOTS, ksubsets, mask_of


def series_pair():
    return direct_sum(uniform_matroid(1, 2), uniform_matroid(2, 3))


def k4_cycle_matroid():
    "Edges 1..6 = ab,ac,ad,bc,bd,cd; bases are the spanning trees."
    triangles = {mask_of([0, 1, 3]), mask_of([0, 2, 4]),
                 mask_of([1, 2, 5]), mask_of([3, 4, 5])}
    return Matroid(6, [b for b in ksubsets(6, 3) if b not in triangles])


def test_transversal_matroid_golden():
    sets = [mask_of([2, 3, 4]), mask_of([2, 3, 4]), mask_of([0, 1])]
    assert transversal_matroid(sets, 5) == series_pair()
    with pytest.raises(NoBasis) as err:
        transversal_matroid([mask_of([0])] * 2, 3)
    assert err.value.witness == {"sets": [[1], [1]]}


def test_three_pair_is_not_transversal():
    ok, cert = is_transversal(three_pair_matroid())
    assert not ok
    assert cert == {"family": [[1, 2], [3, 4], [5, 6]],
                    "value": 1, "bound": 0}


def test_k4_is_not_transversal():
    ok, cert = is_transversal(k4_cycle_matroid())
    assert not ok
    assert cert["value"] > cert["bound"]


def test_transversal_images_are_accepted():
    rng = random.Random(64)
    built = 0
    while built < 25:
        n = rng.randint(2, 6)
        k = rng.randint(1, min(4, n))
        sets = [mask_of(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(k)]
        try:
            m = transversal_matroid(sets, n)
        except NoBasis:
            continue
        ok, pres = is_transversal(m)
        assert ok
        assert transversal_matroid(pres, n) == m
        built += 1


def alternating_rank_gap(m, family):
    """r(meet of the family) plus the sum over nonempty subfamilies I of
    (-1)^|I| r(union of I): positive iff the family violates the rank
    inequality that every transversal matroid satisfies."""
    inter = m.full
    for f in family:
        inter &= f
    total = m.rank(inter)
    for k in range(1, len(family) + 1):
        for sub in combinations(family, k):
            u = 0
            for f in sub:
                u |= f
            total += (-1) ** k * m.rank(u)
    return total


def lattice_counting_verdict(m):
    """Does m pass the counting conditions checked on every flat of the
    lattice, the reference for the check on cyclic-flat meets?"""
    cf = m.cyclic_flats()
    if any(cf[f] < 0 for f in cf):
        return False
    return all(sum(cf[g] for g in cf if f & g == f) <= m.corank(f)
               for f in m.flats())


def sparse_paving(n, hyperplanes):
    """U(3, n) less the given 3-sets, any two of which share at most one
    element: a sparse paving matroid with those circuit-hyperplanes."""
    return Matroid(n, [b for b in ksubsets(n, 3) if b not in hyperplanes])


def sparse_paving_pool(rng, count):
    """Random rank-3 sparse paving matroids on 6 or 7 elements, with 2 to
    5 circuit-hyperplanes."""
    pool = []
    while len(pool) < count:
        n = rng.randint(6, 7)
        want = rng.randint(2, 5)
        triples = ksubsets(n, 3)
        rng.shuffle(triples)
        chosen = []
        for t in triples:
            if all((t & c).bit_count() <= 1 for c in chosen):
                chosen.append(t)
            if len(chosen) == want:
                break
        pool.append(sparse_paving(n, chosen))
    return pool


def test_counting_and_family_scan_agree():
    """The counting conditions, checked on meets of cyclic flats, reject
    exactly when they reject on some flat of the lattice, and exactly when
    the oracle's family scan finds a cyclic-flat family that violates the
    rank inequality.  The certificate is a family of cyclic flats above
    the violating flat, and its value and bound are the two sides of the
    inequality by the direct alternating sum, which it violates.  The
    pool reaches negative corank transforms and covering counts; three
    circuit-hyperplanes through 7 in U(3, 7) break a covering count at
    {7}, certified by the three of them."""
    paving = sparse_paving(7, [mask_of([0, 1, 6]), mask_of([2, 3, 6]),
                               mask_of([4, 5, 6])])
    assert _counting_violation(paving) == mask_of([6])
    assert is_transversal(paving) == (False, {
        "family": [[1, 2, 7], [3, 4, 7], [5, 6, 7]],
        "value": 0, "bound": -1})
    rng = random.Random(1618)
    pool = matroid_pool(rng, 630) + [k4_cycle_matroid(),
                                     three_pair_matroid(), paving]
    pool += sparse_paving_pool(rng, 60)
    while len(pool) < 730:
        n = rng.randint(2, 7)
        sets = [mask_of(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, min(4, n)))]
        try:
            pool.append(transversal_matroid(sets, n))
        except NoBasis:
            continue
    kinds = Counter()
    for m in pool:
        family = rank_violation_scan(m)
        f = _counting_violation(m)
        assert (f is None) == (family is None)
        assert lattice_counting_verdict(
            Matroid(m.n, m.bases, check=False)) == (family is None)
        ok, payload = is_transversal(m)
        assert ok == (family is None)
        if ok:
            continue
        kinds["negative" if f in m.cyclic_flats() else "covering"] += 1
        flats = [mask_of(e - 1 for e in g) for g in payload["family"]]
        assert all(g in m.cyclic_flats() and g & f == f and g != f
                   for g in flats)
        gap = alternating_rank_gap(m, flats)
        assert gap == payload["value"] - payload["bound"] > 0
    assert kinds["negative"] >= 10 and kinds["covering"] >= 2


def test_max_presentation_golden():
    assert max_presentation(uniform_matroid(2, 3)) == \
        [mask_of([0, 1, 2])] * 2
    assert sorted(max_presentation(series_pair())) == \
        sorted([mask_of([2, 3, 4]), mask_of([2, 3, 4]), mask_of([0, 1])])
    with pytest.raises(NotTransversal) as err:
        max_presentation(three_pair_matroid())
    assert err.value.witness["family"] == [[1, 2], [3, 4], [5, 6]]


def test_verify_set_presentation_matches_reconstruction():
    "Acceptance by the flat conditions == the set system presents m."
    for m in (uniform_matroid(2, 3), series_pair()):
        subsets = [s for s in range(1, m.full + 1)]
        for sets in combinations_with_replacement(subsets, m.d):
            try:
                same = transversal_matroid(list(sets), m.n) == m
            except NoBasis:
                same = False
            assert verify_set_presentation(m, list(sets)) == same


def pseudopresentation_sets(rng, m):
    """Complements of flats, one per unit of tau, each flat drawn among
    those whose coclosure is its cyclic flat: a random pseudopresentation
    when tau >= 0, whose covering counts are then what decides."""
    by_coclosure = {}
    for g in m.flats():
        by_coclosure.setdefault(m.coclosure(g), []).append(g)
    sets = []
    for f, t in m.cyclic_flats().items():
        for _ in range(max(t, 0)):
            sets.append(m.full ^ rng.choice(by_coclosure[f]))
    return sets


def test_verify_set_presentation_matches_the_subfamily_scan():
    """The covering counts at meets of the complements, with no
    transversality test, decide as the oracle's scan of every subfamily
    (which also asks is_transversal): on every multiset of d subsets for
    pool matroids with n <= 4, and on random pseudopresentations,
    maximal presentations with elements dropped and random families for
    the rest of the pool, M(K4) and the three-pair matroid."""
    rng = random.Random(4242)
    pool = matroid_pool(rng, 300) + [k4_cycle_matroid(),
                                     three_pair_matroid(), series_pair()]
    verdicts = Counter()
    for m in pool:
        if m.n <= 4:
            families = combinations_with_replacement(range(m.full + 1), m.d)
        else:
            families = [pseudopresentation_sets(rng, m) for _ in range(12)]
            ok, pres = is_transversal(m)
            for _ in range(6 if ok else 0):
                families.append([a & ~(1 << rng.randrange(m.n))
                                 if rng.random() < 0.5 else a for a in pres])
            families += [[rng.randrange(m.full + 1) for _ in range(m.d)]
                         for _ in range(6)]
        for sets in families:
            got = verify_set_presentation(m, list(sets))
            assert got == set_presentation_scan(m, list(sets))
            verdicts[got, m.n <= 4] += 1
    assert min(verdicts.values()) >= 200


def test_covering_violations_are_the_violating_meets():
    """covering_violations lists, in (size, mask) order, exactly the
    meets of the weighted flats whose covering count passes the corank."""
    rng = random.Random(77)
    seen = 0
    for m in matroid_pool(rng, 200) + [k4_cycle_matroid(),
                                       three_pair_matroid()]:
        lattice = m.flats()
        weights = Counter(rng.choice(lattice)
                          for _ in range(rng.randint(1, 4)))
        meets = set()
        for k in range(1, len(weights) + 1):
            for sub in combinations(weights, k):
                inter = m.full
                for f in sub:
                    inter &= f
                meets.add(inter)
        want = []
        for g in sorted(meets, key=lambda f: (f.bit_count(), f)):
            count = sum(w for f, w in weights.items() if f & g == g)
            if count > m.corank(g):
                want.append((g, count))
        assert covering_violations(m, weights) == want
        seen += bool(want)
    assert seen >= 20


def test_verify_set_presentation_arity():
    assert not verify_set_presentation(uniform_matroid(2, 3),
                                       [mask_of([0, 1, 2])])


def test_presentations_exhaustive_u23():
    pres = presentations_exhaustive(uniform_matroid(2, 3))
    assert len(pres) == 7
    full = mask_of([0, 1, 2])
    pairs = [mask_of([0, 1]), mask_of([0, 2]), mask_of([1, 2])]
    want = {(full, full)}
    want.update((min(p, full), max(p, full)) for p in pairs)
    want.update(tuple(sorted(c)) for c in combinations_with_replacement(
        pairs, 2) if c[0] != c[1])
    assert {tuple(sorted(p)) for p in pres} == want


def check_beta_solutions(m, sols):
    cf = m.cyclic_flats()
    lattice = m.flats()
    for beta in sols:
        # covering counts: tight on cyclic flats, bounded elsewhere
        for f in lattice:
            total = sum(b for g, b in beta.items() if g & f == f)
            if f in cf:
                assert total == m.corank(f)
            else:
                assert total <= m.corank(f)
        # positive part realizes a presentation
        sets = []
        for g, b in beta.items():
            sets.extend([m.full ^ g] * b)
        assert transversal_matroid(sets, m.n) == m
        # coclosure classes recover the corank-transform multiset
        for f in cf:
            got = sum(b for g, b in beta.items() if m.coclosure(g) == f)
            assert got == cf[f]


def test_beta_solutions_series_pair():
    """The series pair has 7 weightings; on it and on every transversal
    pool matroid with n <= 6 and at most 24 flats, each weighting meets
    the covering counts, presents the matroid and recovers tau on the
    coclosure classes.  (The weightings of a free matroid of rank 5 or
    6, with 32 or 64 flats, are too many to enumerate in a test.)"""
    m = series_pair()
    sols = beta_solutions(m)
    assert len(sols) == 7
    check_beta_solutions(m, sols)
    checked = 0
    for m in matroid_pool(random.Random(1123), 300):
        if m.n > 6 or len(m.flats()) > 24 or not is_transversal(m)[0]:
            continue
        check_beta_solutions(m, beta_solutions(m))
        checked += 1
    assert checked >= 150


def test_beta_solutions_guards():
    with pytest.raises(ValueError):
        beta_solutions(uniform_matroid(2, 9))
    with pytest.raises(NotTransversal):
        beta_solutions(three_pair_matroid())


def test_beta_solutions_refuse_large_flat_lattices():
    """The free matroid of rank 5 (32 flats) is refused at once, before
    the enumeration; rank 4 (16 flats) still lists its 1,998
    weightings."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="capped at %d flats"
                       % transversal.BETA_MAX_FLATS):
        beta_solutions(uniform_matroid(5, 5))
    assert time.perf_counter() - start < 1
    assert len(beta_solutions(uniform_matroid(4, 4))) == 1998


def test_is_transversal_returns_a_fresh_verdict():
    """Every call computes its own verdict: clearing the first call's
    presentation or certificate leaves a second call's intact, equal to
    a fresh matroid's, and the matroid keeps no verdict."""
    for m in (series_pair(), three_pair_matroid()):
        ok, payload = is_transversal(m)
        (payload if ok else payload["family"]).clear()
        second = is_transversal(m)
        assert second == is_transversal(Matroid(m.n, m.bases, check=False))
        assert second[1]
        assert not hasattr(m, "_transversal")


def test_is_pseudopresentation():
    m = series_pair()
    good = (mask_of([0, 1]), mask_of([0, 1, 2]), mask_of([2, 3, 4]))
    bad = (mask_of([0, 1]), mask_of([2, 3, 4]), mask_of([2, 3, 4]))
    assert is_pseudopresentation(m, good)
    assert not is_pseudopresentation(m, bad)
    assert not is_pseudopresentation(m, good[:2])


def test_transversal_matroid_leaves_no_reference_cycle():
    """The matching behind transversal_matroid is a module-level
    recursion: with the collector off, a call leaves nothing for it."""
    sets = [mask_of([0, 1]), mask_of([1, 2]), mask_of([0, 2, 3])]
    gc.collect()
    gc.disable()
    try:
        m = transversal_matroid(sets, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert m.d == 3 and m.bases


def test_beta_solutions_leave_no_reference_cycle():
    """The enumeration behind beta_solutions is a module-level
    recursion: with the collector off, a call on U(2,4) leaves nothing
    for it, and the weightings still pass check_beta_solutions."""
    m = uniform_matroid(2, 4)
    gc.collect()
    gc.disable()
    try:
        sols = beta_solutions(m)
        assert gc.collect() == 0
    finally:
        gc.enable()
    check_beta_solutions(m, sols)


def one_basis_request(d):
    "A rank-d one-basis matroid presented by its d singletons."
    return {"matroid": {"n": d, "bases": [list(range(1, d + 1))]},
            "sets": [[e] for e in range(1, d + 1)]}


def test_covering_violations_refuse_too_many_meets(tmp_path):
    """The meets of the complements of d singletons are all 2^d subsets:
    at d = 17 that passes MAX_SLOTS, so verify-set-presentation exits 2
    with TooLarge within a second; at d = 10 it still answers."""
    m = Matroid(17, [(1 << 17) - 1])
    with pytest.raises(TooLarge) as err:
        covering_violations(m, Counter(m.full ^ (1 << e) for e in range(17)))
    assert err.value.witness == {"meets": MAX_SLOTS + 1, "limit": MAX_SLOTS}
    for d, code, body in ((17, 2, {"error": "TooLarge",
                                   "message": "%d meets of flats exceed %d"
                                   % (MAX_SLOTS + 1, MAX_SLOTS),
                                   "witness": err.value.witness}),
                          (10, 0, {"ok": True})):
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(one_basis_request(d)))
        start = time.perf_counter()
        got = run(["verify-set-presentation", "--input", str(src),
                   "--output", str(dst)])
        assert time.perf_counter() - start < 1.0
        assert (got, json.loads(dst.read_text())) == (code, body)


def test_covering_violations_refuse_too_many_weighted_flats():
    """Weights on more than MAX_SLOTS flats, closed under meets or not,
    are refused with their own count before any meet is built."""
    m = Matroid(17, [(1 << 17) - 1])
    for flats in (range(MAX_SLOTS + 1), range(1 << 17)):
        with pytest.raises(TooLarge) as err:
            covering_violations(m, dict.fromkeys(flats, 1))
        assert err.value.witness == {"meets": len(flats), "limit": MAX_SLOTS}
