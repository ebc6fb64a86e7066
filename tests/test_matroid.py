import random
from functools import lru_cache
from math import comb

import pytest

from common import (PAIR_MASKS, matroid_pool, random_rows,
                    three_pair_matroid)
from reference import (check_exchange_bruteforce, circuits_bruteforce,
                       connected_components_bruteforce,
                       corank_transform_mobius, cover_mask_exchange,
                       cyclic_flats_bruteforce, exchange_fails)
from troplin import (Matroid, NoBasis, NotAFlat, NotAMatroid,
                     ValuatedMatroid, direct_sum, matroid, maximal_cells,
                     stiefel, transversal_matroid, uniform_matroid)
from troplin.util import ksubsets, mask_of


def series_pair():
    "U_{1,2} on {1,2} plus U_{2,3} on {3,4,5}."
    return direct_sum(uniform_matroid(1, 2), uniform_matroid(2, 3))


def test_exchange_rejects_two_disjoint_pairs():
    with pytest.raises(NotAMatroid) as err:
        Matroid(4, [mask_of([0, 1]), mask_of([2, 3])])
    wit = err.value.witness
    assert set(wit) == {"b1", "b2", "e"}
    assert exchange_fails(
        Matroid(4, [mask_of([0, 1]), mask_of([2, 3])], check=False), **wit)


def test_only_a_checked_matroid_reads_every_basis():
    """check=True refuses a basis outside the ground set (ValueError)
    and one of another size (NotAMatroid naming the first basis and
    it); check=False trusts its bases and reads none of them beyond the
    first's size, so its construction is the sort and nothing more."""
    with pytest.raises(ValueError, match="outside the ground set"):
        Matroid(3, [mask_of([0, 1]), mask_of([1, 3])])
    with pytest.raises(NotAMatroid, match="unequal size") as err:
        Matroid(4, [mask_of([0, 1]), mask_of([0, 1, 2])])
    assert err.value.witness == {"b1": [1, 2], "b2": [1, 2, 3]}

    class Basis(int):
        "A basis mask that counts its bit_count calls."
        counted = 0

        def bit_count(self):
            Basis.counted += 1
            return int(self).bit_count()

    bases = [Basis(b) for b in ksubsets(6, 3)]
    unchecked = Matroid(6, bases, check=False)
    assert (unchecked.n, unchecked.d, len(unchecked.bases)) == (6, 3, 20)
    assert Basis.counted == 1
    Matroid(6, bases, check=True)
    assert Basis.counted >= 1 + 20


def exchange_witness(check):
    try:
        check()
    except NotAMatroid as exc:
        return exc.witness
    return None


def random_family(rng):
    """Equal-size basis families on n <= 7: random ones, and matroids from
    Stiefel supports with one basis dropped or one k-set added."""
    d = rng.randint(0, 4)
    n = rng.randint(max(d, 1), 7)
    slots = ksubsets(n, d)
    if d == 0 or rng.random() < 0.5:
        return n, rng.sample(slots, rng.randint(1, len(slots)))
    fam = list(stiefel(random_rows(rng, d, n, rng.uniform(0, 0.5))).support)
    if len(fam) > 1 and rng.random() < 0.5:
        fam.remove(rng.choice(fam))
    else:
        fam.append(rng.choice(slots))
    return n, fam


def test_exchange_matches_the_quadratic_loop():
    """Verdict equal to the ordered triple loop's, and every witness a
    failing exchange by definition: it is read off the cover mask that
    a basis misses, not rescanned in order."""
    rng = random.Random(1736)
    families = [random_family(rng) for _ in range(600)]
    families += [(n, ksubsets(n, d)) for n in range(8) for d in range(n + 1)]
    failures = 0
    for n, fam in families:
        fast = exchange_witness(lambda: Matroid(n, fam))
        unchecked = Matroid(n, fam, check=False)
        slow = exchange_witness(lambda: check_exchange_bruteforce(unchecked))
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert exchange_fails(unchecked, **fast)
            failures += 1
    assert 60 < failures < 400


def near_matroid(rng):
    "A Stiefel support on n <= 8 with one basis dropped or one d-set added."
    d = rng.randint(1, 4)
    n = rng.randint(d + 1, 8)
    fam = list(stiefel(random_rows(rng, d, n, rng.uniform(0, 0.5))).support)
    others = [b for b in ksubsets(n, d) if b not in fam]
    if len(fam) > 1 and (not others or rng.random() < 0.5):
        fam.remove(rng.choice(fam))
    elif others:
        fam.append(rng.choice(others))
    return n, fam


def test_exchange_witness_matches_the_cover_mask_loop():
    """The witness is the one the explicit cover-mask loop raises: the
    first basis by index that misses a mask, then the first mask in
    insertion order that it misses."""
    rng = random.Random(2718)
    families = [random_family(rng) for _ in range(500)]
    families += [near_matroid(rng) for _ in range(300)]
    failures = 0
    for n, fam in families:
        fast = exchange_witness(lambda: Matroid(n, fam))
        unchecked = Matroid(n, fam, check=False)
        assert fast == exchange_witness(lambda: cover_mask_exchange(unchecked))
        failures += fast is not None
    assert 80 < failures < 500


def test_uniform_exchange_needs_no_cover_masks(monkeypatch):
    "Every d-set is a basis, so the exchange check returns at once."
    def no_bits(mask):
        raise AssertionError("the exchange check built cover masks")

    monkeypatch.setattr(matroid, "bits", no_bits)
    for n, d in ((8, 4), (10, 3), (6, 0), (5, 5)):
        assert len(Matroid(n, ksubsets(n, d), check=True).bases) == \
            comb(n, d)


def test_bases_must_be_equicardinal():
    with pytest.raises(NotAMatroid):
        Matroid(3, [mask_of([0]), mask_of([1, 2])])
    with pytest.raises(NoBasis):
        Matroid(3, [])


def test_rank_closure_flats_uniform():
    m = uniform_matroid(2, 4)
    assert m.d == 2
    assert m.rank(mask_of([0, 2, 3])) == 2
    assert m.closure(mask_of([0])) == mask_of([0])
    assert m.closure(mask_of([0, 1])) == m.full
    flats = m.flats()
    assert sorted(flats) == sorted([0] + [1 << i for i in range(4)] + [m.full])


def test_loops_and_coloops():
    m = Matroid(3, [mask_of([0]), mask_of([1])], check=False)
    assert m.loops() == mask_of([2])
    assert m.coloops() == 0
    assert uniform_matroid(3, 3).coloops() == mask_of([0, 1, 2])


def test_coclosure_series_pair():
    m = series_pair()
    assert m.coclosure(m.full) == m.full
    assert m.coclosure(mask_of([0, 1])) == mask_of([0, 1])
    assert m.coclosure(mask_of([0, 2])) == 0
    assert m.coclosure(mask_of([0, 2, 3])) == 0
    assert m.coclosure(mask_of([2, 3, 4])) == mask_of([2, 3, 4])


def test_cyclic_flats_and_tau_series_pair():
    m = series_pair()
    cf = m.cyclic_flats()
    assert sorted(cf) == sorted([0, mask_of([0, 1]), mask_of([2, 3, 4]),
                                 m.full])
    assert cf[0] == 0
    assert cf[mask_of([0, 1])] == 2
    assert cf[mask_of([2, 3, 4])] == 1
    assert cf[m.full] == 0
    assert sorted(f for f, t in cf.items() for _ in range(t)) == sorted(
        [mask_of([0, 1]), mask_of([0, 1]), mask_of([2, 3, 4])])


def test_tau_three_pair_is_negative_at_bottom():
    cf = three_pair_matroid().cyclic_flats()
    assert cf[0] == -1


ROUTES = ("parity", "joins")


def take_route(monkeypatch, route):
    "Send every cyclic_flats() call down one route, whatever the shape."
    monkeypatch.setattr(matroid, "_parity_pays",
                        lambda n, d, nbases: route == "parity")


def edge_matroids():
    """Rank 0 (loops only), rank n, coloops beside a circuit, one
    element either way, the empty ground set and a single basis."""
    return [uniform_matroid(0, 3), uniform_matroid(4, 4),
            direct_sum(uniform_matroid(2, 2), uniform_matroid(1, 3)),
            uniform_matroid(0, 1), uniform_matroid(1, 1),
            uniform_matroid(0, 0), Matroid(5, [mask_of([1, 3])])]


def wide_transversal(rng):
    """Seeded transversal matroids on 10 to 16 elements, three of each
    size, of rank 2 to 6 over random sets of density 0.15 to 0.45."""
    out = []
    while len(out) < 21:
        n = 10 + len(out) // 3
        dens = rng.uniform(0.15, 0.45)
        sets = [sum(1 << e for e in range(n) if rng.random() < dens)
                for _ in range(rng.randint(2, 6))]
        try:
            out.append(transversal_matroid(sets, n))
        except NoBasis:
            continue
    return out


@lru_cache(maxsize=None)
def lattice_filter(n, bases):
    "cyclic_flats_bruteforce, listed once per matroid for both routes."
    return cyclic_flats_bruteforce(Matroid(n, bases, check=False))


@pytest.mark.parametrize("route", ROUTES)
def test_corank_transform_matches_the_mobius_sum(monkeypatch, route):
    """Each route to the cyclic flats, then the one downward pass, gives
    the tau that the Moebius function of the cyclic-flat poset gives,
    negative values included; tau off the cyclic flats is a KeyError."""
    pool = matroid_pool(random.Random(2357), 640) + [three_pair_matroid()]
    pool += edge_matroids()
    take_route(monkeypatch, route)
    signs = set()
    for m in pool:
        cf = Matroid(m.n, m.bases, check=False).cyclic_flats()
        want = corank_transform_mobius(Matroid(m.n, m.bases, check=False))
        assert cf == want
        assert list(cf) == sorted(cf, key=lambda f: (f.bit_count(), f))
        signs.update((t > 0) - (t < 0) for t in want.values())
        others = [f for f in range(m.full + 1) if f not in cf]
        if others:
            with pytest.raises(KeyError):
                cf[others[0]]
    assert signs == {-1, 0, 1}


@pytest.mark.parametrize("route", ROUTES)
def test_cyclic_flats_match_the_lattice_filter(monkeypatch, route):
    """The parity pass over the power set and the closures of the
    circuits closed under joins each give the cyclic flats that
    filtering the whole flat lattice gives, in the same (size, mask)
    order, each with its rank cached: on pool matroids, on seeded
    transversal matroids on 10 to 16 elements and on the edge cases."""
    rng = random.Random(3141)
    pool = matroid_pool(rng, 630)
    wide = wide_transversal(rng)
    pool += wide + edge_matroids()
    take_route(monkeypatch, route)
    shapes = set()
    for m in pool:
        mine = Matroid(m.n, m.bases, check=False)
        cf = mine.cyclic_flats()
        assert tuple(cf) == lattice_filter(m.n, m.bases)
        assert all(mine._rank[z] == max((b & z).bit_count() for b in m.bases)
                   for z in cf)
        shapes.add((bool(m.loops()), bool(m.coloops()),
                    len(m.connected_components()) > 1, len(cf) > 2))
    assert {(True, False, True, True), (False, True, True, True),
            (True, True, True, False), (False, False, True, True),
            (False, False, False, True)} <= shapes
    assert {m.n for m in wide} == set(range(10, 17))
    assert sum(len(m.cyclic_flats()) > 2 for m in wide) >= 10


def test_parity_route_runs_no_circuit_or_closure(monkeypatch):
    """On the shapes that the parity pass serves, cyclic_flats() and the
    walk that reads every maximal cell's lattice call neither circuits()
    nor closure(), and the walk finds the cells the join route finds."""
    v = stiefel(random_rows(random.Random(4096), 4, 8, 0.2))
    take_route(monkeypatch, "joins")
    want = [(c.matroid.bases, c.scaled, c.parts) for c in maximal_cells(v)]
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("the parity route scans no circuit or closure")

    monkeypatch.setattr(Matroid, "circuits", refuse)
    monkeypatch.setattr(Matroid, "closure", refuse)
    m = three_pair_matroid()
    assert matroid._parity_pays(m.n, m.d, len(m.bases))
    assert m.cyclic_flats() == {0: -1, PAIR_MASKS[0]: 1, PAIR_MASKS[1]: 1,
                                PAIR_MASKS[2]: 1, m.full: 0}
    fresh = ValuatedMatroid(v.n, v.d, v.table)
    got = [(c.matroid.bases, c.scaled, c.parts)
           for c in maximal_cells(fresh)]
    assert got == want and len(got) > 1
    assert all(matroid._parity_pays(c.matroid.n, c.matroid.d,
                                    len(c.matroid.bases))
               for c in maximal_cells(fresh))


def test_wide_matroids_take_the_join_route(monkeypatch):
    """Past 16 elements the power set is too wide for the parity pass,
    however many bases: cyclic_flats() takes the join route and matches
    the lattice filter.  The matroid: a loop, a coloop and a rank-2
    matroid on 16 elements with parallel classes of 3, 4, 4 and 5
    elements.  A single basis on 16 elements takes the join route too,
    a scan of one basis against 2^16-bit shifts."""
    classes = [range(1, 4), range(4, 8), range(8, 12), range(12, 17)]
    bases = [1 << a | 1 << b | 1 << 17 for i, x in enumerate(classes)
             for y in classes[i + 1:] for a in x for b in y]
    m = Matroid(18, bases)
    assert not matroid._parity_pays(m.n, m.d, len(m.bases))
    assert not matroid._parity_pays(17, 8, comb(17, 8))

    def refuse(n):
        raise AssertionError("no power-set masks past 16 elements")

    monkeypatch.setattr(matroid, "_power_masks", refuse)
    cf = m.cyclic_flats()
    assert tuple(cf) == cyclic_flats_bruteforce(
        Matroid(m.n, m.bases, check=False))
    assert list(cf) == [1] + [1 | mask_of(c) for c in classes] + [
        m.full ^ 1 << 17]
    assert Matroid(16, [mask_of([0, 5, 9])]).cyclic_flats() == {
        (1 << 16) - 1 - mask_of([0, 5, 9]): 3}


def test_circuits_match_the_minimal_dependent_sets():
    """One pass over the bases and the elements outside each gives the
    minimal dependent sets that a scan over all 2^n subsets finds, in
    (size, mask) order, on pool matroids with loops, coloops, rank 0
    and rank n among them."""
    pool = matroid_pool(random.Random(1729), 630)
    pool += [uniform_matroid(0, 3), uniform_matroid(4, 4),
             uniform_matroid(0, 0), three_pair_matroid()]
    shapes = set()
    for m in pool:
        circ = m.circuits()
        assert circ == circuits_bruteforce(Matroid(m.n, m.bases,
                                                   check=False))
        assert m.circuits() is circ
        shapes.add((bool(m.loops()), bool(m.coloops()), m.d == 0,
                    m.d == m.n))
    assert {(True, False, False, False), (False, True, False, False),
            (True, True, False, False), (True, False, True, False),
            (False, True, False, True),
            (False, False, False, False)} <= shapes


def test_closure_is_one_scan_of_the_bases():
    "closure(S) adds the e with r(S + e) = r(S) and caches r(S) for both."
    rng = random.Random(1414)
    for m in matroid_pool(rng, 120):
        rank = lambda s: max((b & s).bit_count() for b in m.bases)
        for _ in range(8):
            s = rng.randrange(1 << m.n) if m.n else 0
            fresh = Matroid(m.n, m.bases, check=False)
            cl = fresh.closure(s)
            assert cl == s | mask_of(e for e in range(m.n)
                                     if rank(s | 1 << e) == rank(s))
            assert fresh._rank[s] == fresh._rank[cl] == rank(s)


def test_connected_components():
    m = series_pair()
    assert list(m.connected_components()) == [mask_of([0, 1]),
                                              mask_of([2, 3, 4])]
    assert list(uniform_matroid(2, 4).connected_components()) == \
        [mask_of(range(4))]


def test_connected_components_match_the_separator_scan():
    """Fundamental circuits of one basis give the components that the
    scan over all 2^n separators finds."""
    pool = matroid_pool(random.Random(2718), 360)
    shapes = set()
    for m in pool:
        comps = m.connected_components()
        assert comps == connected_components_bruteforce(m)
        shapes.add((bool(m.loops()), bool(m.coloops()),
                    1 < len(comps) < m.n))
    assert {(True, False, True), (False, True, True), (False, False, True),
            (False, False, False)} <= shapes


def test_connected_components_need_no_rank(monkeypatch):
    "A direct sum of four U(2,4): 16 elements, 1296 bases, no 2^16 scan."
    def no_rank(self, subset):
        raise AssertionError("connected_components called rank")

    u = uniform_matroid(2, 4)
    m = direct_sum(direct_sum(u, u), direct_sum(u, u))
    assert (m.n, len(m.bases)) == (16, 1296)
    monkeypatch.setattr(Matroid, "rank", no_rank)
    assert m.connected_components() == tuple(0b1111 << (4 * i)
                                             for i in range(4))


def test_minors():
    m = uniform_matroid(2, 4)
    c = m.contract(mask_of([3]))
    assert c.n == 3 and c.d == 1
    assert sorted(c.bases) == [1, 2, 4]
    r = m.restrict(mask_of([0, 1, 2]))
    assert r == uniform_matroid(2, 3)
    d = m.restrict(m.full ^ mask_of([0]))
    assert d == uniform_matroid(2, 3)
    tp = three_pair_matroid().contract(mask_of([0, 1]))
    assert tp == uniform_matroid(1, 4)


def test_dual_involution():
    rng = random.Random(7)
    built = 0
    while built < 30:
        n = rng.randint(2, 6)
        k = rng.randint(1, min(3, n))
        sets = [mask_of(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(k)]
        try:
            m = transversal_matroid(sets, n)
        except NoBasis:
            continue
        assert m.dual().dual() == m
        built += 1
    m = series_pair()
    assert m.dual().dual() == m
    assert m.dual().d == m.n - m.d


def test_polytope_face():
    m = Matroid(4, [b for b in ksubsets(4, 2) if b != mask_of([2, 3])],
                check=False)
    face = m.polytope_face(mask_of([2, 3]))
    assert sorted(face.bases) == sorted(
        [mask_of([0, 2]), mask_of([1, 2]), mask_of([0, 3]), mask_of([1, 3])])
    with pytest.raises(NotAFlat):
        m.polytope_face(mask_of([0, 2]))


def test_rank_is_cached_consistently():
    m = three_pair_matroid()
    for s in range(1 << 6):
        want = max((s & b).bit_count() for b in m.bases)
        assert m.rank(s) == want
