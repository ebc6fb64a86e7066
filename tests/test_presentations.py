import gc
import json
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from common import (fr, k4_graphic_valuation, matroid_pool, points_of,
                    rank2_four, rank3_five, rank3_five_rows, random_rows,
                    random_valuation, three_pair_dual_rows,
                    three_pair_valuation)
from test_acceptance import fiber_harness  # noqa: F401  (a fixture)
import reference
from reference import (NotCyclicFlat, contract_presentation,
                       fan_member_by_sets, membership_bruteforce,
                       presentation_fan_member, presentation_space_member,
                       presentations_exhaustive, r0_member, rinf_facet_oracle,
                       rinf_member, rinf_member_lp, set_presentation_scan,
                       sigma0_lattice_scan)
from troplin import (INF, AllInfinite, DistinguishedEntry, Matroid,
                     NotAMatroid, NotTransversalFacets, PointOutsideL,
                     TroplinError, ValuatedMatroid, WrongArity,
                     apices, direct_sum, distinguished, is_transversal,
                     is_transversal_valuated, maximal_cells, membership,
                     normalize_point, presentations, relsupp,
                     sample_presentation, stiefel, transversal,
                     uniform_matroid, v_contract, v_dual, valuated,
                     verify_presentation, verify_set_presentation)
from troplin import linprog
from troplin.cli import run
from troplin.jsonio import fmt_matrix, fmt_valuated
from troplin.util import ksubsets, list1, mask_of


def cell_without_34():
    return Matroid(4, [b for b in ksubsets(4, 2) if b != mask_of([2, 3])],
                   check=False)


def cell_without_12():
    return Matroid(4, [b for b in ksubsets(4, 2) if b != mask_of([0, 1])],
                   check=False)


def test_r0_membership():
    v = rank3_five()
    x = (fr(1), fr(1), fr(1), fr(0), fr(0))
    assert r0_member(v, mask_of([3, 4]), x, (fr(0),) * 5)
    assert not r0_member(v, mask_of([3, 4]), x, x)


def test_rinf_regions_rank2_four():
    v = rank2_four()
    f12, f34 = mask_of([0, 1]), mask_of([2, 3])
    cells = {c.matroid: c for c in maximal_cells(v)}
    c12, c34 = cells[cell_without_12()], cells[cell_without_34()]
    assert rinf_member(v, c12, f12, (fr(0), fr(0), fr(0), fr(0)))
    assert not rinf_member(v, c12, f12, (fr(0), fr(0), fr(1), fr(1)))
    assert rinf_member(v, c12, f12, (fr(5), fr(0), fr(0), fr(0)))
    assert rinf_member(v, c34, f34, (fr(0), fr(0), fr(1), fr(1)))
    assert not rinf_member(v, c34, f34, (fr(0), fr(0), fr(0), fr(0)))
    # all-infinite on the flat always counts
    assert rinf_member(v, c12, f12, (INF, INF, fr(0), fr(0)))
    with pytest.raises(NotCyclicFlat):
        rinf_member(v, c12, mask_of([0]), (fr(0),) * 4)


def test_rinf_agrees_with_interval_oracle():
    rng = random.Random(1234)
    compared = 0
    for v in (rank2_four(), rank3_five()):
        for cell in maximal_cells(v):
            m = cell.matroid
            for f in m.cyclic_flats():
                if f == 0 or f == m.full:
                    continue
                for _ in range(40):
                    z = tuple(INF if rng.random() < 0.15
                              else Fraction(rng.randint(-4, 8),
                                            rng.choice((1, 2)))
                              for _ in range(v.n))
                    if all(c == INF for c in z):
                        continue
                    want = rinf_facet_oracle(v, cell, f, z)
                    if want is None:
                        break
                    assert rinf_member(v, cell, f, z) == want
                    compared += 1
    assert compared >= 80


def test_rinf_agrees_with_the_full_row_lp():
    """rinf_member sends deduplicated rows; the full-row LP of the oracle
    must give the same verdict on walls with 1, 2 and 3 components."""
    rng = random.Random(4321)
    pool = [rank2_four(), rank3_five()]
    while len(pool) < 8:
        v = random_valuation(rng, 3, 6, inf_prob=0.1)
        if not v.underlying().loops():
            pool.append(v)
    by_components = {}
    for v in pool:
        for cell in maximal_cells(v):
            m = cell.matroid
            for f in m.cyclic_flats():
                if f == 0:
                    continue
                c = len(m.polytope_face(f).connected_components())
                for _ in range(6):
                    z = tuple(INF if rng.random() < 0.15
                              else Fraction(rng.randint(-4, 8),
                                            rng.choice((1, 2)))
                              for _ in range(v.n))
                    if all(x == INF for x in z):
                        continue
                    got = rinf_member(v, cell, f, z)
                    assert got == rinf_member_lp(v, cell, f, z)
                    by_components.setdefault(c, set()).add(got)
    assert {1, 2, 3} <= set(by_components)
    assert by_components[2] == by_components[3] == {True, False}


def test_rinf_agrees_with_the_full_row_lp_off_the_region_scale():
    """Valuations with den > 1 and points with thirds and fifths, whose
    denominators mostly do not divide the scale of the integer rows of
    _escape_region, so _in_region takes the rows to a larger one: the
    verdict is still that of the full-row LP, both ways on walls with 2
    and 3 components."""
    rng = random.Random(2357)
    pool = []
    while len(pool) < 8:
        rows = [[v if v == INF else v / rng.choice((2, 4)) for v in row]
                for row in random_rows(rng, 3, 6, 0.1, 0, 12)]
        v = stiefel(rows)
        if v.den > 1 and not v.underlying().loops():
            pool.append(v)
    rescaled = 0
    by_components = {}
    for v in pool:
        for cell in maximal_cells(v):
            m = cell.matroid
            for f in m.cyclic_flats():
                if f == 0:
                    continue
                c = len(m.polytope_face(f).connected_components())
                scale = presentations._escape_region(v, cell, f)[0]
                for _ in range(4):
                    z = tuple(INF if rng.random() < 0.15
                              else Fraction(rng.randint(-12, 24),
                                            rng.choice((1, 3, 5, 15)))
                              for _ in range(v.n))
                    if all(x == INF for x in z):
                        continue
                    got = rinf_member(v, cell, f, z)
                    assert got == rinf_member_lp(v, cell, f, z)
                    by_components.setdefault(c, set()).add(got)
                    rescaled += scale % lcm(*(x.denominator for x in z
                                              if x != INF)) != 0
    assert rescaled >= 50
    assert {1, 2, 3} <= set(by_components)
    assert by_components[2] == by_components[3] == {True, False}


def test_escape_regions_run_on_integers(monkeypatch):
    """On a 3x6 Stiefel image, every coefficient and right-hand side of
    _escape_region's rows is an int, and so is every tableau entry of
    the LPs that verify_presentation sends."""
    rng = random.Random(6007)
    rows = random_rows(rng, 3, 6)
    v = stiefel(rows)
    regions = 0
    for cell in maximal_cells(v):
        m = cell.matroid
        for f in m.cyclic_flats():
            if f == 0:
                continue
            scale, xs, _, _, region, cap = presentations._escape_region(
                v, cell, f)
            assert all(type(x) is int for x in [scale, *xs, *cap])
            assert all(type(x) is int
                       for coeffs, rhs in region for x in [*coeffs, rhs])
            regions += 1
    assert regions > 10
    tableaux = []
    real = linprog._run

    def checked(tab, obj, basis, ncols):
        assert all(type(x) is int for row in tab for x in row)
        assert all(type(x) is int for x in obj)
        tableaux.append(len(tab))
        return real(tab, obj, basis, ncols)

    monkeypatch.setattr(linprog, "_run", checked)
    assert verify_presentation(v, points_of(rows))["ok"]
    assert tableaux


def test_verify_presentation_golden():
    v = rank2_four()
    rep = verify_presentation(
        v, [(fr(0), fr(0), fr(0), fr(0)), (fr(0), fr(0), fr(1), fr(1))])
    assert rep == {"ok": True, "violations": []}
    z = rank3_five()
    assert verify_presentation(z, points_of(rank3_five_rows()))["ok"]
    dual = v_dual(three_pair_valuation())
    assert verify_presentation(dual, points_of(three_pair_dual_rows()))["ok"]


def test_verify_presentation_counts_failures():
    v = rank2_four()
    rep = verify_presentation(v, [(fr(0),) * 4, (fr(0),) * 4])
    assert not rep["ok"]
    got = {(tuple(map(tuple, w["cell"])), tuple(w["flat"]), w["kind"],
            w["count"], w["bound"]) for w in rep["violations"]}
    cell_a = tuple(sorted(map(tuple, (list1(b) for b in cell_without_34().bases))))
    cell_b = tuple(sorted(map(tuple, (list1(b) for b in cell_without_12().bases))))
    norm = {(tuple(sorted(c)), f, k, cnt, b) for c, f, k, cnt, b in got}
    assert norm == {
        (cell_a, (3, 4), "sigmainf", 0, 1),
        (cell_b, (1, 2), "sigma0", 2, 1),
        (cell_b, (1, 2), "sigmainf", 2, 1),
    }


def row_span_point(rng, rows):
    "min over the rows of c_i + row_i, with some c_i infinite."
    while True:
        shifts = [INF if rng.random() < 0.3
                  else Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
                  for _ in rows]
        p = tuple(min((c + r[j] if c != INF and r[j] != INF else INF)
                      for c, r in zip(shifts, rows))
                  for j in range(len(rows[0])))
        if any(x != INF for x in p):
            return p


def test_sigma0_checks_the_meets_of_the_relative_supports():
    """Seen from the vertex of a connected maximal cell, the relative
    supports of row-span points are flats of the cell.  sigma0 of
    verify_presentation lists exactly the meets of the supports that
    more supports cover than their corank, with the verdict of the
    oracle's scan of the whole flat lattice, and every flat that scan
    flags lies below a listed meet with the same count (the scan also
    flags such flats that are no meets, so its list is often longer)."""
    rng = random.Random(3141)
    cells = flagged = wider = 0
    for _ in range(80):
        d = rng.randint(2, 3)
        n = rng.randint(d + 2, 6)
        rows = random_rows(rng, d, n, inf_prob=0.15)
        vm = stiefel(rows)
        uv = vm.underlying()
        if uv.loops() | uv.coloops():
            continue
        span = [row_span_point(rng, rows) for _ in range(d)]
        points = [rng.choice(span) for _ in range(d)]
        listed = {}
        for w in verify_presentation(vm, points)["violations"]:
            if w["kind"] == "sigma0":
                key = tuple(map(tuple, w["cell"]))
                listed.setdefault(key, []).append(
                    (mask_of(e - 1 for e in w["flat"]), w["count"]))
        for cell in maximal_cells(vm):
            m = cell.matroid
            if len(m.connected_components()) != 1:
                continue
            cells += 1
            v = normalize_point(cell.witness)
            supports = [relsupp(v, p) for p in points]
            assert all(m.is_flat(rs) for rs in supports)
            meets = set()
            for mask in range(1, 1 << len(supports)):
                inter = m.full
                for i, rs in enumerate(supports):
                    if (mask >> i) & 1:
                        inter &= rs
                meets.add(inter)
            want = []
            for g in sorted(meets, key=lambda f: (f.bit_count(), f)):
                count = sum(1 for rs in supports if rs & g == g)
                if count > m.corank(g):
                    want.append((g, count))
            got = listed.pop(tuple(tuple(list1(b)) for b in m.bases), [])
            assert got == want
            lattice = sigma0_lattice_scan(m, supports)
            assert bool(lattice) == bool(got)
            assert all(any(f & g == f and c == k for g, k in got)
                       for f, c in lattice)
            flagged += bool(got)
            wider += lattice != got
        assert not listed
    assert cells >= 150 and flagged >= 100 and cells - flagged >= 20
    assert wider >= 20


def test_covering_counts_need_no_lattice_and_no_transversality_test(
        monkeypatch, tmp_path):
    """verify_presentation, verify_set_presentation and the
    in-presentation-space and verify-presentation commands answer as
    before with Matroid.flats and transversal.is_transversal failing:
    the covering counts run only at meets, in covering_violations."""
    rows = random_rows(random.Random(804), 3, 7, inf_prob=0.15)
    others = [rows[1]] + rows[1:]
    src = tmp_path / "rows.json"
    src.write_text(json.dumps(fmt_matrix(rows)))
    assert run(["stiefel", "--input", str(src),
                "--output", str(tmp_path / "table.json")]) == 0
    table = json.loads((tmp_path / "table.json").read_text())
    families = []
    for m in matroid_pool(random.Random(5), 60):
        ok, pres = is_transversal(m)
        if ok:
            families.append((m, pres))
            families += [(m, [a & ~(1 << e) for a in pres])
                         for e in range(m.n)]

    def answers():
        reports = [verify_presentation(stiefel(rows), pts)
                   for pts in (rows, others)]
        verdicts = [verify_set_presentation(
            Matroid(m.n, m.bases, check=False), sets)
            for m, sets in families]
        replies = []
        for command in ("in-presentation-space", "verify-presentation"):
            for pts in (rows, others):
                src.write_text(json.dumps({"valuation": table,
                                           "points": fmt_matrix(pts)}))
                dst = tmp_path / "out.json"
                code = run([command, "--input", str(src),
                            "--output", str(dst)])
                replies.append((code, dst.read_text()))
        return reports, verdicts, replies

    expected = answers()
    reports, verdicts, replies = expected
    assert [r["ok"] for r in reports] == [True, False]
    assert any(w["kind"] == "sigma0" for w in reports[1]["violations"])
    assert True in verdicts and False in verdicts
    assert verdicts == [set_presentation_scan(m, sets)
                        for m, sets in families]
    assert [code for code, _ in replies] == [0, 1, 0, 1]

    def refuse(*args):
        raise AssertionError("a lattice scan or a transversality test ran")

    monkeypatch.setattr(Matroid, "flats", refuse)
    monkeypatch.setattr(transversal, "is_transversal", refuse)
    assert answers() == expected


def test_finite_float_coordinates_are_refused_by_name():
    """A finite float coordinate is refused where the point is checked,
    naming it, rather than failing later on its denominator; an all-inf
    point and a wrong length are still refused first."""
    from troplin.trop import check_point

    v = stiefel([[fr(0)] * 4, [fr(0), fr(0), fr(1), fr(1)]])
    cell = maximal_cells(v)[0]
    flat = mask_of([2, 3])
    assert flat in cell.matroid.cyclic_flats()
    bad = (0.5, fr(0), fr(0), fr(0))
    calls = (lambda: membership(v, bad),
             lambda: rinf_member(v, cell, flat, bad),
             lambda: presentation_space_member(v, [(fr(0),) * 4, bad]),
             lambda: check_point((fr(0), INF, 2.0), 3))
    for call, j in zip(calls, (1, 1, 1, 3)):
        with pytest.raises(ValueError, match="coordinate %d is" % j):
            call()
    with pytest.raises(AllInfinite):
        check_point((INF, INF), 3)
    with pytest.raises(ValueError, match="point length mismatch"):
        check_point((0.5, fr(0)), 3)


def test_initial_matroid_refuses_a_finite_float_by_name():
    """initial_matroid refuses a finite float coordinate through
    check_point, naming it, as membership does, after its own refusals:
    a wrong length first, then InfiniteBase for any infinite coordinate,
    an all-inf point included."""
    from troplin import InfiniteBase, initial_matroid

    v = stiefel([[fr(0)] * 4, [fr(0), fr(0), fr(1), fr(1)]])
    with pytest.raises(ValueError, match="coordinate 1 is"):
        initial_matroid(v, (0.5, fr(0), fr(0), fr(0)))
    with pytest.raises(ValueError, match="coordinate 3 is"):
        initial_matroid(v, (fr(0), fr(1), 2.0, fr(0)))
    with pytest.raises(ValueError, match="point length mismatch"):
        initial_matroid(v, (0.5, INF, fr(0)))
    for x in ((0.5, INF, fr(0), fr(0)), (INF,) * 4):
        with pytest.raises(InfiniteBase):
            initial_matroid(v, x)
    assert initial_matroid(v, (fr(0),) * 4) == initial_matroid(v, (0,) * 4)


def test_verify_presentation_guards():
    v = rank2_four()
    with pytest.raises(WrongArity):
        verify_presentation(v, [(fr(0),) * 4])
    with pytest.raises(PointOutsideL) as err:
        verify_presentation(v, [(fr(0),) * 4, (fr(0), fr(1), fr(1), fr(1))])
    assert err.value.witness == {"index": 2}
    for p in ((fr(0),) * 3, (fr(0),) * 5):
        with pytest.raises(ValueError, match="point length mismatch"):
            verify_presentation(v, [(fr(0),) * 4, p])
    lollipop = ValuatedMatroid(3, 2, {mask_of([0, 1]): 0, mask_of([0, 2]): 0})
    with pytest.raises(TroplinError):
        verify_presentation(lollipop, [(fr(0),) * 3, (fr(0),) * 3])


def test_distinguished_rank2_four():
    data = distinguished(rank2_four())
    assert sorted(apices(data)) == [
        (fr(0), fr(0), fr(0), fr(0)), (fr(0), fr(0), fr(1), fr(1))]
    assert [e.flat for e in data] == [0, 0]
    assert all(e.multiplicity == 1 for e in data)


def test_distinguished_rank3_five():
    data = distinguished(rank3_five())
    assert len(data) == 3
    assert sorted(e.flat for e in data) == [0, 0, mask_of([0, 3, 4])]
    assert sorted(apices(data)) == sorted([
        (fr(0), fr(0), fr(0), fr(0), fr(0)),
        (fr(1), fr(1), fr(1), fr(0), fr(0)),
        (INF, fr(0), fr(0), INF, INF)])
    entry = [e for e in data if e.flat][0]
    assert entry.coords == (1, 2)
    assert entry.vertex == (fr(0), fr(0))


def test_distinguished_rejects_non_transversal_facet():
    with pytest.raises(NotTransversalFacets) as err:
        distinguished(three_pair_valuation())
    assert err.value.witness["certificate"]["family"] == \
        [[1, 2], [3, 4], [5, 6]]


def test_distinguished_rejects_loops_and_coloops():
    coloopy = ValuatedMatroid(3, 2,
                              {mask_of([0, 1]): 0, mask_of([0, 2]): 0})
    with pytest.raises(TroplinError) as err:
        distinguished(coloopy)
    assert err.value.witness == [1]
    loopy = ValuatedMatroid(3, 1, {mask_of([0]): 0, mask_of([1]): 0})
    with pytest.raises(TroplinError) as err:
        distinguished(loopy)
    assert err.value.witness == [3]


def nontransversal_dual(rng):
    """A loop- and coloop-free dual of a Stiefel image (d <= 4, n <= 7)
    with a non-transversal maximal cell."""
    for _ in range(500):
        d = rng.randint(1, 4)
        w = v_dual(random_valuation(rng, d, rng.randint(d + 2, 7),
                                    inf_prob=0.2))
        uv = w.underlying()
        if not uv.loops() | uv.coloops() and not is_transversal_valuated(w):
            return w
    raise AssertionError("no non-transversal dual drawn")


def plain(entries):
    return [(e.flat, e.matroid.n, e.matroid.bases, e.coords, e.multiplicity,
             e.vertex, e.apex) for e in entries]


def memo_state():
    return dict(presentations._MEMO), presentations._MEMO.size


def test_distinguished_memo_keeps_no_refusal():
    """A refused valuation raises with the same error and witness on every
    call, through distinguished and the commands built on it, and leaves
    the memo as it was: a coloop, a loop, the three-pair valuation and a
    non-transversal dual of a Stiefel image."""
    distinguished(rank2_four())
    before = memo_state()
    assert len(before[0]) == 1
    refused = [
        ValuatedMatroid(3, 2, {mask_of([0, 1]): 0, mask_of([0, 2]): 0}),
        ValuatedMatroid(3, 1, {mask_of([0]): 0, mask_of([1]): 0}),
        three_pair_valuation(), nontransversal_dual(random.Random(2))]
    kinds = []
    for v in refused:
        seen = []
        for call in (distinguished, distinguished, sample_presentation,
                     lambda v: presentation_space_member(v, [(0,) * v.n]
                                                         * v.d)):
            with pytest.raises(TroplinError) as err:
                call(v)
            seen.append((type(err.value), str(err.value),
                         json.dumps(err.value.witness)))
            assert memo_state() == before
        assert len(set(seen)) == 1
        kinds.append(seen[0][0])
    assert kinds == [TroplinError, TroplinError, NotTransversalFacets,
                     NotTransversalFacets]


def test_distinguished_memo_evicts_the_oldest_within_its_budget(
        monkeypatch):
    """Each answer costs its key slots plus its stored bases.  With the
    budget patched to one less than three answers cost, the third evicts
    the first; a hit rebuilds the cold entries, each on a fresh matroid;
    an answer costing more than the whole budget is given and not kept,
    and evicts nothing."""
    rng = random.Random(3131)
    vals = [rank2_four(), rank3_five(), v_dual(three_pair_valuation())]
    big = random_valuation(rng, 4, 8)
    cold = [plain(distinguished(v)) for v in (*vals, big)]
    cost = [len(v.ints) + sum(len(e[2]) for e in c)
            for v, c in zip((*vals, big), cold)]
    assert presentations._MEMO.size == sum(cost)
    presentations._MEMO.clear()
    budget = sum(cost[:3]) - 1
    assert cost[3] > budget
    monkeypatch.setattr(presentations, "MAX_SLOTS", budget)
    for v in vals:
        distinguished(v)
    keys = [v.canonical() for v in vals]
    assert list(presentations._MEMO) == keys[1:]
    assert presentations._MEMO.size == cost[1] + cost[2] <= budget
    hit = distinguished(vals[2])
    assert plain(hit) == cold[2]
    assert all(e.matroid._cf is None for e in hit)
    before = memo_state()
    assert plain(distinguished(big)) == cold[3]
    assert memo_state() == before
    assert plain(distinguished(vals[0])) == cold[0]
    assert list(presentations._MEMO) == keys[2:] + keys[:1]
    assert presentations._MEMO.size == cost[2] + cost[0] <= budget


def test_distinguished_memo_holds_no_valuation(monkeypatch, tmp_path):
    """With the cyclic garbage collector off, every ValuatedMatroid that a
    fiber request builds, its contractions among them, is freed when
    cli.run returns, on a miss and on a hit: the memo keeps plain data."""
    rows = random_rows(random.Random(804), 4, 8, inf_prob=0.15)
    table = json.loads(json.dumps(fmt_valuated(stiefel(rows))))
    requests = [("distinguished", table),
                ("in-presentation-space",
                 {"valuation": table, "points": fmt_matrix(rows)}),
                ("sample-presentation", table)]
    refs = []
    init = ValuatedMatroid.__init__

    def tracked(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(ValuatedMatroid, "__init__", tracked)
    counts = []
    gc.disable()
    try:
        for command, payload in requests * 2:
            src = tmp_path / "in.json"
            src.write_text(json.dumps(payload))
            refs.clear()
            assert run([command, "--seed", "3", "--input", str(src),
                        "--output", str(tmp_path / "out.json")]) == 0
            counts.append(len(refs))
            assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
    # the one contraction on the miss, and one stiefel image per
    # in-presentation-space request and per sample-presentation trial
    assert counts == [2, 2, 2, 1, 2, 2]
    assert len(presentations._MEMO) == 1


def test_presentation_fan_member_uniform():
    m = uniform_matroid(2, 4)
    assert presentation_fan_member(
        m, [(fr(3), fr(0), fr(0), fr(0)), (fr(0), fr(2), fr(0), fr(0))])
    assert not presentation_fan_member(
        m, [(fr(3), fr(0), fr(0), fr(0)), (fr(5), fr(0), fr(0), fr(0))])
    assert presentation_fan_member(
        m, [(INF, fr(0), fr(0), fr(0)), (fr(0), fr(2), fr(0), fr(0))])
    with pytest.raises(WrongArity):
        presentation_fan_member(m, [(fr(0),) * 4])


FAN_POOL = matroid_pool(random.Random(2024), 180)


def test_fan_test_matches_the_zero_valuation_scan():
    """The independent-flat test of presentation_fan_member needs no
    circuit scan: whenever a point's relative support from the origin is
    an independent flat of m, the point lies in the valuation with every
    basis of m valued 0, for pool matroids and points with infinite and
    fractional coordinates."""
    hits = []

    @settings(max_examples=400)
    @given(st.data())
    def check(data):
        m = data.draw(st.sampled_from(FAN_POOL))
        if m.n == 0:
            return
        value = st.one_of(st.just(INF),
                          st.fractions(-3, 3, max_denominator=4),
                          st.sampled_from([fr(0), fr(1)]))
        p = tuple(data.draw(st.lists(value, min_size=m.n, max_size=m.n)))
        if all(v == INF for v in p):
            return
        g = relsupp((fr(0),) * m.n, p)
        if m.independent(g) and m.is_flat(g):
            vm0 = ValuatedMatroid(m.n, m.d, {b: fr(0) for b in m.bases})
            assert membership_bruteforce(vm0, p)
            hits.append(g)

    check()
    assert len(hits) >= 40 and len(set(hits)) >= 10


def test_fan_answers_on_the_criterion_06_tuples(fiber_harness, monkeypatch):
    """Every tuple that the criterion-06 decisions send to
    presentation_fan_member gets the answer it got with the circuit scan
    in place (frozen as a digest), and every point of an accepted tuple
    lies in the zero valuation of its matroid."""
    import hashlib

    randoms, adversarial = fiber_harness
    calls = []
    fan = reference.presentation_fan_member

    def recorded(m, points):
        ok = fan(m, points)
        calls.append((m, points, ok))
        return ok

    monkeypatch.setattr(reference, "presentation_fan_member", recorded)
    for rows, v in randoms:
        presentation_space_member(v, points_of(rows))
    for v, pts, _ in adversarial:
        presentation_space_member(v, pts)
    h = hashlib.sha256()
    for m, points, ok in calls:
        h.update(repr((m.bases, points, ok)).encode())
    accepted = [(m, points) for m, points, ok in calls if ok]
    assert len(calls) == 848 and len(accepted) == 459
    for m, points in accepted:
        vm0 = ValuatedMatroid(m.n, m.d, {b: fr(0) for b in m.bases})
        assert all(membership_bruteforce(vm0, p) for p in points)
    assert h.hexdigest() == ("4dd612c48cd7d1776e299629659b2f20"
                             "276092473032cec5e611599247ba1706")


def test_apex_route_equals_the_definition(fiber_harness, monkeypatch):
    """The paper's fiber theorem: the apex route
    (reference.presentation_space_member) answers stiefel(points) == v.
    Checked on the criterion-06 valuations and on 100 drawn images with
    infinite entries (d <= 4, n <= 8, loop- and coloop-free ones only):
    on the apices, on every trial that sample_presentation makes with
    seeds 1-5 (1-3 on the drawn ones), accepted and rejected, and on
    each sample with one finite coordinate of one point moved off its
    stratum.  The criterion-06 samples are the ones the apex route
    picked when it was sample_presentation's rejection test (digest)."""
    import hashlib

    randoms, _ = fiber_harness
    rng = random.Random(3131)
    drawn = []
    while len(drawn) < 100:
        d = rng.randint(1, 4)
        v = stiefel(random_rows(rng, d, rng.randint(d + 1, 8),
                                inf_prob=rng.uniform(0.0, 0.3)))
        u = v.underlying()
        if not u.loops() | u.coloops():
            drawn.append(v)
    trials = []
    image = presentations.stiefel

    def recorded(points):
        trials.append(points)
        return image(points)

    monkeypatch.setattr(presentations, "stiefel", recorded)
    cases = Counter()

    def agree(kind, v, points):
        want = stiefel(points) == v
        assert presentation_space_member(v, points) == want
        cases[kind, want] += 1

    h = hashlib.sha256()
    for v, seeds in ([(v, range(1, 6)) for _, v in randoms]
                     + [(v, range(1, 4)) for v in drawn]):
        agree("apices", v, apices(distinguished(v)))
        for seed in seeds:
            del trials[:]
            points = sample_presentation(v, seed)
            if len(seeds) == 5:
                h.update(repr(points).encode())
            for trial in trials:
                agree("trial", v, trial)
            moved = [list(p) for p in points]
            i = rng.randrange(v.d)
            j = rng.choice([j for j, x in enumerate(moved[i]) if x != INF])
            moved[i][j] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                                    rng.randint(1, 4))
            agree("moved", v, points_of(moved))
    assert h.hexdigest() == ("6f774e76b9aedc023d199a48e0b4155b"
                             "b62268154a3a85119db78b8e7cadfd6a")
    assert cases["apices", False] == 0 and cases["apices", True] == 310
    assert cases["trial", True] == 1350 and cases["trial", False] >= 40
    assert cases["moved", True] >= 250 and cases["moved", False] >= 1000


def test_presentation_fan_member_builds_no_valuation(monkeypatch):
    """The apex route on a sample_presentation tuple runs on the circuits
    of each distinguished matroid: no ValuatedMatroid and no membership
    scan."""
    v = stiefel(random_rows(random.Random(804), 4, 8, inf_prob=0.15))
    data = distinguished(v)
    points = sample_presentation(v, seed=3)

    def refuse(*args):
        raise AssertionError("the fan test built a valuation")

    monkeypatch.setattr(reference, "membership", refuse)
    monkeypatch.setattr(ValuatedMatroid, "__init__", refuse)
    assert reference._fits_distinguished(data, points)
    assert not reference._fits_distinguished(data, [points[0]] * v.d)


def k4_lifts():
    """Matroids with tau(empty) = 1 and tau(P) = -1 on a nonempty cyclic
    flat P: the lift of M(K4) (edges 0..5, triangles as in
    k4_graphic_valuation) by a parallel class P of 2 or 3 elements, in
    which a 4-set is a basis iff it meets P at most once and is not P's
    element with a triangle; alone and summed with 1 or 2 coloops.  A
    direct sum of M(K4) with a matroid that is not free has tau(empty)
    = 0, and one with coloops keeps M(K4)'s tau(empty) = -1."""
    triangles = [mask_of(t) for t in ((0, 1, 3), (0, 2, 4), (1, 2, 5),
                                      (3, 4, 5))]
    out = []
    for size in (2, 3):
        n = 6 + size
        p = ((1 << size) - 1) << 6
        m = Matroid(n, [b for b in ksubsets(n, 4)
                        if (b & p).bit_count() <= 1
                        and (b & ~p) not in triangles], check=True)
        out += [m] + [direct_sum(m, uniform_matroid(k, k)) for k in (1, 2)]
    return out


def fan_tuple(rng, m):
    """Points for presentation_fan_member(m, .): tau(empty) of them (a
    random count where the empty set is not cyclic, one more now and
    then), each 0 off a random set g and above 0 or inf on g, shifted by
    a constant.  g is mostly an independent flat, else any flat or any
    set (any flat if no flat is independent), and a point is now and
    then one coordinate too long."""
    t = m.cyclic_flats().get(0)
    if t is None or rng.random() < 0.03:
        t = rng.randint(0, 3) if t is None else t + 1
    indep = [f for f in m.flats() if m.independent(f)] or m.flats()
    points = []
    for _ in range(t):
        r = rng.random()
        if r < 0.8:
            g = rng.choice(indep)
        elif r < 0.9:
            g = rng.choice(m.flats())
        else:
            g = rng.getrandbits(m.n) if m.n else 0
        c = fr(rng.randint(-4, 4), rng.choice((1, 2)))
        p = [INF if (g >> j) & 1 and rng.random() < 0.2
             else c + fr(rng.randint(1, 5), rng.choice((1, 3)))
             if (g >> j) & 1 else c for j in range(m.n)]
        if rng.random() < 0.02:
            p.append(c)
        points.append(tuple(p))
    return points


def fan_outcome(fan, m, points):
    "The answer, or the type, message and witness of the error raised."
    try:
        return fan(m, points)
    except (TroplinError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def fills_a_slot(m, p):
    "Is p's relative support from the origin an independent flat of m?"
    if len(p) != m.n or all(v == INF for v in p):
        return False
    g = relsupp((fr(0),) * m.n, p)
    return m.independent(g) and m.is_flat(g)


def test_fan_test_matches_the_set_presentation_reference():
    """presentation_fan_member reads the covering counts of its point
    flats and the tau-weighted cyclic flats, and gives the answer and
    the error of the set-presentation test on the complements
    (reference.fan_member_by_sets) on 600 pool matroids and the M(K4)
    lifts.  Tuples whose points all fill slots are rejected by the
    covering counts in the pool and by the negative tau on the lifts."""
    rng = random.Random(2929)
    pool = matroid_pool(random.Random(2930), 600)
    lifts = k4_lifts()
    assert all(m.cyclic_flats()[0] == 1 and min(
        m.cyclic_flats().values()) == -1 for m in lifts)
    answers = Counter()
    filled_rejected = Counter()
    for m in pool + lifts * 20:
        for _ in range(6):
            points = fan_tuple(rng, m)
            want = fan_outcome(fan_member_by_sets, m, points)
            assert fan_outcome(presentation_fan_member, m, points) == want
            answers[want if isinstance(want, bool) else want[0]] += 1
            if isinstance(want, bool) \
                    and all(fills_a_slot(m, p) for p in points):
                assert m not in lifts or want is False
                filled_rejected[m in lifts] += not want
    assert answers[True] >= 1000 and answers[False] >= 800
    assert answers[WrongArity] >= 100 and answers[NotCyclicFlat] >= 1000
    assert answers[ValueError] >= 30
    assert filled_rejected[False] >= 100 and filled_rejected[True] >= 500


def test_fan_commands_run_no_pseudopresentation_test(monkeypatch, tmp_path):
    """With transversal.is_pseudopresentation and verify_set_presentation
    raising, in-presentation-space (true and false) and
    sample-presentation --seed 3 print the unpatched bytes, and the apex
    route (reference.presentation_space_member) gives its unpatched
    answers on the two tuples, running the fan test on each."""
    rows = random_rows(random.Random(804), 4, 8, inf_prob=0.15)
    v = stiefel(rows)
    table = fmt_valuated(v)
    tuples = (rows, [rows[1]] + rows[1:])
    requests = [("in-presentation-space", 0,
                 {"valuation": table, "points": fmt_matrix(pts)})
                for pts in tuples]
    requests.append(("sample-presentation", 3, table))
    fan = reference.presentation_fan_member
    calls = []

    def counted(m, points):
        calls.append(len(points))
        return fan(m, points)

    def answers():
        out = []
        for command, seed, payload in requests:
            src = tmp_path / "in.json"
            dst = tmp_path / "out.json"
            src.write_text(json.dumps(payload))
            code = run([command, "--seed", str(seed), "--input", str(src),
                        "--output", str(dst)])
            out.append((code, dst.read_bytes()))
        for pts in tuples:
            del calls[:]
            out.append(presentation_space_member(v, points_of(pts)))
            assert calls
        return out

    monkeypatch.setattr(reference, "presentation_fan_member", counted)
    expected = answers()
    assert [code for code, _ in expected[:3]] == [0, 1, 0]
    assert expected[3:] == [True, False]

    def refuse(*args):
        raise AssertionError("the fan test ran the set-presentation test")

    monkeypatch.setattr(transversal, "is_pseudopresentation", refuse)
    monkeypatch.setattr(transversal, "verify_set_presentation", refuse)
    assert answers() == expected


def test_presentation_space_member_golden():
    v = rank2_four()
    apices = [(fr(0), fr(0), fr(0), fr(0)), (fr(0), fr(0), fr(1), fr(1))]
    assert presentation_space_member(v, apices)
    assert presentation_space_member(v, apices[::-1])
    z = rank3_five()
    assert presentation_space_member(z, points_of(rank3_five_rows()))
    dual = v_dual(three_pair_valuation())
    assert presentation_space_member(dual, points_of(three_pair_dual_rows()))


def test_presentation_space_member_rejects():
    trivial = ValuatedMatroid(4, 2, {b: 0 for b in ksubsets(4, 2)})
    assert not presentation_space_member(
        trivial, [(fr(3), fr(0), fr(0), fr(0)), (fr(5), fr(0), fr(0), fr(0))])
    assert presentation_space_member(
        trivial, [(fr(3), fr(0), fr(0), fr(0)), (fr(0), fr(2), fr(0), fr(0))])
    v = rank2_four()
    assert not presentation_space_member(
        v, [(fr(0), fr(0), fr(1), fr(1)), (fr(0), fr(0), fr(1), fr(1))])
    with pytest.raises(WrongArity):
        presentation_space_member(v, [(fr(0),) * 4])


def test_presentation_space_member_frees_its_entries_on_return(
        monkeypatch):
    """With the cyclic garbage collector off, the distinguished entries
    of a request are freed when presentation_space_member returns: the
    assignment search holds them in no reference cycle."""
    refs = []
    init = DistinguishedEntry.__init__

    def tracked(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(DistinguishedEntry, "__init__", tracked)
    gc.disable()
    try:
        assert presentation_space_member(rank3_five(),
                                         points_of(rank3_five_rows()))
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_sample_presentation_seeds():
    for v in (rank2_four(), rank3_five(), v_dual(three_pair_valuation())):
        pts = sample_presentation(v, seed=0)
        assert sorted(pts) == sorted(apices(distinguished(v)))
        for seed in (1, 2, 3):
            pts = sample_presentation(v, seed=seed)
            assert stiefel(pts) == v
            assert presentation_space_member(v, pts)
            for p in pts:
                assert membership(v, p)


def test_distinguished_builds_no_flat_lattice(monkeypatch, tmp_path):
    """Apices, cell transversality and fiber membership come from cyclic
    flats alone: with Matroid.flats failing, a 4x8 Stiefel image with a
    contracted distinguished entry gets the unpatched answers."""
    rows = random_rows(random.Random(804), 4, 8, inf_prob=0.15)
    others = [rows[1]] + rows[1:]

    def answers():
        v = stiefel(rows)
        data = distinguished(v)
        cells = [is_transversal(c.matroid) for c in maximal_cells(v)]
        replies = []
        for pts in (rows, others):
            src = tmp_path / "in.json"
            dst = tmp_path / "out.json"
            src.write_text(json.dumps({"valuation": json.loads(table),
                                       "points": fmt_matrix(pts)}))
            code = run(["in-presentation-space", "--input", str(src),
                        "--output", str(dst)])
            replies.append((code, dst.read_text()))
        return ([(e.flat, e.matroid.bases, e.multiplicity, e.apex)
                 for e in data], cells, replies)

    src = tmp_path / "rows.json"
    src.write_text(json.dumps(fmt_matrix(rows)))
    assert run(["stiefel", "--input", str(src),
                "--output", str(tmp_path / "table.json")]) == 0
    table = (tmp_path / "table.json").read_text()
    expected = answers()
    entries, cells, replies = expected
    assert len(cells) > 10 and any(flat for flat, _, _, _ in entries)
    assert [code for code, _ in replies] == [0, 1]

    def no_flats(self):
        raise AssertionError("the flat lattice was built")

    monkeypatch.setattr(Matroid, "flats", no_flats)
    assert answers() == expected


def test_sample_presentation_walks_the_apices_once(monkeypatch):
    "One distinguished() per request, whatever the number of trials."
    v = rank3_five()
    expected = [sample_presentation(v, seed) for seed in (1, 2, 3)]
    calls = []

    def counted(vm):
        calls.append(vm)
        return distinguished(vm)

    monkeypatch.setattr(presentations, "distinguished", counted)
    for seed, want in zip((1, 2, 3), expected):
        calls.clear()
        assert sample_presentation(rank3_five(), seed) == want
        assert len(calls) == 1


def test_contract_presentation_golden():
    v = rank3_five()
    rows = points_of(rank3_five_rows())
    proj = contract_presentation(v, rows, mask_of([0, 3, 4]))
    assert proj == [(fr(0), fr(0))]
    assert stiefel(proj) == v_contract(v, mask_of([0, 3, 4]))
    # the empty flat keeps every point
    assert contract_presentation(v, rows, 0) == rows


def test_contract_presentation_guards():
    v = rank3_five()
    rows = points_of(rank3_five_rows())
    with pytest.raises(WrongArity) as err:
        contract_presentation(v, [rows[0]] * 3, mask_of([0, 3, 4]))
    assert err.value.witness == {"expected": 1, "got": 0}
    with pytest.raises(NotCyclicFlat):
        contract_presentation(v, rows, mask_of([1, 2]))
    with pytest.raises(WrongArity):
        contract_presentation(v, rows[:2], mask_of([0, 3, 4]))
    # a short point once raised IndexError, a long one was cut down
    rows = [[fr(0), fr(0), INF, fr(0)], [INF, INF, fr(0), fr(1)]]
    v, flat = stiefel(rows), mask_of([0, 1])
    assert flat in v.underlying().cyclic_flats()
    assert contract_presentation(v, rows, flat) == [(fr(0), fr(1))]
    for p in (rows[1][:3], rows[1] + [fr(5)]):
        with pytest.raises(ValueError, match="point length mismatch"):
            contract_presentation(v, [rows[0], p], flat)


def test_contraction_round_trip_random():
    rng = random.Random(5321)
    done = 0
    nontrivial = 0
    while done < 20:
        d = rng.randint(2, 3)
        n = rng.randint(d + 2, 6)
        rows = random_rows(rng, d, n, inf_prob=0.3)
        v = stiefel(rows)
        u = v.underlying()
        for f in u.cyclic_flats():
            if f == u.full:
                continue
            proj = contract_presentation(v, points_of(rows), f)
            assert stiefel(proj) == v_contract(v, f)
            done += 1
            nontrivial += bool(f)
    assert nontrivial >= 4


def test_is_transversal_valuated():
    rng = random.Random(2718)
    for _ in range(12):
        d = rng.randint(1, 3)
        v = random_valuation(rng, d, rng.randint(d + 1, 6), inf_prob=0.2)
        assert is_transversal_valuated(v)
    assert not is_transversal_valuated(k4_graphic_valuation())
    assert not is_transversal_valuated(three_pair_valuation())


def test_is_transversal_valuated_matches_exhaustive_presentations():
    rng = random.Random(1618)
    pool = [rank2_four(), rank3_five()]
    for _ in range(10):
        d = rng.randint(1, 3)
        pool.append(random_valuation(rng, d, rng.randint(d + 1, 5),
                                     inf_prob=0.2))
    for n, d in ((4, 2), (5, 2), (5, 3)):
        # trivial valuations of random matroids, Stiefel or not
        for _ in range(3):
            bases = rng.sample(ksubsets(n, d), rng.randint(1, 5))
            try:
                m = Matroid(n, bases, check=True)
            except NotAMatroid:
                continue
            pool.append(ValuatedMatroid(n, d, {b: 0 for b in m.bases}))
    for v in pool:
        want = all(presentations_exhaustive(c.matroid)
                   for c in maximal_cells(v))
        assert is_transversal_valuated(v) == want


def escape_region_cases():
    "Loop- and coloop-free Stiefel images, each with its rows and span points."
    rng = random.Random(2026)
    cases = []
    while len(cases) < 24:
        d = rng.randint(2, 3)
        n = rng.randint(d + 2, 6)
        rows = random_rows(rng, d, n, inf_prob=0.15)
        uv = stiefel(rows).underlying()
        if uv.loops() | uv.coloops():
            continue
        span = [row_span_point(rng, rows) for _ in range(2 * d)]
        cases.append((rows, rows))
        cases.append((rows, [rng.choice(span) for _ in range(d)]))
    return cases


def escape_region_answers(cases, tmp_path):
    "A digest of verify_presentation and the command's code and bytes."
    import hashlib

    h = hashlib.sha256()
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    for rows, points in cases:
        h.update(repr(verify_presentation(stiefel(rows), points)).encode())
        src.write_text(json.dumps(fmt_matrix(rows)))
        assert run(["stiefel", "--input", str(src), "--output", str(dst)]) == 0
        src.write_text(json.dumps({"valuation": json.loads(dst.read_text()),
                                   "points": fmt_matrix(points)}))
        code = run(["verify-presentation", "--input", str(src),
                    "--output", str(dst)])
        h.update(repr((code, dst.read_text())).encode())
    return h.hexdigest()


ESCAPE_REGION_DIGEST = ("d18462609d9b62e4984459ad1fc9906a"
                        "1e33dd28d65f4c2ba5be4685f6c35211")


def test_escape_regions_come_from_the_cell_in_hand(monkeypatch, tmp_path):
    """verify_presentation builds one escape region per connected maximal
    cell and non-empty cyclic flat, from the cell it walks: with
    polytope_face failing, it and the
    verify-presentation command give the answers and bytes they gave
    when every point looked its cell up again and built the face
    matroid (frozen as a digest)."""
    def refuse(name):
        def fail(*args):
            raise AssertionError("verify_presentation ran " + name)
        return fail

    built = []
    region = presentations._escape_region

    def counted(vm, cell, flat):
        built.append((cell.matroid.bases, flat))
        return region(vm, cell, flat)

    cases = escape_region_cases()
    want = []
    for rows, _ in cases:
        for cell in maximal_cells(stiefel(rows)):
            m = cell.matroid
            if len(m.connected_components()) == 1:
                want += [(m.bases, f) for f in m.cyclic_flats() if f]
    monkeypatch.setattr(Matroid, "polytope_face", refuse("polytope_face"))
    monkeypatch.setattr(presentations, "_escape_region", counted)
    got = escape_region_answers(cases, tmp_path)
    # each case runs once in the library and once through the command
    assert sorted(built) == sorted(want + want)
    assert len(want) > 100
    assert got == ESCAPE_REGION_DIGEST


def test_a_least_gap_on_the_flat_is_decided_with_no_lp(monkeypatch):
    """A point whose least gap z - xw, over all its finite coordinates,
    lies on the flat (strictly or tied) is outside the escape region:
    with solve_lp failing, _in_region decides so, and the full-row LP
    of the oracle agrees, on walls with 1, 2 and 3 components."""
    def refuse(*args):
        raise AssertionError("an escape-region LP ran")

    monkeypatch.setattr(presentations, "solve_lp", refuse)
    rng = random.Random(3535)
    by_components = Counter()
    for rows, _ in escape_region_cases():
        v = stiefel(rows)
        for cell in maximal_cells(v):
            m = cell.matroid
            if len(m.connected_components()) != 1:
                continue
            for f in m.cyclic_flats():
                if f == 0:
                    continue
                region = presentations._escape_region(v, cell, f)
                scale, xs = region[:2]
                z = [INF if rng.random() < 0.15
                     else Fraction(x, scale) + rng.randint(0, 6) for x in xs]
                j = rng.choice(list1(f)) - 1
                z[j] = Fraction(xs[j], scale) - rng.choice((0, Fraction(1, 2)))
                z = tuple(z)
                assert not presentations._in_region(region, f, z)
                assert not rinf_member_lp(v, cell, f, z)
                by_components[
                    len(m.polytope_face(f).connected_components())] += 1
    assert {1, 2, 3} <= set(by_components)
    assert sum(by_components.values()) > 100


def test_escape_regions_send_one_lp_per_face_component_on_the_flat(
        monkeypatch):
    """Each face component lies wholly on or off the flat, and each
    (region, point) pair of verify_presentation on escape_region_cases
    sends at most one LP per face component on the flat, with the
    verdict of the full-row LP of the oracle."""
    sent = []
    real = presentations.solve_lp

    def counted(*args):
        sent.append(args)
        return real(*args)

    monkeypatch.setattr(presentations, "solve_lp", counted)
    pairs = lps = inside = 0
    for rows, points in escape_region_cases():
        v = stiefel(rows)
        for cell in maximal_cells(v):
            m = cell.matroid
            if len(m.connected_components()) != 1:
                continue
            for f in m.cyclic_flats():
                if f == 0:
                    continue
                comps = m.polytope_face(f).connected_components()
                assert all(k & f in (0, k) for k in comps)
                on_flat = sum(1 for k in comps if k & f)
                region = presentations._escape_region(v, cell, f)
                for z in points:
                    del sent[:]
                    got = presentations._in_region(region, f, z)
                    assert len(sent) <= on_flat
                    assert got == rinf_member_lp(v, cell, f, z)
                    pairs += 1
                    lps += len(sent)
                    inside += got
    assert pairs > 300
    assert 0 < lps < pairs // 2
    assert 0 < inside < pairs


# sha256 of the (code, bytes) of the verify-presentation requests below,
# as they were when every finite coordinate on the flat ran its own LP
SUBDIVISION_VERIFY_DIGEST = ("3be326c0c6fb442001ab1362d8567cc2"
                             "4894c9c4ff04b9c5e00f6144c0fc0291")


def test_subdivision_verify_requests_send_few_lps(monkeypatch, tmp_path):
    """The 24 verify-presentation requests of the benchmark's seed-1
    subdivision stream (6 copies, as its 30-second run sends them) give
    the bytes they gave with one LP per finite coordinate on the flat
    (605 LPs), now with at most 220, both verdicts seen."""
    import hashlib
    from pathlib import Path

    monkeypatch.syspath_prepend(Path(__file__).resolve().parent.parent
                                / "bench")
    import workloads

    calls = []
    real = presentations.solve_lp

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(presentations, "solve_lp", counted)
    h = hashlib.sha256()
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    codes = Counter()
    for req in workloads.build_stream("subdivision", 1, 6):
        if req.command != "verify-presentation":
            continue
        src.write_text(req.text)
        code = run([req.command, *req.argv, "--input", str(src),
                    "--output", str(dst)])
        codes[code] += 1
        h.update(repr((code, dst.read_text())).encode())
    assert codes == {0: 14, 1: 10}
    assert 0 < len(calls) <= 220
    assert h.hexdigest() == SUBDIVISION_VERIFY_DIGEST


def vertex_answer_cases():
    """Loop- and coloop-free Stiefel images with d <= 4 and n <= 8, each
    with its rows and d points of their row span."""
    rng = random.Random(1917)
    cases = []
    while len(cases) < 32:
        d = rng.randint(2, 4)
        n = rng.randint(d + 2, 8)
        rows = random_rows(rng, d, n, inf_prob=0.15)
        uv = stiefel(rows).underlying()
        if uv.loops() | uv.coloops():
            continue
        span = [row_span_point(rng, rows) for _ in range(2 * d)]
        cases.append((rows, [rng.choice(span) for _ in range(d)]))
    return cases


def vertex_command_answers(tmp_path):
    """(digest, shapes, vertices, verdicts): a digest of the codes and
    bytes of cells, vertices, distinguished, verify-presentation and
    in-presentation-space (on the rows and on row-span points) and
    sample-presentation at seeds 0 and 3 on vertex_answer_cases, the
    shapes seen, the vertex count and the verify-presentation codes."""
    import hashlib

    h = hashlib.sha256()
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    verdicts = {0: 0, 1: 0}
    shapes = set()
    vertices = 0
    for rows, span in vertex_answer_cases():
        shapes.add((len(rows), len(rows[0])))
        src.write_text(json.dumps(fmt_matrix(rows)))
        assert run(["stiefel", "--input", str(src), "--output", str(dst)]) == 0
        vm = json.loads(dst.read_text())
        calls = [(c, [], vm) for c in ("cells", "vertices", "distinguished")]
        calls += [("sample-presentation", ["--seed", s], vm) for s in "03"]
        calls += [(c, [], {"valuation": vm, "points": fmt_matrix(p)})
                  for c in ("verify-presentation", "in-presentation-space")
                  for p in (rows, span)]
        for command, extra, payload in calls:
            src.write_text(json.dumps(payload))
            code = run([command, "--input", str(src), "--output", str(dst),
                        *extra])
            out = dst.read_text()
            h.update(repr((command, extra, code, out)).encode())
            if command == "verify-presentation":
                verdicts[code] += 1
            if command == "vertices":
                vertices += len(json.loads(out)["vertices"])
    return h.hexdigest(), shapes, vertices, verdicts


VERTEX_COMMAND_DIGEST = ("9b0f1995f58763c77160c3d3242b52df"
                         "c847ca1ea87898f494ca28bc432e464c")


def test_vertex_commands_keep_their_bytes(tmp_path):
    """The commands of vertex_command_answers give, on 32 Stiefel images
    up to (d, n) = (4, 8), the codes and bytes they gave when each
    connected cell's vertex was solved along fundamental circuits
    (frozen as a digest)."""
    got, shapes, vertices, verdicts = vertex_command_answers(tmp_path)
    assert (4, 8) in shapes and vertices > 100
    assert min(verdicts.values()) > 5, verdicts
    assert got == VERTEX_COMMAND_DIGEST


def test_cell_commands_evaluate_no_table(monkeypatch, tmp_path):
    """With valuated._values raising wherever it is bound, cells,
    vertices, distinguished, verify-presentation and
    in-presentation-space give the bytes frozen above: cells and face
    points carry their tables, and only initial_matroid evaluates one
    afresh."""
    def refuse(*args):
        raise AssertionError("a table was evaluated afresh")

    values = valuated._values
    for name, mod in list(sys.modules.items()):
        if name.startswith("troplin") and getattr(
                mod, "_values", None) is values:
            monkeypatch.setattr(mod, "_values", refuse)
    assert escape_region_answers(escape_region_cases(),
                                 tmp_path) == ESCAPE_REGION_DIGEST
    assert vertex_command_answers(tmp_path)[0] == VERTEX_COMMAND_DIGEST


def fraction_guard_images(rng, count):
    """Loop- and coloop-free 4 x 8 Stiefel images with inf entries and
    denominators up to 12, each with its rows."""
    out = []
    while len(out) < count:
        rows = [[INF if rng.random() < 0.2
                 else Fraction(rng.randint(-12, 24), rng.randint(1, 12))
                 for _ in range(8)] for _ in range(4)]
        try:
            v = stiefel(rows)
        except TroplinError:
            continue
        uv = v.underlying()
        if not uv.loops() | uv.coloops():
            out.append((rows, v))
    return out


def fiber_answers(v, tuples):
    "maximal_cells, distinguished and presentation_space_member on v."
    cells = [(c.matroid.bases, c.witness) for c in maximal_cells(v)]
    entries = [(e.flat, e.matroid.bases, e.multiplicity, e.vertex, e.apex)
               for e in distinguished(v)]
    return cells, entries, [presentation_space_member(v, t) for t in tuples]


def test_fiber_path_runs_no_fraction_arithmetic(monkeypatch):
    """With Fraction addition and subtraction raising, and Fraction ==
    raising on a float, the walk, the distinguished apices and the
    presentation-space decision give the answers they give unpatched,
    which are those of the Fraction-arithmetic implementation (frozen as
    a digest), on true and false tuples."""
    import hashlib

    rng = random.Random(1213)
    cases = []
    for rows, v in fraction_guard_images(rng, 6):
        true = [points_of(rows), sample_presentation(v, seed=5)]
        moved = [list(p) for p in points_of(rows)]
        j = next(j for j, c in enumerate(moved[0]) if c != INF)
        moved[0][j] += Fraction(1, 7)
        false = [[points_of(rows)[0]] * 4, [tuple(p) for p in moved]]
        cases.append((v, true + false))
    want = [fiber_answers(v, tuples) for v, tuples in cases]
    h = hashlib.sha256(repr(want).encode())
    verdicts = [ok for _, _, oks in want for ok in oks]
    assert verdicts.count(True) >= 12 and verdicts.count(False) >= 6

    def refuse(self, other):
        raise AssertionError("Fraction arithmetic on the fiber path")

    eq = Fraction.__eq__

    def eq_no_float(self, other):
        if isinstance(other, float):
            raise AssertionError("Fraction compared with a float")
        return eq(self, other)

    for name in ("__add__", "__sub__", "__radd__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, refuse)
    monkeypatch.setattr(Fraction, "__eq__", eq_no_float)
    got = [fiber_answers(ValuatedMatroid(v.n, v.d, v.ints, v.den), tuples)
           for v, tuples in cases]
    monkeypatch.undo()
    assert got == want
    assert h.hexdigest() == ("989f156a26749ddfbfced7d7642703c5"
                             "1da9e9cbf19d9094a67cc1942a87e13c")
