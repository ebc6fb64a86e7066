import contextlib
import io
import json
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import troplin.cli
from common import (block_diagonal_rows, k4_graphic_valuation, random_rows,
                    random_valuation, rank2_four, three_pair_valuation)
from reference import (check_pluecker_bruteforce, initial_matroid_bruteforce,
                       membership_bruteforce, violated_relation)
from troplin import (INF, AllInfinite, Matroid, OutOfDomain, TooLarge,
                     TroplinError, ValuatedMatroid, WeightedDigraph, matroid,
                     presentations, stiefel, util, valuated)
from troplin.cli import COMMANDS, run
from troplin.jsonio import (dumps, fmt_matrix, fmt_matroid, fmt_point,
                            fmt_valuated, parse_matrix, parse_point,
                            parse_scalar, parse_valuated)
from troplin.oracle import stiefel_bruteforce
from troplin.util import BoundedMemo, bits, ksubsets, list1
from troplin.valuated import check_pluecker


def lines(path):
    return path.read_text()


def call(tmp_path, command, payload, *extra):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps(payload))
    code = run([command, "--input", str(src), "--output", str(dst), *extra])
    return code, json.loads(dst.read_text()), dst.read_text()


RANK2_FOUR = [["0", "0", "0", "0"], ["0", "0", "1", "1"]]
RANK3_FIVE = [["0", "0", "0", "0", "0"],
              ["1", "1", "1", "0", "0"],
              ["inf", "0", "0", "inf", "inf"]]
DUAL_ROWS = [["0", "inf", "0", "inf", "0", "inf"],
             ["inf", "inf", "inf", "1", "0", "0"],
             ["inf", "inf", "0", "0", "1", "inf"],
             ["0", "0", "1", "inf", "inf", "inf"]]
# U(1, 2) + U(1, 2) on {1, 2} and {3, 4}
DIRECT_SUM = {"n": 4, "rank": 2,
              "entries": {"1,3": "0", "1,4": "1", "2,3": "0", "2,4": "1"}}
SNOW = {"n": 6, "rank": 2,
        "entries": {"1,2": "1", "3,4": "1", "5,6": "1"}}


def snow_full():
    entries = {}
    for i in range(1, 7):
        for j in range(i + 1, 7):
            key = "%d,%d" % (i, j)
            entries[key] = "1" if key in ("1,2", "3,4", "5,6") else "0"
    return {"n": 6, "rank": 2, "entries": entries}


def test_stiefel_golden(tmp_path):
    code, out, _ = call(tmp_path, "stiefel", RANK2_FOUR)
    assert code == 0
    assert out["n"] == 4 and out["rank"] == 2 and out["sparse"] is False
    assert out["entries"]["3,4"] == "1"
    assert out["entries"]["1,2"] == "0"
    assert len(out["entries"]) == 6


def test_stiefel_accepts_matrix_key_and_numbers(tmp_path):
    code, out, _ = call(tmp_path, "stiefel", {"matrix": [[0, 0.5], [1, 0]]})
    assert code == 0
    assert out["entries"]["1,2"] == "0"


def test_output_is_canonical_and_deterministic(tmp_path):
    _, _, text1 = call(tmp_path, "stiefel", RANK2_FOUR)
    _, _, text2 = call(tmp_path, "stiefel", RANK2_FOUR)
    assert text1 == text2
    assert text1.endswith("\n")
    assert json.dumps(json.loads(text1), sort_keys=True,
                      separators=(",", ":")) + "\n" == text1


def test_pretty_flag(tmp_path):
    _, out, text = call(tmp_path, "stiefel", RANK2_FOUR, "--pretty")
    assert "\n  " in text
    assert out["entries"]["3,4"] == "1"


def test_round_trip_through_check_and_underlying(tmp_path):
    _, table, _ = call(tmp_path, "stiefel", RANK3_FIVE)
    code, out, _ = call(tmp_path, "check-pluecker", table)
    assert code == 0 and out == {"ok": True}
    code, out, _ = call(tmp_path, "underlying", table)
    assert code == 0
    assert out["n"] == 5 and out["rank"] == 3
    assert [1, 2, 3] in out["bases"] and [1, 4, 5] not in out["bases"]


def test_check_pluecker_failure_exit_code(tmp_path):
    bad = {"n": 4, "rank": 2,
           "entries": {"1,2": "0", "1,3": "1", "1,4": "1",
                       "2,3": "1", "2,4": "1", "3,4": "1"}}
    code, out, _ = call(tmp_path, "check-pluecker", bad)
    assert code == 1
    assert out == {"ok": False, "witness": {"a": [1], "c": [2, 3, 4]}}


def test_oversized_tables_are_refused_before_enumeration(tmp_path,
                                                          monkeypatch):
    """A table of more than MAX_SLOTS d-subsets is refused with TooLarge
    before any subset is enumerated: by the constructor and stiefel at
    n = 64, d = 32, and at the CLI, exit 2 with a JSON body, for a
    90-byte check-pluecker payload at n = 30, d = 15, before the parser
    builds its key table."""
    def no_enumeration(n, k):
        raise AssertionError("enumerated the %d-subsets of %d" % (k, n))

    def no_combinations(items, k):
        raise AssertionError("enumerated the %d-subsets of %r" % (k, items))

    monkeypatch.setattr(valuated, "ksubsets", no_enumeration)
    monkeypatch.setattr(util, "combinations", no_combinations)
    want = {"n": 64, "rank": 32, "limit": util.MAX_SLOTS}
    with pytest.raises(TooLarge) as err:
        ValuatedMatroid(64, 32, {})
    assert err.value.witness == want
    with pytest.raises(TooLarge) as err:
        stiefel([[Fraction(0)] * 64] * 32)
    assert err.value.witness == want
    payload = {"n": 30, "rank": 15,
               "entries": {",".join(map(str, range(1, 16))): "0"}}
    assert len(json.dumps(payload, separators=(",", ":"))) <= 90
    code, out, _ = call(tmp_path, "check-pluecker", payload)
    assert code == 2
    assert out["error"] == "TooLarge"
    assert out["witness"] == {"n": 30, "rank": 15, "limit": util.MAX_SLOTS}
    code, out, _ = call(tmp_path, "stiefel", [["0"] * 64] * 32)
    assert code == 2 and out["witness"] == want


def test_heavy_slot_tables_are_refused_before_enumeration(tmp_path,
                                                          monkeypatch):
    """C(65536, 65535) and C(65536, 1) are within the slot count, but a
    table of their 65,536 slots would hold 65,536-bit masks, and the
    corank-1 keys run to 382,108 characters: each table weighs past
    MAX_SLOTS << 4, so check-pluecker exits 2 with TooLarge before any
    subset is listed."""
    def no_combinations(items, k):
        raise AssertionError("enumerated %d-subsets" % k)

    monkeypatch.setattr(util, "combinations", no_combinations)
    limit = util.MAX_SLOTS << 4
    for d, entries, weight in ((65535, {}, 977862656),
                               (1, {"1": "0", "65536": "2"}, 143196160)):
        code, out, _ = call(tmp_path, "check-pluecker",
                            {"n": 65536, "rank": d, "entries": entries})
        assert code == 2
        assert out == {"error": "TooLarge",
                       "message": "C(65536, %d) slots weigh %d, beyond %d"
                                  % (d, weight, limit),
                       "witness": {"n": 65536, "rank": d, "weight": weight,
                                   "limit": limit}}


def test_slot_tables_are_weighed_before_enumeration(monkeypatch):
    """check_slots weighs a shape's table as slot_table would keep it,
    from counts alone.  Every rank-2 shape within the slot count is
    admitted, (362, 2) weighing 849,433, as are the widest shapes the
    tests build; a shape is first refused by weight at n = 240 for
    corank 2, n = 2,384 for corank 1 and n = 5,608 for rank 1."""
    for n, k, weight in ((362, 2, 849433), (200, 2, 139300),
                         (120, 119, 2040), (239, 237, 1023876),
                         (2383, 2382, 1048520), (5607, 1, 1048509)):
        assert util.check_slots(n, k) == weight
    for n, k in ((240, 238), (2384, 2383), (5608, 1), (65536, 65535)):
        with pytest.raises(TooLarge) as err:
            util.check_slots(n, k)
        assert set(err.value.witness) == {"n", "rank", "weight", "limit"}
    for n in range(2, 363):
        assert util.check_slots(n, 2) <= util.MAX_SLOTS << 4
    monkeypatch.setattr(util, "_SLOT_TABLES", BoundedMemo())
    for n in range(3, 130):
        for k in {0, 1, 2, n - 2, n - 1, n}:
            table = util.slot_table(n, k)
            weight = len(table.masks) * (1 + n // 30
                                         + len(table.keys[-1]) // 30)
            assert util.check_slots(n, k) == weight


def test_dual_restrict_contract_initial(tmp_path):
    _, table, _ = call(tmp_path, "stiefel", RANK2_FOUR)
    code, dual, _ = call(tmp_path, "dual", table)
    assert code == 0 and dual["rank"] == 2
    code, res, _ = call(tmp_path, "restrict",
                        {"valuation": table, "set": [1, 2, 3]})
    assert code == 0 and res["n"] == 3 and res["rank"] == 2
    code, con, _ = call(tmp_path, "contract",
                        {"valuation": table, "set": [4]})
    assert code == 0 and con["n"] == 3 and con["rank"] == 1
    code, ini, _ = call(tmp_path, "initial",
                        {"valuation": table, "point": ["0", "0", "1", "1"]})
    assert code == 0
    assert ini["rank"] == 2
    assert [1, 2] not in ini["bases"] and len(ini["bases"]) == 5


def test_cells_and_vertices(tmp_path):
    _, table, _ = call(tmp_path, "stiefel", RANK2_FOUR)
    code, cells, _ = call(tmp_path, "cells", table)
    assert code == 0
    assert len(cells["cells"]) == 7
    assert sum(c["maximal"] for c in cells["cells"]) == 2
    code, verts, _ = call(tmp_path, "vertices", table)
    assert code == 0
    assert [v["point"] for v in verts["vertices"]] == [
        ["0", "0", "0", "0"], ["0", "0", "1", "1"]]


def test_vertices_read_the_maximal_cells(tmp_path, monkeypatch):
    """vertices builds no face closure, and refuses a support with loops
    with the bytes and exit code of cells."""
    loops = {"n": 3, "rank": 1, "entries": {"1": "0", "2": "1"}}
    refusals = [call(tmp_path, command, loops)[::2]
                for command in ("cells", "vertices")]
    assert refusals[0] == refusals[1]
    assert refusals[0][0] == 2 and json.loads(refusals[0][1]) == {
        "error": "TroplinError",
        "message": "cell complex needs a loop-free support", "witness": [3]}

    def no_closure(vm):
        raise AssertionError("face closure built")

    monkeypatch.setattr(troplin.cli, "cell_complex", no_closure)
    _, table, _ = call(tmp_path, "stiefel", RANK3_FIVE)
    code, verts, _ = call(tmp_path, "vertices", table)
    assert code == 0 and verts["vertices"]


def test_vertices_of_a_disconnected_support_run_no_walk(tmp_path,
                                                        monkeypatch):
    """No cell of a disconnected support is connected, so vertices
    prints none and walks no cell; a loop is still refused first."""
    def no_walk(vm):
        raise AssertionError("maximal cells walked")

    monkeypatch.setattr(troplin.cli, "maximal_cells", no_walk)
    code, _, text = call(tmp_path, "vertices", DIRECT_SUM)
    assert code == 0 and text == '{"n":4,"vertices":[]}\n'
    code, out, _ = call(tmp_path, "vertices",
                        {"n": 3, "rank": 1, "entries": {"1": "0", "2": "1"}})
    assert code == 2 and out["witness"] == [3]


def test_is_transversal_matroid_certificate(tmp_path):
    bases = [[i, j] for i in range(1, 7) for j in range(i + 1, 7)
             if [i, j] not in ([1, 2], [3, 4], [5, 6])]
    code, out, _ = call(tmp_path, "is-transversal-matroid",
                        {"n": 6, "rank": 2, "bases": bases})
    assert code == 1
    assert out["transversal"] is False
    assert out["certificate"]["family"] == [[1, 2], [3, 4], [5, 6]]
    code, out, _ = call(tmp_path, "is-transversal-matroid",
                        {"n": 4, "rank": 2,
                         "bases": [[i, j] for i in range(1, 5)
                                   for j in range(i + 1, 5)]})
    assert code == 0
    assert out["transversal"] is True
    assert out["presentation"]["sets"] == [[1, 2, 3, 4], [1, 2, 3, 4]]


def test_max_presentation_and_verify_sets(tmp_path):
    u23 = {"n": 3, "rank": 2, "bases": [[1, 2], [1, 3], [2, 3]]}
    code, out, _ = call(tmp_path, "max-presentation", u23)
    assert code == 0
    assert out["sets"] == [[1, 2, 3], [1, 2, 3]]
    code, out, _ = call(tmp_path, "verify-set-presentation",
                        {"matroid": u23, "sets": [[1, 2], [1, 2]]})
    assert code == 1 and out == {"ok": False}
    code, out, _ = call(tmp_path, "verify-set-presentation",
                        {"matroid": u23, "sets": [[1, 2], [2, 3]]})
    assert code == 0 and out == {"ok": True}


def test_distinguished_golden(tmp_path):
    _, table, _ = call(tmp_path, "stiefel", RANK3_FIVE)
    code, out, _ = call(tmp_path, "distinguished", table)
    assert code == 0
    assert sorted(out["apices"]) == sorted([
        ["0", "0", "0", "0", "0"],
        ["1", "1", "1", "0", "0"],
        ["inf", "0", "0", "inf", "inf"]])
    assert sum(e["multiplicity"] for e in out["entries"]) == 3


def test_distinguished_skips_disconnected_contractions(tmp_path,
                                                       monkeypatch):
    """On the direct sum of two U(1, 2) only the transversality scan
    walks the disconnected support; the contractions at {1, 2} and
    {3, 4} are walked, and the bytes are those of the per-cell filter."""
    walked, walk = [], presentations.maximal_cells

    def counted(vm):
        walked.append(vm)
        return walk(vm)

    monkeypatch.setattr(presentations, "maximal_cells", counted)
    code, _, text = call(tmp_path, "distinguished", DIRECT_SUM)
    assert code == 0 and text == (
        '{"apices":[["inf","inf","0","1"],["0","0","inf","inf"]],'
        '"entries":[{"apex":["inf","inf","0","1"],"coords":[3,4],'
        '"flat":[1,2],"matroid":{"bases":[[1],[2]],"n":2,"rank":1},'
        '"multiplicity":1,"vertex":["0","1"]},'
        '{"apex":["0","0","inf","inf"],"coords":[1,2],"flat":[3,4],'
        '"matroid":{"bases":[[1],[2]],"n":2,"rank":1},"multiplicity":1,'
        '"vertex":["0","0"]}],"n":4,"rank":2}\n')
    assert [len(v.underlying().connected_components())
            for v in walked] == [2, 1, 1]


def test_verify_presentation_answers_a_direct_sum_by_its_definition(
        tmp_path):
    """A support of two components or more has no connected maximal
    cell, so the counting conditions are empty there and
    verify-presentation answers by the definition: the verdict of
    in-presentation-space, on block-diagonal images, for the rows, one
    perturbed row and one duplicated row.  Two tuples in the space of
    the direct sum of two U(1, 2) present nothing and exit 1 with no
    violation; its apices exit 0."""
    for points, code in (([["0", "0", "inf", "inf"]] * 2, 1),
                         ([["0", "0", "0", "1"], ["0", "0", "1", "2"]], 1),
                         ([["inf", "inf", "0", "1"],
                           ["0", "0", "inf", "inf"]], 0)):
        payload = {"valuation": DIRECT_SUM, "points": points}
        assert call(tmp_path, "verify-presentation", payload)[:2] == (
            code, {"ok": not code, "violations": []})
        assert call(tmp_path, "in-presentation-space", payload)[:2] == (
            code, {"ok": not code})
    rng = random.Random(40)
    verdicts = Counter()
    for _ in range(30):
        shapes = [(d, rng.randint(d + 1, d + 3))
                  for d in rng.choices((1, 2), k=rng.randint(2, 3))]
        rows = block_diagonal_rows(rng, shapes)
        table = fmt_valuated(stiefel(rows))
        moved = [list(row) for row in rows]
        r = rng.randrange(len(rows))
        j = rng.choice([j for j, x in enumerate(rows[r]) if x != INF])
        moved[r][j] += 1
        twice = [rows[0], *rows[:-1]]
        for kind, points in (("rows", rows), ("moved", moved),
                             ("twice", twice)):
            payload = {"valuation": table, "points": fmt_matrix(points)}
            code, out, _ = call(tmp_path, "verify-presentation", payload)
            want = call(tmp_path, "in-presentation-space", payload)[:2]
            assert (code, out["ok"]) == (want[0], want[1]["ok"]), kind
            verdicts[kind, out["ok"], "outside" in out] += 1
    assert verdicts["rows", True, False] == 30
    assert verdicts["twice", False, False] == 30
    assert verdicts["moved", False, True] > 5


def test_verify_presentation_and_membership(tmp_path):
    _, table, _ = call(tmp_path, "stiefel", RANK2_FOUR)
    good = {"valuation": table, "points": RANK2_FOUR}
    code, out, _ = call(tmp_path, "verify-presentation", good)
    assert code == 0 and out["ok"] is True
    bad = {"valuation": table,
           "points": [["0", "0", "0", "0"], ["0", "0", "0", "0"]]}
    code, out, _ = call(tmp_path, "verify-presentation", bad)
    assert code == 1 and out["ok"] is False and out["violations"]
    outside = {"valuation": table,
               "points": [["0", "0", "0", "0"], ["0", "1", "1", "1"]]}
    code, out, _ = call(tmp_path, "verify-presentation", outside)
    assert code == 1 and out["ok"] is False
    assert out["outside"] == {"index": 2}
    code, out, _ = call(tmp_path, "membership",
                        {"valuation": table, "point": ["9", "0", "0", "0"]})
    assert code == 0 and out == {"ok": True}
    code, out, _ = call(tmp_path, "membership",
                        {"valuation": table, "point": ["0", "1", "1", "1"]})
    assert code == 1 and out == {"ok": False}


def test_in_presentation_space(tmp_path):
    _, table, _ = call(tmp_path, "stiefel", RANK2_FOUR)
    code, out, _ = call(tmp_path, "in-presentation-space",
                        {"valuation": table, "points": RANK2_FOUR})
    assert code == 0 and out == {"ok": True}
    code, out, _ = call(
        tmp_path, "in-presentation-space",
        {"valuation": table,
         "points": [["0", "0", "1", "1"], ["0", "0", "1", "1"]]})
    assert code == 1 and out == {"ok": False}


def test_sample_presentation_round_trip(tmp_path):
    _, table, _ = call(tmp_path, "stiefel", RANK3_FIVE)
    code, out, _ = call(tmp_path, "sample-presentation", table,
                        "--seed", "3")
    assert code == 0 and len(out["points"]) == 3
    code, again, _ = call(tmp_path, "sample-presentation", table,
                          "--seed", "3")
    assert again == out
    code, back, _ = call(tmp_path, "stiefel", out)
    assert code == 0 and back == table


def test_sample_presentation_refuses_a_flat_lattice_past_the_limit(
        tmp_path, monkeypatch):
    """A nonzero seed lists the independent flats of each distinguished
    matroid.  On the corank-1 all-zero valuation at n = 11 that is
    U(10, 11), with 2^11 - 12 = 2,036 independent flats: under a limit
    patched to 1,000 it exits 2 with TooLarge as soon as the 1,001st flat
    is found.  Seed 0 lists no flats, and a small valuation still
    answers."""
    monkeypatch.setattr(matroid, "MAX_SLOTS", 1000)
    table = {"n": 11, "rank": 10,
             "entries": {",".join(str(e) for e in range(1, 12) if e != k): "0"
                         for k in range(1, 12)}}
    code, out, _ = call(tmp_path, "sample-presentation", table,
                        "--seed", "1")
    assert code == 2 and out["error"] == "TooLarge"
    assert out["witness"] == {"flats": 1001, "limit": 1000}
    code, out, _ = call(tmp_path, "sample-presentation", table,
                        "--seed", "0")
    assert code == 0 and len(out["points"]) == 10
    _, small, _ = call(tmp_path, "stiefel", RANK3_FIVE)
    code, out, _ = call(tmp_path, "sample-presentation", small,
                        "--seed", "3")
    assert code == 0 and len(out["points"]) == 3


def respelled(table, rng):
    """The same valuation spelled two other ways: every finite entry over
    one unreduced common denominator, and every entry shifted by one
    constant."""
    entries = table["entries"]
    q = rng.randint(2, 5) * lcm(*(Fraction(v).denominator
                                  for v in entries.values() if v != "inf"))
    c = Fraction(rng.randint(-9, 9), rng.choice((1, 3)))
    over, shifted = {}, {}
    for key, v in entries.items():
        if v == "inf":
            over[key] = shifted[key] = v
            continue
        x = Fraction(v)
        over[key] = "%d/%d" % (x * q, q)
        shifted[key] = str(x + c)
    return [dict(table, entries=over), dict(table, entries=shifted)]


def answer(command, seed, payload):
    "The exit code and bytes of one request, through stdin and stdout."
    real = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run([command, "--seed", str(seed)])
    finally:
        sys.stdin = real
    return code, out.getvalue()


def test_slot_tables_give_the_cold_bytes(monkeypatch):
    """check-pluecker (on the image and on a copy with one entry moved),
    dual, contract and stiefel answer 150 drawn Stiefel images (d <= 4,
    n <= 8, entries over 1 or 2) cold, with the slot tables emptied
    before each request, and warm, with the same exit codes and bytes."""
    monkeypatch.setattr(util, "_SLOT_TABLES", BoundedMemo())
    rng = random.Random(5150)
    requests = []
    for _ in range(150):
        d = rng.randint(1, 4)
        n = rng.randint(d, 8)
        rows = random_rows(rng, d, n, rng.uniform(0, 0.3))
        table = fmt_valuated(stiefel(rows))
        moved = dict(table["entries"])
        key = rng.choice([k for k, v in moved.items() if v != "inf"])
        moved[key] = str(parse_scalar(moved[key]) + rng.choice((-1, 1)))
        subset = [e for e in range(1, n + 1) if rng.random() < 0.3]
        requests += [("stiefel", fmt_matrix(rows)),
                     ("check-pluecker", table),
                     ("check-pluecker", dict(table, entries=moved)),
                     ("dual", table),
                     ("contract", {"valuation": table, "set": subset})]
    cold = []
    for request in requests:
        util._SLOT_TABLES.clear()
        cold.append(answer(request[0], 0, request[1]))
    warm = [answer(request[0], 0, request[1]) for request in requests]
    assert warm == cold
    codes = Counter((request[0], code)
                    for request, (code, _) in zip(requests, cold))
    assert codes["check-pluecker", 0] >= 150
    assert codes["check-pluecker", 1] >= 30
    assert codes["contract", 0] >= 100
    assert util._SLOT_TABLES.size > 0


def test_a_seen_shape_builds_no_slot_index(monkeypatch):
    """After one dual of a rank-3 valuation on 6 elements, a dual of
    another one of that shape builds no slot index: with
    util.combinations raising, parsing, construction and printing still
    answer, with the bytes the cold request gave."""
    monkeypatch.setattr(util, "_SLOT_TABLES", BoundedMemo())
    rng = random.Random(6)
    first, second = (fmt_valuated(random_valuation(rng, 3, 6, 0.2))
                     for _ in range(2))
    assert first != second
    assert answer("dual", 0, first)[0] == 0
    want = answer("dual", 0, second)
    assert set(util._SLOT_TABLES) == {(6, 3)}
    back = parse_valuated(second)

    def no_combinations(items, k):
        raise AssertionError("enumerated the %d-subsets of %r" % (k, items))

    monkeypatch.setattr(util, "combinations", no_combinations)
    assert answer("dual", 0, second) == want
    assert parse_valuated(second) == back
    assert ValuatedMatroid(6, 3, back.ints, back.den) == back
    assert fmt_valuated(back) == second


def test_distinguished_memo_gives_the_cold_bytes(monkeypatch):
    """distinguished, in-presentation-space (true and false) and
    sample-presentation with --seed 0 and 3 answer 200 drawn Stiefel
    images (d <= 4, n <= 8) cold, with the memo emptied before each
    request, and warm, from the memo, with the same exit code and bytes.
    Two other spellings of each valuation (one unreduced denominator,
    one additive shift) get those bytes too and share its slot.  With
    maximal_cells and v_contract raising after the warm-up, every
    request still answers the same."""
    rng = random.Random(3030)
    cases = []
    for _ in range(200):
        d = rng.randint(1, 4)
        n = rng.randint(d + 1, 8)
        rows = random_rows(rng, d, n, inf_prob=rng.uniform(0.0, 0.3))
        table = fmt_valuated(stiefel(rows))
        for payload in (table, *respelled(table, rng)):
            cases.append([
                ("distinguished", 0, payload),
                ("in-presentation-space", 0,
                 {"valuation": payload, "points": fmt_matrix(rows)}),
                ("in-presentation-space", 0,
                 {"valuation": payload,
                  "points": fmt_matrix([rows[-1]] + rows[1:])}),
                ("sample-presentation", 0, payload),
                ("sample-presentation", 3, payload)])

    cold = []
    for requests in cases[::3]:
        want = []
        for request in requests:
            presentations._MEMO.clear()
            want.append(answer(*request))
        cold += [want] * 3
    codes = Counter((request[0], code)
                    for requests, want in zip(cases, cold)
                    for request, (code, _) in zip(requests, want))
    assert codes["distinguished", 0] >= 450
    assert codes["distinguished", 2] >= 60
    assert codes["in-presentation-space", 0] >= 450
    assert codes["in-presentation-space", 1] >= 300
    presentations._MEMO.clear()
    warm = [[answer(*request) for request in requests] for requests in cases]
    assert warm == cold
    answered = {parse_valuated(requests[0][2]).canonical()
                for requests, want in zip(cases, cold) if want[0][0] == 0}
    assert set(presentations._MEMO) == answered
    assert len(answered) >= 150
    assert presentations._MEMO.size < presentations.MAX_SLOTS

    def refuse(*args):
        raise AssertionError("a memo hit walked the cells")

    for module in (presentations, valuated):
        monkeypatch.setattr(module, "maximal_cells", refuse)
        monkeypatch.setattr(module, "v_contract", refuse)
    assert [[answer(*request) for request in requests]
            for requests in cases] == cold


def test_in_presentation_space_answers_by_the_definition():
    """in-presentation-space answers {"ok": stiefel(points) == v}, read
    off the brute-force Stiefel image, with exit 0 or 1: on 200 drawn
    Stiefel images (d <= 4, n <= 8), each with its own rows and with the
    first row replaced by the last, 78 of the 400 requests on a support
    with a loop or a coloop; and on tuples for M(K4) and the three-pair
    valuation, which are not transversal, so no tuple presents them."""
    def presents(v, rows):
        try:
            return stiefel_bruteforce(rows) == v
        except OutOfDomain:
            return False

    def check(v, rows):
        ok = presents(v, rows)
        code, out = answer("in-presentation-space", 0,
                           {"valuation": fmt_valuated(v),
                            "points": fmt_matrix(rows)})
        assert (code, json.loads(out)) == (0 if ok else 1, {"ok": ok})
        return ok

    rng = random.Random(3030)
    degenerate = Counter()
    for _ in range(200):
        d = rng.randint(1, 4)
        n = rng.randint(d + 1, 8)
        rows = random_rows(rng, d, n, inf_prob=rng.uniform(0.0, 0.3))
        v = stiefel(rows)
        u = v.underlying()
        for pts in (rows, [rows[-1]] + rows[1:]):
            ok = check(v, pts)
            if u.loops() | u.coloops():
                degenerate[ok] += 1
    assert degenerate == {True: 66, False: 12}
    for v in (k4_graphic_valuation(), three_pair_valuation()):
        pinned = [[Fraction(i)] + [INF] * (v.n - 1) for i in range(v.d)]
        tuples = [pinned] + [random_rows(rng, v.d, v.n, inf_prob=0.2)
                             for _ in range(20)]
        assert not any(check(v, rows) for rows in tuples)


def test_in_presentation_space_at_rank_zero_and_off_the_domain(tmp_path):
    """The empty tuple presents the rank-0 valuation; a tuple outside the
    domain of stiefel presents nothing; a wrong arity is still refused."""
    zero = {"n": 3, "rank": 0, "entries": {"": "0"}}
    code, out, _ = call(tmp_path, "in-presentation-space",
                        {"valuation": zero, "points": []})
    assert code == 0 and out == {"ok": True}
    code, out, _ = call(tmp_path, "in-presentation-space",
                        {"valuation": zero, "points": [["0", "0", "0"]]})
    assert code == 2 and out["error"] == "WrongArity"
    off = [["0", "inf", "inf", "inf"]] * 2
    with pytest.raises(OutOfDomain):
        stiefel(parse_matrix(off))
    code, out, _ = call(tmp_path, "in-presentation-space",
                        {"valuation": fmt_valuated(rank2_four()),
                         "points": off})
    assert code == 1 and out == {"ok": False}


def test_stable_sum_and_intersect(tmp_path):
    _, a, _ = call(tmp_path, "stiefel", [["0", "0", "0", "0"]])
    _, b, _ = call(tmp_path, "stiefel", [["0", "1", "2", "3"]])
    code, out, _ = call(tmp_path, "stable-sum", {"first": a, "second": b})
    assert code == 0 and out["rank"] == 2
    hyp = {"n": 4, "rank": 3, "entries":
           {"1,2,3": "0", "1,2,4": "0", "1,3,4": "0", "2,3,4": "0"}}
    _, table, _ = call(tmp_path, "stiefel", RANK2_FOUR)
    code, out, _ = call(tmp_path, "stable-intersect",
                        {"first": table, "second": hyp})
    assert code == 0 and out["rank"] == 1
    code, err, _ = call(tmp_path, "stable-sum",
                        {"first": table, "second": hyp})
    assert code == 2
    assert err["error"] == "EmptySupport"


def test_stable_sum_refuses_an_oversized_result_before_filling_it(
        tmp_path, monkeypatch):
    """stable-sum of two one-entry rank-2 tables at n = 60 would have
    C(60, 4) slots: it is refused with TooLarge before any (d1 + d2)-set
    is filled, and so is stable-intersect, which sums the duals of two
    rank-58 tables, the complements of those."""
    def no_fill(mask, k):
        raise AssertionError("filled a slot of the sum")

    monkeypatch.setattr(valuated, "submasks", no_fill)
    n = 60
    full = set(range(1, n + 1))

    def one_entry(elements):
        return {"n": n, "rank": len(elements),
                "entries": {",".join(map(str, sorted(elements))): "0"}}

    want = {"error": "TooLarge", "message": "C(60, 4) slots exceed 65536",
            "witness": {"n": 60, "rank": 4, "limit": 65536}}
    for command, first, second in (
            ("stable-sum", {1, 2}, {3, 4}),
            ("stable-intersect", full - {1, 2}, full - {3, 4})):
        code, out, _ = call(tmp_path, command, {"first": one_entry(first),
                                                "second": one_entry(second)})
        assert (code, out) == (2, want)


def test_gammoid_and_digraph_round_trip(tmp_path):
    payload = {"points": DUAL_ROWS, "matching": [1, 5, 3, 2]}
    code, dig, _ = call(tmp_path, "digraph-from-presentation", payload)
    assert code == 0
    assert dig["sinks"] == [4, 6]
    assert {"from": 2, "to": 3, "w": "1"} in dig["edges"]
    assert len(dig["edges"]) == 8
    code, val, _ = call(tmp_path, "gammoid", dig)
    assert code == 0
    want = snow_full()
    assert val["entries"] == want["entries"]
    code, err, _ = call(tmp_path, "digraph-from-presentation",
                        {"points": [["0", "1"], ["0", "0"]],
                         "matching": [2, 1]})
    assert code == 2
    assert err["error"] == "NotMinimalMatching"
    assert err["witness"] == {"weight": "1", "minimum": "0"}


@pytest.mark.parametrize("extra", [{}, {"basis": [1, 2]}])
def test_digraph_matching_may_not_repeat_a_column(tmp_path, capsys, extra):
    """A repeated column would shrink the basis read off the matching
    into a misleading NoBasis; it is refused by name, before any basis
    is derived or checked."""
    code, err, _ = call(tmp_path, "digraph-from-presentation",
                        {"points": [["0", "1"], ["0", "0"]],
                         "matching": [1, 1], **extra})
    assert code == 2
    assert err == {"error": "ValueError",
                   "message": "matching column 1 repeats", "witness": None}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("points, message", [
    ([], "matrix must be a nonempty list of rows"),
    ([["0", "1"], ["0"]], "ragged matrix")])
def test_digraph_from_bad_points_is_an_input_error(tmp_path, capsys,
                                                   points, message):
    code, err, _ = call(tmp_path, "digraph-from-presentation",
                        {"points": points})
    assert code == 2
    assert err == {"error": "ValueError", "message": message,
                   "witness": None}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, payload", [
    ("stiefel", [["0", "1/0"], ["0", "0"]]),
    ("membership", {"valuation": SNOW, "point": ["0", "0", "1/0", "0",
                                                   "0", "0"]}),
    ("gammoid", {"n": 2, "sinks": [2],
                 "edges": [{"from": 1, "to": 2, "w": "1/0"}]})])
def test_zero_denominator_is_an_input_error(tmp_path, capsys, command,
                                            payload):
    code, err, _ = call(tmp_path, command, payload)
    assert code == 2
    assert err == {"error": "ValueError",
                   "message": "zero denominator in scalar '1/0'",
                   "witness": None}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scalar", ["1e100000", "1e-100000"])
@pytest.mark.parametrize("command", ["stiefel", "membership"])
def test_huge_exponent_is_an_input_error(tmp_path, capsys, command, scalar):
    payload = ([["0", scalar], ["0", "0"]] if command == "stiefel" else
               {"valuation": SNOW,
                "point": ["0", "0", scalar, "0", "0", "0"]})
    code, err, _ = call(tmp_path, command, payload)
    assert code == 2
    assert err == {"error": "ValueError",
                   "message": "exponent beyond 4300 in scalar %r" % scalar,
                   "witness": None}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("rows", [[["1e4300", "0"]],
                                  [["9e4299", "-9e4299", "0"]]])
def test_output_beyond_the_digit_limit_is_an_input_error(tmp_path, capsys,
                                                         rows):
    """In-bound scalars whose output has more than 4300 digits (1e4300
    itself, or the difference of two entries after normalization) are
    refused by name, not with Python's own conversion message."""
    code, err, _ = call(tmp_path, "stiefel", rows)
    assert code == 2
    assert err == {"error": "ValueError",
                   "message": "output scalar beyond the 4300-digit limit",
                   "witness": None}
    assert capsys.readouterr().err == ""


def test_small_exponents_still_parse(tmp_path):
    code, out, _ = call(tmp_path, "stiefel", [["1e3", "-2.5e-2", "0"]])
    assert code == 0
    assert out["entries"] == {"1": "40001/40", "2": "0", "3": "1/40"}
    assert parse_scalar("1E+4300") == 10 ** 4300
    assert parse_scalar("-1e-0_4300") == Fraction(-1, 10 ** 4300)


def test_bare_numbers_read_as_their_text(tmp_path, capsys, monkeypatch):
    """A bare JSON number is read exactly, as the same text in a string,
    from a file or from stdin.  A bare 1e400 once came in as the float
    inf, and dual answered "inf" with exit 0.  NaN, Infinity and
    -Infinity are not JSON numbers and are refused."""
    dst = tmp_path / "out.json"

    def dual(entry, stdin=False):
        text = '{"n": 2, "rank": 1, "entries": {"1": %s, "2": "0"}}' % entry
        if stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code = run(["dual", "--output", str(dst)])
        else:
            src = tmp_path / "in.json"
            src.write_text(text)
            code = run(["dual", "--input", str(src), "--output", str(dst)])
        return code, dst.read_text()

    code, out = dual("1e400")
    assert (code, out) == dual('"1e400"') == dual("1e400", stdin=True)
    assert code == 0
    assert json.loads(out)["entries"] == {"1": "0", "2": "1" + "0" * 400}
    for entry in ("0.1", "-2.5e-2", "1E+3", "1e100000"):
        assert dual(entry) == dual('"%s"' % entry)
    assert dual("1e100000")[0] == 2
    for token in ("NaN", "Infinity", "-Infinity"):
        for stdin in (False, True):
            code, out = dual(token, stdin)
            assert code == 2
            assert json.loads(out) == {
                "error": "ValueError", "witness": None,
                "message": "input JSON holds the non-JSON number " + token}
    assert capsys.readouterr().err == ""


def test_a_leading_byte_order_mark_is_refused_by_one_decoder(
        tmp_path, monkeypatch):
    """A payload starting with U+FEFF is refused, on stdin and through
    --input, with the exit code and body json.loads gave it; every
    request reads through the one module-level decoder."""
    text = '\ufeff{"n": 2, "rank": 1, "entries": {"1": "0", "2": "0"}}'
    src = tmp_path / "in.json"
    src.write_text(text, encoding="utf-8")
    dst = tmp_path / "out.json"
    want = ('{"error":"JSONDecodeError","message":"Unexpected UTF-8 BOM '
            '(decode using utf-8-sig): line 1 column 1 (char 0)",'
            '"witness":null}\n')

    def refuse(*args, **kwargs):
        raise AssertionError("a decoder was built for the request")

    monkeypatch.setattr(json, "JSONDecoder", refuse)
    assert run(["dual", "--input", str(src), "--output", str(dst)]) == 2
    assert dst.read_text() == want
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["dual", "--output", str(dst)]) == 2
    assert dst.read_text() == want
    src.write_text(text[1:], encoding="utf-8")
    assert run(["dual", "--input", str(src), "--output", str(dst)]) == 0


@pytest.mark.parametrize("first, second", [("1,2", "2,1"),
                                           ("1,3", " 1, 3")])
@pytest.mark.parametrize("command", ["dual", "check-pluecker"])
def test_a_set_named_by_two_keys_is_refused(tmp_path, capsys, command,
                                            first, second):
    """Two spellings of one d-set are an input error naming both keys,
    not a silent last-wins table."""
    entries = {"1,2": "0", "1,3": "0", "2,3": "0"}
    entries[second] = "5"
    code, err, _ = call(tmp_path, command,
                        {"n": 3, "rank": 2, "entries": entries})
    assert code == 2
    assert err == {"error": "ValueError",
                   "message": "entry keys %r and %r name the same 2-subset"
                   % (first, second),
                   "witness": None}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("rank", [True, "2", 2.0, None])
def test_matroid_rank_must_be_an_integer(tmp_path, capsys, rank):
    code, err, _ = call(tmp_path, "is-transversal-matroid",
                        {"n": 3, "rank": rank, "bases": [[1, 2], [1, 3]]})
    assert code == 2
    assert err == {"error": "ValueError",
                   "message": "matroid rank must be an integer",
                   "witness": None}
    assert capsys.readouterr().err == ""


def test_gammoid_negative_cycle_error(tmp_path):
    code, err, _ = call(tmp_path, "gammoid",
                        {"n": 2, "sinks": [2],
                         "edges": [{"from": 1, "to": 2, "w": "-1"},
                                   {"from": 2, "to": 1, "w": "0"}]})
    assert code == 2
    assert err["error"] == "NegativeCycle"
    assert sorted(err["witness"]) == [1, 2]


def test_malformed_input_is_a_usage_error(tmp_path):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text("{not json")
    code = run(["stiefel", "--input", str(src), "--output", str(dst)])
    assert code == 2
    err = json.loads(dst.read_text())
    assert set(err) == {"error", "message", "witness"}
    src.write_text(json.dumps({"n": 3}))
    code = run(["underlying", "--input", str(src), "--output", str(dst)])
    assert code == 2


# Not a valuated matroid: the relation at a = {1}, c = {2,3,4} has the
# unique minimum 2 + 0.
NON_PLUECKER = {"n": 4, "rank": 2,
                "entries": {"1,2": "0", "1,3": "2", "1,4": "0",
                            "2,3": "2", "2,4": "0", "3,4": "0"}}


NON_PLUECKER_PAYLOADS = {
    "cells": NON_PLUECKER,
    "vertices": NON_PLUECKER,
    "distinguished": NON_PLUECKER,
    "sample-presentation": NON_PLUECKER,
    "in-presentation-space": {"valuation": NON_PLUECKER,
                              "points": RANK2_FOUR},
    # the second point lies outside the space, a false answer
    "verify-presentation": {"valuation": NON_PLUECKER,
                            "points": [["0", "0", "0", "0"],
                                       ["0", "1", "0", "0"]]},
}


@pytest.mark.parametrize("command", sorted(NON_PLUECKER_PAYLOADS))
def test_non_pluecker_input_exits_two_with_a_body(tmp_path, command):
    code, out, _ = call(tmp_path, command, NON_PLUECKER_PAYLOADS[command])
    assert code == 2
    assert out == {"error": "NotPluecker",
                   "message": "input is not a valuated matroid",
                   "witness": {"a": [1], "c": [2, 3, 4]}}


def test_perturbed_stiefel_images_are_refused_by_cells_and_vertices(
        tmp_path):
    """Stiefel images with one entry moved are not valuated matroids,
    and cells and vertices refuse each with NotPluecker and the failing
    relation: the closure trusts its faces only once the maximal cells
    are matroids."""
    rng = random.Random(2718)
    seen = 0
    while seen < 40:
        d = rng.randint(2, 4)
        n = rng.randint(d + 2, 7)
        vm = random_valuation(rng, d, n, inf_prob=rng.uniform(0, 0.3))
        if vm.underlying().loops():
            continue
        table = dict(vm.table)
        b = rng.choice(vm.support)
        table[b] += rng.choice((-2, -1, Fraction(-1, 2), Fraction(1, 2), 1))
        ok, witness = check_pluecker(ValuatedMatroid(n, d, table))
        if ok:
            continue
        seen += 1
        payload = {"n": n, "rank": d, "entries": {
            ",".join(str(e + 1) for e in bits(s)): str(v)
            for s, v in table.items() if v != INF}}
        for command in ("cells", "vertices"):
            code, out, _ = call(tmp_path, command, payload)
            assert code == 2
            assert out["error"] == "NotPluecker"
            assert out["witness"] == witness


# Two tables that distinguished and in-presentation-space used to
# answer on, although each breaks a Pluecker relation.
ANSWERED_NON_PLUECKER = [
    ({"n": 4, "rank": 2,
      "entries": {"1,2": "2", "1,4": "2", "2,3": "-2", "2,4": "2",
                  "3,4": "1"}},
     [["0", "0", "0", "0"], ["0", "0", "1", "1"]]),
    ({"n": 5, "rank": 2,
      "entries": {"1,2": "inf", "1,3": "1", "1,4": "1", "1,5": "3",
                  "2,3": "-1", "2,4": "-1", "2,5": "2", "3,4": "inf",
                  "3,5": "1", "4,5": "1"}},
     [["inf", "inf", "0", "0", "3"], ["2", "0", "inf", "inf", "2"]]),
]


def random_non_pluecker(rng):
    "A table with n <= 6, some entries inf, that fails check_pluecker."
    while True:
        n = rng.randint(3, 6)
        d = rng.randint(1, n - 1)
        gap = rng.uniform(0, 0.4)
        entries = {",".join(str(e + 1) for e in bits(b)):
                   rng.choice(("inf", str(rng.randint(-2, 3))))
                   if rng.random() < gap else str(rng.randint(-2, 3))
                   for b in ksubsets(n, d)}
        table = {"n": n, "rank": d, "entries": entries}
        try:
            ok, witness = check_pluecker(parse_valuated(table))
        except AllInfinite:
            continue
        if not ok:
            points = [[rng.choice(("inf", "0", "1", "2"))
                       for _ in range(n)] for _ in range(d)]
            return table, points, witness


def test_commands_assuming_a_valuated_matroid_refuse_non_pluecker_tables(
        tmp_path):
    """On 200 random tables that fail check_pluecker, and the two above,
    each command that assumes a valuated matroid exits 2 with
    NotPluecker and the failing relation, never with an answer."""
    rng = random.Random(1414)
    cases = [(t, p, check_pluecker(parse_valuated(t))[1])
             for t, p in ANSWERED_NON_PLUECKER]
    cases += [random_non_pluecker(rng) for _ in range(200)]
    for table, points, witness in cases:
        with_points = {"valuation": table, "points": points}
        for command, payload in (
                ("cells", table), ("vertices", table),
                ("distinguished", table), ("sample-presentation", table),
                ("in-presentation-space", with_points),
                ("verify-presentation", with_points)):
            code, out, _ = call(tmp_path, command, payload)
            assert (code, out) == (2, {
                "error": "NotPluecker",
                "message": "input is not a valuated matroid",
                "witness": witness}), (command, payload)


def test_pluecker_check_runs_once_before_the_compute(tmp_path, monkeypatch):
    """Each command that assumes a valuated matroid checks the table
    once, after parsing and before computing, true answer or not; but
    in-presentation-space answers true, a Stiefel image and so a
    valuated matroid, with no check, and false with one."""
    calls = []

    def counting(vm):
        calls.append(vm)
        return check_pluecker(vm)

    _, table, _ = call(tmp_path, "stiefel", RANK2_FOUR)
    monkeypatch.setattr(troplin.cli, "check_pluecker", counting)
    for command, payload, checks in (
            ("cells", table, 1), ("vertices", table, 1),
            ("distinguished", table, 1), ("sample-presentation", table, 1),
            ("in-presentation-space",
             {"valuation": table, "points": RANK2_FOUR}, 0),
            ("verify-presentation",
             {"valuation": table, "points": RANK2_FOUR}, 1)):
        before = len(calls)
        code, _, _ = call(tmp_path, command, payload, "--seed", "2")
        assert code == 0
        assert len(calls) == before + checks, command
    # a valuated matroid that the command rejects keeps its own error
    code, out, _ = call(tmp_path, "distinguished", snow_full())
    assert code == 2 and out["error"] == "NotTransversalFacets"
    assert len(calls) == 6
    # and a false verify-presentation answer stands, checked once each
    code, out, _ = call(tmp_path, "verify-presentation",
                        {"valuation": table,
                         "points": [["0", "0", "0", "0"],
                                    ["0", "1", "1", "1"]]})
    assert code == 1 and out["outside"] == {"index": 2}
    assert len(calls) == 7
    code, out, _ = call(tmp_path, "verify-presentation",
                        {"valuation": table,
                         "points": [["0", "0", "0", "0"],
                                    ["0", "0", "0", "0"]]})
    assert code == 1 and out["violations"]
    assert len(calls) == 8
    # a false in-presentation-space answer, in and out of the domain
    for points in ([["0", "0", "0", "0"], ["0", "1", "1", "1"]],
                   [["0", "inf", "inf", "inf"], ["inf", "0", "inf", "inf"]]):
        code, out, _ = call(tmp_path, "in-presentation-space",
                            {"valuation": table, "points": points})
        assert (code, out) == (1, {"ok": False})
    assert len(calls) == 10


def test_in_presentation_space_keeps_its_input_errors_on_a_valid_table(
        tmp_path):
    """A Pluecker table with points that present nothing: an all-inf
    point, too few or too many points, points of the wrong length.
    Each keeps its exit code and body: the input errors in the order
    check, arity, points, as when every answer ran the check first."""
    table = {"n": 4, "rank": 2,
             "entries": {"1,2": "0", "1,3": "0", "1,4": "0", "2,3": "0",
                         "2,4": "0", "3,4": "1"}}
    row, inf = ["0", "0", "0", "0"], ["inf"] * 4
    all_inf = {"error": "AllInfinite",
               "message": "point has no finite coordinate", "witness": None}
    length = {"error": "ValueError", "message": "point length mismatch",
              "witness": None}

    def arity(got):
        return {"error": "WrongArity", "message": "WrongArity",
                "witness": {"expected": 2, "got": got}}

    for points, code, body in (
            ([row, inf], 2, all_inf), ([inf, inf], 2, all_inf),
            ([inf, row[:3]], 2, all_inf),
            ([row], 2, arity(1)), ([], 2, arity(0)),
            ([row, ["0", "0", "1", "1"], ["0", "1", "0", "1"]], 2,
             arity(3)),
            ([row, inf, inf], 2, arity(3)),
            ([row[:3], ["0", "0", "1"]], 2, length),
            ([row + ["0"], ["0", "0", "1", "1", "1"]], 2, length),
            ([row, ["0", "0", "1"]], 2, length),
            ([row, ["0", "0", "1", "1"]], 0, {"ok": True}),
            ([row, ["0", "0", "1", "2"]], 0, {"ok": True})):
        got = call(tmp_path, "in-presentation-space",
                   {"valuation": table, "points": points})
        assert got[:2] == (code, body), points


def test_parser_is_reused_across_runs(tmp_path):
    """Consecutive runs in one process answer as each would alone."""
    _, table, _ = call(tmp_path, "stiefel", RANK3_FIVE)
    requests = [("sample-presentation", table, "--seed", "3"),
                ("stiefel", RANK2_FOUR),
                ("sample-presentation", table, "--seed", "5"),
                ("dual", table, "--pretty")]
    alone = []
    for command, payload, *extra in requests:
        troplin.cli._PARSER = None
        alone.append(call(tmp_path, command, payload, *extra)[::2])
    together = [call(tmp_path, command, payload, *extra)[::2]
                for command, payload, *extra in requests]
    assert together == alone
    assert troplin.cli._PARSER is troplin.cli._parser()


def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch):
    def broken(payload, args):
        raise RuntimeError("broken on purpose")

    monkeypatch.setitem(COMMANDS, "stiefel", broken)
    code, out, _ = call(tmp_path, "stiefel", RANK2_FOUR)
    assert code == 2
    assert out == {"error": "InternalError", "message": "broken on purpose",
                   "witness": None}


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys,
                                              monkeypatch):
    """100,000 nested brackets overflow the JSON decoder's recursion:
    through --input and through stdin that is a ValueError, exit 2
    with a JSON body, and nothing on stderr."""
    text = "[" * 100000 + "]" * 100000
    want = {"error": "ValueError", "message": "input JSON is nested too deeply",
            "witness": None}
    src = tmp_path / "deep.json"
    src.write_text(text)
    assert run(["check-pluecker", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == want and captured.err == ""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["stiefel"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == want and captured.err == ""


@pytest.mark.parametrize("target, error", [
    ("missing/x.json", "FileNotFoundError"), (".", "IsADirectoryError")])
@pytest.mark.parametrize("text", ['{"matrix": [["0", "1", "2"]]}',
                                  '{"matrix": '])
def test_an_unwritable_output_exits_two_with_a_body_on_stdout(
        tmp_path, capsys, monkeypatch, target, error, text):
    """--output naming a file in a missing directory, or a directory,
    cannot be opened: for a computed answer and for an error body alike
    the run exits 2 with the OSError's body on stdout, not a traceback
    with exit 1, and nothing on stderr."""
    path = tmp_path / target
    with pytest.raises(OSError) as exc:
        open(path, "w")
    want = {"error": error, "message": str(exc.value), "witness": None}
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["stiefel", "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == want and captured.err == ""


# Rank-2 tables at n = 60 that check-pluecker refuses: four entries on
# the parallel classes {57, 58} and {59, 60}, one lowered, and two
# entries whose support is not a matroid.
REFUSED_AT_SIXTY = [
    {"n": 60, "rank": 2, "entries": {"57,59": "-1", "57,60": "0",
                                     "58,59": "0", "58,60": "0"}},
    {"n": 60, "rank": 2, "entries": {"57,58": "0", "59,60": "0"}}]


def test_refusals_read_the_witness_off_the_failure(tmp_path, monkeypatch):
    """check-pluecker and cells refuse both tables with a relation that
    is violated by definition, and enumerate no (d - 1)- or
    (d + 1)-subsets on the way: no ordered scan runs after the check
    fails."""
    real = valuated.ksubsets

    def no_pair_scan(n, k):
        if k in (1, 3):
            raise AssertionError("enumerated the %d-subsets of %d" % (k, n))
        return real(n, k)

    monkeypatch.setattr(valuated, "ksubsets", no_pair_scan)
    for payload in REFUSED_AT_SIXTY:
        vm = parse_valuated(payload)
        code, out, _ = call(tmp_path, "check-pluecker", payload)
        assert code == 1 and out["ok"] is False
        assert violated_relation(vm, **out["witness"])
        code, body, _ = call(tmp_path, "cells", payload)
        assert (code, body["error"]) == (2, "NotPluecker")
        assert body["witness"] == out["witness"]


def test_unknown_command_exits_two(capsys):
    """An unknown command, a bad flag value, an unknown flag or a
    missing command exits 2 with a JSON body on stdout that carries
    argparse's text, and nothing on stderr."""
    for argv, text in (
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            (["stiefel", "--seed", "abc"], "invalid int value: 'abc'"),
            (["stiefel", "--bogus"], "unrecognized arguments: --bogus"),
            ([], "the following arguments are required: command")):
        assert run(argv) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["error"] == "UsageError" and out["witness"] is None
        assert text in out["message"]
        assert captured.err == ""


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as err:
        run(["--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: troplin")


def test_readme_lists_every_command():
    """The backticked names in the first column of README's command table
    are the commands the CLI dispatches, no more and no fewer."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    rows = text.split("### Commands", 1)[1].split("\n\n")[1].splitlines()
    listed = {name for row in rows[2:]
              for name in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert listed == set(COMMANDS)


@pytest.mark.parametrize("command, payload", [
    ("check-pluecker", {"n": 10 ** 10, "rank": 0, "entries": {"": "0"}}),
    ("is-transversal-matroid", {"n": 10 ** 10, "bases": [[]]}),
    ("gammoid", {"n": 10 ** 10, "sinks": [1]})])
def test_ground_sets_beyond_the_slot_limit_are_refused(
        tmp_path, capsys, monkeypatch, command, payload):
    """n beyond MAX_SLOTS is refused at the JSON boundary, before any
    valuation, matroid or digraph is built: rank 0 has one slot at any
    n, but the ground-set masks alone would cost n bits."""
    def refuse(*args, **kwargs):
        raise AssertionError("built an object on 10^10 elements")

    monkeypatch.setattr(ValuatedMatroid, "__init__", refuse)
    monkeypatch.setattr(Matroid, "__init__", refuse)
    monkeypatch.setattr(WeightedDigraph, "__init__", refuse)
    code, out, _ = call(tmp_path, command, payload)
    assert code == 2
    assert out == {"error": "TooLarge",
                   "message": "n = %d exceeds %d" % (10 ** 10,
                                                     util.MAX_SLOTS),
                   "witness": {"n": 10 ** 10, "limit": util.MAX_SLOTS}}
    assert capsys.readouterr().err == ""


def test_threads_flag_is_accepted(tmp_path):
    code, out, _ = call(tmp_path, "stiefel", RANK2_FOUR, "--threads", "8")
    assert code == 0 and out["entries"]["3,4"] == "1"


def test_stdout_default(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(RANK2_FOUR))
    code = run(["stiefel", "--input", str(src)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entries"]["3,4"] == "1"


def test_table_io_never_builds_the_fraction_view(tmp_path, monkeypatch):
    """stiefel (both minor methods), check-pluecker (true and false),
    dual, membership (true and false) and sample-presentation carry the
    table as integers from the payload to the response: with reading
    the Fraction view made an error, each answers as before."""
    wide = [[str((i * j) % 5 - 2) + ("/3" if j % 3 else "")
             for j in range(8)] for i in range(3)]
    square = [[str((i * j) % 7) if (i + j) % 4 else "inf"
               for j in range(6)] for i in range(5)]
    _, table, _ = call(tmp_path, "stiefel", RANK2_FOUR)
    _, table3, _ = call(tmp_path, "stiefel", RANK3_FIVE)
    bad = {"n": 4, "rank": 2,
           "entries": {"1,2": "0", "1,3": "1", "1,4": "1",
                       "2,3": "1", "2,4": "1", "3,4": "1/2"}}
    requests = [("stiefel", wide), ("stiefel", square),
                ("stiefel", RANK3_FIVE), ("check-pluecker", table),
                ("check-pluecker", bad), ("dual", table), ("dual", SNOW),
                ("membership", {"valuation": table,
                                "point": ["9", "0", "0", "0"]}),
                ("membership", {"valuation": table,
                                "point": ["0", "1", "1/2", "inf"]}),
                ("sample-presentation", table3)]
    want = [call(tmp_path, command, payload)[::2]
            for command, payload in requests]
    assert {code for code, _ in want} == {0, 1}

    def refuse(vm):
        raise AssertionError("the Fraction table was built")

    monkeypatch.setattr(ValuatedMatroid, "table", property(refuse))
    assert [call(tmp_path, command, payload)[::2]
            for command, payload in requests] == want


# ----------------------------------------------- every command, fuzzed

FUZZ_SCALARS = ["0", "1", "-1", "2", "1/2", "-3/2", "inf"]
FUZZ_JUNK = [None, True, 3, "x", [], {}, "1/0", [[]], {"n": 0}, [1, 2]]


@st.composite
def _fuzz_rows(draw, d, n):
    "d rows of n scalars; in one draw of four, some may be infinite."
    value = finite = st.sampled_from(FUZZ_SCALARS[:-1])
    if draw(st.integers(0, 3)) == 3:
        value = st.one_of(*[finite] * 5, st.just("inf"))
    return [[draw(value) for _ in range(n)] for _ in range(d)]


@st.composite
def _fuzz_valuation(draw, n=None):
    """(payload, n, d, rows): a Stiefel image with its rows, a random
    table on the d-sets (often no valuated matroid), or a malformed one
    (rows None).  The simplest draws are well formed."""
    kind = draw(st.sampled_from(["stiefel", "stiefel", "table", "bad"]))
    if n is None:
        n = draw(st.integers(2 if kind == "stiefel" else 1, 5))
    if kind == "stiefel" and n > 1:
        d = draw(st.integers(1, n - 1))
        rows = draw(_fuzz_rows(d, n))
        try:
            return fmt_valuated(stiefel(parse_matrix(rows))), n, d, rows
        except TroplinError:
            pass
    d = draw(st.integers(0, n))
    entries = {}
    for b in ksubsets(n, d):
        v = draw(st.sampled_from(FUZZ_SCALARS + [None, None]))
        if v is not None:
            entries[",".join(map(str, list1(b)))] = v
    payload = {"n": n, "rank": d, "entries": entries}
    if kind == "bad":
        payload = draw(st.sampled_from([
            {"n": n, "rank": d}, {"n": n, "rank": str(d), "entries": {}},
            {"n": n, "rank": d, "entries": {str(n + 1): "0"}},
            {"n": n, "rank": d + 1, "entries": entries},
            {"n": -n, "rank": d, "entries": entries},
            {"n": n, "rank": d, "entries": {"1": "zero"}}]))
    return payload, n, d, None


@st.composite
def _fuzz_point(draw, n):
    size = draw(st.sampled_from([n, n, n, n + 1]))
    return draw(st.lists(st.sampled_from(FUZZ_SCALARS), min_size=size,
                         max_size=size))


@st.composite
def _fuzz_subset(draw, n):
    return draw(st.lists(st.integers(1, n + 1), max_size=n, unique=True))


@st.composite
def _fuzz_matroid(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, n))
    bases = draw(st.lists(st.sampled_from(ksubsets(n, d)), min_size=1,
                          max_size=6, unique=True))
    return {"n": n, "bases": [list1(b) for b in bases]}


@st.composite
def _fuzz_payload(draw, command):
    "A small payload for the command, well formed or not."
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from(FUZZ_JUNK))
    vm, n, d, rows = draw(_fuzz_valuation())
    if command in ("check-pluecker", "underlying", "dual", "cells",
                   "vertices", "distinguished", "sample-presentation"):
        return vm
    if command in ("restrict", "contract"):
        return {"valuation": vm, "set": draw(_fuzz_subset(n))}
    if command in ("initial", "membership"):
        return {"valuation": vm, "point": draw(_fuzz_point(n))}
    if command in ("verify-presentation", "in-presentation-space"):
        if rows is not None and not draw(st.booleans()):
            points = rows
        else:
            points = draw(st.lists(_fuzz_point(n), min_size=max(d, 1),
                                   max_size=max(d, 1) + 1))
        return {"valuation": vm, "points": points}
    if command in ("stable-sum", "stable-intersect"):
        other = draw(_fuzz_valuation(n))[0]
        return {"first": vm, "second": other}
    if command in ("is-transversal-matroid", "max-presentation"):
        return draw(_fuzz_matroid())
    if command == "verify-set-presentation":
        m = draw(_fuzz_matroid())
        sets = draw(st.lists(_fuzz_subset(m["n"]), max_size=4))
        return {"matroid": m, "sets": sets}
    if command == "stiefel":
        return rows if rows is not None else draw(_fuzz_rows(
            draw(st.integers(1, 3)), n))
    if command == "gammoid":
        edges = [{"from": i, "to": j, "w": draw(st.sampled_from(
                     FUZZ_SCALARS[:-1]))}
                 for i in range(1, n + 1) for j in range(1, n + 1)
                 if i != j and draw(st.integers(0, 2)) == 0]
        sinks = draw(st.lists(st.integers(1, n + 1), min_size=1,
                              max_size=n, unique=True))
        return {"n": n, "sinks": sinks, "edges": edges}
    assert command == "digraph-from-presentation"
    payload = {"points": rows or draw(_fuzz_rows(draw(st.integers(1, 3)),
                                                 n))}
    k = len(payload["points"])
    if draw(st.booleans()):
        payload["matching"] = draw(st.lists(st.integers(0, n + 1),
                                            min_size=k, max_size=k))
    if draw(st.booleans()):
        payload["basis"] = draw(_fuzz_subset(n))
    return payload


def test_every_command_answers_small_payloads_with_a_json_body(tmp_path):
    """Each of the 21 commands, on small drawn payloads (n <= 5, well
    formed or not), exits 0, 1 or 2 with canonical JSON on stdout and
    nothing on stderr: no input reaches the InternalError path."""
    assert len(COMMANDS) == 21
    start = time.monotonic()
    src = tmp_path / "in.json"

    @settings(max_examples=40)
    @given(data=st.data())
    def check(command, data):
        src.write_text(json.dumps(data.draw(_fuzz_payload(command))))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, "--input", str(src), "--seed",
                        str(data.draw(st.sampled_from([0, 2])))])
        assert code in (0, 1, 2)
        assert out.getvalue() == dumps(json.loads(out.getvalue()))
        assert err.getvalue() == ""

    for command in sorted(COMMANDS):
        check(command)
    assert time.monotonic() - start < 20


@st.composite
def _fuzz_moved_entry(draw):
    """A drawn valuation payload on 4 or 5 elements, where three-term
    relations can exist, with one entry rewritten if it has one."""
    payload = draw(_fuzz_valuation(draw(st.integers(4, 5))))[0]
    entries = payload.get("entries")
    if isinstance(entries, dict) and entries:
        entries = dict(entries)
        entries[draw(st.sampled_from(sorted(entries)))] = draw(
            st.sampled_from(FUZZ_SCALARS))
        payload = dict(payload, entries=entries)
    return payload


def test_check_pluecker_equals_the_oracle_on_drawn_payloads(tmp_path):
    """On the fuzz suite's check-pluecker payloads, and on drawn
    valuations with one entry moved: where one parses, the verdict is
    the ordered reference's and a false witness is a violated relation
    by definition; where none parses, exit 2."""
    seen = {0: 0, 1: 0, 2: 0}

    @settings(max_examples=500)
    @given(payload=st.one_of(_fuzz_payload("check-pluecker"),
                             _fuzz_moved_entry()))
    def check(payload):
        code, body, _ = call(tmp_path, "check-pluecker", payload)
        seen[code] += 1
        try:
            vm = parse_valuated(payload)
        except (TroplinError, ValueError, KeyError, TypeError):
            assert code == 2
            return
        ok = check_pluecker_bruteforce(vm)[0]
        assert code == (0 if ok else 1)
        assert ok or violated_relation(vm, **body["witness"])

    check()
    assert min(seen.values()) >= 40, seen


@st.composite
def _fuzz_span_point(draw):
    """A Stiefel image on 2 to 5 elements with a point of its rows'
    min-plus span, as drawn or with one coordinate moved off it."""
    n = draw(st.integers(2, 5))
    rows = parse_matrix(draw(_fuzz_rows(draw(st.integers(1, n - 1)), n)))
    try:
        vm = fmt_valuated(stiefel(rows))
    except TroplinError:
        return draw(_fuzz_payload("membership"))
    shifts = [parse_scalar(draw(st.sampled_from(FUZZ_SCALARS)))
              for _ in rows]
    point = [min(c + r[j] for c, r in zip(shifts, rows)) for j in range(n)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        point[j] = parse_scalar(draw(st.sampled_from(FUZZ_SCALARS)))
    return {"valuation": vm, "point": fmt_point(point)}


def test_membership_and_initial_equal_the_oracle_on_drawn_payloads(
        tmp_path):
    """On the fuzz suite's membership payloads, and on Stiefel images
    with a point of the rows' span, as drawn or moved: where payload
    and point parse and the point fits, membership gives the Fraction
    sum reference's verdict and initial its initial matroid; a point of
    the wrong length, all infinite, or for initial infinite anywhere,
    exits 2, and so does every payload that does not parse."""
    seen = {True: 0, False: 0}
    initial = {0: 0, 2: 0}

    @settings(max_examples=400)
    @given(payload=st.one_of(_fuzz_payload("membership"),
                             _fuzz_span_point()))
    def check(payload):
        codes = [call(tmp_path, c, payload)[:2]
                 for c in ("membership", "initial")]
        try:
            vm = parse_valuated(payload["valuation"])
            y = parse_point(payload["point"])
        except (TroplinError, ValueError, KeyError, TypeError):
            assert [code for code, _ in codes] == [2, 2]
            return
        (code, body), (icode, ibody) = codes
        fits = len(y) == vm.n
        if fits and any(v != INF for v in y):
            ok = membership_bruteforce(vm, y)
            assert (code, body) == ((0 if ok else 1), {"ok": ok})
            seen[ok] += 1
        else:
            assert code == 2
        if fits and INF not in y:
            assert (icode, ibody) == (
                0, fmt_matroid(initial_matroid_bruteforce(vm, y)))
        else:
            assert icode == 2
        initial[icode] += 1

    check()
    assert min(seen.values()) >= 40, seen
    assert min(initial.values()) >= 40, initial
