import json
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from common import random_valuation
from reference import mask_to_key
from troplin import INF, ValuatedMatroid, jsonio, util
from troplin.cli import run
from troplin.jsonio import (_fmt_ratio, _parse_ratio, fmt_point,
                            fmt_scalar, fmt_valuated, key_to_mask,
                            parse_point, parse_scalar, parse_valuated)
from troplin.util import elems, ksubsets, mask_of, slot_table, submasks


def outcome(parse, v):
    "The parsed value as INF or a Fraction, or the error's type and text."
    try:
        got = parse(v)
    except Exception as exc:
        return type(exc), str(exc)
    return got if got == INF else Fraction(*got) if isinstance(got, tuple) \
        else got


def random_scalar(rng):
    "A string near the plain integer and ratio forms, or a bare value."
    if rng.random() < 0.1:
        return rng.choice((0, -7, 12, 2.5, -0.125, float("inf"), 1e300,
                           True, False, None, [1], {"a": 1}))
    digits = "".join(rng.choice("0123456789") for _ in range(
        rng.choice((1, 1, 2, 3, 6, 30))))
    if rng.random() < 0.1:
        k = rng.randint(0, len(digits))
        digits = digits[:k] + rng.choice((" ", "_", "-", "\t")) + digits[k:]
    s = rng.choice(("", "", "", "-", "+", " ", "--", "-+")) + digits
    if rng.random() < 0.4:
        s += "/" + rng.choice(("0", "00", "1", "3", "12", "007", "",
                               "-2", "4/5", "0x1"))
    if rng.random() < 0.3:
        s += rng.choice(("e3", "E-2", "e+0_1", "e99999", ".5", ".", "_1",
                         " ", "\n", "x", "/", "٣"))
    if rng.random() < 0.05:
        s = rng.choice(("inf", " inf", "-inf", "Infinity", "nan", "", "/",
                        "-", "1" * 4001, "-" + "2" * 4300, "3" * 4301,
                        "1/" + "7" * 4200, "4" * 4000 + "/3"))
    return s


def test_fast_entry_parser_equals_parse_scalar():
    """On accepted and rejected scalars alike, the integer-pair parser
    gives parse_scalar's value, or its error type and message."""
    rng = random.Random(8128)
    kinds = {"fast": 0, "value": 0, "error": 0}
    for _ in range(6000):
        v = random_scalar(rng)
        want = outcome(parse_scalar, v)
        assert outcome(_parse_ratio, v) == want, v
        if want != INF and isinstance(want, Fraction):
            assert _parse_ratio(v) == (want.numerator, want.denominator), v
        if isinstance(want, tuple):
            kinds["error"] += 1
        else:
            kinds["value"] += 1
            kinds["fast"] += isinstance(v, str) and v.lstrip("-").replace(
                "/", "", 1).isdigit()
    assert min(kinds.values()) > 500
    edge = ["٣", "²", "３", "1_0", " 1", "1 ", "+1", "-0", "00/04", "3/0",
            "0/0", "1/2/3", "٣/4", "4/٣", "1/²", "12/", "/12"]
    for k in (4000, 4001, 4301):
        edge += ["7" * k, "-" + "7" * k, "7" * k + "/3", "1/" + "3" * k,
                 "6" * k + "/" + "4" * k]
    for v in edge:
        want = outcome(parse_scalar, v)
        assert outcome(_parse_ratio, v) == want, v
        if isinstance(want, Fraction):
            assert _parse_ratio(v) == (want.numerator, want.denominator), v


def test_points_read_and_write_as_through_parse_scalar():
    """parse_point gives parse_scalar's values (or its error type and
    message), and fmt_point writes them as the Fraction reference
    writes them, for every spelling parse_scalar accepts: spaces,
    exponents, signs, floats and bare numbers.  A zero denominator is
    still an error."""
    def reference(obj):
        try:
            p = tuple(parse_scalar(v) for v in obj)
        except Exception as exc:
            return type(exc), str(exc)
        return p, ["inf" if v == INF else _fmt_ratio(
            Fraction(v).numerator, Fraction(v).denominator) for v in p]

    def fast(obj):
        try:
            p = parse_point(obj)
        except Exception as exc:
            return type(exc), str(exc)
        assert all(v is INF or type(v) is Fraction for v in p)
        return p, fmt_point(p)

    rng = random.Random(1729)
    values = errors = 0
    for _ in range(3000):
        obj = [random_scalar(rng) for _ in range(rng.randint(1, 4))]
        want = reference(obj)
        assert fast(obj) == want, obj
        errors += isinstance(want[0], type)
        values += not isinstance(want[0], type)
    assert values > 500 and errors > 500
    for zero in ("1/0", "-3/00", " 2/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_point(["1", zero])
    assert fmt_point(parse_point([" 3 ", "+3", "1e3", "-1.5E-2", 0.1, 7,
                                  "6/4", " inf", 1e400])) == \
        ["3", "3", "1000", "-3/200", "1/10", "7", "3/2", "inf", "inf"]
    assert [fmt_scalar(v) for v in (INF, 0.5, -2, Fraction(-6, 4))] == \
        ["inf", "1/2", "-2", "-3/2"]


def test_entries_share_the_lcm_of_their_reduced_denominators(monkeypatch):
    """Whole numbers written over many distinct denominators ("k/k",
    "2q/q") reach the constructor over den 1, not over the lcm of the
    written denominators; real fractions give the lcm of their reduced
    ones."""
    seen = []

    class Spy(ValuatedMatroid):
        def __init__(self, n, d, entries, den=None, slots=None):
            seen.append(den)
            super().__init__(n, d, entries, den, slots)

    monkeypatch.setattr(jsonio, "ValuatedMatroid", Spy)
    rng = random.Random(48620)
    keys = [mask_to_key(b) for b in ksubsets(14, 7)]
    qs = [rng.randint(10 ** 39, 10 ** 40) for _ in keys]
    for entries, den in (
            ({key: "%d/%d" % (k, k) for k, key in enumerate(keys, 1)}, 1),
            ({key: "%d/%d" % (2 * q, q) for q, key in zip(qs, keys)}, 1),
            ({key: "%d/%d" % (3 * q, 2 * q) if k % 2 else "-%d/%d" % (q, 3 * q)
              for k, (q, key) in enumerate(zip(qs, keys))}, 6)):
        seen.clear()
        vm = jsonio.parse_valuated({"n": 14, "rank": 7, "entries": entries})
        assert seen == [den] and vm.den in (1, den)


def test_formatting_from_integers_equals_fmt_scalar():
    """Each entry written from (ints[b], den) reads as fmt_scalar of the
    Fraction, INF and the digit-limit error included; so does each entry
    of a valuation over den 1, which fmt_valuated writes with no gcd."""
    rng = random.Random(4300)
    for _ in range(3000):
        den = rng.choice((1, 1, 2, 6, rng.randint(1, 10 ** 6)))
        num = rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30))
        assert _fmt_ratio(num, den) == fmt_scalar(Fraction(num, den))
    assert _fmt_ratio(INF, 7) == fmt_scalar(INF) == "inf"
    limit = sys.get_int_max_str_digits()
    for num, den in ((10 ** limit, 1), (-10 ** limit, 3), (1, 10 ** limit),
                     (10 ** limit * 6, 3 * 10 ** limit + 3)):
        with pytest.raises(ValueError) as fast:
            _fmt_ratio(num, den)
        with pytest.raises(ValueError) as ref:
            fmt_scalar(Fraction(num, den))
        assert str(fast.value) == str(ref.value) == \
            "output scalar beyond the %d-digit limit" % limit
    assert _fmt_ratio(10 ** limit * 3, 3 * 10 ** limit) == "1"
    for _ in range(200):
        d = rng.randint(0, 4)
        n = rng.randint(max(d, 1), 7)
        slots = ksubsets(n, d)
        table = {b: rng.choice((INF, 0, rng.randint(-10 ** 20, 10 ** 20)))
                 for b in slots}
        table[rng.choice(slots)] = rng.randint(-5, 5)
        vm = ValuatedMatroid(n, d, table, 1)
        assert vm.den == 1
        assert fmt_valuated(vm)["entries"] == {
            mask_to_key(b): fmt_scalar(v) for b, v in vm.table.items()}
    below = ValuatedMatroid(4, 2, {3: 0, 5: INF, 6: 10 ** (limit - 1)}, 1)
    assert fmt_valuated(below)["entries"]["2,3"] == "1" + "0" * (limit - 1)
    beyond = ValuatedMatroid(4, 2, {3: 0, 5: INF, 6: 10 ** limit}, 1)
    assert beyond.den == 1
    with pytest.raises(ValueError) as fast:
        fmt_valuated(beyond)
    assert str(fast.value) == \
        "output scalar beyond the %d-digit limit" % limit


def test_slot_tables_stay_within_their_budget(monkeypatch):
    """With MAX_SLOTS patched to 40, the slot tables kept never weigh
    more than 40 in all: each new shape evicts the oldest tables first,
    a shape met again is not rebuilt, and tables of exactly the budget
    are kept.  A table weighs its slot count while n < 30 and its keys
    are shorter than 30 characters."""
    monkeypatch.setattr(util, "MAX_SLOTS", 40)
    monkeypatch.setattr(util, "_SLOT_TABLES", util.BoundedMemo())

    def kept():
        tables = util._SLOT_TABLES
        assert tables.size == sum(c for c, _ in tables.values()) <= 40
        return list(tables)

    first = slot_table(6, 3)                 # 20 slots
    slot_table(5, 2)                         # 10
    assert kept() == [(6, 3), (5, 2)]
    assert util._SLOT_TABLES.size == 30
    assert slot_table(6, 3) is first
    slot_table(6, 2)                         # 15: (6, 3) goes
    assert kept() == [(5, 2), (6, 2)]
    slot_table(4, 2)                         # 6
    slot_table(7, 2)                         # 21: (5, 2) and (6, 2) go
    assert kept() == [(4, 2), (7, 2)]
    assert slot_table(6, 3) is not first     # 20: (4, 2) and (7, 2) go
    slot_table(20, 1)                        # 20, the rest of the budget
    assert kept() == [(6, 3), (20, 1)]
    assert util._SLOT_TABLES.size == 40


def test_wide_slot_tables_are_weighed_by_mask_and_key_size(monkeypatch):
    """A slot weighs one more per 30 bits of n and per 30 characters of
    the shape's longest key.  With MAX_SLOTS patched to 40, the 35
    slots of (35, 1) weigh 70 and the 25 slots of (25, 24), whose keys
    run to 63 characters, weigh 75: neither table is kept, each is
    built afresh on every call, and the tables kept stay as they were."""
    monkeypatch.setattr(util, "MAX_SLOTS", 40)
    monkeypatch.setattr(util, "_SLOT_TABLES", util.BoundedMemo())
    narrow = slot_table(5, 2)
    assert list(util._SLOT_TABLES.items()) == [((5, 2), (10, narrow))]
    for n, k in ((35, 1), (25, 24)):
        wide = slot_table(n, k)
        assert wide.masks == tuple(ksubsets(n, k))
        assert slot_table(n, k) is not wide
        assert list(util._SLOT_TABLES.items()) == [((5, 2), (10, narrow))]
    assert len(slot_table(25, 24).keys[-1]) == 63
    monkeypatch.setattr(util, "MAX_SLOTS", 75)
    slot_table(25, 24)
    assert list(util._SLOT_TABLES) == [(25, 24)]
    assert util._SLOT_TABLES.size == 75


def test_a_heavy_table_is_built_once_per_valuation(monkeypatch, tmp_path):
    """With MAX_SLOTS patched to 40, the 35-slot tables of (35, 1) and
    (35, 34) are too heavy to keep, so each valuation builds its own:
    the parser builds one and hands it to the constructor, and the
    printer reads the table its valuation carries.  stiefel on one row
    builds 1 (the constructor), dual 2 (parse, the dual) and
    check-pluecker 1."""
    monkeypatch.setattr(util, "MAX_SLOTS", 40)
    monkeypatch.setattr(util, "_SLOT_TABLES", util.BoundedMemo())
    built, table = [], util.SlotTable

    def counted(*parts):
        built.append(len(parts[0]))
        return table(*parts)

    monkeypatch.setattr(util, "SlotTable", counted)
    row = [str(j % 3) for j in range(35)]
    valuation = {"n": 35, "rank": 1,
                 "entries": {str(j + 1): v for j, v in enumerate(row)}}
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    for command, payload, builds in (("stiefel", [row], 1),
                                     ("dual", valuation, 2),
                                     ("check-pluecker", valuation, 1)):
        src.write_text(json.dumps(payload))
        del built[:]
        assert run([command, "--input", str(src), "--output",
                    str(dst)]) == 0
        assert built == [35] * builds
        assert not util._SLOT_TABLES


def test_valuations_round_trip_on_integers():
    """fmt_valuated writes fmt_scalar of every Fraction entry, and
    parse_valuated reads it back to the same valuation with the same
    den and ints: for Stiefel images as they are, and scaled and
    shifted by fractions, so that the written entries (least one 0)
    differ from the ones the valuation was built from."""
    rng = random.Random(99)
    for _ in range(200):
        d = rng.randint(1, 4)
        image = random_valuation(rng, d, rng.randint(d, 7),
                                 inf_prob=rng.uniform(0, 0.3))
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 12))
        shift = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        moved = ValuatedMatroid(image.n, image.d, {
            b: v if v == INF else v * scale + shift
            for b, v in image.table.items()})
        for vm in (image, moved):
            out = fmt_valuated(vm)
            assert out["entries"] == {mask_to_key(b): fmt_scalar(v)
                                      for b, v in vm.table.items()}
            back = parse_valuated(out)
            assert back == vm
            assert (back.den, back.ints) == (vm.den, vm.ints)


def respell(rng, key):
    "The same d-set in another spelling: shuffled, space-padded, zero-led."
    parts = key.split(",") if key else []
    rng.shuffle(parts)
    parts = [rng.choice(("", " ", "0", "\t")) + p + rng.choice(("", " "))
             for p in parts]
    return ",".join(parts) + rng.choice(("", "", ",", " ,"))


def key_outcome(parse, key, n, d):
    "The error type and text of one key, or None when it is accepted."
    try:
        mask = parse(key, n)
    except ValueError as exc:
        return ValueError, str(exc)
    if mask.bit_count() != d:
        return ValueError, "entry key %r is not a %d-subset" % (key, d)
    return None


def test_key_table_equals_the_per_key_reference():
    """slot_table, ksubsets and submasks equal their per-combination
    references for every n <= 10; parse_valuated reads canonical and
    respelled keys to the same table and den, and refuses malformed
    keys with key_to_mask's errors."""
    rng = random.Random(1729)
    for n in range(11):
        for k in range(n + 1):
            want = sorted(mask_of(c) for c in combinations(range(n), k))
            assert ksubsets(n, k) == want
            table = slot_table(n, k)
            assert list(table.masks) == want
            assert table.maskset == set(want)
            assert table.keys == tuple(mask_to_key(b) for b in want)
            assert table.index == {mask_to_key(b): b for b in want}
            mask = rng.getrandbits(n)
            assert submasks(mask, k) == sorted(
                mask_of(c) for c in combinations(elems(mask), k))
    respelled = errors = 0
    for _ in range(150):
        d = rng.randint(0, 4)
        n = rng.randint(max(d, 1), 7)
        vm = (random_valuation(rng, d, n, inf_prob=rng.uniform(0, 0.3))
              if d else ValuatedMatroid(n, 0, {0: rng.randint(-5, 5)}))
        out = fmt_valuated(vm)
        kept = {key: val for key, val in out["entries"].items()
                if val != "inf" or rng.random() < 0.5}
        entries = {respell(rng, key) if rng.random() < 0.5 else key: val
                   for key, val in kept.items()}
        respelled += sum(key not in kept for key in entries)
        want = parse_valuated(dict(out, entries=kept))
        back = parse_valuated(dict(out, entries=entries))
        assert want == vm
        assert back.ints == want.ints and back.den == want.den
        for key in ("%d" % (n + 1), "0", "1,1", "1,%d" % (n + 1),
                    ",".join(map(str, range(1, d + 2))), "1 2", "x",
                    rng.choice(list(entries)) + ",1", 7, None, (1, 2)):
            want = key_outcome(key_to_mask, key, n, d)
            if want is None:
                continue
            bad = dict(entries)
            bad[key] = "0"
            with pytest.raises(ValueError) as err:
                parse_valuated(dict(out, entries=bad))
            assert (ValueError, str(err.value)) == want, key
            errors += 1
    assert respelled > 500 and errors > 900
