"""JSON (de)serialization for the CLI formats.

Scalars travel as strings: "inf", or a rational in lowest terms like
"3", "-7/2".  Bare JSON numbers are accepted on input: the CLI hands
over a bare number with a fraction or an exponent as its text, read
here as a string scalar, and a Python float goes through its decimal
representation, so 0.1 means 1/10 either way.  Ground-set
elements are 1-based everywhere; subsets are sorted element lists.
d-subset table keys are written in the canonical comma-joined spelling
("1,3,4"); on input any order and spacing is accepted ("3, 1,4"), and
a d-set named by two keys is refused.  Canonical keys are read through
the shape's util.slot_table and written through the valuation's own
table; other spellings go through key_to_mask.
Valuation entries are read straight to integers over their lcm and
written from the valuation's integer table, with no Fraction per entry;
point coordinates are read through the same split, one Fraction each,
with no string parse.
"""

import json
import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import TooLarge
from .gammoid import WeightedDigraph
from .matroid import Matroid
from .trop import INF
from .util import MAX_SLOTS, list1, slot_table
from .valuated import ValuatedMatroid


# A decimal exponent costs time and bits that grow with its size, so
# string scalars may shift by at most 10^4300.  Python writes out ints
# of at most 4300 digits by default, and in-bound scalars can exceed
# that: 1e4300 has 4301 digits, and differences of entries grow further.
# So fmt_scalar refuses such output with its own message.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\Z")
# _parse_ratio splits at most this many digits per integer, within
# Python's 4300-digit int() limit.
_SPLIT_DIGITS = 4000


def parse_scalar(v):
    if isinstance(v, str):
        s = v.strip()
        if s == "inf":
            return INF
        exp = ("e" in s or "E" in s) and _EXPONENT.search(s)
        if exp:
            digits = exp.group(1).replace("_", "").lstrip("0")
            if len(digits) > 4 or int(digits or 0) > MAX_EXPONENT:
                raise ValueError("exponent beyond %d in scalar %r"
                                 % (MAX_EXPONENT, v))
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError("zero denominator in scalar %r" % (v,)) from None
    if isinstance(v, bool):
        raise ValueError("not a scalar: %r" % (v,))
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if v == INF:
            return INF
        return Fraction(str(v))
    raise ValueError("not a scalar: %r" % (v,))


def fmt_scalar(v):
    """An int, Fraction or float as parse_scalar reads it back: inf is
    the one float the library hands out, told by type; a finite float
    is written exactly."""
    if isinstance(v, float):
        if v == INF:
            return "inf"
        v = Fraction(v)
    return _fmt_ratio(v.numerator, v.denominator)


def _parse_ratio(v):
    """parse_scalar(v) as INF or a (numerator, denominator) pair in
    lowest terms, so that the lcm over a table's entries is the lcm of
    their reduced denominators.  Plain ASCII "-?digits" and
    "-?digits/digits" strings are split here, with no Fraction parse;
    every other form, and a zero denominator, goes through
    parse_scalar."""
    if isinstance(v, str):
        num, slash, den = v.partition("/")
        mag = num[1:] if num[:1] == "-" else num
        if mag.isdigit() and mag.isascii() and len(mag) <= _SPLIT_DIGITS:
            if not slash:
                return int(num), 1
            if (den.isdigit() and den.isascii()
                    and len(den) <= _SPLIT_DIGITS and den.strip("0")):
                num, den = int(num), int(den)
                g = gcd(num, den)
                return num // g, den // g
    v = parse_scalar(v)
    return v if v is INF else (v.numerator, v.denominator)


def _fmt_ratio(num, den):
    """num / den in lowest terms, as fmt_scalar writes it, INF as "inf";
    refused with a ValueError beyond Python's digit limit."""
    if num == INF:
        return "inf"
    try:
        if den == 1:
            return str(num)
        g = gcd(num, den)
        if g == den:
            return str(num // g)
        return "%d/%d" % (num // g, den // g)
    except ValueError:
        raise ValueError("output scalar beyond the %d-digit limit"
                         % sys.get_int_max_str_digits()) from None


def parse_point(obj):
    """A tuple of parse_scalar values, read through _parse_ratio: a
    plain ratio string costs no Fraction parse."""
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError("point must be a nonempty list")
    return tuple(v if v is INF else Fraction(*v)
                 for v in map(_parse_ratio, obj))


def fmt_point(p):
    return [fmt_scalar(v) for v in p]


def parse_matrix(obj):
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError("matrix must be a nonempty list of rows")
    rows = [parse_point(r) for r in obj]
    if len({len(r) for r in rows}) != 1:
        raise ValueError("ragged matrix")
    return rows


def fmt_matrix(a):
    return [fmt_point(r) for r in a]


def parse_elements(obj, n):
    "1-based element list -> bitmask."
    if not isinstance(obj, (list, tuple)):
        raise ValueError("subset must be a list of 1-based elements")
    mask = 0
    for e in obj:
        if isinstance(e, bool) or not isinstance(e, int) or not 1 <= e <= n:
            raise ValueError("element %r out of range 1..%d" % (e, n))
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError("repeated element %d" % e)
        mask |= bit
    return mask


def key_to_mask(key, n):
    if not isinstance(key, str):
        raise ValueError("entry key must be a string")
    parts = [p for p in key.split(",") if p.strip()]
    return parse_elements([int(p) for p in parts], n)


def _get_n(obj):
    """The ground-set size, refused beyond MAX_SLOTS before anything is
    built: C(n, 0) = C(n, n) = 1 passes the slot bound at any n, but
    every ground set costs n-bit masks."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
        raise ValueError("need a positive integer n")
    if n > MAX_SLOTS:
        raise TooLarge("n = %d exceeds %d" % (n, MAX_SLOTS),
                       witness={"n": n, "limit": MAX_SLOTS})
    return n


def parse_matroid(obj):
    n = _get_n(obj)
    if not isinstance(obj.get("bases"), list):
        raise ValueError("matroid needs a list of bases")
    d = obj.get("rank")
    if "rank" in obj and (isinstance(d, bool) or not isinstance(d, int)):
        raise ValueError("matroid rank must be an integer")
    bases = [parse_elements(b, n) for b in obj["bases"]]
    m = Matroid(n, bases, check=True)
    if "rank" in obj and m.d != d:
        raise ValueError("rank field disagrees with the bases")
    return m


def fmt_matroid(m):
    return {"n": m.n, "rank": m.d, "bases": [list1(b) for b in m.bases]}


def _slot_of(key, n, d):
    "The d-subset mask of an entry key in any spelling."
    mask = key_to_mask(key, n)
    if mask.bit_count() != d:
        raise ValueError("entry key %r is not a %d-subset" % (key, d))
    return mask


def parse_valuated(obj):
    """The valuation of a JSON object, its entries read straight to
    integers over their lcm.  The shape's slot table refuses a rank out
    of range or too many slots before any is listed; a canonical key
    costs one lookup in it."""
    n = _get_n(obj)
    d = obj.get("rank")
    if isinstance(d, bool) or not isinstance(d, int):
        raise ValueError("valuation needs an integer rank")
    table = obj.get("entries")
    if not isinstance(table, dict):
        raise ValueError("valuation needs an entries table")
    masks = slot_table(n, d).index
    entries = {}
    for key, val in table.items():
        mask = masks.get(key)
        if mask is None:
            mask = _slot_of(key, n, d)
        entries[mask] = _parse_ratio(val)
    if len(entries) < len(table):
        _refuse_repeated_sets(table, n, d)
    den = lcm(*(v[1] for v in entries.values() if v is not INF))
    ints = {b: v if v is INF else v[0] * (den // v[1])
            for b, v in entries.items()}
    # missing keys mean inf, so sparse input needs no special casing
    return ValuatedMatroid(n, d, ints, den)


def _refuse_repeated_sets(table, n, d):
    "Name the first d-set that two keys of table spell."
    first = {}
    for key in table:
        mask = _slot_of(key, n, d)
        if mask in first:
            raise ValueError("entry keys %r and %r name the same %d-subset"
                             % (first[mask], key, d))
        first[mask] = key


def fmt_valuated(vm):
    """The JSON object of vm: the canonical keys of the slot table it
    carries paired with ints, which is in the same slot order."""
    den = vm.den
    entries = dict(zip(vm.slots.keys,
                       [_fmt_ratio(v, den) for v in vm.ints.values()]))
    return {"n": vm.n, "rank": vm.d, "entries": entries, "sparse": False}


def fmt_sets(n, sets):
    return {"n": n, "sets": [list1(s) for s in sets]}


def parse_digraph(obj):
    n = _get_n(obj)
    sinks = parse_elements(obj.get("sinks", []), n)
    weights = {}
    for edge in obj.get("edges", []):
        if not isinstance(edge, dict):
            raise ValueError("edge must be an object")
        i, j = edge.get("from"), edge.get("to")
        for v in (i, j):
            if isinstance(v, bool) or not isinstance(v, int) \
                    or not 1 <= v <= n:
                raise ValueError("edge endpoint %r out of range" % (v,))
        if (i - 1, j - 1) in weights:
            raise ValueError("duplicate edge %d -> %d" % (i, j))
        weights[(i - 1, j - 1)] = parse_scalar(edge.get("w", 0))
    return WeightedDigraph(n, sinks, weights)


def fmt_digraph(g):
    edges = [{"from": i + 1, "to": j + 1, "w": fmt_scalar(w)}
             for (i, j), w in sorted(g.edges.items())]
    return {"n": g.n, "sinks": list1(g.sinks), "edges": edges}


def dumps(obj, pretty=False):
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
