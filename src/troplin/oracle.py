"""Brute-force references that bench/checker.py compares answers with.

Everything here trades time for obviousness: permutation enumeration
instead of augmenting paths, and cells closed under every subset
direction instead of flats.  Only what the checker runs lives here, since
every benchmark process imports this module; the test suite's other
references are in tests/reference.py.
"""

from itertools import permutations

from .errors import OutOfDomain
from .matroid import Matroid
from .trop import INF, ZERO
from .util import elems, ksubsets
from .valuated import ValuatedMatroid, maximal_cells


def trop_minor_bruteforce(a, cols):
    "Min over explicit permutations; rows capped at 6."
    if isinstance(cols, int):
        cols = elems(cols)
    else:
        cols = sorted(cols)
    d = len(a)
    if d > 6:
        raise ValueError("enumeration capped at 6 rows")
    if len(cols) != d:
        raise ValueError("column set size must equal the row count")
    best = INF
    for perm in permutations(cols):
        total = ZERO
        for i in range(d):
            v = a[i][perm[i]]
            if v == INF:
                total = INF
                break
            total += v
        if total < best:
            best = total
    return best


def stiefel_bruteforce(a):
    d, n = len(a), len(a[0])
    entries = {}
    any_finite = False
    for b in ksubsets(n, d):
        v = trop_minor_bruteforce(a, b)
        entries[b] = v
        if v != INF:
            any_finite = True
    if not any_finite:
        raise OutOfDomain("every maximal minor is infinite")
    return ValuatedMatroid(n, d, entries)


def cell_complex_bruteforce(vm):
    """All loop-free cells, by closing the maximal ones under every
    subset-direction face (not just flats).  Returns a set of basis
    tuples."""
    seen = {c.matroid.bases for c in maximal_cells(vm)}
    queue = list(seen)
    while queue:
        bases = queue.pop()
        m = Matroid(vm.n, bases, check=False)
        for s in range(1, vm.full):
            r = m.rank(s)
            keep = tuple(b for b in bases if (b & s).bit_count() == r)
            if keep == bases or keep in seen:
                continue
            km = Matroid(vm.n, keep, check=False)
            if km.loops():
                continue  # loopy faces only beget loopy faces
            seen.add(keep)
            queue.append(keep)
    return seen
