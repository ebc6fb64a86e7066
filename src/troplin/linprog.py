"""Tiny exact two-phase simplex on an integer tableau, for the escape regions.

Problems here have a handful of free rational variables, so each one is
split into a difference of nonnegatives and everything runs under
Bland's rule (no cycling, no floats, no tolerance knobs).

Every row (coeffs, rhs) means coeffs . x <= rhs.  Rows are reduced to
one per distinct left side (distinct_rows): only the tightest is kept,
and all-zero rows are dropped or, when they cannot hold, decide
infeasibility outright.  A row with a nonnegative right-hand side
starts basic on its own slack; only rows with a negative right-hand
side get an artificial variable, and phase 1 runs only when there is
one.

The tableau holds integers (integer-preserving pivoting, after Edmonds
1967 and Bareiss 1968): a row starts as its constraint times the lcm of
its denominators (1 for a row of ints) and stays a positive multiple of
the row of a Fraction tableau, reduced by its gcd, with that multiple
as its basic entry; the objective row ends in one positive denominator.
Signs and ratios compare as on Fractions, so the pivots, status, value
and x are the same.
"""

from fractions import Fraction
from math import gcd, lcm

from .trop import integer_scaled

ZERO = Fraction(0)


def _eliminate(row, prow, c):
    """p*row - f*prow over its gcd, for p = prow[c] > 0 and f = row[c];
    entries past the end of prow (a denominator) are multiplied by p."""
    p, f = prow[c], row[c]
    out = [p * v - f * w for v, w in zip(row, prow)]
    out += [p * v for v in row[len(prow):]]
    g = gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _pivot(tab, obj, basis, r, c):
    if tab[r][c] < 0:
        tab[r] = [-v for v in tab[r]]
    prow = tab[r]
    for i, row in enumerate(tab):
        if i != r and row[c] != 0:
            tab[i] = _eliminate(row, prow, c)
    if obj[c] != 0:
        obj[:] = _eliminate(obj, prow, c)
    basis[r] = c


def _run(tab, obj, basis, ncols):
    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        # least row[-1] / row[enter] over row[enter] > 0, as num / den
        leave, num, den = -1, 0, 1
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                cmp = row[-1] * den - num * a
                if leave < 0 or cmp < 0 or (
                        cmp == 0 and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
        if leave < 0:
            return "unbounded"
        _pivot(tab, obj, basis, leave, enter)


def distinct_rows(constraints):
    """The (coeffs, rhs) rows, one per distinct left side, in order of
    first appearance: of rows with equal coefficient tuples only the
    least rhs is kept, and all-zero rows that always hold are dropped.
    Returns None when an all-zero row has a negative rhs, so the rows
    cannot all hold.  Entries that are ints stay ints; others become
    Fractions.
    """
    seen = {}
    for coeffs, rhs in constraints:
        coeffs = tuple(c if type(c) is int else Fraction(c) for c in coeffs)
        rhs = rhs if type(rhs) is int else Fraction(rhs)
        if not any(coeffs):
            if rhs < 0:
                return None
            continue
        if rhs < seen.setdefault(coeffs, rhs):
            seen[coeffs] = rhs
    return [(list(c), rhs) for c, rhs in seen.items()]


def solve_lp(num_vars, objective, constraints):
    """Maximize objective . x over free rational x subject to constraints.

    constraints: iterable of (coeffs, rhs) rows, each meaning
    coeffs . x <= rhs.  Returns (status, value, x) where status is
    "optimal", "infeasible" or "unbounded"; value and x are Fractions,
    or None unless optimal.
    """
    rows = distinct_rows(constraints)
    if rows is None:
        return "infeasible", None, None
    nreal = 2 * num_vars + len(rows)
    nart = sum(1 for _, rhs in rows if rhs < 0)
    ncols = nreal + nart
    tab = []
    basis = []
    ai = nreal
    for i, (coeffs, rhs) in enumerate(rows):
        k, ints = integer_scaled([*coeffs, rhs])
        row = [0] * (ncols + 1)
        for j, c in enumerate(ints[:-1]):
            row[2 * j] = c
            row[2 * j + 1] = -c
        row[2 * num_vars + i] = k
        row[-1] = ints[-1]
        if rhs < 0:
            row = [-v for v in row]
            row[ai] = k
            basis.append(ai)
            ai += 1
        else:
            basis.append(2 * num_vars + i)
        tab.append(row)

    if nart:
        # phase 1: maximize minus the artificial sum (rows over their k)
        den = lcm(*(tab[i][b] for i, b in enumerate(basis) if b >= nreal))
        obj = [0] * (ncols + 1) + [den]
        for i, b in enumerate(basis):
            if b >= nreal:
                f = den // tab[i][b]
                for j in range(ncols + 1):
                    obj[j] -= f * tab[i][j]
        obj[nreal:ncols] = [0] * nart
        _run(tab, obj, basis, ncols)
        if obj[-2] < 0:
            return "infeasible", None, None

        # drive leftover artificials out of the basis: the slacks make
        # the rows independent, so each has a nonzero real entry
        for i, b in enumerate(basis):
            if b >= nreal:
                _pivot(tab, obj, basis, i,
                       next(j for j in range(nreal) if tab[i][j] != 0))
        tab = [row[:nreal] + [row[-1]] for row in tab]

    # phase 2
    den, ints = integer_scaled([Fraction(c) for c in objective])
    obj = [0] * (nreal + 1) + [den]
    for j, c in enumerate(ints):
        obj[2 * j] = -c
        obj[2 * j + 1] = c
    for i, b in enumerate(basis):
        if obj[b] != 0:
            obj[:] = _eliminate(obj, tab[i], b)
    status = _run(tab, obj, basis, nreal)
    if status != "optimal":
        return status, None, None
    vals = [ZERO] * nreal
    for i, b in enumerate(basis):
        vals[b] = Fraction(tab[i][-1], tab[i][b])
    x = [vals[2 * j] - vals[2 * j + 1] for j in range(num_vars)]
    return "optimal", Fraction(obj[-2], obj[-1]), x
