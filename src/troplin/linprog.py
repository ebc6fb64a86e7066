"""Tiny exact two-phase simplex over Fractions, for the escape regions.

Problems here have a handful of free rational variables, so each one is
split into a difference of nonnegatives and everything runs under
Bland's rule (no cycling, no floats, no tolerance knobs).

Rows are first brought to "<=" or "=" form and reduced to one row per
distinct constraint (distinct_rows): of several "<=" rows with the same
left side only the tightest is kept, and all-zero rows are dropped or,
when they cannot hold, decide infeasibility outright.  A "<=" row with
a nonnegative right-hand side starts basic on its own slack; only
equalities and rows with a negative right-hand side get an artificial
variable, and phase 1 runs only when there is one.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(tab, obj, basis, r, c):
    piv = tab[r][c]
    tab[r] = [v / piv for v in tab[r]]
    for i, row in enumerate(tab):
        if i != r and row[c] != 0:
            f = row[c]
            tab[i] = [v - f * w for v, w in zip(row, tab[r])]
    if obj[c] != 0:
        f = obj[c]
        for j, w in enumerate(tab[r]):
            obj[j] -= f * w
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
        leave = -1
        best = None
        for i, row in enumerate(tab):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tab, obj, basis, leave, enter)


def distinct_rows(constraints):
    """The constraints as (coeffs, rel, rhs) rows, rel "<=" or "=", one
    per distinct constraint, in order of first appearance.

    ">=" rows are negated.  Of "<=" rows with equal coefficient tuples
    only the least rhs is kept; repeated equalities are kept once.
    All-zero rows that always hold are dropped.  Returns None when the
    rows cannot all hold: an all-zero row with a negative rhs (or a
    nonzero one for "="), or one left side equated to two values.
    """
    seen = {}
    for coeffs, rel, rhs in constraints:
        coeffs = tuple(Fraction(c) for c in coeffs)
        rhs = Fraction(rhs)
        if rel == ">=":
            coeffs = tuple(-c for c in coeffs)
            rhs = -rhs
            rel = "<="
        elif rel not in ("<=", "="):
            raise ValueError("bad relation %r" % (rel,))
        if not any(coeffs):
            if rhs < 0 or (rel == "=" and rhs != 0):
                return None
            continue
        old = seen.setdefault((rel, coeffs), rhs)
        if rel == "=" and old != rhs:
            return None
        if rhs < old:
            seen[rel, coeffs] = rhs
    return [(list(c), rel, rhs) for (rel, c), rhs in seen.items()]


def solve_lp(num_vars, objective, constraints):
    """Maximize objective . x over free rational x subject to constraints.

    constraints: iterable of (coeffs, rel, rhs) with rel in "<=", ">=",
    "=".  Returns (status, value, x) where status is "optimal",
    "infeasible" or "unbounded"; value and x are None unless optimal.
    """
    rows = distinct_rows(constraints)
    if rows is None:
        return "infeasible", None, None
    nslack = sum(1 for _, rel, _ in rows if rel == "<=")
    nreal = 2 * num_vars + nslack
    nart = sum(1 for _, rel, rhs in rows if rel == "=" or rhs < 0)
    ncols = nreal + nart
    tab = []
    basis = []
    si = 0
    ai = nreal
    for coeffs, rel, rhs in rows:
        row = [ZERO] * (ncols + 1)
        for j, c in enumerate(coeffs):
            row[2 * j] = c
            row[2 * j + 1] = -c
        if rel == "<=":
            row[2 * num_vars + si] = ONE
            si += 1
        row[-1] = rhs
        if rhs < 0:
            row = [-v for v in row]
        if rel == "<=" and rhs >= 0:
            basis.append(2 * num_vars + si - 1)
        else:
            row[ai] = ONE
            basis.append(ai)
            ai += 1
        tab.append(row)

    if nart:
        # phase 1: maximize minus the artificial sum
        obj = [ZERO] * (ncols + 1)
        for i, b in enumerate(basis):
            if b >= nreal:
                for j in range(ncols + 1):
                    obj[j] -= tab[i][j]
        for j in range(nreal, ncols):
            obj[j] = ZERO
        _run(tab, obj, basis, ncols)
        if obj[-1] < 0:
            return "infeasible", None, None

        # drive leftover artificials out of the basis, drop redundant rows
        keep = []
        for i in range(len(tab)):
            if basis[i] < nreal:
                keep.append(i)
                continue
            piv = next((j for j in range(nreal) if tab[i][j] != 0), None)
            if piv is not None:
                _pivot(tab, obj, basis, i, piv)
                keep.append(i)
        tab = [tab[i][:nreal] + [tab[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    # phase 2
    obj = [ZERO] * (nreal + 1)
    for j, c in enumerate(objective):
        obj[2 * j] = -Fraction(c)
        obj[2 * j + 1] = Fraction(c)
    for i, b in enumerate(basis):
        if obj[b] != 0:
            f = obj[b]
            for j, w in enumerate(tab[i]):
                obj[j] -= f * w
    status = _run(tab, obj, basis, nreal)
    if status != "optimal":
        return status, None, None
    vals = [ZERO] * nreal
    for i, b in enumerate(basis):
        vals[b] = tab[i][-1]
    x = [vals[2 * j] - vals[2 * j + 1] for j in range(num_vars)]
    return "optimal", obj[-1], x
