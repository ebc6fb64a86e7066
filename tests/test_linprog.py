import random
from fractions import Fraction

from reference import lp_bruteforce
from troplin import linprog
from troplin.linprog import distinct_rows, solve_lp


def test_single_variable_cap():
    status, value, x = solve_lp(1, [1], [([1], 5)])
    assert (status, value) == ("optimal", 5)
    assert x == [5]


def test_two_variables_on_a_face():
    status, value, x = solve_lp(
        2, [1, 1],
        [([1, 0], 3), ([0, 1], 4), ([1, 1], 5)])
    assert (status, value) == ("optimal", 5)
    assert x[0] <= 3 and x[1] <= 4 and x[0] + x[1] == 5


def test_fractional_optimum_is_exact():
    status, value, x = solve_lp(1, [1], [([2], 1)])
    assert status == "optimal"
    assert value == Fraction(1, 2)
    assert isinstance(value, Fraction)


def test_equality_with_negative_rhs():
    status, value, x = solve_lp(1, [1], [([1], -2), ([-1], 2)])
    assert (status, value) == ("optimal", -2)
    assert x == [-2]


def test_free_variables_go_negative():
    status, value, x = solve_lp(
        2, [-1, 0],
        [([1, 1], 0), ([-1, -1], 0), ([0, -1], -3), ([0, 1], 7)])
    # maximize -x with x + y = 0 and 3 <= y <= 7, so -x = y = 7
    assert (status, value) == ("optimal", 7)
    assert x == [-7, 7]


def test_infeasible():
    status, value, x = solve_lp(
        1, [1], [([1], -1), ([-1], -1)])
    assert status == "infeasible"
    assert value is None and x is None


def test_unbounded():
    status, value, x = solve_lp(1, [1], [])
    assert status == "unbounded"
    assert value is None and x is None
    status, _, _ = solve_lp(2, [1, 0], [([0, 1], 4)])
    assert status == "unbounded"


def test_redundant_and_trivial_rows():
    cons = [([1], 2), ([1], 2), ([0], 1)]
    status, value, _ = solve_lp(1, [1], cons)
    assert (status, value) == ("optimal", 2)


def counting_runs(monkeypatch):
    "Patch the simplex loop to record how many phases run."
    runs = []
    real = linprog._run

    def counted(tab, obj, basis, ncols):
        runs.append(len(tab))
        return real(tab, obj, basis, ncols)

    monkeypatch.setattr(linprog, "_run", counted)
    return runs


def test_slack_rows_skip_phase_one(monkeypatch):
    runs = counting_runs(monkeypatch)
    status, value, x = solve_lp(
        2, [1, 2], [([1, 1], 4), ([0, 1], 3), ([-1, 0], 0)])
    assert (status, value) == ("optimal", 7)
    assert x == [1, 3]
    assert len(runs) == 1


def test_mixed_rows_run_both_phases(monkeypatch):
    runs = counting_runs(monkeypatch)
    # x + y = 4 (two rows), x >= 1 (negative rhs), 0 <= y <= 5: max x
    status, value, x = solve_lp(
        2, [1, 0], [([1, 1], 4), ([-1, -1], -4), ([-1, 0], -1), ([0, 1], 5),
                    ([0, -1], 0)])
    assert (status, value) == ("optimal", 4)
    assert x == [4, 0]
    assert len(runs) == 2


def test_duplicate_rows_keep_the_tightest():
    cons = [([1, 0], 5), ([1, 0], 3), ([2, 0], 9), ([1, 0], 7), ([1, 0], 4),
            ([0, 1], 1), ([0, -1], -1), ([0, 1], 1), ([0, -1], -1)]
    assert distinct_rows(cons) == [([1, 0], 3), ([2, 0], 9), ([0, 1], 1),
                                   ([0, -1], -1)]
    status, value, x = solve_lp(2, [1, 1], cons)
    assert (status, value) == ("optimal", 4)
    assert x == [3, 1]


def test_all_zero_rows():
    assert distinct_rows([([0, 0], 0), ([0, 0], 2), ([0, 0], 0),
                          ([0, 0], 0)]) == []
    for rows in ([([0, 0], -1)], [([0, 0], -1)], [([0, 0], 2), ([0, 0], -2)]):
        assert distinct_rows([([1, 0], 1), *rows]) is None
        assert solve_lp(2, [1, 0], [([1, 0], 1), *rows]) == (
            "infeasible", None, None)
    # one left side equated to two values
    assert solve_lp(1, [1], [([1], 1), ([-1], -1), ([1], 2), ([-1], -2)]) == (
        "infeasible", None, None)


def le_rows(cons):
    """The (coeffs, rhs) rows of solve_lp for (coeffs, rel, rhs) rows: a
    ">=" row negated, an "=" row as two "<=" rows."""
    out = []
    for coeffs, rel, rhs in cons:
        if rel != ">=":
            out.append((coeffs, rhs))
        if rel != "<=":
            out.append(([-c for c in coeffs], -rhs))
    return out


def random_lp(rng):
    """At most 3 variables and 8 random rows (repeats and all-zero rows
    included), inside the box -10 <= x <= 10, as (coeffs, rel, rhs) for
    lp_bruteforce (le_rows for solve_lp)."""
    nv = rng.randint(1, 3)
    cons = []
    for _ in range(rng.randint(0, 8)):
        if cons and rng.random() < 0.2:
            coeffs = list(rng.choice(cons)[0])
        elif rng.random() < 0.05:
            coeffs = [0] * nv
        else:
            coeffs = [rng.randint(-3, 3) for _ in range(nv)]
        rel = rng.choice(("<=", "<=", ">=", "="))
        cons.append((coeffs, rel, Fraction(rng.randint(-12, 12),
                                           rng.choice((1, 2)))))
    for j in range(nv):
        unit = [0] * nv
        unit[j] = 1
        cons.append((unit, "<=", 10))
        cons.append((unit, ">=", -10))
    objective = [rng.randint(-4, 4) for _ in range(nv)]
    return nv, objective, cons


def test_solve_lp_matches_vertex_enumeration():
    rng = random.Random(6174)
    seen = {"optimal": 0, "infeasible": 0}
    for _ in range(300):
        nv, objective, cons = random_lp(rng)
        rng.shuffle(cons)
        status, value, x = solve_lp(nv, objective, le_rows(cons))
        assert (status, value) == lp_bruteforce(nv, objective, cons)
        seen[status] += 1
        if status == "optimal":
            assert sum(c * v for c, v in zip(objective, x)) == value
            for coeffs, rel, rhs in cons:
                lhs = sum(c * v for c, v in zip(coeffs, x))
                assert {"<=": lhs <= rhs, ">=": lhs >= rhs,
                        "=": lhs == rhs}[rel]
    assert seen["optimal"] > 100 and seen["infeasible"] > 30


def fraction_lp(rng, boxed):
    """At most 3 variables and 8 random rows whose coefficients and
    right-hand sides have denominators 1-6, so rows are scaled by
    different lcms; inside the box -10 <= x <= 10 when boxed.  As
    random_lp, rows are (coeffs, rel, rhs)."""
    nv = rng.randint(1, 3)
    cons = []
    for _ in range(rng.randint(0, 8)):
        if cons and rng.random() < 0.2:
            coeffs = list(rng.choice(cons)[0])
        else:
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                      for _ in range(nv)]
        rel = rng.choice(("<=", "<=", ">=", "="))
        cons.append((coeffs, rel, Fraction(rng.randint(-12, 12),
                                           rng.randint(1, 6))))
    if boxed:
        for j in range(nv):
            unit = [0] * nv
            unit[j] = 1
            cons.append((unit, "<=", 10))
            cons.append((unit, ">=", -10))
    objective = [Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                 for _ in range(nv)]
    return nv, objective, cons


def unboxed_reference(nv, objective, cons):
    """(status, value) by vertex enumeration, for fraction_lp's rows
    with no box.

    Vertices of these rows have coordinates far below 10**12 (Cramer's
    rule on rows scaled to integers below 10**3), so inside that box the
    region is empty iff it is, and otherwise holds an optimum if there
    is one.  The objective is unbounded iff some direction d with
    |d| <= 1 that every row allows (A d <= 0, and = 0 on equalities)
    has objective . d > 0.
    """
    big = 10 ** 12
    box = []
    for j in range(nv):
        unit = [0] * nv
        unit[j] = 1
        box += [(unit, "<=", big), (unit, ">=", -big)]
    status, value = lp_bruteforce(nv, objective, cons + box)
    if status == "infeasible":
        return status, None
    ray = [(coeffs, rel, 0) for coeffs, rel, _ in cons]
    _, rise = lp_bruteforce(nv, objective, ray + [
        (u, rel, rhs // big) for u, rel, rhs in box])
    return ("unbounded", None) if rise > 0 else (status, value)


def test_fraction_rows_match_the_reference():
    """Rows of Fractions with denominators 1-6 are each scaled by their
    own lcm; the verdict and the optimum are those of vertex
    enumeration, and x is feasible and attains the optimum."""
    rng = random.Random(8128)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(400):
        boxed = rng.random() < 0.75
        nv, objective, cons = fraction_lp(rng, boxed)
        rng.shuffle(cons)
        status, value, x = solve_lp(nv, objective, le_rows(cons))
        reference = lp_bruteforce if boxed else unboxed_reference
        assert (status, value) == reference(nv, objective, cons)
        seen[status] += 1
        if status == "optimal":
            assert isinstance(value, Fraction)
            assert sum(c * v for c, v in zip(objective, x)) == value
            for coeffs, rel, rhs in cons:
                lhs = sum(c * v for c, v in zip(coeffs, x))
                assert {"<=": lhs <= rhs, ">=": lhs >= rhs,
                        "=": lhs == rhs}[rel]
        else:
            assert value is None and x is None
    assert seen["optimal"] >= 100 and seen["infeasible"] >= 30
    assert seen["unbounded"] >= 10


def test_integer_rows_give_an_integer_tableau(monkeypatch):
    """Rows of ints are taken at scale 1: every tableau and objective
    entry the simplex loop sees is an int, and value and x still come
    back as Fractions."""
    seen = []
    real = linprog._run

    def checked(tab, obj, basis, ncols):
        seen.append(len(tab))
        assert all(type(v) is int for row in tab for v in row)
        assert all(type(v) is int for v in obj) and obj[-1] > 0
        return real(tab, obj, basis, ncols)

    monkeypatch.setattr(linprog, "_run", checked)
    status, value, x = solve_lp(
        2, [1, 0], [([1, 1], 4), ([-1, -1], -4), ([-1, 0], -1), ([0, 1], 5),
                    ([0, -3], -1), ([2, -3], 7)])
    assert (status, value) == ("optimal", Fraction(11, 3))
    assert x == [Fraction(11, 3), Fraction(1, 3)]
    assert all(isinstance(v, Fraction) for v in [value, *x])
    assert len(seen) == 2
