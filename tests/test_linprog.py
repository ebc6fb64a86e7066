import random
from fractions import Fraction

import pytest

from troplin import linprog
from troplin.linprog import distinct_rows, solve_lp
from troplin.oracle import lp_bruteforce


def test_single_variable_cap():
    status, value, x = solve_lp(1, [1], [([1], "<=", 5)])
    assert (status, value) == ("optimal", 5)
    assert x == [5]


def test_two_variables_on_a_face():
    status, value, x = solve_lp(
        2, [1, 1],
        [([1, 0], "<=", 3), ([0, 1], "<=", 4), ([1, 1], "<=", 5)])
    assert (status, value) == ("optimal", 5)
    assert x[0] <= 3 and x[1] <= 4 and x[0] + x[1] == 5


def test_fractional_optimum_is_exact():
    status, value, x = solve_lp(1, [1], [([2], "<=", 1)])
    assert status == "optimal"
    assert value == Fraction(1, 2)
    assert isinstance(value, Fraction)


def test_equality_with_negative_rhs():
    status, value, x = solve_lp(1, [1], [([1], "=", -2)])
    assert (status, value) == ("optimal", -2)
    assert x == [-2]


def test_free_variables_go_negative():
    status, value, x = solve_lp(
        2, [-1, 0],
        [([1, 1], "=", 0), ([0, 1], ">=", 3), ([0, 1], "<=", 7)])
    # maximize -x with x + y = 0 and 3 <= y <= 7, so -x = y = 7
    assert (status, value) == ("optimal", 7)
    assert x == [-7, 7]


def test_infeasible():
    status, value, x = solve_lp(
        1, [1], [([1], "<=", -1), ([1], ">=", 1)])
    assert status == "infeasible"
    assert value is None and x is None


def test_unbounded():
    status, value, x = solve_lp(1, [1], [])
    assert status == "unbounded"
    assert value is None and x is None
    status, _, _ = solve_lp(2, [1, 0], [([0, 1], "<=", 4)])
    assert status == "unbounded"


def test_redundant_and_trivial_rows():
    cons = [([1], "<=", 2), ([1], "<=", 2), ([0], "<=", 1)]
    status, value, _ = solve_lp(1, [1], cons)
    assert (status, value) == ("optimal", 2)


def test_bad_relation_rejected():
    with pytest.raises(ValueError):
        solve_lp(1, [1], [([1], "<", 1)])


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
        2, [1, 2], [([1, 1], "<=", 4), ([0, 1], "<=", 3), ([-1, 0], "<=", 0)])
    assert (status, value) == ("optimal", 7)
    assert x == [1, 3]
    assert len(runs) == 1


def test_mixed_rows_run_both_phases(monkeypatch):
    runs = counting_runs(monkeypatch)
    # x + y = 4, x >= 1 (negative rhs once negated), y <= 5: max x
    status, value, x = solve_lp(
        2, [1, 0], [([1, 1], "=", 4), ([1, 0], ">=", 1), ([0, 1], "<=", 5),
                    ([0, 1], ">=", 0)])
    assert (status, value) == ("optimal", 4)
    assert x == [4, 0]
    assert len(runs) == 2


def test_duplicate_rows_keep_the_tightest():
    cons = [([1, 0], "<=", 5), ([1, 0], "<=", 3), ([2, 0], "<=", 9),
            ([1, 0], "<=", 7), ([-1, 0], ">=", -4), ([0, 1], "=", 1),
            ([0, 1], "=", 1)]
    assert distinct_rows(cons) == [([1, 0], "<=", 3), ([2, 0], "<=", 9),
                                   ([0, 1], "=", 1)]
    status, value, x = solve_lp(2, [1, 1], cons)
    assert (status, value) == ("optimal", 4)
    assert x == [3, 1]


def test_all_zero_rows():
    assert distinct_rows([([0, 0], "<=", 0), ([0, 0], ">=", -2),
                          ([0, 0], "=", 0)]) == []
    for row in (([0, 0], "<=", -1), ([0, 0], ">=", 1), ([0, 0], "=", 2)):
        assert distinct_rows([([1, 0], "<=", 1), row]) is None
        assert solve_lp(2, [1, 0], [([1, 0], "<=", 1), row]) == (
            "infeasible", None, None)
    # one left side equated to two values
    assert solve_lp(1, [1], [([1], "=", 1), ([1], "=", 2)]) == (
        "infeasible", None, None)


def random_lp(rng):
    """At most 3 variables and 8 random rows (repeats and all-zero rows
    included), inside the box -10 <= x <= 10."""
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
        status, value, x = solve_lp(nv, objective, cons)
        assert (status, value) == lp_bruteforce(nv, objective, cons)
        seen[status] += 1
        if status == "optimal":
            assert sum(c * v for c, v in zip(objective, x)) == value
            for coeffs, rel, rhs in cons:
                lhs = sum(c * v for c, v in zip(coeffs, x))
                assert {"<=": lhs <= rhs, ">=": lhs >= rhs,
                        "=": lhs == rhs}[rel]
    assert seen["optimal"] > 100 and seen["infeasible"] > 30
