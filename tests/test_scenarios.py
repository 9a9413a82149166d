import random
import re
from fractions import Fraction

import pytest

from phiplane.exchange import Point, build_translation_exchange
from phiplane.field import QPhi, phi_power
from phiplane.scenarios import (MeasureSystem, Poly, Scenario, ScenarioError,
                                all_relations_nonzero, derive_constraints,
                                detect_dependence, enumerate_scenarios,
                                scenario_relation, scenario_report,
                                shift_names, solve_measures)


def test_scenario_counts():
    assert [len(enumerate_scenarios(n)) for n in range(1, 7)] == \
        [1, 3, 4, 6, 8, 10]
    with pytest.raises(ScenarioError):
        enumerate_scenarios(0)


def test_ill_formed_scenarios_rejected():
    with pytest.raises(ScenarioError):
        Scenario("self map", 2, None, {"1": 1, "2": 1})
    with pytest.raises(ScenarioError):
        Scenario("incomplete", 3, 1, {"1a": 2})
    with pytest.raises(ScenarioError):
        Scenario("bad target", 2, None, {"1": 3, "2": 1})


def test_degenerate_systems_rejected():
    x, y, z = map(Poly.symbol, "xyz")
    one = Poly.const(1)
    clash = MeasureSystem(("x",), (x, x - one), x, x)
    with pytest.raises(ScenarioError, match="inconsistent"):
        solve_measures(clash)
    with pytest.raises(ScenarioError, match="inconsistent"):
        detect_dependence(clash)
    loose = MeasureSystem(("x", "y", "z"), (x + y + z - one,), x, y)
    with pytest.raises(ScenarioError, match="2 free measures"):
        detect_dependence(loose)


def test_random_scenarios_are_consistent():
    # any well-formed transition table has a measure solution
    rng = random.Random(7)
    for trial in range(300):
        count = rng.randint(2, 7)
        refining = rng.choice([None, *range(1, count + 1)])
        transitions = {}
        for i in range(1, count + 1):
            for src in ([f"{i}a", f"{i}b"] if i == refining else [str(i)]):
                targets = [j for j in range(1, count + 1)
                           if src != str(j)]
                transitions[src] = rng.choice(targets)
        sc = Scenario(f"random {trial}", count, refining, transitions)
        sol = solve_measures(derive_constraints(sc))
        assert sum(sol.values(), Poly()) == Poly.const(1)


def test_two_piece_relation():
    # with no inclusion information the only equality is normalization;
    # eliminating the single free measure still forces an integer relation
    sc = enumerate_scenarios(1)[0]
    rel = scenario_relation(sc)
    ns, ms = shift_names(2)
    n1, n2 = map(Poly.symbol, ns)
    m1, m2 = map(Poly.symbol, ms)
    assert rel.coeff_r == m2 - m1
    assert rel.coeff_s == n1 - n2
    assert rel.constant == m2 * n1 - m1 * n2


def test_two_piece_relation_evaluates():
    rel = scenario_relation(enumerate_scenarios(1)[0])
    shifts = {"n1": 0, "n2": 1, "m1": 0, "m2": 1}
    # those shifts force r - s = 0, exactly
    value = rel.evaluate(shifts, Fraction(3, 10), Fraction(3, 10))
    assert isinstance(value, Fraction) and value == 0
    assert rel.evaluate(shifts, Fraction(3, 10), Fraction(1, 2)) == Fraction(-1, 5)


def test_three_piece_measure_solutions():
    sols = {}
    for sc in enumerate_scenarios(2):
        system = derive_constraints(sc)
        assert system.variables == ("a1a", "a1b", "a2", "a3")
        sols[sc.name] = tuple(solve_measures(system).values())
    a3 = Poly.symbol("a3")
    half, one = Poly.const(Fraction(1, 2)), Poly.const(1)
    assert sols["case 1"] == (half - a3, a3, half - a3, a3)
    assert sols["case 2"] == (one - a3 * 3, a3, a3, a3)


def test_all_relations_nonzero_small_steps():
    assert all_relations_nonzero(5)


def test_relations_nonzero_individually():
    for n in (3, 4):
        for sc in enumerate_scenarios(n):
            rel = scenario_relation(sc)
            assert rel.is_nonzero(), sc.name


def test_relation_coefficients_are_integral_in_shifts():
    for sc in enumerate_scenarios(3):
        rel = scenario_relation(sc)
        ns, ms = shift_names(sc.piece_count)
        for p in (rel.coeff_r, rel.coeff_s, rel.constant):
            for monomial, c in p.terms.items():
                assert type(c) is int
                assert set(monomial) <= set(ns + ms)


def test_report_mentions_structure():
    sc = enumerate_scenarios(2)[0]
    text = scenario_report(sc)
    assert "case 1" in text
    assert "1b -> 3" in text
    assert "forced relation" in text


# -- independent oracle: the printed relations on the measure solutions ---

_HEADER = re.compile(r"scenario: .* \((\d+) pieces\)$")
_RELATION = re.compile(
    r"forced relation: \((.*?)\)\*r \+ \((.*)\)\*s = (.*?)  \(an integer\)$")


def _eval_printed(text, env):
    """Value of a printed integer polynomial such as '-m1*n2 + 2*m3'."""
    total = 0
    for term in text.replace(" - ", " + -").split(" + "):
        value = -1 if term.startswith("-") else 1
        for factor in term.lstrip("-").split("*"):
            value *= int(factor) if factor.isdigit() else env[factor]
        total += value
    return total


def _solution_points(count, transitions):
    """Two solutions (one if unique) of the measure equations, as
    source -> Fraction maps, each checked against every equation."""
    refining = {src[:-1] for src in transitions if src[-1] in "ab"}
    sources = sorted(transitions) or [str(i) for i in range(1, count + 1)]

    def own(j):
        return [f"{j}a", f"{j}b"] if str(j) in refining else [str(j)]
    rows = []
    if transitions:
        for j in range(1, count + 1):
            row = {src: Fraction(0) for src in sources + ["="]}
            for src, tgt in transitions.items():
                row[src] += tgt == j
            for src in own(j):
                row[src] -= 1
            rows.append(row)
    rows.append({**{src: Fraction(1) for src in sources}, "=": Fraction(1)})
    equations = [dict(r) for r in rows]
    pivots = {}                         # source -> its row
    for src in sources:
        row = next((r for r in rows if r[src] != 0 and
                    all(r is not p for p in pivots.values())), None)
        if row is None:
            continue
        scale = row[src]
        for k in row:
            row[k] /= scale
        for other in rows:
            if other is not row and other[src] != 0:
                f = other[src]
                for k in other:
                    other[k] -= f * row[k]
        pivots[src] = row
    free = [src for src in sources if src not in pivots]
    assert len(free) <= 1
    points = []
    for tau in ([0, 1] if free else [0]):
        point = {src: Fraction(tau) for src in free}
        for src, row in pivots.items():
            point[src] = row["="] - sum(row[f] * point[f] for f in free)
        for eq in equations:
            assert sum(eq[src] * point[src] for src in sources) == eq["="]
        points.append(point)
    return points


@pytest.mark.parametrize("n", range(1, 7))
def test_relations_hold_on_measure_solutions(n):
    rng = random.Random(n)
    for sc in enumerate_scenarios(n):
        lines = scenario_report(sc).split("\n")
        count = int(_HEADER.match(lines[0]).group(1))
        transitions = {}
        for line in lines[1:]:
            if " -> " not in line:
                break
            src, tgt = line.strip().split(" -> ")
            transitions[src] = int(tgt)
        printed = _RELATION.match(lines[-1]).groups()
        rel = scenario_relation(sc)
        assert rel.is_nonzero(), sc.name
        points = _solution_points(count, transitions)
        nonzero = False
        for _ in range(4):
            env = {f"{c}{i}": rng.randint(-9, 9)
                   for c in "nm" for i in range(1, count + 1)}
            cr, cs, c0 = (_eval_printed(t, env) for t in printed)
            assert (cr, cs, c0) == tuple(
                p.value(env) for p in (rel.coeff_r, rel.coeff_s, rel.constant))
            nonzero |= cr != 0 or cs != 0
            for point in points:
                r = sum(a * env[f"n{src.rstrip('ab')}"] for src, a in point.items())
                s = sum(a * env[f"m{src.rstrip('ab')}"] for src, a in point.items())
                assert cr * r + cs * s == c0, sc.name
                assert rel.evaluate(env, r, s) == 0, sc.name
        assert nonzero, sc.name


# -- the polynomial type ---------------------------------------------------

def test_poly_arithmetic():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    assert (x + y) - y == x
    assert x - x == Poly() and not x - x
    assert (x + Poly.const(1)) * (x - Poly.const(1)) == x * x - Poly.const(1)
    assert (x * Fraction(1, 2) + y * Fraction(1, 3)).denominator() == 6
    assert Poly().denominator() == 1
    p = x * y * 3 - x + Poly.const(2)
    assert p.subs({"y": 2}) == x * 5 + Poly.const(2)
    assert p.value({"x": Fraction(1, 3), "y": 2}) == Fraction(11, 3)
    with pytest.raises(KeyError):
        p.value({"x": 1})


@pytest.mark.parametrize("poly, text", [
    # expected strings are what sympy prints for the same polynomials
    (Poly({("a1b",): 1, ("a11",): 1}), "a11 + a1b"),
    (Poly({("m1",): 1, ("m1", "n1"): 1}), "m1*n1 + m1"),
    (Poly({("x",): -1, (): -1}), "-x - 1"),
    (Poly(), "0"),
    (Poly.const(-3), "-3"),
    (Poly({("m2",): -2, ("m3",): 2}), "-2*m2 + 2*m3"),
    (Poly({("m1", "x"): 2, ("n1",): -1, (): -7}), "2*m1*x - n1 - 7"),
    ((Poly.symbol("m1") - Poly.symbol("n1") * 2)
     * (Poly.symbol("m2") + Poly.const(3)),
     "m1*m2 + 3*m1 - 2*m2*n1 - 6*n1"),
])
def test_poly_prints_like_sympy(poly, text):
    assert str(poly) == text


def test_orbit_frequencies_match_translation():
    # empirical piece frequencies recover the translation components:
    # sum_i freq(i) * shift_i approximates (alpha, beta)
    alpha, beta = phi_power(-2), phi_power(-3)
    E = build_translation_exchange(alpha, beta, check_independence=False)
    p = Point(QPhi(Fraction(1, 97)), QPhi(Fraction(2, 89)))
    code = E.compiled.code_orbit(p, 50000)
    n = len(code)
    freq = {label: code.count(label) / n for label in (1, 2, 3, 4)}
    shifts = {q.label: q.shift for q in E.pieces}
    r_hat = sum(freq[i] * shifts[i][0] for i in freq)
    s_hat = sum(freq[i] * shifts[i][1] for i in freq)
    assert abs(r_hat - float(alpha)) <= 1e-2
    assert abs(s_hat - float(beta)) <= 1e-2
