"""Scenario building and elimination, their oracles, and theorem1's bytes.

tests/data/theorem1_digests.txt holds the sha256 of `phiplane theorem1
--n N` stdout for N = 7..12 and 20, beyond the full reports of n <= 6.
Print the digests, to compare two versions, with

    PYTHONPATH=src python tests/test_scenarios.py --digests
"""

import contextlib
import hashlib
import io
import random
import re
import sys
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from phiplane.cli import run
from phiplane.exchange import Point, build_translation_exchange
from phiplane.field import QPhi, phi_power
from phiplane.scenarios import (MeasureSystem, Poly, Scenario, ScenarioError,
                                IntegerRelation, derive_constraints,
                                detect_dependence, enumerate_scenarios,
                                scenario_relation, scenario_report,
                                shift_names, solve_measures)


def poly_value(p: Poly, values) -> Fraction:
    """The number p is when every name has a value."""
    return Fraction(sum(c * prod(values[n] for n in m)
                        for m, c in p.terms.items()))


def evaluate(rel, shifts, r, s) -> Fraction:
    """coeff_r*r + coeff_s*s - constant at integer shifts, exactly."""
    cr, cs, c0 = (poly_value(p, shifts)
                  for p in (rel.coeff_r, rel.coeff_s, rel.constant))
    return cr * r + cs * s - c0


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


def _random_scenarios(rng, trials):
    """Well-formed transition tables: 2 to 7 pieces, at most one of them
    refining, every source sent to another piece."""
    for trial in range(trials):
        count = rng.randint(2, 7)
        refining = rng.choice([None, *range(1, count + 1)])
        transitions = {}
        for i in range(1, count + 1):
            for src in ([f"{i}a", f"{i}b"] if i == refining else [str(i)]):
                targets = [j for j in range(1, count + 1)
                           if src != str(j)]
                transitions[src] = rng.choice(targets)
        yield Scenario(f"random {trial}", count, refining, transitions)


def test_random_scenarios_are_consistent():
    # any well-formed transition table has a measure solution
    for sc in _random_scenarios(random.Random(7), 300):
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
    value = evaluate(rel, shifts, Fraction(3, 10), Fraction(3, 10))
    assert isinstance(value, Fraction) and value == 0
    assert evaluate(rel, shifts, Fraction(3, 10), Fraction(1, 2)) == Fraction(-1, 5)


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
    for n in range(1, 6):
        for sc in enumerate_scenarios(n):
            assert scenario_relation(sc).is_nonzero(), sc.name


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


def _forced_scenarios(seed, trials):
    """The random scenarios that leave at most one free measure."""
    out = []
    for sc in _random_scenarios(random.Random(seed), trials):
        try:
            scenario_relation(sc)
        except ScenarioError:       # two or more free measures
            continue
        out.append(sc)
    return out


@pytest.mark.parametrize("n", [*range(1, 7), "random"])
def test_relations_hold_on_measure_solutions(n):
    rng = random.Random(n)
    if n == "random":
        scenarios = _forced_scenarios(22, 60)
        # some relations come from r alone: the measures' weight on the
        # free parameter is zero in r, and so in s
        assert any(not scenario_relation(sc).coeff_s for sc in scenarios)
    else:
        scenarios = enumerate_scenarios(n)
    for sc in scenarios:
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
                poly_value(p, env)
                for p in (rel.coeff_r, rel.coeff_s, rel.constant))
            nonzero |= cr != 0 or cs != 0
            for point in points:
                r = sum(a * env[f"n{src.rstrip('ab')}"] for src, a in point.items())
                s = sum(a * env[f"m{src.rstrip('ab')}"] for src, a in point.items())
                assert cr * r + cs * s == c0, sc.name
                assert evaluate(rel, env, r, s) == 0, sc.name
        assert nonzero, sc.name


# -- the polynomial type ---------------------------------------------------

def test_poly_arithmetic():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    assert (x + y) - y == x
    assert x - x == Poly() and not x - x
    assert (x + Poly.const(1)) * (x - Poly.const(1)) == x * x - Poly.const(1)
    p = x * y * 3 - x + Poly.const(2)
    assert poly_value(p, {"x": Fraction(1, 3), "y": 2}) == Fraction(11, 3)
    with pytest.raises(KeyError):
        poly_value(p, {"x": 1})


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


_NAMES = ("a1a", "a1b", "a11", "m1", "m2", "n1", "n2", "n10", "x")


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.lists(st.sampled_from(_NAMES), max_size=4).map(
        lambda m: tuple(sorted(m))),
    st.integers(-5, 5).filter(bool), max_size=8))
def test_poly_prints_by_descending_exponent_vectors(terms):
    # names repeat (squares), and n2 and n10 sort as text
    p = Poly(terms)
    names = sorted({n for m in terms for n in m})
    order = sorted(terms, reverse=True,
                   key=lambda m: [m.count(n) for n in names])
    want = ""
    for m in order:
        c = terms[m]
        one = str(Poly({m: abs(c)}))
        want += (("-" if c < 0 else "") + one if not want else
                 (" - " if c < 0 else " + ") + one)
    assert str(p) == (want or "0")


def test_orbit_frequencies_match_translation():
    # empirical piece frequencies recover the translation components:
    # sum_i freq(i) * shift_i approximates (alpha, beta)
    alpha, beta = phi_power(-2), phi_power(-3)
    E = build_translation_exchange(alpha, beta)
    p = Point(QPhi(Fraction(1, 97)), QPhi(Fraction(2, 89)))
    code = E.compiled.code_orbit(p, 50000)
    n = len(code)
    freq = {label: code.count(label) / n for label in (1, 2, 3, 4)}
    shifts = {q.label: q.shift for q in E.pieces}
    r_hat = sum(freq[i] * shifts[i][0] for i in freq)
    s_hat = sum(freq[i] * shifts[i][1] for i in freq)
    assert abs(r_hat - float(alpha)) <= 1e-2
    assert abs(s_hat - float(beta)) <= 1e-2


# -- the term-by-term builds: oracles for the one-pass ones --------------

def _oracle_constraints(scenario):
    """The measure system built by summing one Poly per term."""
    sources = sorted(scenario._expected_sources())
    sym = {src: Poly.symbol(f"a{src}") for src in sources}

    def piece_measure(i):
        if i == scenario.refining_piece:
            return sym[f"{i}a"] + sym[f"{i}b"]
        return sym[str(i)]

    eqs = []
    if scenario.transitions:
        for j in range(1, scenario.piece_count + 1):
            inflow = sum((sym[src] for src, tgt in scenario.transitions.items()
                          if tgt == j), Poly())
            eqs.append(inflow - piece_measure(j))
    eqs.append(sum(sym.values(), Poly()) - Poly.const(1))
    ns, ms = shift_names(scenario.piece_count)
    r_expr = sum((sym[src] * Poly.symbol(ns[scenario.source_piece(src) - 1])
                  for src in sources), Poly())
    s_expr = sum((sym[src] * Poly.symbol(ms[scenario.source_piece(src) - 1])
                  for src in sources), Poly())
    return MeasureSystem(tuple(f"a{src}" for src in sources),
                         tuple(e for e in eqs if e), r_expr, s_expr)


def _oracle_step_scenarios(n):
    """(name, transitions) of the single cycle and both merge families at
    step n >= 3, built one transition at a time."""
    nu = n - 1
    m = 2 * nu + 1
    cycle = [("1a", 1), ("1b", 2)]
    cycle += [(str(i), i + 1) for i in range(2, m)]
    cycle.append((str(m), 1))
    out = [("single cycle", dict(cycle))]
    for k in range(1, nu):
        tr = [("1a", 2), ("1b", 3)]
        tr += [(str(2 * i), 2 * i + 2) for i in range(1, k)]
        tr += [(str(2 * i + 1), 2 * i + 3) for i in range(1, k)]
        tr += [(str(2 * k), 2 * k + 2), (str(2 * k + 1), 2 * k + 2)]
        tr += [(str(i), i + 1) for i in range(2 * k + 2, m)]
        tr.append((str(m), 1))
        out.append((f"merge before the tail, k={k}", dict(tr)))
    for k in range(1, nu + 1):
        tr = [("1a", 2), ("1b", 3)]
        tr += [(str(2 * i), 2 * i + 2) for i in range(1, k)]
        tr += [(str(2 * i + 1), 2 * i + 3) for i in range(1, k)]
        tr.append((str(2 * k), 1))
        if 2 * k + 1 < m:
            tr.append((str(2 * k + 1), 2 * k + 2))
            tr += [(str(i), i + 1) for i in range(2 * k + 2, m)]
        tr.append((str(m), 1))
        out.append((f"short cycle back, k={k}", dict(tr)))
    return out


def test_step_scenarios_match_oracle():
    for n in range(3, 31):
        scenarios = enumerate_scenarios(n)
        assert all((sc.piece_count, sc.refining_piece) == (2 * n - 1, 1)
                   for sc in scenarios)
        assert [(sc.name, sc.transitions) for sc in scenarios] \
            == _oracle_step_scenarios(n), n


# -- the Fraction elimination: the oracle for the integer one ------------

def _oracle_solve(system):
    """Gauss-Jordan over Fraction, each pivot row scaled to 1."""
    names = system.variables
    rows = [[Fraction(e.coeff((v,))) for v in names] + [-Fraction(e.coeff(()))]
            for e in system.equalities]
    pivots = []
    for col in range(len(names)):
        top = len(pivots)
        p = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        piv = rows[top][col]
        rows[top] = pivot_row = [x / piv for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, pivot_row)]
        pivots.append(col)
    if any(row[-1] for row in rows[len(pivots):]):
        raise ScenarioError("inconsistent measure equations")
    free = [c for c in range(len(names)) if c not in pivots]
    sol = {names[c]: Poly.symbol(names[c]) for c in free}
    for row, c in zip(rows, pivots):
        sol[names[c]] = sum((Poly.symbol(names[f]) * -row[f] for f in free),
                            Poly.const(row[-1]))
    return {v: sol[v] for v in names}


def _subs(p, values):
    """p with numbers in place of some of its names."""
    out = {}
    for m, c in p.terms.items():
        rest = tuple(n for n in m if n not in values)
        c *= prod(values[n] for n in m if n in values)
        out[rest] = out.get(rest, 0) + c
    return Poly(out)


def _oracle_relation(system):
    """r and s at the free measure's coefficients 0 and 1, the relation
    ds*r - dr*s = ds*cr - dr*cs, scaled by the lcm of its denominators."""
    sol = _oracle_solve(system)
    free = sorted({n for p in sol.values() for m in p.terms for n in m})
    if len(free) > 1:
        raise ScenarioError(f"no forced relation: {len(free)} free measures")

    def at(monomial):
        values = {v: p.coeff(monomial) for v, p in sol.items()}
        return _subs(system.r_expr, values), _subs(system.s_expr, values)

    cr, cs = at(())
    dr, ds = at((free[0],)) if free else (Poly(), Poly())
    if dr:
        polys = (ds, -dr, ds * cr - dr * cs)
    else:
        polys = (Poly.const(1), Poly(), cr)
    d = lcm(*(Fraction(c).denominator
              for p in polys for c in p.terms.values()))
    return IntegerRelation(*(Poly({m: int(c * d) for m, c in p.terms.items()})
                             for p in polys))


def test_integer_elimination_matches_fraction_oracle():
    cases = [*_random_scenarios(random.Random(23), 300),
             *(sc for n in range(1, 13) for sc in enumerate_scenarios(n))]
    forced = 0
    for sc in cases:
        system = derive_constraints(sc)
        assert system == _oracle_constraints(sc), sc.name
        for p in (*system.equalities, system.r_expr, system.s_expr):
            assert all(list(m) == sorted(m) for m in p.terms), sc.name
        assert solve_measures(system) == _oracle_solve(system), sc.name
        try:
            want = _oracle_relation(system)
        except ScenarioError as e:
            with pytest.raises(ScenarioError, match=re.escape(str(e))):
                detect_dependence(system)
            continue
        rel = detect_dependence(system)
        assert rel == want, sc.name
        for p in (rel.coeff_r, rel.coeff_s, rel.constant):
            assert all(type(c) is int for c in p.terms.values()), sc.name
        forced += 1
    assert forced >= 200        # the enumerated ones and most random ones


# -- theorem1 bytes beyond n = 6 -----------------------------------------

DIGESTS = Path(__file__).parent / "data" / "theorem1_digests.txt"


def theorem1_digests():
    out = {}
    for n in (*range(7, 13), 20):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run(["theorem1", "--n", str(n)]) == 0
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        out[f"theorem1_n{n}"] = digest
    return out


def test_theorem1_matches_golden_digests():
    want = dict(line.split() for line in DIGESTS.read_text().splitlines()
                if line.strip())
    assert theorem1_digests() == want


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        for name, digest in theorem1_digests().items():
            print(name, digest)
