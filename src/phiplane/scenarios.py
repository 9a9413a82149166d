"""Exact replay of the transition case analyses for torus translations.

A scenario fixes which pieces of a rectangle exchange map into which,
with one piece split into two sub-pieces.  Measure preservation turns
each scenario into linear equalities between piece measures; exact
elimination then forces an integer combination of the translation
components r and s, contradicting ergodicity.  Shifts are kept as free
integer names so every conclusion holds for all shift assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

Source = str            # "1a", "1b" or a piece number as text
Monomial = tuple[str, ...]      # sorted names
Coeff = int | Fraction
_LAST = ("\U0010ffff",)    # sorts after every name not starting with it


class ScenarioError(ValueError):
    """Ill-formed or inconsistent transition scenario."""


class Poly:
    """A polynomial with exact rational coefficients over named symbols.

    It carries only what the scenario analysis needs: sums, differences,
    scalar and polynomial products.  `str` prints the expanded form that
    the `theorem1` reports use, byte for byte; those polynomials have
    integer coefficients and no squares.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Coeff] | None = None) -> None:
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def symbol(cls, name: str) -> Poly:
        return cls({(name,): 1})

    @classmethod
    def const(cls, c: Coeff) -> Poly:
        return cls({(): c})

    def __add__(self, other: Poly) -> Poly:
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __neg__(self) -> Poly:
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self + -other

    def __mul__(self, other: Poly | Coeff) -> Poly:
        if not isinstance(other, Poly):
            return Poly({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, Coeff] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coeff(self, monomial: Monomial) -> Coeff:
        return self.terms.get(monomial, 0)

    def __str__(self) -> str:
        # terms by exponent vector over the sorted names, in descending lex
        # order: ascending on the monomials closed by _LAST, which puts a
        # monomial before its prefixes and the constant term last
        parts: list[str] = []
        for m in sorted(self.terms, key=lambda m: m + _LAST):
            c = self.terms[m]
            factors = list(m) if abs(c) == 1 and m else [str(abs(c)), *m]
            parts += ["-" if c < 0 else "+", "*".join(factors)]
        if not parts:
            return "0"
        return ("-" if parts[0] == "-" else "") + " ".join(parts[1:])

    def __repr__(self) -> str:
        return f"Poly({self})"


@dataclass(frozen=True, eq=False)
class Scenario:
    """One transition hypothesis on an exchange of `piece_count` pieces."""

    name: str
    piece_count: int
    refining_piece: int | None
    transitions: dict[Source, int]

    def __post_init__(self) -> None:
        # transitions are either absent (no inclusion information, as for
        # the two-piece case) or specified for every source
        sources = self._expected_sources()
        if self.transitions and set(self.transitions) != sources:
            raise ScenarioError(f"{self.name}: transitions must cover {sorted(sources)}")
        for src, tgt in self.transitions.items():
            if not 1 <= tgt <= self.piece_count:
                raise ScenarioError(f"{self.name}: target {tgt} out of range")
            if src.isdigit() and int(src) == tgt:
                raise ScenarioError(
                    f"{self.name}: piece {src} cannot map into itself")

    def _expected_sources(self) -> set[Source]:
        out: set[Source] = set()
        for i in range(1, self.piece_count + 1):
            if i == self.refining_piece:
                out |= {f"{i}a", f"{i}b"}
            else:
                out.add(str(i))
        return out

    def source_piece(self, src: Source) -> int:
        return int(src.rstrip("ab"))


@dataclass(frozen=True)
class MeasureSystem:
    """Measure names with their linear equalities and r, s expressions."""

    variables: tuple[str, ...]       # sorted sources, "a" + source
    equalities: tuple[Poly, ...]     # each polynomial == 0
    r_expr: Poly
    s_expr: Poly


@dataclass(frozen=True)
class IntegerRelation:
    """coeff_r * r + coeff_s * s = constant, an identity in the shifts."""

    coeff_r: Poly
    coeff_s: Poly
    constant: Poly

    def is_nonzero(self) -> bool:
        return bool(self.coeff_r) or bool(self.coeff_s)


def shift_names(piece_count: int) -> tuple[list[str], list[str]]:
    return ([f"n{i}" for i in range(1, piece_count + 1)],
            [f"m{i}" for i in range(1, piece_count + 1)])


def derive_constraints(scenario: Scenario) -> MeasureSystem:
    """Measure equalities forced by the transitions.

    The transition targets cover every source, so for each target piece
    the source measures sum exactly to the target measure; with no
    transitions only the normalisation is left.  The system is always
    consistent: following one source out of every piece ends in a
    cycle, and equal measures on that cycle's sources (zero elsewhere)
    solve it.
    """
    sources = sorted(scenario._expected_sources())
    piece = {src: scenario.source_piece(src) for src in sources}
    # monomials are sorted tuples: "a..." sorts before "m..." and "n..."
    eqs = [Poly({(f"a{src}",): (tgt == j) - (piece[src] == j)
                 for src, tgt in scenario.transitions.items()})
           for j in range(1, scenario.piece_count + 1)]
    eqs.append(Poly({**{(f"a{src}",): 1 for src in sources}, (): -1}))
    r_expr = Poly({(f"a{src}", f"n{piece[src]}"): 1 for src in sources})
    s_expr = Poly({(f"a{src}", f"m{piece[src]}"): 1 for src in sources})

    return MeasureSystem(tuple(f"a{src}" for src in sources),
                         tuple(e for e in eqs if e), r_expr, s_expr)


def _eliminate(system: MeasureSystem
               ) -> tuple[list[list[int]], list[int], list[int]]:
    """Gauss-Jordan elimination in integers: rows, pivot and free columns.

    A row is an equality's integer coefficients in `system.variables`
    order, then minus its constant term.  A step sets a row to
    row*piv - f*pivot_row over its content, so each row is a nonzero
    multiple of its Fraction counterpart, with the same pivots: row i
    holds pivots[i] and no other pivot column.
    """
    names = system.variables
    rows = [[e.coeff((v,)) for v in names] + [-e.coeff(())]
            for e in system.equalities]
    pivots: list[int] = []
    for col in range(len(names)):
        top = len(pivots)
        p = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        pivot_row = rows[top]
        piv = pivot_row[col]
        for i, row in enumerate(rows):
            if i != top and (f := row[col]):
                row = [a * piv - f * b for a, b in zip(row, pivot_row)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    if any(row[-1] for row in rows[len(pivots):]):
        raise ScenarioError("inconsistent measure equations")
    return rows, pivots, [c for c in range(len(names)) if c not in pivots]


def solve_measures(system: MeasureSystem) -> dict[str, Poly]:
    """Every measure as an affine form in the free ones, exactly.

    The columns are in `system.variables` order; the free measures are
    the non-pivot columns, and each of them maps to itself.
    """
    names = system.variables
    rows, pivots, free = _eliminate(system)
    sol = {names[c]: Poly.symbol(names[c]) for c in free}
    for row, c in zip(rows, pivots):
        sol[names[c]] = Poly({**{(names[f],): Fraction(-row[f], row[c])
                                 for f in free},
                              (): Fraction(row[-1], row[c])})
    return {v: sol[v] for v in names}


def detect_dependence(system: MeasureSystem) -> IntegerRelation:
    """Eliminate the measures and return the forced relation on r and s.

    The equalities must cut the solution set down to at most one free
    measure parameter tau.  With q the lcm of the pivots, every measure
    is (C + D*tau)/q for integers C and D, so q*r = cr + dr*tau and
    q*s = cs + ds*tau, and ds*r - dr*s no longer depends on tau.  The
    relation is its least integer multiple, coefficients in the shift
    names.  r and s must be integer sums of measures times shift names,
    as `derive_constraints` builds them.
    """
    names = system.variables
    rows, pivots, free = _eliminate(system)
    if len(free) > 1:
        raise ScenarioError(f"no forced relation: {len(free)} free measures")
    q = lcm(*(row[c] for row, c in zip(rows, pivots)))
    C = dict.fromkeys(names, 0)
    D = {names[f]: q for f in free}     # free is [] or [tau]
    for row, c in zip(rows, pivots):
        C[names[c]] = row[-1] * (q // row[c])
        D[names[c]] = -sum(row[f] for f in free) * (q // row[c])
    cr, cs, dr, ds = (_form(e, values) for values in (C, D)
                      for e in (system.r_expr, system.s_expr))
    if dr:
        Q, polys = q * q, (ds * q, -dr * q, ds * cr - dr * cs)
    else:           # ds has the coefficients of dr, so it is 0 too
        Q, polys = q, (Poly.const(q), Poly(), cr)
    # the relation is polys/Q, and the lcm of its reduced denominators
    # is Q / gcd(Q, every coefficient)
    g = gcd(Q, *(c for p in polys for c in p.terms.values()))
    return IntegerRelation(*(Poly({m: c // g for m, c in p.terms.items()})
                             for p in polys))


def _form(expr: Poly, values: dict[str, int]) -> Poly:
    # expr is linear in the measures: put their values in
    out: dict[Monomial, int] = {}
    for m, c in expr.terms.items():
        v, = (n for n in m if n in values)
        rest = tuple(n for n in m if n != v)
        out[rest] = out.get(rest, 0) + c * values[v]
    return Poly(out)


def enumerate_scenarios(n: int) -> list[Scenario]:
    """The transition scenarios at induction step n, up to relabeling.

    Step 1 is the plain two-piece swap, step 2 the three-case table for
    a refining three-piece exchange.  From step 3 on the exchange has
    2(n-1)+1 pieces: one single-cycle case and two merging-chain
    families parameterized by the merge position k.
    """
    if n < 1:
        raise ScenarioError("step must be >= 1")
    if n == 1:
        return [Scenario("two pieces", 2, None, {})]
    if n == 2:
        return [
            Scenario("case 1", 3, 1,
                     {"1b": 3, "1a": 2, "2": 1, "3": 1}),
            Scenario("case 2", 3, 1,
                     {"1b": 3, "1a": 1, "2": 1, "3": 2}),
            Scenario("case 3", 3, 1,
                     {"1b": 3, "1a": 2, "2": 1, "3": 2}),
        ]
    nu = n - 1
    m = 2 * nu + 1

    def tail(start: int) -> dict[Source, int]:
        # start -> start + 1 -> ... -> m -> 1
        return {**{str(i): i + 1 for i in range(start, m)}, str(m): 1}

    def chain(k: int) -> dict[Source, int]:
        # both merge families begin 1a -> 2, 1b -> 3, then j -> j + 2 below 2k
        return {"1a": 2, "1b": 3, **{str(j): j + 2 for j in range(2, 2 * k)}}

    return [Scenario("single cycle", m, 1, {"1a": 1, "1b": 2, **tail(2)}),
            *(Scenario(f"merge before the tail, k={k}", m, 1,
                       {**chain(k), str(2 * k): 2 * k + 2,
                        str(2 * k + 1): 2 * k + 2, **tail(2 * k + 2)})
              for k in range(1, nu)),
            *(Scenario(f"short cycle back, k={k}", m, 1,
                       {**chain(k), str(2 * k): 1, **tail(2 * k + 1)})
              for k in range(1, nu + 1))]


def scenario_relation(scenario: Scenario) -> IntegerRelation:
    return detect_dependence(derive_constraints(scenario))


def scenario_report(scenario: Scenario) -> str:
    """Human-readable walkthrough: equalities, elimination, relation."""
    system = derive_constraints(scenario)
    rel = detect_dependence(system)
    lines = [f"scenario: {scenario.name} ({scenario.piece_count} pieces)"]
    for src in sorted(scenario.transitions):
        lines.append(f"  {src} -> {scenario.transitions[src]}")
    lines.append("measure equalities (== 0):")
    for e in system.equalities:
        lines.append(f"  {e}")
    lines.append(f"r = {system.r_expr}")
    lines.append(f"s = {system.s_expr}")
    lines.append(f"forced relation: ({rel.coeff_r})*r + ({rel.coeff_s})*s"
                 f" = {rel.constant}  (an integer)")
    return "\n".join(lines)
