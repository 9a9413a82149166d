"""Exact integer-arithmetic orbit coding: one indexed engine.

Orbit points and strip bounds are rescaled by a common denominator so
every membership test becomes a sign evaluation of an integer pair
(A, B) standing for A + B*phi, decided by the field's exact
`sgn_pair`, so no step ever depends on floating point.

`CompiledExchange` finds the x-gap of a point by bisection over the
exchange's sorted strip endpoints and tests y only against the strips
covering that gap, so a step costs about log2(#endpoints) + 2 sign
tests at every level; a point on an endpoint or a strip bound goes to
`PieceExchange.locate`.  Long runs go JUMP_LENGTH symbols at a time: the
same search over the depth-L coding cells of `PieceExchange.power`
gives a cell's whole word and its branch, an integer-slope shear like
every single branch.  Where a macro step is left open, one single step
is taken and the macro step is tried again from the next point.
"""

from __future__ import annotations

from math import lcm

from .exchange import (ExchangeError, PieceExchange, Point,
                       build_base_exchange)
from .field import QPhi, over_one_denominator, sgn_pair
from .words import Word

# L-step jump tables: macro steps of JUMP_LENGTH symbols (8 beat 6 and
# 10 on long level-1 runs), over an index built once a stepper has been
# asked for more than JUMP_AFTER steps per strip of its exchange (about
# where the build pays for itself at levels 1 to 12)
JUMP_LENGTH = 8
JUMP_AFTER = 1000


def _pair(x: QPhi, scale: int) -> tuple[int, int]:
    """x * scale as an integer pair; scale must be a multiple of x's D."""
    A, B, D = x.scaled()
    k, r = divmod(scale, D)
    assert r == 0
    return A * k, B * k


class _Index:
    """An exact x-sorted breakpoint index and integer strip tables.

    The distinct strip endpoints x_0 < ... < x_{m-1} cut the line into
    m + 1 open gaps: gap i lies below x_i and gap m above x_{m-1}.  Each
    gap lists the strips whose open x-range covers it in piece order and
    then strip order, so earlier pieces win overlaps as in
    `PieceExchange.locate`.
    """

    def __init__(self, exchange: PieceExchange) -> None:
        values = []
        self.strips = []
        self.moves = {}
        for piece in exchange.pieces:
            br = exchange.branch(piece.label)
            k, kb, kd = br.q.c1.scaled()
            if br.a != 1 or br.s != 1 or br.q.c2 or (kb, kd) != (0, 1):
                raise ExchangeError(f"piece {piece.label}: branch is not an"
                                    " integer-slope shear")
            self.moves[piece.label] = (br.u, br.q.c0, k)
            values += br.u, br.q.c0
            for s in piece.region.strips:
                if s.lower.c2 != s.upper.c2:
                    raise ExchangeError(
                        f"piece {piece.label}: strip bounds do not share c2")
                values += (s.lower.c2, s.lower.c1, s.lower.c0,
                           s.upper.c1, s.upper.c0)
                self.strips.append((piece, s))
        self.xs = xs = sorted({x for _, s in self.strips
                               for x in (s.x_lo, s.x_hi)})
        self.base_den = over_one_denominator(values + xs)[1]
        where = {x: i for i, x in enumerate(xs)}
        self._gaps: list[list[int]] = [[] for _ in range(len(xs) + 1)]
        for j, (_, s) in enumerate(self.strips):
            for gap in self._gaps[where[s.x_lo] + 1:where[s.x_hi] + 1]:
                gap.append(j)
        self._tables: dict[int, tuple] = {}

    def table(self, d: int) -> tuple:
        """The tables at scale d, a multiple of `base_den`: gaps of strip
        rows, the endpoints' integer pairs, d**2, and the move of each
        label.  A move starts with the symbols it codes: the word of a
        `PieceExchange.power` piece, or a single label as a 1-tuple."""
        cached = self._tables.get(d)
        if cached is not None:
            return cached
        d2, d3 = d * d, d * d * d
        moves = {label: (label if isinstance(label, tuple) else (label,),
                         *_pair(u, d), *_pair(q0, d), k)
                 for label, (u, q0, k) in self.moves.items()}
        rows = []
        for piece, s in self.strips:
            # predicate scale d**3: c2*(X*X) has d*d2, c1*X needs d2, c0 needs d3
            c2 = _pair(s.lower.c2, d)
            c1 = _pair(s.lower.c1, d2)
            c0 = _pair(s.lower.c0, d3)
            u1 = _pair(s.upper.c1, d2)
            u0 = _pair(s.upper.c0, d3)
            rows.append((*c2, *c1, *c0, u1[0] - c1[0], u1[1] - c1[1],
                         u0[0] - c0[0], u0[1] - c0[1], moves[piece.label]))
        gaps = tuple(tuple(rows[j] for j in gap) for gap in self._gaps)
        ends = [_pair(x, d) for x in self.xs]
        table = (gaps, tuple(a for a, _ in ends), tuple(b for _, b in ends),
                 d2, moves)
        self._tables[d] = table
        return table


def _locate(gaps, ends_a, ends_b, d2, xa, xb, ya, yb):
    """The move of the strip holding (x, y) strictly inside, or None when
    any bisection or y sign test is zero or no strip holds it."""
    # the gap of x: bisection over the endpoints
    lo, hi = 0, len(ends_a)
    while lo < hi:
        mid = (lo + hi) >> 1
        s = sgn_pair(xa - ends_a[mid], xb - ends_b[mid])
        if s > 0:
            lo = mid + 1
        elif s < 0:
            hi = mid
        else:
            return None
    x2a = xa * xa + xb * xb
    x2b = 2 * xa * xb + xb * xb
    yd2a = ya * d2
    yd2b = yb * d2
    xab = xa + xb
    for c2a, c2b, c1a, c1b, c0a, c0b, e1a, e1b, e0a, e0b, move in gaps[lo]:
        # (lower(x) - y) * d**3, then (upper(x) - y) * d**3
        va = c2a * x2a + c2b * x2b + c1a * xa + c1b * xb + c0a - yd2a
        vb = (c2a * x2b + c2b * (x2a + x2b) + c1a * xb + c1b * xab
              + c0b - yd2b)
        s = sgn_pair(va, vb)
        if s > 0:
            continue
        if s == 0:
            return None
        s = sgn_pair(va + e1a * xa + e1b * xb + e0a,
                     vb + e1a * xb + e1b * xab + e0b)
        if s > 0:
            return move
        if s == 0:
            return None
    return None


class CompiledExchange:
    """The orbit stepper of one exchange: single steps over an `_Index`
    of its strips and, once a stepper has been asked for more than
    JUMP_AFTER steps per strip, macro steps of JUMP_LENGTH symbols over
    an index of `exchange.power(JUMP_LENGTH)`.

    Both go through `_locate`, which decides only points strictly inside
    a strip.  A single step it leaves open takes its label from
    `PieceExchange.locate`, which decides the boundary and raises as
    `PieceExchange.step` does.  A macro step it leaves open, or one with
    fewer than JUMP_LENGTH symbols left, becomes one single step, and
    the next point tries a macro step again.  A point strictly inside a
    cell strip has the cell's word wherever no two pieces share a
    vertical segment (none do in the exchanges the package builds), so
    any mix of macro and single steps codes the same word.
    """

    def __init__(self, exchange: PieceExchange) -> None:
        self.exchange = exchange
        self._index = _Index(exchange)
        self._asked = 0
        self._jumps: _Index | None = None

    def _table(self, d: int) -> tuple:
        return self._index.table(d)

    def _run(self, p: Point, n: int) -> Word:
        self._asked += n
        jumps = self._jumps
        if jumps is None and \
                self._asked > JUMP_AFTER * len(self._index.strips):
            jumps = self._jumps = _Index(self.exchange.power(JUMP_LENGTH))
        d = lcm(self._index.base_den, p.x.scaled()[2], p.y.scaled()[2])
        if jumps is not None:
            d = lcm(d, jumps.base_den)
            jgaps, jends_a, jends_b = jumps.table(d)[:3]
        gaps, ends_a, ends_b, d2, moves = self._table(d)
        xa, xb = _pair(p.x, d)
        ya, yb = _pair(p.y, d)
        word: list[int] = []
        left = n
        while left:
            move = None
            if jumps is not None and left >= JUMP_LENGTH:
                move = _locate(jgaps, jends_a, jends_b, d2, xa, xb, ya, yb)
            if move is None:
                move = _locate(gaps, ends_a, ends_b, d2, xa, xb, ya, yb)
                if move is None:
                    move = moves[self.exchange.locate(Point(
                        QPhi.from_scaled(xa, xb, d),
                        QPhi.from_scaled(ya, yb, d)))]
            # the branch (x, y) -> (x + u, y + k*x + q0)
            label, ua, ub, qa, qb, k = move
            word.extend(label)
            if k:
                ya += k * xa
                yb += k * xb
            xa += ua
            xb += ub
            ya += qa
            yb += qb
            left -= len(label)
        return tuple(word)

    def code_orbit(self, p: Point, n: int) -> Word:
        return self._run(p, n)

    def orbit_in_domain(self, p: Point, n: int) -> bool:
        try:
            self._run(p, n)
            return True
        except ExchangeError:
            return False


class BaseExchangeOrbit:
    """The level-1 exchange's compiled stepper under its former name.

    Only the benchmark still calls (and traces) `run`; this shim goes
    with the next benchmark change.
    """

    def __init__(self) -> None:
        self.compiled = build_base_exchange().compiled

    def run(self, pt: Point, n: int) -> Word:
        return self.compiled._run(pt, n)

    def code_orbit(self, pt: Point, n: int) -> Word:
        return self.run(pt, n)
