"""Exact integer-arithmetic orbit coding: one indexed engine.

Orbit points and strip bounds are rescaled by a common denominator d,
so every membership test is the sign of an integer pair (A, B) standing
for A + B*phi, decided by an integer inequality or the exact `sgn_pair`:
no step ever depends on floating point.

`CompiledExchange` finds the x-gap of a point by one `bisect` over the
integer keys A*2**64 + B*floor(phi*2**64) of the sorted strip endpoints;
a key is off by less than |B|, so the gap is certain when both
neighbouring keys are farther off than the two errors can reach.  The
point carries z = y - c2*x**2, c2 the exchange's one leading
coefficient, so each y test against the strips over the gap is linear.
A point whose gap the keys leave open, or that lies on a bound, goes to
`PieceExchange.locate`, the one exact fallback.  Every branch is the
base's integer-slope shear, `PlaneMap.shear`, less the piece's integer
shift.  Long runs go JUMP_LENGTH symbols at a time: the same search over
the depth-L coding cells of `PieceExchange.power` gives a cell's whole
word and its branch.  Where a macro step is left open, one single step
is taken and the macro step is tried again from the next point.
"""

from __future__ import annotations

from bisect import bisect_right
from math import floor, lcm

from .exchange import (ExchangeError, PieceExchange, Point,
                       build_base_exchange)
from .field import PHI, QPhi, over_one_denominator, sgn_pair
from .geometry import GeometryError
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


def _mul(a: int, b: int, c: int, e: int) -> tuple[int, int]:
    """(a + b*phi) * (c + e*phi) as an integer pair."""
    be = b * e
    return a * c + be, a * e + b * c + be


# key(A, B) = A*_ONE + B*_PHI_ONE; (A + B*phi)*_ONE - key = B*{phi*_ONE}
_ONE = 1 << 64
_PHI_ONE = floor(PHI * _ONE)


class _Index:
    """An exact x-sorted breakpoint index and integer strip tables.

    The distinct strip endpoints x_0 < ... < x_{m-1} cut the line into
    m + 1 open gaps: gap i lies below x_i and gap m above x_{m-1}.  Each
    gap lists the strips whose open x-range covers it in piece order and
    then strip order, so earlier pieces win overlaps as in
    `PieceExchange.locate`.  All bounds share one leading coefficient c2.
    A piece's move is the base's shear less its shift: (u - n, c0 - m, k).
    """

    def __init__(self, exchange: PieceExchange) -> None:
        try:
            self.c2 = exchange.leading_coefficient()
        except GeometryError as e:
            raise ExchangeError(f"no single c2 to compile: {e}") from None
        u, k, c0 = exchange.base.shear()
        values = [self.c2, u, c0]
        self.strips = []
        self.moves = {}
        for piece in exchange.pieces:
            n, m = piece.shift
            self.moves[piece.label] = (u - n, c0 - m, k)
            for s in piece.region.strips:
                values += s.lower.c1, s.lower.c0, s.upper.c1, s.upper.c0
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
        rows, the endpoints' keys, the largest |B| of the endpoints'
        integer pairs, and the move of each label: the symbols it codes (a
        `PieceExchange.power` piece's word, or a 1-tuple), U = u*d, U's
        key, and G, H with which Z = y*d**3 - c2*d*X**2 moves by G*X + H."""
        cached = self._tables.get(d)
        if cached is not None:
            return cached
        d2, d3 = d * d, d * d * d
        c2a, c2b = _pair(self.c2, d)
        moves = {}
        for label, (u, q0, k) in self.moves.items():
            (ua, ub), (qa, qb) = _pair(u, d), _pair(q0, d)
            # G = k*d**2 - 2*c2*d*U and H = Q0*d**2 - c2*d*U**2
            ga, gb = _mul(-2 * c2a, -2 * c2b, ua, ub)
            ha, hb = _mul(c2a, c2b, *_mul(ua, ub, ua, ub))
            moves[label] = (label if isinstance(label, tuple) else (label,),
                            ua, ub, ua * _ONE + ub * _PHI_ONE, k * d2 + ga, gb,
                            qa * d2 - ha, qb * d2 - hb)
        rows = []
        for piece, s in self.strips:
            # lower and upper - lower at scale d**3: c1*X needs d**2
            lo, hi = s.lower, s.upper
            rows.append((*_pair(lo.c1, d2), *_pair(lo.c0, d3),
                         *_pair(hi.c1 - lo.c1, d2), *_pair(hi.c0 - lo.c0, d3),
                         moves[piece.label]))
        gaps = tuple(tuple(rows[j] for j in gap) for gap in self._gaps)
        ends = [_pair(x, d) for x in self.xs]
        keys = [a * _ONE + b * _PHI_ONE for a, b in ends]
        table = (gaps, keys, max(abs(b) for _, b in ends), moves)
        self._tables[d] = table
        return table


def _locate(table, xa, xb, kx, za, zb):
    """The move of the strip holding (x, y) strictly inside, or None when
    an endpoint key within slack = |xb| + eb of kx leaves the gap open, a
    y sign test is zero or no strip holds it; X = x*d is (xa, xb) with
    key kx, Z = y*d**3 - c2*d*X**2 is (za, zb)."""
    gaps, keys, eb, _ = table
    lo = bisect_right(keys, kx)
    slack = (xb if xb >= 0 else -xb) + eb
    if (lo and kx - keys[lo - 1] <= slack) or \
            (lo < len(keys) and keys[lo] - kx <= slack):
        return None
    xab = xa + xb
    for c1a, c1b, c0a, c0b, e1a, e1b, e0a, e0b, move in gaps[lo]:
        # (lower(x) - y) * d**3 = c1*X + c0 - Z, then (upper(x) - y) * d**3
        va = c1a * xa + c1b * xb + c0a - za
        vb = c1a * xb + c1b * xab + c0b - zb
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
    an index of `exchange.power(JUMP_LENGTH)`, which must share its c2.

    Both go through `_locate`, which decides only points strictly inside
    a strip and in a gap the keys make certain.  A single step it leaves
    open takes its label from `PieceExchange.locate`, which decides the
    boundary and raises as `PieceExchange.step` does.  A macro step it
    leaves open, or one with fewer than JUMP_LENGTH symbols left, becomes
    one single step, and the next point tries a macro step again.  A point strictly inside a
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
        if n < 0:
            raise ValueError("n must be >= 0")
        self._asked += n
        jumps = self._jumps
        if jumps is None and \
                self._asked > JUMP_AFTER * len(self._index.strips):
            jumps = _Index(self.exchange.power(JUMP_LENGTH))
            if jumps.c2 != self._index.c2:
                raise ExchangeError("the power's c2 differs")
            self._jumps = jumps
        d = lcm(self._index.base_den, p.x.scaled()[2], p.y.scaled()[2])
        if jumps is not None:
            d = lcm(d, jumps.base_den)
            jtable = jumps.table(d)
        table = self._table(d)
        d3 = d * d * d
        c2a, c2b = _pair(self._index.c2, d)
        xa, xb = _pair(p.x, d)
        ya, yb = _pair(p.y, d3)
        ca, cb = _mul(c2a, c2b, *_mul(xa, xb, xa, xb))
        za, zb, kx = ya - ca, yb - cb, xa * _ONE + xb * _PHI_ONE
        word: list[int] = []
        left = n
        while left:
            move = None
            if jumps is not None and left >= JUMP_LENGTH:
                move = _locate(jtable, xa, xb, kx, za, zb)
            if move is None:
                move = _locate(table, xa, xb, kx, za, zb)
                if move is None:
                    ca, cb = _mul(c2a, c2b, *_mul(xa, xb, xa, xb))
                    move = table[-1][self.exchange.locate(Point(
                        QPhi.from_scaled(xa, xb, d),
                        QPhi.from_scaled(za + ca, zb + cb, d3)))]
            # the branch (x, y) -> (x + u, y + k*x + q0); Z takes X before it
            label, ua, ub, ku, ga, gb, ha, hb = move
            word.extend(label)
            za += ga * xa + gb * xb + ha
            zb += ga * xb + gb * (xa + xb) + hb
            xa += ua
            xb += ub
            kx += ku
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
