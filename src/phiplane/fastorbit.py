"""Exact integer-arithmetic orbit coding.

Orbit points and strip bounds are rescaled by a common denominator so
every membership test becomes a sign evaluation of an integer pair
(A, B) standing for A + B*phi, decided by the field's exact
`sgn_pair`, so no step ever depends on floating point.
"""

from __future__ import annotations

from math import lcm

from .exchange import (BoundaryError, ExchangeError, PieceExchange, Point,
                       base_quadratics, build_base_exchange)
from .field import QPhi, sgn_pair
from .words import Word


def _denoms(x: QPhi) -> int:
    return x.scaled()[2]


def _pair(x: QPhi, scale: int) -> tuple[int, int]:
    """x * scale as an integer pair; scale must be a multiple of x's D."""
    A, B, D = x.scaled()
    k, r = divmod(scale, D)
    assert r == 0
    return A * k, B * k


class CompiledExchange:
    """Integer strip tables for one exchange, shared across orbits."""

    def __init__(self, exchange: PieceExchange) -> None:
        self.exchange = exchange
        d = 1
        for piece in exchange.pieces:
            for s in piece.region.strips:
                for v in (s.x_lo, s.x_hi,
                          s.lower.c2, s.lower.c1, s.lower.c0,
                          s.upper.c2, s.upper.c1, s.upper.c0):
                    d = lcm(d, _denoms(v))
        base = exchange.base
        if base.kind == "T_phi":
            d = lcm(d, 2)
        else:
            d = lcm(d, _denoms(base.alpha), _denoms(base.beta))
        self.base_den = d
        self._tables: dict[int, tuple] = {}

    def _table(self, d: int) -> tuple:
        cached = self._tables.get(d)
        if cached is not None:
            return cached
        d2, d3 = d * d, d * d * d
        pieces = []
        for piece in self.exchange.pieces:
            strips = []
            for s in piece.region.strips:
                lo = _pair(s.x_lo, d)
                hi = _pair(s.x_hi, d)
                # predicate scale d**3: c2*(X*X) has d*d2, c1*X needs d2, c0 needs d3
                lw = (_pair(s.lower.c2, d), _pair(s.lower.c1, d2),
                      _pair(s.lower.c0, d3), s.lower_closed)
                up = (_pair(s.upper.c2, d), _pair(s.upper.c1, d2),
                      _pair(s.upper.c0, d3), s.upper_closed)
                strips.append((lo, hi, s.lo_closed, s.hi_closed, lw, up))
            pieces.append((piece.label, piece.shift, strips))
        base = self.exchange.base
        if base.kind == "T_phi":
            step_x = (2 * d, -d)                       # 1/phi**2
            step_y = (3 * d // 2, -d)                  # -1/(2 phi**3)
            shear = True
        else:
            step_x = _pair(base.alpha, d)
            step_y = _pair(base.beta, d)
            shear = False
        table = (tuple(pieces), step_x, step_y, shear, d, d2, d3)
        self._tables[d] = table
        return table

    def _run(self, p: Point, n: int, record: bool):
        d = lcm(self.base_den, _denoms(p.x), _denoms(p.y))
        pieces, step_x, step_y, shear, d, d2, d3 = self._table(d)
        xa, xb = _pair(p.x, d)
        ya, yb = _pair(p.y, d)
        word: list[int] = []
        for _ in range(n):
            qa = qb = None
            label = None
            shift = (0, 0)
            for plabel, pshift, strips in pieces:
                for lo, hi, loc, hic, lw, up in strips:
                    s = sgn_pair(xa - lo[0], xb - lo[1])
                    if s < 0 or (s == 0 and not loc):
                        continue
                    s = sgn_pair(hi[0] - xa, hi[1] - xb)
                    if s < 0 or (s == 0 and not hic):
                        continue
                    if qa is None:
                        x2a = xa * xa + xb * xb
                        x2b = 2 * xa * xb + xb * xb
                        qa, qb = x2a, x2b
                    inside = True
                    for (c2, c1, c0, closed), is_lower in ((lw, True), (up, False)):
                        va = (c2[0] * qa + c2[1] * qb
                              + c1[0] * xa + c1[1] * xb + c0[0]
                              - ya * d2)
                        vb = (c2[0] * qb + c2[1] * qa + c2[1] * qb
                              + c1[0] * xb + c1[1] * xa + c1[1] * xb + c0[1]
                              - yb * d2)
                        s = sgn_pair(-va, -vb) if is_lower else sgn_pair(va, vb)
                        if s < 0 or (s == 0 and not closed):
                            inside = False
                            break
                    if inside:
                        label = plabel
                        shift = pshift
                        break
                if label is not None:
                    break
            if label is None:
                self._fail(xa, xb, ya, yb, d)
            if record:
                word.append(label)
            if shear:
                ya += xa
                yb += xb
            xa += step_x[0] - shift[0] * d
            xb += step_x[1]
            ya += step_y[0] - shift[1] * d
            yb += step_y[1]
        return tuple(word)

    def _fail(self, xa, xb, ya, yb, d):
        # reconstruct the exact point for a classified error
        q = Point(QPhi.from_scaled(xa, xb, d), QPhi.from_scaled(ya, yb, d))
        self.exchange.locate(q)  # raises Boundary/OutsideDomain
        raise ExchangeError(f"inconsistent location for {q}")  # pragma: no cover

    def code_orbit(self, p: Point, n: int) -> Word:
        return self._run(p, n, record=True)

    def orbit_in_domain(self, p: Point, n: int) -> bool:
        try:
            self._run(p, n, record=False)
            return True
        except ExchangeError:
            return False


def compile_exchange(exchange: PieceExchange) -> CompiledExchange:
    """The exchange's compiled stepper, built once and then reused."""
    return exchange.compiled


class BaseExchangeOrbit:
    """Hand-specialized stepper for the level-1 exchange.

    Membership in the domain reduces to four predicates on p, q, r,
    which share their quadratic part, so a step costs one quadratic
    evaluation plus sign tests.
    """

    def __init__(self) -> None:
        p, q, r = base_quadratics()
        self._p = p
        # q = p + phi**2 x + 3/2, r = p - phi**2 x + 1 + 1/(2 phi**3)
        self._dq = (q.c1 - p.c1, q.c0 - p.c0)
        self._dr = (r.c1 - p.c1, r.c0 - p.c0)

    def run(self, pt: Point, n: int, record: bool = True):
        p = self._p
        d = lcm(2, _denoms(pt.x), _denoms(pt.y),
                _denoms(p.c2), _denoms(p.c1), _denoms(p.c0),
                _denoms(self._dq[0]), _denoms(self._dq[1]),
                _denoms(self._dr[0]), _denoms(self._dr[1]))
        d2, d3 = d * d, d * d * d
        c2 = _pair(p.c2, d)
        c1 = _pair(p.c1, d2)
        c0 = _pair(p.c0, d3)
        e1 = _pair(self._dq[0], d2)         # q - p linear coefficient
        kq = _pair(self._dq[1], d3)
        kr = _pair(self._dr[1], d3)
        xa, xb = _pair(pt.x, d)
        ya, yb = _pair(pt.y, d)
        word: list[int] = []
        append = word.append
        c2a, c2b = c2
        c1a, c1b = c1
        c0a, c0b = c0
        e1a, e1b = e1
        kqa, kqb = kq
        kra, krb = kr
        for _ in range(n):
            x2a = xa * xa + xb * xb
            x2b = 2 * xa * xb + xb * xb
            # V = (p(x) - y) * d**3 as a pair
            va = c2a * x2a + c2b * x2b + c1a * xa + c1b * xb + c0a - ya * d2
            vb = (c2a * x2b + c2b * x2a + c2b * x2b
                  + c1a * xb + c1b * xa + c1b * xb + c0b - yb * d2)
            if sgn_pair(va, vb) >= 0:       # need y > p(x)
                return self._bail(xa, xb, ya, yb, d)
            if sgn_pair(va + d3, vb) < 0:   # need y <= p(x) + 1
                return self._bail(xa, xb, ya, yb, d)
            ea = e1a * xa + e1b * xb
            eb = e1a * xb + e1b * xa + e1b * xb
            ra = va - ea + kra
            rb = vb - eb + krb
            sr = sgn_pair(ra, rb)
            if sr < 0:                      # y > r(x): piece 2
                if sgn_pair(ra + d3, rb) < 0:   # need y <= r(x) + 1
                    return self._bail(xa, xb, ya, yb, d)
                label = 2
            else:
                if sgn_pair(va + ea + kqa, vb + eb + kqb) < 0:  # need y <= q(x)
                    return self._bail(xa, xb, ya, yb, d)
                label = 1
            if record:
                append(label)
            ya += xa
            yb += xb
            xa += 2 * d - (d if label == 2 else 0)
            xb -= d
            ya += 3 * d // 2
            yb -= d
        return tuple(word)

    def _bail(self, xa, xb, ya, yb, d):
        q = Point(QPhi.from_scaled(xa, xb, d), QPhi.from_scaled(ya, yb, d))
        build_base_exchange().locate(q)  # raises with the classification
        raise ExchangeError(f"inconsistent location for {q}")  # pragma: no cover

    def code_orbit(self, pt: Point, n: int) -> Word:
        return self.run(pt, n, record=True)

    def orbit_in_domain(self, pt: Point, n: int) -> bool:
        try:
            self.run(pt, n, record=False)
            return True
        except ExchangeError:
            return False
