"""Piece exchanges of the plane and the one map type that builds them.

`PlaneMap` covers T_phi(x, y) = (x + 1/phi**2, y + x - 1/(2 phi**3)),
psi, translations, every piece's branch p -> T(p) - (n, m) and their
inverses and composites; its `image` is the only strip transport.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import TYPE_CHECKING, NamedTuple

from .field import HALF, ONE, PHI, ZERO, QPhi, cmp, over_one_denominator, phi_power
from .geometry import (QuadBound, Region, Strip, area_disjoint, is_subset,
                       strips_from_constraints)
from .words import Word

if TYPE_CHECKING:
    from .fastorbit import CompiledExchange

# T_phi(x, y) = (x + INV_PHI2, y + x + T_PHI_DRIFT)
INV_PHI2 = phi_power(-2)                    # 1/phi**2 = 2 - phi
T_PHI_DRIFT = -phi_power(-3) * HALF         # -1/(2 phi**3)


class ExchangeError(ValueError):
    pass


class OutsideDomainError(ExchangeError):
    pass


class BoundaryError(ExchangeError):
    pass


class Point(NamedTuple):
    x: QPhi
    y: QPhi


def _pullback(q: QuadBound, a: QPhi, u: QPhi, s: int = 1) -> QuadBound:
    """The bound x -> s*q(a*x + u), s = +-1."""
    c2a = q.c2 * a
    c = (c2a * a, 2 * c2a * u + q.c1 * a, (q.c2 * u + q.c1) * u + q.c0)
    return QuadBound(*(c if s > 0 else (-v for v in c)))


@dataclass(frozen=True)
class PlaneMap:
    """(x, y) -> (a*x + u, s*y + q(x)) with a != 0 and s = +-1; a group
    under `inverse` and `@` (self @ other applies other first)."""

    a: QPhi
    u: QPhi
    s: int
    q: QuadBound

    def shear(self) -> tuple[QPhi, int, QPhi]:
        """(u, k, c0) of the map as (x, y) -> (x + u, y + k*x + c0), k an
        integer; any other map raises `ExchangeError`."""
        k, kb, kd = self.q.c1.scaled()
        if self.a != ONE or self.s != 1 or self.q.c2 or (kb, kd) != (0, 1):
            raise ExchangeError("the map is not an integer-slope shear")
        return self.u, k, self.q.c0

    def apply(self, p: Point) -> Point:
        return Point(self.a * p.x + self.u,
                     (p.y if self.s > 0 else -p.y) + self.q(p.x))

    def inverse(self) -> "PlaneMap":
        """(X, Y) -> (x, s*(Y - q(x))) with x = (X - u)/a."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "PlaneMap":
        ai = self.a.inverse()
        ui = -self.u * ai
        return PlaneMap(ai, ui, self.s, _pullback(self.q, ai, ui, -self.s))

    def __matmul__(self, other: "PlaneMap") -> "PlaneMap":
        # y -> s*(s'*y + q'(x)) + q(a'*x + u')
        q = _pullback(self.q, other.a, other.u)
        o = _pullback(other.q, ONE, ZERO, self.s)
        return PlaneMap(self.a * other.a, self.a * other.u + self.u,
                        self.s * other.s,
                        QuadBound(q.c2 + o.c2, q.c1 + o.c1, q.c0 + o.c0))

    def image(self, region: Region) -> Region:
        """The image of a region, every strip moved once.

        A bound b becomes X -> (s*b + q)(x), x = (X - u)/a: an action on
        (c2, c1, c0) set up once per call in integers, so each output
        coefficient is one element built from integer rows over one
        denominator.  Bounds and x-ends are moved once per value: a memo,
        dropped when the call returns, holds them.  a < 0 reverses
        x-intervals and s < 0 swaps lower and upper bounds, closedness
        flags included.
        """
        s, q, inv = self.s, self.q, self.inverse()
        # x = ai*X + ui with ai = (a + a'*phi)/m and ui = (u + u'*phi)/m;
        # coefficient j of c(ai*X + ui) is the sum of c_i*K[j][i], with
        # K = ((ai**2,), (2*ai*ui, ai), (ui**2, ui, 1)) as pairs over m**2
        (a, a_, u, u_), m = over_one_denominator([inv.a, inv.u])
        K = (((0, (a * a + a_ * a_, 2 * a * a_ + a_ * a_)),),
             ((0, (2 * (a * u + a_ * u_), 2 * (a * u_ + a_ * u + a_ * u_))),
              (1, (a * m, a_ * m))),
             ((0, (u * u + u_ * u_, 2 * u * u_ + u_ * u_)),
              (1, (u * m, u_ * m)), (2, (m * m, 0))))
        (xa, xb, ua, ub), Mx = over_one_denominator([self.a, self.u])
        moved_x: dict[tuple[int, int, int], QPhi] = {}
        moved_b: dict[tuple, QuadBound] = {}

        def x_end(x: QPhi) -> QPhi:
            key = x.scaled()
            y = moved_x.get(key)
            if y is None:       # a*x + u
                A, B, X = key
                y = moved_x[key] = QPhi.from_scaled(
                    xa * A + xb * B + ua * X, xa * B + xb * (A + B) + ub * X,
                    X * Mx)
            return y

        def bound(b: QuadBound) -> QuadBound:
            key = (b.c2.scaled(), b.c1.scaled(), b.c0.scaled())
            moved = moved_b.get(key)
            if moved is None:   # the rows of s*b + q, then K
                r, D = over_one_denominator([b.c2, b.c1, b.c0,
                                             q.c2, q.c1, q.c0])
                c = [(s * r[i] + r[i + 6], s * r[i + 1] + r[i + 7])
                     for i in (0, 2, 4)]
                coeffs = []
                for row in K:
                    A = B = 0
                    for i, (e, f) in row:       # c_i times (e + f*phi)
                        g, h = c[i]
                        A, B = A + g * e + h * f, B + g * f + h * (e + f)
                    coeffs.append(QPhi.from_scaled(A, B, D * m * m))
                moved = moved_b[key] = QuadBound(*coeffs)
            return moved

        flip = self.a.sign() < 0
        out = []
        for st in region.strips:
            x = (x_end(st.x_lo), x_end(st.x_hi))
            y = (bound(st.lower), bound(st.upper))
            fx = (st.lo_closed, st.hi_closed)
            fy = (st.lower_closed, st.upper_closed)
            x, fx = (x[::-1], fx[::-1]) if flip else (x, fx)
            y, fy = (y[::-1], fy[::-1]) if s < 0 else (y, fy)
            out.append(Strip(*x, *y, *fx, *fy))
        return Region.of(out)


def translation(u: QPhi, v: QPhi) -> PlaneMap:
    """The plane translation (x, y) -> (x + u, y + v)."""
    return PlaneMap(ONE, u, 1, QuadBound(ZERO, ZERO, v))


T_PHI = PlaneMap(ONE, INV_PHI2, 1, QuadBound(ZERO, ONE, T_PHI_DRIFT))
# psi(x, y) = (-phi x, -y - phi x**2 / 2 - x / (2 phi))
PSI = PlaneMap(-PHI, ZERO, -1,
               QuadBound(-PHI * HALF, -phi_power(-1) * HALF, ZERO))
apply_T_phi = T_PHI.apply
psi_inverse = PSI.inverse().apply


@dataclass(frozen=True)
class Piece:
    """A piece and its integer shift; the pieces of a power are labelled
    by their words."""

    label: int | Word
    region: Region
    shift: tuple[int, int]


@dataclass(frozen=True)
class PieceExchange:
    base: PlaneMap
    pieces: tuple[Piece, ...]
    level: int = 1

    def __post_init__(self) -> None:
        if len({p.label for p in self.pieces}) != len(self.pieces):
            raise ExchangeError("repeated piece label")

    def piece(self, label: int) -> Piece:
        for p in self.pieces:
            if p.label == label:
                return p
        raise ExchangeError(f"no piece labelled {label}")

    def locate(self, p: Point) -> int:
        """Label of the piece containing p; earlier pieces win overlaps."""
        for piece in self.pieces:
            if piece.region.contains(p.x, p.y):
                return piece.label
        if any(piece.region.closure_contains(p.x, p.y) for piece in self.pieces):
            raise BoundaryError(f"boundary point {p}")
        raise OutsideDomainError(f"point {p} outside the domain")

    def branch(self, label: int) -> PlaneMap:
        """The map p -> T(p) - (n, m) of piece `label`, T the base map."""
        if label not in self._branches:
            raise ExchangeError(f"no piece labelled {label}")
        return self._branches[label]

    @cached_property
    def _branches(self) -> dict[int, PlaneMap]:
        return {p.label: translation(QPhi(-p.shift[0]), QPhi(-p.shift[1]))
                @ self.base for p in self.pieces}

    def step(self, p: Point) -> tuple[int, Point]:
        label = self.locate(p)
        return label, self.branch(label).apply(p)

    @cached_property
    def compiled(self) -> "CompiledExchange":
        """The integer orbit stepper, compiled on first use."""
        from .fastorbit import CompiledExchange
        return CompiledExchange(self)

    def code_orbit(self, p: Point, n: int) -> Word:
        return self.compiled.code_orbit(p, n)

    def power(self, L: int) -> "PieceExchange":
        """The exchange of T^L: one piece per positive-area depth-L cell,
        labelled by the cell's word w, whose branch is
        branch(w_L) @ ... @ branch(w_1) = T^L - (N, M).  T is a shear of
        slope k, so T(p - (n, m)) = T(p) - (n, m + k*n) gives (N, M)."""
        from .refine import refinement_chain
        if L < 1:
            raise ExchangeError("a power needs L >= 1")
        k = self.base.shear()[1]
        base = self.base
        for _ in range(L - 1):
            base = self.base @ base
        shifts = {p.label: p.shift for p in self.pieces}
        pieces = []
        for cell in refinement_chain(self, L)[-1]:
            n = m = 0
            for label in cell.word:
                ns, ms = shifts[label]
                n, m = n + ns, m + k * n + ms
            pieces.append(Piece(cell.word, cell.region, (n, m)))
        return PieceExchange(base, tuple(pieces), self.level)

    def leading_coefficient(self) -> QPhi:
        """The c2 of all strips of all pieces; `GeometryError` on a mix."""
        return Region(tuple(s for p in self.pieces
                            for s in p.region.strips)).leading_coefficient()


# -- the base exchange of the nilsystem ---------------------------------

def base_quadratics() -> tuple[QuadBound, QuadBound, QuadBound]:
    """The bounds p, q = p + phi**2 x + 3/2, r = p - phi**2 x + 1 + 1/(2 phi**3)."""
    phi2 = phi_power(2)
    p = QuadBound(phi2 * HALF, -QPhi(0, 1) * HALF, -phi_power(-1))
    q = p.add_affine(phi2, QPhi(Fraction(3, 2)))
    r = p.add_affine(-phi2, ONE + phi_power(-3) * HALF)
    return p, q, r


def build_base_exchange(reading: str = "consistent") -> PieceExchange:
    """The level-1 two-piece exchange with areas 1/phi and 1/phi**2.

    The published band boundaries "min(q, r-1)" / "(r-1, r]" yield areas
    (1/4, 1/phi**2) and contradict both the stated areas and the stated
    projection witness; shifting the r-band up by one, i.e. reading the
    pieces as {y <= min(q, r)} and {r < y <= r+1}, reproduces every
    stated value exactly.  The default builds the consistent reading;
    reading="literal" keeps the published boundaries for the
    discrepancy report.
    """
    p, q, r = base_quadratics()
    hull_lo, hull_hi = QPhi(-2), QPhi(2)
    p1 = p.add_affine(ZERO, ONE)
    if reading == "consistent":
        d2_lo, d2_hi = r, r.add_affine(ZERO, ONE)
    elif reading == "literal":
        d2_lo, d2_hi = r.add_affine(ZERO, -ONE), r
    else:
        raise ExchangeError(f"unknown reading {reading!r}")
    d1 = strips_from_constraints(
        hull_lo, hull_hi,
        lowers=[(p, False)],
        uppers=[(p1, True), (q, True), (d2_lo, True)])
    d2 = strips_from_constraints(
        hull_lo, hull_hi,
        lowers=[(p, False), (d2_lo, False)],
        uppers=[(p1, True), (d2_hi, True)])
    return PieceExchange(
        base=T_PHI,
        pieces=(Piece(1, Region.of(d1), (0, 0)),
                Piece(2, Region.of(d2), (1, 0))),
        level=1)


PAPER_STATED_Z = phi_power(-1) * HALF + phi_power(-3) * HALF


def check_projection_witness(exchange: PieceExchange, z: QPhi) -> list[str]:
    """Violated projection conditions for a candidate witness, if any."""
    bad: list[str] = []
    # p(D1) in ]z-1, z+1/phi**2] and p(D2) in ]z-1/phi**2, z+1/phi**2[;
    # an end on an open bound fails where its slice is not empty
    for label, gap, hi_open, lo_msg, hi_msg in (
            (1, ONE, False, "p(D1) reaches z-1", "p(D1) exceeds z+1/phi^2"),
            (2, INV_PHI2, True,
             "p(D2) reaches z-1/phi^2", "p(D2) reaches z+1/phi^2")):
        region = exchange.piece(label).region
        lo, hi = region.x_extent()
        c = cmp(lo, z - gap)
        if c < 0 or c == 0 and region.slice_nonempty_at(lo):
            bad.append(lo_msg)
        c = cmp(hi, z + INV_PHI2)
        if c > 0 or c == 0 and hi_open and region.slice_nonempty_at(hi):
            bad.append(hi_msg)
    return bad


def projection_witness(exchange: PieceExchange) -> QPhi:
    """A witness z computed from the constructed strips.

    p(D1) within ]z-1, z+1/phi**2] and p(D2) within ]z-1/phi**2,
    z+1/phi**2[ confine z to [z_min, z_max]; `check_projection_witness`
    decides each candidate, where an end holds only over an empty slice.
    """
    lo1, hi1 = exchange.piece(1).region.x_extent()
    lo2, hi2 = exchange.piece(2).region.x_extent()
    z_min = max(hi1, hi2) - INV_PHI2
    z_max = min(lo1 + ONE, lo2 + INV_PHI2)
    if z_max < z_min:
        raise ExchangeError(
            "projection hypothesis fails: no witness z fits the piece extents")
    for z in (z_min, (z_min + z_max) * HALF, z_max):
        if not check_projection_witness(exchange, z):
            return z
    raise ExchangeError(
        "projection hypothesis fails at an endpoint slice"
        f" (feasible interval [{z_min}, {z_max}])")


def renormalize(exchange: PieceExchange) -> PieceExchange:
    """One step of the construction: D1' = psi^-1(D), D2' = T(psi^-1(D1))."""
    if exchange.base != T_PHI or len(exchange.pieces) != 2:
        raise ExchangeError("renormalization needs a two-piece T_phi exchange")
    if exchange.piece(1).shift != (0, 0) or exchange.piece(2).shift != (1, 0):
        raise ExchangeError("renormalization needs shifts (0,0) and (1,0)")
    projection_witness(exchange)  # raises with the violated condition
    d1 = exchange.piece(1).region
    d2 = exchange.piece(2).region
    d1_new = PSI.inverse().image(Region(d1.strips + d2.strips))
    d2_new = (T_PHI @ PSI.inverse()).image(d1)
    return PieceExchange(
        base=T_PHI,
        pieces=(Piece(1, d1_new, (0, 0)), Piece(2, d2_new, (1, 0))),
        level=exchange.level + 1)


def renormalization_checks(before: PieceExchange,
                           after: PieceExchange) -> dict[str, bool]:
    """Exact zone inclusions and disjointness for one renormalization step."""
    d1 = before.piece(1).region
    d2 = before.piece(2).region
    d1n = after.piece(1).region
    d2n = after.piece(2).region
    renorm = T_PHI @ PSI.inverse()
    return {
        "T(psi^-1(D1)) in D2'": is_subset(renorm.image(d1), d2n),
        "T(psi^-1(D2)) in D1'": is_subset(renorm.image(d2), d1n),
        "T(D2')-(1,0) in D1'": is_subset(after.branch(2).image(d2n), d1n),
        "D1' and D2' area-disjoint": area_disjoint(d1n, d2n),
    }


def exchange_tower(levels: int) -> list[PieceExchange]:
    """[R^(1), ..., R^(levels)] by repeated renormalization."""
    tower = [build_base_exchange()]
    while len(tower) < levels:
        tower.append(renormalize(tower[-1]))
    return tower


# -- the four-rectangle translation exchange ----------------------------

def rational_dependence(alpha: QPhi, beta: QPhi) -> tuple[int, int, int]:
    """Integers (n, m, k) with n*alpha + m*beta = k, the least such
    multiple of (b2, -b1), signed so that n < 0 (or n = 0 and m < 0).

    Q(phi) has dimension 2 over Q, so 1, alpha and beta are always
    dependent: the phi-parts cancel exactly for (n, m) proportional to
    (b2, -b1).  If alpha and beta are both rational, (1, 0) is used.
    """
    u, v = ((beta.b, -alpha.b) if alpha.b or beta.b
            else (Fraction(1), Fraction(0)))
    d = lcm(u.denominator, v.denominator)
    n, m = int(u * d), int(v * d)
    g = gcd(n, m) * (-1 if (n, m) > (0, 0) else 1)
    n, m = n // g, m // g
    k = n * alpha.a + m * beta.a
    return n * k.denominator, m * k.denominator, int(k * k.denominator)


def build_translation_exchange(alpha: QPhi, beta: QPhi) -> PieceExchange:
    """Carry partition of the unit square under (x+alpha, y+beta).

    Over Q(phi) the numbers 1, alpha, beta are always rationally
    dependent (see `rational_dependence`), so Theorem 1's independence
    hypothesis is left to the caller.
    """
    if not (ZERO < alpha < ONE and ZERO < beta < ONE):
        raise ExchangeError("alpha and beta must lie strictly in (0, 1)")
    zero_b = QuadBound(ZERO, ZERO, ZERO)
    one_b = QuadBound(ZERO, ZERO, ONE)
    ca = ONE - alpha
    cb = ONE - beta
    cb_bound = QuadBound(ZERO, ZERO, cb)

    def rect(x0, x1, y_lo, y_up) -> Region:
        return Region.of([Strip(x0, x1, y_lo, y_up,
                                lo_closed=True, hi_closed=False,
                                lower_closed=True, upper_closed=False)])

    pieces = (
        Piece(1, rect(ZERO, ca, zero_b, cb_bound), (0, 0)),
        Piece(2, rect(ca, ONE, zero_b, cb_bound), (1, 0)),
        Piece(3, rect(ZERO, ca, cb_bound, one_b), (0, 1)),
        Piece(4, rect(ca, ONE, cb_bound, one_b), (1, 1)),
    )
    return PieceExchange(base=translation(alpha, beta),
                         pieces=pieces, level=1)


# -- exact sample points ------------------------------------------------

def strip_midpoint(s: Strip) -> Point:
    x = (s.x_lo + s.x_hi) * HALF
    return Point(x, (s.lower(x) + s.upper(x)) * HALF)


def sample_points(exchange: PieceExchange, count: int,
                  seed: int = 0) -> list[Point]:
    """Strip midpoints plus reproducible points whose offsets in their
    strip have denominator 64."""
    pts: list[Point] = []
    strips = [s for piece in exchange.pieces for s in piece.region.strips]
    for s in strips:
        if len(pts) >= count:
            break
        pts.append(strip_midpoint(s))
    rng = random.Random(seed)
    guard = 0
    while len(pts) < count:
        guard += 1
        if guard > 10000 * count:
            raise ExchangeError("sampling failed to hit the domain")
        s = strips[rng.randrange(len(strips))]
        tx = Fraction(rng.randrange(1, 64), 64)
        ty = Fraction(rng.randrange(1, 64), 64)
        x = s.x_lo + (s.x_hi - s.x_lo) * QPhi(tx)
        y = s.lower(x) + (s.upper(x) - s.lower(x)) * QPhi(ty)
        p = Point(x, y)
        if s.contains(x, y):
            pts.append(p)
    return pts
