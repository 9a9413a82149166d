"""Piece exchanges of the plane over an exact base map.

Covers the two-piece exchange conjugate to the affine nilsystem
(x, y) -> (x + 1/phi**2, y + x - 1/(2 phi**3)), its renormalization
step, and the four-rectangle carry exchange over a torus translation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Literal, NamedTuple

from .field import HALF, ONE, ZERO, QPhi, phi_power
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


@dataclass(frozen=True)
class BaseMap:
    """The affine shear (x, y) -> (x + alpha, y + beta + k*x).

    T_phi is the shear with alpha = 1/phi**2, beta = -1/(2 phi**3) and
    k = 1; a plane translation has k = 0.
    """

    alpha: QPhi
    beta: QPhi
    k: int = 0

    @property
    def kind(self) -> Literal["T_phi", "translation"]:
        return "T_phi" if self.k else "translation"

    def apply(self, p: Point) -> Point:
        return Point(p.x + self.alpha, p.y + self.beta + self.k * p.x)

    def apply_inverse(self, p: Point) -> Point:
        x = p.x - self.alpha
        return Point(x, p.y - self.beta - self.k * x)

    def image(self, region: Region) -> Region:
        return region_image(region, self.alpha, self.beta, self.k)


T_PHI = BaseMap(INV_PHI2, T_PHI_DRIFT, 1)


def apply_T_phi(p: Point) -> Point:
    return T_PHI.apply(p)


def psi(p: Point) -> Point:
    """(x, y) -> (-phi x, -y - phi x**2 / 2 - x / (2 phi))."""
    phi = QPhi(0, 1)
    return Point(-phi * p.x,
                 -p.y - phi * p.x * p.x * HALF - phi_power(-1) * p.x * HALF)


def psi_inverse(p: Point) -> Point:
    """(x, y) -> (-x/phi, -y - x**2/(2 phi) + x/(2 phi**2))."""
    inv_phi = phi_power(-1)
    return Point(-p.x * inv_phi,
                 -p.y - p.x * p.x * inv_phi * HALF + p.x * INV_PHI2 * HALF)


@dataclass(frozen=True)
class Piece:
    label: int
    region: Region
    shift: tuple[int, int]


@dataclass(frozen=True)
class PieceExchange:
    base: BaseMap
    pieces: tuple[Piece, ...]
    level: int = 1

    def piece(self, label: int) -> Piece:
        for p in self.pieces:
            if p.label == label:
                return p
        raise ExchangeError(f"no piece labelled {label}")

    def domain_area(self) -> QPhi:
        total = ZERO
        for p in self.pieces:
            total = total + p.region.area()
        return total

    def locate(self, p: Point) -> int:
        """Label of the piece containing p; earlier pieces win overlaps."""
        for piece in self.pieces:
            if piece.region.contains(p.x, p.y):
                return piece.label
        if any(piece.region.closure_contains(p.x, p.y) for piece in self.pieces):
            raise BoundaryError(f"boundary point {p}")
        raise OutsideDomainError(f"point {p} outside the domain")

    def step(self, p: Point) -> tuple[int, Point]:
        label = self.locate(p)
        n, m = self.piece(label).shift
        t = self.base.apply(p)
        return label, Point(t.x - n, t.y - m)

    @cached_property
    def compiled(self) -> "CompiledExchange":
        """The integer orbit stepper, compiled on first use."""
        from .fastorbit import CompiledExchange
        return CompiledExchange(self)

    def code_orbit(self, p: Point, n: int) -> Word:
        return self.compiled.code_orbit(p, n)

    def leading_coefficient(self) -> QPhi:
        return self.pieces[0].region.leading_coefficient()


# -- strip transport under the construction maps ------------------------

def strip_image(s: Strip, u: QPhi, v: QPhi, k: int = 0) -> Strip:
    """Image of a strip under the shear (x, y) -> (x + u, y + v + k*x)."""
    d0 = v - k * u
    return Strip(s.x_lo + u, s.x_hi + u,
                 s.lower.shift_x(-u).add_affine(k, d0),
                 s.upper.shift_x(-u).add_affine(k, d0),
                 s.lo_closed, s.hi_closed, s.lower_closed, s.upper_closed)


def region_image(region: Region, u: QPhi, v: QPhi, k: int = 0) -> Region:
    return Region.of(strip_image(s, u, v, k) for s in region.strips)


def strip_psi_inverse(s: Strip) -> Strip:
    """Image under psi_inverse: interval reversal, bound swap and flip."""
    phi = QPhi(0, 1)
    inv_phi = phi_power(-1)
    corr1 = -inv_phi * HALF           # coefficient of X in the y-correction
    # new bounds: -old(-phi X) - phi X**2 / 2 - X / (2 phi)
    def transport(b: QuadBound) -> QuadBound:
        flipped = -b.compose_scale(-phi)
        return QuadBound(flipped.c2 - phi * HALF,
                         flipped.c1 + corr1,
                         flipped.c0)
    return Strip(-s.x_hi * inv_phi, -s.x_lo * inv_phi,
                 transport(s.upper), transport(s.lower),
                 lo_closed=s.hi_closed, hi_closed=s.lo_closed,
                 lower_closed=s.upper_closed, upper_closed=s.lower_closed)


def region_psi_inverse(region: Region) -> Region:
    return Region.of(strip_psi_inverse(s) for s in region.strips)


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


def witness_interval(exchange: PieceExchange) -> tuple[QPhi, QPhi]:
    """Feasible interval for the projection witness z.

    z must satisfy p(D1) within ]z-1, z+1/phi**2] and p(D2) within
    ]z-1/phi**2, z+1/phi**2[; endpoint equalities are allowed only where
    the corresponding vertical slice of the piece is empty.
    """
    d1 = exchange.piece(1).region
    d2 = exchange.piece(2).region
    lo1, hi1 = d1.x_extent()
    lo2, hi2 = d2.x_extent()
    z_min = hi1 - INV_PHI2
    if (hi2 - INV_PHI2 - z_min).sign() > 0:
        z_min = hi2 - INV_PHI2
    z_max = lo1 + ONE
    if (lo2 + INV_PHI2 - z_max).sign() < 0:
        z_max = lo2 + INV_PHI2
    if (z_max - z_min).sign() < 0:
        raise ExchangeError(
            "projection hypothesis fails: no witness z fits the piece extents")
    return z_min, z_max


def check_projection_witness(exchange: PieceExchange, z: QPhi) -> list[str]:
    """Violated projection conditions for a candidate witness, if any."""
    d1 = exchange.piece(1).region
    d2 = exchange.piece(2).region
    bad: list[str] = []
    lo1, hi1 = d1.x_extent()
    lo2, hi2 = d2.x_extent()
    # p(D1) subset ]z-1, z+1/phi**2]: left end open, right closed
    if (lo1 - (z - ONE)).sign() < 0 or \
            ((lo1 - (z - ONE)).sign() == 0 and d1.slice_nonempty_at(lo1)):
        bad.append("p(D1) reaches z-1")
    if (hi1 - (z + INV_PHI2)).sign() > 0:
        bad.append("p(D1) exceeds z+1/phi^2")
    # p(D2) subset ]z-1/phi**2, z+1/phi**2[: both ends open
    if (lo2 - (z - INV_PHI2)).sign() < 0 or \
            ((lo2 - (z - INV_PHI2)).sign() == 0 and d2.slice_nonempty_at(lo2)):
        bad.append("p(D2) reaches z-1/phi^2")
    if (hi2 - (z + INV_PHI2)).sign() > 0 or \
            ((hi2 - (z + INV_PHI2)).sign() == 0 and d2.slice_nonempty_at(hi2)):
        bad.append("p(D2) reaches z+1/phi^2")
    return bad


def projection_witness(exchange: PieceExchange) -> QPhi:
    """A witness z computed from the constructed strips."""
    z_min, z_max = witness_interval(exchange)
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
    d1_new = Region.of(strip_psi_inverse(s) for s in d1.strips + d2.strips)
    d2_new = T_PHI.image(region_psi_inverse(d1))
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
    img1 = T_PHI.image(region_psi_inverse(d1))
    img2 = T_PHI.image(region_psi_inverse(d2))
    # the branch of piece 2: T, then back by (1, 0)
    returned = region_image(d2n, INV_PHI2 - ONE, T_PHI_DRIFT, 1)
    return {
        "T(psi^-1(D1)) in D2'": is_subset(img1, d2n),
        "T(psi^-1(D2)) in D1'": is_subset(img2, d1n),
        "T(D2')-(1,0) in D1'": is_subset(returned, d1n),
        "D1' and D2' area-disjoint": area_disjoint(d1n, d2n),
    }


def exchange_tower(levels: int) -> list[PieceExchange]:
    """[R^(1), ..., R^(levels)] by repeated renormalization."""
    tower = [build_base_exchange()]
    while len(tower) < levels:
        tower.append(renormalize(tower[-1]))
    return tower


# -- the four-rectangle translation exchange ----------------------------

def rational_dependence(alpha: QPhi, beta: QPhi,
                        bound: int = 20) -> tuple[int, int, int] | None:
    """Smallest (n, m, k) with n*alpha + m*beta = k in Z, if one exists."""
    for r in range(1, bound + 1):
        for n in range(-r, r + 1):
            for m in range(-r, r + 1):
                if max(abs(n), abs(m)) != r:
                    continue
                v = n * alpha + m * beta
                if v.b == 0 and v.a.denominator == 1:
                    return n, m, int(v.a)
    return None


def build_translation_exchange(alpha: QPhi, beta: QPhi,
                               check_independence: bool = True) -> PieceExchange:
    """Carry partition of the unit square under (x+alpha, y+beta)."""
    if not (ZERO < alpha < ONE and ZERO < beta < ONE):
        raise ExchangeError("alpha and beta must lie strictly in (0, 1)")
    if check_independence:
        dep = rational_dependence(alpha, beta)
        if dep is not None:
            n, m, k = dep
            raise ExchangeError(
                f"1, alpha, beta rationally dependent: {n}*alpha + {m}*beta = {k}")
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
    return PieceExchange(base=BaseMap(alpha, beta),
                         pieces=pieces, level=1)


# -- exact sample points ------------------------------------------------

def strip_midpoint(s: Strip) -> Point:
    x = (s.x_lo + s.x_hi) * HALF
    return Point(x, (s.lower(x) + s.upper(x)) * HALF)


def sample_points(exchange: PieceExchange, count: int,
                  seed: int = 0, denominator: int = 64) -> list[Point]:
    """Strip midpoints plus reproducible bounded-denominator points."""
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
        tx = Fraction(rng.randrange(1, denominator), denominator)
        ty = Fraction(rng.randrange(1, denominator), denominator)
        x = s.x_lo + (s.x_hi - s.x_lo) * QPhi(tx)
        y = s.lower(x) + (s.upper(x) - s.lower(x)) * QPhi(ty)
        p = Point(x, y)
        if s.contains(x, y):
            pts.append(p)
    return pts
