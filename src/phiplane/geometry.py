"""Exact planar regions as unions of quadratic strips over Q(phi).

A strip is the set of points between two quadratic graphs over an
x-interval.  Within one exchange all strip bounds share the same
leading coefficient, so every bound comparison reduces to an affine
function with a root in Q(phi); region intersection and subtraction
split the x-axis at those roots and stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .field import HALF, QPhi, ZERO


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class QuadBound:
    """The graph x -> c2*x**2 + c1*x + c0."""

    c2: QPhi
    c1: QPhi
    c0: QPhi

    def __call__(self, x: QPhi) -> QPhi:
        return (self.c2 * x + self.c1) * x + self.c0

    def add_affine(self, d1: QPhi, d0: QPhi) -> "QuadBound":
        return QuadBound(self.c2, self.c1 + d1, self.c0 + d0)


@dataclass(frozen=True)
class Strip:
    """Points with x in an interval and lower(x) < y < upper(x).

    Closedness of each of the four boundaries is carried explicitly so
    point location never needs a tolerance.
    """

    x_lo: QPhi
    x_hi: QPhi
    lower: QuadBound
    upper: QuadBound
    lo_closed: bool = True
    hi_closed: bool = False
    lower_closed: bool = False
    upper_closed: bool = True

    def width(self) -> QPhi:
        return self.x_hi - self.x_lo

    def area(self) -> QPhi:
        # upper - lower is affine: the shared c2 must cancel
        d2 = self.upper.c2 - self.lower.c2
        if d2.sign() != 0:
            raise GeometryError("strip bounds do not share a leading coefficient")
        d1 = self.upper.c1 - self.lower.c1
        d0 = self.upper.c0 - self.lower.c0
        a, b = self.x_lo, self.x_hi
        return d1 * (b * b - a * a) * HALF + d0 * (b - a)

    def x_contains(self, x: QPhi) -> bool:
        s = (x - self.x_lo).sign()
        if s < 0 or (s == 0 and not self.lo_closed):
            return False
        s = (self.x_hi - x).sign()
        if s < 0 or (s == 0 and not self.hi_closed):
            return False
        return True

    def contains(self, x: QPhi, y: QPhi) -> bool:
        if not self.x_contains(x):
            return False
        s = (y - self.lower(x)).sign()
        if s < 0 or (s == 0 and not self.lower_closed):
            return False
        s = (self.upper(x) - y).sign()
        if s < 0 or (s == 0 and not self.upper_closed):
            return False
        return True

    def closure_contains(self, x: QPhi, y: QPhi) -> bool:
        if (x - self.x_lo).sign() < 0 or (self.x_hi - x).sign() < 0:
            return False
        return (y - self.lower(x)).sign() >= 0 and (self.upper(x) - y).sign() >= 0

    def slice_nonempty_at(self, x: QPhi) -> bool:
        """Whether the vertical slice at x contains a point of the strip."""
        if not self.x_contains(x):
            return False
        d = (self.upper(x) - self.lower(x)).sign()
        if d > 0:
            return True
        return d == 0 and self.lower_closed and self.upper_closed

    def y_abs_bound(self) -> QPhi:
        """Max of |lower|, |upper| over the interval, exact."""
        best = ZERO
        for bound in (self.lower, self.upper):
            xs = [self.x_lo, self.x_hi]
            if bound.c2.sign() != 0:
                vx = -bound.c1 / (2 * bound.c2)
                if (vx - self.x_lo).sign() > 0 and (self.x_hi - vx).sign() > 0:
                    xs.append(vx)
            for x in xs:
                v = abs(bound(x))
                if (v - best).sign() > 0:
                    best = v
        return best


@dataclass(frozen=True)
class Region:
    """A finite union of pairwise area-disjoint strips."""

    strips: tuple[Strip, ...]

    @classmethod
    def of(cls, strips: Iterable[Strip]) -> "Region":
        return cls(merge_strips(strips))

    def area(self) -> QPhi:
        total = ZERO
        for s in self.strips:
            total = total + s.area()
        return total

    def x_extent(self) -> tuple[QPhi, QPhi]:
        if not self.strips:
            raise GeometryError("empty region has no x-extent")
        lo = self.strips[0].x_lo
        hi = self.strips[0].x_hi
        for s in self.strips[1:]:
            if (s.x_lo - lo).sign() < 0:
                lo = s.x_lo
            if (s.x_hi - hi).sign() > 0:
                hi = s.x_hi
        return lo, hi

    def y_extent_bound(self) -> QPhi:
        best = ZERO
        for s in self.strips:
            v = s.y_abs_bound()
            if (v - best).sign() > 0:
                best = v
        return best

    def contains(self, x: QPhi, y: QPhi) -> bool:
        return any(s.contains(x, y) for s in self.strips)

    def closure_contains(self, x: QPhi, y: QPhi) -> bool:
        return any(s.closure_contains(x, y) for s in self.strips)

    def slice_nonempty_at(self, x: QPhi) -> bool:
        return any(s.slice_nonempty_at(x) for s in self.strips)

    def leading_coefficient(self) -> QPhi:
        if not self.strips:
            raise GeometryError("empty region has no leading coefficient")
        c2 = self.strips[0].lower.c2
        for s in self.strips:
            if s.lower.c2 != c2 or s.upper.c2 != c2:
                raise GeometryError("mixed leading coefficients in region")
        return c2


EMPTY_REGION = Region(())


def merge_strips(strips: Iterable[Strip]) -> tuple[Strip, ...]:
    """Drop empty strips and fuse x-adjacent strips with equal bounds."""
    kept = [s for s in strips if (s.x_hi - s.x_lo).sign() > 0]
    kept.sort(key=lambda s: (float(s.x_lo), float(s.x_hi)))
    out: list[Strip] = []
    for s in kept:
        if out:
            p = out[-1]
            if (p.lower == s.lower and p.upper == s.upper
                    and p.lower_closed == s.lower_closed
                    and p.upper_closed == s.upper_closed
                    and p.x_hi == s.x_lo
                    and (p.hi_closed or s.lo_closed)):
                out[-1] = Strip(p.x_lo, s.x_hi, p.lower, p.upper,
                                p.lo_closed, s.hi_closed,
                                p.lower_closed, p.upper_closed)
                continue
        out.append(s)
    return tuple(out)


# -- constraint bands ---------------------------------------------------

Constraint = tuple[QuadBound, bool]  # bound and whether equality is allowed


def _affine_root(f: QuadBound, g: QuadBound) -> QPhi | None:
    """Root of f - g, which must be affine (shared leading coefficient)."""
    if (f.c2 - g.c2).sign() != 0:
        raise GeometryError("bound comparison is not affine: level mismatch")
    d1 = f.c1 - g.c1
    if d1.sign() == 0:
        return None
    return -(f.c0 - g.c0) / d1


def strips_from_constraints(x_lo: QPhi, x_hi: QPhi,
                            lowers: Sequence[Constraint],
                            uppers: Sequence[Constraint],
                            lo_closed: bool = True,
                            hi_closed: bool = False) -> list[Strip]:
    """Strips of {x in [x_lo,x_hi], all lowers <(=) y <(=) all uppers}.

    Splits the interval at the roots of every pairwise affine bound
    difference; inside each piece the active max-lower and min-upper are
    constant, so one midpoint evaluation decides them.
    """
    if (x_hi - x_lo).sign() <= 0:
        return []
    bounds = [c[0] for c in lowers] + [c[0] for c in uppers]
    cuts = {x_lo, x_hi}
    for i in range(len(bounds)):
        for j in range(i + 1, len(bounds)):
            root = _affine_root(bounds[i], bounds[j])
            if root is not None and (root - x_lo).sign() > 0 \
                    and (x_hi - root).sign() > 0:
                cuts.add(root)
    points = sorted(cuts, key=float)
    # float sort is a heuristic ordering; enforce exactness
    for a, b in zip(points, points[1:]):
        if (b - a).sign() <= 0:
            points = _exact_sort(points)
            break
    out: list[Strip] = []
    for a, b in zip(points, points[1:]):
        xm = (a + b) * HALF
        lo_b, lo_c = _active(lowers, xm, pick_max=True)
        up_b, up_c = _active(uppers, xm, pick_max=False)
        if (up_b(xm) - lo_b(xm)).sign() <= 0:
            continue
        out.append(Strip(a, b, lo_b, up_b,
                         lo_closed=(lo_closed if a == x_lo else True),
                         hi_closed=(hi_closed if b == x_hi else False),
                         lower_closed=lo_c, upper_closed=up_c))
    return out


def _exact_sort(points: list[QPhi]) -> list[QPhi]:
    out: list[QPhi] = []
    for p in points:
        i = 0
        while i < len(out) and (p - out[i]).sign() > 0:
            i += 1
        if i == len(out) or (p - out[i]).sign() != 0:
            out.insert(i, p)
    return out


def _active(constraints: Sequence[Constraint], x: QPhi,
            pick_max: bool) -> Constraint:
    best, closed = constraints[0]
    bv = best(x)
    for b, c in constraints[1:]:
        v = b(x)
        s = (v - bv).sign()
        if (s > 0 and pick_max) or (s < 0 and not pick_max):
            best, closed, bv = b, c, v
        elif s == 0:
            # tied bounds: equality allowed only if every active one allows it
            closed = closed and c
    return best, closed


# -- interval helpers ---------------------------------------------------

def _x_overlap(a: Strip, b: Strip) -> tuple[QPhi, QPhi] | None:
    lo = a.x_lo if (a.x_lo - b.x_lo).sign() >= 0 else b.x_lo
    hi = a.x_hi if (a.x_hi - b.x_hi).sign() <= 0 else b.x_hi
    if (hi - lo).sign() <= 0:
        return None
    return lo, hi


def _strip_intersect(a: Strip, b: Strip) -> list[Strip]:
    ov = _x_overlap(a, b)
    if ov is None:
        return []
    lo, hi = ov
    return strips_from_constraints(
        lo, hi,
        [(a.lower, a.lower_closed), (b.lower, b.lower_closed)],
        [(a.upper, a.upper_closed), (b.upper, b.upper_closed)])


def _strip_subtract(a: Strip, b: Strip) -> list[Strip]:
    ov = _x_overlap(a, b)
    if ov is None:
        return [a]
    lo, hi = ov
    out: list[Strip] = []
    if (lo - a.x_lo).sign() > 0:
        out.append(Strip(a.x_lo, lo, a.lower, a.upper,
                         a.lo_closed, False, a.lower_closed, a.upper_closed))
    if (a.x_hi - hi).sign() > 0:
        out.append(Strip(hi, a.x_hi, a.lower, a.upper,
                         True, a.hi_closed, a.lower_closed, a.upper_closed))
    # inside the overlap: below b's band, then above it
    out.extend(strips_from_constraints(
        lo, hi,
        [(a.lower, a.lower_closed)],
        [(a.upper, a.upper_closed), (b.lower, not b.lower_closed)]))
    out.extend(strips_from_constraints(
        lo, hi,
        [(a.lower, a.lower_closed), (b.upper, not b.upper_closed)],
        [(a.upper, a.upper_closed)]))
    return out


# Pair prefilter: each strip's x-interval widened to floats that are
# certain to contain it (QPhi.float_bounds).  Pairs whose widened
# intervals are apart are x-disjoint and skipped; every other pair is
# decided by the exact overlap test in _strip_intersect/_strip_subtract.
def _x_box(s: Strip) -> tuple[float, float]:
    return s.x_lo.float_bounds()[0], s.x_hi.float_bounds()[1]


def region_intersect(a: Region, b: Region) -> Region:
    out: list[Strip] = []
    bf = [_x_box(sb) for sb in b.strips]
    for sa in a.strips:
        alo, ahi = _x_box(sa)
        for sb, (blo, bhi) in zip(b.strips, bf):
            if ahi < blo or bhi < alo:
                continue
            out.extend(_strip_intersect(sa, sb))
    return Region.of(out)


def region_subtract(a: Region, b: Region) -> Region:
    current = [(sa, *_x_box(sa)) for sa in a.strips]
    for sb in b.strips:
        blo, bhi = _x_box(sb)
        nxt: list[tuple[Strip, float, float]] = []
        for item in current:
            sa, alo, ahi = item
            if ahi < blo or bhi < alo:
                nxt.append(item)
                continue
            for s in _strip_subtract(sa, sb):
                if (s.x_hi - s.x_lo).sign() > 0:
                    nxt.append((s, *_x_box(s)))
        current = nxt
    return Region.of([s for s, _, _ in current])


def is_subset(a: Region, b: Region) -> bool:
    """Area-level inclusion: a minus b has zero area."""
    return region_subtract(a, b).area().sign() == 0


def area_disjoint(a: Region, b: Region) -> bool:
    return region_intersect(a, b).area().sign() == 0
