"""Exact planar regions as unions of quadratic strips over Q(phi).

A strip is the set of points between two quadratic graphs over an
x-interval.  Within one exchange all strip bounds share the same
leading coefficient, so every bound comparison reduces to an affine
function with a root in Q(phi); region intersection and subtraction
split the x-axis at those roots and stay exact.  The pair table works
on integer rows: the bounds' affine coefficients over one denominator
(`field.over_one_denominator`), each bound's value at the two x-ends
as an integer pair, and the sign of every pairwise difference there
as one `sgn_pair`.  The active bounds between two cuts are read from
that table rather than found by evaluating the bounds, and subtraction
fills one table for both of its bands.  Strip areas are likewise one
integer formula over a shared denominator.  Only values that are stored
(roots that become cuts, areas, bound values that become extents) are
built as elements, each with one gcd.

Every order is the exact order of Q(phi), and no double enters: strips
sort by (x_lo, x_hi), cuts and extremes are compared as elements, and
region operations pair each strip of one region only with the window
of the other's strips that the exact x-ends leave open to it.

Intersection and subtraction keep every closedness flag, so they match
point membership except on a vertical segment that only a zero-width
strip could hold, on strip endpoints: where strips of a and b meet only
along x-ends closed in both, or share one closed in a and open in b.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .field import QPhi, ZERO, cmp, over_one_denominator, sgn_affine, sgn_pair


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


def _inside(s: int, closed: bool) -> bool:
    # s is a point's sign against one end: inside strictly, or on a closed end
    return s > 0 or s == 0 and closed


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

    def area(self) -> QPhi:
        """d1*(b**2 - a**2)/2 + d0*(b - a) for upper - lower = d1*x + d0
        and x from a to b: w*(d1*s + 2*X*d0)/(2*X**2*D) with w = b - a and
        s = b + a over X, d1 and d0 over D, in integers."""
        lower, upper = self.lower, self.upper
        if upper.c2 != lower.c2:   # upper - lower is affine only if c2 cancels
            raise GeometryError("strip bounds do not share a leading coefficient")
        (A, B, E, F), X = over_one_denominator([self.x_lo, self.x_hi])
        (u1, v1, u0, v0, l1, m1, l0, m0), D = over_one_denominator(
            [upper.c1, upper.c0, lower.c1, lower.c0])
        p1, q1, p0, q0 = u1 - l1, v1 - m1, u0 - l0, v0 - m0
        w, x, s, t = E - A, F - B, E + A, F + B
        g, h = (p1 * s + q1 * t + 2 * X * p0,
                p1 * t + q1 * (s + t) + 2 * X * q0)
        return QPhi.from_scaled(w * g + x * h, w * h + x * (g + h),
                                2 * X * X * D)

    def x_contains(self, x: QPhi) -> bool:
        return (_inside(cmp(x, self.x_lo), self.lo_closed)
                and _inside(cmp(self.x_hi, x), self.hi_closed))

    def contains(self, x: QPhi, y: QPhi) -> bool:
        return (self.x_contains(x)
                and _inside(cmp(y, self.lower(x)), self.lower_closed)
                and _inside(cmp(self.upper(x), y), self.upper_closed))

    def closure_contains(self, x: QPhi, y: QPhi) -> bool:
        if cmp(x, self.x_lo) < 0 or cmp(self.x_hi, x) < 0:
            return False
        return cmp(y, self.lower(x)) >= 0 and cmp(self.upper(x), y) >= 0

    def slice_nonempty_at(self, x: QPhi) -> bool:
        """Whether the vertical slice at x contains a point of the strip."""
        return self.x_contains(x) and _inside(
            cmp(self.upper(x), self.lower(x)),
            self.lower_closed and self.upper_closed)

    def y_abs_bound(self) -> QPhi:
        """Max of |lower|, |upper| over the interval, exact."""
        values: list[QPhi] = []
        for bound in (self.lower, self.upper):
            xs = [self.x_lo, self.x_hi]
            if bound.c2:
                # the vertex -c1/(2 c2) lies strictly inside exactly when
                # the slope 2 c2 x + c1 changes sign between the ends
                slope = bound.c2 * 2
                if sgn_affine(slope, bound.c1, self.x_lo) \
                        * sgn_affine(slope, bound.c1, self.x_hi) < 0:
                    xs.append(-bound.c1 / slope)
            values.extend(bound(x) for x in xs)
        return max(max(values), -min(values))


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
        return (min(s.x_lo for s in self.strips),
                max(s.x_hi for s in self.strips))

    def y_extent_bound(self) -> QPhi:
        return max((s.y_abs_bound() for s in self.strips), default=ZERO)

    def contains(self, x: QPhi, y: QPhi) -> bool:
        return any(s.contains(x, y) for s in self.strips)

    def closure_contains(self, x: QPhi, y: QPhi) -> bool:
        return any(s.closure_contains(x, y) for s in self.strips)

    def slice_nonempty_at(self, x: QPhi) -> bool:
        return any(s.slice_nonempty_at(x) for s in self.strips)

    def leading_coefficient(self) -> QPhi:
        c2s = {b.c2 for s in self.strips for b in (s.lower, s.upper)}
        if len(c2s) != 1:
            raise GeometryError("region has no single leading coefficient")
        return c2s.pop()


EMPTY_REGION = Region(())


def merge_strips(strips: Iterable[Strip]) -> tuple[Strip, ...]:
    """Drop empty strips, sort the rest by (x_lo, x_hi) exactly (ties
    keep their input order) and fuse x-adjacent strips with equal bounds."""
    kept = [s for s in strips if cmp(s.x_hi, s.x_lo) > 0]
    kept.sort(key=lambda s: (s.x_lo, s.x_hi))
    out: list[Strip] = []
    for s in kept:
        if out:
            p = out[-1]
            if (p.lower == s.lower and p.upper == s.upper
                    and p.lower_closed == s.lower_closed
                    and p.upper_closed == s.upper_closed
                    and p.x_hi == s.x_lo
                    and (p.hi_closed or s.lo_closed)):
                out[-1] = replace(p, x_hi=s.x_hi, hi_closed=s.hi_closed)
                continue
        out.append(s)
    return tuple(out)


# -- constraint bands ---------------------------------------------------

Constraint = tuple[QuadBound, bool]  # bound and whether equality is allowed


def strips_from_constraints(x_lo: QPhi, x_hi: QPhi,
                            lowers: Sequence[Constraint],
                            uppers: Sequence[Constraint]) -> list[Strip]:
    """Strips of {x_lo <= x < x_hi, all lowers <(=) y <(=) all uppers}.

    Splits the interval at the roots of every pairwise affine bound
    difference that lie strictly inside it.  A pair table holds the sign
    of each difference on the first piece, and the cut where it flips
    if its root is a cut; walking the pieces from left to right, the
    table picks the active max-lower and min-upper and tests emptiness
    without evaluating a bound.
    """
    if cmp(x_hi, x_lo) <= 0:
        return []
    n_lo, n = len(lowers), len(lowers) + len(uppers)
    return _bands(x_lo, x_hi, [c[0] for c in (*lowers, *uppers)],
                  [c[1] for c in (*lowers, *uppers)],
                  ((range(n_lo), range(n_lo, n)),), True, False)


def _bands(x_lo: QPhi, x_hi: QPhi, bounds: list[QuadBound],
           closed: list[bool], bands: Iterable[tuple[Sequence[int], ...]],
           lo_closed: bool, hi_closed: bool) -> list[Strip]:
    """The strips of each band (lower indices, upper indices) in turn,
    each index sequence increasing, from one pair table of `bounds` over
    x_lo < x_hi; a band cuts only at the roots of its own pairs."""
    n = len(bounds)
    c2 = bounds[0].c2
    for f in bounds:
        if f.c2 != c2:
            raise GeometryError(
                "bound comparison is not affine: level mismatch")
    # bound k less the shared c2*x**2 is (r[4k] + r[4k+1]*phi)*x + r[4k+2]
    # + r[4k+3]*phi, over D
    r, _ = over_one_denominator([c for f in bounds for c in (f.c1, f.c0)])
    # its values at the ends (A + B*phi)/X and (E + F*phi)/Y, times D*X
    # and D*Y: the sign of b_i - b_j there is one sgn_pair of differences
    A, B, X = x_lo.scaled()
    E, F, Y = x_hi.scaled()
    at = []
    for k in range(0, 4 * n, 4):
        a1, b1, a0, b0 = r[k:k + 4]
        at.append((a1 * A + b1 * B + a0 * X, a1 * B + b1 * (A + B) + b0 * X,
                   a1 * E + b1 * F + a0 * Y, a1 * F + b1 * (E + F) + b0 * Y))
    sign = [0] * (n * n)    # [i*n + j], i < j: the sign of b_i - b_j
    flips: dict[QPhi, list[int]] = {}   # root -> pairs it flips
    for i in range(n):
        p, q, v, w = at[i]
        for j in range(i + 1, n):
            P, Q, V, W = at[j]
            s_lo, s_hi = sgn_pair(p - P, q - Q), sgn_pair(v - V, w - W)
            if s_lo * s_hi < 0:
                # the root -d0/d1 of d1*x + d0 = b_i - b_j, through the
                # conjugate of d1, whose norm is a nonzero integer
                a1, b1, a0, b0 = (g - h for g, h in
                                  zip(r[4 * i:4 * i + 4], r[4 * j:4 * j + 4]))
                root = QPhi.from_scaled(b0 * b1 - a0 * (a1 + b1),
                                        a0 * b1 - b0 * a1,
                                        a1 * (a1 + b1) - b1 * b1)
                flips.setdefault(root, []).append(i * n + j)
            sign[i * n + j] = s_lo or s_hi
    out: list[Strip] = []
    for lows, ups in bands:
        own = (*lows, *ups)
        cuts = sorted(((x, pairs) for x, pairs in flips.items()
                       if any(k // n in own and k % n in own for k in pairs)),
                      key=lambda cut: cut[0]) if flips else []
        band = sign[:] if cuts else sign
        a = x_lo
        for i, (b, pairs) in enumerate([*cuts, (x_hi, ())]):
            lo, lo_c = _active(band, n, closed, lows, -1)
            up, up_c = _active(band, n, closed, ups, 1)
            if band[lo * n + up] < 0:
                out.append(Strip(a, b, bounds[lo], bounds[up],
                                 i > 0 or lo_closed,
                                 i == len(cuts) and hi_closed, lo_c, up_c))
            for k in pairs:     # the signs on the next piece
                band[k] = -band[k]
            a = b
    return out


def _active(sign: list[int], n: int, closed: list[bool],
            indices: Sequence[int], beaten: int) -> tuple[int, bool]:
    """The first of the bounds at `indices` that no other one beats, where
    i beats best when sign[best*n + i] == beaten, and whether equality is
    allowed: tied bounds allow it only if every one of them does."""
    best, c = indices[0], closed[indices[0]]
    for i in indices[1:]:
        s = sign[best * n + i]
        if s == beaten:
            best, c = i, closed[i]
        elif s == 0:
            c = c and closed[i]
    return best, c


# -- interval helpers ---------------------------------------------------

def _x_overlap(a: Strip, b: Strip) -> tuple[QPhi, QPhi, bool, bool] | None:
    """The x-interval of a and b with its closedness: an end from one
    strip keeps that strip's flag, a shared end is the AND of both."""
    s = cmp(a.x_lo, b.x_lo)
    lo = a.x_lo if s >= 0 else b.x_lo
    lo_c = (a.lo_closed or s < 0) and (b.lo_closed or s > 0)
    s = cmp(a.x_hi, b.x_hi)
    hi = a.x_hi if s <= 0 else b.x_hi
    hi_c = (a.hi_closed or s > 0) and (b.hi_closed or s < 0)
    if cmp(hi, lo) <= 0:
        return None
    return lo, hi, lo_c, hi_c


def _strip_intersect(a: Strip, b: Strip) -> list[Strip]:
    ov = _x_overlap(a, b)
    if ov is None:
        return []
    lo, hi, lo_c, hi_c = ov
    return _bands(lo, hi, [a.lower, b.lower, a.upper, b.upper],
                  [a.lower_closed, b.lower_closed, a.upper_closed,
                   b.upper_closed], (((0, 1), (2, 3)),), lo_c, hi_c)


def _strip_subtract(a: Strip, b: Strip) -> list[Strip]:
    ov = _x_overlap(a, b)
    if ov is None:
        return [a]
    lo, hi, lo_c, hi_c = ov
    out: list[Strip] = []
    # left and right of b, closed where b is not; below and above b's band,
    # ending as the overlap does inside a and as a does at a's own ends
    if cmp(lo, a.x_lo) > 0:
        out.append(replace(a, x_hi=lo, hi_closed=not lo_c))
    else:
        lo_c = a.lo_closed
    if cmp(a.x_hi, hi) > 0:
        out.append(replace(a, x_lo=hi, lo_closed=not hi_c))
    else:
        hi_c = a.hi_closed
    # the bands share one pair table: b's bounds take reversed flags
    out.extend(_bands(lo, hi, [a.lower, b.upper, a.upper, b.lower],
                      [a.lower_closed, not b.upper_closed, a.upper_closed,
                       not b.lower_closed], (((0,), (2, 3)), ((0, 1), (2,))),
                      lo_c, hi_c))
    return out


def _near(a: Region, b: Region) -> Iterator[tuple[Strip, Sequence[Strip]]]:
    """Each strip of a with a window of b's strips, in b's order, outside
    which every strip of b is x-disjoint from it: it meets none of its
    fragments, and leaves each unchanged when subtracted.

    Before the window every strip of b ends at or left of the strip's
    x_lo (a prefix maximum of x_hi), from its end on every strip starts
    at or right of its x_hi (a suffix minimum of x_lo), in the exact
    order; neither needs b sorted.  `_x_overlap` decides each pair
    inside the window.
    """
    bs = b.strips
    reach = list(accumulate((s.x_hi for s in bs), max))
    floor = list(accumulate((s.x_lo for s in reversed(bs)), min))[::-1]
    for sa in a.strips:
        yield sa, bs[bisect_right(reach, sa.x_lo):bisect_left(floor, sa.x_hi)]


def region_intersect(a: Region, b: Region) -> Region:
    return Region.of([t for sa, near in _near(a, b) for sb in near
                      for t in _strip_intersect(sa, sb)])


def region_subtract(a: Region, b: Region) -> Region:
    out: list[Strip] = []
    for sa, near in _near(a, b):
        pieces = [sa]
        for sb in near:
            pieces = [t for p in pieces for t in _strip_subtract(p, sb)]
        out.extend(pieces)
    return Region.of(out)


def is_subset(a: Region, b: Region) -> bool:
    """Area-level inclusion: a minus b has zero area."""
    return region_subtract(a, b).area().sign() == 0


def area_disjoint(a: Region, b: Region) -> bool:
    return region_intersect(a, b).area().sign() == 0
