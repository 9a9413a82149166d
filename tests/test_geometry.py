import ast
import functools
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from phiplane import geometry
from phiplane.exchange import (exchange_tower, renormalization_checks,
                                sample_points)
from phiplane.refine import refinement_chain
from phiplane.field import PHI, QPhi, ZERO, cmp, phi_power, sgn_affine
from phiplane.geometry import (EMPTY_REGION, GeometryError, QuadBound, Region,
                               Strip, area_disjoint, is_subset, merge_strips,
                               region_intersect, region_subtract,
                               strips_from_constraints)

Q = QPhi
HALF = Q(Fraction(1, 2))


def const(v) -> QuadBound:
    return QuadBound(ZERO, ZERO, Q(v))


def rect(x0, x1, y0, y1, **flags) -> Strip:
    return Strip(Q(x0), Q(x1), const(y0), const(y1), **flags)


def test_quadbound_eval_and_add_affine():
    b = QuadBound(Q(2), Q(-1), Q(3))
    assert b(Q(2)) == 2 * 4 - 2 + 3
    assert b(PHI) == PHI + 5        # 2 phi**2 - phi + 3, phi**2 = phi + 1
    assert b.add_affine(Q(1), Q(1))(Q(2)) == b(Q(2)) + 3


def test_rectangle_area():
    assert rect(0, 3, 1, 2).area() == 3


def test_sheared_strip_area():
    # band of height 1 between two parallel parabolas
    p = QuadBound(PHI, Q(2), Q(0))
    s = Strip(Q(0), Q(4), p, p.add_affine(ZERO, Q(1)))
    assert s.area() == 4


def test_mismatched_leading_coefficient():
    s = Strip(Q(0), Q(1), const(0), QuadBound(Q(1), ZERO, Q(1)))
    with pytest.raises(GeometryError):
        s.area()


def _on_side(s, closed):
    # the reference: s is the point's sign against one end
    return s > 0 or (s == 0 and closed)


def test_strip_contains_respects_flags():
    # a square, and a strip pinched to one point at its x-end 0, where
    # lower(0) = upper(0) = 0; points inside, on each of the four ends,
    # at the corners and outside, for all 16 closedness patterns
    shapes = [(const(0), const(2), lambda x: 0, lambda x: 2),
              (const(0), QuadBound(ZERO, Q(1), ZERO), lambda x: 0,
               lambda x: x)]
    grid = [Fraction(v, 2) for v in range(-2, 7)]
    for flags in product((False, True), repeat=4):
        lo_c, hi_c, lower_c, upper_c = flags
        for lower, upper, low, up in shapes:
            s = Strip(Q(0), Q(2), lower, upper, *flags)
            for x in grid:
                x_in = _on_side(x, lo_c) and _on_side(2 - x, hi_c)
                assert s.x_contains(Q(x)) == x_in, (flags, x)

                def y_in(y):
                    return (_on_side(y - low(x), lower_c)
                            and _on_side(up(x) - y, upper_c))
                # a slice holds a point iff it holds an end or the middle
                ys = (low(x), up(x), (low(x) + up(x)) / 2)
                assert s.slice_nonempty_at(Q(x)) == \
                    (x_in and any(map(y_in, ys))), (flags, x)
                for y in grid:
                    assert s.contains(Q(x), Q(y)) == (x_in and y_in(y)), \
                        (flags, x, y)
                    assert s.closure_contains(Q(x), Q(y)) == (
                        0 <= x <= 2 and low(x) <= y <= up(x)), (flags, x, y)
    # the pinched slice holds its one point only if both y-ends are closed
    pinched = Strip(Q(0), Q(2), *shapes[1][:2], True, False, True, True)
    assert pinched.slice_nonempty_at(ZERO) and pinched.contains(ZERO, ZERO)
    pinched = replace(pinched, upper_closed=False)
    assert not pinched.slice_nonempty_at(ZERO)
    assert pinched.slice_nonempty_at(HALF)


def test_strips_from_constraints_splits_at_crossing():
    # upper = min(2, 3 - x) on [0, 2] crosses at x = 1
    out = strips_from_constraints(
        Q(0), Q(2),
        [(const(0), False)],
        [(const(2), True), (QuadBound(ZERO, Q(-1), Q(3)), True)])
    assert len(out) == 2
    assert out[0].x_hi == Q(1) and out[0].upper == const(2)
    assert out[1].x_lo == Q(1) and out[1].upper.c1 == Q(-1)
    total = sum((s.area() for s in out), ZERO)
    assert total == Q(2) + Q(2) - HALF  # 2*1 + integral of (3-x) on [1,2]


def test_region_intersect_exact():
    a = Region.of([rect(0, 2, 0, 2)])
    b = Region.of([rect(1, 3, 1, 3)])
    inter = region_intersect(a, b)
    assert inter.area() == 1
    lo, hi = inter.x_extent()
    assert lo == Q(1) and hi == Q(2)


def test_region_subtract_exact():
    a = Region.of([rect(0, 3, 0, 3)])
    b = Region.of([rect(1, 2, 1, 2)])
    diff = region_subtract(a, b)
    assert diff.area() == 8
    assert not diff.contains(Q(Fraction(3, 2)), Q(Fraction(3, 2)))
    assert diff.contains(HALF, HALF)


def test_subtract_keeps_a_closed_end_of_b():
    # b = [1, 2] x (0, 1] closed at x = 2: the remainder right of b starts
    # open there
    a = Region.of([rect(0, 3, 0, 1)])
    b = Region.of([rect(1, 2, 0, 1, hi_closed=True)])
    assert not region_subtract(a, b).contains(Q(2), HALF)
    assert region_subtract(a, b).contains(Q(1) - HALF, HALF)


def test_intersect_keeps_an_open_end_of_b():
    a = Region.of([rect(0, 3, 0, 1)])
    b = Region.of([rect(1, 2, 0, 1, lo_closed=False)])
    assert not region_intersect(a, b).contains(Q(1), HALF)
    assert region_intersect(a, b).contains(Q(1) + HALF, HALF)


def test_subtract_bands_end_where_b_ends():
    # the band above b's first strip must stop open at x = 1, where the
    # remainder takes over, or b's second strip cannot remove (1, 3/2)
    a = Region.of([rect(0, 3, 0, 3)])
    b = Region.of([rect(0, 1, 0, 1), rect(1, 2, 1, 2)])
    diff = region_subtract(a, b)
    assert not diff.contains(Q(1), Q(Fraction(3, 2)))
    assert diff.contains(Q(1), HALF)
    assert diff.contains(ZERO, Q(2))


def test_subset_and_disjoint():
    outer = Region.of([rect(0, 2, 0, 2)])
    inner = Region.of([rect(0, 1, 0, 1)])
    far = Region.of([rect(5, 6, 0, 1)])
    assert is_subset(inner, outer)
    assert not is_subset(outer, inner)
    assert area_disjoint(inner, far)
    assert not area_disjoint(inner, outer)


def test_merge_fuses_adjacent_strips():
    merged = merge_strips([rect(0, 1, 0, 1), rect(1, 2, 0, 1)])
    assert len(merged) == 1
    assert merged[0].x_hi == Q(2)
    # different bounds stay separate
    merged = merge_strips([rect(0, 1, 0, 1), rect(1, 2, 0, 2)])
    assert len(merged) == 2


def test_merge_orders_ends_closer_than_a_double():
    # 1/2, 1/2 + e and 1/2 + 2e are one double: only the exact order puts
    # a before b, so that they fuse, in every input order
    e = phi_power(-80)
    x0, x1, x2 = HALF, HALF + e, HALF + 2 * e
    assert float(x0) == float(x1) == float(x2) == 0.5
    a = Strip(x0, x1, const(0), const(1))
    b = Strip(x1, x2, const(0), const(1))
    c = Strip(x2, Q(1), const(0), const(2))
    want = (Strip(x0, x2, const(0), const(1)), c)
    for order in permutations([a, b, c]):
        assert Region.of(order).strips == want, order


def test_no_double_decides_an_order(monkeypatch):
    # the tower with its checks, a refinement and an orbit through the
    # jump table touch geometry, exchange, refine and fastorbit, none of
    # which may convert an element to a double
    def no_float(self):
        raise AssertionError(f"float({self!r})")
    monkeypatch.setattr(QPhi, "__float__", no_float)
    tower = exchange_tower(6)
    for before, after in zip(tower, tower[1:]):
        assert all(renormalization_checks(before, after).values())
    E1 = tower[0]
    assert len(refinement_chain(E1, 10)[-1]) == 61
    p = sample_points(E1, 1, seed=3)[0]
    assert len(E1.compiled.code_orbit(p, 20000)) == 20000


@pytest.mark.parametrize("name", ["geometry", "exchange", "refine",
                                  "fastorbit", "words", "birkhoff"])
def test_exact_modules_hold_no_double(name):
    # no floating point decides a predicate: these modules name no float,
    # write no float literal and ask no element for a double
    path = Path(geometry.__file__).with_name(f"{name}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        assert not (isinstance(node, ast.Name) and node.id == "float"), \
            node.lineno
        assert not (isinstance(node, ast.Constant)
                    and isinstance(node.value, float)), node.lineno
        assert not (isinstance(node, ast.Attribute) and node.attr in
                    ("float_bounds", "__float__")), node.lineno


@pytest.mark.parametrize("path", sorted(
    Path(geometry.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_order_decisions_build_no_difference(path):
    # an order test goes through cmp or a comparison, never through the
    # sign of a difference built for it
    assert sorted(
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "sign"
        and isinstance(node.func.value, ast.BinOp)
        and isinstance(node.func.value.op, ast.Sub)) == []


def test_merge_drops_empty():
    assert merge_strips([rect(1, 1, 0, 1)]) == ()
    assert EMPTY_REGION.area() == ZERO


def test_irrational_split_point():
    # upper = min(1, x + 2 - phi) crosses at x = phi - 1
    out = strips_from_constraints(
        Q(0), Q(1),
        [(const(0), False)],
        [(const(1), True), (QuadBound(ZERO, Q(1), Q(2) - PHI), True)])
    assert len(out) == 2
    assert out[0].x_hi == PHI - 1
    total = sum((s.area() for s in out), ZERO)
    assert total == (Q(2) - PHI) * (PHI + HALF)


def test_quadratic_strip_subtraction_exact_area():
    p = QuadBound(PHI, ZERO, ZERO)
    a = Strip(Q(0), Q(2), p, p.add_affine(ZERO, Q(2)))
    b = Strip(Q(0), Q(2), p.add_affine(ZERO, Q(1)), p.add_affine(ZERO, Q(3)))
    left = region_subtract(Region.of([a]), Region.of([b]))
    assert left.area() == 2
    inter = region_intersect(Region.of([a]), Region.of([b]))
    assert inter.area() == 2


# -- the pair window of region_intersect / region_subtract -------------

@pytest.mark.parametrize("x", [HALF, Q(Fraction(33, 97))])
def test_deep_overlap_is_not_filtered_out(x):
    # [0, x) x (0, 1] and [x - phi**-k, 1) x (0, 1] overlap in a sliver of
    # area phi**-k; from k near 40 the end points' float conversion errs
    # by more than the sliver is wide
    a = Region.of([Strip(ZERO, x, const(0), const(1))])
    for k in range(3, 161):     # phi**-k < x
        eps = phi_power(-k)
        b = Region.of([Strip(x - eps, Q(1), const(0), const(1))])
        assert not area_disjoint(a, b), k
        assert region_intersect(a, b).area() == eps
        assert region_subtract(a, b).area() == x - eps


def test_overlap_at_phi_minus_100_regression():
    eps = phi_power(-100)       # coefficients near 2**69
    a = Region.of([Strip(ZERO, HALF, const(0), const(1))])
    b = Region.of([Strip(HALF - eps, Q(1), const(0), const(1))])
    assert not area_disjoint(a, b)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(geometry, name)

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)
    monkeypatch.setattr(geometry, name, counted)
    return calls


@pytest.mark.parametrize("a, b", [
    (rect(0, 1, 0, 1), rect(1, 2, 0, 1)),                  # they touch
    # x-disjoint, with ends that are one double
    (Strip(ZERO, HALF + phi_power(-80), const(0), const(1)),
     Strip(HALF + 2 * phi_power(-80), Q(1), const(0), const(1)))],
    ids=["touching", "one_double_apart"])
def test_window_leaves_out_pairs_that_do_not_overlap(monkeypatch, a, b):
    inter_calls = _counting(monkeypatch, "_strip_intersect")
    sub_calls = _counting(monkeypatch, "_strip_subtract")
    for x, y in [(a, b), (b, a)]:
        rx, ry = Region.of([x]), Region.of([y])
        assert region_intersect(rx, ry) == EMPTY_REGION
        assert region_subtract(rx, ry) == rx
    assert inter_calls == [] and sub_calls == []


def test_window_keeps_every_overlap_of_unsorted_regions():
    # x-ranges nest and cross, and Region() keeps the order it is given,
    # as a parsed region does: neither x_lo nor x_hi runs in order
    third = Fraction(1, 3)
    b_strips = [rect(0, 3, 0, 1), rect(1, 2, 2, 3), rect(5 * third, 4, 4, 5),
                rect(-1, third, 6, 7)]
    a = Region.of([rect(7 * third, 8 * third, 0, 8),
                   rect(-third, 4 * third, 0, 8)])
    for order in permutations(b_strips):
        b = Region(order)
        assert region_intersect(a, b) == Region.of(
            [t for sa in a.strips for sb in order
             for t in geometry._strip_intersect(sa, sb)]), order
        pieces = list(a.strips)
        for sb in order:
            pieces = [t for p in pieces
                      for t in geometry._strip_subtract(p, sb)]
        assert region_subtract(a, b) == Region.of(pieces), order
        assert region_intersect(a, b).area() == 3


def test_prefilter_skips_pairs_on_tower_levels(monkeypatch):
    inter_calls = _counting(monkeypatch, "_strip_intersect")
    sub_calls = _counting(monkeypatch, "_strip_subtract")
    for E in exchange_tower(6)[2:]:
        d1, d2 = E.piece(1).region, E.piece(2).region
        pairs = len(d1.strips) * len(d2.strips)
        del inter_calls[:], sub_calls[:]
        inter = region_intersect(d1, d2)
        diff = region_subtract(d1, d2)
        assert 0 < len(inter_calls) < pairs // 4
        assert 0 < len(sub_calls) < pairs // 4
        # the skipped pairs change nothing: every pair decided exactly
        unfiltered = [t for sa in d1.strips for sb in d2.strips
                      for t in geometry._strip_intersect(sa, sb)]
        assert inter == Region.of(unfiltered)
        # every strip of d2 taken from every fragment in turn, no box
        # test; from d1 | d2 it cuts what it leaves whole in d1
        for a in (d1, Region.of(d1.strips + d2.strips)):
            pieces = list(a.strips)
            for sb in d2.strips:
                pieces = [t for p in pieces
                          for t in geometry._strip_subtract(p, sb)]
            assert region_subtract(a, d2) == Region.of(pieces)
        assert inter.area() == 0
        assert diff.area() == d1.area()


# -- region operations against point membership -------------------------

def _on_edge(a: Region, b: Region, x, y) -> bool:
    """Whether (x, y) lies where region operations may differ from point
    membership: on a bound of a strip's closure (at a cut where tied
    bounds swap), or at a zero-width overlap, on an x-end of a strip of a
    and of one of b whose closures both hold it."""
    def holding(r):
        return [s for s in r.strips if s.closure_contains(x, y)]

    def at_end(strips):
        return any(0 in ((x - s.x_lo).sign(), (s.x_hi - x).sign())
                   for s in strips)
    return any(0 in ((y - s.lower(x)).sign(), (s.upper(x) - y).sign())
               for s in holding(a) + holding(b)) \
        or (at_end(holding(a)) and at_end(holding(b)))


def _check_ops(a: Region, b: Region, inter: Region, diff: Region, pts):
    assert inter.area() + diff.area() == a.area()
    assert inter.area() >= 0 and diff.area() >= 0
    seen = 0
    for x, y in pts:
        if _on_edge(a, b, x, y):
            continue
        in_a, in_b = a.contains(x, y), b.contains(x, y)
        assert inter.contains(x, y) == (in_a and in_b), (x, y)
        assert diff.contains(x, y) == (in_a and not in_b), (x, y)
        seen += in_a and in_b
    if inter.area() == 0:
        assert seen == 0


@functools.cache
def _tower_pairs():
    """(a, b, a & b, a - b) over pieces and depth-3 cells of levels 2, 4, 6."""
    out = []
    for E in exchange_tower(6)[1::2]:
        d1, d2 = E.piece(1).region, E.piece(2).region
        cells = [c.region for c in refinement_chain(E, 3)[-1]][:2]
        for a, b in [(d1, d2), (d2, d1)] + [(d, c) for c in cells
                                             for d in (d1, d2)]:
            out.append((a, b, region_intersect(a, b), region_subtract(a, b)))
    return out


_unit = st.integers(0, 97).map(lambda n: Fraction(n, 97))


@settings(max_examples=40, deadline=None)
@given(i=st.integers(0, 11), data=st.data())
def test_tower_region_ops_match_membership(i, data):
    a, b, inter, diff = _tower_pairs()[i]
    lo, hi = a.x_extent()
    y = max(a.y_extent_bound(), b.y_extent_bound())
    ends = sorted({x for r in (a, b) for s in r.strips
                   for x in (s.x_lo, s.x_hi)})
    box = _unit.map(lambda t: y * Q(2 * t - 1))

    def over(x):
        """x with a y across the box or across the slice of a strip
        whose closure holds x, a sixteenth beyond either bound."""
        slices = [(s.lower(x), s.upper(x)) for r in (a, b) for s in r.strips
                  if s.x_lo <= x <= s.x_hi]
        ys = box if not slices else st.one_of(box, st.builds(
            lambda ab, k: ab[0] + (ab[1] - ab[0]) * Q(Fraction(k, 16)),
            st.sampled_from(slices), st.integers(-1, 17)))
        return st.tuples(st.just(x), ys)
    # x across a's extent or on any strip's x-end
    xs = st.one_of(_unit.map(lambda t: lo + (hi - lo) * Q(t)),
                   st.sampled_from(ends))
    _check_ops(a, b, inter, diff,
               data.draw(st.lists(xs.flatmap(over), min_size=20, max_size=20)))


def _quarters(lo: int, hi: int):
    return st.integers(4 * lo, 4 * hi).map(lambda n: Q(Fraction(n, 4)))


_coef = _quarters(-2, 2)
_positive = _quarters(0, 2).filter(bool)


@st.composite
def _one_strip(draw, c2):
    x_lo = draw(_coef)
    x_hi = x_lo + draw(_positive)
    lower = QuadBound(c2, draw(_coef), draw(_coef))
    # the band's height: positive at both ends, affine in between
    g_lo, g_hi = draw(_positive), draw(_positive)
    d1 = (g_hi - g_lo) / (x_hi - x_lo)
    upper = lower.add_affine(d1, g_lo - d1 * x_lo)
    return Region.of([Strip(x_lo, x_hi, lower, upper,
                            *draw(st.tuples(*[st.booleans()] * 4)))])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_region_ops_match_membership(data):
    c2 = data.draw(_coef)
    a, b = data.draw(_one_strip(c2)), data.draw(_one_strip(c2))
    # points on a grid of eighths, so many fall on edges and corners
    grid = st.integers(-24, 24).map(lambda n: Q(Fraction(n, 8)))
    pts = [(x, c2 * x * x + y) for x, y in data.draw(
        st.lists(st.tuples(grid, grid), min_size=30, max_size=30))]
    _check_ops(a, b, region_intersect(a, b), region_subtract(a, b), pts)
    assert region_intersect(a, b).area() == region_intersect(b, a).area()


# -- the pair table against midpoint evaluation -------------------------

def _midpoint_strips(x_lo, x_hi, lowers, uppers):
    """Reference strips_from_constraints: cut at every root inside the
    interval, then evaluate every bound at each piece's midpoint."""
    if (x_hi - x_lo).sign() <= 0:
        return []
    bounds = [c[0] for c in lowers] + [c[0] for c in uppers]
    cuts = {x_lo, x_hi}
    for i, f in enumerate(bounds):
        for g in bounds[i + 1:]:
            if (f.c2 - g.c2).sign() != 0:
                raise GeometryError("level mismatch")
            d1 = f.c1 - g.c1
            if d1.sign() != 0:
                root = -(f.c0 - g.c0) / d1
                if (root - x_lo).sign() > 0 and (x_hi - root).sign() > 0:
                    cuts.add(root)
    points = sorted(cuts, key=functools.cmp_to_key(lambda p, q: (p - q).sign()))

    def active(constraints, x, pick_max):
        best, closed = constraints[0]
        bv = best(x)
        for b, c in constraints[1:]:
            s = (b(x) - bv).sign()
            if (s > 0 and pick_max) or (s < 0 and not pick_max):
                best, closed, bv = b, c, b(x)
            elif s == 0:
                closed = closed and c
        return best, closed

    out = []
    for a, b in zip(points, points[1:]):
        xm = (a + b) * HALF
        lo_b, lo_c = active(lowers, xm, True)
        up_b, up_c = active(uppers, xm, False)
        if (up_b(xm) - lo_b(xm)).sign() > 0:
            out.append(Strip(a, b, lo_b, up_b,
                             lower_closed=lo_c, upper_closed=up_c))
    return out


def _strip_tuple(s: Strip):
    return (s.x_lo.scaled(), s.x_hi.scaled(),
            tuple(c.scaled() for c in (s.lower.c2, s.lower.c1, s.lower.c0)),
            tuple(c.scaled() for c in (s.upper.c2, s.upper.c1, s.upper.c0)),
            s.lo_closed, s.hi_closed, s.lower_closed, s.upper_closed)


_slopes = st.sampled_from([Q(1), Q(-1), HALF, Q(-2), PHI, -PHI,
                           phi_power(-3), -phi_power(-5)])


@st.composite
def _constraint_set(draw):
    """Bounds sharing c2 whose pairwise crossings fall on x_lo, on x_hi,
    at a shared point inside or anywhere; some bounds repeat exactly."""
    c2 = draw(st.sampled_from([ZERO, HALF, PHI, -phi_power(-2)]))
    x_lo = draw(_coef) + draw(st.sampled_from([ZERO, phi_power(-4)]))
    x_hi = x_lo + draw(st.sampled_from([ZERO, Q(-1), Q(1), HALF, PHI]))
    inner = x_lo + (x_hi - x_lo) * Q(Fraction(1, 3))
    base = QuadBound(c2, draw(_coef), draw(_coef))
    pool = [base]
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["at", "shift", "same"]))
        if kind == "at":        # crosses f at x_lo, x_hi, inner or a quarter
            r = draw(st.sampled_from([x_lo, x_hi, inner, draw(_coef)]))
            m = draw(_slopes)
            pool.append(f.add_affine(m, -m * r))
        elif kind == "shift":   # parallel to f
            pool.append(f.add_affine(ZERO, draw(_coef)))
        else:                   # the same bound again, a separate object
            pool.append(QuadBound(f.c2, f.c1, f.c0))

    def constraints():
        out = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                            min_size=1, max_size=3))
        if draw(st.booleans()):     # a tie whose flags differ
            f, c = draw(st.sampled_from(out))
            out.insert(draw(st.integers(0, len(out))), (f, not c))
        return out
    return x_lo, x_hi, constraints(), constraints()


@settings(max_examples=400, deadline=None)
@given(_constraint_set())
def test_pair_table_matches_midpoint_evaluation(case):
    x_lo, x_hi, lowers, uppers = case
    got = strips_from_constraints(x_lo, x_hi, lowers, uppers)
    want = _midpoint_strips(x_lo, x_hi, lowers, uppers)
    assert [_strip_tuple(s) for s in got] == [_strip_tuple(s) for s in want]


def test_pair_table_keeps_level_mismatch_error():
    with pytest.raises(GeometryError):
        strips_from_constraints(Q(0), Q(1), [(const(0), False)],
                                [(QuadBound(Q(1), ZERO, Q(1)), True)])


def test_strips_from_constraints_orders_roots_closer_than_a_double():
    # the roots 1 and b = 1 - 2**-60 round to the same double, and 1 is
    # found first: the cuts are sorted exactly, so b still comes first
    b = Q(Fraction(2 ** 60 - 1, 2 ** 60))
    assert float(b) == 1.0 and b < 1
    lowers = [(const(0), False), (QuadBound(ZERO, Q(1), Q(-1)), True)]
    uppers = [(const(5), True), (QuadBound(ZERO, Q(1), -b), False)]
    got = strips_from_constraints(Q(0), Q(2), lowers, uppers)
    assert [(s.x_lo, s.x_hi) for s in got] == [(b, Q(1)), (Q(1), Q(2))]
    want = _midpoint_strips(Q(0), Q(2), lowers, uppers)
    assert [_strip_tuple(s) for s in got] == [_strip_tuple(s) for s in want]


def _reference_y_abs_bound(s: Strip) -> QPhi:
    best = ZERO
    for bound in (s.lower, s.upper):
        xs = [s.x_lo, s.x_hi]
        if bound.c2.sign() != 0:
            vx = -bound.c1 / (2 * bound.c2)
            if (vx - s.x_lo).sign() > 0 and (s.x_hi - vx).sign() > 0:
                xs.append(vx)
        for x in xs:
            v = abs(bound(x))
            if (v - best).sign() > 0:
                best = v
    return best


@settings(max_examples=300, deadline=None)
@given(_constraint_set(), st.integers(0, 3), st.integers(0, 3))
def test_y_abs_bound_matches_reference(case, i, j):
    x_lo, x_hi, lowers, uppers = case
    if x_hi <= x_lo:
        x_hi = x_lo + 1
    s = Strip(x_lo, x_hi, lowers[i % len(lowers)][0],
              uppers[j % len(uppers)][0])
    assert s.y_abs_bound() == _reference_y_abs_bound(s)


# -- the scaled-integer kernel against QPhi formulas --------------------

def _qphi_strips(x_lo, x_hi, lowers, uppers, lo_closed=True, hi_closed=False):
    """strips_from_constraints with every value an element: a table of
    sgn_affine signs per pair, each root -d0/d1 built by QPhi division."""
    if cmp(x_hi, x_lo) <= 0:
        return []
    bounds = [c[0] for c in lowers] + [c[0] for c in uppers]
    closed = [c[1] for c in lowers] + [c[1] for c in uppers]
    n, n_lo = len(bounds), len(lowers)
    sign, flips = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            f, g = bounds[i], bounds[j]
            if cmp(f.c2, g.c2) != 0:
                raise GeometryError("level mismatch")
            d1, d0 = f.c1 - g.c1, f.c0 - g.c0
            s_lo, s_hi = sgn_affine(d1, d0, x_lo), sgn_affine(d1, d0, x_hi)
            if s_lo * s_hi < 0:
                flips.setdefault(-d0 / d1, []).append((i, j))
            sign[i, j] = s_lo or s_hi

    def active(start, stop, beaten):
        best, c = start, closed[start]
        for i in range(start + 1, stop):
            if sign[best, i] == beaten:
                best, c = i, closed[i]
            elif sign[best, i] == 0:
                c = c and closed[i]
        return best, c

    points = [x_lo, *sorted(flips), x_hi]
    out = []
    for i, (a, b) in enumerate(zip(points, points[1:])):
        for pair in flips.get(a, ()):
            sign[pair] = -sign[pair]
        lo, lo_c = active(0, n_lo, -1)
        up, up_c = active(n_lo, n, 1)
        if sign[lo, up] < 0:
            out.append(Strip(a, b, bounds[lo], bounds[up], i > 0 or lo_closed,
                             i == len(points) - 2 and hi_closed, lo_c, up_c))
    return out


def _qphi_area(s: Strip) -> QPhi:
    d1, d0 = s.upper.c1 - s.lower.c1, s.upper.c0 - s.lower.c0
    a, b = s.x_lo, s.x_hi
    return d1 * (b * b - a * a) * HALF + d0 * (b - a)


# values with mixed denominators, so rows and ends do not share one
_mixed = st.builds(lambda a, d, b, e: Q(Fraction(a, d), Fraction(b, e)),
                   st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 12]),
                   st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))


@st.composite
def _mixed_constraints(draw):
    """Bounds sharing c2 with mixed denominators: equal c1 (parallel),
    coincident, crossing on an end, and unrelated."""
    c2 = draw(_mixed)
    x_lo = draw(_mixed)
    x_hi = x_lo + draw(_mixed.filter(lambda w: w > 0))
    pool = [QuadBound(c2, draw(_mixed), draw(_mixed))]
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(["free", "parallel", "same", "at end"]))
        if kind == "free":
            pool.append(QuadBound(c2, draw(_mixed), draw(_mixed)))
        elif kind == "parallel":
            pool.append(f.add_affine(ZERO, draw(_mixed)))
        elif kind == "same":
            pool.append(QuadBound(f.c2, f.c1, f.c0))
        else:
            m, r = draw(_mixed.filter(bool)), draw(st.sampled_from([x_lo, x_hi]))
            pool.append(f.add_affine(m, -m * r))
    pick = st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                    min_size=1, max_size=3)
    return (x_lo, x_hi, draw(pick), draw(pick),
            draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(_mixed_constraints())
def test_kernel_matches_qphi_formulas(case):
    # strips_from_constraints closes x_lo and opens x_hi; the kernel under
    # it takes both end flags, as region_intersect and region_subtract use
    x_lo, x_hi, lowers, uppers, lo_c, hi_c = case
    got = strips_from_constraints(x_lo, x_hi, lowers, uppers)
    want = _qphi_strips(x_lo, x_hi, lowers, uppers)
    assert [_strip_tuple(s) for s in got] == [_strip_tuple(s) for s in want]
    bounds, closed = zip(*lowers, *uppers)
    band = (range(len(lowers)), range(len(lowers), len(bounds)))
    got = geometry._bands(x_lo, x_hi, list(bounds), list(closed), (band,),
                          lo_c, hi_c)
    want = _qphi_strips(x_lo, x_hi, lowers, uppers, lo_c, hi_c)
    assert [_strip_tuple(s) for s in got] == [_strip_tuple(s) for s in want]
    for s in got:
        assert s.area() == _qphi_area(s)


def _qphi_subtract(a: Strip, b: Strip) -> list[Strip]:
    """_strip_subtract with each band from its own QPhi pair table."""
    ov = geometry._x_overlap(a, b)
    if ov is None:
        return [a]
    lo, hi, lo_c, hi_c = ov
    out = []
    if cmp(lo, a.x_lo) > 0:
        out.append(replace(a, x_hi=lo, hi_closed=not lo_c))
    else:
        lo_c = a.lo_closed
    if cmp(a.x_hi, hi) > 0:
        out.append(replace(a, x_lo=hi, lo_closed=not hi_c))
    else:
        hi_c = a.hi_closed
    out += _qphi_strips(lo, hi, [(a.lower, a.lower_closed)],
                        [(a.upper, a.upper_closed),
                         (b.lower, not b.lower_closed)], lo_c, hi_c)
    out += _qphi_strips(lo, hi, [(a.lower, a.lower_closed),
                                 (b.upper, not b.upper_closed)],
                        [(a.upper, a.upper_closed)], lo_c, hi_c)
    return out


@st.composite
def _mixed_strip(draw, c2):
    x_lo = draw(_mixed)
    x_hi = x_lo + draw(_mixed.filter(lambda w: w > 0))
    return Strip(x_lo, x_hi, QuadBound(c2, draw(_mixed), draw(_mixed)),
                 QuadBound(c2, draw(_mixed), draw(_mixed)),
                 *draw(st.tuples(*[st.booleans()] * 4)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_strip_pair_ops_match_qphi_formulas(data):
    c2 = data.draw(_mixed)
    a, b = data.draw(_mixed_strip(c2)), data.draw(_mixed_strip(c2))
    if data.draw(st.booleans()):    # share a bound with a
        b = replace(b, lower=a.lower)
    if data.draw(st.booleans()) and a.x_lo < b.x_hi:    # and an x-end
        b = replace(b, x_lo=a.x_lo)
    ov = geometry._x_overlap(a, b)
    want = [] if ov is None else _qphi_strips(
        ov[0], ov[1], [(a.lower, a.lower_closed), (b.lower, b.lower_closed)],
        [(a.upper, a.upper_closed), (b.upper, b.upper_closed)], *ov[2:])
    got = geometry._strip_intersect(a, b)
    assert [_strip_tuple(s) for s in got] == [_strip_tuple(s) for s in want]
    got = geometry._strip_subtract(a, b)
    want = _qphi_subtract(a, b)
    assert [_strip_tuple(s) for s in got] == [_strip_tuple(s) for s in want]


def test_area_matches_qphi_formula_on_tower_strips():
    for E in exchange_tower(5):
        for p in E.pieces:
            for s in p.region.strips:
                assert s.area() == _qphi_area(s)
