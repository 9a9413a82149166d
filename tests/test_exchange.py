import functools
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from phiplane.exchange import (INV_PHI2, PAPER_STATED_Z, PSI, T_PHI,
                               T_PHI_DRIFT, BoundaryError, ExchangeError,
                               OutsideDomainError, PieceExchange, PlaneMap,
                               Point, build_base_exchange,
                               build_translation_exchange,
                               check_projection_witness, exchange_tower,
                               projection_witness, rational_dependence,
                               renormalization_checks, renormalize,
                               sample_points, strip_midpoint, translation)
from phiplane import fastorbit
from phiplane.fastorbit import CompiledExchange
from phiplane.field import HALF, ONE, PHI, QPhi, ZERO, phi_power, sgn_pair
from phiplane.geometry import GeometryError, QuadBound, Region, Strip


@pytest.fixture(scope="module")
def base():
    return build_base_exchange()


@pytest.fixture(scope="module")
def tower4():
    return exchange_tower(4)


def test_constants():
    assert INV_PHI2 == 2 - PHI
    assert T_PHI_DRIFT == QPhi(Fraction(3, 2)) - PHI   # -1/(2 phi^3)
    assert PAPER_STATED_Z == phi_power(-1) * HALF + phi_power(-3) * HALF
    assert PAPER_STATED_Z == QPhi(-2, Fraction(3, 2))


def test_T_phi_is_a_shear_plus_translation():
    p = Point(QPhi(1), QPhi(2))
    q = T_PHI.apply(p)
    assert q.x == p.x + INV_PHI2
    assert q.y == p.y + p.x + T_PHI_DRIFT
    assert T_PHI == PlaneMap(ONE, INV_PHI2, 1,
                             QuadBound(ZERO, ONE, T_PHI_DRIFT))


@pytest.mark.parametrize("base_map", [
    T_PHI, translation(phi_power(-2), phi_power(-3))],
    ids=["T_phi", "translation"])
def test_base_map_inverse_round_trip(base_map):
    for p in (Point(QPhi(1), QPhi(2)),
              Point(QPhi(Fraction(1, 3), Fraction(-2, 5)), QPhi(0, Fraction(7, 4)))):
        assert base_map.inverse().apply(base_map.apply(p)) == p
        assert base_map.apply(base_map.inverse().apply(p)) == p


def test_psi_inverse_inverts_psi():
    p = Point(QPhi(Fraction(1, 3), Fraction(-2, 5)), QPhi(Fraction(7, 4)))
    assert PSI.apply(PSI.inverse().apply(p)) == p
    assert PSI.inverse().apply(PSI.apply(p)) == p
    q = PSI.inverse().apply(Point(QPhi(1), QPhi(0)))
    assert q.x == -phi_power(-1)
    assert q.y == -phi_power(-3) * HALF


def test_base_areas(base):
    assert base.piece(1).region.area() == phi_power(-1)
    assert base.piece(2).region.area() == phi_power(-2)


def test_base_supports(base):
    lo1, hi1 = base.piece(1).region.x_extent()
    lo2, hi2 = base.piece(2).region.x_extent()
    z = PAPER_STATED_Z
    assert lo1 == z - 1 and hi1 == z
    assert lo2 == z - INV_PHI2 and hi2 == z + INV_PHI2


def test_stated_witness_confirmed(base):
    assert check_projection_witness(base, PAPER_STATED_Z) == []
    assert check_projection_witness(base, projection_witness(base)) == []


def test_literal_reading_fails_witness():
    literal = build_base_exchange(reading="literal")
    assert check_projection_witness(literal, PAPER_STATED_Z)
    assert literal.piece(1).region.area() != phi_power(-1)


def _with_strips(E: PieceExchange, d1, d2) -> PieceExchange:
    """E with the strips of its two pieces replaced."""
    return replace(E, pieces=(replace(E.piece(1), region=Region(tuple(d1))),
                              replace(E.piece(2), region=Region(tuple(d2)))))


EPS = phi_power(-40)
D1_LO, D1_HI = "p(D1) reaches z-1", "p(D1) exceeds z+1/phi^2"
D2_LO, D2_HI = "p(D2) reaches z-1/phi^2", "p(D2) reaches z+1/phi^2"
# the pieces' end strips pinch to a point at their outer x-ends; these
# flags put that point into the strip at x_lo, or at x_hi
POINT = {"lower_closed": True}
POINT_HI = {"lower_closed": True, "hi_closed": True}


@pytest.mark.parametrize("z, flagged, expected", [
    (PAPER_STATED_Z + EPS, None, [D1_LO, D2_LO]),
    (PAPER_STATED_Z - EPS, None, [D2_HI]),
    (PAPER_STATED_Z - INV_PHI2 - EPS, None, [D1_HI, D2_HI]),
    # a tight end fails once the slice there, a point, is closed
    (PAPER_STATED_Z, (1, 0, POINT), [D1_LO]),
    (PAPER_STATED_Z, (2, 0, POINT), [D2_LO]),
    (PAPER_STATED_Z, (2, -1, POINT_HI), [D2_HI]),
    # but D1's right end is closed, so a point on z + 1/phi**2 is allowed
    (PAPER_STATED_Z - INV_PHI2, (1, -1, POINT_HI), [D2_HI]),
], ids=["z+eps", "z-eps", "z-1/phi^2-eps", "D1 left point",
        "D2 left point", "D2 right point", "D1 right point allowed"])
def test_planted_projection_faults(base, z, flagged, expected):
    E = base
    if flagged:
        label, index, flags = flagged
        strips = [list(base.piece(k).region.strips) for k in (1, 2)]
        chosen = strips[label - 1]
        chosen[index] = replace(chosen[index], **flags)
        E = _with_strips(base, *strips)
    assert check_projection_witness(E, z) == expected


def test_strip_transport_matches_point_maps(base):
    pts = sample_points(base, 6, seed=2)
    for s in base.piece(1).region.strips:
        img = T_PHI.image(Region((s,)))
        rev = PSI.inverse().image(Region((s,)))
        for p in pts:
            if s.contains(p.x, p.y):
                q = T_PHI.apply(p)
                assert img.contains(q.x, q.y)
                q = PSI.inverse().apply(p)
                assert rev.contains(q.x, q.y)


def test_branch_is_T_minus_shift(base):
    for p in sample_points(base, 4, seed=3):
        t = T_PHI.apply(p)
        assert base.branch(1).apply(p) == t
        assert base.branch(2).apply(p) == Point(t.x - 1, t.y)
    with pytest.raises(ExchangeError):
        base.branch(3)


# -- the map type: random maps against point membership -----------------

_quarter = st.integers(-12, 12).map(lambda n: Fraction(n, 4))
_small = st.builds(QPhi, _quarter, _quarter)
_bounds = st.builds(QuadBound, _small, _small, _small)
_maps = st.builds(PlaneMap, _small.filter(bool), _small,
                  st.sampled_from([1, -1]), _bounds)
_unit = st.integers(0, 6).map(lambda n: Fraction(n, 6))


@st.composite
def _strip_and_points(draw):
    """A one-strip region with random flags, and exact points inside it,
    on its x-ends, on its bounds and just outside it."""
    x_lo = draw(_small)
    x_hi = x_lo + draw(_small.filter(lambda w: w > 0))
    lower = draw(_bounds)
    gap = draw(st.integers(1, 12).map(lambda n: Fraction(n, 4)))
    upper = lower.add_affine(ZERO, QPhi(gap))
    s = Strip(x_lo, x_hi, lower, upper,
              *draw(st.tuples(*[st.booleans()] * 4)))
    pts = []
    for tx in draw(st.lists(_unit, min_size=1, max_size=4)) + [0, 1]:
        x = x_lo + (x_hi - x_lo) * QPhi(tx)
        for ty in (Fraction(-1, 5), 0, draw(_unit), 1, Fraction(6, 5)):
            pts.append(Point(x, lower(x) + gap * QPhi(ty)))
    pts.append(Point(x_hi + 1, lower(x_lo)))
    return s, pts


@settings(max_examples=150, deadline=None)
@given(m=_maps, n=_maps, sp=_strip_and_points(),
       p=st.builds(Point, _small, _small))
def test_plane_map_laws(m, n, sp, p):
    assert m.inverse().apply(m.apply(p)) == p
    assert m.apply(m.inverse().apply(p)) == p
    assert (m @ n).apply(p) == m.apply(n.apply(p))
    strip, pts = sp
    img = m.image(Region((strip,)))
    for q in pts:
        assert strip.contains(*q) == img.contains(*m.apply(q)), q


def _qphi_image(m: PlaneMap, region: Region) -> Region:
    """PlaneMap.image with every coefficient an element: each bound b
    becomes X -> (s*b + q)(x), x = (X - u)/a, through QPhi arithmetic."""
    inv = m.inverse()
    ai, ui = inv.a, inv.u

    def pulled(b: QuadBound, s: int) -> list[QPhi]:     # s*b(ai*X + ui)
        c = (b.c2 * ai * ai, (2 * b.c2 * ui + b.c1) * ai,
             (b.c2 * ui + b.c1) * ui + b.c0)
        return [v if s > 0 else -v for v in c]

    def bound(b: QuadBound) -> QuadBound:
        return QuadBound(*(v + o for v, o in zip(pulled(b, m.s),
                                                 pulled(m.q, 1))))

    out = []
    for st_ in region.strips:
        x = [m.a * st_.x_lo + m.u, m.a * st_.x_hi + m.u]
        y = [bound(st_.lower), bound(st_.upper)]
        fx = [st_.lo_closed, st_.hi_closed]
        fy = [st_.lower_closed, st_.upper_closed]
        if m.a.sign() < 0:
            x, fx = x[::-1], fx[::-1]
        if m.s < 0:
            y, fy = y[::-1], fy[::-1]
        out.append(Strip(*x, *y, *fx, *fy))
    return Region.of(out)


# mixed denominators, so a map's rows and a strip's rows share none
_mixed = st.builds(lambda a, d, b, e: QPhi(Fraction(a, d), Fraction(b, e)),
                   st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 12]),
                   st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
_mixed_bounds = st.builds(QuadBound, _mixed, _mixed, _mixed)


@st.composite
def _mixed_region(draw):
    """Strips sharing c2 and, often, bounds and x-ends."""
    c2 = draw(_mixed)
    bounds = [QuadBound(c2, draw(_mixed), draw(_mixed)) for _ in range(3)]
    xs = sorted(set(draw(st.lists(_mixed, min_size=2, max_size=5))))
    strips = [Strip(lo, hi, draw(st.sampled_from(bounds)),
                    draw(st.sampled_from(bounds)),
                    *draw(st.tuples(*[st.booleans()] * 4)))
              for lo, hi in zip(xs, xs[1:])]
    return Region.of(strips)


@settings(max_examples=300, deadline=None)
@given(m=st.builds(PlaneMap, _mixed.filter(bool), _mixed,
                   st.sampled_from([1, -1]), _mixed_bounds),
       region=_mixed_region())
def test_image_matches_qphi_formulas(m, region):
    assert m.image(region) == _qphi_image(m, region)


def test_image_matches_qphi_formulas_on_the_tower(tower4):
    renorm = T_PHI @ PSI.inverse()
    for E in tower4:
        for p in E.pieces:
            for m in (renorm, PSI.inverse(), E.branch(p.label).inverse()):
                assert m.image(p.region) == _qphi_image(m, p.region)


def test_psi_and_its_renormalization_composite(tower4):
    assert PSI.inverse().inverse() == PSI
    renorm = T_PHI @ PSI.inverse()
    p = Point(QPhi(Fraction(1, 3), Fraction(-2, 5)), QPhi(Fraction(7, 4)))
    assert renorm.apply(p) == T_PHI.apply(PSI.inverse().apply(p))
    # one transport by the composite is the two transports, exactly
    for piece in tower4[2].pieces:
        assert renorm.image(piece.region) == \
            T_PHI.image(PSI.inverse().image(piece.region))


def test_renormalize_checks_hold(base):
    after = renormalize(base)
    checks = renormalization_checks(base, after)
    assert all(checks.values()), checks
    assert after.piece(1).region.area() == phi_power(-1)
    assert after.piece(2).region.area() == phi_power(-2)


@pytest.mark.parametrize("fault, failing", [
    (lambda d1, d2: (d1, d2[1:]), "T(psi^-1(D1)) in D2'"),
    (lambda d1, d2: (d1[:-1], d2), "T(psi^-1(D2)) in D1'"),
    (lambda d1, d2: (d1[1:], d2), "T(D2')-(1,0) in D1'"),
    (lambda d1, d2: (d1 + d2[:1], d2), "D1' and D2' area-disjoint"),
], ids=["drop D2' first", "drop D1' last", "drop D1' first",
        "D2' first in D1'"])
def test_planted_renormalization_faults(base, fault, failing):
    after = renormalize(base)
    faulty = _with_strips(after, *fault(after.piece(1).region.strips,
                                        after.piece(2).region.strips))
    checks = renormalization_checks(base, faulty)
    assert [k for k, ok in checks.items() if not ok] == [failing]


def test_leading_coefficient_recurrence(tower4):
    c = tower4[0].leading_coefficient()
    assert c == PHI * PHI * HALF
    for before, after in zip(tower4, tower4[1:]):
        assert after.leading_coefficient() == -PHI * PHI * c - PHI * HALF
        c = after.leading_coefficient()
    assert tower4[1].leading_coefficient() == -PHI * PHI * PHI


def _mixed_c2(base):
    """The base exchange with D2 alone moved to another c2."""
    d2 = base.piece(2)
    shifted = Region(tuple(
        replace(s, lower=QuadBound(s.lower.c2 + ONE, s.lower.c1, s.lower.c0),
                upper=QuadBound(s.upper.c2 + ONE, s.upper.c1, s.upper.c0))
        for s in d2.region.strips))
    assert shifted.leading_coefficient() == base.leading_coefficient() + ONE
    return replace(base, pieces=(base.piece(1), replace(d2, region=shifted)))


def test_leading_coefficient_reads_every_piece(base):
    # D2 alone gets another c2: piece 1 no longer speaks for the exchange
    with pytest.raises(GeometryError):
        _mixed_c2(base).leading_coefficient()


def test_compiling_needs_one_c2(base):
    with pytest.raises(ExchangeError, match="no single c2"):
        CompiledExchange(_mixed_c2(base))


def test_jump_index_needs_the_exchange_c2(monkeypatch):
    E1, E2 = exchange_tower(2)
    assert E1.leading_coefficient() != E2.leading_coefficient()
    stepper = CompiledExchange(E1)
    monkeypatch.setattr(PieceExchange, "power", lambda self, L: E2)
    p = sample_points(E1, 1, seed=7)[0]
    n = fastorbit.JUMP_AFTER * len(stepper._index.strips) + 1
    with pytest.raises(ExchangeError, match="c2 differs"):
        stepper.code_orbit(p, n)
    assert stepper._jumps is None


def test_repeated_piece_labels_are_refused(base):
    d1, d2 = base.pieces
    for pieces in ((d1, replace(d2, label=1)), (d1, d1)):
        with pytest.raises(ExchangeError, match="repeated piece label"):
            PieceExchange(base.base, pieces)
    with pytest.raises(ExchangeError, match="repeated piece label"):
        replace(base, pieces=(d1, replace(d2, label=1)))


def test_tower_levels_and_strip_growth(tower4):
    assert [E.level for E in tower4] == [1, 2, 3, 4]
    counts = [sum(len(p.region.strips) for p in E.pieces) for E in tower4]
    assert counts == [5, 8, 13, 21]  # Fibonacci growth


def test_renormalize_rejects_translation_base():
    E = build_translation_exchange(phi_power(-2), phi_power(-3))
    with pytest.raises(ExchangeError):
        renormalize(E)


def test_locate_and_step(base):
    for p in sample_points(base, 10, seed=7):
        label, q = base.step(p)
        assert label in (1, 2)
        assert base.locate(q) in (1, 2)  # image stays in the domain


def test_locate_outside(base):
    with pytest.raises(OutsideDomainError):
        base.locate(Point(QPhi(10), QPhi(10)))


def test_locate_boundary(base):
    s = base.piece(1).region.strips[0]
    x = (s.x_lo + s.x_hi) * HALF
    with pytest.raises(BoundaryError):
        base.locate(Point(x, s.lower(x)))  # lower bound is open


def test_translation_exchange_structure():
    alpha, beta = phi_power(-2), phi_power(-3)
    E = build_translation_exchange(alpha, beta)
    assert len(E.pieces) == 4
    assert sum((p.region.area() for p in E.pieces), ZERO) == QPhi(1)
    shifts = {p.label: p.shift for p in E.pieces}
    assert shifts == {1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (1, 1)}
    p = Point(QPhi(Fraction(1, 3)), QPhi(Fraction(1, 3)))
    label, q = E.step(p)
    assert ZERO <= q.x < QPhi(1) and ZERO <= q.y < QPhi(1)


def test_rational_dependence_detection():
    alpha, beta = phi_power(-2), phi_power(-3)   # 2 alpha + beta = 1
    n, m, k = rational_dependence(alpha, beta)
    assert (n, m, k) == (-2, -1, -1)
    assert n * alpha + m * beta == QPhi(k)
    # the builder checks only the range; the CLI reports the dependence
    with pytest.raises(ExchangeError, match="strictly in"):
        build_translation_exchange(alpha, QPhi(1))
    # the relation may lie beyond any search bound: 23 phi - 29 (23/29) phi
    assert rational_dependence(QPhi(0, 1), QPhi(0, Fraction(23, 29))) \
        == (-23, 29, 0)
    # both rational: the relation clears alpha's denominator
    assert rational_dependence(QPhi(Fraction(1, 2)), QPhi(Fraction(1, 3))) \
        == (-2, 0, -1)


def test_sample_points_in_domain(base):
    pts = sample_points(base, 30, seed=1)
    assert len(pts) == 30
    for p in pts:
        base.locate(p)


# -- integer fast path --------------------------------------------------

def _approx_sign(a: int, b: int) -> int:
    v = QPhi(a, b).approx(400)      # within |b| * 2**-400 of a + b*phi
    return (v > 0) - (v < 0)


def test_sgn_pair_matches_exact():
    import random
    assert fastorbit.sgn_pair is sgn_pair     # one sign kernel
    rng = random.Random(5)
    for _ in range(2000):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        assert sgn_pair(a, b) == QPhi(a, b).sign() == _approx_sign(a, b)
    # near-cancellation pairs around Fibonacci quotients
    f0, f1 = 1, 1
    for _ in range(90):
        f0, f1 = f1, f0 + f1
        assert sgn_pair(f1, -f0) == QPhi(f1, -f0).sign() == _approx_sign(f1, -f0)
        assert sgn_pair(-f1, f0) == QPhi(-f1, f0).sign() == _approx_sign(-f1, f0)


def _slow_code(E, p, n):
    word = []
    for _ in range(n):
        label, p = E.step(p)
        word.append(label)
    return tuple(word)


def test_fast_orbit_agreement(base):
    for p in sample_points(base, 3, seed=11):
        assert base.compiled.code_orbit(p, 250) == _slow_code(base, p, 250)


def test_fast_orbit_translation(base):
    E = build_translation_exchange(phi_power(-2), phi_power(-3))
    p = Point(QPhi(Fraction(1, 7)), QPhi(Fraction(2, 7)))
    assert E.compiled.code_orbit(p, 300) == _slow_code(E, p, 300)


def _closed_translation() -> PieceExchange:
    """The translation exchange with every edge closed: neighbouring
    pieces share their edges, where the earlier piece must win."""
    E = build_translation_exchange(phi_power(-2), phi_power(-3))
    return replace(E, pieces=tuple(
        replace(p, region=Region(tuple(
            replace(s, hi_closed=True, upper_closed=True)
            for s in p.region.strips)))
        for p in E.pieces))


_ORBIT_CASES = {
    "level 1": lambda: exchange_tower(1)[-1],
    "level 4": lambda: exchange_tower(4)[-1],
    "level 8": lambda: exchange_tower(8)[-1],
    "translation": lambda: build_translation_exchange(
        phi_power(-2), phi_power(-3)),
    "closed translation": _closed_translation,
}


@functools.cache
def _orbit_case(name: str):
    """The exchange and its exact start points: inside a strip, with x
    on a strip endpoint, and with y on a strip bound."""
    E = _ORBIT_CASES[name]()
    strips = [s for p in E.pieces for s in p.region.strips]
    ends = sorted({x for s in strips for x in (s.x_lo, s.x_hi)})
    unit = st.fractions(0, 1, max_denominator=12)
    inner = unit.filter(lambda t: 0 < t < 1)

    def at(s, x, u):
        lo, hi = s.lower(x), s.upper(x)
        return Point(x, lo + (hi - lo) * QPhi(u))

    def across(s, t):
        return s.x_lo + (s.x_hi - s.x_lo) * QPhi(t)

    def on_end(x):
        touching = [s for s in strips if s.x_lo <= x <= s.x_hi]
        return st.builds(lambda s, u: at(s, x, u),
                         st.sampled_from(touching), unit)

    strip = st.sampled_from(strips)
    starts = st.one_of(
        st.builds(lambda s, t, u: at(s, across(s, t), u), strip, inner, inner),
        st.sampled_from(ends).flatmap(on_end),
        st.builds(lambda s, t, u: at(s, across(s, t), u), strip, unit,
                  st.sampled_from([Fraction(0), Fraction(1)])))
    return E, starts


def _outcome(code, *args):
    try:
        return code(*args)
    except ExchangeError as e:
        return type(e)


@pytest.mark.parametrize("name", list(_ORBIT_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compiled_stepper_matches_slow(name, data):
    E, starts = _orbit_case(name)
    p = data.draw(starts)
    slow = _outcome(_slow_code, E, p, 25)
    assert slow in (BoundaryError, OutsideDomainError) or len(slow) == 25
    assert _outcome(E.compiled.code_orbit, p, 25) == slow


@pytest.mark.parametrize("name", ["level 1", "closed translation"])
def test_compiled_stepper_on_strip_ends_and_edges(name):
    # single steps only: at the ends and on the bounds of every strip,
    # interior endpoints of level 1 and the shared edges of the closed
    # translation included, a sign test is zero and the step's label
    # comes from PieceExchange.locate
    E = _ORBIT_CASES[name]()
    stepper = CompiledExchange(E)
    for s in (s for p in E.pieces for s in p.region.strips):
        for x in (s.x_lo, (s.x_lo + s.x_hi) * HALF, s.x_hi):
            lo, hi = s.lower(x), s.upper(x)
            for y in (lo, (lo + hi) * HALF, hi):
                p = Point(x, y)
                slow = _outcome(_slow_code, E, p, 25)
                assert _outcome(stepper.code_orbit, p, 25) == slow, p
                assert stepper.orbit_in_domain(p, 25) == \
                    isinstance(slow, tuple)
    assert stepper._jumps is None


# -- L-step jump tables -------------------------------------------------

def _punctured_translation() -> PieceExchange:
    """The translation exchange with the line x = (1 - alpha)/2 cut out
    of piece 1: the line and the lines it pulls back to cross the
    depth-L cells, which keep them out of macro steps only if region
    operations keep the cut's open x-ends."""
    E = build_translation_exchange(phi_power(-2), phi_power(-3))
    (s,) = E.pieces[0].region.strips
    t = s.x_hi * HALF
    holed = Region((replace(s, x_hi=t), replace(s, x_lo=t, lo_closed=False)))
    return replace(E, pieces=(replace(E.pieces[0], region=holed),)
                   + E.pieces[1:])


_JUMP_CASES = dict(_ORBIT_CASES, **{"punctured translation":
                                    _punctured_translation})


@functools.cache
def _jump_case(name: str):
    """A stepper with its jump table built, and exact starts: inside the
    depth-L cells, on their x-ends and bounds, on hidden lines (piece
    endpoints pulled back inside a cell strip), and on piece edges
    pulled back up to L steps."""
    E = _JUMP_CASES[name]()
    stepper = CompiledExchange(E)
    stepper._jumps = fastorbit._Index(E.power(fastorbit.JUMP_LENGTH))
    power = E.power(fastorbit.JUMP_LENGTH)
    cells = [s for p in power.pieces for s in p.region.strips]
    pieces = [s for p in E.pieces for s in p.region.strips]
    ends = {x for s in pieces for x in (s.x_lo, s.x_hi)}
    own = {x for s in cells for x in (s.x_lo, s.x_hi)}
    # the piece endpoints pulled back along each cell's word: lines where
    # a cell may claim points that single steps code otherwise
    pulled = set()
    for piece in power.pieces:
        shift = ZERO
        for label in piece.label:
            pulled.update(e - shift for e in ends)
            shift = shift + E.branch(label).u
    hidden = [x for x in sorted(pulled - own)
              if any(s.x_lo < x < s.x_hi for s in cells)]
    unit = st.fractions(0, 1, max_denominator=12)
    inner = unit.filter(lambda t: 0 < t < 1)
    edge = st.sampled_from([Fraction(0), Fraction(1)])

    def at(s, x, u):
        lo, hi = s.lower(x), s.upper(x)
        return Point(x, lo + (hi - lo) * QPhi(u))

    def across(s, t):
        return s.x_lo + (s.x_hi - s.x_lo) * QPhi(t)

    def on_x(strips, x, strict=False):
        touching = [s for s in strips if (s.x_lo < x < s.x_hi) or
                    (not strict and s.x_lo <= x <= s.x_hi)]
        return st.builds(lambda s, u: at(s, x, u),
                         st.sampled_from(touching), unit)

    def pulled_back(q, labels):
        for label in labels:
            q = E.branch(label).inverse().apply(q)
        return q

    labels = st.lists(st.sampled_from([p.label for p in E.pieces]),
                      max_size=fastorbit.JUMP_LENGTH)
    piece_edges = st.one_of(
        st.sampled_from(sorted(ends)).flatmap(lambda x: on_x(pieces, x)),
        st.builds(lambda s, t, u: at(s, across(s, t), u),
                  st.sampled_from(pieces), unit, edge))
    cell = st.sampled_from(cells)
    starts = [
        st.builds(lambda s, t, u: at(s, across(s, t), u), cell, inner, inner),
        st.sampled_from(sorted(own)).flatmap(lambda x: on_x(cells, x)),
        st.builds(lambda s, t, u: at(s, across(s, t), u), cell, unit, edge),
        st.builds(pulled_back, piece_edges, labels)]
    if hidden:
        starts.append(st.sampled_from(hidden).flatmap(
            lambda x: on_x(cells, x, strict=True)))
    # every pulled-back line, once in each cell strip it meets: across
    # its inside (a hidden line) or on one of its x-ends
    on_hidden = [at(s, x, Fraction(1, 2)) for x in sorted(pulled)
                 for s in cells if s.x_lo <= x <= s.x_hi]
    return E, stepper, st.one_of(starts), on_hidden


@pytest.mark.parametrize("name", list(_JUMP_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_jump_table_matches_single_steps(name, data):
    E, stepper, starts, _ = _jump_case(name)
    p = data.draw(starts)
    n = 3 * fastorbit.JUMP_LENGTH + data.draw(st.integers(0, 3))
    slow = _outcome(_slow_code, E, p, n)
    assert _outcome(stepper.code_orbit, p, n) == slow
    assert stepper.orbit_in_domain(p, n) == isinstance(slow, tuple)


@pytest.mark.parametrize("name", list(_JUMP_CASES))
def test_jump_table_on_every_hidden_line(name):
    E, stepper, _, on_hidden = _jump_case(name)
    n = 3 * fastorbit.JUMP_LENGTH
    for p in on_hidden:
        assert _outcome(stepper.code_orbit, p, n) == \
            _outcome(_slow_code, E, p, n), p


def test_power_cells_carry_words_and_composed_branches(base):
    P = base.power(3)
    assert P.base == base.base @ base.base @ base.base
    assert sum((p.region.area() for p in P.pieces), ZERO) == \
        sum((p.region.area() for p in base.pieces), ZERO)
    for piece in P.pieces:
        w = piece.label
        assert len(w) == 3
        assert P.branch(w) == base.branch(w[2]) @ base.branch(w[1]) \
            @ base.branch(w[0])
        p = strip_midpoint(piece.region.strips[0])
        assert P.step(p) == (w, P.branch(w).apply(p))
        assert _slow_code(base, p, 3) == w
    half_slope = PlaneMap(ONE, INV_PHI2, 1, QuadBound(ZERO, HALF, ZERO))
    with pytest.raises(ExchangeError, match="not T\\^2 minus an integer"):
        replace(base, base=half_slope).power(2)


def test_jump_table_is_built_only_for_long_runs():
    E = exchange_tower(2)[-1]
    stepper = CompiledExchange(E)
    budget = fastorbit.JUMP_AFTER * len(stepper._index.strips)
    p = sample_points(E, 1, seed=2)[0]
    stepper.code_orbit(p, budget // 2)
    stepper.code_orbit(p, budget // 2)
    assert stepper._jumps is None
    assert stepper.code_orbit(p, 40) == _slow_code(E, p, 40)
    assert stepper._jumps is not None


@pytest.mark.parametrize("bad", [
    PSI,
    PlaneMap(ONE, ZERO, 1, QuadBound(ZERO, HALF, ZERO)),
    PlaneMap(ONE, ZERO, 1, QuadBound(ONE, ZERO, ZERO)),
    PlaneMap(ONE, ZERO, -1, QuadBound(ZERO, ZERO, ZERO))],
    ids=["psi", "half slope", "quadratic", "y flip"])
def test_compiled_rejects_non_shear_branch(base, bad):
    with pytest.raises(ExchangeError, match="integer-slope shear"):
        CompiledExchange(replace(base, base=bad))


def test_orbit_in_domain_flags_outside(base):
    ce = base.compiled
    assert ce.orbit_in_domain(sample_points(base, 1, seed=3)[0], 2000)
    assert not ce.orbit_in_domain(Point(QPhi(10), QPhi(10)), 5)


def test_negative_orbit_length_is_refused(base):
    p = sample_points(base, 1, seed=3)[0]
    shim = fastorbit.BaseExchangeOrbit()
    for call in (base.code_orbit, base.compiled.code_orbit,
                 base.compiled.orbit_in_domain, shim.run, shim.code_orbit):
        with pytest.raises(ValueError, match="n must be >= 0") as err:
            call(p, -1)
        assert type(err.value) is ValueError


def test_code_orbit_entry_point(base):
    p = sample_points(base, 1, seed=13)[0]
    w = base.code_orbit(p, 64)
    assert len(w) == 64 and set(w) <= {1, 2}


def test_base_exchange_orbit_shim_codes_like_the_base_exchange(base):
    stepper = fastorbit.BaseExchangeOrbit()
    for p in sample_points(base, 3, seed=19):
        want = base.code_orbit(p, 3000)
        assert stepper.code_orbit(p, 3000) == stepper.run(p, 3000) == want


def test_code_orbit_compiles_once(monkeypatch):
    E = exchange_tower(3)[-1]           # fresh: nothing compiled yet
    compiles = []
    real_init = CompiledExchange.__init__

    def counted(self, exchange):
        compiles.append(exchange)
        real_init(self, exchange)
    monkeypatch.setattr(CompiledExchange, "__init__", counted)
    for p in sample_points(E, 3, seed=17):
        first, second = E.code_orbit(p, 80), E.code_orbit(p, 80)
        assert first == second == _slow_code(E, p, 80)
    assert compiles == [E]
    assert E.compiled is E.compiled
    assert compiles == [E]


# -- the locate kernel against the exact kernel it replaced --------------

def _exact_table(index, d):
    """The former tables at scale d: gaps of rows with the quadratic
    lower bound at scale d**3, the endpoints' pairs, and d**2."""
    pair = fastorbit._pair
    d2, d3 = d * d, d * d * d
    rows = []
    for piece, s in index.strips:
        c2 = pair(s.lower.c2, d)
        c1 = pair(s.lower.c1, d2)
        c0 = pair(s.lower.c0, d3)
        u1 = pair(s.upper.c1, d2)
        u0 = pair(s.upper.c0, d3)
        word = piece.label if isinstance(piece.label, tuple) else \
            (piece.label,)
        rows.append((*c2, *c1, *c0, u1[0] - c1[0], u1[1] - c1[1],
                     u0[0] - c0[0], u0[1] - c0[1], word))
    gaps = tuple(tuple(rows[j] for j in gap) for gap in index._gaps)
    ends = [pair(x, d) for x in index.xs]
    return gaps, tuple(a for a, _ in ends), tuple(b for _, b in ends), d2


def _exact_locate(gaps, ends_a, ends_b, d2, xa, xb, ya, yb):
    """The former kernel: an exact bisection for the gap of x, then the
    sign of (bound(x) - y) * d**3 with the quadratic term per strip."""
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


class _Kernels:
    """The new and the former kernel over one index, at the scales the
    points ask for."""

    def __init__(self, index):
        self.index = index
        self._exact = {}

    def scale(self, *values):
        return lcm(self.index.base_den, *(v.scaled()[2] for v in values))

    def both(self, x, y, d=None):
        """(new, former) symbols at (x, y); None where either leaves the
        point open.  z = y - c2*x**2 is formed here in Q(phi)."""
        d = d or self.scale(x, y)
        if d not in self._exact:
            self._exact[d] = _exact_table(self.index, d)
        pair = fastorbit._pair
        xa, xb = pair(x, d)
        ya, yb = pair(y, d)
        za, zb = pair(y - self.index.c2 * x * x, d * d * d)
        key = xa * fastorbit._ONE + xb * fastorbit._PHI_ONE
        new = fastorbit._locate(self.index.table(d), xa, xb, key, za, zb)
        return (new and new[0],
                _exact_locate(*self._exact[d], xa, xb, ya, yb))


@functools.cache
def _kernel_cases():
    tower = exchange_tower(8)
    return {
        "level 1": (tower[0], fastorbit._Index(tower[0])),
        "level 4": (tower[3], fastorbit._Index(tower[3])),
        "level 8": (tower[7], fastorbit._Index(tower[7])),
        "power(8)": (tower[0], fastorbit._Index(
            tower[0].power(fastorbit.JUMP_LENGTH))),
        "translation": (lambda E: (E, fastorbit._Index(E)))(
            build_translation_exchange(phi_power(-2), phi_power(-3))),
    }


def _near_ends(index):
    """Points at every endpoint x, at x +- phi**-k for k = 20..80, and at
    the dyadic rationals just below and above x (B = 0, so only the
    endpoints' key errors can misplace them): in the middle of and on
    the bounds of every strip whose closure meets x."""
    strips = [s for _, s in index.strips]
    for e in index.xs:
        xs = [e]
        for k in range(20, 81):
            xs += e + phi_power(-k), e - phi_power(-k)
        for m in range(50, 81, 3):
            lo = Fraction(e.approx(m + 8)) * 2**m // 1
            xs += QPhi(Fraction(lo, 2**m)), QPhi(Fraction(lo + 1, 2**m))
        for s in strips:
            if s.x_lo <= e <= s.x_hi:
                for x in xs:
                    lo, hi = s.lower(x), s.upper(x)
                    yield x, (lo + hi) * HALF
                    if x is e:
                        yield x, lo
                        yield x, hi


@pytest.mark.parametrize("name", ["level 1", "level 4", "level 8",
                                  "power(8)", "translation"])
def test_locate_matches_the_exact_kernel(name):
    E, index = _kernel_cases()[name]
    kernels = _Kernels(index)
    strips = [s for _, s in index.strips]
    pts = [(p.x, p.y) for p in sample_points(E, 40, seed=29)]
    for s in strips:                        # inside and on the bounds
        for t in (Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)):
            x = s.x_lo + (s.x_hi - s.x_lo) * QPhi(t)
            lo, hi = s.lower(x), s.upper(x)
            pts += (x, lo), (x, hi), (x, lo + (hi - lo) * QPhi(t))
    pts += _near_ends(index)
    for x, y in pts:
        new, old = kernels.both(x, y)
        assert new == old, (x, y)


def _exact_orbit(E, kernels, p, n, every=10):
    """The word of n single steps of E in the former state (x*d, y*d),
    stepped by the former kernel with `PieceExchange.locate` where it
    leaves a point open; `kernels` are compared at every `every`-th
    point on the way, where |B| of x*d grows with the step count."""
    pair = fastorbit._pair
    own = fastorbit._Index(E)
    d = lcm(own.base_den, kernels.scale(p.x, p.y))
    table = _exact_table(own, d)
    moves = {label: (*pair(u, d), *pair(q0, d), k)
             for label, (u, q0, k) in own.moves.items()}
    xa, xb = pair(p.x, d)
    ya, yb = pair(p.y, d)
    word = []
    for i in range(n):
        x, y = QPhi.from_scaled(xa, xb, d), QPhi.from_scaled(ya, yb, d)
        if i % every == 0:
            new, old = kernels.both(x, y, d)
            assert new == old, (i, x, y)
        label = _exact_locate(*table, xa, xb, ya, yb)
        label = label[0] if label else E.locate(Point(x, y))
        ua, ub, qa, qb, k = moves[label]
        ya += k * xa + qa
        yb += k * xb + qb
        xa += ua
        xb += ub
        word.append(label)
    return word, abs(xb) // d


@pytest.mark.parametrize("name", ["level 1", "level 4", "level 8",
                                  "power(8)", "translation"])
def test_locate_matches_the_exact_kernel_after_1e5_steps(name):
    E, index = _kernel_cases()[name]
    p = sample_points(E, 2, seed=31)[1]
    word, drift = _exact_orbit(E, _Kernels(index), p, 10**5)
    assert drift > 10**4
    assert CompiledExchange(E).code_orbit(p, 10**5) == tuple(word)
