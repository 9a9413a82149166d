import functools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phiplane.exchange import (INV_PHI2, PAPER_STATED_Z, PSI, T_PHI,
                               T_PHI_DRIFT, BoundaryError, ExchangeError,
                               OutsideDomainError, PieceExchange, PlaneMap,
                               Point, apply_T_phi, build_base_exchange,
                               build_translation_exchange,
                               check_projection_witness, exchange_tower,
                               projection_witness, psi_inverse,
                               rational_dependence, renormalization_checks,
                               renormalize, sample_points, translation,
                               witness_interval)
from phiplane import fastorbit
from phiplane.fastorbit import CompiledExchange
from phiplane.field import HALF, ONE, PHI, QPhi, ZERO, phi_power, sgn_pair
from phiplane.geometry import QuadBound, Region, Strip


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
    q = apply_T_phi(p)
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
    assert PSI.apply(psi_inverse(p)) == p
    assert psi_inverse(PSI.apply(p)) == p
    q = psi_inverse(Point(QPhi(1), QPhi(0)))
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
    z_min, z_max = witness_interval(base)
    assert z_min <= PAPER_STATED_Z <= z_max
    assert check_projection_witness(base, projection_witness(base)) == []


def test_literal_reading_fails_witness():
    literal = build_base_exchange(reading="literal")
    assert check_projection_witness(literal, PAPER_STATED_Z)
    assert literal.piece(1).region.area() != phi_power(-1)


def test_strip_transport_matches_point_maps(base):
    pts = sample_points(base, 6, seed=2)
    for s in base.piece(1).region.strips:
        img = T_PHI.image(Region((s,)))
        rev = PSI.inverse().image(Region((s,)))
        for p in pts:
            if s.contains(p.x, p.y):
                q = apply_T_phi(p)
                assert img.contains(q.x, q.y)
                q = psi_inverse(p)
                assert rev.contains(q.x, q.y)


def test_branch_is_T_minus_shift(base):
    for p in sample_points(base, 4, seed=3):
        t = apply_T_phi(p)
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


def test_psi_and_its_renormalization_composite(tower4):
    assert PSI.inverse().inverse() == PSI
    renorm = T_PHI @ PSI.inverse()
    p = Point(QPhi(Fraction(1, 3), Fraction(-2, 5)), QPhi(Fraction(7, 4)))
    assert renorm.apply(p) == apply_T_phi(psi_inverse(p))
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


def test_leading_coefficient_recurrence(tower4):
    c = tower4[0].leading_coefficient()
    assert c == PHI * PHI * HALF
    for before, after in zip(tower4, tower4[1:]):
        assert after.leading_coefficient() == -PHI * PHI * c - PHI * HALF
        c = after.leading_coefficient()
    assert tower4[1].leading_coefficient() == -PHI * PHI * PHI


def test_tower_levels_and_strip_growth(tower4):
    assert [E.level for E in tower4] == [1, 2, 3, 4]
    counts = [sum(len(p.region.strips) for p in E.pieces) for E in tower4]
    assert counts == [5, 8, 13, 21]  # Fibonacci growth


def test_renormalize_rejects_translation_base():
    E = build_translation_exchange(phi_power(-2), phi_power(-3),
                                  check_independence=False)
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
    E = build_translation_exchange(alpha, beta, check_independence=False)
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
    with pytest.raises(ExchangeError):
        build_translation_exchange(alpha, beta)
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
    E = build_translation_exchange(phi_power(-2), phi_power(-3),
                                  check_independence=False)
    p = Point(QPhi(Fraction(1, 7)), QPhi(Fraction(2, 7)))
    assert E.compiled.code_orbit(p, 300) == _slow_code(E, p, 300)


def _closed_translation() -> PieceExchange:
    """The translation exchange with every edge closed: neighbouring
    pieces share their edges, where the earlier piece must win."""
    E = build_translation_exchange(phi_power(-2), phi_power(-3),
                                   check_independence=False)
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
        phi_power(-2), phi_power(-3), check_independence=False),
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


def test_code_orbit_entry_point(base):
    p = sample_points(base, 1, seed=13)[0]
    w = base.code_orbit(p, 64)
    assert len(w) == 64 and set(w) <= {1, 2}


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
