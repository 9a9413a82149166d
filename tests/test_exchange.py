from fractions import Fraction

import pytest

from phiplane.exchange import (INV_PHI2, PAPER_STATED_Z, T_PHI_DRIFT,
                               BoundaryError, ExchangeError,
                               OutsideDomainError, Point, apply_T_phi,
                               build_base_exchange, build_translation_exchange,
                               check_projection_witness, exchange_tower,
                               projection_witness, psi, psi_inverse,
                               rational_dependence, renormalization_checks,
                               renormalize, sample_points, strip_apply_T_phi,
                               strip_psi_inverse, witness_interval)
from phiplane import fastorbit
from phiplane.fastorbit import (BaseExchangeOrbit, CompiledExchange,
                                compile_exchange)
from phiplane.field import HALF, PHI, QPhi, ZERO, phi_power, sgn_pair


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


def test_psi_inverse_inverts_psi():
    p = Point(QPhi(Fraction(1, 3), Fraction(-2, 5)), QPhi(Fraction(7, 4)))
    assert psi(psi_inverse(p)) == p
    assert psi_inverse(psi(p)) == p
    q = psi_inverse(Point(QPhi(1), QPhi(0)))
    assert q.x == -phi_power(-1)
    assert q.y == -phi_power(-3) * HALF


def test_base_areas(base):
    assert base.piece(1).region.area() == phi_power(-1)
    assert base.piece(2).region.area() == phi_power(-2)
    assert base.domain_area() == QPhi(1)


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
        img = strip_apply_T_phi(s)
        rev = strip_psi_inverse(s)
        for p in pts:
            if s.contains(p.x, p.y):
                q = apply_T_phi(p)
                assert img.contains(q.x, q.y)
                q = psi_inverse(p)
                assert rev.contains(q.x, q.y)


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
    assert E.domain_area() == QPhi(1)
    shifts = {p.label: p.shift for p in E.pieces}
    assert shifts == {1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (1, 1)}
    p = Point(QPhi(Fraction(1, 3)), QPhi(Fraction(1, 3)))
    label, q = E.step(p)
    assert ZERO <= q.x < QPhi(1) and ZERO <= q.y < QPhi(1)


def test_rational_dependence_detection():
    alpha, beta = phi_power(-2), phi_power(-3)   # 2 alpha + beta = 1
    dep = rational_dependence(alpha, beta)
    assert dep is not None
    n, m, k = dep
    assert n * alpha + m * beta == QPhi(k)
    with pytest.raises(ExchangeError):
        build_translation_exchange(alpha, beta)
    # phi and (23/29) phi admit no small integer relation over the rationals
    assert rational_dependence(QPhi(0, 1), QPhi(0, Fraction(23, 29))) is None


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


def test_fast_orbit_agreement(base):
    ce = compile_exchange(base)
    bo = BaseExchangeOrbit()
    for p in sample_points(base, 3, seed=11):
        q = p
        slow = []
        for _ in range(250):
            label, q = base.step(q)
            slow.append(label)
        assert ce.code_orbit(p, 250) == tuple(slow)
        assert bo.code_orbit(p, 250) == tuple(slow)


def test_fast_orbit_translation(base):
    E = build_translation_exchange(phi_power(-2), phi_power(-3),
                                  check_independence=False)
    ce = compile_exchange(E)
    p = Point(QPhi(Fraction(1, 7)), QPhi(Fraction(2, 7)))
    q = p
    slow = []
    for _ in range(300):
        label, q = E.step(q)
        slow.append(label)
    assert ce.code_orbit(p, 300) == tuple(slow)


def test_orbit_in_domain_flags_outside(base):
    bo = BaseExchangeOrbit()
    assert bo.orbit_in_domain(sample_points(base, 1, seed=3)[0], 2000)
    assert not bo.orbit_in_domain(Point(QPhi(10), QPhi(10)), 5)


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
        q, slow = p, []
        for _ in range(80):
            label, q = E.step(q)
            slow.append(label)
        assert first == second == tuple(slow)
    assert compiles == [E]
    assert compile_exchange(E) is E.compiled
    assert compiles == [E]
