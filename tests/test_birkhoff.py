import random
from fractions import Fraction
from math import floor, lcm

import pytest

from phiplane import birkhoff
from phiplane.birkhoff import SumRecord, birkhoff_sum, record_maxima, sums_csv
from phiplane.exchange import INV_PHI2 as STEP, T_PHI_DRIFT
from phiplane.field import HALF, PHI, QPhi, ZERO, phi_power, sgn_pair

DRIFT = -T_PHI_DRIFT                  # 1/(2 phi**3)
PHI_F = (1 + 5 ** 0.5) / 2


def birkhoff_sum_direct(x0: QPhi, n: int) -> QPhi:
    """S_n recomputed from scratch, one exact floor per term."""
    total = ZERO
    for k in range(n + 1):
        total = total + (x0 + k * STEP).frac() - HALF
    return total


def max_abs_sum(x0: QPhi, N: int) -> QPhi:
    """max_{n<=N} |S_n|."""
    recs = record_maxima(x0, N)
    return abs(recs[-1].value)


def test_first_sums_from_zero():
    assert birkhoff_sum(ZERO, 0) == -HALF
    # S_1 = -1/2 + (1/phi**2 - 1/2) = 1 - phi
    assert birkhoff_sum(ZERO, 1) == QPhi(1) - PHI


def test_incremental_matches_direct():
    starts = [ZERO, HALF, PHI - 1, QPhi(Fraction(3, 7), Fraction(-1, 5))]
    for x0 in starts:
        for n in (0, 1, 5, 34, 89):
            assert birkhoff_sum(x0, n) == birkhoff_sum_direct(x0, n)


def test_float_oracle():
    x0 = QPhi(Fraction(1, 3))
    n = 5000
    exact = float(birkhoff_sum(x0, n).approx(80))
    step = 1 / PHI_F ** 2
    approx = sum((1 / 3 + k * step) % 1.0 - 0.5 for k in range(n + 1))
    assert exact == pytest.approx(approx, abs=1e-6)


def display_difference(x0: QPhi, n: int) -> QPhi:
    """First-display minus second-display y-part of the orbit formula.

    The variant with drift n/(2 phi**3) and centering 1/phi differs from
    the {x} - 1/2 form by the constant -1/(2 phi**3), every n, because
    1/phi - 1/2 equals 1/(2 phi**3) exactly.
    """
    first = n * DRIFT
    second = ZERO
    inv_phi = phi_power(-1)
    for k in range(n + 1):
        f = (x0 + k * STEP).frac()
        first = first + f - inv_phi
        second = second + f - HALF
    return first - second


def test_display_difference_is_constant():
    for x0 in (ZERO, HALF, QPhi(Fraction(2, 9), Fraction(1, 4))):
        for n in (0, 3, 21, 100):
            assert display_difference(x0, n) == -DRIFT


def test_step_and_drift_constants():
    assert STEP == 2 - PHI
    assert DRIFT == phi_power(-3) * HALF
    # 1/phi - 1/2 = 1/(2 phi**3) exactly
    assert phi_power(-1) - HALF == DRIFT


def test_record_maxima_structure():
    recs = record_maxima(ZERO, 10000)
    assert recs[0] == SumRecord(0, -HALF)
    mags = [abs(r.value) for r in recs]
    for a, b in zip(mags, mags[1:]):
        assert b > a
    # values agree with the plain evaluation
    for r in recs[:6]:
        assert birkhoff_sum(ZERO, r.n) == r.value


def test_records_keep_appearing():
    # unbounded sums: a new record inside every decade checked
    recs = record_maxima(ZERO, 100000)
    ns = [r.n for r in recs]
    for lo in (100, 1000, 10000):
        assert any(lo <= n < 10 * lo for n in ns)


def test_max_abs_sum_monotone():
    vals = [max_abs_sum(ZERO, N) for N in (10, 100, 1000, 10000)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a
    assert vals[-1] > vals[0]


def test_record_maxima_random_start_matches_slow():
    rng = random.Random(17)
    x0 = QPhi(Fraction(rng.randint(-9, 9), 10), Fraction(rng.randint(-9, 9), 10))
    recs = record_maxima(x0, 400)
    best = ZERO
    expected = []
    for n in range(401):
        v = birkhoff_sum(x0, n)
        if abs(v) > best:
            best = abs(v)
            expected.append((n, v))
    assert [(r.n, r.value) for r in recs] == expected


def test_sums_csv_format_and_determinism():
    out = sums_csv(ZERO, 50)
    lines = out.splitlines()
    assert lines[0] == "n,s_n,is_record"
    assert len(lines) == 52
    assert lines[1] == "0,-0.500000000000,1"
    assert out == sums_csv(ZERO, 50)


def _sums_csv_qphi(x0: QPhi, N: int) -> str:
    """sums_csv with every S_n a QPhi, printed through approx(64)."""
    records = {r.n for r in record_maxima(x0, N)}
    lines = ["n,s_n,is_record"]
    _, f = x0.floor_frac()
    total = f - HALF
    for n in range(N + 1):
        if n > 0:
            f = f + STEP
            if f >= 1:
                f = f - 1
            total = total + f - HALF
        val = total.approx(64)
        lines.append(f"{n},{float(val):.12f},{int(n in records)}")
    return "\n".join(lines)


@pytest.mark.parametrize("x0", [
    ZERO,
    QPhi(Fraction(-7, 3), Fraction(5, 11)),
    (phi_power(-1) - 40 * STEP).frac(),
    QPhi(Fraction(-2 ** 61 - 1, 3), Fraction(2 ** 60, 7)),
], ids=["zero", "negative", "wrap tie", "large"])
def test_sums_csv_matches_qphi_loop(x0):
    for N in (0, 1, 5000):
        got = sums_csv(x0, N).split("\n")
        want = _sums_csv_qphi(x0, N).split("\n")
        # the first differing row, not a diff of 5000 rows
        assert len(got) == len(want) == N + 2
        assert next(((g, w) for g, w in zip(got, want) if g != w), None) \
            is None


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        birkhoff_sum(ZERO, -1)
    with pytest.raises(ValueError):
        record_maxima(ZERO, -2)


# -- the certified filter against the all-integer loop -------------------

def _records_exact(x0: QPhi, N: int) -> list[SumRecord]:
    """record_maxima with every wrap and record test decided by sgn_pair."""
    _, f = x0.floor_frac()
    fa, fb, fd = f.scaled()
    d = lcm(2, fd)
    fa, fb = fa * (d // fd), fb * (d // fd)
    half = d // 2
    sa, sb = fa - half, fb
    best_a, best_b = 0, 0
    out = []
    for n in range(N + 1):
        if n > 0:
            fa += 2 * d
            fb -= d
            if sgn_pair(fa - d, fb) >= 0:
                fa -= d
            sa += fa - half
            sb += fb
        aa, ab = (sa, sb) if sgn_pair(sa, sb) >= 0 else (-sa, -sb)
        if sgn_pair(aa - best_a, ab - best_b) > 0:
            best_a, best_b = aa, ab
            out.append(SumRecord(n, QPhi.from_scaled(sa, sb, d)))
    return out


def _calls(monkeypatch) -> list[tuple[int, int]]:
    seen = []

    def recording(a, b):
        seen.append((a, b))
        return sgn_pair(a, b)
    monkeypatch.setattr(birkhoff, "sgn_pair", recording)
    return seen


@pytest.mark.parametrize("k", [0, 1, 5, 40, 377])
def test_wrap_ties_reach_the_exact_test(monkeypatch, k):
    # x0 = 1/phi - k/phi**2 mod 1: at term k + 1, f + 1/phi**2 = 1 exactly,
    # a tie no double can decide; sgn_pair sees it as the pair (0, 0)
    x0 = (phi_power(-1) - k * STEP).frac()
    seen = _calls(monkeypatch)
    assert record_maxima(x0, 2000) == _records_exact(x0, 2000)
    assert (0, 0) in seen


def test_no_tie_no_zero_pair(monkeypatch):
    seen = _calls(monkeypatch)
    assert record_maxima(ZERO, 2000) == _records_exact(ZERO, 2000)
    assert (0, 0) not in seen
    # every record went through the exact test, and little else did
    assert len(seen) < 200


LARGE_STARTS = [
    QPhi(Fraction(-7, 3), Fraction(5, 11)),
    QPhi(Fraction(-2 ** 61 - 1, 3), Fraction(2 ** 60, 7)),
    QPhi(Fraction(1, 2 ** 50 + 3), Fraction(-1, 2 ** 47 + 1)),
    QPhi(Fraction(3 ** 700, 2 ** 1100), Fraction(-(5 ** 400), 3 ** 500)),
]


@pytest.mark.parametrize("x0", LARGE_STARTS, ids=[
    "negative", "large", "large denominators", "beyond floats"])
def test_negative_and_large_starts(x0):
    want = _records_exact(x0, 3000)
    assert record_maxima(x0, 3000) == want


def test_filter_matches_exact_loop_up_to_2e4():
    rng = random.Random(23)
    starts = [ZERO, HALF, PHI] + [
        QPhi(Fraction(rng.randint(-90, 90), rng.randint(1, 40)),
             Fraction(rng.randint(-90, 90), rng.randint(1, 40)))
        for _ in range(4)]
    for x0 in starts:
        assert record_maxima(x0, 20_000) == _records_exact(x0, 20_000)


# -- the scaled state's slack, exactly -----------------------------------

THIRD = QPhi(Fraction(1, 3))
RECORD_TIE = HALF - STEP * THIRD        # S_1 = -S_0
# S_2220 = -S_1064, and S_1064 < 0 is the last record before n = 2220:
# a tie between sums of opposite signs, late in the run
LATE_TIE = QPhi(Fraction(-4903207, 3286), Fraction(1515945, 1643))
SLACK_STARTS = {
    "plain": [ZERO, HALF, PHI],
    "wrap ties": [(phi_power(-1) - k * STEP).frac()
                  for k in (0, 1, 5, 40, 377)],
    "record tie": [RECORD_TIE],
    "near record ties": [RECORD_TIE + sign * phi_power(-k) * THIRD
                         for k in range(50, 80) for sign in (1, -1)],
    "large": LARGE_STARTS,
}


@pytest.mark.parametrize("family", list(SLACK_STARTS))
def test_scaled_state_stays_within_its_slack(family):
    # walk the scaled state of record_maxima with every wrap exact, and
    # check after each term n that g and s lie below their true values
    # by less than n + 1 and (n+1)(n+2)/2
    N = 3000
    for x0 in SLACK_STARTS[family]:
        fa, fb, d = birkhoff._start(x0)
        one, step, g = birkhoff._scaled_start(fa, fb, d, N)
        assert step == floor(STEP * one)
        s = 0
        pa = pb = 0                 # S_{n-1} * d
        ua = ub = None              # (f_{n-1} - 1/2) * d
        for n, (sa, sb) in enumerate(birkhoff._sums(fa, fb, d, N)):
            va, vb = sa - pa, sb - pb
            if n:
                g += step
                if sgn_pair(va - ua, vb - ub) < 0:     # f fell: a wrap
                    g -= one
            s += g
            slack = (n + 1) * (n + 2) // 2
            assert sgn_pair(va * one - g * d, vb * one) >= 0
            assert sgn_pair(va * one - (g + n + 1) * d, vb * one) < 0
            assert sgn_pair(sa * one - s * d, sb * one) >= 0
            assert sgn_pair(sa * one - (s + slack) * d, sb * one) < 0
            pa, pb, ua, ub = sa, sb, va, vb
        assert QPhi.from_scaled(sa, sb, d) == birkhoff_sum(x0, N)
        for n in (0, 1, 2, 3, 10, N):
            assert record_maxima(x0, n) == _records_exact(x0, n), n


def test_tie_starts_tie():
    assert birkhoff_sum(RECORD_TIE, 1) == -birkhoff_sum(RECORD_TIE, 0)
    assert 1 not in [r.n for r in record_maxima(RECORD_TIE, 10)]
    assert birkhoff_sum(LATE_TIE, 2220) == -birkhoff_sum(LATE_TIE, 1064)
    assert record_maxima(LATE_TIE, 2220)[-1].n == 1064


@pytest.mark.parametrize("one", [2, 34, 2 ** 20, 1134903170,
                                 12200160415121876738])
def test_records_exact_at_a_coarse_scale(monkeypatch, one):
    # the loop is exact at any even scale.  34, 1134903170 and
    # 12200160415121876738 are the Fibonacci numbers F_9, F_45 and F_93:
    # one/phi**2 lies just below an integer, so g loses almost 1 a term
    # and s almost (n+1)(n+2)/2 by n, and just past the late tie n = 2220
    # is a record that only the window's second `spread` lets through
    def coarse(fa, fb, d, N):
        f = QPhi.from_scaled(fa, fb, d)
        return one, floor(STEP * one), floor(f * one) - one // 2
    monkeypatch.setattr(birkhoff, "_scaled_start", coarse)
    for family in SLACK_STARTS.values():
        for x0 in family:
            assert record_maxima(x0, 600) == _records_exact(x0, 600)
    for x0 in (LATE_TIE, LATE_TIE + phi_power(-40), LATE_TIE + phi_power(-90)):
        assert record_maxima(x0, 2220) == _records_exact(x0, 2220)
