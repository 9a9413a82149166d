"""Exact ergodic sums S_n = sum_{k=0}^{n} ({x0 + k/phi**2} - 1/2).

The fractional parts are tracked incrementally: the step 1/phi**2 lies
in (0, 1), so each update either stays below 1 or wraps once.  A scaled
integer fast path, whose tests a certified double-precision estimate
decides unless it is too close to call, keeps million-term runs cheap.
The tests check it against a direct evaluation, one exact floor per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .field import HALF, PHI, QPhi, phi_power, sgn_pair

STEP = phi_power(-2)                 # 1/phi**2 = 2 - phi
DRIFT = phi_power(-3) * HALF         # 1/(2 phi**3)

# double-precision phi, and the error bound of the estimate A + B*PHI_FLOAT
# of A + B*phi for integers |A|, |B| < 2**52, which convert exactly: its
# three roundings (of phi, the product and the sum) err by less than
# (|A| + 4.3|B|) * 2**-53, within (|A| + 2|B|) * FLOAT_ERR
PHI_FLOAT = 1.618033988749894848
FLOAT_ERR = 2.0 ** -50


@dataclass(frozen=True)
class SumRecord:
    n: int
    value: QPhi


def _start(x0: QPhi) -> tuple[int, int, int]:
    """The fractional part {x0} as (A, B, d) for (A + B*phi)/d, d even."""
    _, f = x0.floor_frac()
    fa, fb, fd = f.scaled()
    d = lcm(2, fd)
    return fa * (d // fd), fb * (d // fd), d


def _sums(fa: int, fb: int, d: int, N: int):
    """S_0, ..., S_N from {x0} = (fa + fb*phi)/d, each as the integer
    pair of S_n * d; every wrap test is exact."""
    half = d // 2
    sa, sb = fa - half, fb
    yield sa, sb
    for _ in range(N):
        fa += 2 * d                 # f + 1/phi**2, 1/phi**2 = 2 - phi
        fb -= d
        if sgn_pair(fa - d, fb) >= 0:
            fa -= d
        sa += fa - half
        sb += fb
        yield sa, sb


def birkhoff_sum(x0: QPhi, n: int) -> QPhi:
    """S_n, incrementally, with the running fractional part reused."""
    if n < 0:
        raise ValueError("n must be >= 0")
    fa, fb, d = _start(x0)
    for sa, sb in _sums(fa, fb, d, n):
        pass
    return QPhi.from_scaled(sa, sb, d)


def record_maxima(x0: QPhi, N: int) -> list[SumRecord]:
    """All n <= N where |S_n| strictly exceeds every earlier |S_j|.

    Every value is a scaled integer pair (A, B) for (A + B*phi)/d.  The
    wrap test f + 1/phi**2 >= 1 and the record test |S_n| > best are
    first decided by the double A + B*PHI_FLOAT, whose error is at most
    `err` for every pair of the run (FLOAT_ERR times a bound on
    |A| + 2|B| from N and the start); a test the estimate leaves within
    its error goes to the exact `sgn_pair`, and so does every record.
    Beyond 2**52 integers stop converting to floats exactly, and every
    test is exact.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    fa, fb, d = _start(x0)
    half = d // 2
    step_a, step_b = 2 * d, -d
    sa, sb = fa - half, fb          # running sum, scaled by d
    best_a, best_b = 0, 0
    out: list[SumRecord] = []

    # |fb| grows by d a term; 0 <= f < 2 before a wrap keeps |fa - d|
    # within 2|fb| + 3d; the sums add N + 1 such terms
    top_b = abs(fb) + N * d
    top_a = 2 * top_b + 3 * d
    fast = (N + 1) * (top_a + top_b) < 2 ** 52
    err = (N + 1) * (top_a + 2 * top_b) * FLOAT_ERR if fast else 0.0
    floor = -2 * err                # |S_n| at or below it is no record

    for n in range(N + 1):
        if n > 0:
            fa += step_a
            fb += step_b
            if fast:
                t = fa - d + fb * PHI_FLOAT
                wrap = t > err or (t >= -err and sgn_pair(fa - d, fb) >= 0)
            else:
                wrap = sgn_pair(fa - d, fb) >= 0
            if wrap:
                fa -= d
            sa += fa - half
            sb += fb
        if fast:
            t = sa + sb * PHI_FLOAT
            if -floor <= t <= floor:
                continue
        aa, ab = (sa, sb) if sgn_pair(sa, sb) >= 0 else (-sa, -sb)
        if sgn_pair(aa - best_a, ab - best_b) > 0:
            best_a, best_b = aa, ab
            out.append(SumRecord(n, QPhi.from_scaled(sa, sb, d)))
            if fast:
                floor = abs(t) - 2 * err
    return out


def sums_csv(x0: QPhi, N: int) -> str:
    """CSV rows (n, S_n to 12 decimal places, is_record).

    Each S_n is printed as the double nearest to its value at phi's
    `approx(64)` midpoint, as `float(S_n.approx(64))` would print it.
    """
    records = {r.n for r in record_maxima(x0, N)}
    fa, fb, d = _start(x0)
    mid = PHI.approx(64)
    num, den = mid.numerator, mid.denominator
    scale = d * den
    lines = ["n,s_n,is_record"]
    for n, (sa, sb) in enumerate(_sums(fa, fb, d, N)):
        lines.append(f"{n},{(sa * den + sb * num) / scale:.12f},"
                     f"{int(n in records)}")
    return "\n".join(lines)
