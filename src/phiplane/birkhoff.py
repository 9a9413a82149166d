"""Exact ergodic sums S_n = sum_{k=0}^{n} ({x0 + k/phi**2} - 1/2).

The fractional parts are tracked incrementally: the step 1/phi**2 lies
in (0, 1), so each update either stays below 1 or wraps once.
`birkhoff_sum` and `sums_csv` carry S_n exactly, as the integer pair of
S_n * d.  `record_maxima` carries one scaled integer instead: with
one = 2**k, g = floor({x0}*one) - one/2 and step = floor(one/phi**2),
each term adds step to g (less one at a wrap) and g to the sum s.  Each
floor loses less than 1, so after n terms g lies below (f_n - 1/2)*one
by less than n + 1, and s below S_n*one by less than (n+1)(n+2)/2; only
the wrap and record tests these slacks leave open go to `sgn_pair`, on
the exact pair.  The tests check it against a loop with every test exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, lcm

from .field import PHI, QPhi, sgn_pair


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


def _scaled_start(fa: int, fb: int, d: int, N: int) -> tuple[int, int, int]:
    """(one, step, g) for N terms from {x0} = (fa + fb*phi)/d: one = 2**k,
    step = floor(one/phi**2) and g = floor({x0}*one) - one/2.

    k = 2*bitlen(N + 2) + 40 puts the run's slack, below (N + 2)**2 / 2,
    under one * 2**-41, so a term reaches `sgn_pair` only when it is that
    close to a wrap or a record.
    """
    k = 2 * (N + 2).bit_length() + 40
    one = 1 << k
    step = floor((2 - PHI) * one)
    g = QPhi.from_scaled(fa * one, fb * one, d).floor_frac()[0] - one // 2
    return one, step, g


def record_maxima(x0: QPhi, N: int) -> list[SumRecord]:
    """All n <= N where |S_n| strictly exceeds every earlier |S_j|.

    One loop over the scaled integers of `_scaled_start`: each term adds
    step to g, less one at a wrap, and g to s.  The start and the step
    are floors, each below its value by less than 1, and a wrap takes off
    exactly one, so after n <= N terms

        0 <= (f_n - 1/2)*one - g < n + 1 <= N + 1,
        0 <= S_n*one - s < (n+1)(n+2)/2 <= spread = (N+1)(N+2)/2.

    A term therefore wraps when g + step >= one/2 and cannot wrap when
    g + step < one/2 - N - 1; in between, `sgn_pair` decides on the exact
    pair of f + 1/phi**2 - 1, (fa + d(2n - W - 1), fb - dn) after W wraps.
    With B = |s| - spread at the last record (0 before the first), a lower
    bound on the best |S_j|*one, no s with -B <= s <= B - spread is a
    record.  Any other term goes to the exact test, on the pair of S_n*d
    rebuilt from n, W and the sum C of the wrap indices.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    fa, fb, d = _start(x0)
    half = d // 2
    one, step, g = _scaled_start(fa, fb, d, N)
    edge = one // 2
    near = edge - N - 1
    spread = (N + 1) * (N + 2) // 2
    g -= step                   # term 0 adds it back, and f_0 < 1 never wraps
    s = W = C = 0
    low, top = 0, -spread       # B = 0 before the first record: no window
    best_a, best_b = 0, 0
    out: list[SumRecord] = []
    for n in range(N + 1):
        g += step
        if g >= near and (g >= edge or
                          sgn_pair(fa + d * (2 * n - W - 1), fb - d * n) >= 0):
            g -= one
            W += 1
            C += n
        s += g
        if low <= s <= top:
            continue
        m = n * (n + 1)
        sa = (n + 1) * (fa - half) + d * (m - W * (n + 1) + C)
        sb = (n + 1) * fb - half * m
        aa, ab = (sa, sb) if sgn_pair(sa, sb) >= 0 else (-sa, -sb)
        if sgn_pair(aa - best_a, ab - best_b) > 0:
            best_a, best_b = aa, ab
            out.append(SumRecord(n, QPhi.from_scaled(sa, sb, d)))
            B = abs(s) - spread
            low, top = -B, B - spread
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
