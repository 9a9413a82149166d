"""Computations made apart from phiplane, used to check its outputs.

Nothing here imports phiplane.  Elements of Q(phi) are plain pairs
(a, b) of Fractions standing for a + b*phi.  Signs come from a rational
bracket of phi built with isqrt(5 * 4**bits), with an exact quadratic
tie check when the bracket cannot decide.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from math import isqrt, lcm

Pair = tuple[Fraction, Fraction]

BITS = 96
_ROOT5 = isqrt(5 << (2 * BITS))               # floor(sqrt(5) * 2**BITS)
PHI_LO = ((1 << BITS) + _ROOT5) >> 1          # floor(phi * 2**BITS)
PHI_LO_Q = Fraction(PHI_LO, 1 << BITS)
PHI_HI_Q = Fraction(PHI_LO + 1, 1 << BITS)

ZERO: Pair = (Fraction(0), Fraction(0))
ONE: Pair = (Fraction(1), Fraction(0))
HALF: Pair = (Fraction(1, 2), Fraction(0))
PHI: Pair = (Fraction(0), Fraction(1))


# -- Q(phi) as pairs ----------------------------------------------------

def add(x: Pair, y: Pair) -> Pair:
    return (x[0] + y[0], x[1] + y[1])


def sub(x: Pair, y: Pair) -> Pair:
    return (x[0] - y[0], x[1] - y[1])


def mul(x: Pair, y: Pair) -> Pair:
    # phi**2 = phi + 1
    bb = x[1] * y[1]
    return (x[0] * y[0] + bb, x[0] * y[1] + x[1] * y[0] + bb)


def scale(x: Pair, k: Fraction | int) -> Pair:
    return (x[0] * k, x[1] * k)


def int_sign(a: int, b: int) -> int:
    """Exact sign of a + b*phi for integers, from the minimal polynomial."""
    if b == 0:
        return (a > 0) - (a < 0)
    # a + b*phi > 0  iff  phi > t = -a/b (b > 0), and phi > t iff
    # t < 0 or t*t - t - 1 < 0, i.e. a*a + a*b - b*b < 0 when t >= 0
    t_neg = (a > 0) if b > 0 else (a < 0)
    above = t_neg or a * a + a * b - b * b < 0
    return (1 if above else -1) * (1 if b > 0 else -1)


def sign(x: Pair) -> int:
    a, b = x
    if b == 0:
        return (a > 0) - (a < 0)
    lo = a + b * (PHI_LO_Q if b > 0 else PHI_HI_Q)
    if lo > 0:
        return 1
    hi = a + b * (PHI_HI_Q if b > 0 else PHI_LO_Q)
    if hi < 0:
        return -1
    d = lcm(a.denominator, b.denominator)
    return int_sign(int(a * d), int(b * d))


def phi_pow(k: int) -> Pair:
    """phi**k by repeated multiplication (phi**-1 = phi - 1)."""
    step = PHI if k >= 0 else (Fraction(-1), Fraction(1))
    out = ONE
    for _ in range(abs(k)):
        out = mul(out, step)
    return out


def approx(x: Pair) -> Fraction:
    return x[0] + x[1] * PHI_LO_Q


def fib(n: int) -> int:
    """F_n with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# -- strips read from phiplane objects ----------------------------------

def pair_of(q) -> Pair:
    """A phiplane QPhi as a pair (reads its two public rationals)."""
    return (q.a, q.b)


def bound_at(bound, x: Pair) -> Pair:
    c2, c1, c0 = pair_of(bound.c2), pair_of(bound.c1), pair_of(bound.c0)
    return add(mul(add(mul(c2, x), c1), x), c0)


def strip_contains(s, x: Pair, y: Pair) -> bool:
    """Point membership honouring the four closedness flags."""
    t = sign(sub(x, pair_of(s.x_lo)))
    if t < 0 or (t == 0 and not s.lo_closed):
        return False
    t = sign(sub(pair_of(s.x_hi), x))
    if t < 0 or (t == 0 and not s.hi_closed):
        return False
    t = sign(sub(y, bound_at(s.lower, x)))
    if t < 0 or (t == 0 and not s.lower_closed):
        return False
    t = sign(sub(bound_at(s.upper, x), y))
    return not (t < 0 or (t == 0 and not s.upper_closed))


def region_contains(region, x: Pair, y: Pair) -> bool:
    return any(strip_contains(s, x, y) for s in region.strips)


def strip_area(s) -> Pair:
    """Integral of upper - lower over [x_lo, x_hi]; upper - lower is affine."""
    d2 = sub(pair_of(s.upper.c2), pair_of(s.lower.c2))
    if d2 != ZERO:
        raise ValueError("strip bounds with different leading coefficients")
    d1 = sub(pair_of(s.upper.c1), pair_of(s.lower.c1))
    d0 = sub(pair_of(s.upper.c0), pair_of(s.lower.c0))
    a, b = pair_of(s.x_lo), pair_of(s.x_hi)
    return add(scale(mul(d1, sub(mul(b, b), mul(a, a))), Fraction(1, 2)),
               mul(d0, sub(b, a)))


def region_area(region) -> Pair:
    total = ZERO
    for s in region.strips:
        total = add(total, strip_area(s))
    return total


def interior_point(s, tx: Fraction, ty: Fraction) -> tuple[Pair, Pair]:
    """The point at relative position (tx, ty) inside a strip, 0 < t < 1."""
    lo, hi = pair_of(s.x_lo), pair_of(s.x_hi)
    x = add(lo, scale(sub(hi, lo), tx))
    ylo, yhi = bound_at(s.lower, x), bound_at(s.upper, x)
    return x, add(ylo, scale(sub(yhi, ylo), ty))


# -- ergodic sums -------------------------------------------------------

def birkhoff_records(x0: Pair, n_max: int) -> list[tuple[int, Pair]]:
    """Records of |S_n|, S_n = sum_{k<=n} ({x0 + k/phi**2} - 1/2), exactly.

    The floors of x0 + k/phi**2 are tracked with a 2**BITS-scaled
    integer bracket of phi; when the bracket straddles an integer the
    floor is decided by the exact minimal-polynomial test.  S_n is then
    (n+1) x0 + n(n+1)/(2 phi**2) - sum of floors - (n+1)/2, kept as an
    integer pair scaled by 2D, and records are compared the same way.
    """
    D = lcm(x0[0].denominator, x0[1].denominator)
    XA, XB = int(x0[0] * D), int(x0[1] * D)
    one = 1 << BITS
    DS = D * one
    records: list[tuple[int, Pair]] = []
    best_a = best_b = 0                       # |S| of the record, scaled by 2D
    fsum = 0
    # value_k * D = (XA + 2kD) + (XB - kD) phi
    for k in range(n_max + 1):
        va, vb = XA + 2 * k * D, XB - k * D
        num_lo = va * one + vb * (PHI_LO if vb > 0 else PHI_LO + 1)
        num_hi = va * one + vb * (PHI_LO + 1 if vb > 0 else PHI_LO)
        fl, fh = num_lo // DS, num_hi // DS
        if fl != fh:                          # an integer inside the bracket
            fl = fh if int_sign(va - fh * D, vb) >= 0 else fh - 1
        fsum += fl
        n1 = k + 1
        sa = 2 * n1 * XA + 2 * D * k * n1 - 2 * D * fsum - D * n1
        sb = 2 * n1 * XB - D * k * n1
        aa, ab = (sa, sb) if int_sign(sa, sb) >= 0 else (-sa, -sb)
        if int_sign(aa - best_a, ab - best_b) > 0:
            best_a, best_b = aa, ab
            records.append((k, (Fraction(sa, 2 * D), Fraction(sb, 2 * D))))
    return records


def sums_table(x0: Pair, n_max: int) -> list[tuple[int, Fraction, bool]]:
    """(n, S_n to 96 bits, is_record) for n = 0..n_max."""
    recs = {n for n, _ in birkhoff_records(x0, n_max)}
    alpha = phi_pow(-2)
    total = ZERO
    out = []
    for k in range(n_max + 1):
        v = add(x0, scale(alpha, k))
        total = add(total, sub(frac(v), HALF))
        out.append((k, approx(total), k in recs))
    return out


def frac(x: Pair) -> Pair:
    """x - floor(x), the floor decided exactly."""
    a, b = x
    fl = int((a + b * PHI_LO_Q) // 1)
    if sign(sub(x, (Fraction(fl), Fraction(0)))) < 0:
        fl -= 1
    elif sign(sub(x, (Fraction(fl + 1), Fraction(0)))) >= 0:
        fl += 1
    return (a - fl, b)


# -- words --------------------------------------------------------------

def fibonacci_prefix(length: int) -> tuple[int, ...]:
    """Prefix of the Fibonacci word as the limit of s_n = s_{n-1} s_{n-2}."""
    prev, cur = (2,), (1,)
    while len(cur) < length:
        prev, cur = cur, cur + prev
    return cur[:length]


def factor_set(w: tuple[int, ...], max_len: int) -> set[tuple[int, ...]]:
    out = {()}
    for n in range(1, max_len + 1):
        out.update(w[i:i + n] for i in range(len(w) - n + 1))
    return out


def language_text(max_len: int) -> str:
    """Factors of the Fibonacci word, sorted by (length, word), '-' for empty."""
    ws = factor_set(fibonacci_prefix(max(400, 40 * max_len)), max_len)
    ws = sorted(ws, key=lambda w: (len(w), w))
    return "\n".join("".join(map(str, w)) or "-" for w in ws)


# -- transition scenarios -----------------------------------------------

def solve_measures(variables: list[str],
                   equations: list[dict[str, Fraction]],
                   rhs: list[Fraction]) -> tuple[dict, dict]:
    """Gauss-Jordan over Fraction: solution = particular + tau * direction.

    Returns (particular, direction) as variable -> value maps; the
    direction is all zero when the solution is unique.  More than one
    free variable raises ValueError.
    """
    rows = [[eq.get(v, Fraction(0)) for v in variables] + [r]
            for eq, r in zip(equations, rhs)]
    pivots: list[int] = []
    r = 0
    for c in range(len(variables)):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for row in rows[r:]:
        if row[-1] != 0:
            raise ValueError("inconsistent measure equations")
    free = [c for c in range(len(variables)) if c not in pivots]
    if len(free) > 1:
        raise ValueError(f"{len(free)} free measures")
    part = {v: Fraction(0) for v in variables}
    direc = {v: Fraction(0) for v in variables}
    for i, c in enumerate(pivots):
        part[variables[c]] = rows[i][-1]
    if free:
        f = free[0]
        direc[variables[f]] = Fraction(1)
        for i, c in enumerate(pivots):
            direc[variables[c]] = -rows[i][f]
    return part, direc


def measure_equations(piece_count: int, transitions: dict[str, int]):
    """Inflow equals piece measure for every target, and total measure 1."""
    refining = {src.rstrip("ab") for src in transitions if src[-1] in "ab"}
    if transitions:
        sources = sorted(transitions)
    else:
        sources = [str(i) for i in range(1, piece_count + 1)]
    equations: list[dict[str, Fraction]] = []
    rhs: list[Fraction] = []
    for j in range(1, piece_count + 1):
        if not transitions:
            break
        eq: dict[str, Fraction] = {}
        for src, tgt in transitions.items():
            if tgt == j:
                eq[src] = eq.get(src, Fraction(0)) + 1
        own = [f"{j}a", f"{j}b"] if str(j) in refining else [str(j)]
        for v in own:
            eq[v] = eq.get(v, Fraction(0)) - 1
        equations.append(eq)
        rhs.append(Fraction(0))
    equations.append({v: Fraction(1) for v in sources})
    rhs.append(Fraction(1))
    return sources, equations, rhs


_ALLOWED = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub,
            ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Name,
            ast.Load, ast.Constant)


def eval_poly(text: str, env: dict[str, int]) -> Fraction:
    """Evaluate a printed polynomial in the shift symbols, over Fraction."""
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED):
            raise ValueError(f"unexpected syntax in {text!r}")

    def ev(n) -> Fraction:
        if isinstance(n, ast.Expression):
            return ev(n.body)
        if isinstance(n, ast.Constant):
            return Fraction(n.value)
        if isinstance(n, ast.Name):
            return Fraction(env[n.id])
        if isinstance(n, ast.UnaryOp):
            v = ev(n.operand)
            return -v if isinstance(n.op, ast.USub) else v
        a, b = ev(n.left), ev(n.right)
        if isinstance(n.op, ast.Add):
            return a + b
        if isinstance(n.op, ast.Sub):
            return a - b
        if isinstance(n.op, ast.Mult):
            return a * b
        if isinstance(n.op, ast.Div):
            return a / b
        return a ** int(b)
    return ev(tree)
