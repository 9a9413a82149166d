"""The acceptance suite: nine numbered checks over the whole package.

Each check returns (passed, detail).  `run_all` prints one line per
check and reports overall success; the test suite and the CLI `verify`
subcommand both call into this module so there is a single source of
truth for what "working" means.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable

from . import birkhoff, scenarios, words
from .exchange import (PAPER_STATED_Z, build_base_exchange,
                       build_translation_exchange, check_projection_witness,
                       exchange_tower, projection_witness,
                       renormalization_checks, sample_points)
from .field import HALF, PHI, QPhi, ZERO, _fib_pair, phi_power, sgn_pair
from .refine import chain_language, complexity_table, refinement_chain


def _random_qphi(rng: random.Random, span: int = 40) -> QPhi:
    def frac() -> Fraction:
        return Fraction(rng.randint(-span, span), rng.randint(1, span))
    return QPhi(frac(), frac())


def check_field_axioms() -> tuple[bool, str]:
    """Ring and order axioms on randomized elements, plus floor identity."""
    count = 10_000
    rng = random.Random(1)
    for i in range(count):
        a, b, c = (_random_qphi(rng) for _ in range(3))
        if (a + b) + c != a + (b + c):
            return False, f"associativity(+) fails at trial {i}"
        if (a * b) * c != a * (b * c):
            return False, f"associativity(*) fails at trial {i}"
        if a * (b + c) != a * b + a * c:
            return False, f"distributivity fails at trial {i}"
        if a != ZERO and a * a.inverse() != QPhi(1):
            return False, f"inverse fails at trial {i}"
        f = float(a)
        if abs(f) > 1e-6 and a.sign() != (1 if f > 0 else -1):
            return False, f"sign disagrees with float at trial {i}"
        n, r = a.floor_frac()
        if a != r + n or r.sign() < 0 or r >= 1:
            return False, f"floor identity fails at trial {i}"
    return True, f"{count} randomized trials"


def check_substitution_complexity() -> tuple[bool, str]:
    """Fibonacci factor complexity n+1, Tribonacci 2n+1, certified."""
    max_n = 30
    for n in range(1, max_n + 1):
        p = words.certified_complexity(words.fibonacci_word, n)
        if p != n + 1:
            return False, f"fibonacci p({n}) = {p} != {n + 1}"
        p = words.certified_complexity(words.tribonacci_word, n)
        if p != 2 * n + 1:
            return False, f"tribonacci p({n}) = {p} != {2 * n + 1}"
    return True, f"n = 1..{max_n} exact"


def check_language_convergence() -> tuple[bool, str]:
    """Iteration converges to the Fibonacci language from both sides."""
    cap, max_iters = 12, 25
    target = words.fibonacci_language(cap)
    seeds = {
        "increasing": words.Language.from_words([(1,), (2,)], 2, cap),
        "decreasing": words.Language.full(2, cap),
    }
    hits: dict[str, int] = {}
    for name, lang in seeds.items():
        chain = words.iterate_chain(lang, max_iters, cap)
        for prev, cur in zip(chain, chain[1:]):
            if name == "increasing" and not prev.words <= cur.words:
                return False, f"{name} chain not inclusion-increasing"
            if name == "decreasing" and not cur.words <= prev.words:
                return False, f"{name} chain not inclusion-decreasing"
        for i, lang_i in enumerate(chain):
            if lang_i.words == target.words:
                hits[name] = i
                break
        else:
            return False, f"{name} chain missed the target in {max_iters} steps"
    return True, (f"converged at iterations {hits['increasing']} (up), "
                  f"{hits['decreasing']} (down), cap {cap}")


def check_base_exchange() -> tuple[bool, str]:
    """Areas, the projection witness, and long orbits staying in D."""
    orbit_points, orbit_steps = 50, 100_000
    E = build_base_exchange()
    a1 = E.piece(1).region.area()
    a2 = E.piece(2).region.area()
    if a1 != phi_power(-1) or a2 != phi_power(-2):
        return False, f"areas ({a1}, {a2}) != (1/phi, 1/phi^2)"
    z = projection_witness(E)
    stated = check_projection_witness(E, PAPER_STATED_Z)
    if stated:
        note = ("stated z rejected: " + "; ".join(stated)
                + f"; witness z = {z} used instead")
    else:
        note = "stated witness z = 1/(2 phi) + 1/(2 phi^3) confirmed"
    literal = build_base_exchange(reading="literal")
    lit_bad = check_projection_witness(literal, PAPER_STATED_Z)
    if lit_bad:
        note += ("; literal band constants fail the witness ("
                 + "; ".join(lit_bad) + "), adjusted reading in use")
    stepper = E.compiled
    for p in sample_points(E, orbit_points, seed=4):
        if not stepper.orbit_in_domain(p, orbit_steps):
            return False, f"orbit from {p} left the domain"
    return True, (f"{note}; {orbit_points} orbits x {orbit_steps} steps stayed"
                  " in D")


def check_renormalization() -> tuple[bool, str]:
    """Zone inclusions, areas, disjointness and the c2 recurrence."""
    levels = 12
    tower = exchange_tower(levels + 1)
    for N in range(levels):
        before, after = tower[N], tower[N + 1]
        checks = renormalization_checks(before, after)
        if not all(checks.values()):
            bad = [k for k, v in checks.items() if not v]
            return False, f"level {N + 1}: {', '.join(bad)}"
        if after.piece(1).region.area() != phi_power(-1):
            return False, f"level {N + 2}: area(D1) != 1/phi"
        if after.piece(2).region.area() != phi_power(-2):
            return False, f"level {N + 2}: area(D2) != 1/phi^2"
        c_before = before.leading_coefficient()
        c_after = after.leading_coefficient()
        if c_after != -PHI * PHI * c_before - PHI * HALF:
            return False, f"level {N + 1}: c2 recurrence fails"
    return True, f"levels 1..{levels} exact"


def check_theorem2_desk_scale() -> tuple[bool, str]:
    """The collapse law M(N) = F_{N+2} - 1 and the language recursion.

    M(N) is the largest M with p(k) = k+1 for every k <= M at level N;
    the law also fixes the first excess, p(M+1) = M+3.
    """
    tower = exchange_tower(10)
    horizons = [_fib_pair(N + 2)[0] - 1 for N in range(1, 8)]    # M(1..7)
    # one refinement run per level: depth 6 for the languages, deeper
    # where the law needs it
    langs = []
    for N, E in enumerate(tower, start=1):
        if N <= len(horizons):
            m = horizons[N - 1]
            want = [k + 1 for k in range(1, m + 1)] + [m + 3]
        else:
            want = [k + 1 for k in range(1, 7)]
        chain = refinement_chain(E, max(len(want), 6))
        counts = [len(cells) for cells in chain[:len(want)]]
        if counts != want:
            return False, f"level {N}: p(1..{len(want)}) = {counts} != {want}"
        langs.append(chain_language(E, chain[:6]))
    if langs[9].words != words.fibonacci_language(6).words:
        return False, "level-10 language differs from the Fibonacci language"
    for N in range(8):
        expect = words.iterate_step(langs[N], words.FIBONACCI, 6)
        if langs[N + 1].words != expect.words:
            return False, f"language recursion fails at level {N + 1}"
    return True, (f"M(N) = F(N+2) - 1 = {horizons} and p(M+1) = M+3 for "
                  f"N=1..7; p(k) = k+1 for k <= 6 at N=8..10")


def check_theorem1_desk_scale() -> tuple[bool, str]:
    """Nonzero forced relations (the 2n+1 bound's case analysis), and the
    translation exchange's exact product law p(n) = (n+1)^2."""
    total = 0
    for n in range(1, 7):
        for sc in scenarios.enumerate_scenarios(n):
            if not scenarios.scenario_relation(sc).is_nonzero():
                return False, f"zero relation in step {n}: {sc.name}"
            total += 1
    E = build_translation_exchange(phi_power(-2), phi_power(-3))
    table = complexity_table(E, 8)
    for n, p in table:
        if p != (n + 1) ** 2:
            return False, f"translation p({n}) = {p} != {(n + 1) ** 2}"
    counts = [p for _, p in table]
    return True, (f"{total} scenarios nonzero; translation p(n) = {counts}"
                  f" = (n+1)^2")


def check_halmos_diagnostics() -> tuple[bool, str]:
    """Cell areas shrink and nearby points separate in coding."""
    depth, pairs, horizon = 12, 200, 1000
    E = build_base_exchange()
    areas = [max(c.cell_area for c in cells)
             for cells in refinement_chain(E, depth)]
    for a, b in zip(areas, areas[1:]):
        if b > a:
            return False, "max cell area increased"
    if areas[-1] >= areas[0]:
        return False, f"no strict decrease from n=1 to n={depth}"
    pts = sample_points(E, 2 * pairs, seed=8)
    stepper = E.compiled
    worst = 0
    for i in range(pairs):
        p, q = pts[2 * i], pts[2 * i + 1]
        if p == q:
            continue
        wp = stepper.code_orbit(p, horizon)
        wq = stepper.code_orbit(q, horizon)
        if wp == wq:
            return False, f"pair {i} not separated within {horizon} steps"
        k = next(j for j in range(horizon) if wp[j] != wq[j])
        worst = max(worst, k + 1)
    return True, (f"area(n={depth})/area(n=1) = "
                  f"{float(areas[-1] / areas[0]):.3f}; "
                  f"{pairs} pairs separate, worst at step {worst}")


def _exact_records(x0: QPhi, N: int) -> list[birkhoff.SumRecord]:
    """The records of |S_n| for n <= N, as a running maximum over the
    exact pairs of `birkhoff._sums`, every wrap decided by `sgn_pair`."""
    fa, fb, d = birkhoff._start(x0)
    best_a, best_b = 0, 0
    out = []
    for n, (sa, sb) in enumerate(birkhoff._sums(fa, fb, d, N)):
        aa, ab = (sa, sb) if sgn_pair(sa, sb) >= 0 else (-sa, -sb)
        if sgn_pair(aa - best_a, ab - best_b) > 0:
            best_a, best_b = aa, ab
            out.append(birkhoff.SumRecord(n, QPhi.from_scaled(sa, sb, d)))
    return out


def check_unboundedness_evidence() -> tuple[bool, str]:
    """Exact records of |S_n|, their growth, and growing vertical extent
    of the domains."""
    tower_levels = 20
    rng = random.Random(9)
    x0s = [QPhi(0)] + [_random_qphi(rng, 16) for _ in range(5)]
    # phi's first step lands exactly on a wrap: {phi + 1/phi**2} = 1
    for x0 in (*x0s, PHI):
        if birkhoff.record_maxima(x0, 20_000) != _exact_records(x0, 20_000):
            return False, f"records of {x0} differ from the exact sums"
    decades = (100, 1000, 10_000, 100_000)
    for x0 in x0s:
        records = birkhoff.record_maxima(x0, decades[-1])
        prev = None
        for N in decades:
            # max |S_n| over n <= N: the last record by N
            cur = abs([r for r in records if r.n <= N][-1].value)
            if prev is not None and cur <= prev:
                return False, f"no new |S_n| record in decade {N} for {x0}"
            prev = cur
    tower = exchange_tower(tower_levels)
    extents = [max(p.region.y_extent_bound() for p in E.pieces)
               for E in tower]
    for a, b in zip(extents, extents[1:]):
        if b <= a:
            return False, "y extent did not increase with the level"
    return True, (f"records grow across decades for {len(x0s)} starts; "
                  f"y extent {float(extents[0]):.3f} -> "
                  f"{float(extents[-1]):.3f} over levels 1..{tower_levels}")


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("1 field axioms and order", check_field_axioms),
    ("2 substitution complexity", check_substitution_complexity),
    ("3 language convergence", check_language_convergence),
    ("4 base exchange", check_base_exchange),
    ("5 renormalization", check_renormalization),
    ("6 complexity collapse at high level", check_theorem2_desk_scale),
    ("7 translation lower bound", check_theorem1_desk_scale),
    ("8 separation diagnostics", check_halmos_diagnostics),
    ("9 unboundedness evidence", check_unboundedness_evidence),
]


def run_all(emit: Callable[[str], None] = print) -> bool:
    all_ok = True
    for name, fn in CRITERIA:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {e!r}"
        elapsed = time.perf_counter() - start
        all_ok &= ok
        emit(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
             f"({elapsed:.1f}s)")
    return all_ok
