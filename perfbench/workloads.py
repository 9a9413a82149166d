"""The three workloads: inputs from a seed, the timed body, and the checks.

A workload's `body` is one round: it calls phiplane's public API on the
prepared inputs and returns the outputs.  `check` compares one round's
outputs with computations from `oracle` (and, where the issue asks for
it, with phiplane's slow point-by-point stepper) and returns the number
of operations in a round and the list of failed ones.  A failure marked
`known` is the float-prefilter fault of the tower probes; any other
failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import oracle as O


@dataclass
class Failure:
    op: str
    detail: str
    known: bool = False


def _qphi(mods, x: O.Pair):
    return mods["field"].QPhi(x[0], x[1])


def _point(mods, x: O.Pair, y: O.Pair):
    return mods["exchange"].Point(_qphi(mods, x), _qphi(mods, y))


def _sample(rng: random.Random, exchange, count: int):
    """Seeded exact interior points of an exchange's pieces, as pairs.

    Returns (label, x, y) with the point strictly inside one strip of
    the piece `label`; positions are k/64 fractions of the strip.
    """
    out = []
    for _ in range(count):
        piece = exchange.pieces[rng.randrange(len(exchange.pieces))]
        s = piece.region.strips[rng.randrange(len(piece.region.strips))]
        tx = Fraction(rng.randrange(1, 64), 64)
        ty = Fraction(rng.randrange(1, 64), 64)
        x, y = O.interior_point(s, tx, ty)
        out.append((piece.label, x, y))
    return out


def _piece_areas_ok(exchange) -> bool:
    return (O.region_area(exchange.piece(1).region) == O.phi_pow(-1)
            and O.region_area(exchange.piece(2).region) == O.phi_pow(-2))


def _shared_c2(exchange) -> O.Pair | None:
    """The leading coefficient shared by every strip bound, else None."""
    vals = {O.pair_of(b.c2) for p in exchange.pieces
            for s in p.region.strips for b in (s.lower, s.upper)}
    return vals.pop() if len(vals) == 1 else None


# -- tower --------------------------------------------------------------

class Tower:
    """Renormalization tower with checks, plus area_disjoint probes."""

    levels = 9
    fixed_probe_ks = range(1, 161)      # x = 1/2, independent of the seed
    seeded_probes = 40                  # k <= 24: far inside the float margin
    points_per_level = 3

    def prepare(self, seed: int, mods) -> dict:
        rng = random.Random(f"tower:{seed}")
        specs = [(O.HALF, k) for k in self.fixed_probe_ks]
        while len(specs) < len(self.fixed_probe_ks) + self.seeded_probes:
            q = rng.randrange(3, 200)
            x = (Fraction(rng.randrange(1, q), q), Fraction(0))
            k = rng.randrange(1, 25)
            if O.sign(O.sub(x, O.phi_pow(-k))) > 0:    # overlap inside [0, x)
                specs.append((x, k))
        probes = [(self._rect(mods, O.ZERO, x),
                   self._rect(mods, O.sub(x, O.phi_pow(-k)), O.ONE))
                  for x, k in specs]
        return {"seed": seed, "probe_specs": specs, "probes": probes}

    @staticmethod
    def _rect(mods, x_lo: O.Pair, x_hi: O.Pair):
        """[x_lo, x_hi) x (0, 1] as a one-strip region."""
        g, Q = mods["geometry"], mods["field"].QPhi
        zero, one = Q(0), Q(1)
        return g.Region((g.Strip(_qphi(mods, x_lo), _qphi(mods, x_hi),
                                 g.QuadBound(zero, zero, zero),
                                 g.QuadBound(zero, zero, one)),))

    def body(self, inp: dict, mods) -> tuple:
        exchange, geometry = mods["exchange"], mods["geometry"]
        E = exchange.build_base_exchange()
        tower, checks = [E], []
        for _ in range(self.levels - 1):
            F = exchange.renormalize(E)
            checks.append(exchange.renormalization_checks(E, F))
            tower.append(F)
            E = F
        answers = [geometry.area_disjoint(a, b) for a, b in inp["probes"]]
        return tower, checks, answers

    def ops_per_round(self, inp: dict) -> int:
        return self.levels + len(inp["probes"])

    def check(self, inp: dict, out, mods) -> list[Failure]:
        tower, checks, answers = out
        exchange = mods["exchange"]
        rng = random.Random(f"tower-points:{inp['seed']}")
        fails: list[Failure] = []
        base = tower[0]
        c2_base = O.scale(O.phi_pow(2), Fraction(1, 2))
        if not _piece_areas_ok(base) or _shared_c2(base) != c2_base:
            fails.append(Failure("level 1", "areas or leading coefficient"))
        for n, (E, F, ok) in enumerate(zip(tower, tower[1:], checks), start=2):
            bad = [k for k, v in ok.items() if not v]
            c2, c2n = _shared_c2(E), _shared_c2(F)
            why = []
            if bad:
                why.append("renormalization checks failed: " + ", ".join(bad))
            if not _piece_areas_ok(F):
                why.append("piece areas are not 1/phi, 1/phi^2")
            if c2 is None or c2n != O.sub(O.scale(O.mul(O.phi_pow(2), c2), -1),
                                          O.scale(O.PHI, Fraction(1, 2))):
                why.append("c2' != -phi^2 c2 - phi/2")
            d1n, d2n = F.piece(1).region, F.piece(2).region
            for label, x, y in _sample(rng, E, self.points_per_level):
                q = exchange.psi_inverse(_point(mods, x, y))
                qx, qy = O.pair_of(q.x), O.pair_of(q.y)
                if not O.region_contains(d1n, qx, qy):
                    why.append("psi^-1(p) outside D1'")
                t = exchange.apply_T_phi(q)
                if label == 1 and not O.region_contains(
                        d2n, O.pair_of(t.x), O.pair_of(t.y)):
                    why.append("T(psi^-1(p)) outside D2' for p in D1")
            if why:
                fails.append(Failure(f"level {n}", "; ".join(why)))
        fixed = len(self.fixed_probe_ks)
        for i, ((x, k), got) in enumerate(zip(inp["probe_specs"], answers)):
            # overlap is [x - phi^-k, x) x (0, 1]: area phi^-k, and the
            # point (x - phi^-k / 2, 1/2) lies in both rectangles
            w = (O.sub(x, O.scale(O.phi_pow(-k), Fraction(1, 2))), O.HALF)
            a, b = self._rect(mods, O.ZERO, x), \
                self._rect(mods, O.sub(x, O.phi_pow(-k)), O.ONE)
            if not (O.region_contains(a, *w) and O.region_contains(b, *w)):
                fails.append(Failure(f"probe k={k}", "witness not in both"))
            elif got:
                # only the seed-independent probes may fail as the known fault
                fails.append(Failure(f"probe x={O.approx(x)} k={k}",
                                     "area_disjoint says disjoint",
                                     known=i < fixed))
        return fails


# -- collapse -----------------------------------------------------------

class Collapse:
    """Uncapped matching horizon M(N) for N = 1..levels by refinement."""

    levels = 5
    points_per_level = 3

    def prepare(self, seed: int, mods) -> dict:
        return {"seed": seed,
                "horizons": [O.fib(n + 2) - 1 for n in range(1, self.levels + 1)]}

    def body(self, inp: dict, mods) -> tuple:
        exchange, refine = mods["exchange"], mods["refine"]
        tower = exchange.exchange_tower(self.levels)
        chains = [refine.refinement_chain(E, m + 1)
                  for E, m in zip(tower, inp["horizons"])]
        return tower, chains

    def ops_per_round(self, inp: dict) -> int:
        return self.levels * (1 + self.points_per_level)

    def check(self, inp: dict, out, mods) -> list[Failure]:
        tower, chains = out
        rng = random.Random(f"collapse-points:{inp['seed']}")
        fails: list[Failure] = []
        for n, (E, chain, m) in enumerate(zip(tower, chains, inp["horizons"]),
                                          start=1):
            counts = [len(cells) for cells in chain]
            expect = [k + 1 for k in range(1, m + 1)] + [m + 3]
            why = []
            if counts != expect:
                why.append(f"p(1..{m + 1}) = {counts}, want {expect}")
            for depth, cells in enumerate(chain, start=1):
                total = O.ZERO
                for c in cells:
                    total = O.add(total, O.region_area(c.region))
                if total != O.ONE:
                    why.append(f"cell areas at depth {depth} sum to {total}")
            deepest = chain[-1]
            for c in deepest:
                # a point inside the cell must code to the cell's word
                x, y = O.interior_point(c.region.strips[0], O.HALF[0], O.HALF[0])
                if _slow_orbit(E, _point(mods, x, y), len(chain))[0] != c.word:
                    why.append(f"cell {c.word} codes otherwise")
                    break
            if why:
                fails.append(Failure(f"M({n})", "; ".join(why)))
            for label, x, y in _sample(rng, E, self.points_per_level):
                word = _slow_orbit(E, _point(mods, x, y), len(chain))[0]
                holders = [c.word for c in deepest
                           if O.region_contains(c.region, x, y)]
                if holders != [word]:
                    fails.append(Failure(f"level {n} point",
                                         f"cells {holders} vs coding {word}"))
        return fails


def _slow_orbit(E, p, n: int) -> tuple[tuple[int, ...], list]:
    """The coding of p by phiplane's point-by-point stepper, and the
    points it passed through."""
    word, trail = [], []
    for _ in range(n):
        trail.append(p)
        sym, p = E.step(p)
        word.append(sym)
    return tuple(word), trail


# -- orbits -------------------------------------------------------------

def _psi_inverse(x: O.Pair, y: O.Pair) -> tuple[O.Pair, O.Pair]:
    """(x, y) -> (-x/phi, -y - x^2/(2 phi) + x/(2 phi^2))."""
    inv = O.phi_pow(-1)
    nx = O.scale(O.mul(x, inv), -1)
    ny = O.add(O.sub(O.scale(y, -1),
                     O.scale(O.mul(O.mul(x, x), inv), Fraction(1, 2))),
               O.scale(O.mul(x, O.phi_pow(-2)), Fraction(1, 2)))
    return nx, ny


class Orbits:
    """Long and short exact orbit codings, and Birkhoff record maxima."""

    base_steps = 40_000
    generic = ((1, 10_000), (4, 4_000), (8, 1_500))
    slow_prefix = {1: 200, 4: 100}
    short_count, short_len, short_gap = 12, 50, 5
    sum_terms = 150_000
    starts = 2

    def prepare(self, seed: int, mods) -> dict:
        exchange = mods["exchange"]
        rng = random.Random(f"orbits:{seed}")
        tower = exchange.exchange_tower(8)
        base_pts = _sample(rng, tower[0], self.starts)
        pts = {}
        for level, _ in self.generic:
            pts[level] = []
            for _label, x, y in base_pts:
                for _ in range(level - 1):      # psi^-1 maps D into D1'
                    x, y = _psi_inverse(x, y)
                pts[level].append(_point(mods, x, y))
        slow = {level: [_slow_orbit(tower[level - 1], p, n)[0]
                        for p in pts[level]]
                for level, n in self.slow_prefix.items()}
        # short orbits start along one slow level-8 orbit, so every short
        # coding is a window of it
        span = self.short_len + self.short_gap * (self.short_count - 1)
        w8, trail = _slow_orbit(tower[7], pts[8][0], span)
        slow[8] = [w8] + [_slow_orbit(tower[7], p, self.short_len)[0]
                          for p in pts[8][1:]]
        short_pts = trail[::self.short_gap][:self.short_count]
        x0s = []
        for _ in range(self.starts):
            x0s.append((Fraction(rng.randrange(-50, 50), rng.randrange(1, 30)),
                        Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))))
        return {"pts": pts, "slow": slow, "short_pts": short_pts,
                "x0s": x0s, "x0q": [_qphi(mods, x) for x in x0s]}

    def body(self, inp: dict, mods) -> tuple:
        exchange, fastorbit = mods["exchange"], mods["fastorbit"]
        birkhoff = mods["birkhoff"]
        tower = exchange.exchange_tower(8)
        stepper = fastorbit.BaseExchangeOrbit()
        base = [stepper.code_orbit(p, self.base_steps) for p in inp["pts"][1]]
        gen = {}
        for level, n in self.generic:
            compiled = fastorbit.CompiledExchange(tower[level - 1])
            gen[level] = [compiled.code_orbit(p, n) for p in inp["pts"][level]]
        short = [tower[7].code_orbit(p, self.short_len)
                 for p in inp["short_pts"]]
        records = [birkhoff.record_maxima(x0, self.sum_terms)
                   for x0 in inp["x0q"]]
        return base, gen, short, records

    def ops_per_round(self, inp: dict) -> int:
        return self.starts * (2 + len(self.generic)) + self.short_count

    def check(self, inp: dict, out, mods) -> list[Failure]:
        base, gen, short, records = out
        fails: list[Failure] = []
        n1 = self.generic[0][1]
        for i, w in enumerate(base):
            if (len(w) != self.base_steps or w[:n1] != gen[1][i]
                    or w[:self.slow_prefix[1]] != inp["slow"][1][i]):
                fails.append(Failure(f"base orbit {i}",
                                     "disagrees with generic or slow stepper"))
        for level, n in self.generic:
            for i, w in enumerate(gen[level]):
                ref = inp["slow"][level][i]
                if len(w) != n or w[:len(ref)] != ref:
                    fails.append(Failure(f"level {level} orbit {i}",
                                         "disagrees with the slow stepper"))
        long8 = inp["slow"][8][0]
        for i, w in enumerate(short):
            start = i * self.short_gap
            if w != long8[start:start + self.short_len]:
                fails.append(Failure(f"short orbit {i}",
                                     "disagrees with the slow stepper"))
        for x0, recs in zip(inp["x0s"], records):
            want = O.birkhoff_records(x0, self.sum_terms)
            got = [(r.n, O.pair_of(r.value)) for r in recs]
            if got != want:
                fails.append(Failure(f"records from {x0}",
                                     "differ from the rational oracle"))
        return fails


# -- cli_mix ------------------------------------------------------------

_RELATION = re.compile(
    r"forced relation: \((.*?)\)\*r \+ \((.*)\)\*s = (.*?)  \(an integer\)$")
_HEADER = re.compile(r"scenario: (.*) \((\d+) pieces\)$")


def _scenario_count(n: int) -> int:
    return 1 if n == 1 else 3 if n == 2 else 2 * (n - 1)


def check_theorem1(text: str, n: int, rng: random.Random) -> list[str]:
    """Every printed relation holds on the measure solutions of its own
    transitions, for seeded integer shifts, and is not identically zero."""
    blocks = [b for b in text.strip("\n").split("\n\n") if b]
    why = []
    if len(blocks) != _scenario_count(n):
        why.append(f"{len(blocks)} scenarios, want {_scenario_count(n)}")
    for block in blocks:
        lines = block.split("\n")
        head = _HEADER.match(lines[0])
        rel = _RELATION.match(lines[-1])
        if not head or not rel:
            why.append(f"unparsed report: {lines[0]!r}")
            continue
        count = int(head.group(2))
        transitions = {}
        for line in lines[1:]:
            if not line.startswith("  ") or " -> " not in line:
                break
            src, tgt = line.strip().split(" -> ")
            transitions[src] = int(tgt)
        sources, eqs, rhs = O.measure_equations(count, transitions)
        part, direc = O.solve_measures(sources, eqs, rhs)
        nonzero, holds = False, True
        for _ in range(3):
            env = {f"{c}{i}": rng.randint(-6, 6)
                   for c in "nm" for i in range(1, count + 1)}
            cr, cs, c0 = (O.eval_poly(g, env) for g in rel.groups())
            nonzero |= cr != 0 or cs != 0
            for tau in (0, 1):
                meas = {v: part[v] + tau * direc[v] for v in sources}
                r = sum(meas[v] * env[f"n{v.rstrip('ab')}"] for v in sources)
                s = sum(meas[v] * env[f"m{v.rstrip('ab')}"] for v in sources)
                holds &= cr * r + cs * s == c0
        if not holds:
            why.append(f"{head.group(1)}: relation fails")
        if not nonzero:
            why.append(f"{head.group(1)}: relation vanishes")
    return why


def check_sums(text: str, x0: O.Pair, n_max: int) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "n,s_n,is_record" or len(lines) != n_max + 2:
        return ["bad sums header or row count"]
    for line, (n, val, rec) in zip(lines[1:], O.sums_table(x0, n_max)):
        k, s, flag = line.split(",")
        if int(k) != n or int(flag) != rec or abs(Fraction(s) - val) > 1e-12:
            return [f"row {line!r} vs S_{n} = {float(val):.15f} record={rec}"]
    return []


def check_exchange_text(text: str, level: int, mods) -> list[str]:
    render = mods["render"]
    E = render.parse_exchange(text)
    why = []
    if render.serialize_exchange(E) != text:
        why.append("serialization does not round-trip")
    if E.level != level or not _piece_areas_ok(E):
        why.append("level or piece areas wrong")
    return why


def check_svg(svg: str, strips: int) -> list[str]:
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        return ["not an svg document"]
    polys = svg.count("<polygon ")
    return [] if polys == strips else [f"{polys} polygons for {strips} strips"]


def _ints(x: O.Pair) -> str:
    return ",".join(str(v) for v in (x[0].numerator, x[0].denominator,
                                     x[1].numerator, x[1].denominator))


class CliMix:
    """In-process cli.run over a fixed list of subcommands."""

    theorem_steps = (1, 2, 3, 4, 5, 6)
    lang_len, lang_iters = 10, 12
    trans_n, sums_n, level = 5, 3000, 5

    def prepare(self, seed: int, mods) -> dict:
        rng = random.Random(f"cli_mix:{seed}")

        def irrational() -> O.Pair:
            b = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9),
                         rng.randrange(1, 9))
            return O.frac((Fraction(rng.randrange(-9, 9), rng.randrange(1, 9)), b))
        alpha, beta, x0 = irrational(), irrational(), irrational()
        calls = [["theorem1", "--n", str(n)] for n in self.theorem_steps]
        calls += [
            ["language", "--seed-lang", "min", "--iters", str(self.lang_iters),
             "--max-len", str(self.lang_len)],
            ["language", "--seed-lang", "full", "--iters", str(self.lang_iters),
             "--max-len", str(self.lang_len)],
            ["translation", f"--alpha={_ints(alpha)}", f"--beta={_ints(beta)}",
             "--max-n", str(self.trans_n), "--allow-dependent"],
            ["sums", "--max-n", str(self.sums_n), f"--x0={_ints(x0)}"],
            ["renorm", "--level", str(self.level)],
            ["render", "--level", str(self.level)],
        ]
        return {"seed": seed, "calls": calls, "x0": x0}

    def body(self, inp: dict, mods) -> list[tuple[int, str]]:
        cli = mods["cli"]
        mods["sympy_cache"]()        # each CLI call starts with a cold cache
        out = []
        for argv in inp["calls"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.run(argv)
            out.append((rc, buf.getvalue()))
        return out

    def ops_per_round(self, inp: dict) -> int:
        return len(inp["calls"])

    def check(self, inp: dict, out, mods) -> list[Failure]:
        rng = random.Random(f"cli_mix-shifts:{inp['seed']}")
        fails: list[Failure] = []
        renorm_strips = None
        for argv, (rc, text) in zip(inp["calls"], out):
            cmd = argv[0]
            if rc != 0:
                why = [f"exit code {rc}"]
            elif cmd == "theorem1":
                why = check_theorem1(text, int(argv[2]), rng)
            elif cmd == "language":
                why = [] if text == O.language_text(self.lang_len) + "\n" \
                    else ["not the Fibonacci factor set"]
            elif cmd == "translation":
                want = "n,p_n\n" + "".join(f"{n},{(n + 1) ** 2}\n"
                                           for n in range(1, self.trans_n + 1))
                why = [] if text == want else ["p(n) != (n+1)^2"]
            elif cmd == "sums":
                why = check_sums(text, inp["x0"], self.sums_n)
            elif cmd == "renorm":
                why = check_exchange_text(text, self.level, mods)
                renorm_strips = sum(int(line.split()[4]) for line in
                                    text.splitlines() if line.startswith("piece "))
            else:
                why = check_svg(text, renorm_strips)
            if why:
                fails.append(Failure(" ".join(argv), "; ".join(why)))
        return fails


# -- geometry -----------------------------------------------------------

class Geometry:
    """The tower and collapse parts, one after the other in every round.

    They share field and geometry but use geometry differently: a few
    subtractions of regions with hundreds of strips (tower) against many
    intersections of small regions (collapse).  The per-layer metrics
    geometry.subtract_s and geometry.intersect_s keep the two apart.
    """

    def __init__(self) -> None:
        self.parts = (Tower(), Collapse())

    def prepare(self, seed: int, mods) -> list:
        return [p.prepare(seed, mods) for p in self.parts]

    def body(self, inp: list, mods) -> tuple:
        return tuple(p.body(i, mods) for p, i in zip(self.parts, inp))

    def ops_per_round(self, inp: list) -> int:
        return sum(p.ops_per_round(i) for p, i in zip(self.parts, inp))

    def check(self, inp: list, out, mods) -> list[Failure]:
        return [f for p, i, o in zip(self.parts, inp, out)
                for f in p.check(i, o, mods)]


WORKLOADS = {"geometry": Geometry(), "orbits": Orbits(), "cli_mix": CliMix()}
