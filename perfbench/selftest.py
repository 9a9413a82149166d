"""Show that the workload checks are not vacuous.

    python3 perfbench/selftest.py

Runs each workload once at a small size, confirms its check passes, then
feeds the check deliberately wrong answers (a flipped orbit symbol, M(N)
off by one, a perturbed sum, ...) and confirms each is reported as a
failure.  Exit code 0 means every check behaved.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import load_modules  # noqa: E402
from workloads import CliMix, Collapse, Geometry, Orbits, Tower  # noqa: E402


def small(cls, **sizes):
    w = cls()
    for k, v in sizes.items():
        setattr(w, k, v)
    return w


def flip(word: tuple, i: int) -> tuple:
    return word[:i] + (3 - word[i],) + word[i + 1:]


def tower_cases(mods):
    w = small(Tower, levels=4, fixed_probe_ks=range(1, 4), seeded_probes=3)
    inp = w.prepare(1, mods)
    tower, checks, answers = w.body(inp, mods)
    yield "tower: true outputs", w, inp, (tower, checks, answers), 0
    bad = [dict(c) for c in checks]
    bad[1]["D1' and D2' area-disjoint"] = False
    yield "tower: a renormalization check reads false", w, inp, \
        (tower, bad, answers), 1
    E = tower[2]
    swapped = dataclasses.replace(E, pieces=(
        dataclasses.replace(E.pieces[0], region=E.pieces[1].region),
        dataclasses.replace(E.pieces[1], region=E.pieces[0].region)))
    yield "tower: pieces of one level swapped", w, inp, \
        (tower[:2] + [swapped] + tower[3:], checks, answers), None
    yield "tower: a probe answers disjoint", w, inp, \
        (tower, checks, [True] + answers[1:]), 1


def collapse_cases(mods):
    w = small(Collapse, levels=3, points_per_level=2)
    inp = w.prepare(1, mods)
    tower, chains = w.body(inp, mods)
    yield "collapse: true outputs", w, inp, (tower, chains), 0
    off = dict(inp, horizons=[m + 1 for m in inp["horizons"]])
    yield "collapse: M(N) off by one", w, off, w.body(off, mods), 3
    deep = list(chains[2][-1])
    deep[0], deep[1] = (dataclasses.replace(deep[0], word=deep[1].word),
                        dataclasses.replace(deep[1], word=deep[0].word))
    bad = chains[:2] + [chains[2][:-1] + [deep]]
    yield "collapse: two cell words exchanged", w, inp, (tower, bad), None
    cut = chains[:2] + [chains[2][:-1] + [chains[2][-1][1:]]]
    yield "collapse: a cell dropped", w, inp, (tower, cut), None


def geometry_cases(mods):
    w = Geometry()
    w.parts = (small(Tower, levels=3, fixed_probe_ks=range(1, 3),
                     seeded_probes=2),
               small(Collapse, levels=2, points_per_level=1))
    inp = w.prepare(1, mods)
    (tower, checks, answers), chain_out = w.body(inp, mods)
    yield "geometry: true outputs", w, inp, ((tower, checks, answers),
                                             chain_out), 0
    yield "geometry: a tower probe answers disjoint", w, inp, \
        ((tower, checks, [True] + answers[1:]), chain_out), 1
    off = [inp[0], dict(inp[1], horizons=[m + 1 for m in inp[1]["horizons"]])]
    yield "geometry: M(N) off by one in the collapse part", w, off, \
        w.body(off, mods), 2


def orbits_cases(mods):
    w = small(Orbits, base_steps=400, generic=((1, 300), (4, 200), (8, 60)),
              short_count=3, short_gap=4, sum_terms=2000)
    inp = w.prepare(1, mods)
    base, gen, short, records = w.body(inp, mods)
    yield "orbits: true outputs", w, inp, (base, gen, short, records), 0
    yield "orbits: a base orbit symbol flipped", w, inp, \
        ([flip(base[0], 150)] + base[1:], gen, short, records), 1
    g = dict(gen)
    g[8] = [flip(g[8][0], 5)] + g[8][1:]
    yield "orbits: a level-8 orbit symbol flipped", w, inp, \
        (base, g, short, records), 1
    yield "orbits: a short orbit symbol flipped", w, inp, \
        (base, gen, [flip(short[0], 49)] + short[1:], records), 1
    r = records[0][-1]
    off = dataclasses.replace(r, value=r.value + mods["field"].QPhi(
        Fraction(1, 10**9)))
    yield "orbits: a record sum perturbed", w, inp, \
        (base, gen, short, [records[0][:-1] + [off]] + records[1:]), 1


def cli_cases(mods):
    w = small(CliMix, theorem_steps=(1, 2, 3), lang_len=6, lang_iters=10,
              trans_n=3, sums_n=200, level=3)
    inp = w.prepare(1, mods)
    out = w.body(inp, mods)
    yield "cli_mix: true outputs", w, inp, out, 0
    idx = {argv[0] + (argv[2] if argv[0] == "theorem1" else ""): i
           for i, argv in enumerate(inp["calls"])}

    def edit(key, fn):
        bad = list(out)
        rc, text = bad[idx[key]]
        bad[idx[key]] = (rc, fn(text))
        return bad

    def shift_constant(text):
        head, _, rest = text.partition("  (an integer)")
        return head + " + 1" + "  (an integer)" + rest
    yield "cli_mix: a theorem1 relation constant off by one", w, inp, \
        edit("theorem13", shift_constant), 1
    yield "cli_mix: a language word dropped", w, inp, \
        edit("language", lambda t: t.replace("\n121\n", "\n", 1)), 1
    yield "cli_mix: translation p(3) off by one", w, inp, \
        edit("translation", lambda t: t.replace("3,16", "3,17")), 1

    def perturb_sum(text):
        lines = text.split("\n")
        n, s, flag = lines[50].split(",")
        lines[50] = f"{n},{float(s) + 1e-10:.12f},{flag}"
        return "\n".join(lines)
    yield "cli_mix: one ergodic sum perturbed", w, inp, \
        edit("sums", perturb_sum), 1

    def bend_strip(text):
        lines = text.split("\n")
        i = next(j for j, line in enumerate(lines) if line.startswith("strip"))
        parts = lines[i].split()
        parts[-4] = str(int(parts[-4]) + 1)      # upper bound's c0, rational part
        lines[i] = " ".join(parts)
        return "\n".join(lines)
    yield "cli_mix: a renorm strip bound changed", w, inp, \
        edit("renorm", bend_strip), 1
    yield "cli_mix: an svg polygon dropped", w, inp, \
        edit("render", lambda t: t.replace("<polygon ", "<!-- ", 1)), 1


def main() -> int:
    mods = load_modules()
    bad = 0
    for cases in (tower_cases, collapse_cases, geometry_cases, orbits_cases,
                  cli_cases):
        for name, w, inp, out, want in cases(mods):
            fails = w.check(inp, out, mods)
            got = len(fails)
            ok = (got == want) if want is not None else got > 0
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {got} failed"
                  + "".join(f"\n       {f.op}: {f.detail}" for f in fails[:2]))
    print("all checks behave" if not bad else f"{bad} checks misbehave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
