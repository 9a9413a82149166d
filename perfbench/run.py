"""Run one phiplane benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 36 --trace 0

Run from the root of a phiplane checkout; the package is imported from
its `src/` directory.  Set-up is timed first: with --trace 0, fresh
interpreters running `phiplane base`; with --trace 1, fresh interpreters
importing the CLI under -X importtime.  Then whole rounds of the
workload body repeat while the next round fits in --seconds.  With
--trace 0 every round is untraced and the end-to-end metrics are
printed, wall_s being the median round.  With --trace 1 rounds
alternate untraced and traced, and the per-layer metrics are printed.
The last line of stdout is the JSON result.  Exit code 0 means every
operation that did not fail gave a checked, correct output.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle as O  # noqa: E402
from tracing import Tracer, field_rates, layer_metrics, top_exchange  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COLD_STARTS = 5
IMPORT_RUNS = 3
DEEP_LEVEL = 8          # level of fastorbit.deep_steps_per_s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "field.ops_per_s": "1/s", "field.max_coeff_bits": "count",
    "geometry.intersect_calls": "count", "geometry.intersect_s": "s",
    "geometry.subtract_calls": "count", "geometry.subtract_s": "s",
    "geometry.strip_pairs": "count",
    "exchange.renormalize_s": "s", "exchange.checks_s": "s",
    "exchange.top_strips": "count",
    "refine.preimage_s": "s", "refine.intersect_s": "s",
    "refine.cells": "count", "refine.kept_ratio": "ratio",
    "fastorbit.compile_calls": "count", "fastorbit.compile_s": "s",
    "fastorbit.steps_per_s": "1/s", "fastorbit.deep_steps_per_s": "1/s",
    "fastorbit.base_steps_per_s": "1/s",
    "birkhoff.terms_per_s": "1/s",
    "words.iterate_s": "s", "render.serialize_s": "s", "render.bytes": "B",
    "scenarios.relation_s": "s", "scenarios.count": "count",
    "cli.import_s": "s", "cli.sympy_import_s": "s",
    "trace.overhead_s": "s",
}

CLI_MAIN = "from phiplane.cli import main\nmain()"
IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport phiplane.cli\n"
                "print(time.perf_counter() - t)")
MODULES = ("field", "geometry", "exchange", "fastorbit", "refine", "words",
           "scenarios", "birkhoff", "render", "cli")


def _child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr}")
    return elapsed, proc


def cold_start() -> tuple[float, str]:
    """Median wall time of `phiplane base` in a fresh interpreter.

    One unmeasured start first warms the file cache and, unless
    PYTHONDONTWRITEBYTECODE is set, writes the bytecode cache as
    installing the package would."""
    argv = [sys.executable, "-c", CLI_MAIN, "base"]
    _, proc = _child(argv)
    times, texts = [], {proc.stdout}
    for _ in range(COLD_STARTS):
        t, proc = _child(argv)
        times.append(t)
        texts.add(proc.stdout)
    if len(texts) != 1:
        raise RuntimeError("`phiplane base` output differs between runs")
    return median(times), texts.pop()


def import_breakdown() -> tuple[float, float]:
    """Median import time of phiplane.cli and the share sympy takes."""
    argv = [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE]
    _child(argv)
    total, sympy = [], []
    for _ in range(IMPORT_RUNS):
        _, proc = _child(argv)
        total.append(float(proc.stdout.split()[-1]))
        us = [int(line.split("|")[1]) for line in proc.stderr.splitlines()
              if line.startswith("import time:") and
              line.split("|")[-1].strip() == "sympy"]
        sympy.append(us[0] / 1e6 if us else 0.0)
    return median(total), median(sympy)


def load_modules() -> dict:
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"phiplane.{m}") for m in MODULES}
    cache = importlib.import_module("sympy.core.cache")
    mods["sympy_cache"] = cache.clear_cache
    return mods


def base_output_ok(text: str, mods) -> bool:
    render = mods["render"]
    E = render.parse_exchange(text)
    return (render.serialize_exchange(E) == text and E.level == 1
            and O.region_area(E.piece(1).region) == O.phi_pow(-1)
            and O.region_area(E.piece(2).region) == O.phi_pow(-2))


def digest(out) -> int:
    """A hash of a round's outputs (all of them immutable or containers)."""
    if isinstance(out, (list, tuple)):
        return hash(tuple(digest(v) for v in out))
    if isinstance(out, dict):
        return hash(tuple((k, digest(v)) for k, v in out.items()))
    return hash(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "phiplane" / "__init__.py").is_file():
        print(f"no phiplane sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    marks = [time.perf_counter()]
    if args.trace:
        import_s, sympy_s = import_breakdown()
    else:
        setup_s, base_text = cold_start()
    mods = load_modules()
    setup_ok = args.trace or base_output_ok(base_text, mods)
    marks.append(time.perf_counter())
    inputs = workload.prepare(args.seed, mods)
    marks.append(time.perf_counter())

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    fails = fingerprint = None
    rounds = diverged = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        with_trace = bool(args.trace) and rounds % 2 == 1
        gc.collect()
        if with_trace:
            tracer.install(mods)
        t0 = time.perf_counter()
        try:
            out = workload.body(inputs, mods)
        finally:
            elapsed = time.perf_counter() - t0
            tracer.uninstall()
        (traced if with_trace else plain).append(elapsed)
        rounds += 1
        # the first round is checked; later rounds must repeat it exactly
        if fails is None:
            marks.append(time.perf_counter())
            fails = workload.check(inputs, out, mods)
            marks.append(time.perf_counter())
            fingerprint = digest(out)
        elif digest(out) != fingerprint:
            diverged += 1
        del out
        # stop before a round that would overrun the deadline
        if time.perf_counter() + elapsed > deadline and (traced or not args.trace):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    marks.append(time.perf_counter())

    per_round = workload.ops_per_round(inputs)
    attempted = rounds * per_round
    failed = (rounds - diverged) * len(fails) + diverged * per_round
    unknown = [f for f in fails if not f.known]
    correct = bool(setup_ok) and not unknown and not diverged
    for f in fails:
        print(f"{'known fault' if f.known else 'FAILED'}: {f.op}: {f.detail}",
              file=sys.stderr)
    if not setup_ok:
        print("FAILED: `phiplane base` output is not the level-1 exchange",
              file=sys.stderr)
    if diverged:
        print(f"FAILED: {diverged} rounds differ from the first", file=sys.stderr)

    if args.trace:
        values = layer_metrics(tracer.spans, len(traced), DEEP_LEVEL)
        top = top_exchange(tracer.spans)
        values["field.ops_per_s"], values["field.max_coeff_bits"] = \
            field_rates(top) if top is not None else (0.0, 0)
        values["cli.import_s"] = import_s
        values["cli.sympy_import_s"] = sympy_s
        values["trace.overhead_s"] = median(traced) - median(plain)
        units = LAYER_UNITS
    else:
        values = {"setup_s": setup_s, "wall_s": median(plain),
                  "peak_rss_mb": peak_mb}
        units = END_TO_END_UNITS
    print(f"{args.workload}: {rounds} rounds, {attempted} operations, "
          f"{failed} failed; round seconds untraced "
          f"{[round(t, 3) for t in plain]}, traced {[round(t, 3) for t in traced]}; "
          "phase seconds (set-up, inputs, first round, checks, rounds) "
          f"{[round(b - a, 2) for a, b in zip(marks, marks[1:])]}",
          file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
