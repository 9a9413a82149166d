"""In-memory spans around phiplane's public functions, and the per-layer
metrics derived from them.

Each wrapper is installed at the name a caller looks up, for example
`refine.region_intersect` (the geometry function as refine imported it)
or the method `CompiledExchange.code_orbit`, and is removed again after
the traced round, so untraced rounds run the program unchanged.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from statistics import median


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans (name, start, end, parent) while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, parent=stack[-1] if stack else -1))
            stack.append(idx)
            span = spans[idx]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(span.info, args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, hook))

    def install(self, mods: dict) -> None:
        geometry, exchange, refine = mods["geometry"], mods["exchange"], mods["refine"]
        fastorbit, birkhoff, words = mods["fastorbit"], mods["birkhoff"], mods["words"]
        render, scenarios, cli = mods["render"], mods["scenarios"], mods["cli"]

        def pairs(info, args, result):
            info["pairs"] = len(args[0].strips) * len(args[1].strips)

        def strips(info, args, result):
            info["strips"] = sum(len(p.region.strips) for p in result.pieces)
            info["exchange"] = result

        def cells(info, args, result):
            info["cells"] = sum(len(depth) for depth in result)
            info["kept"] = sum(len(depth) for depth in result[1:])

        def steps(info, args, result):
            info["level"] = args[0].exchange.level
            info["steps"] = args[2]

        def base_steps(info, args, result):
            info["steps"] = args[2]

        def terms(info, args, result):
            info["terms"] = args[1] + 1

        def nbytes(info, args, result):
            info["bytes"] = len(result.encode())

        self.patch(geometry, "region_intersect", "geometry.intersect", pairs)
        self.patch(geometry, "region_subtract", "geometry.subtract", pairs)
        self.patch(refine, "region_intersect", "refine.intersect", pairs)
        self.patch(exchange, "renormalize", "exchange.renormalize", strips)
        for owner in (exchange, cli):
            self.patch(owner, "renormalization_checks", "exchange.checks")
        self.patch(refine, "preimage", "refine.preimage")
        self.patch(refine, "refinement_chain", "refine.chain", cells)
        compiled = fastorbit.CompiledExchange
        self.patch(compiled, "__init__", "fastorbit.compile")
        if "_table" in compiled.__dict__:       # lazily built integer tables
            self.patch(compiled, "_table", "fastorbit.table")
        self.patch(compiled, "code_orbit", "fastorbit.code_orbit", steps)
        self.patch(fastorbit.BaseExchangeOrbit, "run", "fastorbit.base_run",
                   base_steps)
        self.patch(birkhoff, "record_maxima", "birkhoff.record_maxima", terms)
        self.patch(words, "iterate_language", "words.iterate_language")
        for owner in (render, cli):
            self.patch(owner, "serialize_exchange", "render.serialize", nbytes)
            self.patch(owner, "exchange_svg", "render.svg", nbytes)
        self.patch(scenarios, "derive_constraints", "scenarios.derive")
        self.patch(scenarios, "detect_dependence", "scenarios.detect")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _child_time(spans: list[Span], idx: int, name: str) -> float:
    return sum(s.dur for s in spans if s.parent == idx and s.name == name)


def layer_metrics(spans: list[Span], rounds: int, deep_level: int) -> dict:
    """Per-round counts and times, and rates, from the recorded spans."""
    by: dict[str, list[tuple[int, Span]]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append((i, s))

    def total(name: str, key: str | None = None) -> float:
        return sum(s.info[key] if key else s.dur for _, s in by.get(name, []))

    def count(name: str) -> int:
        return len(by.get(name, []))

    def rate(work: float, secs: float) -> float:
        return work / secs if secs > 0 else 0.0

    inter = ("geometry.intersect", "refine.intersect")
    m = {
        "geometry.intersect_calls": sum(count(n) for n in inter) / rounds,
        "geometry.intersect_s": sum(total(n) for n in inter) / rounds,
        "geometry.subtract_calls": count("geometry.subtract") / rounds,
        "geometry.subtract_s": total("geometry.subtract") / rounds,
        "geometry.strip_pairs": sum(total(n, "pairs") for n in
                                    inter + ("geometry.subtract",)) / rounds,
        "exchange.renormalize_s": total("exchange.renormalize") / rounds,
        "exchange.checks_s": total("exchange.checks") / rounds,
        "exchange.top_strips": max((s.info["strips"] for _, s in
                                    by.get("exchange.renormalize", [])),
                                   default=0),
        "refine.preimage_s": total("refine.preimage") / rounds,
        "refine.intersect_s": total("refine.intersect") / rounds,
        "refine.cells": total("refine.chain", "cells") / rounds,
        "refine.kept_ratio": rate(total("refine.chain", "kept"),
                                  count("refine.intersect")),
        "fastorbit.compile_calls": count("fastorbit.compile") / rounds,
        "fastorbit.compile_s": (total("fastorbit.compile")
                                + total("fastorbit.table")) / rounds,
        "birkhoff.terms_per_s": rate(total("birkhoff.record_maxima", "terms"),
                                     total("birkhoff.record_maxima")),
        "words.iterate_s": total("words.iterate_language") / rounds,
        "render.serialize_s": (total("render.serialize")
                               + total("render.svg")) / rounds,
        "render.bytes": (total("render.serialize", "bytes")
                         + total("render.svg", "bytes")) / rounds,
        "scenarios.relation_s": (total("scenarios.derive")
                                 + total("scenarios.detect")) / rounds,
        "scenarios.count": count("scenarios.detect") / rounds,
    }
    # stepping rates exclude the lazily built integer tables
    for key, level in (("fastorbit.steps_per_s", 1),
                       ("fastorbit.deep_steps_per_s", deep_level)):
        work = secs = 0.0
        for i, s in by.get("fastorbit.code_orbit", []):
            if s.info["level"] == level:
                work += s.info["steps"]
                secs += s.dur - _child_time(spans, i, "fastorbit.table")
        m[key] = rate(work, secs)
    m["fastorbit.base_steps_per_s"] = rate(total("fastorbit.base_run", "steps"),
                                           total("fastorbit.base_run"))
    return m


def top_exchange(spans: list[Span]):
    """The deepest exchange any traced renormalize returned, if any."""
    best = None
    for s in spans:
        if s.name == "exchange.renormalize":
            e = s.info["exchange"]
            if best is None or e.level > best.level:
                best = e
    return best


def field_rates(exchange, iterations: int = 4000) -> tuple[float, int]:
    """mul+add+sign per second on the exchange's coefficients, and their
    largest numerator or denominator in bits."""
    coeffs = []
    for piece in exchange.pieces:
        for s in piece.region.strips:
            coeffs.extend((s.x_lo, s.x_hi, s.lower.c1, s.lower.c0,
                           s.upper.c1, s.upper.c0))
    bits = max(max(abs(v.numerator).bit_length(), v.denominator.bit_length())
               for q in coeffs for v in (q.a, q.b))
    coeffs = coeffs[:512]
    n = len(coeffs)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(iterations):
            a, b = coeffs[i % n], coeffs[(7 * i + 3) % n]
            (a * b + a).sign()
        times.append(time.perf_counter() - t0)
    return 3 * iterations / median(times), bits
