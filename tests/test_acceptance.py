"""Acceptance gate: every top-level criterion, one pass/fail line each."""

import time

import pytest

from phiplane.acceptance import CRITERIA


@pytest.mark.parametrize("name,check", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, check):
    start = time.monotonic()
    ok, detail = check()
    elapsed = time.monotonic() - start
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s)")
    assert ok, f"{name}: {detail}"


def test_criterion6_fails_on_a_dropped_cell(monkeypatch):
    # the collapse law can fail: drop one cell at depth M+1 = 5 of level 3
    from phiplane import acceptance
    real = acceptance.refinement_chain

    def planted(exchange, max_n):
        chain = real(exchange, max_n)
        if exchange.level == 3:
            chain[4] = chain[4][1:]
        return chain
    monkeypatch.setattr(acceptance, "refinement_chain", planted)
    ok, detail = acceptance.check_theorem2_desk_scale()
    assert not ok
    assert detail.startswith("level 3:")
