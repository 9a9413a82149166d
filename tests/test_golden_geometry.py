"""Golden digest of the package's exact geometry output.

The file tests/data/geometry_digest.txt holds sha256 digests of the
renormalization tower (levels 1..9) and of the refinement cells of
levels 1..5 down to depth M + 1, M = F(N+2) - 1.  Every strip enters
with its x-ends, the scaled integer triples (A, B, D) of both bounds'
coefficients and its four closedness flags, so any change to what
geometry computes, its strip order included, changes a digest.

Regenerate the file (only for an intended change of output) with

    PYTHONPATH=src python tests/test_golden_geometry.py > tests/data/geometry_digest.txt

and print the lines behind each digest, to diff two versions, with

    PYTHONPATH=src python tests/test_golden_geometry.py --lines
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Iterator

from phiplane.exchange import exchange_tower
from phiplane.refine import refinement_chain

DATA = Path(__file__).parent / "data" / "geometry_digest.txt"


def _strip_line(s) -> str:
    parts = [s.x_lo.scaled(), s.x_hi.scaled()]
    for b in (s.lower, s.upper):
        parts += [b.c2.scaled(), b.c1.scaled(), b.c0.scaled()]
    flags = (s.lo_closed, s.hi_closed, s.lower_closed, s.upper_closed)
    return " ".join(",".join(map(str, t)) for t in parts) \
        + " " + "".join("1" if f else "0" for f in flags)


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _tower_lines(tower):
    for n, E in enumerate(tower, start=1):
        for p in E.pieces:
            yield f"level {n} piece {p.label} shift {p.shift}"
            yield from map(_strip_line, p.region.strips)


def _cell_lines(tower):
    fib = [0, 1]
    while len(fib) < 10:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 6):
        horizon = fib[n + 2] - 1
        chain = refinement_chain(tower[n - 1], horizon + 1)
        for depth, cells in enumerate(chain, start=1):
            for c in cells:
                yield f"level {n} depth {depth} word {c.word}"
                yield from map(_strip_line, c.region.strips)


def geometry_lines() -> dict[str, Iterator[str]]:
    tower = exchange_tower(9)
    return {"tower_levels_1_9": _tower_lines(tower),
            "refinement_cells_levels_1_5": _cell_lines(tower)}


def geometry_digests() -> dict[str, str]:
    return {name: _sha(lines) for name, lines in geometry_lines().items()}


def _read_golden() -> dict[str, str]:
    return dict(line.split() for line in DATA.read_text().splitlines()
                if line.strip())


def test_geometry_output_matches_golden_digest():
    assert geometry_digests() == _read_golden()


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        for name, lines in geometry_lines().items():
            for line in lines:
                print(name, line)
    else:
        for name, digest in geometry_digests().items():
            print(name, digest)
