"""Factor complexity of exchange codings by exact partition refinement.

A depth-n cell is the set of points sharing one length-n coding prefix.
Cells are built by prepending a symbol: the cell of i.u is the piece of
i intersected with the preimage of the cell of u.  Preimages act on
strips exactly and keep the leading coefficient, so every depth stays
inside one quadratic family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .exchange import PieceExchange, region_image
from .field import QPhi, ZERO
from .geometry import Region, region_intersect
from .words import Language, Word


@dataclass(frozen=True)
class Cell:
    """A positive-area coding cell."""

    word: Word
    region: Region
    cell_area: QPhi


def preimage(exchange: PieceExchange, label: int, region: Region) -> Region:
    """Preimage of a region under the branch acting on piece `label`.

    The branch is p -> T(p) - (n, m) for the base shear
    T(x, y) = (x + a, y + b + k x); its inverse (x, y) -> T^-1(x + n, y + m)
    is the shear by u = n - a, v = m - b - k u with slope -k.
    """
    n, m = exchange.piece(label).shift
    base = exchange.base
    u = n - base.alpha
    v = m - base.beta - base.k * u
    return region_image(region, u, v, -base.k)


def _depths(exchange: PieceExchange) -> Iterator[list[Cell]]:
    """Positive-area cells at depth 1, 2, ..., each sorted by word."""
    cells = [Cell((p.label,), p.region, a)
             for p in exchange.pieces if (a := p.region.area()) > ZERO]
    while True:
        cells.sort(key=lambda c: c.word)
        yield cells
        nxt: list[Cell] = []
        for piece in exchange.pieces:
            for c in cells:
                r = region_intersect(piece.region,
                                     preimage(exchange, piece.label, c.region))
                a = r.area()
                if a > ZERO:
                    nxt.append(Cell((piece.label,) + c.word, r, a))
        cells = nxt


def refinement_chain(exchange: PieceExchange, max_n: int) -> list[list[Cell]]:
    """Cells at every depth 1..max_n, each depth built from the previous one."""
    if max_n < 1:
        raise ValueError("depth must be >= 1")
    return list(islice(_depths(exchange), max_n))


def refine(exchange: PieceExchange, n: int) -> list[Cell]:
    """All positive-area depth-n cells, in word lexicographic order."""
    return refinement_chain(exchange, n)[-1]


def max_cell_area(cells: list[Cell]) -> QPhi:
    return max(c.cell_area for c in cells)


def complexity_table(exchange: PieceExchange, max_n: int) -> list[tuple[int, int]]:
    """Rows (n, p(n)) where p counts positive-area depth-n cells."""
    return [(n + 1, len(cells))
            for n, cells in enumerate(refinement_chain(exchange, max_n))]


def language_from_refinement(exchange: PieceExchange, max_n: int) -> Language:
    """Factorial language of the coding, words up to length max_n."""
    m = max(p.label for p in exchange.pieces)
    words: set[Word] = set()
    for cells in refinement_chain(exchange, max_n):
        words.update(c.word for c in cells)
    return Language.from_words(words, m, max_n)


def matching_horizon(exchange: PieceExchange, cap: int = 12) -> int:
    """Largest M <= cap with p(k) = k+1 for every k = 1..M (0 if none).

    Refinement stops at the first depth whose count differs from k+1.
    """
    m = 0
    for k, cells in enumerate(islice(_depths(exchange), cap), start=1):
        if len(cells) != k + 1:
            break
        m = k
    return m


def three_distance_gaps(alpha: QPhi, n: int) -> list[QPhi]:
    """Sorted gaps of the circle partition by {0, {alpha}, ..., {n*alpha}}.

    Independent one-dimensional oracle: the largest gap bounds the
    marginal extent of any depth-(n+1) coding cell of the rotation.
    """
    pts = [QPhi(0)]
    x = QPhi(0)
    for _ in range(n):
        x = (x + alpha).frac()
        pts.append(x)
    pts = sorted(set(pts))
    gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
    gaps.append(QPhi(1) - pts[-1])
    return sorted(gaps)
