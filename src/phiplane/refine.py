"""Factor complexity of exchange codings by exact partition refinement.

A depth-n cell is the set of points sharing one length-n coding prefix.
Cells are built by prepending a symbol: the cell of i.u is the piece of
i intersected with the preimage of the cell of u.  Preimages act on
strips exactly and keep the leading coefficient, so every depth stays
inside one quadratic family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exchange import PieceExchange
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
    """Preimage of a region under the branch p -> T(p) - (n, m) of piece
    `label`: its image under the branch's inverse."""
    return exchange.branch(label).inverse().image(region)


def refinement_chain(exchange: PieceExchange, max_n: int) -> list[list[Cell]]:
    """Positive-area cells at every depth 1..max_n, each sorted by word.

    The package's one refinement loop: each depth is built from the
    previous one.
    """
    if max_n < 1:
        raise ValueError("depth must be >= 1")
    cells = [Cell((p.label,), p.region, a)
             for p in exchange.pieces if (a := p.region.area()) > ZERO]
    chain = [sorted(cells, key=lambda c: c.word)]
    while len(chain) < max_n:
        cells = []
        for piece in exchange.pieces:
            for c in chain[-1]:
                r = region_intersect(piece.region,
                                     preimage(exchange, piece.label, c.region))
                a = r.area()
                if a > ZERO:
                    cells.append(Cell((piece.label,) + c.word, r, a))
        chain.append(sorted(cells, key=lambda c: c.word))
    return chain


def complexity_table(exchange: PieceExchange, max_n: int) -> list[tuple[int, int]]:
    """Rows (n, p(n)) where p counts positive-area depth-n cells."""
    return [(n + 1, len(cells))
            for n, cells in enumerate(refinement_chain(exchange, max_n))]


def chain_language(exchange: PieceExchange,
                   chain: list[list[Cell]]) -> Language:
    """The language of the words of a refinement chain's cells."""
    m = max(p.label for p in exchange.pieces)
    words = {c.word for cells in chain for c in cells}
    return Language.from_words(words, m, len(chain))


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
