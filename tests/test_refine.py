import pytest

from phiplane.exchange import (build_base_exchange,
                               build_translation_exchange, exchange_tower,
                               sample_points)
from phiplane.field import ONE, QPhi, ZERO, phi_power
from phiplane.geometry import region_intersect
from phiplane.refine import (Cell, chain_language, complexity_table, preimage,
                             refinement_chain)
from phiplane.words import factors


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


@pytest.fixture(scope="module")
def base():
    return build_base_exchange()


@pytest.fixture(scope="module")
def translation():
    return build_translation_exchange(phi_power(-2), phi_power(-3))


def test_depth_one_cells_are_pieces(base):
    cells = refinement_chain(base, 1)[-1]
    assert [c.word for c in cells] == [(1,), (2,)]
    assert cells[0].cell_area == phi_power(-1)
    assert cells[1].cell_area == phi_power(-2)


def test_depth_rejects_nonpositive(base):
    with pytest.raises(ValueError):
        refinement_chain(base, 0)


def test_cell_areas_partition_domain(base):
    for cells in refinement_chain(base, 5):
        total = sum((c.cell_area for c in cells), ZERO)
        assert total == ONE     # the domain's area
        assert all(c.cell_area > ZERO for c in cells)


def _unfiltered_chain(exchange, max_n):
    # the refinement loop without the language filter: every piece meets
    # every cell of the previous depth
    cells = [Cell((p.label,), p.region, p.region.area())
             for p in exchange.pieces if p.region.area() > ZERO]
    chain = [sorted(cells, key=lambda c: c.word)]
    while len(chain) < max_n:
        cells = []
        for piece in exchange.pieces:
            for c in chain[-1]:
                r = region_intersect(piece.region,
                                     preimage(exchange, piece.label, c.region))
                if r.area() > ZERO:
                    cells.append(Cell((piece.label,) + c.word, r, r.area()))
        chain.append(sorted(cells, key=lambda c: c.word))
    return chain


@pytest.mark.parametrize("which, depth",
                         [("level1", 10), ("level3", 6), ("translation", 6)])
def test_filter_keeps_every_cell(which, depth, base, translation):
    # words, strips and areas equal the unfiltered loop's at every depth
    E = (exchange_tower(3)[-1] if which == "level3"
         else {"level1": base, "translation": translation}[which])

    def cells(chain):
        return [[(c.word, c.region.strips, c.cell_area) for c in depth_cells]
                for depth_cells in chain]
    assert cells(refinement_chain(E, depth)) == \
        cells(_unfiltered_chain(E, depth))


def test_refine_matches_chain(base):
    # a longer chain starts with the shorter one: callers slice chains
    def words(chain):
        return [[c.word for c in cells] for cells in chain]
    assert words(refinement_chain(base, 4)[:3]) == \
        words(refinement_chain(base, 3))


def test_cell_words_cover_orbit_factors(base):
    # every factor observed along long orbits must be a positive-area cell
    depth = 6
    words = {c.word for c in refinement_chain(base, depth)[-1]}
    for p in sample_points(base, 5, seed=21):
        code = base.compiled.code_orbit(p, 4000)
        assert factors(code, depth) <= words


def test_translation_complexity_is_square(translation):
    table = complexity_table(translation, 4)
    assert table == [(n, (n + 1) ** 2) for n in range(1, 5)]


def _horizon(chain):
    # the matching horizon read off a chain: the largest m with p(k) = k+1
    # for every k <= m
    m = 0
    while m < len(chain) and len(chain[m]) == m + 2:
        m += 1
    return m


def test_matching_horizon_along_tower():
    # M(N) = F_{N+2} - 1: p(k) = k+1 for k <= M, then p(M+1) = M+3
    tower = exchange_tower(5)
    for E, m in zip(tower[:4], [1, 2, 4, 7]):
        counts = [len(cells) for cells in refinement_chain(E, m + 1)]
        assert counts == [k + 1 for k in range(1, m + 1)] + [m + 3]
    assert _horizon(refinement_chain(tower[4], 12)) == 12


def test_horizon_chain_serves_horizon_and_language():
    # one chain gives the horizon and the language at every depth it holds
    def words(chain):
        return [[c.word for c in cells] for cells in chain]
    for E, want in zip(exchange_tower(4), [1, 2, 4, 7]):
        chain = refinement_chain(E, max(6, want + 1))
        assert _horizon(chain) == want
        assert words(chain[:want + 1]) == \
            words(refinement_chain(E, want + 1))
        lang = chain_language(E, chain)
        for n, cells in enumerate(chain, start=1):
            assert lang.complexity(n) == len(cells)


def test_chain_language_consistent(base):
    chain = refinement_chain(base, 4)
    lang = chain_language(base, chain)
    for n, cells in enumerate(chain, start=1):
        assert lang.complexity(n) == len(cells)
    assert lang.complexity(0) == 1


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("which", ["level1", "level4", "translation"])
def test_preimage_is_exact(which, depth, base, translation):
    # p maps into a cell under the branch of its piece iff p lies in the
    # preimage of that cell under that branch
    E = (exchange_tower(4)[-1] if which == "level4"
         else {"level1": base, "translation": translation}[which])
    steps = [(p, *E.step(p)) for p in sample_points(E, 40, seed=5)]
    for cell in refinement_chain(E, depth)[-1]:
        pre = {piece.label: preimage(E, piece.label, cell.region)
               for piece in E.pieces}
        for p, label, q in steps:
            assert cell.region.contains(q.x, q.y) == \
                pre[label].contains(p.x, p.y)


def test_max_cell_area_decreases(base):
    areas = [max(c.cell_area for c in cells)
             for cells in refinement_chain(base, 5)]
    for a, b in zip(areas, areas[1:]):
        assert b <= a
    assert areas[-1] < areas[0]


def test_three_distance_gaps():
    alpha = phi_power(-2)
    for n in (3, 5, 8, 13):
        gaps = three_distance_gaps(alpha, n)
        assert len(gaps) == n + 1
        assert sum(gaps, ZERO) == ONE
        assert len(set(gaps)) <= 3


def test_three_distance_bounds_translation_cells(translation):
    # a depth-(n+1) cell is contained in a gap-rectangle of both rotations
    n = 3
    gx = three_distance_gaps(phi_power(-2), n)[-1]
    gy = three_distance_gaps(phi_power(-3), n)[-1]
    cells = refinement_chain(translation, n + 1)[-1]
    assert max(c.cell_area for c in cells) <= gx * gy
