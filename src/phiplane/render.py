"""Exchange serialization and deterministic SVG rendering.

The text format is exact: every field element appears as the four
integers a_num/a_den/b_num/b_den of a + b*phi.  SVG output converts to
floats at the last moment and only for drawing.

Format, one record per line:
    exchange <kind> <level> <piece_count>
    alpha <4 ints>            (translation bases only)
    beta <4 ints>
    piece <label> <n> <m> <strip_count>
    strip <flags> <x_lo: 4> <x_hi: 4> <lower: 12> <upper: 12>
where flags is four 0/1 digits (lo, hi, lower, upper closedness) and a
quadratic bound lists c2, c1, c0.
"""

from __future__ import annotations

from .exchange import T_PHI, Piece, PieceExchange, translation
from .field import QPhi, sgn_affine
from .geometry import QuadBound, Region, Strip


def _q(x: QPhi) -> str:
    return " ".join(str(v) for v in x.to_ints())


def _bound(b: QuadBound) -> str:
    return f"{_q(b.c2)} {_q(b.c1)} {_q(b.c0)}"


def serialize_exchange(exchange: PieceExchange) -> str:
    """The exchange as text; its base must be T_phi or a translation."""
    base = exchange.base
    head = f"{exchange.level} {len(exchange.pieces)}"
    if base == T_PHI:
        lines = [f"exchange T_phi {head}"]
    elif base == translation(base.u, base.q.c0):
        lines = [f"exchange translation {head}", f"alpha {_q(base.u)}",
                 f"beta {_q(base.q.c0)}"]
    else:
        raise ValueError("only T_phi and translation bases serialize")
    for p in exchange.pieces:
        lines.append(f"piece {p.label} {p.shift[0]} {p.shift[1]} "
                     f"{len(p.region.strips)}")
        for s in p.region.strips:
            flags = "".join(str(int(f)) for f in
                            (s.lo_closed, s.hi_closed,
                             s.lower_closed, s.upper_closed))
            lines.append(f"strip {flags} {_q(s.x_lo)} {_q(s.x_hi)} "
                         f"{_bound(s.lower)} {_bound(s.upper)}")
    return "\n".join(lines) + "\n"


class ParseError(ValueError):
    """Malformed exchange text; the message names the 1-based line."""


# fields after the tag of each record
_WIDTH = {"exchange": 3, "alpha": 4, "beta": 4, "piece": 4, "strip": 33}


def parse_exchange(text: str) -> PieceExchange:
    lines = text.splitlines()
    records = [(n, line.split()) for n, line in enumerate(lines, start=1)
               if line.strip()]
    records.reverse()

    def take(tag: str) -> tuple[int, list[str]]:
        if not records:
            raise ParseError(f"line {len(lines) + 1}: missing {tag} record")
        n, tokens = records.pop()
        if tokens[0] != tag:
            raise ParseError(f"line {n}: expected a {tag!r} record,"
                             f" got {tokens[0]!r}")
        if len(tokens) != 1 + _WIDTH[tag]:
            raise ParseError(f"line {n}: {tag!r} record has {_WIDTH[tag]}"
                             f" fields, got {len(tokens) - 1}")
        return n, tokens[1:]

    def ints(n: int, tokens: list[str]) -> list[int]:
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"line {n}: non-integer token") from None

    def qphis(n: int, tokens: list[str]) -> list[QPhi]:
        v = ints(n, tokens)
        if not all(v[1::2]):
            raise ParseError(f"line {n}: zero denominator")
        return [QPhi.from_ints(v[i:i + 4]) for i in range(0, len(v), 4)]

    n, (kind, *head) = take("exchange")
    level, count = ints(n, head)
    if level < 1:
        raise ParseError(f"line {n}: level must be at least 1")
    if count < 0:
        raise ParseError(f"line {n}: negative piece count")
    if kind == "T_phi":
        base = T_PHI
    elif kind == "translation":
        alpha, = qphis(*take("alpha"))
        beta, = qphis(*take("beta"))
        base = translation(alpha, beta)
    else:
        raise ParseError(f"line {n}: unknown base kind {kind!r}")
    pieces = []
    for _ in range(count):
        n, tokens = take("piece")
        label, dx, dy, strip_count = ints(n, tokens)
        if any(p.label == label for p in pieces):
            raise ParseError(f"line {n}: repeated piece label {label}")
        if strip_count < 0:
            raise ParseError(f"line {n}: negative strip count")
        strips = []
        for _ in range(strip_count):
            n, (flags, *vals) = take("strip")
            if len(flags) != 4 or set(flags) - {"0", "1"}:
                raise ParseError(f"line {n}: flags must be four 0/1 digits")
            q = qphis(n, vals)
            if q[2] != q[5]:
                raise ParseError(f"line {n}: strip bounds do not share c2")
            if q[0] >= q[1]:
                raise ParseError(f"line {n}: strip needs x_lo < x_hi")
            # upper - lower is affine: negative somewhere iff at an end
            if any(sgn_affine(q[6] - q[3], q[7] - q[4], x) < 0 for x in q[:2]):
                raise ParseError(f"line {n}: strip upper bound lies below"
                                 " its lower bound")
            strips.append(Strip(q[0], q[1],
                                QuadBound(q[2], q[3], q[4]),
                                QuadBound(q[5], q[6], q[7]),
                                *(c == "1" for c in flags)))
        pieces.append(Piece(label, Region(tuple(strips)), (dx, dy)))
    if records:
        raise ParseError(f"line {records[-1][0]}: extra record")
    return PieceExchange(base, tuple(pieces), level)


_COLORS = ("#4878a8", "#c8583a", "#58a868", "#9868a8",
           "#b8a038", "#38a8a0", "#a84878", "#787878")
_SVG_WIDTH = 640        # pixels
_SVG_SAMPLES = 64       # segments along each strip bound


def exchange_svg(exchange: PieceExchange) -> str:
    """SVG 1.1 picture of the pieces, one filled polygon per strip."""
    # each piece is coloured by its position: a power's labels are words
    strips = [(pos, s) for pos, p in enumerate(exchange.pieces)
              for s in p.region.strips]
    xs: list[float] = []
    ys: list[float] = []
    polys: list[tuple[int, list[tuple[float, float]]]] = []
    for pos, s in strips:
        x_lo, x_hi = float(s.x_lo), float(s.x_hi)
        u2, u1, u0 = float(s.upper.c2), float(s.upper.c1), float(s.upper.c0)
        l2, l1, l0 = float(s.lower.c2), float(s.lower.c1), float(s.lower.c0)
        pts_top = []
        pts_bot = []
        for i in range(_SVG_SAMPLES + 1):
            t = i / _SVG_SAMPLES
            x = x_lo + (x_hi - x_lo) * t
            pts_top.append((x, u2 * x * x + u1 * x + u0))
            pts_bot.append((x, l2 * x * x + l1 * x + l0))
        poly = pts_top + pts_bot[::-1]
        polys.append((pos, poly))
        xs.extend(p[0] for p in poly)
        ys.extend(p[1] for p in poly)
    if not polys:
        return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                'width="1" height="1"/>')
    pad = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    scale = _SVG_WIDTH / (x1 - x0)
    height = int(round((y1 - y0) * scale)) or 1

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return (y1 - y) * scale  # flip: SVG y grows downward

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{_SVG_WIDTH}" height="{height}" '
           f'viewBox="0 0 {_SVG_WIDTH} {height}">']
    for pos, poly in polys:
        color = _COLORS[pos % len(_COLORS)]
        path = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in poly)
        out.append(f'<polygon points="{path}" fill="{color}" '
                   f'fill-opacity="0.75" stroke="#303030" '
                   f'stroke-width="0.6"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
