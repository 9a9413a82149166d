"""Words, factorial languages, factor complexity and substitutions.

Words are plain tuples of symbols from {1..m}.  Languages are explicit
finite sets of words with a hard length cap: every check in this
package is desk-scale and exactness beats compactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

Word = tuple[int, ...]

EPSILON: Word = ()


class WordError(ValueError):
    """Alphabet mismatch or a length beyond a language's cap."""


def factors(w: Word, n: int) -> set[Word]:
    """All contiguous length-n subwords of w."""
    if n < 0:
        raise WordError("factor length must be >= 0")
    if n == 0:
        return {EPSILON}
    return {w[i:i + n] for i in range(len(w) - n + 1)}


def all_factors(w: Word, max_len: int) -> set[Word]:
    out: set[Word] = {EPSILON}
    for n in range(1, max_len + 1):
        out |= factors(w, n)
    return out


@dataclass(frozen=True)
class Substitution:
    """A non-erasing substitution, one image word per symbol."""

    images: dict[int, Word]

    def __post_init__(self) -> None:
        for s, img in self.images.items():
            if len(img) == 0:
                raise WordError(f"empty image for symbol {s}")

    def __call__(self, w: Word) -> Word:
        try:
            out: list[int] = []
            for s in w:
                out.extend(self.images[s])
            return tuple(out)
        except KeyError as e:
            raise WordError(f"symbol {e.args[0]} outside substitution alphabet")

    def fixed_point_prefix(self, length: int, seed: int = 1) -> Word:
        """Prefix of the fixed point starting from `seed`."""
        if length < 1:
            raise WordError("length must be >= 1")
        w: Word = (seed,)
        while len(w) < length:
            w = self(w)
        return w[:length]


FIBONACCI = Substitution({1: (1, 2), 2: (1,)})
TRIBONACCI = Substitution({1: (1, 2), 2: (1, 3), 3: (1,)})


def fibonacci_word(length: int) -> Word:
    return FIBONACCI.fixed_point_prefix(length)


def tribonacci_word(length: int) -> Word:
    return TRIBONACCI.fixed_point_prefix(length)


@dataclass(frozen=True)
class Language:
    """A factorial set of words of length <= max_len over {1..m}."""

    m: int
    max_len: int
    words: frozenset[Word] = field(default_factory=frozenset)

    @classmethod
    def from_words(cls, words: Iterable[Word], m: int, max_len: int) -> "Language":
        """Factorial closure of `words`, truncated to max_len."""
        closed: set[Word] = {EPSILON}
        for w in words:
            for s in w:
                if not 1 <= s <= m:
                    raise WordError(f"symbol {s} outside alphabet 1..{m}")
            for n in range(1, min(len(w), max_len) + 1):
                closed |= factors(w, n)
        return cls(m, max_len, frozenset(closed))

    @classmethod
    def full(cls, m: int, max_len: int) -> "Language":
        words: list[Word] = [EPSILON]
        level: list[Word] = [EPSILON]
        for _ in range(max_len):
            level = [w + (s,) for w in level for s in range(1, m + 1)]
            words.extend(level)
        return cls(m, max_len, frozenset(words))

    def slice(self, n: int) -> frozenset[Word]:
        if n > self.max_len:
            raise WordError(f"length {n} beyond cap {self.max_len}")
        return frozenset(w for w in self.words if len(w) == n)

    def complexity(self, n: int) -> int:
        return len(self.slice(n))

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def __le__(self, other: "Language") -> bool:
        return self.words <= other.words

    def export(self) -> str:
        """Sorted newline-separated word list, symbols as digits."""
        ws = sorted(self.words, key=lambda w: (len(w), w))
        return "\n".join("".join(str(s) for s in w) or "-" for w in ws)


def complexity(x: "Language | Word", n: int) -> int:
    """Number of distinct length-n members (language) or factors (word)."""
    if isinstance(x, Language):
        return x.complexity(n)
    return len(factors(x, n))


def certified_complexity(prefix_builder: Callable[[int], Word], n: int) -> int:
    """Factor count at length n, certified stable under prefix doubling."""
    base = max(200 + 10 * n, 4 * n)
    c1 = len(factors(prefix_builder(base), n))
    c2 = len(factors(prefix_builder(2 * base), n))
    if c1 != c2:
        raise WordError(f"factor count at n={n} not stable under doubling")
    return c2


def iterate_step(lang: Language, sub: Substitution, max_len: int) -> Language:
    """One application of L -> factorial-closure(sub(L)), truncated."""
    images = (sub(w) for w in lang.words)
    return Language.from_words(images, lang.m, max_len)


def iterate_language(lang: Language, n_steps: int, max_len: int,
                     sub: Substitution = FIBONACCI) -> Language:
    cur = Language.from_words(lang.words, lang.m, max_len)
    for _ in range(n_steps):
        cur = iterate_step(cur, sub, max_len)
    return cur


def iterate_chain(lang: Language, n_steps: int, max_len: int,
                  sub: Substitution = FIBONACCI) -> list[Language]:
    """The whole iteration chain [L_0, ..., L_N], truncated at max_len."""
    chain = [Language.from_words(lang.words, lang.m, max_len)]
    for _ in range(n_steps):
        chain.append(iterate_step(chain[-1], sub, max_len))
    return chain


def converged(lang: Language, target: Language, m: int) -> bool:
    """True iff the length-<=m slices of both languages coincide."""
    if lang.max_len < m or target.max_len < m:
        raise WordError("cap below comparison length")
    for n in range(m + 1):
        if lang.slice(n) != target.slice(n):
            return False
    return True


def fibonacci_language(max_len: int) -> Language:
    """Factorial language of the Fibonacci word, up to max_len."""
    w = fibonacci_word(max(40 * max_len, 400))
    return Language.from_words([w], 2, max_len)


def complexity_csv(rows: Iterable[tuple[int, int]]) -> str:
    lines = ["n,p_n"]
    lines.extend(f"{n},{p}" for n, p in rows)
    return "\n".join(lines)
