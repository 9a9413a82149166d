"""Words, factorial languages, factor complexity and substitutions.

Words are plain tuples of symbols from {1..m}.  Languages are explicit
finite sets of words with a hard length cap: every check in this
package is desk-scale and exactness beats compactness.

`Language.from_words` builds the factorial closure from the top down:
a word gives only its factors of the top length, one slice per position
rather than one per position and length, and each length gives the
one-symbol prefixes and suffixes of its words, two inserts per word, to
the length below.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

Word = tuple[int, ...]

EPSILON: Word = ()


class WordError(ValueError):
    """Alphabet mismatch, a length beyond a language's cap or a language
    too large to build."""


FULL_LIMIT = 2 ** 20    # most words `Language.full` builds at its top length


def factors(w: Word, n: int) -> set[Word]:
    """All contiguous length-n subwords of w."""
    if n < 0:
        raise WordError("factor length must be >= 0")
    if n == 0:
        return {EPSILON}
    return {w[i:i + n] for i in range(len(w) - n + 1)}


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

    def fixed_point_prefix(self, length: int) -> Word:
        """Prefix of the fixed point starting from the symbol 1."""
        if length < 1:
            raise WordError("length must be >= 1")
        w: Word = (1,)
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
        """Factorial closure of `words`, truncated to max_len.

        Each word adds only its factors of length min(|w|, max_len); then
        every length k, from the longest present down, gives u[1:] and
        u[:-1] of each of its words to length k - 1.  This is the whole
        closure: a factor of length k - 1 of a word longer than that is a
        prefix or a suffix of one of its length-k factors.
        """
        alphabet = frozenset(range(1, m + 1))
        slices: defaultdict[int, set[Word]] = defaultdict(set, {0: {EPSILON}})
        for w in words:
            if not alphabet.issuperset(w):
                s = next(s for s in w if s not in alphabet)
                raise WordError(f"symbol {s} outside alphabet 1..{m}")
            k = min(len(w), max_len)
            slices[k] |= factors(w, k)
        for k in range(max(slices), 1, -1):
            below = slices[k - 1]
            for u in slices[k]:
                below.add(u[1:])
                below.add(u[:-1])
        return cls(m, max_len, frozenset().union(*slices.values()))

    @classmethod
    def full(cls, m: int, max_len: int) -> "Language":
        """Every word over {1..m} of length <= max_len.

        Raises WordError, before anything is allocated, when the top
        length would hold more than FULL_LIMIT words.
        """
        # m**21 > FULL_LIMIT for every m >= 2, so the power stays small
        if m ** min(max_len, FULL_LIMIT.bit_length()) > FULL_LIMIT:
            raise WordError(f"the full language over {m} symbols up to "
                            f"length {max_len} exceeds {FULL_LIMIT} words "
                            "at its top length")
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

    def export(self) -> str:
        """Sorted newline-separated word list, symbols as digits."""
        ws = sorted(self.words, key=lambda w: (len(w), w))
        return "\n".join("".join(str(s) for s in w) or "-" for w in ws)


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


def iterate_language(lang: Language, n_steps: int, max_len: int) -> Language:
    """L_N of the Fibonacci iteration from `lang`, truncated at max_len."""
    return iterate_chain(lang, n_steps, max_len)[-1]


def iterate_chain(lang: Language, n_steps: int,
                  max_len: int) -> list[Language]:
    """The whole Fibonacci iteration chain [L_0, ..., L_N], truncated at
    max_len."""
    chain = [Language.from_words(lang.words, lang.m, max_len)]
    for _ in range(n_steps):
        chain.append(iterate_step(chain[-1], FIBONACCI, max_len))
    return chain


def fibonacci_language(max_len: int) -> Language:
    """Factorial language of the Fibonacci word, up to max_len."""
    w = fibonacci_word(max(40 * max_len, 400))
    return Language.from_words([w], 2, max_len)
