import pytest
from hypothesis import given, settings, strategies as st

from phiplane.words import (EPSILON, FIBONACCI, TRIBONACCI, Language,
                            Substitution, WordError, certified_complexity,
                            factors, fibonacci_language,
                            fibonacci_word, iterate_chain, iterate_language,
                            iterate_step, tribonacci_word)


def test_factors():
    w = (1, 2, 1, 1)
    assert factors(w, 1) == {(1,), (2,)}
    assert factors(w, 2) == {(1, 2), (2, 1), (1, 1)}
    assert factors(w, 4) == {w}
    assert factors(w, 5) == set()
    assert factors(w, 0) == {EPSILON}
    with pytest.raises(WordError):
        factors(w, -1)


def test_substitution_application():
    assert FIBONACCI((1, 2)) == (1, 2, 1)
    assert TRIBONACCI((3, 1)) == (1, 1, 2)
    with pytest.raises(WordError):
        FIBONACCI((1, 3))
    with pytest.raises(WordError):
        Substitution({1: ()})


def test_fibonacci_word_prefix():
    assert fibonacci_word(13) == (1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 1, 2)


def test_fibonacci_word_is_substitution_fixed_point():
    w = fibonacci_word(233)
    assert FIBONACCI(w)[:233] == w


def test_length_three_factors():
    assert factors(fibonacci_word(500), 3) == {
        (1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 1, 2)}


def test_complexity_values():
    w = fibonacci_word(2000)
    for n in range(1, 21):
        assert len(factors(w, n)) == n + 1
    t = tribonacci_word(3000)
    for n in range(1, 16):
        assert len(factors(t, n)) == 2 * n + 1


def test_certified_complexity():
    assert certified_complexity(fibonacci_word, 12) == 13
    assert certified_complexity(tribonacci_word, 12) == 25


def test_language_closure():
    lang = Language.from_words([(1, 2, 1)], 2, 3)
    assert (2, 1) in lang
    assert (1,) in lang and EPSILON in lang
    assert (2, 2) not in lang
    assert lang.complexity(2) == 2
    with pytest.raises(WordError):
        lang.slice(4)
    with pytest.raises(WordError):
        Language.from_words([(1, 5)], 2, 3)


def _naive_closure(words, max_len):
    # every factor of every length, sliced out of every word
    out = set()
    for w in words:
        for n in range(min(len(w), max_len) + 1):
            out |= factors(w, n)
    return out | {EPSILON}


def _lost_slices(lang, words, max_len):
    # the lengths whose slice differs from the naive closure's
    naive = _naive_closure(words, max_len)
    return [n for n in range(max_len + 1)
            if lang.slice(n) != {w for w in naive if len(w) == n}]


@st.composite
def _word_sets(draw):
    m = draw(st.integers(1, 3))
    max_len = draw(st.integers(0, 7))
    word = st.lists(st.integers(1, m), max_size=max_len + 4).map(tuple)
    words = draw(st.lists(word, max_size=6))
    if words:   # duplicates
        words += draw(st.lists(st.sampled_from(words), max_size=3))
    words.insert(draw(st.integers(0, len(words))), EPSILON)
    return m, max_len, words


@settings(max_examples=200, deadline=None)
@given(case=_word_sets(), bad=st.integers(4, 9))
def test_closure_matches_naive(case, bad):
    m, max_len, words = case
    lang = Language.from_words(words, m, max_len)
    assert _lost_slices(lang, words, max_len) == []
    assert Language.from_words(iter(words), m, max_len) == lang
    with pytest.raises(WordError, match=f"symbol {bad} outside"):
        Language.from_words(words + [(1, bad)], max(m, 2), max_len)


def test_closure_oracle_sees_a_lost_word():
    # planted: a slice that lost one word must fail the comparison
    words = [fibonacci_word(30), (2, 2), (1,)]
    lang = Language.from_words(words, 2, 6)
    assert _lost_slices(lang, words, 6) == []
    for n in (1, 3, 6):
        lost = min(lang.slice(n))
        planted = Language(2, 6, lang.words - {lost})
        assert _lost_slices(planted, words, 6) == [n]


def test_full_language():
    lang = Language.full(2, 4)
    assert lang.complexity(4) == 16
    assert lang.complexity(0) == 1


def test_full_language_rejects_huge_sizes():
    # the guard fires before any word is built
    for m, max_len in ((2, 21), (3, 13), (2, 64)):
        with pytest.raises(WordError, match="exceeds"):
            Language.full(m, max_len)


def test_iterate_monotone_chains():
    cap = 10
    target = fibonacci_language(cap)
    up = Language.from_words([(1,), (2,)], 2, cap)
    chain = iterate_chain(up, 12, cap)
    for a, b in zip(chain, chain[1:]):
        assert a.words <= b.words
    assert any(c.words == target.words for c in chain)

    down = Language.full(2, cap)
    chain = iterate_chain(down, 8, cap)
    for a, b in zip(chain, chain[1:]):
        assert b.words <= a.words
    assert chain[-1].words == target.words


def test_iterate_language_matches_steps():
    lang = Language.from_words([(1,), (2,)], 2, 8)
    two = iterate_step(iterate_step(lang, FIBONACCI, 8), FIBONACCI, 8)
    assert iterate_language(lang, 2, 8).words == two.words


def test_converged():
    fib = fibonacci_language(8)
    longer = fibonacci_language(10)
    assert all(fib.slice(n) == longer.slice(n) for n in range(9))
    assert Language.full(2, 8).slice(2) != fib.slice(2)
    with pytest.raises(WordError):
        fib.slice(9)


def test_export_deterministic():
    lang = Language.from_words([(2, 1, 1)], 2, 3)
    assert lang.export() == lang.export()
    assert lang.export().splitlines()[0] == "-"
