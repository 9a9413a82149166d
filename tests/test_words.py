import pytest

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


def test_full_language():
    lang = Language.full(2, 4)
    assert lang.complexity(4) == 16
    assert lang.complexity(0) == 1


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
