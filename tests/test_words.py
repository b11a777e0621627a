import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabase import (EQ, GT, LT, DigitString, PairDigit, WordFormatError,
                      alt_compare, alt_sort_key, complement_digits,
                      complement_pairs, format_word, lex_compare,
                      pair_sort_key, parse_word, psi_expand, psi_inverse)


class TestCanonical:
    def test_remark_identity(self):
        # 11(01)^omega and 1(10)^omega spell the same sequence
        assert DigitString((1, 1), (0, 1)) == DigitString((1,), (1, 0))

    def test_primitive_period(self):
        assert DigitString((), (1, 0, 1, 0)).period == (1, 0)

        def shortest_root(per):   # the least d dividing n with per d-periodic
            n = len(per)
            return next(per[:d] for d in range(1, n + 1)
                        if n % d == 0 and all(per[i] == per[i % d] for i in range(n)))

        words = [w for n in range(1, 13) for w in itertools.product((0, 1), repeat=n)]
        rng = random.Random(33)
        pairs = [PairDigit(b, a) for b in range(3) for a in range(3)]
        for _ in range(300):   # a seeded root repeated, sometimes with one letter changed
            root = [rng.choice(pairs) for _ in range(rng.randint(1, 12))]
            word = root * rng.randint(1, 60 // len(root))
            if rng.random() < 0.3:
                word[rng.randrange(len(word))] = rng.choice(pairs)
            words.append(tuple(word))
        for per in words:
            assert DigitString((), per).period == shortest_root(per), per

    def test_preperiod_absorption(self):
        w = DigitString((1, 0, 0), (0,))
        assert w.preperiod == (1,)
        assert w.period == (0,)

    def test_finite_untouched(self):
        w = DigitString.finite((1, 1, 0, 0))
        assert w.preperiod == (1, 1, 0, 0) and w.is_finite

    def test_digit_at(self):
        w = DigitString((1,), (0, 0, 1, 1, 1, 0))
        assert [w.digit_at(i) for i in range(8)] == [1, 0, 0, 1, 1, 1, 0, 0]

    def test_prefix_and_shift(self):
        w = DigitString((1,), (1, 0))
        assert w.prefix(5) == (1, 1, 0, 1, 0)
        assert w.shift(1) == DigitString((), (1, 0))
        assert w.shift(4) == DigitString((), (0, 1))

    def test_negative_positions_raise(self):
        w = DigitString((1, 2, 3), (4, 5))
        for read, n in ((w.shift, -1), (w.prefix, -2), (w.digit_at, -1)):
            with pytest.raises(IndexError):
                read(n)
        assert w.prefix(0) == () and w.shift(0) == w and w.digit_at(0) == 1

    def test_absorption_is_the_letter_by_letter_rule(self):
        def absorbed(pre, per):   # one letter at a time, rotating the period each time
            while pre and pre[-1] == per[-1]:
                pre, per = pre[:-1], (per[-1],) + per[:-1]
            return pre, per

        rng = random.Random(34)
        for _ in range(3000):
            k = rng.randint(1, 3)
            per = tuple(rng.randrange(k) for _ in range(rng.randint(1, 6)))
            pre = tuple(rng.randrange(k) for _ in range(rng.randint(0, 6)))
            pre += (per * 4)[rng.randint(0, 4 * len(per)):]
            w = DigitString(pre, per)
            assert (w.preperiod, w.period) == absorbed(pre, DigitString((), per).period)
        w = DigitString((2,) + (1, 0) * 40_000, (1, 0))
        assert (w.preperiod, w.period) == ((2,), (1, 0))

    def test_periodic_requires_period(self):
        with pytest.raises(ValueError):
            DigitString.periodic((1,), ())


class TestOrders:
    def test_alt_example(self):
        u = DigitString((1,), (0,))    # 1 0^omega
        v = DigitString((0, 1), (0,))  # 0 1 0^omega
        assert alt_compare(u, v) == LT

    def test_reflexive(self):
        u = DigitString((1, 0), (1, 1, 0))
        assert alt_compare(u, u) == EQ
        assert lex_compare(u, u) == EQ

    def test_three_expansions_of_minus_half(self):
        lazy = DigitString((1,), (0, 0, 1, 1, 1, 0))
        is_ = DigitString((), (1, 0, 0))
        greedy = DigitString((), (1, 1, 1, 0, 0, 0))
        assert alt_compare(lazy, is_) == LT
        assert alt_compare(is_, greedy) == LT
        assert alt_compare(lazy, greedy) == LT

    def test_lex_vs_alt_on_first_digit(self):
        u = DigitString((), (0,))
        v = DigitString((), (1,))
        assert lex_compare(u, v) == LT
        assert alt_compare(u, v) == GT   # odd position reverses

    def test_finite_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_compare(DigitString.finite((1,)), DigitString.finite((1, 0)))

    def test_finite_vs_infinite(self):
        with pytest.raises(ValueError):
            alt_compare(DigitString.finite((1,)), DigitString((), (1,)))

    def test_alt_sort_key_matches_alt_compare(self):
        import itertools

        words = [w for n in (1, 2, 3) for w in itertools.product((0, 1, 2), repeat=n)]
        for n in (1, 2, 3):
            same = [w for w in words if len(w) == n]
            by_key = sorted(same, key=alt_sort_key)
            for a, b in zip(by_key, by_key[1:]):
                assert alt_compare(DigitString.finite(a), DigitString.finite(b)) == LT


class TestPairs:
    def test_pair_order(self):
        pairs = [PairDigit(b, a) for b in (0, 1) for a in (0, 1)]
        pairs.sort(key=pair_sort_key)
        assert pairs == [PairDigit(1, 0), PairDigit(1, 1),
                         PairDigit(0, 0), PairDigit(0, 1)]

    def test_psi_expand_basic(self):
        w = DigitString((), (PairDigit(1, 1), PairDigit(1, 0), PairDigit(0, 0)))
        assert psi_expand(w) == DigitString((), (1, 1, 1, 0, 0, 0))

    def test_psi_empty(self):
        assert psi_expand(DigitString.finite(())) == DigitString.finite(())

    def test_psi_round_trip_finite(self):
        w = DigitString.finite((PairDigit(0, 1), PairDigit(1, 0)))
        assert psi_inverse(psi_expand(w)) == w

    def test_psi_inverse_odd_finite(self):
        with pytest.raises(ValueError):
            psi_inverse(DigitString.finite((1, 0, 1)))

    def test_psi_inverse_realign(self):
        # 1(10)^omega regroups as the pair word 11 01 01 ... = B D^omega
        w = DigitString((1,), (1, 0))
        assert psi_inverse(w) == DigitString((PairDigit(1, 1),), (PairDigit(0, 1),))

    def test_psi_inverse_odd_period(self):
        w = DigitString((), (1, 0, 0))
        pairs = psi_inverse(w)
        assert psi_expand(pairs) == w

    def test_psi_three_letter_cycle(self):
        # (C D B)^omega expands to (00 01 11)^omega
        w = DigitString((), (PairDigit(0, 0), PairDigit(0, 1), PairDigit(1, 1)))
        assert psi_expand(w) == DigitString((), (0, 0, 0, 1, 1, 1))


class TestComplement:
    def test_simple(self):
        w = DigitString((), (1, 0))
        assert complement_digits(w, 1) == DigitString((), (0, 1))

    def test_involution(self):
        w = DigitString((2, 0), (1, 2, 0))
        assert complement_digits(complement_digits(w, 2), 2) == w

    def test_pair_complement(self):
        w = DigitString((), (PairDigit(1, 0),))
        assert complement_pairs(w, 1) == DigitString((), (PairDigit(0, 1),))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            complement_digits(DigitString.finite((3,)), 2)


class TestTextFormat:
    def test_format_examples(self):
        assert format_word(DigitString((1,), (0, 0, 1, 1, 1, 0))) == "1(001110)"
        assert format_word(DigitString.finite((0, 1, 1))) == "011"
        assert format_word(DigitString((), (PairDigit(1, 1), PairDigit(0, 0)))) == "(1:1.0:0)"

    def test_parse_round_trip(self):
        for text in ("1(001110)", "(100)", "0110", "(10)"):
            assert format_word(parse_word(text)) == text

    def test_parse_pair(self):
        w = parse_word("1:1.0:0", pair=True)
        assert w == DigitString.finite((PairDigit(1, 1), PairDigit(0, 0)))
        w = parse_word("1:0(0:1.1:1)", pair=True)
        assert w.preperiod == (PairDigit(1, 0),)

    def test_parse_comma_digits(self):
        w = parse_word("10,2(11,0)")
        assert w.preperiod == (10, 2) and w.period == (11, 0)
        assert format_word(w) == "10,2(11,0)"

    def test_parse_canonicalizes(self):
        assert format_word(parse_word("11(01)")) == "1(10)"

    def test_parse_errors(self):
        for bad in ("1(=", "1((0))", "1:2"):
            with pytest.raises(WordFormatError):
                parse_word(bad)
        with pytest.raises(WordFormatError):
            parse_word("abc")
        with pytest.raises(WordFormatError):
            parse_word("1()", pair=False)


digit_lists = st.lists(st.integers(min_value=0, max_value=3), max_size=6)


@settings(max_examples=80, deadline=None)
@given(digit_lists, st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5))
def test_canonicalization_preserves_digits(pre, per):
    w = DigitString(tuple(pre), tuple(per))
    for i in range(len(pre) + 3 * len(per)):
        expected = pre[i] if i < len(pre) else per[(i - len(pre)) % len(per)]
        assert w.digit_at(i) == expected


@settings(max_examples=80, deadline=None)
@given(digit_lists, st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=12))
def test_shift_consistent_with_digit_at(pre, per, k):
    w = DigitString(tuple(pre), tuple(per))
    s = w.shift(k)
    for i in range(6):
        assert s.digit_at(i) == w.digit_at(k + i)


@settings(max_examples=80, deadline=None)
@given(digit_lists, st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=4))
def test_spellings_of_same_stream_compare_equal(pre, per, k):
    pre, per = tuple(pre), tuple(per)
    w = DigitString(pre, per)
    unrolled = DigitString(pre + per[:k], per[k:] + per[:k])
    assert unrolled == w
    assert alt_compare(w, unrolled) == EQ


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(st.integers(min_value=0, max_value=2), max_size=3),
                          st.lists(st.integers(min_value=0, max_value=2),
                                   min_size=1, max_size=3)),
                min_size=3, max_size=3))
def test_alt_order_transitive(words):
    u, v, w = (DigitString(tuple(p), tuple(q)) for p, q in words)
    if alt_compare(u, v) <= 0 and alt_compare(v, w) <= 0:
        assert alt_compare(u, w) <= 0
