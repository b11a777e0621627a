"""Digit strings, the lexicographic and alternate orders, and the pair morphism.

A DigitString is either a finite word (empty period) or an eventually
periodic infinite word u v^omega, stored canonically: the period is
primitive and the preperiod is as short as possible, so two strings
compare equal exactly when they denote the same digit sequence.

Digits are plain ints for words over {0, ..., floor(beta)} and PairDigit
tuples (b, a), standing for the value -b*beta + a, for words over the
two-digit-at-a-time alphabet of the squared-base system.
"""

from collections import namedtuple
from functools import partial
from itertools import chain, cycle, islice
from math import lcm
from operator import attrgetter

LT, EQ, GT = -1, 0, 1

_set = object.__setattr__


class _Record:
    """An immutable record, as a frozen dataclass is, without generating a
    class: the fields named in `_fields` (two or more) are slots, or
    properties whose setter the constructor calls (Violation's lazy factor),
    set once by the constructor (positionally or by name, the last ones from
    `_defaults`), and compared, hashed and printed in that order.  A record
    whose class sets `__dataclass_fields__ = _dataclass_fields` also passes
    for a dataclass once something asks."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        # the tuple of field values, read in C: _values(record)
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if not kwargs and len(args) == len(names):
            for name, value in zip(names, args):
                _set(self, name, value)
            return
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or len(values) != len(names) \
                or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name in names:
            _set(self, name, values[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _DataclassFields:
    """The `__dataclass_fields__` of a record, built on first read: those of
    a frozen dataclass with the record's fields and defaults, cached on the
    class with its `__dataclass_params__`.  dataclasses.replace, fields,
    asdict and is_dataclass then accept the record, while importing the
    package does not import dataclasses."""

    def __get__(self, record, cls):
        import dataclasses
        specs = [(name, object, cls._defaults[name]) if name in cls._defaults
                 else (name, object) for name in cls._fields]
        made = dataclasses.make_dataclass(cls.__name__, specs, frozen=True)
        cls.__dataclass_params__ = made.__dataclass_params__
        cls.__dataclass_fields__ = made.__dataclass_fields__
        return made.__dataclass_fields__


_dataclass_fields = _DataclassFields()


class PairDigit(namedtuple("PairDigit", "b a")):
    """One squared-base digit -b*beta + a, printed as the two-letter word 'b a'."""

    __slots__ = ()

    def letters(self):
        return (self.b, self.a)

    def text(self):
        return f"{self.b}:{self.a}"


# a PairDigit from a (b, a) tuple, without the Python-level constructor
_pair_digit = partial(tuple.__new__, PairDigit)


def pair_sort_key(p):
    """Sort key realizing the value order -b*beta + a (equally, the
    alternate order on the two-letter words 'ba')."""
    return (-p[0], p[1])


def _primitive_period(per):
    n = len(per)
    for d in range(1, n // 2 + 1):   # a proper period divides n, so d <= n/2
        if n % d == 0 and per[:d] * (n // d) == per:
            return per[:d]
    return per


def _require_natural(i):
    if i < 0:
        raise IndexError(f"negative position {i}")


class DigitString(_Record):
    """Canonical finite or eventually periodic word: preperiod + period."""

    __slots__ = _fields = ("preperiod", "period")

    def __init__(self, preperiod=(), period=()):
        pre = tuple(preperiod)
        per = tuple(period)
        if per:
            per = _primitive_period(per)
            if pre and pre[-1] == per[-1]:
                # the k last letters of pre that repeat the period read backwards
                # cyclically are absorbed into it: one cut and one rotation by k
                p, k = len(per), 1
                while k < len(pre) and pre[~k] == per[~(k % p)]:
                    k += 1
                pre, j = pre[:len(pre) - k], -k % p
                per = per[j:] + per[:j]
        _set(self, "preperiod", pre)
        _set(self, "period", per)

    @classmethod
    def _of_orbit(cls, pre, per, pairs=False):
        """The word of the tuples pre per^omega where an orbit closed at its
        first repeat, each step one letter (two with `pairs`), on a scheme
        whose states are fixed by the digits after them (Scheme._closes): the
        repeat gives the shortest preperiod and period in steps, so a word of
        one letter per step is canonical.  Of two, only a period of half the
        letters (an odd number of steps) or a preperiod one letter short can
        be shorter, and only those are tested.  Without `pairs` the tuples
        are taken as they stand, as the golden check takes a word realigned
        to pairs."""
        if pairs and per:
            n = len(per) // 2
            if n % 2 and per[:n] == per[n:]:
                per = per[:n]
            if pre and pre[-1] == per[-1]:
                pre, per = pre[:-1], per[-1:] + per[:-1]
        word = cls.__new__(cls)
        _set(word, "preperiod", pre)
        _set(word, "period", per)
        return word

    @classmethod
    def finite(cls, digits):
        return cls(tuple(digits), ())

    @classmethod
    def periodic(cls, preperiod, period):
        if not tuple(period):
            raise ValueError("periodic word needs a nonempty period")
        return cls(tuple(preperiod), tuple(period))

    @property
    def is_finite(self):
        return not self.period

    def __bool__(self):
        return True

    def __len__(self):
        if not self.is_finite:
            raise ValueError("infinite word has no length")
        return len(self.preperiod)

    def digit_at(self, i):
        """Digit at 0-based position i."""
        _require_natural(i)
        if i < len(self.preperiod):
            return self.preperiod[i]
        if not self.period:
            raise IndexError(i)
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n):
        """First n digits as a tuple (raises for a too-short finite word)."""
        _require_natural(n)
        if self.is_finite and n > len(self.preperiod):
            raise IndexError("prefix longer than the finite word")
        return tuple(islice(chain(self.preperiod, cycle(self.period)), n))

    def shift(self, k):
        """The word with its first k digits removed."""
        _require_natural(k)
        pre, per = self.preperiod, self.period
        if k <= len(pre):
            return DigitString(pre[k:], per)
        if not per:
            raise IndexError("shift past the end of a finite word")
        j = (k - len(pre)) % len(per)
        return DigitString((), per[j:] + per[:j])

    def map_digits(self, f):
        return DigitString(tuple(f(d) for d in self.preperiod),
                           tuple(f(d) for d in self.period))

    def __str__(self):
        return format_word(self)


def _code(word, rank=None):
    """A word as (digits, index where the period starts), each digit mapped
    by the function rank if given.  A finite word (or an orbit prefix with
    no period found) gets its length as the index."""
    digits = word.preperiod + word.period
    if rank is not None:
        digits = tuple(map(rank, digits))
    return digits, len(word.preperiod)


def _compare_tail(word, k, bound, alternate=False):
    """-1, 0 or 1 as the tail of a coded word from 0-based position k is below,
    equal to or above a coded bound, in the lexicographic order or the
    alternate one (odd positions of the tail compare reversed).  None when a
    finite word or bound runs out before the two differ."""
    w, w_loop = word
    b, b_loop = bound
    nw, nb = len(w), len(b)
    # once both are inside their periods, one common period decides; when
    # one of them is finite, it runs out first
    period = lcm(nw - w_loop, nb - b_loop)
    steps = max(w_loop - k, 0) + b_loop + period if period else nw + nb
    i, j = k, 0
    for n in range(steps):
        if i == nw:
            i = w_loop
        if j == nb:
            j = b_loop
        if i == nw or j == nb:
            return None
        if w[i] != b[j]:
            below = w[i] < b[j]
            if alternate and n % 2 == 0:
                below = not below
            return LT if below else GT
        i += 1
        j += 1
    return EQ if period else None


def _comparable(u, v):
    """The coded operands of a comparison: two infinite words, or two
    finite words of one length, which the tail rule reads to the end
    (None) exactly when they are equal."""
    if not isinstance(u, DigitString) or not isinstance(v, DigitString):
        raise TypeError("compare expects DigitString operands")
    if u.is_finite != v.is_finite:
        raise ValueError("cannot compare a finite word with an infinite one")
    if u.is_finite and len(u) != len(v):
        raise ValueError("finite words of different lengths are incomparable")
    return _code(u), _code(v)


def lex_compare(u, v):
    """Lexicographic comparison; finite words must have equal length."""
    u, v = _comparable(u, v)
    return _compare_tail(u, 0, v) or EQ


def alt_compare(u, v):
    """Alternate-order comparison: the digit at 1-based position k counts
    with sign (-1)^k, so odd positions compare reversed."""
    u, v = _comparable(u, v)
    return _compare_tail(u, 0, v, alternate=True) or EQ


def alt_sort_key(word):
    """Key tuple whose lexicographic order equals the alternate order on
    equal-length finite int-digit words."""
    return tuple(-d if i % 2 == 0 else d for i, d in enumerate(word))


def complement_digits(word, floor_beta):
    """Digitwise map d -> floor(beta) - d on an int-digit string."""
    m = floor_beta
    for d in word.preperiod + word.period:
        if not 0 <= d <= m:
            raise ValueError(f"digit {d} outside 0..{m}")
    return word.map_digits(lambda d: m - d)


def complement_pairs(word, floor_beta):
    """Digitwise complement on pair digits: (b, a) -> (m - b, m - a)."""
    m = floor_beta
    for p in word.preperiod + word.period:
        if not (0 <= p[0] <= m and 0 <= p[1] <= m):
            raise ValueError(f"pair digit {p} outside the alphabet")
    return word.map_digits(lambda p: PairDigit(m - p[0], m - p[1]))


# -- the pair morphism -------------------------------------------------------

def _letters(pairs):
    """The pair digits (b, a) read as the letters b, a, in one tuple."""
    return tuple(chain.from_iterable(pairs))


def psi_expand(word):
    """Expand each pair digit (b, a) into the two letters b, a."""
    return DigitString(_letters(word.preperiod), _letters(word.period))


def psi_inverse(word):
    """Group an int-digit string into pair digits; finite words must have
    even length, periodic words are realigned as needed."""
    pre, per = word.preperiod, word.period
    if not per:
        if len(pre) % 2:
            raise ValueError("cannot pair up a finite word of odd length")
    else:
        if len(pre) % 2:
            pre = pre + (per[0],)
            per = per[1:] + per[:1]
        if len(per) % 2:
            per = per + per

    def pairs(part):
        return tuple(map(_pair_digit, zip(part[::2], part[1::2])))

    return DigitString(pairs(pre), pairs(per))


# -- text format ---------------------------------------------------------------

def _format_run(digits, pair, wide):
    if pair:
        return ".".join(p.text() if isinstance(p, PairDigit) else f"{p[0]}:{p[1]}"
                        for p in digits)
    if wide:
        return ",".join(str(d) for d in digits)
    return "".join(str(d) for d in digits)


def format_word(word, pair=None):
    """Render `pre(per)` meaning pre followed by per repeated forever.

    Int digits print as contiguous characters while every digit of the
    word fits in one character, else comma-separated throughout.
    """
    sample = (word.preperiod + word.period)
    if pair is None:
        pair = bool(sample) and isinstance(sample[0], (PairDigit, tuple))
    wide = not pair and any(d > 9 for d in sample)
    pre = _format_run(word.preperiod, pair, wide)
    if word.is_finite:
        return pre
    return f"{pre}({_format_run(word.period, pair, wide)})"


class WordFormatError(ValueError):
    pass


def _parse_run(text, pair):
    text = text.strip()
    if not text:
        return ()
    if pair:
        out = []
        for tok in text.split("."):
            parts = tok.split(":")
            if len(parts) != 2:
                raise WordFormatError(f"bad pair token {tok!r}; expected b:a")
            try:
                out.append(PairDigit(int(parts[0]), int(parts[1])))
            except ValueError:
                raise WordFormatError(f"bad pair token {tok!r}") from None
        return tuple(out)
    if "," in text:
        toks = text.split(",")
    else:
        toks = list(text)
    try:
        digits = tuple(int(t) for t in toks)
    except ValueError:
        raise WordFormatError(f"bad digit in {text!r}") from None
    if any(d < 0 for d in digits):
        raise WordFormatError("digits must be nonnegative")
    return digits


def parse_word(text, pair=False):
    """Parse the `pre(per)` digit word format (int digits or b:a pairs)."""
    text = text.strip()
    if text.count("(") != text.count(")") or text.count("(") > 1:
        raise WordFormatError(f"malformed word {text!r}")
    if "(" in text:
        head, rest = text.split("(", 1)
        if not rest.endswith(")"):
            raise WordFormatError(f"malformed word {text!r}")
        body = rest[:-1]
        head = head.rstrip(".,")
        per = _parse_run(body, pair)
        if not per:
            raise WordFormatError("empty period")
        return DigitString(_parse_run(head, pair), per)
    return DigitString(_parse_run(text, pair), ())
