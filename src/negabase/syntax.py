"""Text syntax for bases and field elements.

Bases: `phi`, `tribonacci`, `root(<integer poly in x>, <lo>, <hi>)` with
constant ends such as `2.7` or `10^7`, or a non-integer rational: `7/4`, `2.8`.

Elements of Q(beta): polynomials in `b` with rational coefficients, e.g.
`-1/2`, `b/2 - 1`, `(b^2-1)/3`.  Implicit multiplication (`2b`) works.
"""

from fractions import Fraction

from . import _polys as P
from .field import (field_from_poly, phi_field, rational_field,
                    tribonacci_field)


class ParseError(ValueError):
    pass


_OPS = set("+-*/^(),")
# powers are expanded by repeated products: larger exponents, degrees and sizes are refused
_MAX_EXPONENT = 100
_MAX_POWER_BITS = 1 << 16


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            raw = text[i:j]
            try:
                tokens.append(("num", Fraction(raw)))
            except ValueError:
                raise ParseError(f"bad number {raw!r}") from None
            i = j
            continue
        if c.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}")
    return tokens


class _PolyParser:
    """Recursive descent over +, -, *, /, ^ with polynomial values."""

    def __init__(self, tokens, var):
        self.tokens = tokens
        self.var = var
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input near {self.peek()[1]!r}")
        return value

    def expr(self):
        acc = self.term()   # a leading sign is factor's
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = P.add(acc, rhs) if val == "+" else P.sub(acc, rhs)
            else:
                return acc

    @staticmethod
    def mul(p, q):
        out = P.mul(p, q)
        if P.degree(out) > _MAX_EXPONENT:
            raise ParseError(f"degree {P.degree(out)} is above {_MAX_EXPONENT}")
        return out

    def term(self):
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                if val == "*":
                    acc = self.mul(acc, rhs)
                else:
                    if P.degree(rhs) > 0:
                        raise ParseError("division by a non-constant expression")
                    if not rhs:
                        raise ParseError("division by zero")
                    acc = P.scale(acc, 1 / rhs[0])
            elif kind == "num" or kind == "name" or (kind == "op" and val == "("):
                acc = self.mul(acc, self.factor())   # implicit multiplication
            else:
                return acc

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner = self.factor()
            return P.neg(inner) if val == "-" else inner
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            ekind, eval_ = self.take()
            if ekind != "num" or eval_.denominator != 1 or eval_ < 0:
                raise ParseError("exponent must be a nonnegative integer")
            if eval_ > _MAX_EXPONENT:
                raise ParseError(f"exponent {eval_} is above {_MAX_EXPONENT}")
            size = max((abs(c.numerator) + c.denominator).bit_length() for c in base or (0,))
            if eval_ * size > _MAX_POWER_BITS:
                raise ParseError(f"a power of about {eval_ * size} bits is above {_MAX_POWER_BITS}")
            out = (Fraction(1),)
            for _ in range(int(eval_)):
                out = self.mul(out, base)
            return out
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return P.trim((val,))
        if kind == "name":
            if val != self.var:
                raise ParseError(f"unknown name {val!r}; the variable is {self.var!r}")
            return (Fraction(0), Fraction(1))
        if kind == "op" and val == "(":
            inner = self.expr()
            kind, val = self.take()
            if kind != "op" or val != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        raise ParseError("unexpected end of input" if kind is None else f"unexpected token {val!r}")


def parse_polynomial(text, var):
    try:
        return _PolyParser(_tokenize(text), var).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


def parse_element(text, ctx):
    """Parse a rational polynomial in `b` as an element of the field."""
    return ctx.from_coeffs(parse_polynomial(text, "b") or (Fraction(0),))


def parse_rational(text):
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational literal {text!r}") from None


def _bracket_end(text):
    # a constant expression such as 10^7, else a rational literal such as 1e5
    try:
        value = parse_polynomial(text, "x")
        if P.degree(value) < 1:
            return value[0] if value else Fraction(0)
    except ParseError:
        pass
    return parse_rational(text)


def _split_root_args(body):
    parts = []
    depth = 0
    current = []
    for c in body:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(c)
    parts.append("".join(current))
    return parts


def parse_base(text):
    """Parse a base descriptor into a field context."""
    text = text.strip()
    if text == "phi":
        return phi_field()
    if text == "tribonacci":
        return tribonacci_field()
    if text.startswith("root(") and text.endswith(")"):
        args = _split_root_args(text[len("root("):-1])
        if len(args) != 3:
            raise ParseError("root(...) takes a polynomial and two rational endpoints")
        coeffs = parse_polynomial(args[0], "x")
        if any(c.denominator != 1 for c in coeffs):
            raise ParseError("root(...) needs an integer-coefficient polynomial")
        lo, hi = _bracket_end(args[1]), _bracket_end(args[2])
        return field_from_poly(tuple(int(c) for c in coeffs), lo, hi)
    q = parse_rational(text)
    return rational_field(q)


def coeff_vector(x):
    """Element serialized as exact rational strings, constant term first."""
    return [str(c) for c in x.coeffs]
