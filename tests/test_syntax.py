import re
from fractions import Fraction

import pytest

from negabase import ParseError, parse_base, parse_element, phi_field, tribonacci_field
from negabase.syntax import coeff_vector, parse_polynomial


class TestParseBase:
    def test_presets(self):
        assert parse_base("phi") == phi_field()
        assert parse_base("tribonacci") == tribonacci_field()

    def test_root_syntax(self):
        ctx = parse_base("root(x^2-x-1, 1, 2)")
        assert ctx == phi_field()
        ctx = parse_base("root(x^2 - 2x - 2, 2.7, 2.8)")
        assert ctx.min_poly == (-2, -2, 1)

    def test_bracket_end_with_a_power(self):
        ctx = parse_base("root(x^2-3, 1, 10^7)")
        assert ctx.isolating_interval == (1, 10 ** 7)
        assert parse_base("root(x^2-3, 3/2^1, 2)").isolating_interval == (Fraction(3, 2), 2)
        # the stripped literal is quoted
        for end in ("10^x", "1/0", "x"):
            with pytest.raises(ParseError, match=f"^bad rational literal '{re.escape(end)}'$"):
                parse_base(f"root(x^2-3, 1, {end})")

    def test_rational_literals(self):
        assert parse_base("7/4").beta().as_fraction() == Fraction(7, 4)
        assert parse_base("2.8").beta().as_fraction() == Fraction(14, 5)

    def test_integer_literal_rejected(self):
        with pytest.raises(ValueError):
            parse_base("3")

    def test_nonsense_rejected(self):
        with pytest.raises(ParseError):
            parse_base("tau")
        with pytest.raises(ParseError):
            parse_base("root(x^2-x-1, 1)")
        with pytest.raises(ParseError):
            parse_base("root(x/2-1, 1, 3)")


class TestParseElement:
    def test_rational(self, phi):
        x = parse_element("-1/2", phi)
        assert x.coeffs == (Fraction(-1, 2), Fraction(0))

    def test_linear(self, phi):
        x = parse_element("b/2 - 1", phi)
        assert x.coeffs == (Fraction(-1), Fraction(1, 2))

    def test_quadratic_reduces(self, phi):
        # (b^2 - 1)/3 with b^2 = b + 1 becomes b/3
        x = parse_element("(b^2-1)/3", phi)
        assert x.coeffs == (Fraction(0), Fraction(1, 3))

    def test_implicit_multiplication(self, phi):
        assert parse_element("2b", phi).coeffs == (Fraction(0), Fraction(2))
        assert parse_element("2(b+1)", phi).coeffs == (Fraction(2), Fraction(2))

    def test_decimal(self, phi):
        assert parse_element("0.25", phi).coeffs == (Fraction(1, 4), Fraction(0))

    def test_unary_minus_and_power(self, mu):
        x = parse_element("-b^2 + b", mu)
        assert x.coeffs == (Fraction(0), Fraction(1), Fraction(-1))

    def test_errors(self, phi):
        for bad in ("b/(b+1)", "c + 1", "1 +", "b^-1", "(b", "2**3"):
            with pytest.raises(ParseError):
                parse_element(bad, phi)

    def test_exponent_cap(self, phi):
        # a power is expanded by repeated products, so the exponent is capped
        assert parse_element("b^100", phi) == phi.beta() ** 100
        with pytest.raises(ParseError):
            parse_element("b^101", phi)


class TestPolynomialParser:
    def test_expansion(self):
        assert parse_polynomial("(x-1)(x+1)", "x") == (Fraction(-1), Fraction(0), Fraction(1))

    def test_constant(self):
        assert parse_polynomial("7/2", "x") == (Fraction(7, 2),)

    def test_zero(self):
        assert parse_polynomial("x - x", "x") == ()

    @pytest.mark.parametrize("text, want", [
        ("-b^2", (0, 0, -1)), ("-2b", (0, -2)), ("- -1", (1,)), ("--b", (0, 1)),
        ("-+b", (0, -1)), ("2*-b", (0, -2)), ("-2*3^2", (-18,)), ("(-b)^2", (0, 0, 1)),
        ("-b/2", (0, Fraction(-1, 2))), ("b--1", (1, 1))])
    def test_signs(self, text, want):
        # one sign rule, the unary sign of a factor, at the start and after an operator
        assert parse_polynomial(text, "b") == tuple(map(Fraction, want))

    @pytest.mark.parametrize("text, message", [
        ("+", "unexpected end of input"), ("-", "unexpected end of input"),
        ("-(", "unexpected end of input"), ("-^2", "unexpected token '^'")])
    def test_sign_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, "b")
        assert str(err.value) == message


def test_coeff_vector(phi):
    assert coeff_vector(parse_element("b/2 - 1", phi)) == ["-1", "1/2"]
