"""The expression parser against Python's own arithmetic on Fractions."""

import random
import re
from fractions import Fraction

import pytest

from diffcech.errors import ParseError
from diffcech.coeff import Scalar
from diffcech.exprs import _degree, mul_terms, parse_poly_terms

A = Fraction(7, 3)
X = (Fraction(-2, 5), Fraction(3, 2))


def _atom(rng, const_only):
    names = ["a"] if const_only else ["a", "x0", "x1", "x"]
    if rng.random() < 0.5:
        return rng.choice(names)
    return str(rng.randint(0, 12))


def _expr(rng, depth, const_only=False):
    """Random text in + - * / ^; divisors and negative-power bases are
    parenthesized and built from integers and a only."""
    if depth == 0 or rng.random() < 0.25:
        return _atom(rng, const_only)
    sub = _expr(rng, depth - 1, const_only)
    r = rng.random()
    if r < 0.3:
        op = rng.choice([" + ", " - "])
        return sub + op + _expr(rng, depth - 1, const_only)
    if r < 0.5:
        return sub + " * " + _expr(rng, depth - 1, const_only)
    if r < 0.62:
        return sub + " / (" + _expr(rng, depth - 1, True) + ")"
    if r < 0.74:
        return f"({sub})^{rng.randint(0, 3)}"
    if r < 0.82:
        base = _expr(rng, depth - 1, True)
        return f"({base})^-{rng.randint(1, 3)}"
    if r < 0.9:
        return "-" + (sub if re.fullmatch(r"\w+", sub) else f"({sub})")
    return f"({sub})"


def _value(terms):
    total = Fraction(0)
    for e, c in terms.items():
        num = sum(k * A ** i for i, k in enumerate(c.num))
        den = sum(k * A ** i for i, k in enumerate(c.den))
        v = num / den
        for x, k in zip(X, e):
            v *= x ** k
        total += v
    return total


def _python_value(text):
    code = re.sub(r"(?<![\w])(\d+)", r"F(\1)", text.replace("^", "**"))
    scope = {"F": Fraction, "a": A, "x": X[0], "x0": X[0], "x1": X[1]}
    return eval(code, {"__builtins__": {}}, scope)


def test_parse_matches_fraction_arithmetic():
    rng = random.Random(2024)
    checked = 0
    for _ in range(500):
        text = _expr(rng, 4)
        try:
            expected = _python_value(text)
        except ZeroDivisionError:
            continue
        assert _value(parse_poly_terms(text, 2)) == expected, text
        checked += 1
    assert checked > 400


@pytest.mark.parametrize("text", ["1/0", "x0/0", "0^-1", "(a-a)^-2", "0/0"])
def test_zero_divisor_is_a_parse_error(text):
    with pytest.raises(ParseError, match="division by zero"):
        parse_poly_terms(text, 2)


def _power_base(rng, nvars, const):
    """Text of one to three integer multiples of a, 1 and the variables, or
    of their products in pairs."""
    atoms = ["a", "1"] + ([] if const else [f"x{i}" for i in range(nvars)])
    factors = [rng.choice(atoms) if rng.random() < 0.7
               else f"{rng.choice(atoms)}*{rng.choice(atoms)}"
               for _ in range(rng.randint(1, 3))]
    return " + ".join(f"{rng.choice([-3, -2, -1, 1, 2, 5])}*{f}"
                      for f in factors)


@pytest.mark.parametrize("nvars", [0, 1, 2])
def test_power_matches_successive_multiplication(nvars):
    # base^k and base^-k against k successive products, for every exponent
    # the degree limit admits on some bases and for seeded ones on the rest
    rng = random.Random(1200 + nvars)
    one = {(0,) * nvars: Scalar.of(1)}
    for case in range(16):
        negative = case % 4 == 3
        text = _power_base(rng, nvars, negative)
        base = parse_poly_terms(text, nvars)
        if negative:
            if not base:
                continue
            base = {(0,) * nvars: 1 / base[(0,) * nvars]}
        top = 64 // max(_degree(base), 1)
        exponents = (range(top + 1) if case < 2 else
                     sorted({0, 1, 2, top, *rng.sample(range(top + 1), 5)}))
        power, k = one, 0
        for e in exponents:
            while k < e:
                power, k = mul_terms(power, base), k + 1
            sign = "-" if negative else ""
            assert parse_poly_terms(f"({text})^{sign}{e}", nvars) == power, (
                text, sign, e)
