"""The expression parser against Python's own arithmetic on Fractions."""

import random
import re
from fractions import Fraction

import pytest

from diffcech.errors import ParseError
from diffcech.exprs import parse_poly_terms

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
