import random
from fractions import Fraction

import pytest

from conicline.errors import ParseError
from conicline.polys import CurvePoly, format_poly


def test_parse_and_format():
    p = CurvePoly.parse("(y+x^2)*(y-x^2)")
    assert p.degy == 2
    q = CurvePoly.parse(format_poly(p))
    assert format_poly(q) == format_poly(p)


def test_parse_rational_coefficients():
    p = CurvePoly.parse("y^2 - 3/4*x")
    assert p.degy == 2


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        CurvePoly.parse("y^^2 - x")


def test_parse_tokens():
    assert CurvePoly.parse(" y ^ 2-3/4 *x  ").coeffs == \
        CurvePoly.parse("y^2 - 3/4*x").coeffs
    # a unary minus applies after "^", as a leading sign does
    for text, same in [("x*-y^2", "-x*y^2"), ("x - -y^2", "x + y^2"),
                       ("(-y)^2", "y^2")]:
        assert CurvePoly.parse(text).coeffs == CurvePoly.parse(same).coeffs
    for text in ("y^2 - x;", "x/0 + y", "y^2 - x/"):
        with pytest.raises(ParseError):
            CurvePoly.parse(text)


# -- the Fraction arithmetic the parser used before integer numerators,
# kept as the reference for the fuzz below --------------------------------

def _ref_add(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def _ref_scale(p, c):
    return {k: v * c for k, v in p.items() if v * c != 0}


def _ref_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _ref_power(p, e):
    out = {(0, 0): Fraction(1)}
    for _ in range(e):
        out = _ref_mul(out, p)
    return out


def _random_factor(rng, depth):
    """``(text, coeffs)`` of a factor: an atom, a power of one, or a unary
    minus before a factor (which applies after ``^``)."""
    roll = rng.random()
    if roll < 0.15:
        text, value = _random_factor(rng, depth)
        return "-" + text, _ref_scale(value, -1)
    if depth > 0 and roll < 0.35:
        text, value = _random_expr(rng, depth - 1)
        text = f"({text})"
    else:
        atom = rng.choice(["x", "y", str(rng.randint(0, 12))])
        text = atom
        value = ({(1, 0): Fraction(1)} if atom == "x" else
                 {(0, 1): Fraction(1)} if atom == "y" else
                 {(0, 0): Fraction(int(atom))})
    if rng.random() < 0.3:
        e = rng.randint(0, 3)
        return f"{text}^{e}", _ref_power(value, e)
    return text, value


def _random_term(rng, depth):
    """``(text, coeffs)`` of a product: factors joined by ``*``, by
    juxtaposition (never before a unary minus) and divided by integers."""
    text, value = _random_factor(rng, depth)
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.3:
            d = rng.randint(1, 30)
            text, value = f"{text}/{d}", _ref_scale(value, Fraction(1, d))
            continue
        other, v = _random_factor(rng, depth)
        if roll < 0.65 or other.startswith("-"):
            text = f"{text}*{other}"
        else:
            text = f"{text} {other}"
        value = _ref_mul(value, v)
    return text, value


def _random_expr(rng, depth):
    """``(text, coeffs)`` of a sum, with leading signs."""
    signs = "".join(rng.choice("+-") for _ in range(rng.choice([0, 0, 1, 2])))
    text, value = _random_term(rng, depth)
    value = _ref_scale(value, (-1) ** signs.count("-"))
    text = signs + text
    for _ in range(rng.randint(0, 3)):
        op = rng.choice("+-")
        other, v = _random_term(rng, depth)
        text = f"{text} {op} {other}"
        value = _ref_add(value, _ref_scale(v, -1 if op == "-" else 1))
    return text, value


def test_parse_equals_fraction_arithmetic():
    rng = random.Random(2510)
    parsed = zero = 0
    for _ in range(3000):
        text, want = _random_expr(rng, 2)
        if not want:
            with pytest.raises(ParseError, match="zero polynomial"):
                CurvePoly.parse(text)
            zero += 1
            continue
        got = CurvePoly.parse(text).coeffs
        assert got == want, text
        assert all(type(c) is Fraction for c in got.values())
        parsed += 1
    assert parsed > 2000 and zero > 20
