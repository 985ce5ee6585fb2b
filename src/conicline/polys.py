"""Exact polynomials in x and y: ``CurvePoly``, its text syntax and
``format_poly``.  No numpy: the numerics are in ``conicline.tracker``.
"""

import math
import re
from fractions import Fraction

from .errors import ConiclineError, ParseError

# The largest exponent of a power, and the largest degree a power or a
# product may give: a power is expanded one multiplication at a time, and
# the tracker holds every power of x up to the degree at each sample.  Far
# above the y^3 - x^200 and the 10^400 of the tests, and checked before a
# power or a product is expanded.
MAX_DEGREE = 1000

# The most pairs of terms that one product may multiply, checked before
# it is expanded: expanding a power of a dense base takes time cubic in its
# exponent ((x+y+1)^150 has 11476 terms), and the tracker loops over the
# terms in Python.  Far above the 63 of the benchmark's curves and the
# 3267 of the random expressions of the tests.
MAX_PRODUCT_TERMS = 10000


class CurvePoly:
    """A polynomial in x and y with exact rational coefficients."""

    def __init__(self, coeffs):
        # coeffs: {(i, j): Fraction} for x^i y^j
        self.coeffs = {k: Fraction(v) for k, v in coeffs.items() if v != 0}
        self.degy = max((j for _, j in self.coeffs), default=0)
        self.degx = max((i for i, _ in self.coeffs), default=0)
        # the terms as (power of x, power of y, complex coefficient)
        try:
            self.terms = [(i, j, complex(c))
                          for (i, j), c in self.coeffs.items()]
        except OverflowError:
            raise ConiclineError("a coefficient is beyond the float "
                                 "range") from None

    @classmethod
    def parse(cls, text):
        return cls(_parse_poly(text))

    def __repr__(self):
        return f"CurvePoly({format_poly(self)!r})"

    def derivative_y(self):
        return CurvePoly({(i, j - 1): c * j
                          for (i, j), c in self.coeffs.items() if j})


# -- polynomial text syntax ------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+|[-+*/^()xy])|(\S))")


def _tokenize(text):
    out = []
    for tok, bad in _TOKEN.findall(text):
        if bad:
            raise ParseError(f"unexpected character {bad!r} in polynomial")
        out.append(tok)
    return out


class _PolyParser:
    """Recursive descent over the tokens.  A polynomial is ``(nums, d)``:
    ``{(i, j): integer numerator}`` of the coefficients of ``x^i y^j``
    over one common denominator ``d``, with no zero numerator, so the
    arithmetic is on integers and ``Fraction``s are made once, by
    ``_parse_poly``."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        p = self.term()
        if sign < 0:
            p = _negate(p)
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = _add(p, _negate(q) if op == "-" else q)
        return p

    def term(self):
        p = self.factor()
        while True:
            if self.peek() == "*":
                self.take()
                p = _mul(p, self.factor())
            elif self.peek() == "/":
                self.take()
                tok = self.take()
                if tok is None or not tok.isdigit() or int(tok) == 0:
                    raise ParseError("division only by nonzero integers")
                p = p[0], p[1] * int(tok)
            elif self.peek() in ("(", "x", "y") or (
                    self.peek() or "").isdigit():
                p = _mul(p, self.factor())
            else:
                return p

    def factor(self):
        if self.peek() == "-":   # applies after "^", as a leading sign does
            self.take()
            return _negate(self.factor())
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            exp = int(tok)
            degree = _degree(base[0])
            if exp * max(degree, 1) > MAX_DEGREE:
                raise ParseError(f"exponent {exp} on a base of degree "
                                 f"{degree}: a power's exponent and degree "
                                 f"must be at most {MAX_DEGREE}")
            result = {(0, 0): 1}, 1
            for _ in range(exp):
                result = _mul(result, base)
            return result
        return base

    def atom(self):
        tok = self.take()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return p
        if tok == "x":
            return {(1, 0): 1}, 1
        if tok == "y":
            return {(0, 1): 1}, 1
        if tok is not None and tok.isdigit():
            c = int(tok)
            return ({(0, 0): c} if c else {}), 1
        raise ParseError(f"unexpected token {tok!r} in polynomial")


def _negate(p):
    return {k: -v for k, v in p[0].items()}, p[1]


def _add(p, q):
    (a, da), (b, db) = p, q
    d = math.lcm(da, db)
    out = {k: v * (d // da) for k, v in a.items()}
    for k, v in b.items():
        out[k] = out.get(k, 0) + v * (d // db)
    return {k: v for k, v in out.items() if v}, d


def _degree(nums):
    return max(map(sum, nums), default=0)


def _mul(p, q):
    (a, da), (b, db) = p, q
    if len(a) * len(b) > MAX_PRODUCT_TERMS:
        raise ParseError(f"a product of {len(a)} by {len(b)} terms: a "
                         f"product may multiply at most "
                         f"{MAX_PRODUCT_TERMS} pairs of terms")
    degree = _degree(a) + _degree(b)
    if degree > MAX_DEGREE:
        raise ParseError(f"a product of degree {degree}: a product's "
                         f"degree must be at most {MAX_DEGREE}")
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}, da * db


def _parse_poly(text):
    try:
        nums, d = _PolyParser(_tokenize(text)).parse()
    except RecursionError:
        # the parser recurses once per bracket or sign: refuse deep nesting
        # as malformed text rather than crash
        raise ParseError("polynomial nested too deeply") from None
    if not nums:
        raise ParseError("zero polynomial")
    return {k: Fraction(v, d) for k, v in nums.items()}


def format_poly(p):
    terms = []
    for (i, j) in sorted(p.coeffs, key=lambda k: (-k[1], -k[0])):
        c = p.coeffs[(i, j)]
        body = ""
        if i:
            body += "x" if i == 1 else f"x^{i}"
        if j:
            body += ("*" if body else "") + ("y" if j == 1 else f"y^{j}")
        if not body:
            terms.append(str(c))
        elif c == 1:
            terms.append(body)
        elif c == -1:
            terms.append(f"-{body}")
        else:
            terms.append(f"{c}*{body}")
    return " + ".join(terms).replace("+ -", "- ")
