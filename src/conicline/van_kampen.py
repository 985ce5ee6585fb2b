"""From braid monodromy factorizations to fundamental group presentations.

A factorization lists one braid per singular fiber, in sweep order.  The
presentation has one generator per strand and, for each factor ``b``,
the relators ``b(x_k) = x_k``; the projective closure adds
``x_n ... x_1 = e``.

Factorizations can be assembled from a table of Lefschetz pairs: row
``j`` contributes the half-twist of its pair transported through the
composition of the previous rows' diffeomorphisms, raised to the row's
degree.  Both text forms describe a factorization and start with a
``strands: n`` header; a table row starts with an integer, a
factorization row with a braid generator.  :func:`parse_sweep` reads
either, and :func:`format_factorization` writes the factorization form.
"""

from dataclasses import dataclass

from . import words
from .braids import (BraidWord, artin_apply, half_twist, parse_braid,
                     format_braid, standard_gbase)
from .errors import BadPair, ParseError, StrandMismatch
from .presentations import Presentation, read_header


@dataclass(frozen=True)
class Factorization:
    strands: int
    factors: tuple

    def __post_init__(self):
        for f in self.factors:
            if f.strands != self.strands:
                raise StrandMismatch("factor strand count differs from "
                                     "factorization")


@dataclass(frozen=True)
class MTRow:
    """One table row: a Lefschetz pair, its degree and diffeomorphism."""

    index: int
    pair: tuple        # (a, b), 1-based strand positions
    epsilon: int
    delta: BraidWord

    def __post_init__(self):
        a, b = self.pair
        if not 1 <= a < b:
            raise BadPair(f"bad Lefschetz pair {self.pair}")
        if self.epsilon < 1:
            raise BadPair(f"bad degree {self.epsilon}")


def assemble(rows, n):
    """Build the factorization of a sweep described by table rows.

    The half-twist of row ``j``'s pair is conjugated by the accumulated
    diffeomorphism ``delta_1 ... delta_{j-1}`` (applied first), so each
    skeleton is expressed in the base fiber.  Each factor is freely
    reduced, so that :func:`format_factorization` writes the words that
    :func:`parse_sweep` reads back.
    """
    history = BraidWord(n)
    factors = []
    for row in rows:
        a, b = row.pair
        if b > n:
            raise BadPair(f"pair {row.pair} does not fit on {n} strands")
        if row.delta.strands != n:
            raise StrandMismatch(f"row {row.index} delta is on "
                                 f"{row.delta.strands} strands, not {n}")
        local = half_twist(n, a, b) ** row.epsilon
        conjugate = history.inverse() * local * history
        factors.append(BraidWord(n, words.reduce(conjugate.letters)))
        history = history * row.delta
    return Factorization(n, tuple(factors))


def present(f, projective=False):
    """The van Kampen presentation of a factorization."""
    n = f.strands
    relators = []
    base = standard_gbase(n)
    for factor in f.factors:
        for k, e in enumerate(artin_apply(factor, base), 1):
            r = words.concat(e, (-k,))
            if r:
                relators.append(r)
    if projective:
        relators.append(tuple(range(n, 0, -1)))
    return Presentation(n, relators)


# -- plain-text forms -------------------------------------------------------

def format_factorization(f):
    lines = [f"strands: {f.strands}"]
    lines.extend(format_braid(b) for b in f.factors)
    return "\n".join(lines) + "\n"


def parse_sweep(text):
    """The factorization in a factorization file or a Lefschetz-pair table.

    The ``strands: n`` header is read once and needs ``n >= 1``, as
    :class:`BraidWord` does.  A table row starts with an integer, the
    first strand of its pair, and a braid row never does, so the first
    row picks the form the rows are read in, and errors name that form.
    """
    n, lines = read_header(text, "strands", "factorization or table")
    if n < 1:
        raise ParseError(f"bad 'strands:' count {n} in factorization or "
                         f"table: need at least one strand")
    if lines and lines[0].split()[0].lstrip("+-").isdigit():
        return assemble(_table_rows(n, lines), n)
    return Factorization(n, tuple(parse_braid(ln, n) for ln in lines))


def _table_rows(n, lines):
    rows = []
    for j, ln in enumerate(lines, 1):
        parts = ln.split(None, 3)
        if len(parts) < 3:
            raise ParseError(f"bad table row {ln!r}")
        try:
            a, b, eps = (int(parts[0]), int(parts[1]), int(parts[2]))
        except ValueError:
            raise ParseError(f"bad table row {ln!r}") from None
        delta = (parse_braid(parts[3], n) if len(parts) == 4
                 else BraidWord(n))
        rows.append(MTRow(j, (a, b), eps, delta))
    return rows
