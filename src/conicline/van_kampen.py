"""From braid monodromy factorizations to fundamental group presentations.

A factorization lists one factor per singular fiber, in sweep order.  A
factor is a local braid ``L`` and a conjugator ``h`` that carries it to
the base fiber: the braid ``h^-1 L h``, left factor applied first.  A
bare braid word is the factor whose conjugator is the identity.

The presentation has one generator per strand.  Following van Kampen
and Moishezon-Teicher, a factor gives the relators ``L(x_k) = x_k`` of
its local braid, nontrivial only on the strands that ``L`` moves, with
each ``x_j`` replaced by ``E_j``, the entry ``j`` of the base moved by
``h^-1``.  They present the group that the relators of the expanded
braid ``h^-1 L h`` present, in far fewer letters; a bare word's
relators are its own.  The projective closure adds ``x_n ... x_1 = e``.

Factorizations can be assembled from a table of Lefschetz pairs: row
``j`` contributes the half-twist of its pair, raised to the row's
degree, as its local braid, and the composition of the previous rows'
diffeomorphisms as its conjugator.  Both text forms describe a
factorization and start with a ``strands: n`` header; a table row
starts with an integer, a factorization row with a braid generator.
:func:`parse_sweep` reads either, and :func:`format_factorization`
writes the factorization form, each factor as its expanded braid.
"""

from . import words
from .braids import (BraidWord, artin_apply, half_twist, parse_braid,
                     format_braid, standard_gbase)
from .errors import BadPair, ParseError, StrandMismatch
from .presentations import Presentation, read_header
from .records import Record


class Factor(Record):
    """The braid ``h^-1 L h`` of one singular fiber: the local braid
    ``local`` (L) carried to the base fiber by ``conjugator`` (h)."""

    __slots__ = ("conjugator", "local")

    def __init__(self, conjugator, local):
        self._fill(conjugator, local)
        if conjugator.strands != local.strands:
            raise StrandMismatch("conjugator strand count differs from "
                                 "the local braid's")

    @property
    def strands(self):
        return self.local.strands

    def expanded(self):
        """The braid ``h^-1 L h`` as one freely reduced word, or the
        local braid as it is when the conjugator is the identity."""
        h = self.conjugator
        if not h.letters:
            return self.local
        return BraidWord(self.strands, words.reduce(
            (h.inverse() * self.local * h).letters))


class Factorization(Record):
    """One :class:`Factor` per singular fiber, in sweep order, on
    ``strands``; a :class:`BraidWord` given as a factor is the factor
    with the identity as its conjugator."""

    __slots__ = ("strands", "factors")

    def __init__(self, strands, factors):
        factors = tuple(f if isinstance(f, Factor)
                        else Factor(BraidWord(f.strands), f)
                        for f in factors)
        self._fill(strands, factors)
        for f in self.factors:
            if f.strands != self.strands:
                raise StrandMismatch("factor strand count differs from "
                                     "factorization")


class MTRow(Record):
    """One table row: a Lefschetz pair ``(a, b)`` of 1-based strand
    positions, its degree ``epsilon`` and its diffeomorphism ``delta``."""

    __slots__ = ("index", "pair", "epsilon", "delta")

    def __init__(self, index, pair, epsilon, delta):
        self._fill(index, pair, epsilon, delta)
        a, b = self.pair
        if not 1 <= a < b:
            raise BadPair(f"bad Lefschetz pair {self.pair}")
        if self.epsilon < 1:
            raise BadPair(f"bad degree {self.epsilon}")


def assemble(rows, n):
    """Build the factorization of a sweep described by table rows.

    Row ``j`` gives the factor whose local braid is the half-twist of
    its pair raised to its degree, and whose conjugator is the
    accumulated diffeomorphism ``delta_1 ... delta_{j-1}``, so each
    skeleton is expressed in the base fiber.
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
        factors.append(Factor(history, half_twist(n, a, b) ** row.epsilon))
        history = history * row.delta
    return Factorization(n, tuple(factors))


def present(f, projective=False):
    """The van Kampen presentation of a factorization.

    Each factor's nontrivial local relators ``L(x_k) x_k^-1`` are
    written on ``artin_apply(h^-1, base)`` in place of the base and
    freely reduced; a factor whose conjugator is the identity keeps them
    as they are.
    """
    n = f.strands
    relators = []
    base = standard_gbase(n)
    for factor in f.factors:
        h = factor.conjugator
        # images[j] is E_j, the entry j of the base moved by h^-1
        images = ((None,) + artin_apply(h.inverse(), base)
                  if h.letters else None)
        for k, e in enumerate(artin_apply(factor.local, base), 1):
            r = words.concat(e, (-k,))
            if r:
                relators.append(r if images is None
                                else words.substitute_letters(r, images))
    if projective:
        relators.append(tuple(range(n, 0, -1)))
    return Presentation(n, relators)


# -- plain-text forms -------------------------------------------------------

def format_factorization(f):
    lines = [f"strands: {f.strands}"]
    lines.extend(format_braid(b.expanded()) for b in f.factors)
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
