"""Braid words and their action on a geometric base of a free group.

A braid on ``n`` strands is a word in the Artin generators
``s_1 .. s_{n-1}``, stored as signed indices like free-group words.
Positive ``s_i`` is the counterclockwise half-twist of strands ``i`` and
``i+1``.

A geometric base of the free group on ``n`` generators is a plain
tuple of ``n`` reduced words; entry ``k`` is the image of the standard
generator ``x_k``.  The action on a base is arranged so that the
descending product ``e_n ... e_1`` of its entries is preserved; this is
the product that appears as the projective relator ``x_n ... x_1``.
"""

from . import words
from .errors import (BadBlock, BudgetExceeded, NonAdjacentMover, ParseError,
                     StrandMismatch)
from .records import Record

# The most letters that the image words of a base may hold together,
# checked before each letter's images are built: a short braid such as
# (s1 s2^-1)^k grows its images exponentially in k.  Far above the 16869
# of the random braids of the tests and the 269 of the benchmark; one CLI
# test builds 134207 on purpose, to hand simplify relators too long to
# index.
MAX_BASE_LETTERS = 10 ** 6


class BraidWord(Record):
    """A word in the Artin generators on a fixed number of strands."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands, letters=()):
        if strands < 1:
            raise ValueError("need at least one strand")
        letters = tuple(letters)
        for a in letters:
            if not 1 <= abs(a) <= strands - 1:
                raise ValueError(f"generator s{abs(a)} out of range for "
                                 f"{strands} strands")
        self._fill(strands, letters)

    def __mul__(self, other):
        """Concatenation; the left factor is applied first."""
        if self.strands != other.strands:
            raise StrandMismatch("cannot concatenate braids on different "
                                 "strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return BraidWord(self.strands, self.letters * n)

    def inverse(self):
        return BraidWord(self.strands, tuple(-a for a in reversed(self.letters)))

    def __repr__(self):
        return f"BraidWord({self.strands}, {format_braid(self)!r})"


def braid_permutation(b):
    """Image in the symmetric group: position -> final position, 1-based."""
    perm = list(range(b.strands + 1))  # perm[start] = end, slot 0 unused
    for a in b.letters:
        i = abs(a)
        # strands currently at positions i, i+1 swap
        p = perm.index(i)
        q = perm.index(i + 1)
        perm[p], perm[q] = i + 1, i
    return tuple(perm[1:])


def standard_gbase(n):
    return tuple((k,) for k in range(1, n + 1))


def artin_apply(b, g):
    """Apply braid ``b`` to the base ``g``, letters left to right.

    ``s_i`` sends entry ``i+1`` to ``e_{i+1} e_i e_{i+1}^-1`` and entry
    ``i`` to ``e_{i+1}``; the inverse letter undoes this.  Both fix the
    descending ordered product.  Raises :class:`BudgetExceeded` before a
    letter whose images, before cancellation, would take the base past
    ``MAX_BASE_LETTERS`` letters.
    """
    if b.strands != len(g):
        raise StrandMismatch(f"braid on {b.strands} strands applied to a "
                             f"base of {len(g)}")
    entries = list(g)
    size = sum(map(len, entries))
    for a in b.letters:
        i = abs(a) - 1  # 0-based position
        ei, ej = entries[i], entries[i + 1]
        # the conjugated entry gains twice the conjugator's letters
        if size + 2 * len(ej if a > 0 else ei) > MAX_BASE_LETTERS:
            raise BudgetExceeded(f"the images of the base would exceed "
                                 f"{MAX_BASE_LETTERS} letters")
        if a > 0:
            entries[i] = ej
            entries[i + 1] = words.concat(ej, ei, words.inverse(ej))
        else:
            entries[i] = words.concat(words.inverse(ei), ej, ei)
            entries[i + 1] = ei
        size += len(entries[i]) + len(entries[i + 1]) - len(ei) - len(ej)
    return tuple(entries)


def action_equal(b1, b2):
    """Equality as automorphisms: same images of the standard base."""
    if b1.strands != b2.strands:
        return False
    base = standard_gbase(b1.strands)
    return artin_apply(b1, base) == artin_apply(b2, base)


# -- constructors for the composite braids used by the local models --------

def half_twist(n, i, j):
    """Half-twist of the block ``[i..j]``; 180-degree block rotation."""
    if not 1 <= i < j <= n:
        raise BadBlock(f"bad block [{i}..{j}] on {n} strands")
    letters = []
    for top in range(j - 1, i - 1, -1):
        letters.extend(range(i, top + 1))
    return BraidWord(n, letters)


def full_twist(n, i, j):
    """Full twist of the block ``[i..j]``; square of the half-twist.

    Realized as ``(s_i ... s_{j-1})^(j-i+1)``, the standard identity for
    the block full twist.
    """
    if not 1 <= i < j <= n:
        raise BadBlock(f"bad block [{i}..{j}] on {n} strands")
    run = list(range(i, j))
    return BraidWord(n, tuple(run * (j - i + 1)))


def block_around(n, mover, i, j):
    """Strand ``mover`` travels one full loop around block ``[i..j]``.

    The block's internal order is unchanged: the word is the merged
    block's full twist with the inner block's full twist cancelled.
    """
    return _around(full_twist, n, mover, i, j)


def half_block_around(n, mover, i, j):
    """Strand ``mover`` passes over the block to its far side (half loop)."""
    return _around(half_twist, n, mover, i, j)


def _around(twist, n, mover, i, j):
    """``twist`` of the block merged with ``mover``, the inner block's
    ``twist`` cancelled; a one-strand block has nothing to cancel."""
    if not 1 <= i <= j <= n:
        raise BadBlock(f"bad block [{i}..{j}] on {n} strands")
    if mover not in (i - 1, j + 1):
        raise NonAdjacentMover(f"strand {mover} is not adjacent to "
                               f"[{i}..{j}]")
    lo, hi = (mover, j) if mover == i - 1 else (i, mover)
    merged = twist(n, lo, hi)
    if i == j:
        return merged
    return merged * twist(n, i, j).inverse()


# -- text form -------------------------------------------------------------

def format_braid(b):
    """Serialize as ``s1 s2^-1 s1^4``; the empty braid prints as ``e``."""
    return words.format_word(b.letters,
                             [f"s{i}" for i in range(1, b.strands)])


def parse_braid(text, strands):
    """Inverse of :func:`format_braid`.

    Only ``s<i>`` tokens with ``1 <= i < strands`` (with optional caret
    powers) are accepted, or ``e`` for the whole word, so that a row of
    a Lefschetz-pair table such as ``1 2 1 s2`` is never read as a braid.
    """
    names = [f"s{i}" for i in range(1, strands)]
    if text.strip() != "e":
        for token in text.split():
            if token.partition("^")[0] not in names:
                raise ParseError(f"not a generator of B_{strands}: {token!r}")
    return BraidWord(strands, words.parse_word(text, names))
