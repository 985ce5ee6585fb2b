"""Finite presentations and elementary Tietze moves.

A relation ``u = v`` is stored as the single relator ``u v^-1``.  Every
relator kept in a :class:`Presentation` is freely and cyclically reduced.
Presentations are immutable; each move returns a new presentation whose
``trace`` records it (see :class:`TietzeMove` for the kinds), and
:func:`replay` reapplies a trace deterministically.
"""

from dataclasses import dataclass

from . import words
from .errors import (ConiclineError, DefinitionContainsTarget, MapsNotInverse,
                     ParseError)

# The largest count of a text header, generators or strands: each
# generator or strand costs work before any relator or factor is read.
MAX_HEADER_COUNT = 1000


@dataclass(frozen=True)
class TietzeMove:
    """One invertible presentation move.

    ``kind`` is one of ``eliminate``, ``remove_relator``,
    ``replace_relator``, ``add_relators`` or ``change_generators``, the
    keys of :data:`_MOVES`; ``data`` carries the move's parameters, the
    arguments of the method that replays it.
    """

    kind: str
    data: tuple

    def __repr__(self):
        return f"TietzeMove({self.kind}, {self.data!r})"


class Presentation:
    """A finite presentation ``<ngen generators | relators>``."""

    __slots__ = ("ngen", "relators", "trace")

    def __init__(self, ngen, relators=()):
        if ngen < 0:
            raise ConiclineError("generator count must be >= 0")
        rels = tuple(_relator(r, ngen) for r in relators)
        object.__setattr__(self, "ngen", ngen)
        object.__setattr__(self, "relators", rels)
        object.__setattr__(self, "trace", ())

    def __setattr__(self, name, value):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other):
        return (isinstance(other, Presentation)
                and self.ngen == other.ngen
                and self.relators == other.relators)

    def __hash__(self):
        return hash((self.ngen, self.relators))

    def __repr__(self):
        rels = ", ".join(words.format_word(r) for r in self.relators)
        return f"<{self.ngen} generators | {rels}>"

    # -- elementary moves -------------------------------------------------

    def substitute(self, g, definition):
        """Eliminate generator ``g`` using ``g = definition``.

        Every occurrence of ``g`` is replaced by the definition, the
        relators are re-reduced and generator indices above ``g`` are
        compacted down by one, all in one pass per relator.
        """
        definition = words.reduce(definition)
        if not 1 <= g <= self.ngen:
            raise ValueError(f"no generator {g}")
        if g in words.generators_of(definition):
            raise DefinitionContainsTarget(f"definition of x{g} mentions x{g}")
        if words.max_generator(definition) > self.ngen:
            raise ValueError(f"definition uses a generator beyond {self.ngen}")
        images = {h: (h,) if h < g else (h - 1,)
                  for h in range(1, self.ngen + 1) if h != g}
        images[g] = words.substitute_letters(definition, images)
        rels = tuple(_relator(words.substitute_letters(r, images),
                              self.ngen - 1) for r in self.relators)
        move = TietzeMove("eliminate", (g, definition))
        return _build(self.ngen - 1, rels, self.trace + (move,))

    def remove_relator(self, index, reason=""):
        if not 0 <= index < len(self.relators):
            raise IndexError(f"no relator {index}")
        rels = self.relators[:index] + self.relators[index + 1:]
        move = TietzeMove("remove_relator", (index, reason))
        return _build(self.ngen, rels, self.trace + (move,))

    def replace_relator(self, index, new_word, derivation=""):
        if not 0 <= index < len(self.relators):
            raise IndexError(f"no relator {index}")
        new_word = _relator(new_word, self.ngen)
        rels = (self.relators[:index] + (new_word,) + self.relators[index + 1:])
        move = TietzeMove("replace_relator", (index, new_word, derivation))
        return _build(self.ngen, rels, self.trace + (move,))

    def add_relators(self, new_relators, derivation=""):
        """Quotient by the normal closure of ``new_relators``."""
        extra = tuple(_relator(r, self.ngen) for r in new_relators)
        move = TietzeMove("add_relators", (extra, derivation))
        return _build(self.ngen, self.relators + extra, self.trace + (move,))

    def change_generators(self, new_in_old, old_in_new):
        """Rewrite over new generators ``y_k = new_in_old[k]``.

        ``old_in_new`` expresses each old generator over the new ones;
        the two maps must invert each other under free reduction.  Each
        map is a dict or, as recorded in the move, its sorted items.
        Maps that are not both keyed by exactly ``1 .. ngen`` over words
        in those generators raise :class:`MapsNotInverse`.
        """
        new_in_old, old_in_new = dict(new_in_old), dict(old_in_new)
        gens = set(range(1, self.ngen + 1))
        if new_in_old.keys() != gens or old_in_new.keys() != gens:
            raise MapsNotInverse("generator maps must both cover every generator")
        if any(not 1 <= abs(a) <= self.ngen
               for m in (new_in_old, old_in_new)
               for w in m.values() for a in w):
            raise MapsNotInverse(
                "a generator map uses a generator the other does not cover")
        for g in range(1, self.ngen + 1):
            round_trip = words.substitute_letters(old_in_new[g], new_in_old)
            if round_trip != (g,):
                raise MapsNotInverse(
                    f"x{g} -> {old_in_new[g]} -> {round_trip} is not the identity")
        for h in range(1, self.ngen + 1):
            round_trip = words.substitute_letters(new_in_old[h], old_in_new)
            if round_trip != (h,):
                raise MapsNotInverse(
                    f"new generator {h} does not round-trip")
        rels = tuple(_relator(words.substitute_letters(r, old_in_new),
                              self.ngen) for r in self.relators)
        move = TietzeMove("change_generators",
                          (_freeze_map(new_in_old), _freeze_map(old_in_new)))
        return _build(self.ngen, rels, self.trace + (move,))


def _build(ngen, relators, trace):
    """The presentation with these fields, checking nothing: ``relators``
    is a tuple of words already made by :func:`_relator`."""
    p = object.__new__(Presentation)
    for name, value in zip(Presentation.__slots__, (ngen, relators, trace)):
        object.__setattr__(p, name, value)
    return p


def _relator(r, ngen):
    """``r`` freely and cyclically reduced, if it uses only ``x1..x<ngen>``."""
    r = words.cyclic_reduce(r)
    if words.max_generator(r) > ngen:
        raise ConiclineError(f"relator {r} uses a generator beyond {ngen}")
    return r


def _freeze_map(m):
    return tuple(sorted((k, tuple(v)) for k, v in m.items()))


_MOVES = {
    "eliminate": Presentation.substitute,
    "remove_relator": Presentation.remove_relator,
    "replace_relator": Presentation.replace_relator,
    "add_relators": Presentation.add_relators,
    "change_generators": Presentation.change_generators,
}


def apply_move(p, move):
    """Apply a recorded Tietze move; used to replay traces."""
    try:
        method = _MOVES[move.kind]
    except KeyError:
        raise ValueError(f"unknown move kind {move.kind!r}") from None
    return method(p, *move.data)


def replay(p, trace):
    """Reapply ``trace`` to ``p``; deterministic by construction."""
    for move in trace:
        p = apply_move(p, move)
    return p


# -- plain-text serialization ---------------------------------------------

def read_header(text, key, what):
    """The count ``n`` of a ``key: n`` header, and the lines after it.

    Shared by every text format: lines are stripped, and blank lines and
    ``#`` comments dropped.  A missing header or a count that is not an
    integer is a :class:`ParseError` naming ``what``, the format read,
    and so is a count above ``MAX_HEADER_COUNT``.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith(f"{key}:"):
        raise ParseError(f"{what} must start with a '{key}: n' line")
    try:
        n = int(lines[0].split(":", 1)[1])
    except ValueError:
        raise ParseError(f"bad '{key}:' count in {what}") from None
    if n > MAX_HEADER_COUNT:
        raise ParseError(f"'{key}:' count {n} in {what} is above "
                         f"{MAX_HEADER_COUNT}")
    return n, lines[1:]


def format_presentation(p):
    """Serialize as ``gens: n`` plus one relator line each."""
    lines = [f"gens: {p.ngen}"]
    lines.extend(words.format_word(r) for r in p.relators)
    return "\n".join(lines) + "\n"


def parse_presentation(text):
    ngen, lines = read_header(text, "gens", "presentation")
    return Presentation(ngen, [words.parse_word(ln) for ln in lines])
