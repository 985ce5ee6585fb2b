"""Finite presentations and elementary Tietze moves.

A relation ``u = v`` is stored as the single relator ``u v^-1``.  Every
relator kept in a :class:`Presentation` is freely and cyclically reduced.
Presentations are immutable; each operation returns a new presentation
whose ``trace`` records the move, and :func:`replay` reapplies a trace
deterministically.
"""

from dataclasses import dataclass

from . import words
from .errors import DefinitionContainsTarget, MapsNotInverse, ParseError


@dataclass(frozen=True)
class TietzeMove:
    """One invertible presentation move.

    ``kind`` is one of ``eliminate``, ``remove_relator``, ``add_relators``,
    ``replace_relator``, ``add_generator`` or ``change_generators``;
    ``data`` carries the move's parameters.
    """

    kind: str
    data: tuple

    def __repr__(self):
        return f"TietzeMove({self.kind}, {self.data!r})"


class Presentation:
    """A finite presentation ``<ngen generators | relators>``."""

    __slots__ = ("ngen", "relators", "trace")

    def __init__(self, ngen, relators=(), trace=()):
        if ngen < 0:
            raise ValueError("generator count must be >= 0")
        rels = tuple(_relator(r, ngen) for r in relators)
        object.__setattr__(self, "ngen", ngen)
        object.__setattr__(self, "relators", rels)
        object.__setattr__(self, "trace", tuple(trace))

    def _moved(self, rels, move):
        """``self`` after ``move``; ``rels`` are made by :func:`_relator`."""
        p = object.__new__(Presentation)
        for name, value in zip(Presentation.__slots__,
                               (self.ngen, rels, self.trace + (move,))):
            object.__setattr__(p, name, value)
        return p

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
        compacted down by one.
        """
        definition = words.reduce(definition)
        if not 1 <= g <= self.ngen:
            raise ValueError(f"no generator {g}")
        if g in words.generators_of(definition):
            raise DefinitionContainsTarget(f"definition of x{g} mentions x{g}")
        images = {h: (h,) for h in range(1, self.ngen + 1)}
        images[g] = definition
        shift = {h: (h,) if h < g else (h - 1,) for h in range(1, self.ngen + 1)}
        del shift[g]
        new_relators = []
        for r in self.relators:
            w = words.substitute_letters(r, images)
            new_relators.append(words.substitute_letters(w, shift))
        move = TietzeMove("eliminate", (g, definition))
        return Presentation(self.ngen - 1, new_relators, self.trace + (move,))

    def remove_relator(self, index, reason=""):
        if not 0 <= index < len(self.relators):
            raise IndexError(f"no relator {index}")
        rels = self.relators[:index] + self.relators[index + 1:]
        return self._moved(rels, TietzeMove("remove_relator", (index, reason)))

    def replace_relator(self, index, new_word, derivation=""):
        if not 0 <= index < len(self.relators):
            raise IndexError(f"no relator {index}")
        new_word = _relator(new_word, self.ngen)
        rels = (self.relators[:index] + (new_word,) + self.relators[index + 1:])
        move = TietzeMove("replace_relator", (index, new_word, derivation))
        return self._moved(rels, move)

    def add_relators(self, new_relators, derivation=""):
        """Quotient by the normal closure of ``new_relators``."""
        extra = tuple(_relator(r, self.ngen) for r in new_relators)
        move = TietzeMove("add_relators", (extra, derivation))
        return Presentation(self.ngen, self.relators + extra,
                            self.trace + (move,))

    def add_generator(self, definition):
        """Adjoin generator ``ngen+1`` together with its defining relator."""
        definition = words.reduce(definition)
        if words.max_generator(definition) > self.ngen:
            raise ValueError("definition uses an unknown generator")
        g = self.ngen + 1
        rel = words.concat((g,), words.inverse(definition))
        move = TietzeMove("add_generator", (definition,))
        return Presentation(g, self.relators + (rel,), self.trace + (move,))

    def change_generators(self, new_in_old, old_in_new):
        """Rewrite over new generators ``y_k = new_in_old[k]``.

        ``old_in_new`` expresses each old generator over the new ones;
        the two maps must invert each other under free reduction.
        """
        if len(new_in_old) != len(old_in_new) or len(old_in_new) != self.ngen:
            raise MapsNotInverse("generator maps must both cover every generator")
        for g in range(1, self.ngen + 1):
            round_trip = words.substitute_letters(old_in_new[g], new_in_old)
            if round_trip != (g,):
                raise MapsNotInverse(
                    f"x{g} -> {old_in_new[g]} -> {round_trip} is not the identity")
        for h in range(1, len(new_in_old) + 1):
            round_trip = words.substitute_letters(new_in_old[h], old_in_new)
            if round_trip != (h,):
                raise MapsNotInverse(
                    f"new generator {h} does not round-trip")
        rels = [words.substitute_letters(r, old_in_new) for r in self.relators]
        move = TietzeMove("change_generators",
                          (_freeze_map(new_in_old), _freeze_map(old_in_new)))
        return Presentation(len(new_in_old), rels, self.trace + (move,))


def _relator(r, ngen):
    """``r`` freely and cyclically reduced, if it uses only ``x1..x<ngen>``."""
    r = words.cyclic_reduce(r)
    if words.max_generator(r) > ngen:
        raise ValueError(f"relator {r} uses a generator beyond {ngen}")
    return r


def _freeze_map(m):
    return tuple(sorted((k, tuple(v)) for k, v in m.items()))


def _thaw_map(t):
    return {k: v for k, v in t}


def apply_move(p, move):
    """Apply a recorded Tietze move; used to replay traces."""
    kind, data = move.kind, move.data
    if kind == "eliminate":
        return p.substitute(*data)
    if kind == "remove_relator":
        return p.remove_relator(*data)
    if kind == "replace_relator":
        return p.replace_relator(*data)
    if kind == "add_relators":
        return p.add_relators(*data)
    if kind == "add_generator":
        return p.add_generator(*data)
    if kind == "change_generators":
        return p.change_generators(_thaw_map(data[0]), _thaw_map(data[1]))
    raise ValueError(f"unknown move kind {kind!r}")


def replay(p, trace):
    """Reapply ``trace`` to ``p``; deterministic by construction."""
    for move in trace:
        p = apply_move(p, move)
    return p


# -- plain-text serialization ---------------------------------------------

def format_presentation(p):
    """Serialize as ``gens: n`` plus one relator line each."""
    lines = [f"gens: {p.ngen}"]
    lines.extend(words.format_word(r) for r in p.relators)
    return "\n".join(lines) + "\n"


def parse_presentation(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("gens:"):
        raise ParseError("presentation must start with a 'gens: n' line")
    try:
        ngen = int(lines[0].split(":", 1)[1])
    except ValueError:
        raise ParseError("bad generator count") from None
    return Presentation(ngen, [words.parse_word(ln) for ln in lines[1:]])
