"""Catalog of local singularity models for conic-line arrangements.

Each model records the local equation, the braid monodromy of a loop
around the singular fiber, the half-loop (Lefschetz) braid, and the
published induced relation set over the standard g-base generators.

``provenance`` says where the braid word comes from: ``formula`` for
words built from the half/full-twist constructors, ``tracked`` for words
frozen from the numerical tracker.  Models whose fiber contains complex
points on only part of the loop (the thick-line model) cannot be
re-tracked from their equation; their relation sets are still checked
against the catalog braid at the group level.
"""

from dataclasses import dataclass

from . import words
from .braids import (BraidWord, block_around, full_twist, half_block_around,
                     half_twist)
from .errors import UnknownModel
from .tracker import CurvePoly


@dataclass(frozen=True)
class LocalModel:
    id: str
    equation: CurvePoly
    strands: int
    braid: BraidWord
    half_braid: BraidWord
    paper_relations: tuple
    provenance: str  # "formula" | "tracked"


def _build_catalog():
    models = []

    def add(id, eq, strands, braid, half, relations, provenance="formula"):
        models.append(LocalModel(id, CurvePoly.parse(eq), strands, braid,
                                 half, tuple(relations), provenance))

    s1 = BraidWord(2, (1,))
    add("branch-point", "y^2 - x", 2, s1, s1, [words.relator((1,), (2,))])
    add("node", "y^2 - x^2", 2, s1 ** 2, s1,
        [words.relator((1, 2), (2, 1))])
    add("simple-tangency", "y*(y - x^2)", 2, s1 ** 4, s1 ** 2,
        [words.relator((1, 2, 1, 2), (2, 1, 2, 1))])
    add("conic-conic-tangency", "(y + x^2)*(y - x^2)", 2, s1 ** 4, s1 ** 2,
        [words.relator((1, 2, 1, 2), (2, 1, 2, 1))])

    # line through the tangency point, line on the left (y = -2x)
    add("3comp-type1", "(2*x + y)*(y + x^2)*(y - x^2)", 3,
        full_twist(3, 2, 3) ** 2 * block_around(3, 1, 2, 3),
        half_block_around(3, 1, 2, 3) * full_twist(3, 2, 3),
        [words.relator((1, 3, 2), (3, 2, 1)),
         words.relator((3, 2, 1, 3, 2), (2, 3, 2, 1, 3))])
    # line through the tangency point, line on the right (y = 2x)
    add("3comp-type2", "(2*x - y)*(y + x^2)*(y - x^2)", 3,
        full_twist(3, 1, 2) ** 2 * block_around(3, 3, 1, 2),
        half_block_around(3, 3, 1, 2) * full_twist(3, 1, 2),
        [words.relator((3, 2, 1), (2, 1, 3)),
         words.relator((3, 2, 1, 2, 1), (1, 3, 2, 1, 2))])
    # line transverse to the common tangent: fiber rotates as a cross
    add("3comp-rotation", "y*(y^2 + x)*(y^2 - x)", 5,
        half_twist(5, 1, 5),
        BraidWord(5, (2, 3, 2, 1, 4)),  # quarter rotation, tracker-frozen
        [words.relator((4, 3, 2), (2, 4, 3)),
         words.relator((3, 2, 4, 3, 4), (4, 3, 2, 4, 3)),
         words.relator((1,), (4, 3, -4)),
         words.relator((4,), (5,))])
    # line tangent to both conics at the tangency point
    add("3comp-common-tangent", "y*(y + x^2)*(y - x^2)", 3,
        full_twist(3, 1, 3) ** 2, full_twist(3, 1, 3),
        [words.relator((3, 2, 1, 3, 2, 1), (1, 3, 2, 1, 3, 2)),
         words.relator((1, 3, 2, 1, 3, 2), (2, 1, 3, 2, 1, 3))])

    # tangent line plus a transverse line on the left
    add("4comp-tangentline-type1", "y*(2*x + y)*(y + x^2)*(y - x^2)", 4,
        full_twist(4, 2, 4) ** 2 * block_around(4, 1, 2, 4),
        half_block_around(4, 1, 2, 4) * full_twist(4, 2, 4),
        [words.relator((1, 4, 3, 2), (4, 3, 2, 1)),
         words.relator((4, 3, 2, 4, 3, 2, 1), (3, 2, 4, 3, 2, 1, 4)),
         words.relator((3, 2, 4, 3, 2, 1, 4), (2, 4, 3, 2, 1, 4, 3))])
    # tangent line plus a transverse line on the right
    add("4comp-tangentline-type2", "y*(2*x - y)*(y + x^2)*(y - x^2)", 4,
        full_twist(4, 1, 3) ** 2 * block_around(4, 4, 1, 3),
        half_block_around(4, 4, 1, 3) * full_twist(4, 1, 3),
        [words.relator((4, 3, 2, 1), (3, 2, 1, 4)),
         words.relator((3, 2, 1, 3, 2, 1, 4), (2, 1, 3, 2, 1, 4, 3)),
         words.relator((2, 1, 3, 2, 1, 4, 3), (1, 3, 2, 1, 4, 3, 2))])
    # tangent line plus a line transverse to it (the "thick line" trick):
    # rotate the five inner points, then the outer line circles them all
    add("4comp-tangentline-type3", "x*y*(y + x^2)*(y - x^2)", 6,
        half_twist(6, 1, 5) * block_around(6, 6, 1, 5),
        BraidWord(6, (2, 3, 2, 1, 4)) * half_block_around(6, 6, 1, 5),
        [words.relator((5, 4, 3, 2), (2, 5, 4, 3)),
         words.relator((3, 5, 4, 3, 2, 5, 4), (5, 4, 3, 2, 5, 4, 3)),
         words.relator((5, 4, 3, 2, 5, 4, 3), (4, 3, 5, 4, 3, 2, 5)),
         words.relator((1,), (5, 4, 3, -4, -5)),
         words.relator((5,), (6,))])

    # two transverse lines through the tangency point
    add("4comp-twolines-type1", "(2*x + y)*(2*x - y)*(y + x^2)*(y - x^2)", 4,
        full_twist(4, 2, 3) ** 2 * block_around(4, 1, 2, 3)
        * block_around(4, 4, 1, 3),
        half_twist(4, 1, 4) * half_twist(4, 2, 3).inverse()
        * full_twist(4, 2, 3),
        [words.relator((4, 3, 2, 1), (1, 4, 3, 2)),
         words.relator((1, 4, 3, 2), (3, 2, 1, 4)),
         words.relator((4, 3, 2, 1, 3, 2), (2, 4, 3, 2, 1, 3))])
    # a line pair transverse to the common tangent (hidden branch points)
    add("4comp-twolines-type2", "y*(x + 2*y)*(y^2 + x)*(y^2 - x)", 6,
        BraidWord(6, (3, 4, 3, 2, 1, 3, 5, 4, 2, 3, 2, 4, 1, 3, 5, 2)),
        BraidWord(6, (2, 3, 2, 4, 1, 3, 5, 2)),
        [words.relator((5, 4, 3, 2), (2, 5, 4, 3)),
         words.relator((2, 5, 4, 3), (3, 2, 5, 4)),
         words.relator((4, 5, 4, 3, 2, 5), (5, 4, 3, 2, 5, 4)),
         words.relator((1,), (5, 4, -5)),
         words.relator((5,), (6,))],
        provenance="tracked")

    return {m.id: m for m in models}


_CATALOG = _build_catalog()


def list_models():
    return sorted(_CATALOG)


def get_model(id):
    try:
        return _CATALOG[id]
    except KeyError:
        raise UnknownModel(f"no local model {id!r}") from None


def generalized_tangency(n):
    """The ``n`` pairwise tangent branches model: braid and relators.

    The braid is the square of the full twist of all ``n`` strands; the
    relators equate the squares of the cyclic shifts of ``x_n ... x_1``.
    """
    if n < 2:
        raise ValueError("need at least two branches")
    braid = full_twist(n, 1, n) ** 2
    base = tuple(range(n, 0, -1))
    shifts = [base[k:] + base[:k] for k in range(n)]
    relators = [words.relator(shifts[k] * 2, shifts[k + 1] * 2)
                for k in range(n - 1)]
    return braid, relators
