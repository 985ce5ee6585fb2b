"""Catalog of conic-line arrangements and their expected groups.

Each entry records how an arrangement's fundamental group enters the
pipeline — as a Lefschetz-pair table to assemble, as a presentation read
off the braid monodromy, or (when no derivation data exists) only as the
expected simplified group — together with verification metadata: the
expected group and the generator-killing data that drives the bigness
certificate.

The expected groups are the nine distinct simplified presentations for
two tangent conics with up to two extra lines; :func:`expected_groups`
exposes them by name.
"""

from .errors import ConiclineError, UnknownModel
from .invariants import bigness_certificate, compare
from .presentations import Presentation
from .records import FrozenRecord, Record
from .van_kampen import parse_sweep, present
from .words import relator


def _comm(a, b):
    return relator(tuple(a) + tuple(b), tuple(b) + tuple(a))


# -- the nine simplified groups --------------------------------------------

_GROUPS = {
    # pi_1 of the two tangent conics alone
    "conic-pair": Presentation(2, [(1, 2, 1, 2), (2, 1, 2, 1)]),
    # one line: the three possibilities
    "z-plus-conic-pair": Presentation(3, [
        _comm((1,), (2,)), _comm((1,), (3,)),
        (2, 3, 2, 3), (3, 2, 3, 2)]),
    "square-commuting": Presentation(2, [relator((1, 2, 1, 2), (2, 1, 2, 1))]),
    "free-2": Presentation(2, []),
    # two lines: the five possibilities
    "commuting-squares-3": Presentation(3, [
        relator((2, 3, 2, 3), (3, 2, 3, 2)),
        relator((1, 3, 1, 3), (3, 1, 3, 1)),
        _comm((1,), (2,)),
        _comm((2,), (3, 1, -3))]),
    "triple-square": Presentation(3, [
        relator((3, 2, 1, 3, 2, 1), (2, 1, 3, 2, 1, 3)),
        relator((3, 2, 1, 3, 2, 1), (1, 3, 2, 1, 3, 2))]),
    "z-plus-square-commuting": Presentation(3, [
        _comm((1,), (2,)), _comm((1,), (3,)),
        relator((2, 3, 2, 3), (3, 2, 3, 2))]),
    "z-plus-free-2": Presentation(3, [_comm((1,), (2,)), _comm((1,), (3,))]),
    "z2-plus-conic-pair": Presentation(4, [
        _comm((1,), (2,)), _comm((1,), (3,)), _comm((1,), (4,)),
        _comm((2,), (3,)), _comm((2,), (4,)),
        (3, 4, 3, 4), (4, 3, 4, 3)]),
}


def expected_groups():
    """The distinct simplified groups, keyed by a stable name."""
    return dict(_GROUPS)


# -- the conic-pair Lefschetz-pair table -----------------------------------

# Derived by tracking the braid monodromy of
# (x^2+y^2-1)(x^2+y^2-1+(y-3/10)^2/2): six singular fibers swept
# rightmost first from a real base point right of the curve, each factor
# written as a conjugated half-twist power and the delta words solved so
# the assembly reproduces the tracked factors exactly.  The product of
# the factors is the full twist, as it must be for a degree-4 curve.
CONIC_PAIR_TABLE = """\
strands: 4
1 2 1 s3^-1 s2
2 3 1 s2^-1
2 3 4 e
2 3 4 s2 s3^-1
2 3 1 s3 s2^-1 s3 s2 s3^2 s2
1 2 1 e
"""


# -- published presentations (read off the braid monodromy) ----------------

_PUB_ONE_LINE_SIMPLE_TANGENT = Presentation(5, [
    (5, 4, 3, 2, 1),
    relator((4,), (5,)),
    _comm((1,), (2,)),
    relator((3, 5, 3, 5), (5, 3, 5, 3)),
    _comm((2, 1, -2), (5, 3, -5)),
    relator((2,), (5, 3, -5)),
    relator((-1, 2, 1), (4, 3, -4)),
    relator((2, 1, -2, 5, 2, 1, -2, 5), (5, 2, 1, -2, 5, 2, 1, -2)),
    relator((3, 4, 3, 4), (4, 3, 4, 3)),
    relator((5,), (2, -1, -2, 4, 2, 1, -2)),
])

_PUB_ONE_LINE_TANGENT_AT_TANGENCY = Presentation(5, [
    (5, 4, 3, 2, 1),
    relator((4,), (5,)),
    relator((5, 3, 2, 5, 3, 2), (3, 2, 5, 3, 2, 5)),
    relator((5, 3, 2, 5, 3, 2), (2, 5, 3, 2, 5, 3)),
    relator((1,), (5, 3, 2, -3, -5)),
    relator((1,), (4, 2, -4)),
    relator((2, 4, 2, 4), (4, 2, 4, 2)),
    relator((-3, 4, 3), (5,)),
])

_PUB_ONE_LINE_BOTH_TANGENCIES = Presentation(5, [
    (5, 4, 3, 2, 1),
    relator((4,), (5,)),
    relator((1,), (4, 3, -4)),
    relator((2, 4, 3), (4, 3, 2)),
    relator((4, 3, 2, 4, 3), (3, 2, 4, 3, 4)),
    relator((1,), (-2, -3, -4, 3, 4, 3, 2)),
    relator((-2, -3, 4, 3, 2), (1, 5, -1)),
    relator((2, 1, 5), (1, 5, 2)),
    relator((1, 5, 2, 1, 5), (5, 2, 1, 5, 1)),
])

_PUB_TWO_LINES_BOTH_TANGENCIES = Presentation(6, [
    (6, 5, 4, 3, 2, 1),
    relator((3, -5, 6, 5), (-5, 6, 5, 3)),
    relator((-3, 4, 3), (-5, -6, 5, 6, 5)),
    relator((5, -5, 6, 5, 2, 5, -5, 6, 5, 2),
            (2, 5, -5, 6, 5, 2, 5, -5, 6, 5)),
    relator((5, -5, 6, 5, 2, 5, -5, 6, 5, 2),
            (-5, 6, 5, 2, 5, -5, 6, 5, 2, 5)),
    relator((1,), (6, 5, 2, -5, -6)),
    relator((1,), (4, 3, 2, -3, -4)),
    relator((4, 3, 2, 4, 3, 2), (2, 4, 3, 2, 4, 3)),
    relator((4, 3, 2, 4, 3, 2), (3, 2, 4, 3, 2, 4)),
    relator((4,), (5,)),
])

_W_A = (6, 5, 4, -5, -6, 6, 5, 3, -5)
_W_B = (5, 3, -5, 6, 5, 4, -5, -6, 6)
_W_C = (6, 5, 3, -5, 6, 5, 4, -5, -6)
_PUB_TWO_LINES_ONE_AT_TANGENCY = Presentation(6, [
    (6, 5, 4, 3, 2, 1),
    relator((4,), (5,)),
    _comm((1,), (2,)),
    relator((2, 1, -2, 5, 3), (5, 3, 2, 1, -2)),
    relator((5, 3, 2, 1, -2, 5, 3), (3, 5, 3, 2, 1, -2, 5)),
    _comm((1,), (4,)),
    _comm((1,), (6,)),
    relator((2,), (5, 3, -5)),
    relator((2,), (6, 4, 3, -4, -6)),
    relator(_W_A + _W_A, _W_B + _W_B),
    relator(_W_A + _W_A, _W_C + _W_C),
    relator((4,), (6, 5, -6)),
])

_PUB_TWO_LINES_TANGENT_PAIR = Presentation(6, [
    (6, 5, 4, 3, 2, 1),
    relator((4,), (5,)),
    relator((1,), (4, 3, -4)),
    relator((4, 3, 2), (2, 4, 3)),
    relator((4, 3, 2, 4, 3), (3, 2, 4, 3, 4)),
    relator((4, 6, 4, 6), (6, 4, 6, 4)),
    relator((4, 3, -4, 4, 2, 4, 3, -4, 4), (4, 2, 4, 3, -4, 4, 4, 3, -4)),
    relator((2, 4, 3, -4, 4), (4, 3, -4, 4, 2)),
    relator((4, 3, -4),
         (-2, -3, -4, 6, -4, -6, 4, 3, -4, 6, 4, -6, 4, 3, 2)),
    relator((-2, -3, -4, 6, 4, -6, 4, 3, 2), (4, 3, -4, 4, 4, -3, -4)),
    _comm((4, 1, -4), (6,)),
    _comm((4, 2, -4), (6,)),
    _comm((5, 3, -5), (6,)),
])


# -- entries ----------------------------------------------------------------

class ArrangementEntry(FrozenRecord):
    """One arrangement with its verification data.

    ``description`` names the arrangement in the ``verify-paper`` report.
    ``source`` is ``("table", text)`` for a Lefschetz-pair table,
    ``("presentation", p)`` for a presentation read off the braid
    monodromy, or ``None`` when the arrangement carries only its
    expected group.  ``bigness_kill`` lists the generators the bigness
    certificate kills first: the meridians of the extra lines in the
    derived presentation, or in the expected group when there is none.
    """

    __slots__ = ("id", "description", "source", "expected", "bigness_kill")

    def __init__(self, id, description, source, expected, bigness_kill=()):
        self._fill(id, description, source, expected, bigness_kill)


_ENTRIES = [
    ArrangementEntry(
        "conic-pair",
        "two conics tangent to each other at two points",
        ("table", CONIC_PAIR_TABLE),
        _GROUPS["conic-pair"]),
    # one additional line
    # no derivation data: a transverse line adds a central free factor
    ArrangementEntry(
        "one-line-transverse",
        "a line meeting both conics transversally",
        None,
        _GROUPS["z-plus-conic-pair"],
        bigness_kill=(1,)),
    ArrangementEntry(
        "one-line-simple-tangent",
        "a line tangent to one conic at a smooth point, crossing the other",
        ("presentation", _PUB_ONE_LINE_SIMPLE_TANGENT),
        _GROUPS["square-commuting"],
        bigness_kill=(1,)),
    # no derivation data: known to agree with the tangent-at-tangency case
    ArrangementEntry(
        "one-line-through-tangency",
        "a line through one tangency point, transverse to both conics",
        None,
        _GROUPS["square-commuting"]),
    ArrangementEntry(
        "one-line-tangent-at-tangency",
        "a line through one tangency point, tangent to both conics there",
        ("presentation", _PUB_ONE_LINE_TANGENT_AT_TANGENCY),
        _GROUPS["square-commuting"],
        bigness_kill=(3,)),
    ArrangementEntry(
        "one-line-both-tangencies",
        "the line through the two tangency points",
        ("presentation", _PUB_ONE_LINE_BOTH_TANGENCIES),
        _GROUPS["free-2"],
        bigness_kill=(2,)),
    # two additional lines
    # no derivation data: two transverse lines add two central free factors
    ArrangementEntry(
        "two-lines-transverse",
        "two lines meeting the conics and each other transversally",
        None,
        _GROUPS["z2-plus-conic-pair"],
        bigness_kill=(1, 2)),
    ArrangementEntry(
        "two-lines-each-tangent",
        "two lines, each tangent to a different conic at a smooth point",
        None,
        _GROUPS["z-plus-square-commuting"],
        bigness_kill=(1,)),
    ArrangementEntry(
        "two-lines-same-conic",
        "two lines tangent to the same conic at smooth points",
        None,
        _GROUPS["commuting-squares-3"],
        bigness_kill=(1,)),
    ArrangementEntry(
        "two-lines-both-tangencies",
        "two lines, each through one of the two tangency points",
        ("presentation", _PUB_TWO_LINES_BOTH_TANGENCIES),
        _GROUPS["triple-square"],
        bigness_kill=(3, 6)),
    ArrangementEntry(
        "two-lines-one-at-tangency",
        "a line tangent at a smooth point plus a line through a tangency "
        "point",
        ("presentation", _PUB_TWO_LINES_ONE_AT_TANGENCY),
        _GROUPS["z-plus-square-commuting"],
        bigness_kill=(1, 6)),
    ArrangementEntry(
        "two-lines-tangent-pair",
        "a line pair crossing at a tangency point of the conics",
        ("presentation", _PUB_TWO_LINES_TANGENT_PAIR),
        _GROUPS["z-plus-free-2"],
        bigness_kill=(2, 6)),
    # the four groups repeated in the two-line case listing
    ArrangementEntry(
        "listing-triple-square",
        "two-line case listing: the triple-square group",
        None,
        _GROUPS["triple-square"],
        bigness_kill=(3,)),
    ArrangementEntry(
        "listing-z-plus-square-commuting",
        "two-line case listing: Z plus the square-commuting group",
        None,
        _GROUPS["z-plus-square-commuting"],
        bigness_kill=(1,)),
    ArrangementEntry(
        "listing-z-plus-free",
        "two-line case listing: Z plus the free group of rank two",
        None,
        _GROUPS["z-plus-free-2"],
        bigness_kill=(1,)),
    ArrangementEntry(
        "listing-z2-plus-conic-pair",
        "two-line case listing: Z^2 plus the conic-pair group",
        None,
        _GROUPS["z2-plus-conic-pair"],
        bigness_kill=(1, 2)),
]

_CATALOG = {e.id: e for e in _ENTRIES}


def list_entries():
    return sorted(_CATALOG)


def get_entry(id):
    try:
        return _CATALOG[id]
    except KeyError:
        raise UnknownModel(f"no arrangement entry {id!r}") from None


# -- verification -----------------------------------------------------------

class VerificationReport(Record):
    """One entry's outcome: the names of the pipeline ``stages`` that ran,
    the ``verdict`` (``equivalent``, ``distinct`` or ``inconclusive``),
    the computed bundle as a dict (``None`` without derivation data), the
    expected bundle, and the bigness step names (``None`` on failure)."""

    __slots__ = ("entry_id", "description", "stages", "verdict",
                 "computed_bundle", "expected_bundle", "bigness", "detail")

    def __init__(self, entry_id, description, stages, verdict,
                 computed_bundle, expected_bundle, bigness, detail=""):
        self._fill(entry_id, description, stages, verdict, computed_bundle,
                   expected_bundle, bigness, detail)

    @property
    def passed(self):
        return self.verdict == "equivalent" and self.bigness is not None

    def as_dict(self):
        return {"entry": self.entry_id,
                "description": self.description,
                "stages": list(self.stages),
                "verdict": self.verdict,
                "passed": self.passed,
                "computed_invariants": self.computed_bundle,
                "expected_invariants": self.expected_bundle,
                "bigness_steps": list(self.bigness) if self.bigness else None,
                "detail": self.detail}


def _derivation(entry):
    """The entry's derived presentation and the stages that produced it,
    or ``(None, ("encode",))`` when it has no derivation data."""
    if entry.source is None:
        return None, ("encode",)
    kind, data = entry.source
    if kind == "table":
        return (present(parse_sweep(data), projective=True),
                ("assemble", "present", "simplify", "compare"))
    if kind == "presentation":
        return data, ("presentation", "simplify", "compare")
    raise ValueError(f"unknown source kind {kind!r}")


def verify(entry):
    """Check the entry's pipeline output against its expected group.

    The derived presentation, or the expected group itself when there is
    none, is compared with the expected group and run through the
    bigness certificate.
    """
    if isinstance(entry, str):
        entry = get_entry(entry)
    derived, stages = _derivation(entry)
    subject = entry.expected if derived is None else derived
    verdict = compare(subject, entry.expected)
    detail = ("no derivation data; expected group only"
              if derived is None else "")
    bigness = None
    try:
        report = bigness_certificate(subject, entry.bigness_kill)
        bigness = tuple(name for name, _ in report.steps)
    except ConiclineError as exc:
        detail = (detail + "; " if detail else "") + f"bigness failed: {exc}"
    computed = None if derived is None else verdict.bundle1.as_dict()
    return VerificationReport(entry.id, entry.description, stages,
                              verdict.kind, computed,
                              verdict.bundle2.as_dict(), bigness, detail)


def verify_all():
    return [verify(_CATALOG[i]) for i in list_entries()]
