"""Budgeted greedy simplification of finite presentations.

The engine repeats four deterministic passes until nothing changes or
the move budget, the constant ``SIMPLIFY_BUDGET``, runs out:

1. drop trivial and duplicate relators (duplicates up to cyclic
   permutation, inversion and free reduction),
2. eliminate a generator that occurs exactly once in some relator
   (candidates tried by ascending generator index),
3. shorten a relator by rewriting it against another relator whenever
   they share more than half of the shorter one,
4. remove a relator that a bounded rewrite search proves to be a
   consequence of the remaining ones.

Passes 3 and 4 share one piece finder.  A piece of relator ``r`` is a
prefix, at least half as long as ``s``, of a rotation of relator ``s``
or of ``s^-1``; rewriting replaces it by the inverse of the rest of that
rotation.  The rotations of ``s`` and ``s^-1`` are indexed by their
prefix of length ``h = (len(s) + 1) // 2``, the shortest admissible
piece, read as the length-``h`` windows of ``s s`` and ``s^-1 s^-1``,
and the word ``r`` by its windows: each length-``h`` window of ``r r``
maps to its starts.  One intersection of the two key sets finds every
start where a piece can begin, and each hit is extended letter by
letter along the doubled relator; a rotation is sliced out only for a
rewrite that is read.  Pass 3 takes the first rewrite, in scan order,
whose piece is longer than half of ``s``; pass 4 takes them all.

Work is memoised by value, never by identity, and each memo has one
scope:

* per process: each relator's piece index, its cyclic normal form (the
  pass-1 key), the first pass-3 rewrite of ``r`` by ``s`` (or none) for
  each pair ``(r, s)`` seen, so a step pays only for the pairs that the
  last move changed, and :func:`simplify` itself on ``(ngen, relators,
  SIMPLIFY_BUDGET)``, the budget as read at the call, so a patched
  constant never meets a stale result; the moves never depend on the
  input's trace, so each call appends the stored moves to its own;
* per pass-4 search state: a word's window index, shared by every rule
  in that state (a pass-3 miss builds its own).  It is not kept longer:
  building one is a pass over the word per piece length, and a cache of
  the search states' indexes keyed by value only adds to peak memory
  (0.55 MB on the ``tangency`` benchmark).

Every move is recorded in the presentation trace, so the output replays
bit-for-bit from the input.  The engine never claims non-equivalence:
running out of budget only means failure-to-match within budget.
"""

import functools
from dataclasses import dataclass

from . import words
from .presentations import Presentation, _build

# Steps per ``simplify`` call, read at each call: every caller's budget,
# verification and ``conicline simplify`` included.
SIMPLIFY_BUDGET = 20000

# Bounds of the pass-4 consequence search; fixed so traces reproduce.
_SEARCH_BEAM = 600
_SEARCH_DEPTH = 24


@dataclass
class SimplifyResult:
    presentation: Presentation
    trace: tuple
    exhausted: bool


def simplify(p):
    """Greedy Tietze simplification within ``SIMPLIFY_BUDGET`` steps.

    Each step applies the first applicable move in the fixed pass order.
    The budget counts steps, not trace entries: a generator elimination
    is one step that records two entries (``remove_relator``, then
    ``eliminate``).  ``exhausted`` is true when a step was still
    applicable as the budget ran out.
    """
    ngen, relators, moves, exhausted = _simplified(p.ngen, p.relators,
                                                   SIMPLIFY_BUDGET)
    return SimplifyResult(_build(ngen, relators, p.trace + moves),
                          moves, exhausted)


@functools.lru_cache(maxsize=None)
def _simplified(ngen, relators, budget):
    """:func:`simplify` by value: ``(ngen, relators, moves, exhausted)``."""
    p = _build(ngen, relators, ())
    q = _one_step(p)
    for _ in range(budget):
        if q is None:
            break
        p, q = q, _one_step(q)
    # a move still applicable means the budget, not a fixpoint, stopped it
    return p.ngen, p.relators, p.trace, q is not None


def _one_step(p):
    """Apply the first applicable move in the fixed pass order."""
    step = _dedup_step(p)
    if step is not None:
        return step
    step = _elimination_step(p)
    if step is not None:
        return step
    step = _shorten_step(p)
    if step is not None:
        return step
    return _consequence_step(p)


# -- pass 1: trivial and duplicate relators --------------------------------

_relator_class = functools.lru_cache(maxsize=None)(words.cyclic_normal_form)


def _dedup_step(p):
    seen = set()
    for i, r in enumerate(p.relators):
        if not r:
            return p.remove_relator(i, "trivial")
        key = _relator_class(r)
        if key in seen:
            return p.remove_relator(i, "duplicate")
        seen.add(key)
    return None


# -- pass 2: generator elimination -----------------------------------------

def _elimination_candidate(p):
    """Smallest generator with a single occurrence in some relator.

    Returns ``(g, i, k)``: the generator, the first relator in which it
    occurs once, and its position there; ``None`` if there is none.
    """
    best = None
    for i, r in enumerate(p.relators):
        once = {}                 # generator -> its position, None if repeated
        for k, a in enumerate(r):
            g = abs(a)
            once[g] = None if g in once else k
        for g, k in once.items():
            if k is not None and (best is None or g < best[0]):
                best = g, i, k
    return best


def _elimination_step(p):
    found = _elimination_candidate(p)
    if found is None:
        return None
    g, i, k = found
    r = p.relators[i]
    rot = r[k:] + r[:k]           # occurrence of g now leads
    if rot[0] < 0:
        rot = words.inverse(rot)  # same relator, g now positive
        rot = rot[-1:] + rot[:-1]
    definition = words.inverse(rot[1:])
    return p.remove_relator(i, f"defines x{g}").substitute(g, definition)


# -- passes 3 and 4: the piece finder ---------------------------------------

@functools.lru_cache(maxsize=None)
def _piece_index(s):
    """The rotations of ``s`` and of ``s^-1``, indexed by prefix.

    Returns ``(doubles, index)``: ``(s s, s^-1 s^-1)``, and a dict from
    each prefix of length ``(len(s) + 1) // 2`` (the shortest admissible
    piece) to the rotations that start with it, in scan order.  Rotation
    ``zi`` of the ``2 len(s)`` is the length-``len(s)`` window of
    ``doubles[zi // len(s)]`` at ``zi % len(s)``; only the prefix
    windows are copied here, and a rotation is read only on a hit.
    """
    m, h = len(s), (len(s) + 1) // 2
    doubles = (s + s, words.inverse(s) * 2)
    index = {}
    for zi in range(2 * m):
        start = zi % m
        index.setdefault(doubles[zi // m][start:start + h], []).append(zi)
    return doubles, index


class _Windows(dict):
    """The window index of cyclic word ``r``, for one pass-3 miss or state.

    Maps each length ``h`` asked for to a dict from each length-``h``
    window of ``r r`` to its starts in ``range(len(r))``, ascending; each
    length is indexed on first use.
    """

    def __init__(self, r):
        self.word = r
        self.doubled = r + r

    def __missing__(self, h):
        starts = {}
        doubled = self.doubled
        for k in range(len(self.word)):
            starts.setdefault(doubled[k:k + h], []).append(k)
        self[h] = starts
        return starts


def _rewrites(windows, piece_index, shortest):
    """Rewrites of cyclic word ``r = windows.word`` by the indexed
    relator ``s``.

    Each replaces a piece of ``r`` that is a prefix of length ``L`` of a
    rotation ``z`` of ``s^±1``, ``shortest <= L < len(s)``, by the
    inverse of the rest of ``z``; ``shortest`` is at least half of
    ``len(s)``.  Rewrites come in scan order: by rotation, longer pieces
    first, then by start in ``r``.
    """
    doubles, index = piece_index
    r, doubled = windows.word, windows.doubled
    m = len(doubles[0]) // 2
    h, cap = (m + 1) // 2, min(m - 1, len(r))
    if h > cap:
        return
    starts = windows[h]
    hits = []
    for window in starts.keys() & index.keys():
        for zi in index[window]:
            z, at = doubles[zi // m], zi % m  # rotation zi is z[at:at + m]
            for k in starts[window]:
                top = h
                while top < cap and z[at + top] == doubled[k + top]:
                    top += 1
                hits.extend((zi, piece, k)
                            for piece in range(shortest, top + 1))
    hits.sort(key=lambda hit: (hit[0], -hit[1], hit[2]))
    for zi, piece, k in hits:
        z, at = doubles[zi // m], zi % m
        yield words.concat(words.inverse(z[at + piece:at + m]),
                           doubled[k + piece:k + len(r)])


@functools.lru_cache(maxsize=None)
def _first_rewrite(r, s):
    """The first rewrite of ``r`` by ``s`` that shortens ``r``, or None."""
    # a piece longer than half of s strictly shortens r
    return next(_rewrites(_Windows(r), _piece_index(s), len(s) // 2 + 1),
                None)


def _shorten_step(p):
    """Rewrite the first relator ``r`` that another relator ``s`` shortens."""
    for i, r in enumerate(p.relators):
        for j, s in enumerate(p.relators):
            if i != j and len(s) <= len(r):
                new = _first_rewrite(r, s)
                if new is not None:
                    return p.replace_relator(i, new,
                                             f"rewritten with relator {j}")
    return None


# -- pass 4: bounded consequence detection ---------------------------------

def _trivializes(target, others):
    """Bounded search showing ``target`` is a consequence of ``others``.

    Breadth-limited rewriting that also admits length-preserving steps;
    states are deduplicated by cyclic normal form.
    """
    rules = [(len(s), _piece_index(s)) for s in others if s]
    if not rules:
        return False
    start = _relator_class(target)
    if not start:
        return True
    frontier = [start]
    seen = {start}
    for _ in range(_SEARCH_DEPTH):
        next_frontier = []
        for w in frontier:
            windows = _Windows(w)
            for m, piece_index in rules:
                if m > 2 * len(w):
                    continue
                for new in _rewrites(windows, piece_index, (m + 1) // 2):
                    key = words.cyclic_normal_form(new)
                    if not key:
                        return True
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append(key)
        next_frontier.sort(key=lambda u: (len(u), u))
        frontier = next_frontier[:_SEARCH_BEAM]
        if not frontier:
            return False
    return False


def _consequence_step(p):
    if len(p.relators) < 2:
        return None
    order = sorted(range(len(p.relators)),
                   key=lambda i: (-len(p.relators[i]), i))
    for i in order:
        others = p.relators[:i] + p.relators[i + 1:]
        if _trivializes(p.relators[i], others):
            return p.remove_relator(i, "consequence of the others")
    return None
