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
maps to its starts.  One intersection of the two key sets, each a set
that keeps its keys' hashes, finds every start where a piece can begin,
and each hit is extended letter by letter along the doubled relator; a
rotation is sliced out only for a rewrite that is read, and the rewrite
cancels letters only where its two parts meet.  Pass 3 takes the first
rewrite, in scan order, whose piece is longer than half of ``s``; pass 4
takes them all.

The consequence search of pass 4 runs breadth first, one level at a
time, and treats a level as a set: its classes are sorted by ``(len,
word)`` and cut to the beam, and an empty word anywhere in it ends the
search, so the order in which a level is expanded never matters.

Work is memoised by value, never by identity, and each memo has one
scope:

* per process: each relator's piece index, its cyclic normal form (the
  pass-1 key), the first pass-3 rewrite of ``r`` by ``s`` (or none) for
  each pair ``(r, s)`` seen, so a step pays only for the pairs that the
  last move changed, and :func:`simplify` itself on ``(ngen, relators,
  SIMPLIFY_BUDGET)``, the budget as read at the call, so a patched
  constant never meets a stale result; the moves never depend on the
  input's trace, so each call appends the stored moves to its own;
* per consequence step (one call of pass 4): the classes that each
  ``(state, rule)`` pair reaches, and the class of each rewrite, shared
  by the searches of every target: where ``r_i`` and ``r_j`` have one
  length, the rewrites of ``r_i`` by ``r_j`` are the inverses of those
  of ``r_j`` by ``r_i``, so the two searches meet the same states;
* per pass-3 relator in one step: its window index, shared by the
  misses of ``r`` against every ``s``;
* per pass-4 state visit: its window index, shared by every rule that
  the state meets for the first time.

No search state outlives its step: building a window index is a pass
over the word per piece length, and a cache of the search states'
indexes keyed by value only adds to peak memory (0.55 MB on the
``tangency`` benchmark).

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

    Returns ``(doubles, index, prefixes)``: ``(s s, s^-1 s^-1)``, a
    dict from each prefix of length ``(len(s) + 1) // 2`` (the shortest
    admissible piece) to the rotations that start with it, in scan
    order, and the set of those prefixes.  Rotation ``zi`` of the ``2
    len(s)`` is the length-``len(s)`` window of ``doubles[zi // len(s)]``
    at ``zi % len(s)``; only the prefix windows are copied here, and a
    rotation is read only on a hit.
    """
    m, h = len(s), (len(s) + 1) // 2
    doubles = (s + s, words.inverse(s) * 2)
    index = {}
    for zi in range(2 * m):
        start = zi % m
        index.setdefault(doubles[zi // m][start:start + h], []).append(zi)
    return doubles, index, frozenset(index)


class _Windows(dict):
    """The window index of cyclic word ``r``, for one pass-3 relator or
    pass-4 state.

    Maps each length ``h`` asked for to ``(starts, keys)``: a dict from
    each length-``h`` window of ``r r`` to its starts in
    ``range(len(r))``, ascending, and the set of its keys, which meets a
    piece index's prefixes without hashing a window again.  Each
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
        self[h] = starts, frozenset(starts)
        return self[h]


def _rewrites(windows, piece_index, shortest):
    """Rewrites of cyclic word ``r = windows.word`` by the indexed
    relator ``s``.

    Each replaces a piece of ``r`` that is a prefix of length ``L`` of a
    rotation ``z`` of ``s^±1``, ``shortest <= L < len(s)``, by the
    inverse of the rest of ``z``; ``shortest`` is at least half of
    ``len(s)``.  Rewrites come in scan order: by rotation, longer pieces
    first, then by start in ``r``.
    """
    doubles, index, prefixes = piece_index
    r, doubled = windows.word, windows.doubled
    m = len(doubles[0]) // 2
    h, cap = (m + 1) // 2, min(m - 1, len(r))
    if h > cap:
        return
    starts, keys = windows[h]
    hits = []
    for window in keys & prefixes:
        for zi in index[window]:
            z, at = doubles[zi // m], zi % m  # rotation zi is z[at:at + m]
            for k in starts[window]:
                top = h
                while top < cap and z[at + top] == doubled[k + top]:
                    top += 1
                # as (zi, -piece, k), which sorts in scan order
                hits += [(zi, -piece, k) for piece in range(shortest, top + 1)]
    hits.sort()
    n = len(r)
    for zi, minus, k in hits:
        # the inverse of the rest z[at + piece:at + m] of rotation zi, read
        # off the other double
        at = zi % m
        yield words.concat(doubles[1 - zi // m][m - at:2 * m - at + minus],
                           doubled[k - minus:k + n])


# per process: the first rewrite of r by s that shortens r, or None, for
# each pair (r, s) seen
_first_rewrites = {}
_UNSEEN = object()


def _shorten_step(p):
    """Rewrite the first relator ``r`` that another relator ``s`` shortens."""
    for i, r in enumerate(p.relators):
        windows = _Windows(r)     # shared by the misses of r in this step
        for j, s in enumerate(p.relators):
            if i == j or len(s) > len(r):
                continue
            new = _first_rewrites.get((r, s), _UNSEEN)
            if new is _UNSEEN:
                # a piece longer than half of s strictly shortens r
                new = _first_rewrites[r, s] = next(
                    _rewrites(windows, _piece_index(s), len(s) // 2 + 1),
                    None)
            if new is not None:
                return p.replace_relator(i, new, f"rewritten with relator {j}")
    return None


# -- pass 4: bounded consequence detection ---------------------------------

def _trivializes(target, others, expansions, classes):
    """Bounded search showing ``target`` is a consequence of ``others``.

    Breadth-limited rewriting that also admits length-preserving steps;
    states are deduplicated by cyclic normal form.  A level is searched
    as a set: its classes, sorted by ``(len, word)``, are cut to the beam,
    and an empty word anywhere in it is the answer.  The searches of one
    consequence step share two memos: ``expansions`` maps each rule to
    the classes that each state it expanded reaches, and ``classes`` maps
    each rewrite to its class.
    """
    rules = [(len(s), _piece_index(s), expansions.setdefault(s, {}))
             for s in others if s]
    if not rules:
        return False
    start = _relator_class(target)
    if not start:
        return True
    frontier = [start]
    seen = {start}
    for _ in range(_SEARCH_DEPTH):
        reached = set()
        for w in frontier:
            windows = _Windows(w)
            for m, piece_index, expanded in rules:
                if m > 2 * len(w):
                    continue
                found = expanded.get(w)
                if found is None:
                    found = expanded[w] = set()
                    for new in _rewrites(windows, piece_index, (m + 1) // 2):
                        key = classes.get(new)
                        if key is None:
                            key = classes[new] = words.cyclic_normal_form(new)
                        found.add(key)
                if () in found:
                    return True
                reached |= found
        reached -= seen
        seen |= reached
        frontier = sorted(reached, key=lambda u: (len(u), u))[:_SEARCH_BEAM]
        if not frontier:
            return False
    return False


def _consequence_step(p):
    if len(p.relators) < 2:
        return None
    order = sorted(range(len(p.relators)),
                   key=lambda i: (-len(p.relators[i]), i))
    expansions, classes = {}, {}  # per step: see _trivializes
    for i in order:
        others = p.relators[:i] + p.relators[i + 1:]
        if _trivializes(p.relators[i], others, expansions, classes):
            return p.remove_relator(i, "consequence of the others")
    return None
