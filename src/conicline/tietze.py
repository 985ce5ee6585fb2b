"""Budgeted greedy simplification of finite presentations.

The engine repeats three deterministic passes until nothing changes or
the move budget, the constant ``SIMPLIFY_BUDGET``, runs out:

1. drop trivial and duplicate relators (duplicates up to cyclic
   permutation, inversion and free reduction),
2. eliminate a generator that occurs exactly once in some relator
   (candidates tried by ascending generator index),
3. shorten a relator by rewriting it against another relator whenever
   they share more than half of the shorter one.

Pass 3 reads one piece finder.  A piece of relator ``r`` is a prefix,
longer than half of ``s``, of a rotation of relator ``s`` or of
``s^-1``; rewriting replaces it by the inverse of the rest of that
rotation, so ``r`` gets shorter.  The rotations of ``s`` and ``s^-1``
are indexed by their prefix of length ``h = (len(s) + 1) // 2``, read
as the length-``h`` windows of ``s s`` and ``s^-1 s^-1``, and the word
``r`` by its windows: each length-``h`` window of ``r r`` maps to its
starts.  One intersection of the two key sets, each a set that keeps
its keys' hashes, finds every start where a piece can begin, and each
hit is extended letter by letter along the doubled relator.  The first
rewrite in scan order (by rotation, longer pieces first, then by start
in ``r``) is the least hit; only its rotation is sliced out, and the
rewrite cancels letters only where its two parts meet.

Work is memoised by value, never by identity, at two scopes:

* per process: :func:`simplify` itself on ``(ngen, relators,
  SIMPLIFY_BUDGET)``, the budget as read at the call, so a patched
  constant never meets a stale result (the moves never depend on the
  input's trace, so each call appends the stored moves to its own), and
  two pure memos of one word, each relator's piece index and its cyclic
  normal form (the pass-1 key), whose reuse crosses runs: 39 of 233 and
  400 of 1053 lookups in a ``catalog`` benchmark pass hit an entry made
  by an earlier run;
* per run (a :class:`_FirstRewrites`, made for each engine run of
  :func:`simplify` and shared by its steps): the first pass-3 rewrite
  of ``r`` by ``s`` (or none) for each pair ``(r, s)``, so a step pays
  only for the pairs that the last move changed, and the window index of
  each relator that it reads.  These die with the run: only 11 of the
  233 first rewrites found in a ``catalog`` pass, and none of 120 in a
  ``tangency`` pass, had been found by an earlier run, and a memo kept
  per process would grow with every presentation simplified.  Kept for
  one step only, a relator's window index was rebuilt 35 times of the
  70 builds of a ``tangency`` pass.

Every move is recorded in the presentation trace, so the output replays
bit-for-bit from the input.  The engine never claims non-equivalence:
running out of budget only means failure-to-match within budget.
"""

import functools

from . import words
from .presentations import _build
from .records import Record

# Steps per ``simplify`` call, read at each call: every caller's budget,
# verification and ``conicline simplify`` included.
SIMPLIFY_BUDGET = 20000


class SimplifyResult(Record):
    """The simplified presentation, the moves that made it, and whether
    the budget ran out."""

    __slots__ = ("presentation", "trace", "exhausted")

    def __init__(self, presentation, trace, exhausted):
        self._fill(presentation, trace, exhausted)


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
    first_rewrites = _FirstRewrites()
    p = _build(ngen, relators, ())
    q = _one_step(p, first_rewrites)
    for _ in range(budget):
        if q is None:
            break
        p, q = q, _one_step(q, first_rewrites)
    # a move still applicable means the budget, not a fixpoint, stopped it
    return p.ngen, p.relators, p.trace, q is not None


def _one_step(p, first_rewrites):
    """Apply the first applicable move in the fixed pass order."""
    step = _dedup_step(p)
    if step is not None:
        return step
    step = _elimination_step(p)
    if step is not None:
        return step
    return _shorten_step(p, first_rewrites)


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


# -- pass 3: the piece finder ----------------------------------------------

@functools.lru_cache(maxsize=None)
def _piece_index(s):
    """The rotations of ``s`` and of ``s^-1``, indexed by prefix.

    Returns ``(doubles, index, prefixes)``: ``(s s, s^-1 s^-1)``, a
    dict from each prefix of length ``(len(s) + 1) // 2`` (no longer
    than the shortest admissible piece) to the rotations that start with
    it, in scan order, and the set of those prefixes.  Rotation ``zi`` of
    the ``2 len(s)`` is the length-``len(s)`` window of ``doubles[zi //
    len(s)]`` at ``zi % len(s)``; only the prefix windows are copied
    here, and a rotation is read only on a hit.
    """
    m, h = len(s), (len(s) + 1) // 2
    doubles = (s + s, words.inverse(s) * 2)
    index = {}
    for zi in range(2 * m):
        start = zi % m
        index.setdefault(doubles[zi // m][start:start + h], []).append(zi)
    return doubles, index, frozenset(index)


class _Windows(dict):
    """The window index of relator ``r``, built once per run.

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


def _first_rewrite(windows, piece_index):
    """The first rewrite of cyclic word ``r = windows.word`` by the
    indexed relator ``s`` that shortens ``r``, or None.

    It replaces a piece of ``r`` that is a prefix of length ``L`` of a
    rotation ``z`` of ``s^±1``, ``len(s) / 2 < L < len(s)``, by the
    inverse of the rest of ``z``.  The first in scan order is the least
    ``(rotation, -L, start in r)`` over the hits, each hit extended to
    its longest piece.
    """
    doubles, index, prefixes = piece_index
    r, doubled = windows.word, windows.doubled
    m = len(doubles[0]) // 2
    h, cap = (m + 1) // 2, min(m - 1, len(r))
    if h > cap:
        return None
    starts, keys = windows[h]
    best = None
    for window in keys & prefixes:
        for zi in index[window]:
            z, at = doubles[zi // m], zi % m  # rotation zi is z[at:at + m]
            for k in starts[window]:
                top = h
                while top < cap and z[at + top] == doubled[k + top]:
                    top += 1
                # a piece longer than half of s strictly shortens r
                if 2 * top > m and (best is None or (zi, -top, k) < best):
                    best = zi, -top, k
    if best is None:
        return None
    # the inverse of the rest z[at + piece:at + m] of rotation zi, read off
    # the other double
    zi, minus, k = best
    at = zi % m
    return words.concat(doubles[1 - zi // m][m - at:2 * m - at + minus],
                        doubled[k - minus:k + len(r)])


class _FirstRewrites(dict):
    """The memo of one engine run of :func:`simplify`, shared by its
    steps: ``self[r, s]`` is the first rewrite of ``r`` by ``s`` that
    shortens ``r``, or None.  The window index of each relator ``r``
    that it reads is built once.
    """

    def __init__(self):
        self.windows = {}

    def __missing__(self, rs):
        r, s = rs
        windows = self.windows.get(r)
        if windows is None:
            windows = self.windows[r] = _Windows(r)
        self[rs] = new = _first_rewrite(windows, _piece_index(s))
        return new


def _shorten_step(p, first_rewrites):
    """Rewrite the first relator ``r`` that another relator ``s`` shortens."""
    for i, r in enumerate(p.relators):
        for j, s in enumerate(p.relators):
            if i == j or len(s) > len(r):
                continue
            new = first_rewrites[r, s]
            if new is not None:
                return p.replace_relator(i, new, f"rewritten with relator {j}")
    return None
