"""Budgeted greedy simplification of finite presentations.

The engine repeats four deterministic passes until nothing changes or
the move budget runs out:

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
prefix of length ``(len(s) + 1) // 2``, the shortest admissible piece,
so each start in ``r r`` costs one dict lookup plus a letter-by-letter
extension of its hits.  The index is built once per relator for each
pass-3 step and each pass-4 search.  Pass 3 takes the first rewrite, in
scan order, whose piece is longer than half of ``s``; pass 4 takes them
all.

Every move is recorded in the presentation trace, so the output replays
bit-for-bit from the input.  The engine never claims non-equivalence:
running out of budget only means failure-to-match within budget.
"""

from dataclasses import dataclass

from . import words
from .presentations import Presentation

# Bounds of the pass-4 consequence search; fixed so traces reproduce.
_SEARCH_BEAM = 600
_SEARCH_DEPTH = 24


@dataclass
class SimplifyResult:
    presentation: Presentation
    trace: tuple
    exhausted: bool


def simplify(p, budget=10000):
    """Greedy Tietze simplification within ``budget`` steps.

    Each step applies the first applicable move in the fixed pass order.
    The budget counts steps, not trace entries: a generator elimination
    is one step that records two entries (``remove_relator``, then
    ``eliminate``).  ``exhausted`` is true when a step was still
    applicable as the budget ran out.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    start_len = len(p.trace)
    q = _one_step(p)
    for _ in range(budget):
        if q is None:
            break
        p, q = q, _one_step(q)
    # a move still applicable means the budget, not a fixpoint, stopped it
    return SimplifyResult(p, p.trace[start_len:], q is not None)


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

def _dedup_step(p):
    seen = set()
    for i, r in enumerate(p.relators):
        if not r:
            return p.remove_relator(i, "trivial")
        key = words.cyclic_normal_form(r)
        if key in seen:
            return p.remove_relator(i, "duplicate")
        seen.add(key)
    return None


# -- pass 2: generator elimination -----------------------------------------

def _elimination_candidate(p):
    """Smallest generator with a single occurrence in some relator."""
    for g in range(1, p.ngen + 1):
        for i, r in enumerate(p.relators):
            occurrences = [k for k, a in enumerate(r) if abs(a) == g]
            if len(occurrences) == 1:
                return g, i, occurrences[0]
    return None


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

def _piece_index(s):
    """The rotations of ``s`` and of ``s^-1``, indexed by prefix.

    Returns ``(rotations, index)``: the ``2 len(s)`` rotations in scan
    order, and a dict from each prefix of length ``(len(s) + 1) // 2``
    (the shortest admissible piece) to the rotations that start with it.
    """
    rotations = [z[i:] + z[:i] for z in (s, words.inverse(s))
                 for i in range(len(s))]
    index = {}
    for zi, z in enumerate(rotations):
        index.setdefault(z[:(len(s) + 1) // 2], []).append(zi)
    return rotations, index


def _rewrites(r, piece_index, shortest):
    """Rewrites of cyclic relator ``r`` by the indexed relator ``s``.

    Each replaces a piece of ``r`` that is a prefix of length ``L`` of a
    rotation ``z`` of ``s^±1``, ``shortest <= L < len(s)``, by the
    inverse of the rest of ``z``; ``shortest`` is at least half of
    ``len(s)``.  Rewrites come in scan order: by rotation, longer pieces
    first, then by start in ``r``.
    """
    rotations, index = piece_index
    m = len(rotations) // 2
    h, cap = (m + 1) // 2, min(m - 1, len(r))
    doubled = r + r
    hits = []
    for k in range(len(r) if h <= cap else 0):
        for zi in index.get(doubled[k:k + h], ()):
            z, top = rotations[zi], h
            while top < cap and z[top] == doubled[k + top]:
                top += 1
            hits.extend((zi, piece, k) for piece in range(shortest, top + 1))
    hits.sort(key=lambda hit: (hit[0], -hit[1], hit[2]))
    for zi, piece, k in hits:
        yield words.concat(words.inverse(rotations[zi][piece:]),
                           doubled[k + piece:k + len(r)])


def _shorten_step(p):
    indexes = [_piece_index(s) for s in p.relators]
    for i, r in enumerate(p.relators):
        for j, s in enumerate(p.relators):
            if i == j or len(s) > len(r):
                continue
            # a piece longer than half of s strictly shortens r
            new = next(_rewrites(r, indexes[j], len(s) // 2 + 1), None)
            if new is not None and len(words.cyclic_reduce(new)) < len(r):
                return p.replace_relator(i, new, f"rewritten with relator {j}")
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
    start = words.cyclic_normal_form(target)
    if not start:
        return True
    frontier = [start]
    seen = {start}
    for _ in range(_SEARCH_DEPTH):
        next_frontier = []
        for w in frontier:
            for m, piece_index in rules:
                if m > 2 * len(w):
                    continue
                for new in _rewrites(w, piece_index, (m + 1) // 2):
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
