"""Freely reduced words in a free group.

A word is a tuple of nonzero integers: ``k`` stands for the generator
``x_k`` and ``-k`` for its inverse.  All public functions return freely
reduced tuples, so words compare with ``==``.
"""

import operator
import re

from .errors import ParseError

# The largest exponent of a letter in the text syntax: a power such as
# ``x1^5`` is expanded into its letters, so the bound is checked before.
MAX_EXPONENT = 1000


def _is_reduced(w):
    """No letter of ``w`` is 0 or next to its inverse."""
    if 0 in w:
        return False
    prev = 0
    for a in w:
        if a == -prev:
            return False
        prev = a
    return True


def reduce(letters):
    """Freely reduce a sequence of signed letters.

    Idempotent and length-nonincreasing; the empty tuple is the identity.
    A tuple that is already freely reduced is returned as it is, after
    one pass that checks it.
    """
    if type(letters) is tuple and _is_reduced(letters):
        return letters
    out = []
    for a in letters:
        if a == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def concat(*words):
    """The freely reduced product of ``words``, left to right.

    Letters cancel only where two parts meet.  The product is then
    checked, and reduced in full only when some part was not reduced.
    """
    out = ()
    for w in words:
        w = tuple(w)
        n = len(out)
        k, top = 0, min(n, len(w))
        # a letter 0 never cancels, so that reduce refuses it
        while k < top and w[k] and out[n - 1 - k] == -w[k]:
            k += 1
        out = out[:n - k] + w[k:]
    return reduce(out)


def inverse(w):
    return tuple(map(operator.neg, reversed(w)))


def relator(u, v=()):
    """The relator ``u v^-1`` of the relation ``u = v``."""
    return concat(tuple(u), inverse(tuple(v)))


def cyclic_reduce(w):
    """Strip matching first/last letters; the result is cyclically reduced."""
    w = reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def cyclic_normal_form(w):
    """Least rotation of the cyclic reduction of ``w`` or its inverse.

    Used as a canonical representative of a relator up to cyclic
    permutation, inversion and free reduction; linear in ``len(w)``.
    """
    w = cyclic_reduce(w)
    if not w:
        return w
    # the least rotations of w and w^-1 start with min(w) and -max(w):
    # unless those are equal, only one of the two can win
    low, high = min(w), -max(w)
    if low != high:
        return _least_rotation(w if low < high else inverse(w))
    return min(_least_rotation(w), _least_rotation(inverse(w)))


def _least_rotation(w):
    """The least rotation of ``w``, by the two-pointer minimum-expression
    scan over ``w w``; linear in ``len(w)``.

    ``i`` and ``j`` are the two candidate starts still alive and ``k``
    the length of their common prefix.  At the first mismatch the start
    with the larger letter loses, and so does every start up to ``k``
    past it: the start as far past the other candidate reads smaller.
    Only a start that reads the least letter can win, so a candidate
    moves on to the next such start; one that reaches ``len(w)`` has
    been ruled out, and the other one begins the least rotation.
    """
    n = len(w)
    if not n:
        return w
    s, low = w + w, min(w)
    # s.index(low, min(p, n)) is the next start at or past p that reads
    # the least letter; as that letter recurs at n + w.index(low), a
    # result of n or more means there is none
    i = s.index(low)
    j, k = s.index(low, i + 1), 0
    while i < n and j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i = s.index(low, min(i + k + 1, n))
        else:
            j = s.index(low, min(j + k + 1, n))
        if i == j:
            j = s.index(low, min(j + 1, n))
        k = 0
    i = min(i, j)
    return s[i:i + n]


def generators_of(w):
    return set(map(abs, w))


def max_generator(w):
    return max(map(abs, w), default=0)


def substitute_letters(w, images):
    """Map each generator ``g`` to ``images[g]`` (a word) and reduce.

    ``images`` maps positive generator indices to words; inverses map to
    the inverse word automatically.
    """
    out = []
    for a in w:
        img = images[abs(a)]
        out.extend(img if a > 0 else inverse(img))
    return reduce(out)


_XGEN = re.compile(r"^x(\d+)$")


def parse_word(text, names=None):
    """Parse the ``x1 x2^-1 x1^2`` syntax into a word.

    ``e``, ``1`` or an empty string is the identity.  With ``names`` given,
    tokens are looked up there before falling back to the ``x<index>``
    form.
    """
    text = text.strip()
    if text in ("", "e", "1"):
        return ()
    letters = []
    for token in text.split():
        base, caret, exp_text = token.partition("^")
        if caret:
            try:
                exp = int(exp_text)
            except ValueError:
                raise ParseError(f"bad exponent in {token!r}") from None
        else:
            exp = 1
        if exp == 0:
            raise ParseError(f"zero exponent in {token!r}")
        if abs(exp) > MAX_EXPONENT:
            raise ParseError(f"exponent of {token!r} is beyond "
                             f"{MAX_EXPONENT} in absolute value")
        if names is not None and base in names:
            idx = names.index(base) + 1
        else:
            m = _XGEN.match(base)
            if not m:
                raise ParseError(f"unknown generator {token!r}")
            idx = int(m.group(1))
        if idx < 1:
            raise ParseError(f"generator index must be >= 1 in {token!r}")
        letters.extend([idx if exp > 0 else -idx] * abs(exp))
    return reduce(letters)


def format_word(w, names=None):
    """Inverse of :func:`parse_word`; collapses runs into caret powers."""
    if not w:
        return "e"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        g = abs(w[i])
        name = names[g - 1] if names else f"x{g}"
        n = (j - i) * (1 if w[i] > 0 else -1)
        parts.append(name if n == 1 else f"{name}^{n}")
        i = j
    return " ".join(parts)
