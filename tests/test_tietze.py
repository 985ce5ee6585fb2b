import hashlib
import random

import pytest

from conicline import catalog, words
from conicline.catalog import expected_groups
from conicline.errors import BudgetExceeded
from conicline.invariants import invariant_bundle
from conicline.local_models import generalized_tangency
from conicline.presentations import Presentation, replay
from conicline import tietze
from conicline.tietze import (_Windows, _elimination_candidate,
                              _first_rewrite, _piece_index, simplify)
from conicline.van_kampen import Factorization, present

CONIC = Presentation(2, [(1, 2, 1, 2), (2, 1, 2, 1)])


def test_eliminates_defined_generator():
    # x3 = x1 x2 is a pure definition; it must disappear
    p = Presentation(3, [(3, -2, -1), (1, 2, 1, 2)])
    s = simplify(p).presentation
    assert s.ngen == 2


def test_removes_duplicate_relators():
    # one cyclic class spelled three ways: rotation and inversion
    p = Presentation(2, [(1, 2, 1, 2), (2, 1, 2, 1),
                         (-2, -1, -2, -1)])
    s = simplify(p).presentation
    assert len(s.relators) == 1


def test_trace_replays_to_same_output():
    p = Presentation(3, [(3, -2, -1), (1, 2, 1, 2), (2, 1, 2, 1)])
    res = simplify(p)
    replayed = replay(p, res.trace)
    assert replayed.ngen == res.presentation.ngen
    assert replayed.relators == res.presentation.relators


def test_budget_zero_is_identity(monkeypatch):
    monkeypatch.setattr(tietze, "SIMPLIFY_BUDGET", 0)
    res = simplify(CONIC)
    assert res.presentation.relators == CONIC.relators


def test_preserves_invariant_bundle():
    p = Presentation(3, [(3, -2, -1), (1, 2, 1, 2), (2, 1, 2, 1)])
    s = simplify(p).presentation
    assert invariant_bundle(s) == invariant_bundle(CONIC)


def _padded_conic():
    """The conic pair with x3..x6 defined as x1, x2, x1 x2 and x2 x1^-1."""
    return Presentation(6, CONIC.relators + ((3, -1), (4, -2), (5, -2, -1),
                                             (6, 1, -2)))


def test_big_presentation_reaches_small_form():
    # a padded conic-pair presentation collapses back to two generators
    s = simplify(_padded_conic()).presentation
    assert s.ngen == 2
    assert invariant_bundle(s) == invariant_bundle(CONIC)


def _simplify_within(p, budget, monkeypatch):
    """``simplify(p)`` with ``SIMPLIFY_BUDGET`` patched to ``budget``."""
    with monkeypatch.context() as m:
        m.setattr(tietze, "SIMPLIFY_BUDGET", budget)
        return simplify(p)


def test_budget_boundary_sets_exhausted(monkeypatch):
    # five moves: drop the duplicate, then four eliminations (each
    # elimination records two trace entries)
    p = _padded_conic()
    full = simplify(p)
    assert not full.exhausted
    exact = _simplify_within(p, 5, monkeypatch)
    assert not exact.exhausted
    assert exact.trace == full.trace
    assert _simplify_within(p, 4, monkeypatch).exhausted
    assert _simplify_within(p, 0, monkeypatch).exhausted


def test_budget_boundary_on_rewrite_moves(monkeypatch):
    # the n = 5 tangency group needs four single-entry moves
    p = present(Factorization(5, (generalized_tangency(5)[0],)))
    full = simplify(p)
    assert len(full.trace) == 4 and not full.exhausted
    assert not _simplify_within(p, 4, monkeypatch).exhausted
    assert _simplify_within(p, 3, monkeypatch).exhausted
    assert _simplify_within(p, 0, monkeypatch).exhausted


# -- simplify is memoised by value of (ngen, relators, SIMPLIFY_BUDGET) ----

def test_memo_keys_on_budget(monkeypatch):
    p = _padded_conic()
    assert simplify(p).trace
    zero = _simplify_within(p, 0, monkeypatch)
    assert zero.exhausted and zero.trace == ()
    assert zero.presentation == p and zero.presentation.trace == p.trace
    # the restored constant is read again: the stored full run comes back
    assert simplify(p).trace and not simplify(p).exhausted


def test_memo_keys_on_generator_count():
    assert simplify(CONIC).presentation.ngen == 2
    wider = simplify(Presentation(3, CONIC.relators)).presentation
    assert wider.ngen == 3


def test_memo_appends_its_moves_to_the_callers_trace():
    p = _padded_conic().add_relators([(1, 2, 2, 1)], "extra")
    bare = simplify(Presentation(p.ngen, p.relators))
    res = simplify(p)
    assert res.trace == bare.trace and res.trace
    assert res.presentation.trace == p.trace + res.trace
    replayed = replay(p, res.trace)
    assert replayed == res.presentation
    assert replayed.trace == res.presentation.trace


# -- the piece finder against the nested scan it replaced -------------------

def _rotations(w):
    return [w[r:] + w[:r] for r in range(len(w))]


def _scan_once(r, s):
    """First strictly shortening rewrite, by the nested scan."""
    m = len(s)
    if m < 2 or len(r) < (m + 2) // 2:
        return None
    doubled = r + r
    for z in _rotations(s) + _rotations(words.inverse(s)):
        for piece_len in range(min(m - 1, len(r)), m // 2, -1):
            piece = z[:piece_len]
            for k in range(len(r)):
                if doubled[k:k + piece_len] == piece:
                    rest = doubled[k + piece_len:k + len(r)]
                    return words.concat(words.inverse(z[piece_len:]), rest)
    return None


def _random_cyclic_word(rng, ngen, length):
    w = []
    while len(w) < length:
        a = rng.choice([1, -1]) * rng.randint(1, ngen)
        if w and a == -w[-1] or len(w) == length - 1 and w and a == -w[0]:
            continue
        w.append(a)
    return tuple(w)


def _check_piece_finder(r, s):
    """The piece finder agrees with the nested scan on ``r`` and ``s``."""
    assert words.cyclic_reduce(r) == r and words.cyclic_reduce(s) == s
    windows = _Windows(r)
    once = _first_rewrite(windows, _piece_index(s))
    assert once == _scan_once(r, s), (r, s)
    return once, windows


def test_piece_finder_matches_nested_scan():
    rng = random.Random(20261018)
    shortened = 0
    for _ in range(2500):
        ngen = rng.randint(1, 3)
        s = _random_cyclic_word(rng, ngen, rng.randint(0, 14))
        r = _random_cyclic_word(rng, ngen, rng.randint(0, 14))
        if s and rng.random() < 0.5:
            # plant a long piece of a rotation of s or s^-1 in r
            z = rng.choice(_rotations(s) + _rotations(words.inverse(s)))
            r = words.cyclic_reduce(z[:rng.randint(1, len(s))] + r)[:14]
            r = words.cyclic_reduce(r)
        once, _ = _check_piece_finder(r, s)
        shortened += once is not None
    # the planted pieces make the finder do real work
    assert shortened > 500
    # words of up to 30 letters with several planted pieces, so that one
    # window of r r has several starts for the same rotation of s^±1
    repeated = 0
    for _ in range(600):
        ngen = rng.randint(1, 3)
        s = _random_cyclic_word(rng, ngen, rng.randint(2, 10))
        zs = _rotations(s) + _rotations(words.inverse(s))
        parts = []
        for _ in range(rng.randint(2, 4)):
            z = rng.choice(zs[:2] if rng.random() < 0.5 else zs)
            parts += z[:rng.randint((len(s) + 1) // 2, len(s))]
            parts += _random_cyclic_word(rng, ngen, rng.randint(0, 3))
        r = words.cyclic_reduce(words.cyclic_reduce(parts)[:30])
        _, windows = _check_piece_finder(r, s)
        repeated += any(len(starts) > 1 and window in _piece_index(s)[1]
                        for starts_of, _ in windows.values()
                        for window, starts in starts_of.items())
    assert repeated > 300


# -- generator elimination against the per-generator scan it replaced -----

def _elimination_by_nested_scan(p):
    """Smallest generator with a single occurrence, first relator first."""
    for g in range(1, p.ngen + 1):
        for i, r in enumerate(p.relators):
            occurrences = [k for k, a in enumerate(r) if abs(a) == g]
            if len(occurrences) == 1:
                return g, i, occurrences[0]
    return None


@pytest.mark.parametrize("ngen, relators, expected", [
    # x1 occurs once in both relators: the first relator wins the tie
    (2, [(2, 2, 1), (1, 2, 2)], (1, 0, 2)),
    # x1 occurs twice in the earlier relator and once in the later one
    (2, [(1, 2, 1, 2), (2, 2, 1)], (1, 1, 2)),
    # x1 occurs in no relator; x2 is the least candidate
    (3, [(3, 2, 3), (3, 3, 2)], (2, 0, 1)),
    # every generator occurs twice or not at all
    (3, [(2, 3, 2, 3)], None),
    (3, [], None),
])
def test_elimination_candidate_cases(ngen, relators, expected):
    p = Presentation(ngen, relators)
    assert _elimination_candidate(p) == expected
    assert _elimination_by_nested_scan(p) == expected


def test_elimination_candidate_matches_nested_scan():
    rng = random.Random(20261019)
    found = 0
    for _ in range(2000):
        ngen = rng.randint(1, 5)
        relators = [_random_cyclic_word(rng, ngen, rng.randint(0, 10))
                    for _ in range(rng.randint(0, 5))]
        p = Presentation(ngen, relators)
        expected = _elimination_by_nested_scan(p)
        assert _elimination_candidate(p) == expected, p.relators
        found += expected is not None
    assert 500 < found < 1900


# -- traces replay bit-for-bit: digests recorded before the piece finder ----

def _trace_digest(p):
    res = simplify(p)
    q = res.presentation
    return hashlib.sha256(
        repr((q.ngen, q.relators, res.trace)).encode()).hexdigest()


TANGENCY_DIGESTS = {
    3: "8023b6082eba30e230b36857045a3d649e20d0c16e977744d229e67c6ba6c0ef",
    4: "10e7aae72e812b4a4b5cb2b4023463bc1f8b2db62c0964419af3a40643d58f05",
    5: "798cd7e636f40b88c4878b5e7f6b6afa69ed1cda0ee0242818b35abf96c277fb",
    6: "ac46fc3480ab9ee5cdd77f930df3534cceab2930d462a46a9bb72252b697ed8d",
    7: "a5a52224761191850fa79dceabff13f9a2a8b523fa5d8b95bcad9dac171eb1c1",
}

CATALOG_DIGESTS = {
    "commuting-squares-3":
        "d80a49b1c7a4a75ad2cfa5eca70a1bd8f406396a72b7dc61f2d5ab716b7787d8",
    "conic-pair":
        "6ac325bd55ea7accf472c494b9af826c1cd027bc82e7717c9c714b5bc68d3512",
    "free-2":
        "f7d3a2d85ebef40626e0b526f8d4115e6b5b7ea05300a8b4ec1e06e466a54aaf",
    "square-commuting":
        "37c4143da1d6f2e72b34bf50badacd43e0ed28931a2e1b2652884ae98add1519",
    "triple-square":
        "09f41107f24ba604a3ffc9097047ccee2aa6aba377748bb4ea4c7572486c55a2",
    "z-plus-conic-pair":
        "63c490b71e091d65a1c43352e1a523725c93262bc6cef7ca4af39202420bdea3",
    "z-plus-free-2":
        "703996bcf1d590c01f550bbb93383abec5d6407c07370d54014bdd486c591b78",
    "z-plus-square-commuting":
        "ab374a897304c609290e032ae2cc932c83355a92866c2f155c20c1911b6a8937",
    "z2-plus-conic-pair":
        "ddf8805fa04066cc6ec8d1384678dc179ec700e3e8d08753635e2a9c1044ab1f",
}


def _process_memos():
    """Every per-process memo of ``tietze``, by name: found by scanning
    the module, so that one added later is cleared too."""
    return {name: value for name, value in vars(tietze).items()
            if hasattr(value, "cache_clear")}


def _clear_process_memos():
    for memo in _process_memos().values():
        memo.cache_clear()


def test_process_memos_are_the_pure_ones():
    # what a run reuses lives in its _FirstRewrites; only the simplify
    # memo and the two pure memos of one word outlive a run, and no
    # module-level dict serves as a memo
    assert sorted(_process_memos()) == [
        "_piece_index", "_relator_class", "_simplified"]
    assert not [name for name, value in vars(tietze).items()
                if isinstance(value, (dict, set, list))
                and not name.startswith("__")]


def test_pass_3_indexes_each_relator_once_per_run(monkeypatch):
    # a relator's window index lives for the whole run: in a cold run,
    # pass 3 never indexes one (relator, length) pair twice
    builds, in_pass_3 = [], []
    missing, shorten = _Windows.__missing__, tietze._shorten_step

    def counted_missing(windows, h):
        if in_pass_3:
            builds.append((windows.word, h))
        return missing(windows, h)

    def flagged_shorten(*args):
        in_pass_3.append(True)
        try:
            return shorten(*args)
        finally:
            in_pass_3.pop()

    monkeypatch.setattr(_Windows, "__missing__", counted_missing)
    monkeypatch.setattr(tietze, "_shorten_step", flagged_shorten)
    for n in range(3, 8):
        g = present(Factorization(n, (generalized_tangency(n)[0],)))
        _clear_process_memos()
        builds.clear()
        simplify(g)
        assert builds, n
        assert len(set(builds)) == len(builds), n


def test_pass_3_index_past_its_bound_is_refused_unbuilt(monkeypatch):
    # no relator is a duplicate or defines a generator, so pass 3 rewrites
    # r by s first: the piece index of s holds 8 prefixes of 2 letters,
    # and r's window index 8 windows of 2 letters
    s, r = (1, 1, 2, 2), (1, 1, 2, 2, 1, 2, 1, 2)
    p = Presentation(2, [s, r])
    _clear_process_memos()
    monkeypatch.setattr(tietze, "MAX_INDEX_LETTERS", 16)
    assert simplify(p).trace[0].kind == "replace_relator"

    def never(*args):
        raise AssertionError("an index was built")

    _clear_process_memos()
    monkeypatch.setattr(tietze, "MAX_INDEX_LETTERS", 15)
    monkeypatch.setattr(tietze, "_piece_index", never)
    monkeypatch.setattr(tietze, "_Windows", never)
    with pytest.raises(BudgetExceeded, match="exceed 15 letters"):
        simplify(p)


def test_traces_do_not_depend_on_warm_memos():
    # every memo is keyed by value: a run whose piece indexes and relator
    # classes were filled by other groups makes the moves of a cold run
    groups = dict(expected_groups())
    for n in sorted(TANGENCY_DIGESTS):
        groups[f"tangency-{n}"] = present(
            Factorization(n, (generalized_tangency(n)[0],)))
    cold = {}
    for name, g in groups.items():
        _clear_process_memos()
        cold[name] = simplify(g)
    for name, g in groups.items():
        _clear_process_memos()
        for other, h in groups.items():
            if other != name:
                simplify(h)
        tietze._simplified.cache_clear()  # run the engine, not the memo
        warm = simplify(g)
        assert warm.trace == cold[name].trace, name
        assert warm.presentation == cold[name].presentation, name
        assert warm.exhausted == cold[name].exhausted, name


def test_fixed_budget_is_never_reached():
    # SIMPLIFY_BUDGET is every caller's budget, verification included, so
    # it must not bind on any group the repo verifies or benchmarks
    groups = dict(expected_groups())
    for entry_id in catalog.list_entries():
        derived, _ = catalog._derivation(catalog.get_entry(entry_id))
        if derived is not None:
            groups[f"entry {entry_id}"] = derived
    for n in range(3, 8):
        groups[f"tangency-{n}"] = present(
            Factorization(n, (generalized_tangency(n)[0],)))
    assert len(groups) == 9 + 7 + 5
    for name, g in groups.items():
        assert not simplify(g).exhausted, name


@pytest.mark.parametrize("n", sorted(TANGENCY_DIGESTS))
def test_tangency_trace_digest(n):
    p = present(Factorization(n, (generalized_tangency(n)[0],)))
    assert _trace_digest(p) == TANGENCY_DIGESTS[n]


def test_catalog_trace_digests():
    groups = expected_groups()
    assert sorted(groups) == sorted(CATALOG_DIGESTS)
    for name, g in groups.items():
        assert _trace_digest(g) == CATALOG_DIGESTS[name], name
