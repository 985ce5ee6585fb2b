import pytest

from conicline import words
from conicline.braids import (BraidWord, action_equal, artin_apply,
                              block_around, braid_permutation, format_braid,
                              full_twist, half_block_around, half_twist,
                              parse_braid, standard_gbase)
from conicline.errors import (BadBlock, NonAdjacentMover, ParseError,
                               StrandMismatch)


def test_artin_generator_action():
    g = standard_gbase(3)
    out = artin_apply(BraidWord(3, (1,)), g)
    # sigma_1: e1 -> e2, e2 -> e2 e1 e2^-1
    assert out == ((2,), (2, 1, -2), (3,))


def test_artin_inverse_generator_action():
    g = standard_gbase(3)
    b = BraidWord(3, (1,))
    assert artin_apply(b.inverse(), artin_apply(b, g)) == g


def test_artin_preserves_ordered_product():
    g = standard_gbase(4)
    b = BraidWord(4, (1, -2, 3, 3, -1))
    out = artin_apply(b, g)
    assert words.concat(*reversed(out)) == words.concat(*reversed(g))


def test_strand_mismatch():
    with pytest.raises(StrandMismatch):
        artin_apply(BraidWord(3, (1,)), standard_gbase(4))


def test_half_twist_squared_is_full_twist():
    ht = half_twist(4, 1, 4)
    assert action_equal(ht * ht, full_twist(4, 1, 4))


def test_half_twist_adjacent_is_generator():
    assert action_equal(half_twist(3, 2, 3), BraidWord(3, (2,)))


def test_full_twist_is_central():
    d2 = full_twist(4, 1, 4)
    for i in (1, 2, 3):
        s = BraidWord(4, (i,))
        assert action_equal(d2 * s, s * d2)


def test_product_left_factor_first():
    # permutations compose with the left factor acting first
    b1 = BraidWord(3, (1,))
    b2 = BraidWord(3, (2,))
    # strand 1 crosses at sigma_1 then sigma_2, ending at position 3
    p = braid_permutation(b1 * b2)
    assert p == (3, 1, 2)


def test_block_around_leaves_positions_fixed():
    b = block_around(4, 1, 2, 3)
    assert braid_permutation(b) == (1, 2, 3, 4)


def test_block_around_rejects_bad_input():
    # both constructors share one check
    for around in (block_around, half_block_around):
        for args, error in [((4, 1, 3, 2), BadBlock),
                            ((4, 1, 2, 5), BadBlock),
                            ((5, 5, 1, 3), NonAdjacentMover),
                            ((5, 1, 3, 4), NonAdjacentMover)]:
            with pytest.raises(error):
                around(*args)


@pytest.mark.parametrize("around, twist", [(block_around, full_twist),
                                           (half_block_around, half_twist)])
@pytest.mark.parametrize("mover, i, lo, hi", [(1, 2, 1, 2), (3, 2, 2, 3),
                                              (4, 3, 3, 4)])
def test_one_strand_block_gives_the_merged_twist(around, twist, mover, i,
                                                 lo, hi):
    # a one-strand block has no inner twist to cancel
    assert around(4, mover, i, i) == twist(4, lo, hi)


def test_action_equal_ignores_word_spelling():
    # the braid relation: s1 s2 s1 = s2 s1 s2
    assert action_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert not action_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))


def test_format_parse_round_trip():
    for b in [BraidWord(4, (1, -2, 3, 3)), BraidWord(2)]:
        assert parse_braid(format_braid(b), b.strands) == b


def test_power():
    b = BraidWord(3, (1,))
    assert (b ** 3).letters == (1, 1, 1)
    assert action_equal(b ** -1, b.inverse())


def test_parse_braid_accepts_only_artin_generators():
    assert parse_braid("s2^-1 s1^2", 3).letters == (-2, 1, 1)
    assert parse_braid("e", 3) == BraidWord(3)
    # bare indices and free-group letters are not braid generators, so
    # a Lefschetz-table row such as "1 2 1 s2" is not read as a braid
    for text in ("1 2", "x1", "s1 1", "s3", "1"):
        with pytest.raises(ParseError):
            parse_braid(text, 3)
