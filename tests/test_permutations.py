import random
import time
import tracemalloc

import pytest

from engelgraph import IDENTITY, Permutation, closure


def test_identity_basics():
    assert IDENTITY.degree == 0
    assert IDENTITY.is_identity
    assert str(IDENTITY) == "()"
    p = Permutation.from_cycles([(1, 3, 2)])
    assert p * IDENTITY == p
    assert IDENTITY * p == p


def test_involution_squares_to_identity():
    t = Permutation.from_cycles([(1, 2)])
    assert t * t == IDENTITY
    assert t.inverse() == t


def test_left_to_right_composition():
    # apply (1,2) first, then (2,3): 1 -> 2 -> 3, 2 -> 1, 3 -> 2
    t12 = Permutation.from_cycles([(1, 2)])
    t23 = Permutation.from_cycles([(2, 3)])
    assert t12 * t23 == Permutation.from_cycles([(1, 3, 2)])


def test_inverse_of_three_cycle():
    c = Permutation.from_cycles([(1, 2, 3)])
    assert c.inverse() == Permutation.from_cycles([(1, 3, 2)])
    assert IDENTITY.inverse() == IDENTITY


def test_padding_equality():
    assert Permutation((2, 1)) == Permutation((2, 1, 3))
    assert hash(Permutation((2, 1))) == hash(Permutation((2, 1, 3, 4)))
    assert Permutation((2, 1)).degree == 2


def test_wide_point_label_strips_in_one_slice():
    # the order-4 group of (1,2) and (3,d) pads every element to d images;
    # stripping trailing fixed points one slice at a time took quadratic
    # time (1.4 s at d = 20,000), one cut takes about 0.2 s at d = 200,000
    d = 200_000
    start = time.process_time()
    wide = Permutation.from_cycles([(3, d)])
    G = closure([Permutation.from_cycles([(1, 2)]), wide])
    assert time.process_time() - start < 10
    assert G.order == 4 and wide.degree == d
    assert sorted(p.degree for p in G.elements) == [0, 2, d, d]
    assert Permutation(range(1, d + 1)) == IDENTITY


def test_wide_point_label_parses_into_one_image_list():
    # (3,d) is parsed into the images of 1..d: one list, one tuple and d
    # ints, about 44 bytes per point; a second bijection check on those
    # images made two more lists of d entries, about 92 bytes per point
    d = 200_000
    tracemalloc.start()
    try:
        wide = Permutation.from_cycles([(3, d)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wide.degree == d and wide(3) == d and wide(d) == 3 and wide(4) == 4
    assert peak < 64 * d


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((2,))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_call_is_one_based_and_fixes_beyond_degree():
    p = Permutation.from_cycles([(1, 2)])
    assert p(1) == 2 and p(2) == 1 and p(17) == 17
    with pytest.raises(ValueError):
        p(0)


def test_from_cycles_rejects_repeats():
    with pytest.raises(ValueError):
        Permutation.from_cycles([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Permutation.from_cycles([(0, 1)])


def test_cycles_normal_form():
    p = Permutation.from_cycles([(4, 5), (1, 2, 3)])
    assert p.cycles() == [(1, 2, 3), (4, 5)]
    assert str(p) == "(1,2,3)(4,5)"
    assert p.order() == 6


def test_power():
    c = Permutation.from_cycles([(1, 2, 3, 4, 5)])
    assert c**5 == IDENTITY
    assert c**-1 == c.inverse()
    assert c**7 == c * c


def _random_perm(rng, degree):
    imgs = list(range(1, degree + 1))
    rng.shuffle(imgs)
    return Permutation(imgs)


def test_random_associativity_and_inverses():
    rng = random.Random(7)
    for _ in range(300):
        p, q, r = (_random_perm(rng, rng.randint(0, 8)) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * p.inverse() == IDENTITY
        assert p.inverse() * p == IDENTITY


def test_lexicographic_sorting_is_deterministic():
    rng = random.Random(11)
    perms = [_random_perm(rng, rng.randint(0, 6)) for _ in range(40)]
    once = sorted(perms)
    again = sorted(reversed(perms))
    assert once == again
    assert once[0] == min(perms)
