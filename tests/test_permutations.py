from __future__ import annotations

import random

import pytest

from brauergraph.permutations import Permutation, cycle_string


def test_from_cycles_and_call():
    p = Permutation.from_cycles("abcd", [("a", "b", "c")])
    assert p("a") == "b" and p("c") == "a" and p("d") == "d"


def test_from_cycles_rejects_overlap():
    with pytest.raises(ValueError):
        Permutation.from_cycles("abc", [("a", "b"), ("b", "c")])


def test_not_a_bijection():
    with pytest.raises(ValueError):
        Permutation({"a": "b", "b": "b"})


def test_compose_right_to_left():
    domain = "abc"
    p = Permutation.from_cycles(domain, [("a", "b")])
    q = Permutation.from_cycles(domain, [("b", "c")])
    assert (p * q)("b") == (lambda x: p(q(x)))("b") == "c"
    assert (p * q)("c") == "a"


def test_inverse_and_power():
    p = Permutation.from_cycles("abcde", [("a", "b", "c", "d", "e")])
    assert p.inverse()("a") == "e"
    assert p.power(3, "a") == "d"
    assert p.power(-1, "a") == "e"
    assert p.power(10, "a") == "a"


def test_orbits_are_canonical():
    p = Permutation.from_cycles("abcdef", [("c", "e", "d"), ("b", "a")])
    assert p.orbits() == [("a", "b"), ("c", "e", "d"), ("f",)]
    assert p.cycles() == [("a", "b"), ("c", "e", "d")]
    assert p.fixed_points() == frozenset("f")


def test_cycle_string():
    p = Permutation.from_cycles("abc", [("a", "b")])
    assert cycle_string(p) == "(a b)"
    assert cycle_string(Permutation.from_cycles("abc", [])) == "()"


def test_involution_check():
    assert Permutation.from_cycles("ab", [("a", "b")]).is_involution()
    assert not Permutation.from_cycles("abc", [("a", "b", "c")]).is_involution()


def test_power_and_orbit_match_iteration():
    rng = random.Random(11)
    names = [f"x{i}" for i in range(12)]
    for _ in range(20):
        images = names[:]
        rng.shuffle(images)
        perm = Permutation(dict(zip(names, images)))
        for x in rng.sample(names, len(names)):
            walk = [x]
            while perm(walk[-1]) != x:
                walk.append(perm(walk[-1]))
            assert perm.orbit(x) == tuple(walk)
            for k in range(-2 * len(walk), 2 * len(walk) + 1):
                y = x
                for _ in range(k % len(walk)):
                    y = perm(y)
                assert perm.power(k, x) == y
        with pytest.raises(KeyError):
            perm.power(1, "missing")
        assert perm == Permutation(dict(zip(names, images)))


def test_mapping_is_a_fresh_editable_copy():
    p = Permutation.from_cycles("abcde", [("a", "b", "c")])
    images = p.mapping()
    assert images == {"a": "b", "b": "c", "c": "a", "d": "d", "e": "e"}
    images["a"], images["b"] = "c", "a"
    del images["e"]
    assert p == Permutation.from_cycles("abcde", [("a", "b", "c")])
    assert p("a") == "b" and p.domain == frozenset("abcde")
    assert p.mapping() is not p.mapping()


def test_image_agrees_with_single_images():
    rng = random.Random(5)
    names = [f"x{i}" for i in range(10)]
    for _ in range(20):
        images = names[:]
        rng.shuffle(images)
        perm = Permutation(dict(zip(names, images)))
        chosen = rng.sample(names, rng.randrange(len(names) + 1))
        assert perm.image(chosen) == frozenset(perm(x) for x in chosen)
    with pytest.raises(KeyError):
        perm.image(["missing"])


def test_rejected_mapping_sets_no_slot():
    # A half-built object with a non-bijective map would make repr (and a
    # test report showing the constructor's locals) walk forever.
    with pytest.raises(ValueError) as info:
        Permutation({"a": "b", "b": "b"})
    half_built = info.tb.tb_next.tb_frame.f_locals["self"]
    if hasattr(half_built, "_map"):  # no assert: its report would repr the object
        pytest.fail("the rejected mapping was stored")
