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
    assert cycle_string(Permutation.identity("abc")) == "()"


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
