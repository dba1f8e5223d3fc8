"""Group layer: normalization, freeness, recursion, continued fractions."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewarp.errors import NotFreeError, UnsupportedCaseError
from conewarp.groups import (
    acts_freely,
    cyclic_group,
    deserialize_group,
    element_set_key,
    generate_elements,
    hj_continued_fraction,
    hj_reconstruct,
    noncyclic_group,
    normalize_cyclic,
    resolution_step,
    resolution_tree,
    serialize_group,
)


def binary_dihedral_generators(m: int):
    """Binary dihedral group of order 4m inside SU(2)."""
    a = np.diag([np.exp(1j * np.pi / m), np.exp(-1j * np.pi / m)])
    b = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    return [a, b]


def test_normalize_examples():
    assert normalize_cyclic(5, 2, 2) == (5, 1, 1)
    assert normalize_cyclic(5, 1, 3) == (5, 1, 3)
    with pytest.raises(NotFreeError):
        normalize_cyclic(4, 1, 2)


def test_normalize_preserves_group_and_idempotent():
    for n in range(2, 40):
        for k in range(1, n):
            for l in range(1, n):
                if gcd(k, n) != 1 or gcd(l, n) != 1:
                    continue
                nn, kk, pp = normalize_cyclic(n, k, l)
                assert (nn, kk) == (n, 1)
                assert normalize_cyclic(nn, kk, pp) == (nn, kk, pp)
                a = element_set_key(generate_elements(cyclic_group(n, k, l)))
                b = element_set_key(generate_elements(cyclic_group(nn, kk, pp)))
                assert a == b


def test_acts_freely_examples():
    free, _ = acts_freely(cyclic_group(5, 1, 3))
    assert free
    free, witness = acts_freely(cyclic_group(4, 1, 2))
    assert not free
    vec = witness["fixed_vector"]
    # the fixed axis is (z, 0) direction... for l=2 with gcd 2: axis (0, w)? check fixes
    g = witness["element"]
    np.testing.assert_allclose(g @ vec, vec, atol=1e-9)


def test_acts_freely_fast_path_equals_brute_force_small():
    for n in range(2, 30):
        for k in range(1, n):
            for l in range(1, n):
                fast, _ = acts_freely(cyclic_group(n, k, l))
                slow, _ = acts_freely(cyclic_group(n, k, l), brute_force=True)
                assert fast == slow, (n, k, l)


def test_binary_dihedral_free_and_brute():
    desc = noncyclic_group(binary_dihedral_generators(3))
    elems = generate_elements(desc)
    assert len(elems) == 12
    free, _ = acts_freely(desc)
    assert free
    assert resolution_tree(desc).note == "central order 2"  # {+-I}


def test_resolution_step_examples():
    child = resolution_step(5, 3)
    assert child.n == 3
    # Gamma_{3,2,2} = Gamma_{3,1,1} as element sets
    a = element_set_key(generate_elements(child))
    b = element_set_key(generate_elements(cyclic_group(3, 1, 1)))
    assert a == b
    child = resolution_step(7, 3)
    assert child.n == 3
    leaf = resolution_step(7, 1)
    assert leaf.is_trivial


@pytest.mark.parametrize("n", range(2, 51))
def test_resolution_step_two_descriptions_agree(n):
    for p in range(1, n):
        if gcd(n, p) != 1:
            continue
        resolution_step(n, p)  # raises if the two descriptions disagree


def test_resolution_tree_chain():
    tree = resolution_tree(cyclic_group(5, 1, 3))
    orders = []
    node = tree
    while True:
        orders.append(node.order())
        if not node.children:
            break
        assert len(node.children) == 1
        node = node.children[0]
    assert orders == [5, 3, 1]


def test_resolution_tree_order2():
    tree = resolution_tree(cyclic_group(2, 1, 1))
    assert tree.order() == 2
    assert tree.children[0].group.is_trivial


def test_resolution_tree_terminates_and_decreases():
    for n in range(2, 40):
        for p in range(1, n):
            if gcd(n, p) != 1:
                continue
            tree = resolution_tree(cyclic_group(n, 1, p))
            node, prev = tree, None
            steps = 0
            while node.children:
                assert len(node.children) == 1
                child = node.children[0]
                assert child.order() < node.order()
                node = child
                steps += 1
                assert steps <= n
            assert node.group.is_trivial


def test_resolution_tree_noncyclic():
    desc = noncyclic_group(binary_dihedral_generators(3))
    tree = resolution_tree(desc)
    assert tree.order() == 12
    assert len(tree.children) >= 1
    for c in tree.children:
        assert c.order() <= tree.order()
    text = "\n".join(tree.as_text())
    assert "order" in text


def quaternion(a, b, c, d):
    """a + b i + c j + d k as a matrix of SU(2)."""
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


GOLDEN_RATIO = (1 + 5 ** 0.5) / 2


@pytest.mark.parametrize("gens,orbits,children", [
    (binary_dihedral_generators(3), [3, 3, 2], [(4, 1, 3), (4, 1, 3), (6, 1, 5)]),
    ([quaternion(2 ** -0.5, 2 ** -0.5, 0, 0), quaternion(0.5, 0.5, 0.5, 0.5)],
     [6, 12, 8], [(8, 1, 7), (4, 1, 3), (6, 1, 5)]),
    ([quaternion(0.5, 0.5, 0.5, 0.5), quaternion(GOLDEN_RATIO / 2, 0.5, 0.5 / GOLDEN_RATIO, 0)],
     [30, 20, 12], [(4, 1, 3), (6, 1, 5), (10, 1, 9)]),
], ids=["D12", "O48", "I120"])
def test_singular_orbits_of_the_polyhedral_groups(gens, orbits, children):
    """The singular orbits on CP^1 of the order-12 binary dihedral, binary
    octahedral and binary icosahedral groups: each orbit size times its
    stabilizer's order is the group order, and O48 has its order-8 vertex
    stabilizer."""
    tree = resolution_tree(noncyclic_group(gens))
    assert [c.note for c in tree.children] == [f"orbit size {k}" for k in orbits]
    assert [(c.group.n, c.group.k, c.group.l) for c in tree.children] == children
    assert all(k * c.order() == tree.order() for k, c in zip(orbits, tree.children))


def test_resolution_tree_noncyclic_trivial_center_rejected():
    # order-3 cyclic embedded as "noncyclic" descriptor with trivial center
    g = np.diag([np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    desc = noncyclic_group([g], label="fake")
    with pytest.raises(UnsupportedCaseError):
        resolution_tree(desc)


def test_hj_examples():
    assert hj_continued_fraction(5, 3) == [2, 3]
    assert hj_continued_fraction(7, 1) == [7]
    coeffs = hj_continued_fraction(7, 3)
    assert all(a >= 2 for a in coeffs)
    assert hj_reconstruct(coeffs) == Fraction(7, 3)


@given(st.integers(min_value=2, max_value=500))
@settings(max_examples=60, deadline=None)
def test_hj_reconstruction_property(n):
    for p in range(1, n):
        if gcd(n, p) != 1:
            continue
        coeffs = hj_continued_fraction(n, p)
        assert all(a >= 2 for a in coeffs)
        assert hj_reconstruct(coeffs) == Fraction(n, p)
        break  # one coprime p per drawn n keeps the property cheap


def test_group_serialization_roundtrip():
    d1 = cyclic_group(7, 1, 3)
    d2 = deserialize_group(serialize_group(d1))
    assert (d2.n, d2.k, d2.l) == (7, 1, 3)
    nd = noncyclic_group(binary_dihedral_generators(2))
    nd2 = deserialize_group(serialize_group(nd))
    assert element_set_key(generate_elements(nd)) == element_set_key(generate_elements(nd2))
    # a file of the older format, with its central_order line, still reads
    legacy = deserialize_group(LEGACY_D8_TEXT)
    assert element_set_key(generate_elements(legacy)) == element_set_key(generate_elements(nd))


# The order-8 binary dihedral group as group files were written when they
# carried a central_order line.
LEGACY_D8_TEXT = """group noncyclic
central_order 2
gen 6.123233995737e-17,1.000000000000e+00 0.000000000000e+00,0.000000000000e+00 \
0.000000000000e+00,0.000000000000e+00 6.123233995737e-17,-1.000000000000e+00
gen 0.000000000000e+00,0.000000000000e+00 1.000000000000e+00,0.000000000000e+00 \
-1.000000000000e+00,0.000000000000e+00 0.000000000000e+00,0.000000000000e+00
"""
