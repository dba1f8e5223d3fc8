"""Group layer: normalization, freeness, recursion, continued fractions."""

import importlib.util
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewarp.errors import DomainError, NotFreeError, UnsupportedCaseError
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


I_, J_ = quaternion(0, 1, 0, 0), quaternion(0, 0, 1, 0)
ZETA5 = np.exp(2j * np.pi / 5)
LAMBDA9 = np.exp(2j * np.pi / 9)


def assert_orbit_identities(tree, orbits):
    """Orbit-stabilizer, orbit size x |stab| = |Gamma|, for each singular
    orbit, and Riemann-Hurwitz for the quotient S^2/Gamma-bar with
    Gamma-bar = Gamma/centre: |Gamma-bar| (2 - sum(1 - 1/m_i)) = 2, where
    m_i = |stab_i|/|centre| are its cone orders."""
    elems = generate_elements(tree.group)
    centre = sum(1 for e in elems if np.allclose(e, e[0, 0] * np.eye(2), atol=1e-9))
    stabs = [c.order() for c in tree.children]
    assert all(k * m == len(elems) for k, m in zip(orbits, stabs))
    assert Fraction(len(elems), centre) * (2 - sum(1 - Fraction(centre, m) for m in stabs)) == 2


@pytest.mark.parametrize("gens,orbits,children", [
    (binary_dihedral_generators(3), [3, 3, 2], [(4, 1, 3), (4, 1, 3), (6, 1, 5)]),
    ([I_, quaternion(0.5, 0.5, 0.5, 0.5)], [6, 4, 4], [(4, 1, 3), (6, 1, 5), (6, 1, 5)]),
    ([quaternion(2 ** -0.5, 2 ** -0.5, 0, 0), quaternion(0.5, 0.5, 0.5, 0.5)],
     [6, 12, 8], [(8, 1, 7), (4, 1, 3), (6, 1, 5)]),
    ([quaternion(0.5, 0.5, 0.5, 0.5), quaternion(GOLDEN_RATIO / 2, 0.5, 0.5 / GOLDEN_RATIO, 0)],
     [30, 20, 12], [(4, 1, 3), (6, 1, 5), (10, 1, 9)]),
    ([np.diag([ZETA5, ZETA5.conjugate()]), np.array([[0, 1], [1j, 0]])],
     [5, 5, 2], [(8, 1, 5), (8, 1, 5), (20, 1, 9)]),
    ([I_, J_, -LAMBDA9 * quaternion(0.5, 0.5, 0.5, 0.5)],
     [6, 4, 4], [(12, 1, 7), (18, 1, 7), (18, 1, 7)]),
    ([I_, J_, ZETA5 * np.eye(2)], [2, 2, 2], [(20, 1, 11)] * 3),
], ids=["D12", "T24", "O48", "I120", "D'40", "T'72", "Z5xQ8"])
def test_singular_orbits_of_the_polyhedral_groups(gens, orbits, children):
    """The singular orbits on CP^1 of binary polyhedral groups and of three
    of Wolf's groups (D'40, T'72 and Z5 x Q8): O48 has its order-8 vertex
    stabilizer, and T'72's size-4 orbits read Gamma_{18,1,7}, the smaller
    of the exponents 7 and 7^-1 = 13 mod 18."""
    tree = resolution_tree(noncyclic_group(gens))
    assert [c.note for c in tree.children] == [f"orbit size {k}" for k in orbits]
    assert [(c.group.n, c.group.k, c.group.l) for c in tree.children] == children
    assert_orbit_identities(tree, orbits)


def _coverage_module():
    """tests/golden/regen_coverage.py, loaded by path."""
    path = Path(__file__).parent / "golden" / "regen_coverage.py"
    spec = importlib.util.spec_from_file_location("regen_coverage", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name,gens", sorted(_coverage_module().polyhedral_generators().items()))
def test_orbit_identities_on_every_noncyclic_coverage_group(name, gens):
    """Orbit-stabilizer and Riemann-Hurwitz on the tree of every non-cyclic
    group of the coverage table; trees only, no atlas."""
    tree = resolution_tree(noncyclic_group(gens))
    assert_orbit_identities(tree, [int(c.note.split()[-1]) for c in tree.children])


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
    # any other unknown key is an error naming it, not a line dropped
    with pytest.raises(DomainError, match="'gne'"):
        deserialize_group(LEGACY_D8_TEXT.replace("\ngen ", "\ngne ", 1))


# The order-8 binary dihedral group as group files were written when they
# carried a central_order line.
LEGACY_D8_TEXT = """group noncyclic
central_order 2
gen 6.123233995737e-17,1.000000000000e+00 0.000000000000e+00,0.000000000000e+00 \
0.000000000000e+00,0.000000000000e+00 6.123233995737e-17,-1.000000000000e+00
gen 0.000000000000e+00,0.000000000000e+00 1.000000000000e+00,0.000000000000e+00 \
-1.000000000000e+00,0.000000000000e+00 0.000000000000e+00,0.000000000000e+00
"""
