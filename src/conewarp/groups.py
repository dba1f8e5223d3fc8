"""Finite unitary group layer: cyclic normalization, free-action checks,
the resolution recursion, and the continued-fraction oracle.

Group elements are 2x2 complex unitary matrices.  Equality of groups is
decided by element-set comparison with entries rounded to a fixed grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import DomainError, NotFreeError, UnsupportedCaseError

__all__ = [
    "GroupDescriptor",
    "cyclic_group",
    "noncyclic_group",
    "ResolutionNode",
    "normalize_cyclic",
    "acts_freely",
    "resolution_step",
    "resolution_tree",
    "singular_orbits",
    "hj_continued_fraction",
    "generate_elements",
    "element_set_key",
    "serialize_group",
    "deserialize_group",
]

ROUND_DECIMALS = 9
UNITARY_TOL = 1e-10
MAX_BRUTE_ORDER = 10 ** 6


def _diag_unitary(n: int, k: int, l: int) -> np.ndarray:
    return np.diag([np.exp(2j * np.pi * k / n), np.exp(2j * np.pi * l / n)])


@dataclass
class GroupDescriptor:
    """Cyclic (n, k, l) or explicit-generator subgroup of U(2).

    Cyclic groups are generated by diag(e^{2 pi i k / n}, e^{2 pi i l / n}).
    Non-cyclic descriptors carry explicit 2x2 unitary generators.
    """

    kind: str                       # "cyclic" | "noncyclic"
    n: int = 1
    k: int = 0
    l: int = 0
    generators: list = field(default_factory=list)
    label: str = ""

    def __post_init__(self):
        if self.kind == "cyclic":
            if self.n < 1:
                raise DomainError("cyclic order must be >= 1")
            self.k %= self.n
            self.l %= self.n
            if not self.generators and self.n > 1:
                self.generators = [_diag_unitary(self.n, self.k, self.l)]
        for g in self.generators:
            g = np.asarray(g, dtype=complex)
            if g.shape != (2, 2):
                raise DomainError("generators must be 2x2 complex matrices")
            if np.max(np.abs(g.conj().T @ g - np.eye(2))) > UNITARY_TOL:
                raise DomainError("generator is not unitary within 1e-10")

    @property
    def is_trivial(self):
        return self.kind == "cyclic" and self.n == 1

    def name(self) -> str:
        if self.label:
            return self.label
        if self.kind == "cyclic":
            return f"Gamma_{{{self.n},{self.k},{self.l}}}"
        return f"noncyclic(order~{len(generate_elements(self))})"


def cyclic_group(n: int, k: int, l: int) -> GroupDescriptor:
    return GroupDescriptor("cyclic", n=n, k=k, l=l)


def noncyclic_group(generators, label: str = "") -> GroupDescriptor:
    gens = [np.asarray(g, dtype=complex) for g in generators]
    return GroupDescriptor("noncyclic", generators=gens, label=label)


def _round_key(mat: np.ndarray) -> tuple:
    r = np.round(mat.real, ROUND_DECIMALS) + 0.0
    i = np.round(mat.imag, ROUND_DECIMALS) + 0.0
    return tuple(r.ravel()) + tuple(i.ravel())


def generate_elements(desc: GroupDescriptor):
    """All elements by closure of the generator set (BFS)."""
    if desc.kind == "cyclic":
        if desc.n == 1:
            return [np.eye(2, dtype=complex)]
        g = _diag_unitary(desc.n, desc.k, desc.l)
        return [np.linalg.matrix_power(g, j) for j in range(desc.n)]
    seen = {_round_key(np.eye(2, dtype=complex)): np.eye(2, dtype=complex)}
    frontier = [np.eye(2, dtype=complex)]
    gens = [np.asarray(g, dtype=complex) for g in desc.generators]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a @ g
                key = _round_key(b)
                if key not in seen:
                    if len(seen) >= MAX_BRUTE_ORDER:
                        raise DomainError(
                            f"group order exceeds brute-force cap {MAX_BRUTE_ORDER}")
                    seen[key] = b
                    nxt.append(b)
        frontier = nxt
    return list(seen.values())


def element_set_key(elements) -> frozenset:
    return frozenset(_round_key(e) for e in elements)


def _is_scalar(mat: np.ndarray) -> bool:
    return abs(mat[0, 1]) < 1e-9 and abs(mat[1, 0]) < 1e-9 and abs(mat[0, 0] - mat[1, 1]) < 1e-9


# ---------------------------------------------------------------------------
# normalization and freeness
# ---------------------------------------------------------------------------


def normalize_cyclic(n: int, k: int, l: int) -> tuple:
    """Canonical exponents (n, 1, p) with gcd(n, p) = 1.

    Replaces the generator by the power that makes the first exponent 1;
    requires both exponents coprime to n (otherwise the action fixes an axis
    of the sphere and is not free).  Idempotent.
    """
    if n == 1:
        return (1, 1, 1)
    k %= n
    l %= n
    if gcd(k, n) != 1:
        raise NotFreeError(f"gcd(k={k}, n={n}) > 1: generator power fixes the axis (z, 0)")
    if gcd(l, n) != 1:
        raise NotFreeError(f"gcd(l={l}, n={n}) > 1: generator power fixes the axis (0, w)")
    k_inv = pow(k, -1, n)
    p = (l * k_inv) % n
    return (n, 1, p)


def acts_freely(desc: GroupDescriptor, brute_force: bool = False):
    """True iff no non-identity element fixes a unit vector of S^3.

    A unitary matrix fixes a unit vector exactly when 1 is an eigenvalue.
    For cyclic descriptors the fast path is the coprimality test; the brute
    force path scans every element and returns a witness on failure.
    """
    if desc.kind == "cyclic" and not brute_force:
        if desc.n == 1:
            return True, None
        dk, dl = gcd(desc.k, desc.n), gcd(desc.l, desc.n)
        # The generated group is free exactly when both exponents have the
        # same gcd with n (then it collapses to the faithful Gamma_{n/d,...}
        # with coprime exponents).  For a faithful presentation this is the
        # usual gcd(k,n) = gcd(l,n) = 1 criterion.
        if dk == dl:
            return True, None
        bad, d = (desc.k, dk) if dk > dl else (desc.l, dl)
        power = desc.n // d
        g = np.linalg.matrix_power(_diag_unitary(desc.n, desc.k, desc.l), power)
        vec = _fixed_unit_vector(g)
        return False, {"element": g, "power": power, "fixed_vector": vec}
    for e in generate_elements(desc):
        if np.max(np.abs(e - np.eye(2))) < 1e-9:
            continue
        vec = _fixed_unit_vector(e)
        if vec is not None:
            return False, {"element": e, "fixed_vector": vec}
    return True, None


def _fixed_unit_vector(mat: np.ndarray):
    w, v = np.linalg.eig(mat)
    hits = np.where(np.abs(w - 1.0) < 1e-9)[0]
    if len(hits) == 0:
        return None
    vec = v[:, hits[0]]
    return vec / np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# resolution recursion
# ---------------------------------------------------------------------------


@dataclass
class ResolutionNode:
    group: GroupDescriptor
    children: list = field(default_factory=list)
    note: str = ""

    def order(self):
        if self.group.kind == "cyclic":
            return self.group.n
        return len(generate_elements(self.group))

    def as_text(self, indent=0):
        lines = [" " * indent + f"- {self.group.name()} (order {self.order()})"
                 + (f"  [{self.note}]" if self.note else "")]
        for c in self.children:
            lines.extend(c.as_text(indent + 2))
        return lines


def resolution_step(n: int, p: int) -> GroupDescriptor:
    """Child group of the basic surgery on the (n, p) cyclic singularity.

    For p = 1 the child is trivial.  Otherwise the chart computation gives
    the cyclic group with exponents (n mod p, p - 1) of order p.  It equals
    Gamma_{p,-1,n} of the detailed surgery statement up to the coordinate
    swap (the two statements use interchanged local coordinates); the tests
    check that identity for every coprime (n, p) with n <= 60.
    """
    if not (n > p >= 1) or gcd(n, p) != 1:
        raise DomainError(f"resolution step needs coprime n > p >= 1, got ({n}, {p})")
    if p == 1:
        return cyclic_group(1, 0, 0)
    return cyclic_group(*normalize_cyclic(p, n % p, p - 1))


def _projective_point_key(v: np.ndarray) -> tuple:
    """Canonical key of [v] in CP^1: its image (2 conj(a) b, |a|^2 - |b|^2) on
    the unit sphere under the Hopf map, which is single-valued on CP^1."""
    a, b = np.asarray(v, dtype=complex) / np.linalg.norm(v)
    h = 2.0 * np.conj(a) * b
    return (np.round(h.real, 7), np.round(h.imag, 7), np.round(abs(a) ** 2 - abs(b) ** 2, 7))


def singular_orbits(desc: GroupDescriptor) -> tuple:
    """Central order and the singular orbits of the projectivized action on CP^1.

    Returns ``(central order, [(orbit size, Gamma_{m,1,l}), ...])``, the
    orbits sorted by the key of their first line; ``desc`` must act freely.
    A non-central unitary fixes exactly its two eigenlines, so the stabilizer
    of a line is the centre plus the elements that have it as an eigenline.
    In the basis (v, v-perp) such an element is diag(a, b), and a determines
    it because the action is free: the stabilizer is cyclic of order m, and
    the element with a = e^{2 pi i/m} generates it, with b = e^{2 pi i l/m}.
    The child exponent is min(l, l^-1 mod m): Gamma_{m,1,l} and
    Gamma_{m,1,l^-1} differ by the coordinate swap.
    """
    elems = generate_elements(desc)
    n_central = sum(1 for e in elems if _is_scalar(e))
    if n_central <= 1:
        raise UnsupportedCaseError(
            "non-cyclic group with trivial central part: the published reduction "
            "assumes a nontrivial center; rejected by design")
    lines = {}     # line key -> (a vector on it, [(a, b) of each non-central element fixing it])
    for e in elems:
        if _is_scalar(e):
            continue
        w, v = np.linalg.eig(e)
        for c in range(2):
            key = _projective_point_key(v[:, c])
            lines.setdefault(key, (v[:, c], []))[1].append((w[c], w[1 - c]))
    stacked = np.stack(elems)
    orbits, seen = [], set()
    for key in sorted(lines):
        if key in seen:
            continue
        vec, diag = lines[key]
        orbit = {_projective_point_key(u) for u in stacked @ vec}
        seen |= orbit
        m = n_central + len(diag)
        _, b = min(diag, key=lambda ab: abs(ab[0] - np.exp(2j * np.pi / m)))
        l = round(np.angle(b) * m / (2 * np.pi)) % m
        orbits.append((len(orbit), cyclic_group(m, 1, min(l, pow(l, -1, m)))))
    return n_central, orbits


def resolution_tree(desc: GroupDescriptor) -> ResolutionNode:
    """Resolution recursion: cyclic chains, or one chain per singular orbit.

    Cyclic groups iterate the basic surgery until the child is trivial.
    Non-cyclic groups with nontrivial central part reduce to the cyclic
    stabilizers Gamma_{m,1,l} of the singular orbits on the exceptional
    CP^1 (``singular_orbits``), each read off in its line's own eigenbasis,
    and each stabilizer then resolves as a cyclic chain.
    """
    free, witness = acts_freely(desc)
    if not free:
        raise NotFreeError(f"group does not act freely: witness {witness}")
    if desc.kind == "cyclic":
        if desc.n == 1:
            return ResolutionNode(desc, note="leaf")
        d = gcd(gcd(desc.k, desc.n), desc.l)
        if d > 1:
            # collapse an unfaithful presentation to the group it generates
            return resolution_tree(cyclic_group(desc.n // d, desc.k // d, desc.l // d))
        n, _, p = normalize_cyclic(desc.n, desc.k, desc.l)
        node = ResolutionNode(cyclic_group(n, 1, p))
        child = resolution_step(n, p)
        node.children = [resolution_tree(child)]
        return node

    n_central, orbits = singular_orbits(desc)
    node = ResolutionNode(desc, note=f"central order {n_central}")
    for size, child in orbits:
        child_node = resolution_tree(child)
        child_node.note = f"orbit size {size}"
        node.children.append(child_node)
    return node


# ---------------------------------------------------------------------------
# Hirzebruch-Jung continued fractions
# ---------------------------------------------------------------------------


def hj_continued_fraction(n: int, p: int) -> list:
    """Expansion n/p = a1 - 1/(a2 - 1/(...)) with all a_i >= 2."""
    if not (n > p >= 1) or gcd(n, p) != 1:
        raise DomainError(f"need coprime n > p >= 1, got ({n}, {p})")
    out = []
    a, b = n, p
    while b > 0:
        q = -(-a // b)  # ceiling division
        out.append(q)
        a, b = b, q * b - a
    return out


def hj_reconstruct(coeffs) -> Fraction:
    """Exact rational value of the expansion (for the reconstruction check)."""
    val = Fraction(coeffs[-1])
    for a in coeffs[-2::-1]:
        val = Fraction(a) - 1 / val
    return val


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def serialize_group(desc: GroupDescriptor) -> str:
    lines = [f"group {desc.kind}"]
    if desc.kind == "cyclic":
        lines.append(f"cyclic {desc.n} {desc.k} {desc.l}")
    else:
        for g in desc.generators:
            row = " ".join(f"{z.real:.12e},{z.imag:.12e}" for z in np.asarray(g).ravel())
            lines.append(f"gen {row}")
    return "\n".join(lines) + "\n"


def deserialize_group(text: str) -> GroupDescriptor:
    """Read ``serialize_group`` text.  Older files also carry a
    ``central_order`` line, which is skipped; any other unknown key is a
    DomainError, so a misspelled line is never dropped silently."""
    kind = None
    gens = []
    cyc = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "group":
            kind = rest.strip()
        elif key == "cyclic":
            cyc = tuple(int(v) for v in rest.split())
        elif key == "gen":
            vals = [complex(float(a), float(b)) for a, b in
                    (tok.split(",") for tok in rest.split())]
            gens.append(np.array(vals, dtype=complex).reshape(2, 2))
        elif key != "central_order":
            raise DomainError(f"unknown key {key!r} in group text")
    if kind == "cyclic" and cyc is not None:
        return cyclic_group(*cyc)
    if kind == "noncyclic":
        return noncyclic_group(gens)
    raise DomainError("malformed group text")
