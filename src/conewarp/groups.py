"""Finite unitary group layer: cyclic normalization, free-action checks,
the resolution recursion, and the continued-fraction oracle.

Group elements are 2x2 complex unitary matrices.  Equality of groups is
decided by element-set comparison with entries rounded to a fixed grid; that
is the robust way to reconcile the two published descriptions of the
recursion child.
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
    Non-cyclic descriptors carry explicit 2x2 unitary generators plus the
    order of the central part (scalar matrices), which the recursion needs.
    """

    kind: str                       # "cyclic" | "noncyclic"
    n: int = 1
    k: int = 0
    l: int = 0
    generators: list = field(default_factory=list)
    central_order: int | None = None
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


def noncyclic_group(generators, central_order: int | None = None,
                    label: str = "") -> GroupDescriptor:
    gens = [np.asarray(g, dtype=complex) for g in generators]
    desc = GroupDescriptor("noncyclic", generators=gens, label=label,
                           central_order=central_order)
    if desc.central_order is None:
        elems = generate_elements(desc)
        desc.central_order = sum(1 for e in elems if _is_scalar(e))
    return desc


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


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def groups_equal_mod_swap(elems_a, elems_b) -> bool:
    """Element-set equality, allowing conjugation by the coordinate swap.

    The two published descriptions of the recursion child live in charts
    whose local coordinates are interchanged; as subgroups of the fixed U(2)
    they agree only after conjugating by the (unitary) swap matrix, which is
    the isometry z1 <-> z2 of C^2.
    """
    ka = element_set_key(elems_a)
    kb = element_set_key(elems_b)
    if ka == kb:
        return True
    swapped = [_SWAP @ e @ _SWAP for e in elems_b]
    return ka == element_set_key(swapped)


def resolution_step(n: int, p: int) -> GroupDescriptor:
    """Child group of the basic surgery on the (n, p) cyclic singularity.

    For p = 1 the child is trivial.  Otherwise the chart computation gives
    the cyclic group with exponents (n mod p, p - 1) of order p; this must
    coincide with Gamma_{p,-1,n} from the detailed surgery statement as a
    matrix group up to the coordinate swap (the two statements use
    interchanged local coordinates), and the brute-force element-set
    comparison enforces that before returning.
    """
    if not (n > p >= 1) or gcd(n, p) != 1:
        raise DomainError(f"resolution step needs coprime n > p >= 1, got ({n}, {p})")
    if p == 1:
        return cyclic_group(1, 0, 0)
    child_a = cyclic_group(p, n % p, p - 1)
    child_b = cyclic_group(p, (-1) % p, n % p)   # Gamma_{p,-1,n}
    if not groups_equal_mod_swap(generate_elements(child_a), generate_elements(child_b)):
        raise DomainError(
            f"internal inconsistency: the two published descriptions of the child "
            f"of ({n},{p}) generate different matrix groups even mod coordinate swap")
    nn, kk, pp = normalize_cyclic(p, n % p, p - 1)
    return cyclic_group(nn, kk, pp)


def _projective_point_key(v: np.ndarray) -> tuple:
    """Canonical key of [v] in CP^1 (phase and scale removed)."""
    v = np.asarray(v, dtype=complex)
    i = int(np.argmax(np.abs(v)))
    v = v / v[i]
    return (np.round(v[0].real, 7), np.round(v[0].imag, 7),
            np.round(v[1].real, 7), np.round(v[1].imag, 7))


def _stabilizer_descriptor(elems, point_vec) -> GroupDescriptor:
    """Cyclic stabilizer of a projective point, as an explicit subgroup."""
    stab = []
    key = _projective_point_key(point_vec)
    for e in elems:
        if _is_scalar(e):
            stab.append(e)
            continue
        w, v = np.linalg.eig(e)
        for c in range(2):
            if _projective_point_key(v[:, c]) == key:
                stab.append(e)
                break
    return noncyclic_group(stab, label="stabilizer")


def resolution_tree(desc: GroupDescriptor) -> ResolutionNode:
    """Resolution recursion: cyclic chains, or one chain per singular orbit.

    Cyclic groups iterate the basic surgery until the child is trivial.
    Non-cyclic groups with nontrivial central part reduce to the cyclic
    stabilizers of the singular orbits of the projectivized action on the
    exceptional CP^1, found here by brute-force orbit analysis.
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

    elems = generate_elements(desc)
    n_central = sum(1 for e in elems if _is_scalar(e))
    if n_central <= 1:
        raise UnsupportedCaseError(
            "non-cyclic group with trivial central part: the published reduction "
            "assumes a nontrivial center; rejected by design")
    node = ResolutionNode(desc, note=f"central order {n_central}")
    # singular base points: eigen-directions of non-central elements
    points = {}
    for e in elems:
        if _is_scalar(e):
            continue
        w, v = np.linalg.eig(e)
        for c in range(2):
            points.setdefault(_projective_point_key(v[:, c]), v[:, c])
    # group the points into orbits under the projectivized action
    seen = set()
    for key, vec in sorted(points.items()):
        if key in seen:
            continue
        orbit = set()
        for e in elems:
            orbit.add(_projective_point_key(e @ vec))
        seen |= orbit
        stab = _stabilizer_descriptor(elems, vec)
        stab_elems = generate_elements(stab)
        if len(stab_elems) <= n_central:
            continue  # not actually singular beyond the global center
        child_node = _cyclic_chain_from_stabilizer(stab, len(stab_elems))
        child_node.note = f"orbit size {len(orbit)}"
        node.children.append(child_node)
    for c in node.children:
        if c.order() > node.order():
            raise DomainError("child order exceeds parent order")
    return node


def _cyclic_chain_from_stabilizer(stab: GroupDescriptor, order: int) -> ResolutionNode:
    """Express a cyclic stabilizer as Gamma_{m,1,p} and expand its chain."""
    elems = generate_elements(stab)
    # find a generator: element of maximal order
    best, best_ord = None, 0
    for e in elems:
        o = _element_order(e, order)
        if o > best_ord:
            best, best_ord = e, o
    if best_ord != len(elems):
        raise UnsupportedCaseError("stabilizer is not cyclic")
    # diagonalize: the stabilizer fixes two orthogonal eigen-directions
    w, v = np.linalg.eig(best)
    phases = np.angle(w) / (2 * np.pi) * best_ord
    k = int(np.round(phases[0])) % best_ord
    l = int(np.round(phases[1])) % best_ord
    n, _, p = normalize_cyclic(best_ord, k, l)
    return resolution_tree(cyclic_group(n, 1, p))


def _element_order(e: np.ndarray, cap: int) -> int:
    acc = np.array(e)
    for m in range(1, cap + 1):
        if np.max(np.abs(acc - np.eye(2))) < 1e-9:
            return m
        acc = acc @ e
    return cap + 1


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
        lines.append(f"central_order {desc.central_order}")
        for g in desc.generators:
            row = " ".join(f"{z.real:.12e},{z.imag:.12e}" for z in np.asarray(g).ravel())
            lines.append(f"gen {row}")
    return "\n".join(lines) + "\n"


def deserialize_group(text: str) -> GroupDescriptor:
    kind = None
    gens, central = [], None
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
        elif key == "central_order":
            central = int(rest)
        elif key == "gen":
            vals = [complex(float(a), float(b)) for a, b in
                    (tok.split(",") for tok in rest.split())]
            gens.append(np.array(vals, dtype=complex).reshape(2, 2))
    if kind == "cyclic" and cyc is not None:
        return cyclic_group(*cyc)
    if kind == "noncyclic":
        return noncyclic_group(gens, central_order=central)
    raise DomainError("malformed group text")
