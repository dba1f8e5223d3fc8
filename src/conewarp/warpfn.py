"""Piecewise smooth scalar functions on an interval.

A :class:`WarpFunction` is an ordered list of expression-tree pieces on a
closed interval.  It knows how to evaluate jets (value through third
derivative), check the boundary parity conditions that make warped metrics
close smoothly, and blend away corners with polynomial smoothsteps.
Everything is immutable after construction and vectorized over numpy
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import DomainError, JoinFailure, SingularityError
from .jets import Jet, jet_var

__all__ = [
    "ScalarJet",
    "WarpFunction",
    "mollify_join",
    "build_cutoff",
    "check_parity",
    "smoothstep_quintic",
    "smoothstep_quintic_integral",
    "TOL_JOIN",
    "TOL_PARITY",
]

# Relative agreement of one-sided jets at breakpoints; absolute tolerance for
# parity (vanishing-derivative) checks.  Chosen far above double-precision
# noise and far below the order-one margins of the curvature inequalities.
TOL_JOIN = 1e-7
TOL_PARITY = 1e-6

PARITY_TAGS = (
    "odd-derivatives-vanish",
    "even-derivatives-vanish-and-value-zero",
    "value-positive",
)


@dataclass
class ScalarJet:
    """Value and first three derivatives of a scalar function at a point."""

    value: float
    d1: float
    d2: float
    d3: float

    def as_array(self):
        return np.array([self.value, self.d1, self.d2, self.d3])

    def __iter__(self):
        return iter((self.value, self.d1, self.d2, self.d3))


@dataclass
class WarpFunction:
    """Piecewise expression-tree function on [a, b].

    ``breakpoints`` are the interior junctions; ``pieces[i]`` is valid on
    [edges[i], edges[i+1]] where edges = [a, *breakpoints, b].  At a junction
    the right piece wins (one-sided data of the left piece remains available
    through ``eval_jet_onesided``).
    """

    a: float
    b: float
    breakpoints: list
    pieces: list
    continuity_class: int = 2
    parity_left: str | None = None
    parity_right: str | None = None
    name: str = ""

    def __post_init__(self):
        if not self.pieces:
            raise DomainError("WarpFunction needs at least one piece")
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise DomainError("need exactly one more piece than breakpoints")
        self.a = float(self.a)
        self.b = float(self.b)
        self.breakpoints = [float(t) for t in self.breakpoints]
        bp = self.breakpoints
        if any(not (self.a < t < self.b) for t in bp) or sorted(bp) != bp:
            raise DomainError("breakpoints must be ordered and interior")
        self._edges = np.array([self.a, *bp, self.b], dtype=float)

    # -- evaluation --------------------------------------------------------

    def piece_index(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._edges[1:-1], x, side="right")
        return idx

    def jet(self, x) -> Jet:
        """Vectorized jet at points x (right-piece convention at junctions)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < self.a - 1e-12) or np.any(x > self.b + 1e-12):
            bad = x[(x < self.a - 1e-12) | (x > self.b + 1e-12)][0]
            raise DomainError(f"{bad} outside domain [{self.a}, {self.b}]")
        idx = self.piece_index(x)
        out = [np.empty_like(x) for _ in range(4)]
        # steep power pieces overflow in the (unused) third derivative at
        # extreme arguments; the saturation below keeps orders <= 2 strict,
        # and a pole in orders <= 2 raises SingularityError there
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i, piece in enumerate(self.pieces):
                mask = idx == i
                if not np.any(mask):
                    continue
                j = piece.jet(jet_var(x[mask]))
                for k, comp in enumerate(j.as_tuple()):
                    out[k][mask] = comp
        for k in range(3):
            if not np.all(np.isfinite(out[k])):
                where = x[~np.isfinite(out[k])][0]
                raise SingularityError(f"non-finite derivative order {k} at x={where}")
        # the third derivative may overflow at extreme arguments of steep
        # power laws; it is not load-bearing (curvature uses two orders),
        # so saturate it rather than reject the point
        bad3 = ~np.isfinite(out[3])
        if np.any(bad3):
            out[3] = np.where(bad3, 0.0, out[3])
        return Jet(*out)

    def eval_jet_onesided(self, x: float, side: str) -> ScalarJet:
        """Jet using the piece to the given side of a junction point."""
        x = float(x)
        idx = int(self.piece_index(np.array([x]))[0])
        if side == "left":
            # piece whose closed interval has x as its right end
            hits = np.where(np.isclose(self._edges[1:], x, rtol=0, atol=1e-14))[0]
            idx = int(hits[0]) if len(hits) else idx
        return _piece_jet(self.pieces[idx], x)

    def __call__(self, x):
        return self.jet(x).f

    # -- structural checks ---------------------------------------------------

    def breakpoint_mismatch(self) -> list:
        """Relative one-sided jet disagreement at each breakpoint.

        Returns a list of arrays (orders 0..continuity_class) of relative
        mismatches; used by the C^k invariant tests.
        """
        out = []
        for t in self.breakpoints:
            left = self.eval_jet_onesided(t, "left").as_array()
            right = self.eval_jet_onesided(t, "right").as_array()
            k = min(self.continuity_class, 3)
            scale = np.maximum.reduce([np.abs(left), np.abs(right), np.ones(4)])
            out.append(np.abs(left - right)[: k + 1] / scale[: k + 1])
        return out

    def check_joins(self, tol: float = TOL_JOIN) -> bool:
        return all(np.all(m <= tol) for m in self.breakpoint_mismatch())

    # -- serialization --------------------------------------------------------

    def serialize(self) -> str:
        lines = [
            "warpfn v1",
            f"name {self.name}",
            f"domain {self.a!r} {self.b!r}",
            f"continuity {self.continuity_class}",
        ]
        if self.parity_left:
            lines.append(f"parity_left {self.parity_left}")
        if self.parity_right:
            lines.append(f"parity_right {self.parity_right}")
        edges = [self.a, *self.breakpoints, self.b]
        for i, piece in enumerate(self.pieces):
            lines.append(f"piece {edges[i]!r} {edges[i+1]!r} : {piece.to_str()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "WarpFunction":
        """Parse ``serialize`` output.  Raises DomainError on a version other
        than ``warpfn v1``, an unknown key, or piece spans that do not chain
        from the domain's start to its end."""
        a = b = None
        cont, pl, pr, name = 2, None, None, ""
        edges, pieces = [], []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            if key == "warpfn":
                if rest.strip() != "v1":
                    raise DomainError(f"unsupported warpfn version {rest.strip()!r}")
            elif key == "name":
                name = rest.strip()
            elif key == "domain":
                a, b = (float(v) for v in rest.split())
            elif key == "continuity":
                cont = int(rest)
            elif key == "parity_left":
                pl = rest.strip()
            elif key == "parity_right":
                pr = rest.strip()
            elif key == "piece":
                span, _, body = rest.partition(":")
                lo, hi = (float(v) for v in span.split())
                edges.append((lo, hi))
                pieces.append(ex.parse_expr(body))
            else:
                raise DomainError(f"unknown warpfn key {key!r}")
        if a is None or not pieces:
            raise DomainError("malformed warpfn text")
        ends = [a] + [hi for (lo, hi) in edges]
        if [lo for (lo, hi) in edges] != ends[:-1] or ends[-1] != b:
            raise DomainError(f"piece spans {edges} do not chain from {a!r} to {b!r}")
        bps = [hi for (lo, hi) in edges[:-1]]
        return cls(a, b, bps, pieces, continuity_class=cont,
                   parity_left=pl, parity_right=pr, name=name)


def _piece_jet(piece: ex.Expr, x: float) -> ScalarJet:
    """Jet of one piece at one point.  As in ``WarpFunction.jet``, steep power
    pieces may overflow in the third derivative; here it stays inf, so a
    parity check that reads order 3 cannot pass on it."""
    with np.errstate(over="ignore"):
        j = piece.jet(jet_var(np.array([x])))
    return ScalarJet(*(float(c[0]) for c in j.as_tuple()))


def _sample_open(lo: float, hi: float, n: int) -> np.ndarray:
    """The n cell midpoints of [lo, hi]; open sample grids never touch an end."""
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5)


# -- smoothsteps --------------------------------------------------------------


def smoothstep_quintic(u: ex.Expr) -> ex.Expr:
    """6u^5 - 15u^4 + 10u^3: C^2 step with max slope 15/8 < 2."""
    return u * u * u * (ex.Const(10.0) + u * (ex.Const(-15.0) + ex.Const(6.0) * u))


def smoothstep_quintic_integral(u: ex.Expr) -> ex.Expr:
    """u^6 - 3u^5 + 5u^4/2: the antiderivative of smoothstep_quintic from 0."""
    return u * u * u * u * (ex.Const(2.5) + u * (ex.Const(-3.0) + u))


# -- mollified joins -----------------------------------------------------------


def _hermite_quintic_piece(lj: ScalarJet, rj: ScalarJet, e0: float, e1: float,
                           var: ex.Expr = ex.X) -> ex.Expr:
    """Quintic polynomial in ``var`` matching value/d1/d2 of lj at var = e0
    and rj at var = e1 (``var`` = pi/2 - x gives a reflected piece whose
    Horner steps share one subtree for u)."""
    w = e1 - e0
    v0, v0p, v0pp = lj.value, lj.d1 * w, lj.d2 * w * w
    v1, v1p, v1pp = rj.value, rj.d1 * w, rj.d2 * w * w
    a0, a1, a2 = v0, v0p, 0.5 * v0pp
    A = v1 - (a0 + a1 + a2)
    B = v1p - (a1 + 2.0 * a2)
    C = v1pp - 2.0 * a2
    a3 = 10.0 * A - 4.0 * B + 0.5 * C
    a4 = -15.0 * A + 7.0 * B - C
    a5 = 6.0 * A - 3.0 * B + 0.5 * C
    u = (var - ex.Const(e0)) / ex.Const(w)
    poly = ex.Const(a5)
    for c in (a4, a3, a2, a1, a0):
        poly = poly * u + ex.Const(c)
    return poly


def mollify_join(f: WarpFunction, x0: float, width: float, constraints=()) -> WarpFunction:
    """Replace the corner of ``f`` at breakpoint ``x0`` by a smooth spline.

    On [x0 - width, x0 + width] the function is replaced by the quintic
    polynomial whose value and first two derivatives match the left piece at
    the left window edge and the right piece at the right edge (so the result
    is C^2 globally); outside the window the function is unchanged (same
    expression objects, hence bit-identical values).  Each requested
    constraint is verified on a grid over the window:

    * ``("d2", sign)``       -- sign * f'' >= -1e-7 max(1, |f''|) on the window
    * ``("monotone", sign)`` -- sign * f' >= -1e-7 max(1, |f'|)

    Large constraint families (curvature inequalities) are re-certified by the
    caller; this routine only guards the local join.
    """
    x0 = float(x0)
    w = float(width)
    hits = [i for i, t in enumerate(f.breakpoints) if abs(t - x0) < 1e-13]
    if not hits:
        raise DomainError(f"{x0} is not a breakpoint of {f.name or 'warpfn'}")
    k = hits[0]
    edges = [f.a, *f.breakpoints, f.b]
    if not (edges[k] < x0 - w and x0 + w < edges[k + 2]):
        raise DomainError("join window leaves the two adjacent pieces")
    left, right = f.pieces[k], f.pieces[k + 1]

    lj = f.eval_jet_onesided(x0, "left")
    rj = f.eval_jet_onesided(x0, "right")
    for c in constraints:
        if c[0] == "d2" and c[1] < 0 and rj.d1 - lj.d1 > 1e-9 * max(1.0, abs(lj.d1)):
            raise JoinFailure(
                "derivative jump has the wrong sign for a concave join "
                f"(left d1={lj.d1}, right d1={rj.d1})"
            )
        if c[0] == "d2" and c[1] > 0 and lj.d1 - rj.d1 > 1e-9 * max(1.0, abs(lj.d1)):
            raise JoinFailure("derivative jump has the wrong sign for a convex join")

    e0, e1 = x0 - w, x0 + w
    blended = _hermite_quintic_piece(_piece_jet(left, e0), _piece_jet(right, e1), e0, e1)
    new_bps = f.breakpoints[:k] + [e0, e1] + f.breakpoints[k + 1:]
    new_pieces = f.pieces[:k] + [left, blended, right] + f.pieces[k + 2:]
    # the smoothed corner is C^2; remaining corners must already be at least C^2
    # for the declared class to hold (check_joins verifies)
    out = WarpFunction(f.a, f.b, new_bps, new_pieces,
                       continuity_class=2,
                       parity_left=f.parity_left, parity_right=f.parity_right,
                       name=f.name)

    j = out.jet(np.linspace(x0 - w, x0 + w, 512))
    for c in constraints:
        if c[0] == "d2":
            if np.min(c[1] * j.f2) < -1e-7 * max(1.0, float(np.max(np.abs(j.f2)))):
                raise JoinFailure(f"second-derivative sign constraint violated at join {x0}")
        elif c[0] == "monotone":
            if np.min(c[1] * j.f1) < -1e-7 * max(1.0, float(np.max(np.abs(j.f1)))):
                raise JoinFailure(f"monotonicity constraint violated at join {x0}")
        else:
            raise JoinFailure(f"unknown constraint {c!r}")
    return out


# -- cutoffs -------------------------------------------------------------------


def build_cutoff(a: float, b: float, domain_end: float | None = None,
                 name: str = "eta") -> WarpFunction:
    """Cutoff eta with eta=1 on [0, a], eta=0 on [b, end], |eta'| <= 2/(b-a).

    Realized with the quintic smoothstep, whose maximal slope 15/8 stays under
    the required bound 2/(b-a).
    """
    if not (0 < a < b):
        raise DomainError("cutoff needs 0 < a < b")
    end = float(domain_end) if domain_end is not None else 2.0 * b
    if end <= b:
        raise DomainError("domain end must exceed b")
    u = (ex.X - ex.Const(a)) / ex.Const(b - a)
    falling = ex.Const(1.0) - smoothstep_quintic(u)
    return WarpFunction(0.0, end, [a, b],
                        [ex.Const(1.0), falling, ex.Const(0.0)],
                        continuity_class=2, name=name)


# -- parity / boundary checks ---------------------------------------------------


@dataclass
class ParityReport:
    endpoint: str
    tag: str
    derivatives: dict = field(default_factory=dict)
    checked_orders: tuple = ()
    passed: bool = True

    def __bool__(self):
        return self.passed


def check_parity(f: WarpFunction, endpoint: str, tag: str, max_order: int = 3,
                 tol: float = TOL_PARITY) -> ParityReport:
    """Report |f^(j)| at an endpoint for the orders the tag requires.

    Tags follow the boundary conditions of smooth metric closure: fibers that
    collapse need the value and even derivatives to vanish; transverse warp
    factors need odd derivatives to vanish; ``value-positive`` just checks
    positivity.  Report-only: never raises on failure.
    """
    if tag not in PARITY_TAGS:
        raise DomainError(f"unknown parity tag {tag!r}")
    x = f.a if endpoint == "left" else f.b
    side = "right" if endpoint == "left" else "left"
    j = f.eval_jet_onesided(x, side)
    vals = j.as_array()
    rep = ParityReport(endpoint=endpoint, tag=tag,
                       derivatives={k: float(vals[k]) for k in range(min(max_order, 3) + 1)})
    if tag == "value-positive":
        rep.checked_orders = (0,)
        rep.passed = vals[0] > 0
        return rep
    if tag == "odd-derivatives-vanish":
        orders = tuple(k for k in (1, 3) if k <= max_order)
    else:  # even-vanish-and-value-zero
        orders = tuple(k for k in (0, 2) if k <= max_order)
    rep.checked_orders = orders
    rep.passed = all(abs(vals[k]) <= tol for k in orders)
    return rep
