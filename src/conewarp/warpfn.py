"""Piecewise smooth scalar functions on an interval.

A :class:`WarpFunction` is an ordered list of expression-tree pieces on a
closed interval.  A warp function knows how to evaluate jets (value through
second derivative), check the boundary parity conditions that make warped
metrics close smoothly, and blend away corners with polynomial smoothsteps.
Everything is immutable after construction and vectorized over numpy arrays.

Text form: ``warpfn v1``, one ``piece lo hi : expr`` line per piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import DomainError, JoinFailure, SingularityError
from .jets import Jet, jet_var

__all__ = [
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
PIH = math.pi / 2

PARITY_TAGS = (
    "odd-derivatives-vanish",
    "even-derivatives-vanish-and-value-zero",
    "value-positive",
)


@dataclass
class WarpFunction:
    """Piecewise function on [a, b].

    ``breakpoints`` are the interior junctions; ``pieces[i]`` is valid on
    [edges[i], edges[i+1]] where edges = [a, *breakpoints, b].  At a junction
    the right piece wins (one-sided data of the left piece remains available
    through ``eval_jet_onesided``); per-cell sample grids and chart avoid
    lists read the breakpoints as cell edges.  ``continuity_class`` is 0, 1
    or 2: a jet holds orders 0..2, so no higher class can be checked.
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
        if self.continuity_class not in (0, 1, 2):
            raise DomainError(f"continuity class {self.continuity_class!r} is not 0, 1 or 2")
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
        out = [np.empty_like(x) for _ in range(3)]
        # a pole warns inside the pieces; the check below raises
        # SingularityError for it instead
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i, piece in enumerate(self.pieces):
                mask = idx == i
                if not np.any(mask):
                    continue
                j = piece.jet(jet_var(x[mask]))
                for k, comp in enumerate(j.as_tuple()):
                    out[k][mask] = comp
        for k, comp in enumerate(out):
            if not np.all(np.isfinite(comp)):
                where = x[~np.isfinite(comp)][0]
                raise SingularityError(f"non-finite derivative order {k} at x={where}")
        return Jet(*out)

    def eval_jet_onesided(self, x: float, side: str) -> Jet:
        """Jet (floats) using the piece to the given side of a junction point."""
        x = float(x)
        idx = int(self.piece_index(np.array([x]))[0])
        if side == "left":
            # piece whose closed interval has x as its right end; exact
            # equality, since breakpoints may be far closer than any tolerance
            hits = np.flatnonzero(self._edges[1:] == x)
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
            left = np.array(self.eval_jet_onesided(t, "left").as_tuple())
            right = np.array(self.eval_jet_onesided(t, "right").as_tuple())
            k = self.continuity_class
            scale = np.maximum.reduce([np.abs(left), np.abs(right), np.ones(3)])
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
        for lo, hi, piece in zip(edges, edges[1:], self.pieces):
            lines.append(f"piece {lo!r} {hi!r} : {piece.to_str()}")
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
                version = rest.strip()
                if version != "v1":
                    raise DomainError(f"unsupported warpfn version {version!r}")
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


def _piece_jet(piece: ex.Expr, x: float) -> Jet:
    """Jet of one piece at one point, as floats."""
    j = piece.jet(jet_var(np.array([x])))
    return Jet(*(float(c[0]) for c in j.as_tuple()))


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


def _hermite_quintic(lj: Jet, rj: Jet, e0: float, e1: float) -> ex.Expr:
    """The quintic in x matching value/d1/d2 of lj at e0 and rj at e1, as a
    Horner tree in u = (x - e0)/(e1 - e0).  The one Hermite builder:
    mollified joins and the rho tail take their pieces from it."""
    w = e1 - e0
    v0, v0p, v0pp = lj.f, lj.f1 * w, lj.f2 * w * w
    v1, v1p, v1pp = rj.f, rj.f1 * w, rj.f2 * w * w
    a0, a1, a2 = v0, v0p, 0.5 * v0pp
    A = v1 - (a0 + a1 + a2)
    B = v1p - (a1 + 2.0 * a2)
    C = v1pp - 2.0 * a2
    a3 = 10.0 * A - 4.0 * B + 0.5 * C
    a4 = -15.0 * A + 7.0 * B - C
    a5 = 6.0 * A - 3.0 * B + 0.5 * C
    u = (ex.X - ex.Const(e0)) / ex.Const(w)
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
    if x0 not in f.breakpoints:
        raise DomainError(f"{x0} is not a breakpoint of {f.name or 'warpfn'}")
    k = f.breakpoints.index(x0)
    cells = [f.a, *f.breakpoints, f.b]
    c = cells.index(x0)
    if not (cells[c - 1] < x0 - w and x0 + w < cells[c + 1]):
        raise DomainError("join window leaves the two adjacent cells")
    left, right = f.pieces[k], f.pieces[k + 1]

    lj = f.eval_jet_onesided(x0, "left")
    rj = f.eval_jet_onesided(x0, "right")
    for c in constraints:
        if c[0] == "d2" and c[1] < 0 and rj.f1 - lj.f1 > 1e-9 * max(1.0, abs(lj.f1)):
            raise JoinFailure(
                "derivative jump has the wrong sign for a concave join "
                f"(left d1={lj.f1}, right d1={rj.f1})"
            )
        if c[0] == "d2" and c[1] > 0 and lj.f1 - rj.f1 > 1e-9 * max(1.0, abs(lj.f1)):
            raise JoinFailure("derivative jump has the wrong sign for a convex join")

    e0, e1 = x0 - w, x0 + w
    blended = _hermite_quintic(_piece_jet(left, e0), _piece_jet(right, e1), e0, e1)
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


def check_parity(f: WarpFunction, endpoint: str, tag: str,
                 tol: float = TOL_PARITY) -> ParityReport:
    """Report |f^(j)| at an endpoint for the orders the tag requires.

    Tags follow the boundary conditions of smooth metric closure: fibers that
    collapse need the value and even derivatives to vanish; transverse warp
    factors need odd derivatives to vanish; ``value-positive`` just checks
    positivity.  Report-only: never raises on failure.  The jet reaches
    order 2, the highest continuity class a warp function declares, so the
    odd tag checks order 1 and the even tag orders 0 and 2.
    """
    if tag not in PARITY_TAGS:
        raise DomainError(f"unknown parity tag {tag!r}")
    x = f.a if endpoint == "left" else f.b
    side = "right" if endpoint == "left" else "left"
    j = f.eval_jet_onesided(x, side)
    vals = np.array(j.as_tuple())
    rep = ParityReport(endpoint=endpoint, tag=tag,
                       derivatives={k: float(v) for k, v in enumerate(vals)})
    if tag == "value-positive":
        rep.checked_orders = (0,)
        rep.passed = vals[0] > 0
        return rep
    rep.checked_orders = (1,) if tag == "odd-derivatives-vanish" else (0, 2)
    rep.passed = all(abs(vals[k]) <= tol for k in rep.checked_orders)
    return rep
