"""Piecewise smooth scalar functions on an interval.

A :class:`WarpFunction` is an ordered list of pieces on a closed interval.
A piece is an expression tree, or a :class:`DescentSpline`: one node for a
whole run of quintic-Hermite cells, stored as its knots' Hermite data and
evaluated through one row lookup instead of one tree per cell.  A warp
function knows how to evaluate jets (value through second derivative), check
the boundary parity conditions that make warped metrics close smoothly, and
blend away corners with polynomial smoothsteps.  Everything is immutable
after construction and vectorized over numpy arrays.

Text form: ``warpfn v1`` holds expression pieces only; ``warpfn v2`` adds
spline pieces, and the writer uses it exactly when a function has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import DomainError, JoinFailure, SingularityError
from .jets import Jet, jet_const, jet_var, jexp, jsin

__all__ = [
    "WarpFunction",
    "DescentSpline",
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
    through ``eval_jet_onesided``).  ``knots`` are the interior cell edges:
    the breakpoints and every spline knot inside its piece's span; per-cell
    sample grids and chart avoid lists read them.  ``continuity_class`` is
    0, 1 or 2: a jet holds orders 0..2, so no higher class can be checked.
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
        edges = [self.a, *bp, self.b]
        self._edges = np.array(edges, dtype=float)
        cells = []
        for lo, hi, piece in zip(edges, edges[1:], self.pieces):
            if isinstance(piece, DescentSpline):
                cells += piece.knots_inside(lo, hi)
            cells.append(hi)
        self.knots = cells[:-1]

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
        has_spline = any(isinstance(piece, DescentSpline) for piece in self.pieces)
        lines = [
            f"warpfn {'v2' if has_spline else 'v1'}",
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
            if isinstance(piece, DescentSpline):
                lines.append(f"spline {lo!r} {hi!r} : {piece.c!r}")
                lines += ["knot " + " ".join(map(repr, row)) for row in piece.table]
            else:
                lines.append(f"piece {lo!r} {hi!r} : {piece.to_str()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def deserialize(cls, text: str) -> "WarpFunction":
        """Parse ``serialize`` output.  Raises DomainError on a version other
        than ``warpfn v1`` or ``v2``, an unknown key (``spline`` and ``knot``
        are v2 keys), a knot row that does not follow a spline line or does
        not hold four numbers, spline knots that do not chain over their
        piece's span, or piece spans that do not chain from the domain's
        start to its end."""
        a = b = None
        version, cont, pl, pr, name = "v1", 2, None, None, ""
        edges, pieces = [], []
        table = None                  # knot rows of the spline being read
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(" ")
            if key == "knot" and table is not None:
                row = tuple(float(v) for v in rest.split())
                if len(row) != 4:
                    raise DomainError(f"spline knot row needs 4 numbers (s W W' W''), "
                                      f"got {len(row)}")
                table.append(row)
                continue
            table = None
            if key == "warpfn":
                version = rest.strip()
                if version not in ("v1", "v2"):
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
            elif key == "piece" or (key == "spline" and version == "v2"):
                span, _, body = rest.partition(":")
                lo, hi = (float(v) for v in span.split())
                edges.append((lo, hi))
                if key == "piece":
                    pieces.append(ex.parse_expr(body))
                else:
                    table = []
                    pieces.append((float(body), table))
            else:
                raise DomainError(f"unknown warpfn key {key!r}")
        if a is None or not pieces:
            raise DomainError("malformed warpfn text")
        ends = [a] + [hi for (lo, hi) in edges]
        if [lo for (lo, hi) in edges] != ends[:-1] or ends[-1] != b:
            raise DomainError(f"piece spans {edges} do not chain from {a!r} to {b!r}")
        bps = [hi for (lo, hi) in edges[:-1]]
        pieces = [DescentSpline(*p) if isinstance(p, tuple) else p for p in pieces]
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


def _hermite_quintic(lj: Jet, rj: Jet, e0: float, e1: float) -> tuple:
    """(w, (a5, a4, a3, a2, a1, a0)): the quintic sum_k a_k u^k in
    u = (var - e0)/w, w = e1 - e0, matching value/d1/d2 of lj at var = e0 and
    rj at var = e1.  The one Hermite builder: mollified joins, the rho tail
    and the cells of a DescentSpline all take their coefficients from it."""
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
    return w, (a5, a4, a3, a2, a1, a0)


def _hermite_quintic_piece(lj: Jet, rj: Jet, e0: float, e1: float,
                           var: ex.Expr = ex.X) -> ex.Expr:
    """``_hermite_quintic`` as a Horner tree in ``var`` (``var`` = pi/2 - x
    gives the tree of one DescentSpline cell's exponent)."""
    w, coeffs = _hermite_quintic(lj, rj, e0, e1)
    u = (var - ex.Const(e0)) / ex.Const(w)
    poly = ex.Const(coeffs[0])
    for c in coeffs[1:]:
        poly = poly * u + ex.Const(c)
    return poly


class DescentSpline(ex.Expr):
    """c sin(2x) exp(W(pi/2 - x)), W a quintic Hermite spline in s = pi/2 - x.

    ``table`` holds one row (s, W, W', W'') per knot, s increasing.  The cell
    between two knots evaluates the pp-form row (e0, w, a5..a0) that
    ``_hermite_quintic`` builds from its end rows, through the same Jet
    operations, in the same order, as the tree
    ``c * sin(2x) * exp(_hermite_quintic_piece(.., pi/2 - x))``; each row
    constant is broadcast as ``Const`` broadcasts its value, so every point's
    jet equals that tree's bit for bit.  A point on a knot takes the cell to
    its right in x, as a warp function's junction does.
    """

    def __init__(self, c: float, table):
        self.c = float(c)
        self.table = [tuple(float(v) for v in row) for row in table]
        s = [row[0] for row in self.table]
        if len(s) < 2 or any(s1 <= s0 for s0, s1 in zip(s, s[1:])):
            raise DomainError("spline knots do not chain: need two or more, "
                              "increasing in pi/2 - x")
        rows = []
        for r0, r1 in zip(self.table, self.table[1:]):
            w, coeffs = _hermite_quintic(Jet(*r0[1:]), Jet(*r1[1:]),
                                         r0[0], r1[0])
            rows.append((r0[0], w, *coeffs))
        # cells and knots in x order: the last knot in s is the first in x
        self._rows = np.array(rows[::-1]).T          # e0, w, a5, ..., a0
        self._x_knots = [PIH - v for v in reversed(s)]
        self._inner = np.array(self._x_knots[1:-1])

    def knots_inside(self, lo: float, hi: float) -> list:
        """The knots strictly inside the span [lo, hi], which the knots must cover."""
        if not (self._x_knots[0] <= lo and hi <= self._x_knots[-1]):
            raise DomainError(f"spline knots [{self._x_knots[0]!r}, {self._x_knots[-1]!r}] "
                              f"do not chain over its span [{lo!r}, {hi!r}]")
        return [t for t in self._x_knots if lo < t < hi]

    def jet(self, x: Jet) -> Jet:
        rows = self._rows[:, np.searchsorted(self._inner, x.f, side="right")]

        def const(v):
            return jet_const(v, like=x.f)

        u = ((const(PIH) - x) - const(rows[0])) * (1.0 / rows[1])
        W = const(rows[2])
        for a in rows[3:]:
            W = W * u + const(a)
        return (const(self.c) * jsin(const(2.0) * x)) * jexp(W)

    def __repr__(self):
        return f"DescentSpline(c={self.c!r}, {len(self.table)} knots)"


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
    cells = [f.a, *f.knots, f.b]
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
