"""Closed-form Ricci tensors for the metric families, charts, and an
independent finite-difference oracle.

Every metric family carries two faces:

* a *closed-form evaluator* returning Ricci components on a declared frame
  of coordinate-expressed vector fields, and
* a *chart*: coordinate box plus metric components, which feeds the
  central-difference Christoffel/Ricci oracle.

The oracle never sees the closed forms; agreement between the two routes is
what the certification layer checks.

Conventions fixed here (each backed by the flat/round witnesses and the
oracle, see tests):

* ``BergerSphere(f, t)`` has coordinate metric
  ``t (da + cos^2 xi db)^2 + dxi^2 + f^2 db^2`` -- the fiber coefficient is
  the parameter itself, not its square.
* ``TorusInvariant`` coordinate components are ``diag(1, Phi^2, Psi^2, Ups^2)``.
* ``LocalGlue`` Ricci couples X1 with X3 and X2 with X4; in the product
  region (twist off) the diagonal is (-rho''/rho, -rho''/rho, 4, 4) on
  (X1, X2, X3, X4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChartError,
    ConditioningError,
    DegenerateMetricError,
    DomainError,
    SingularityError,
)
from .jets import Jet2, j2cos, j2sin, j2sinc, j2warp, jet2_var_x, jet2_var_y
from .warpfn import WarpFunction

__all__ = [
    "RicciFrame",
    "Chart",
    "BergerSphere",
    "ConeOverBerger",
    "DoubleWarp",
    "LocalGlue",
    "TorusInvariant",
    "BergerGeneral",
    "make_cap_families",
    "cap_parts",
    "ansatz_to_chart",
    "ricci_berger_sphere",
    "ricci_cone_berger",
    "ricci_double_warp",
    "ricci_local_glue",
    "ricci_local_glue_display",
    "ricci_torus_invariant",
    "ricci_berger_general",
    "ricci_fd_batch",
    "frame_project",
]

AXIS_TOL = 1e-12


@dataclass
class RicciFrame:
    """Symmetric matrix of Ricci components on the frame vectors that the
    evaluator's docstring names, in that order."""

    entries: np.ndarray  # (..., k, k)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if not np.all(np.isfinite(e)):
            raise SingularityError("non-finite Ricci entry")
        if not np.allclose(e, np.swapaxes(e, -1, -2), rtol=0, atol=0):
            raise ChartError("Ricci frame matrix must be exactly symmetric")
        self.entries = e


@dataclass
class Chart:
    """Coordinate box with metric components and optional frame vectors.

    ``metric_batch`` maps points (N, dim) to metrics (N, dim, dim);
    ``frame_batch``, when present, maps points to (N, k, dim) vectors whose
    rows are the frame the closed-form evaluator reports in.
    """

    box: list
    metric_batch: callable
    frame_batch: callable | None = None
    name: str = ""
    avoid: dict = field(default_factory=dict)  # coord index -> piece junctions

    @property
    def dim(self):
        return len(self.box)

    def interior_samples(self, n: int, rng=None, margin: float = 0.15,
                         clearance: float = 5e-3):
        """n quasi-random interior points away from box faces and, where the
        metric is only piecewise analytic, away from the junction lines (the
        oracle's h^2 convergence assumes four derivatives locally)."""
        rng = np.random.default_rng(rng)
        lo = np.array([a for a, _ in self.box])
        hi = np.array([b for _, b in self.box])
        out = np.empty((0, self.dim))
        for _ in range(64):
            u = rng.uniform(margin, 1.0 - margin, size=(2 * n, self.dim))
            pts = lo + u * (hi - lo)
            good = np.ones(len(pts), dtype=bool)
            for k, lines in self.avoid.items():
                for t in lines:
                    good &= np.abs(pts[:, k] - t) > clearance
            out = np.concatenate([out, pts[good]], axis=0)
            if len(out) >= n:
                return out[:n]
        raise ChartError("could not draw interior samples clear of junctions")


def frame_project(ric_coord: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Project coordinate Ricci (N,d,d) onto frame vectors (N,k,d)."""
    return np.einsum("nia,nab,njb->nij", frame, ric_coord, frame)


# ---------------------------------------------------------------------------
# ansatz containers
# ---------------------------------------------------------------------------


@dataclass
class BergerSphere:
    """Warped Berger 3-sphere: t (da + cos^2 xi db)^2 + dxi^2 + f^2 db^2."""

    f: WarpFunction
    t: float

    def __post_init__(self):
        if self.t <= 0:
            raise DegenerateMetricError("Berger parameter t must be positive")


@dataclass
class ConeOverBerger:
    """dr^2 + rho^2 (da + cos^2 xi db)^2 + phi^2 (dxi^2 + f^2 db^2)."""

    rho: WarpFunction
    phi: WarpFunction
    f: WarpFunction
    r_range: tuple | None = None


@dataclass
class DoubleWarp:
    """dr^2 + varphi^2 g_{S^m} + phi^2 g_{S^n} on R^{m+1} x S^n."""

    m: int
    n: int
    varphi: WarpFunction
    phi: WarpFunction
    r_range: tuple | None = None


@dataclass
class LocalGlue:
    """Interpolation between the Berger form and the surface product.

    Frame X1 = dr, X2 = (n/rho) da, X3 = dxi, X4 = (2/sin 2xi)(db - psi da)
    with twist psi(r, xi) = n (eta1(r) eta2(xi) - 1) sin^2(xi); metric is the
    one making the frame orthonormal.
    """

    rho: WarpFunction      # full profile, rho'(0) = n
    n: int
    eta1: WarpFunction
    eta2: WarpFunction
    sigma1: float
    sigma2: float
    xi0: float

    def psi_jets(self, r, xi):
        """psi and the partials the Ricci formulas need, from univariate jets."""
        r = np.asarray(r, dtype=float)
        xi = np.asarray(xi, dtype=float)
        j1 = self.eta1.jet(r)
        j2 = self.eta2.jet(xi)
        s, c = np.sin(xi), np.cos(xi)
        s2, c2 = np.sin(2 * xi), np.cos(2 * xi)
        e = j1.f * j2.f - 1.0
        psi = self.n * e * s * s
        psi_r = self.n * j1.f1 * j2.f * s * s
        psi_rr = self.n * j1.f2 * j2.f * s * s
        psi_xi = self.n * (j1.f * j2.f1 * s * s + e * s2)
        psi_xixi = self.n * (j1.f * j2.f2 * s * s + 2.0 * j1.f * j2.f1 * s2 + 2.0 * e * c2)
        return psi, psi_r, psi_xi, psi_rr, psi_xixi

    def metric(self, r, xi):
        """The metric (N, 4, 4) in coordinates (r, xi, alpha, beta)."""
        A = self.rho.jet(r).f / self.n
        B = np.sin(2 * xi) / 2.0
        psi = self.psi_jets(r, xi)[0]
        g = np.zeros((len(r), 4, 4))
        g[:, 0, 0] = g[:, 1, 1] = 1.0
        g[:, 2, 2] = A ** 2
        g[:, 2, 3] = g[:, 3, 2] = A ** 2 * psi
        g[:, 3, 3] = B ** 2 + A ** 2 * psi ** 2
        return g


class BivariateFn:
    """Bivariate function built from a Jet2-level callable."""

    def __init__(self, fn, name=""):
        self._fn = fn
        self.name = name

    def jet2(self, gx: Jet2, gy: Jet2) -> Jet2:
        return self._fn(gx, gy)

    def __call__(self, x, y):
        return self.jet2(jet2_var_x(x, y), jet2_var_y(x, y)).f


@dataclass
class TorusInvariant:
    """d gamma^2 + Phi^2 d theta^2 + Psi^2 d theta1^2 + Ups^2 d theta2^2."""

    Phi: BivariateFn
    Psi: BivariateFn
    Ups: BivariateFn
    box: list = field(default_factory=lambda: [(0.05, 0.5), (0.05, np.pi / 2 - 0.05)])
    avoid: dict = field(default_factory=dict)


@dataclass
class BergerGeneral:
    """dr^2 + rho^2 U*^2 + phi^2 (X*^2 + Y*^2): cone-Berger with round base."""

    rho: WarpFunction
    phi: WarpFunction
    n: int
    r_range: tuple | None = None


def make_cap_families(phi1: WarpFunction, eta_delta: WarpFunction | None,
                      rho_cap: WarpFunction, n: int, zeta: float):
    """(Phi, Psi, Ups) for the cap; eta_delta = None gives the part-1 family."""

    def Phi_fn(g, t):
        if eta_delta is None:
            return j2warp(phi1, g)
        return (1.0 - zeta) * g

    def Psi_fn(g, t):
        c = j2cos(t)
        arg_base = j2warp(eta_delta, g) if eta_delta is not None else g
        pref = j2warp(phi1, g) if eta_delta is None else (1.0 - zeta) * g
        return pref * c * j2sinc(2.0 * arg_base * c)

    def Ups_fn(g, t):
        s = j2sin(t)
        arg_base = j2warp(eta_delta, g) if eta_delta is not None else g
        pref = j2warp(phi1, g) if eta_delta is None else (1.0 - zeta) * g
        return pref * j2warp(rho_cap, arg_base * s) / (float(n) * arg_base)

    return BivariateFn(Phi_fn, "Phi"), BivariateFn(Psi_fn, "Psi"), BivariateFn(Ups_fn, "Ups")


def cap_parts(phi1: WarpFunction, eta_delta: WarpFunction, rho_cap: WarpFunction,
              n: int, zeta: float, r0: float):
    """The cap's two families on their certified boxes: part 1 on gamma in
    (r0/1000, r0), part 2 (with the frozen inner cone) on (r0/1000, r0/2)."""
    th_box = (1e-3, np.pi / 2 - 1e-3)
    return (TorusInvariant(*make_cap_families(phi1, None, rho_cap, n, zeta),
                           box=[(r0 * 1e-3, r0), th_box]),
            TorusInvariant(*make_cap_families(phi1, eta_delta, rho_cap, n, zeta),
                           box=[(r0 * 1e-3, r0 / 2), th_box]))


# ---------------------------------------------------------------------------
# closed-form evaluators
# ---------------------------------------------------------------------------


def _q_jets(f: WarpFunction, xi):
    """q = sin(2 xi) / (2 f) and dq/dxi, vectorized."""
    xi = np.asarray(xi, dtype=float)
    jf = f.jet(xi)
    if np.any(jf.f <= 0):
        raise DegenerateMetricError("warp function f must be positive on the sample")
    s2, c2 = np.sin(2 * xi), np.cos(2 * xi)
    q = s2 / (2 * jf.f)
    dq = (2 * c2 * jf.f - s2 * jf.f1) / (2 * jf.f ** 2)
    return q, dq, jf


def _sym3(a11, a12, a13, a22, a23, a33):
    out = np.stack(
        [
            np.stack([a11, a12, a13], axis=-1),
            np.stack([a12, a22, a23], axis=-1),
            np.stack([a13, a23, a33], axis=-1),
        ],
        axis=-2,
    )
    return out


def ricci_berger_sphere(f: WarpFunction, t: float, xi) -> RicciFrame:
    """Ricci of the warped Berger sphere on the frame {U, X, Y}.

    U = da, X = dxi, Y = (1/f)(db - cos^2 xi da); entries are the bilinear
    form on these fixed vectors (U has squared length t, not 1).
    """
    if t <= 0:
        raise DegenerateMetricError("t must be positive")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    q, dq, jf = _q_jets(f, xi)
    zero = np.zeros_like(q)
    uu = 2.0 * t * t * q * q
    uy = t * dq
    xx = -jf.f2 / jf.f - 2.0 * t * q * q
    entries = _sym3(uu, zero, uy, xx, zero, xx.copy())
    return RicciFrame(entries)


def _sym4(rows):
    """rows: dict {(i,j): array}; build symmetric (...,4,4)."""
    some = next(iter(rows.values()))
    out = np.zeros(some.shape + (4, 4))
    for (i, j), v in rows.items():
        out[..., i, j] = v
        out[..., j, i] = v
    return out


def ricci_cone_berger(rho: WarpFunction, phi: WarpFunction, f: WarpFunction,
                      r, xi) -> RicciFrame:
    """Ricci of dr^2 + rho^2 sigma^2 + phi^2 h_f on the frame {dr, U, X, Y}."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    r, xi = np.broadcast_arrays(r, xi)
    jr = rho.jet(r)
    jp = phi.jet(r)
    if np.any(jr.f <= 0) or np.any(jp.f <= 0):
        raise DegenerateMetricError("rho and phi must be positive on the sample")
    q, dq, jf = _q_jets(f, xi)
    t_eff = jr.f ** 2 / jp.f ** 2
    rr = -jr.f2 / jr.f - 2.0 * jp.f2 / jp.f
    uu = 2.0 * t_eff ** 2 * q * q - 2.0 * jr.f * jr.f1 * jp.f1 / jp.f - jr.f * jr.f2
    uy = t_eff * dq
    xx = (-jf.f2 / jf.f - 2.0 * t_eff * q * q
          - jr.f1 * jp.f * jp.f1 / jr.f - jp.f * jp.f2 - jp.f1 ** 2)
    rows = {(0, 0): rr, (1, 1): uu, (1, 3): uy, (2, 2): xx, (3, 3): xx.copy()}
    return RicciFrame(_sym4(rows))


def ricci_double_warp(m: int, n: int, varphi: WarpFunction, phi: WarpFunction, r):
    """Eigenvalues (radial, S^m directions, S^n directions) of the double warp."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    jv = varphi.jet(r)
    jp = phi.jet(r)
    if np.any(jv.f <= 0) or np.any(jp.f <= 0):
        raise DegenerateMetricError("warp factors must be positive on the sample")
    lam0 = -(m * jv.f2 / jv.f + n * jp.f2 / jp.f)
    lam1 = -jv.f2 / jv.f + (m - 1) * (1.0 - jv.f1 ** 2) / jv.f ** 2 - n * jv.f1 * jp.f1 / (jv.f * jp.f)
    lam2 = -jp.f2 / jp.f + (n - 1) * (1.0 - jp.f1 ** 2) / jp.f ** 2 - m * jv.f1 * jp.f1 / (jv.f * jp.f)
    return lam0, lam1, lam2


def ricci_local_glue(glue: LocalGlue, r, xi) -> RicciFrame:
    """Ricci of the glue metric on its orthonormal frame {X1, X2, X3, X4}.

    Index assignment resolved against the oracle (and symbolically): the
    radial row couples X1-X3, the circle rows couple X2-X4, and in the
    product region the diagonal is (-rho''/rho, -rho''/rho, 4, 4).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    r, xi = np.broadcast_arrays(r, xi)
    s2 = np.sin(2 * xi)
    if np.any(np.abs(s2) < AXIS_TOL):
        raise SingularityError("glue Ricci evaluated on the axis sin(2 xi) = 0")
    ja = glue.rho.jet(r)
    if np.any(ja.f <= 0):
        raise DegenerateMetricError("rho must be positive on the sample")
    A, A1, A2 = ja.f / glue.n, ja.f1 / glue.n, ja.f2 / glue.n
    psi, p_r, p_xi, p_rr, p_xixi = glue.psi_jets(r, xi)
    c2 = np.cos(2 * xi)
    w_r = A * p_r / s2
    w_xi = A * p_xi / s2
    d11 = -A2 / A - 2.0 * w_r ** 2
    d22 = -A2 / A + 2.0 * (w_r ** 2 + w_xi ** 2)
    d33 = 4.0 - 2.0 * w_xi ** 2
    d44 = 4.0 - 2.0 * (w_r ** 2 + w_xi ** 2)
    m13 = -2.0 * w_r * w_xi
    m24 = -(3.0 * A1 * p_r + A * p_rr + A * p_xixi) / s2 + 2.0 * A * p_xi * c2 / s2 ** 2
    rows = {(0, 0): d11, (1, 1): d22, (2, 2): d33, (3, 3): d44,
            (0, 2): m13, (1, 3): m24}
    return RicciFrame(_sym4(rows))


def ricci_local_glue_display(glue: LocalGlue, r, xi, variant: str = "corrected") -> RicciFrame:
    """The four displayed component equations, uncorrected or index-corrected.

    ``uncorrected``: X1 couples X2, X3 couples X4, the second circle row carries
    the flat value 4, and the X3-X4 coupling uses literal squares of first
    derivatives.  ``corrected``: the assignment validated by the oracle
    (identical to :func:`ricci_local_glue`).
    """
    if variant == "corrected":
        return ricci_local_glue(glue, r, xi)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    r, xi = np.broadcast_arrays(r, xi)
    s2, c2 = np.sin(2 * xi), np.cos(2 * xi)
    ja = glue.rho.jet(r)
    A, A1 = ja.f / glue.n, ja.f1 / glue.n
    A2 = ja.f2 / glue.n
    psi, p_r, p_xi, p_rr, p_xixi = glue.psi_jets(r, xi)
    w_r = A * p_r / s2
    w_xi = A * p_xi / s2
    d11 = -A2 / A - 2.0 * w_r ** 2
    d22 = 4.0 - 2.0 * w_xi ** 2
    d33 = -A2 / A + 2.0 * (w_r ** 2 + w_xi ** 2)
    d44 = 4.0 - 2.0 * (w_r ** 2 + w_xi ** 2)
    m12 = -2.0 * w_r * w_xi
    m34 = -(3.0 * A1 * p_r / s2 + A * p_r ** 2 / s2 + A * p_xi ** 2 / s2
            - 2.0 * A * p_xi * c2 / s2 ** 2)
    rows = {(0, 0): d11, (1, 1): d22, (2, 2): d33, (3, 3): d44,
            (0, 1): m12, (2, 3): m34}
    return RicciFrame(_sym4(rows))


def ricci_torus_invariant(Phi: BivariateFn, Psi: BivariateFn, Ups: BivariateFn,
                          gamma, theta) -> RicciFrame:
    """Ricci of d g^2 + Phi^2 dth^2 + Psi^2 dth1^2 + Ups^2 dth2^2 on {Y1..Y4}."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    gamma, theta = np.broadcast_arrays(gamma, theta)
    gx = jet2_var_x(gamma, theta)
    gy = jet2_var_y(gamma, theta)
    P = Phi.jet2(gx, gy)
    S = Psi.jet2(gx, gy)
    U = Ups.jet2(gx, gy)
    for J, nm in ((P, "Phi"), (S, "Psi"), (U, "Upsilon")):
        if np.any(J.f <= 0):
            raise SingularityError(f"{nm} must be positive on the sample (axis point?)")
    d11 = -(P.fxx / P.f + S.fxx / S.f + U.fxx / U.f)
    # (1/S) d/dgamma (S_theta / P) + (1/U) d/dgamma (U_theta / P)
    m12 = -((S.fxy * P.f - S.fy * P.fx) / (P.f ** 2 * S.f)
            + (U.fxy * P.f - U.fy * P.fx) / (P.f ** 2 * U.f))
    d22 = (-P.fxx / P.f - S.fyy / (P.f ** 2 * S.f) - U.fyy / (P.f ** 2 * U.f)
           + P.fy * S.fy / (P.f ** 3 * S.f) + P.fy * U.fy / (P.f ** 3 * U.f)
           - P.fx * S.fx / (P.f * S.f) - P.fx * U.fx / (P.f * U.f))
    d33 = (-S.fxx / S.f - S.fyy / (P.f ** 2 * S.f)
           + P.fy * S.fy / (P.f ** 3 * S.f) - P.fx * S.fx / (P.f * S.f)
           - S.fx * U.fx / (S.f * U.f) - S.fy * U.fy / (P.f ** 2 * S.f * U.f))
    d44 = (-U.fxx / U.f - U.fyy / (P.f ** 2 * U.f)
           + P.fy * U.fy / (P.f ** 3 * U.f) - P.fx * U.fx / (P.f * U.f)
           - S.fx * U.fx / (S.f * U.f) - S.fy * U.fy / (P.f ** 2 * S.f * U.f))
    rows = {(0, 0): d11, (0, 1): m12, (1, 1): d22, (2, 2): d33, (3, 3): d44}
    return RicciFrame(_sym4(rows))


def ricci_berger_general(rho: WarpFunction, phi: WarpFunction, r):
    """The four diagonal values of the round-base Berger metric on {dr, U, X, Y}."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    jr = rho.jet(r)
    jp = phi.jet(r)
    if np.any(jr.f <= 0) or np.any(jp.f <= 0):
        raise DegenerateMetricError("rho and phi must be positive on the sample")
    d_r = -jr.f2 / jr.f - 2.0 * jp.f2 / jp.f
    d_u = 2.0 * jr.f ** 4 / jp.f ** 4 - 2.0 * jr.f * jr.f1 * jp.f1 / jp.f - jr.f * jr.f2
    d_x = (4.0 - 2.0 * jr.f ** 2 / jp.f ** 2 - jr.f1 * jp.f * jp.f1 / jr.f
           - jp.f * jp.f2 - jp.f1 ** 2)
    return d_r, d_u, d_x, d_x.copy()


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def _berger_components(f: WarpFunction, t: float, xi):
    """Rows of the 3x3 metric in (xi, a, b) for t sigma^2 + dxi^2 + f^2 db^2."""
    fv = f.jet(xi).f
    c2 = np.cos(xi) ** 2
    g = np.zeros(xi.shape + (3, 3))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = t
    g[..., 1, 2] = g[..., 2, 1] = t * c2
    g[..., 2, 2] = t * c2 ** 2 + fv ** 2
    return g


def _berger_frame(f: WarpFunction, xi):
    fv = f.jet(xi).f
    n = xi.shape[0]
    fr = np.zeros((n, 3, 3))
    fr[:, 0, 1] = 1.0                    # U = da
    fr[:, 1, 0] = 1.0                    # X = dxi
    fr[:, 2, 1] = -np.cos(xi) ** 2 / fv  # Y = (1/f)(db - cos^2 xi da)
    fr[:, 2, 2] = 1.0 / fv
    return fr


def _sphere_block(coords, offset, m):
    """Round S^m metric block and its coordinate slice, for m in 1..3."""
    if m == 1:
        g = np.ones(coords.shape[0])[:, None, None]
        return g
    if m == 2:
        th = coords[:, offset]
        g = np.zeros((coords.shape[0], 2, 2))
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = np.sin(th) ** 2
        return g
    if m == 3:
        ch, th = coords[:, offset], coords[:, offset + 1]
        g = np.zeros((coords.shape[0], 3, 3))
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = np.sin(ch) ** 2
        g[:, 2, 2] = np.sin(ch) ** 2 * np.sin(th) ** 2
        return g
    raise DomainError("sphere factors implemented for dimension 1..3")


def ansatz_to_chart(ansatz) -> Chart:
    """Coordinate chart (components + frame) for each metric family."""
    if isinstance(ansatz, BergerSphere):
        f, t = ansatz.f, ansatz.t

        def metric(X):
            return _berger_components(f, t, X[:, 0])

        def frame(X):
            return _berger_frame(f, X[:, 0])

        eps = 0.05 * (f.b - f.a)
        return Chart([(f.a + eps, f.b - eps), (0.1, 6.0), (0.1, 6.0)],
                     metric, frame, name="berger_sphere",
                     avoid={0: list(f.knots)})

    if isinstance(ansatz, (ConeOverBerger, BergerGeneral)):
        general = isinstance(ansatz, BergerGeneral)
        rho, phi = ansatz.rho, ansatz.phi
        if general:
            from . import expr as ex
            f = WarpFunction(0.0, np.pi / 2, [], [ex.sin(2.0 * ex.X) / 2.0], name="round_f")
        else:
            f = ansatz.f

        def metric(X):
            r, xi = X[:, 0], X[:, 1]
            rv = rho.jet(r).f
            pv = phi.jet(r).f
            fv = f.jet(xi).f
            c2 = np.cos(xi) ** 2
            g = np.zeros((X.shape[0], 4, 4))
            g[:, 0, 0] = 1.0
            g[:, 1, 1] = pv ** 2
            g[:, 2, 2] = rv ** 2
            g[:, 2, 3] = g[:, 3, 2] = rv ** 2 * c2
            g[:, 3, 3] = rv ** 2 * c2 ** 2 + pv ** 2 * fv ** 2
            return g

        def frame(X):
            r, xi = X[:, 0], X[:, 1]
            fv = f.jet(xi).f
            n = X.shape[0]
            fr = np.zeros((n, 4, 4))
            fr[:, 0, 0] = 1.0                      # dr
            fr[:, 1, 2] = 1.0                      # U = da
            fr[:, 2, 1] = 1.0                      # X = dxi
            fr[:, 3, 2] = -np.cos(xi) ** 2 / fv    # Y
            fr[:, 3, 3] = 1.0 / fv
            return fr

        rr = ansatz.r_range or (rho.a + 0.05 * (rho.b - rho.a), rho.b - 0.05 * (rho.b - rho.a))
        eps = 0.05 * (f.b - f.a)
        return Chart([rr, (f.a + eps, f.b - eps), (0.1, 6.0), (0.1, 6.0)],
                     metric, frame, name="berger_general" if general else "cone_over_berger",
                     avoid={0: list(rho.knots) + list(phi.knots),
                            1: list(f.knots)})

    if isinstance(ansatz, DoubleWarp):
        m, n = ansatz.m, ansatz.n
        if 1 + m + n > 4:
            raise DomainError("double warp charts support m + n <= 3")
        varphi, phi = ansatz.varphi, ansatz.phi

        def metric(X):
            r = X[:, 0]
            va = varphi.jet(r).f
            pa = phi.jet(r).f
            d = 1 + m + n
            g = np.zeros((X.shape[0], d, d))
            g[:, 0, 0] = 1.0
            gm = _sphere_block(X, 1, m)
            gn = _sphere_block(X, 1 + m, n)
            g[:, 1:1 + m, 1:1 + m] = va[:, None, None] ** 2 * gm
            g[:, 1 + m:, 1 + m:] = pa[:, None, None] ** 2 * gn
            return g

        def frame(X):
            r = X[:, 0]
            va = varphi.jet(r).f
            pa = phi.jet(r).f
            d = 1 + m + n
            N = X.shape[0]
            fr = np.zeros((N, 3, d))
            fr[:, 0, 0] = 1.0
            fr[:, 1, 1] = 1.0 / va      # first S^m coordinate direction
            fr[:, 2, 1 + m] = 1.0 / pa  # first S^n coordinate direction
            return fr

        rr = ansatz.r_range or (varphi.a + 0.1, varphi.b - 0.1)
        box = [rr] + [(0.4, 2.6)] * (m + n)
        if m >= 2:
            box[1] = (0.5, 2.5)
        return Chart(box, metric, frame, name="double_warp",
                     avoid={0: list(varphi.knots) + list(phi.knots)})

    if isinstance(ansatz, LocalGlue):
        glue = ansatz
        half = glue.xi0 / 2.0

        # normalized coordinates (u, v) with r = half*u, xi = half*v keep the
        # finite-difference oracle at O(1) scale on the tiny glue box
        def metric(X):
            g = glue.metric(half * X[:, 0], half * X[:, 1])
            g[:, 0, 0] = g[:, 1, 1] = half ** 2
            return g

        def frame(X):
            r, xi = half * X[:, 0], half * X[:, 1]
            A = glue.rho.jet(r).f / glue.n
            B = np.sin(2 * xi) / 2.0
            psi = glue.psi_jets(r, xi)[0]
            N = X.shape[0]
            fr = np.zeros((N, 4, 4))
            fr[:, 0, 0] = 1.0 / half       # X1 = d/dr
            fr[:, 1, 2] = 1.0 / A
            fr[:, 2, 1] = 1.0 / half       # X3 = d/dxi
            fr[:, 3, 2] = -psi / B
            fr[:, 3, 3] = 1.0 / B
            return fr

        lines0 = [t / half for t in list(glue.rho.knots) + list(glue.eta1.knots) if t < glue.xi0 / 2]
        lines1 = [t / half for t in glue.eta2.knots if t < glue.xi0 / 2]
        return Chart([(0.02, 0.98), (0.02, 0.98), (0.1, 6.0), (0.1, 6.0)],
                     metric, frame, name="local_glue",
                     avoid={0: lines0, 1: lines1})

    if isinstance(ansatz, TorusInvariant):
        ti = ansatz

        def metric(X):
            g0, th = X[:, 0], X[:, 1]
            P = ti.Phi(g0, th)
            S = ti.Psi(g0, th)
            U = ti.Ups(g0, th)
            g = np.zeros((X.shape[0], 4, 4))
            g[:, 0, 0] = 1.0
            g[:, 1, 1] = P ** 2
            g[:, 2, 2] = S ** 2
            g[:, 3, 3] = U ** 2
            return g

        def frame(X):
            g0, th = X[:, 0], X[:, 1]
            P = ti.Phi(g0, th)
            S = ti.Psi(g0, th)
            U = ti.Ups(g0, th)
            N = X.shape[0]
            fr = np.zeros((N, 4, 4))
            fr[:, 0, 0] = 1.0
            fr[:, 1, 1] = 1.0 / P
            fr[:, 2, 2] = 1.0 / S
            fr[:, 3, 3] = 1.0 / U
            return fr

        return Chart(list(ti.box) + [(0.1, 1.4), (0.1, 1.4)],
                     metric, frame, name="torus_invariant",
                     avoid=dict(ti.avoid))

    raise DomainError(f"no chart for ansatz {type(ansatz).__name__}")


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def _christoffel_batch(g, dg):
    """Gamma^m_ij from metric (N,d,d) and derivatives dg[n,l,i,j] = d_l g_ij."""
    ginv = np.linalg.inv(g)
    # low[n,k,i,j] = 1/2 (d_i g_jk + d_j g_ik - d_k g_ij)
    low = 0.5 * (np.einsum("nijk->nkij", dg) + np.einsum("njik->nkij", dg) - dg)
    return np.einsum("nmk,nkij->nmij", ginv, low)


def ricci_fd_batch(chart: Chart, X: np.ndarray, h: float) -> np.ndarray:
    """Coordinate Ricci tensors at points X (N,d) by central differences.

    Second-order stencils for the metric derivative and for the Christoffel
    derivative; truncation error O(h^2).  Uses only metric *values*, so the
    route is independent of the closed-form evaluators.
    """
    X = np.asarray(X, dtype=float)
    N, d = X.shape
    g0 = chart.metric_batch(X)
    cond = np.linalg.cond(g0)
    if np.any(cond > 1e8):
        raise ConditioningError(f"metric condition number {np.max(cond):.2e} too large for FD")

    # Gamma sites: center plus x +- h e_l
    shifts = [np.zeros(d)]
    for l in range(d):
        e = np.zeros(d)
        e[l] = h
        shifts.append(e)
        shifts.append(-e)
    n_sites = len(shifts)

    # for each Gamma site we need g at site and at site +- h e_m
    all_pts = []
    for s in shifts:
        base = X + s
        all_pts.append(base)
        for m in range(d):
            e = np.zeros(d)
            e[m] = h
            all_pts.append(base + e)
            all_pts.append(base - e)
    stack = np.concatenate(all_pts, axis=0)  # (n_sites*(2d+1)*N, d)
    G = chart.metric_batch(stack).reshape(n_sites, 2 * d + 1, N, d, d)

    def gamma_at(site_idx):
        g = G[site_idx, 0]
        dg = np.empty((N, d, d, d))
        for m in range(d):
            dg[:, m] = (G[site_idx, 1 + 2 * m] - G[site_idx, 2 + 2 * m]) / (2 * h)
        return _christoffel_batch(g, dg)

    Gam0 = gamma_at(0)
    dGam = np.empty((N, d, d, d, d))  # [n, l, k, i, j] = d_l Gamma^k_ij
    for l in range(d):
        Gp = gamma_at(1 + 2 * l)
        Gm = gamma_at(2 + 2 * l)
        dGam[:, l] = (Gp - Gm) / (2 * h)

    ric = (np.einsum("nkkij->nij", dGam)
           - np.einsum("nikkj->nij", dGam)
           + np.einsum("nkkl,nlij->nij", Gam0, Gam0)
           - np.einsum("nkil,nlkj->nij", Gam0, Gam0))
    return 0.5 * (ric + ric.transpose(0, 2, 1))
