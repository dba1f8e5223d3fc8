"""Closed-form Ricci tensors for the metric families, charts, and an
independent finite-difference oracle.

Every metric family class carries two methods:

* ``chart()``: coordinate box, metric components and a frame of
  coordinate-expressed vector fields, which feed the central-difference
  Christoffel/Ricci oracle, and
* ``frame_ricci(X)``: the closed-form Ricci components at chart points X on
  that frame, from the family's module-level evaluator.

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
from functools import cached_property

import numpy as np

from . import expr as ex
from .errors import (
    ChartError,
    ConditioningError,
    DegenerateMetricError,
    SingularityError,
)
from .jets import Jet2, j2warp, jcos, jet2_var_x, jet2_var_y, jet_var, jsin, jsinc
from .warpfn import WarpFunction

__all__ = [
    "RicciFrame",
    "Chart",
    "BergerSphere",
    "ConeOverBerger",
    "LocalGlue",
    "TorusInvariant",
    "BergerGeneral",
    "CapFactors",
    "cap_family_jets",
    "make_cap_families",
    "cap_gamma_boxes",
    "link_theta_jets",
    "link_family_jets",
    "link_ricci_margins",
    "cap_link_lower_bound",
    "round_f",
    "ricci_berger_sphere",
    "ricci_cone_berger",
    "ricci_local_glue",
    "ricci_torus_invariant",
    "ricci_torus_jets",
    "ricci_berger_general",
    "ricci_fd_batch",
    "frame_project",
]

AXIS_TOL = 1e-12
KAPPA = 2.0            # the paper's kappa: the round fiber is sin(KAPPA x)/KAPPA


@dataclass
class RicciFrame:
    """Symmetric matrix of Ricci components on the frame vectors that the
    evaluator's docstring names, in that order."""

    entries: np.ndarray  # (..., k, k)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if not np.all(np.isfinite(e)):
            raise SingularityError("non-finite Ricci entry")
        if not np.array_equal(e, np.swapaxes(e, -1, -2)):
            raise ChartError("Ricci frame matrix must be exactly symmetric")
        self.entries = e


@dataclass
class Chart:
    """Coordinate box with metric components and frame vectors.

    ``metric_batch`` maps points (N, dim) to metrics (N, dim, dim);
    ``frame_batch`` maps points to (N, k, dim) vectors whose rows are the
    frame the closed-form evaluator reports in.
    """

    box: list
    metric_batch: callable
    frame_batch: callable
    name: str = ""
    avoid: dict = field(default_factory=dict)  # coord index -> piece junctions

    @property
    def dim(self):
        return len(self.box)

    def interior_samples(self, n: int, rng=None):
        """n quasi-random interior points in the middle 70% of each box side
        and, where the metric is only piecewise analytic, more than 5e-3 from
        the junction lines (the oracle's h^2 convergence assumes four
        derivatives locally)."""
        margin, clearance = 0.15, 5e-3
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


def _sym(k: int, rows: dict) -> np.ndarray:
    """Symmetric (..., k, k) matrices from {(i, j): entries}, zero elsewhere."""
    some = next(iter(rows.values()))
    out = np.zeros(np.shape(some) + (k, k))
    for (i, j), v in rows.items():
        out[..., i, j] = v
        out[..., j, i] = v
    return out


def round_f() -> WarpFunction:
    """The round fiber f = sin(2 xi)/2 on [0, pi/2]."""
    return WarpFunction(0.0, np.pi / 2, [], [ex.sin(2.0 * ex.X) / 2.0], name="round_f")


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

    def chart(self) -> Chart:
        """Coordinates (xi, a, b); frame U = da, X = dxi, Y = (1/f)(db - cos^2 xi da)."""
        f, t = self.f, self.t

        def metric(X):
            xi = X[:, 0]
            fv = f.jet(xi).f
            c2 = np.cos(xi) ** 2
            g = np.zeros((X.shape[0], 3, 3))
            g[:, 0, 0] = 1.0
            g[:, 1, 1] = t
            g[:, 1, 2] = g[:, 2, 1] = t * c2
            g[:, 2, 2] = t * c2 ** 2 + fv ** 2
            return g

        def frame(X):
            xi = X[:, 0]
            fv = f.jet(xi).f
            fr = np.zeros((X.shape[0], 3, 3))
            fr[:, 0, 1] = 1.0                    # U = da
            fr[:, 1, 0] = 1.0                    # X = dxi
            fr[:, 2, 1] = -np.cos(xi) ** 2 / fv  # Y
            fr[:, 2, 2] = 1.0 / fv
            return fr

        eps = 0.05 * (f.b - f.a)
        return Chart([(f.a + eps, f.b - eps), (0.1, 6.0), (0.1, 6.0)],
                     metric, frame, name="berger_sphere",
                     avoid={0: list(f.breakpoints)})

    def frame_ricci(self, X):
        return ricci_berger_sphere(self.f, self.t, X[:, 0]).entries


@dataclass
class ConeOverBerger:
    """dr^2 + rho^2 (da + cos^2 xi db)^2 + phi^2 (dxi^2 + f^2 db^2)."""

    rho: WarpFunction
    phi: WarpFunction
    f: WarpFunction
    r_range: tuple | None = None

    def chart(self, name: str = "cone_over_berger") -> Chart:
        """Coordinates (r, xi, a, b); frame dr, U = da, X = dxi,
        Y = (1/f)(db - cos^2 xi da)."""
        rho, phi, f = self.rho, self.phi, self.f

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
            xi = X[:, 1]
            fv = f.jet(xi).f
            fr = np.zeros((X.shape[0], 4, 4))
            fr[:, 0, 0] = 1.0                      # dr
            fr[:, 1, 2] = 1.0                      # U = da
            fr[:, 2, 1] = 1.0                      # X = dxi
            fr[:, 3, 2] = -np.cos(xi) ** 2 / fv    # Y
            fr[:, 3, 3] = 1.0 / fv
            return fr

        rr = self.r_range or (rho.a + 0.05 * (rho.b - rho.a), rho.b - 0.05 * (rho.b - rho.a))
        eps = 0.05 * (f.b - f.a)
        return Chart([rr, (f.a + eps, f.b - eps), (0.1, 6.0), (0.1, 6.0)],
                     metric, frame, name=name,
                     avoid={0: rho.breakpoints + phi.breakpoints,
                            1: list(f.breakpoints)})

    def frame_ricci(self, X):
        return ricci_cone_berger(self.rho, self.phi, self.f, X[:, 0], X[:, 1]).entries


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

    def chart(self) -> Chart:
        """Normalized coordinates (u, v, alpha, beta), (r, xi) = (xi0/2)(u, v),
        which keep the finite-difference oracle at O(1) scale on the small
        glue box; frame X1..X4."""
        half = self.xi0 / 2.0

        def metric(X):
            g = self.metric(half * X[:, 0], half * X[:, 1])
            g[:, 0, 0] = g[:, 1, 1] = half ** 2
            return g

        def frame(X):
            r, xi = half * X[:, 0], half * X[:, 1]
            A = self.rho.jet(r).f / self.n
            B = np.sin(2 * xi) / 2.0
            psi = self.psi_jets(r, xi)[0]
            fr = np.zeros((X.shape[0], 4, 4))
            fr[:, 0, 0] = 1.0 / half       # X1 = d/dr
            fr[:, 1, 2] = 1.0 / A
            fr[:, 2, 1] = 1.0 / half       # X3 = d/dxi
            fr[:, 3, 2] = -psi / B
            fr[:, 3, 3] = 1.0 / B
            return fr

        lines0 = [t / half for t in self.rho.breakpoints + self.eta1.breakpoints if t < half]
        lines1 = [t / half for t in self.eta2.breakpoints if t < half]
        return Chart([(0.02, 0.98), (0.02, 0.98), (0.1, 6.0), (0.1, 6.0)],
                     metric, frame, name="local_glue",
                     avoid={0: lines0, 1: lines1})

    def frame_ricci(self, X):
        half = self.xi0 / 2.0
        return ricci_local_glue(self, half * X[:, 0], half * X[:, 1]).entries


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

    def chart(self) -> Chart:
        """Coordinates (gamma, theta, theta1, theta2); the orthonormal frame."""

        def metric(X):
            g0, th = X[:, 0], X[:, 1]
            P = self.Phi(g0, th)
            S = self.Psi(g0, th)
            U = self.Ups(g0, th)
            g = np.zeros((X.shape[0], 4, 4))
            g[:, 0, 0] = 1.0
            g[:, 1, 1] = P ** 2
            g[:, 2, 2] = S ** 2
            g[:, 3, 3] = U ** 2
            return g

        def frame(X):
            g0, th = X[:, 0], X[:, 1]
            P = self.Phi(g0, th)
            S = self.Psi(g0, th)
            U = self.Ups(g0, th)
            fr = np.zeros((X.shape[0], 4, 4))
            fr[:, 0, 0] = 1.0
            fr[:, 1, 1] = 1.0 / P
            fr[:, 2, 2] = 1.0 / S
            fr[:, 3, 3] = 1.0 / U
            return fr

        return Chart(list(self.box) + [(0.1, 1.4), (0.1, 1.4)],
                     metric, frame, name="torus_invariant",
                     avoid=dict(self.avoid))

    def frame_ricci(self, X):
        return ricci_torus_invariant(self.Phi, self.Psi, self.Ups, X[:, 0], X[:, 1]).entries


@dataclass
class BergerGeneral:
    """dr^2 + rho^2 U*^2 + phi^2 (X*^2 + Y*^2): cone-Berger with round base."""

    rho: WarpFunction
    phi: WarpFunction
    r_range: tuple | None = None

    def chart(self) -> Chart:
        """The cone-over-Berger chart with the round fiber."""
        return ConeOverBerger(self.rho, self.phi, round_f(), self.r_range).chart("berger_general")

    def frame_ricci(self, X):
        vals = ricci_berger_general(self.rho, self.phi, X[:, 0])
        return _sym(4, {(i, i): v for i, v in enumerate(vals)})


class CapFactors:
    """The jets of a cap family that no searched constant moves, at the Jet2s
    g = gamma and t = theta: cos th, sinc(2 arg cos th), arg sin th and n arg,
    with arg = gamma on part 1 (eta_delta = None) and eta_delta(gamma) on
    part 2.  Each is computed on first use and kept."""

    def __init__(self, g: Jet2, t: Jet2, n: int, eta_delta: WarpFunction | None = None):
        self.g, self.t, self.n, self.eta_delta = g, t, n, eta_delta

    arg = cached_property(lambda s: s.g if s.eta_delta is None else j2warp(s.eta_delta, s.g))
    cos = cached_property(lambda s: jcos(s.t))
    sinc = cached_property(lambda s: jsinc(2.0 * s.arg * s.cos))
    arg_sin = cached_property(lambda s: s.arg * jsin(s.t))
    n_arg = cached_property(lambda s: float(s.n) * s.arg)

    def pref(self, phi1: WarpFunction, zeta: float) -> Jet2:
        """The family's prefactor: phi1(gamma) on part 1, (1 - zeta) gamma on part 2."""
        return j2warp(phi1, self.g) if self.eta_delta is None else (1.0 - zeta) * self.g


def cap_family_jets(pref: Jet2, fac: CapFactors, rho):
    """Phi, Psi, Ups = pref * (1, cos th sinc(2 arg cos th), rho / (n arg)) of
    a cap family from its prefactor, its factors ``fac`` and rho(), rho_cap at
    ``fac.arg_sin``; each as a function of no arguments, so that a caller
    forms only the families it reads."""
    return (lambda: pref, lambda: pref * fac.cos * fac.sinc,
            lambda: pref * rho() / fac.n_arg)


def make_cap_families(phi1: WarpFunction, eta_delta: WarpFunction | None,
                      rho_cap: WarpFunction, n: int, zeta: float):
    """(Phi, Psi, Ups) for the cap (``cap_family_jets``); eta_delta = None
    gives the part-1 family.  Each evaluates only its own factors."""

    def family(k):
        def jet2(g, t):
            fac = CapFactors(g, t, n, eta_delta)
            return cap_family_jets(fac.pref(phi1, zeta), fac,
                                   lambda: j2warp(rho_cap, fac.arg_sin))[k]()
        return BivariateFn(jet2, ("Phi", "Psi", "Ups")[k])

    return tuple(family(k) for k in range(3))


def cap_gamma_boxes(r0: float):
    """The gamma intervals of the cap's parts: (r0/1000, r0) for part 1 and
    (r0/1000, r0/2) for part 2."""
    return (r0 * 1e-3, r0), (r0 * 1e-3, r0 / 2)


def link_theta_jets(rho_cap: WarpFunction, sigma_link: float, th):
    """The s-independent jets of ``link_family_jets`` at th: cos th, sin th,
    sinc(2 sigma cos th) and rho_cap(sigma sin th), sigma = sigma_link."""
    t = jet_var(np.asarray(th, dtype=float))
    c = jcos(t)
    sn = jsin(t)
    inner = sigma_link * sn
    jr = rho_cap.jet(inner.f)
    return c, sn, jsinc(2.0 * sigma_link * c), inner.chain(jr.f, jr.f1, jr.f2)


def link_family_jets(rho_cap: WarpFunction, n: int, sigma_link: float, s, th,
                     theta_jets=None):
    """Jets in theta of the link family joining the round sphere (s = 0) to
    the frozen cap link (s = 1): B_s = (1-s) cos th + s sin(2 sigma cos th)/(2 sigma)
    and C_s = (1-s) sin th + s rho_cap(sigma sin th)/(n sigma), sigma = sigma_link.
    ``theta_jets``, ``link_theta_jets`` at the same th, spares their
    recomputation when several s share one th."""
    c, sn, sinc, comp = theta_jets or link_theta_jets(rho_cap, sigma_link, th)
    return ((1.0 - s) * c + s * c * sinc,
            (1.0 - s) * sn + (s / (n * sigma_link)) * comp)


def link_ricci_margins(rho_cap: WarpFunction, n: int, sigma_link: float, s, th):
    """Per theta, the least eigenvalue of the Ricci tensor of the link metric
    dth^2 + B_s^2 da^2 + C_s^2 db^2: its three diagonal entries on the
    orthonormal frame."""
    jb, jc = link_family_jets(rho_cap, n, sigma_link, s, th)
    m11 = -jb.f2 / jb.f - jc.f2 / jc.f
    m22 = -jb.f2 / jb.f - jb.f1 * jc.f1 / (jb.f * jc.f)
    m33 = -jc.f2 / jc.f - jb.f1 * jc.f1 / (jb.f * jc.f)
    return np.minimum(np.minimum(m11, m22), m33)


def cap_link_lower_bound(zeta: float) -> float:
    """The cap link's certified Ricci floor (2 + zeta/100)(1 - zeta)^2."""
    return (2.0 + zeta / 100.0) * (1.0 - zeta) ** 2


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


def ricci_berger_sphere(f: WarpFunction, t: float, xi) -> RicciFrame:
    """Ricci of the warped Berger sphere on the frame {U, X, Y}.

    U = da, X = dxi, Y = (1/f)(db - cos^2 xi da); entries are the bilinear
    form on these fixed vectors (U has squared length t, not 1).
    """
    if t <= 0:
        raise DegenerateMetricError("t must be positive")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    q, dq, jf = _q_jets(f, xi)
    uu = 2.0 * t * t * q * q
    uy = t * dq
    xx = -jf.f2 / jf.f - 2.0 * t * q * q
    return RicciFrame(_sym(3, {(0, 0): uu, (0, 2): uy, (1, 1): xx, (2, 2): xx}))


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
    rows = {(0, 0): rr, (1, 1): uu, (1, 3): uy, (2, 2): xx, (3, 3): xx}
    return RicciFrame(_sym(4, rows))


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
    return RicciFrame(_sym(4, rows))


def ricci_torus_invariant(Phi: BivariateFn, Psi: BivariateFn, Ups: BivariateFn,
                          gamma, theta) -> RicciFrame:
    """Ricci of d g^2 + Phi^2 dth^2 + Psi^2 dth1^2 + Ups^2 dth2^2 on {Y1..Y4}."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    gamma, theta = np.broadcast_arrays(gamma, theta)
    gx = jet2_var_x(gamma, theta)
    gy = jet2_var_y(gamma, theta)
    return ricci_torus_jets(Phi.jet2(gx, gy), Psi.jet2(gx, gy), Ups.jet2(gx, gy))


def ricci_torus_jets(P: Jet2, S: Jet2, U: Jet2) -> RicciFrame:
    """``ricci_torus_invariant`` from the Jet2s of Phi, Psi and Ups in
    (gamma, theta)."""
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
    return RicciFrame(_sym(4, rows))


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
