"""Grid-based certification: positive semidefiniteness, scalar differential
inequalities, oracle agreement, interface gluing, and the one table of atlas
region checks that resolve, certify_gluing and ``conewarp certify`` share.

Certification here is sampled, not interval-verified: every report states the
grid, the tolerance, the margin achieved, and a Lipschitz cell bound estimated
from the sampled field, so the claim is exactly "verified on grid G with
margin m".
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    Chart,
    ConeOverBerger,
    LocalGlue,
    ansatz_to_chart,
    cap_parts,
    frame_project,
    ricci_berger_general,
    ricci_cone_berger,
    ricci_fd_batch,
    ricci_local_glue,
    ricci_torus_invariant,
)
from .errors import DomainError, PipelineError, SingularityError
from .warpfn import WarpFunction, _sample_open

__all__ = [
    "Grid",
    "CertificationReport",
    "AtlasRegion",
    "certify_psd",
    "certify_inequality",
    "certify_oracle_agreement",
    "certify_interface",
    "cap_block_margins",
    "bound_report",
    "CHECKS",
    "run_checks",
    "recertify",
    "certify_gluing",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-8
PIH = math.pi / 2


@dataclass
class Grid:
    """Product grid: per-coordinate (lo, hi, count).  Open intervals are
    sampled at cell midpoints so axis endpoints are never evaluated; closed
    ones include both ends.  ``open_ends`` is one flag or one per axis.  An
    entry (lo, hi, count) of ``refine`` merges the midpoints of a finer
    sampling of that band into its axis (None leaves the axis uniform)."""

    intervals: list           # [(lo, hi)]
    counts: list              # [n]
    open_ends: bool | tuple = True
    refine: list | None = None

    def __post_init__(self):
        if len(self.intervals) != len(self.counts):
            raise DomainError("grid needs one count per interval")
        if any(n < 2 for n in self.counts):
            raise DomainError("grid counts must be >= 2")

    def axes(self):
        k = len(self.counts)
        flags = self.open_ends if isinstance(self.open_ends, tuple) else (self.open_ends,) * k
        out = []
        for (lo, hi), n, is_open, band in zip(self.intervals, self.counts, flags,
                                              self.refine or [None] * k):
            ax = _sample_open(lo, hi, n) if is_open else np.linspace(lo, hi, n)
            if band is not None:
                ax = np.unique(np.concatenate([ax, _sample_open(*band)]))
            out.append(ax)
        return out

    def points(self) -> np.ndarray:
        axes = self.axes()
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_bound(self, margins: np.ndarray) -> float:
        """Lipschitz cell bound of values sampled at ``points()``: the largest
        sampled slope times half the largest cell diagonal."""
        axes = self.axes()
        m = margins.reshape([len(a) for a in axes])
        lip = 0.0
        for k, ax in enumerate(axes):
            step = np.diff(ax).reshape([-1 if j == k else 1 for j in range(m.ndim)])
            lip = max(lip, float(np.max(np.abs(np.diff(m, axis=k)) / step)))
        return 0.5 * lip * math.sqrt(sum(float(np.max(np.diff(a))) ** 2 for a in axes))

    def spec(self):
        out = {"intervals": [list(map(float, iv)) for iv in self.intervals],
               "counts": list(map(int, self.counts)),
               "open_ends": self.open_ends}
        if self.refine:
            out["refine"] = self.refine
        return out


@dataclass
class CertificationReport:
    target: str
    grid: dict
    tolerance: float
    min_margin: float            # >= -tolerance means pass
    argmin: list
    violations: list = field(default_factory=list)
    passed: bool = False
    lipschitz_cell_bound: float = float("nan")
    details: dict = field(default_factory=dict)
    wall_time: float = 0.0
    note: str = "sampled certification (grid + margin), not an interval proof"

    def __bool__(self):
        return self.passed

    def to_json(self) -> str:
        d = dict(self.__dict__)
        return json.dumps(d, indent=2, default=_jsonable)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.target}: min margin {self.min_margin:.3e} "
                f"(tol {self.tolerance:.1e}, cell bound {self.lipschitz_cell_bound:.2e}, "
                f"{len(self.violations)} violations)")


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    return str(x)


def _margin_report(target, grid, tol, margins: np.ndarray, pts: np.ndarray, t0: float,
                   details=None) -> CertificationReport:
    """Common reduction: margins >= -tol everywhere means pass.

    ``grid`` is the Grid the points came from, or a list of Grids whose
    points were concatenated in order; ``t0`` is when the caller began
    evaluating the field, so ``wall_time`` covers the evaluation.
    """
    if not np.all(np.isfinite(margins)):
        bad = pts[~np.isfinite(margins)][0]
        raise SingularityError(f"{target}: non-finite field value at {bad}")
    i_min = int(np.argmin(margins))
    viol = np.flatnonzero(margins < -tol)
    viol = viol[np.argsort(margins[viol], kind="stable")][:32]
    single = isinstance(grid, Grid)
    grids = [grid] if single else grid
    sizes = [math.prod(len(a) for a in g.axes()) for g in grids]
    parts = np.split(margins, np.cumsum(sizes)[:-1])
    rep = CertificationReport(
        target=target, grid=grid.spec() if single else [g.spec() for g in grids],
        tolerance=float(tol), min_margin=float(margins[i_min]), argmin=pts[i_min].tolist(),
        violations=[{"point": pts[i].tolist(), "value": float(margins[i])} for i in viol],
        lipschitz_cell_bound=max(g.cell_bound(m) for g, m in zip(grids, parts)),
        details=details or {},
    )
    rep.wall_time = time.perf_counter() - t0
    rep.passed = rep.min_margin >= -rep.tolerance and not rep.violations
    return rep


def certify_psd(field_fn, grid: Grid, tol: float = DEFAULT_TOL,
                target: str = "psd") -> CertificationReport:
    """Minimum eigenvalue of a symmetric-matrix field over the grid.

    ``field_fn`` maps points (N, d) to symmetric matrices (N, k, k).
    Deterministic: the grid order is fixed and the reduction is exact.
    """
    t0 = time.perf_counter()
    pts = grid.points()
    mats = np.asarray(field_fn(pts), dtype=float)
    if not np.all(np.isfinite(mats)):
        bad = pts[~np.all(np.isfinite(mats), axis=(1, 2))][0]
        raise SingularityError(f"{target}: non-finite field value at {bad}")
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    eigs = np.linalg.eigvalsh(mats)
    margins = eigs[:, 0]
    rep = _margin_report(target, grid, tol, margins, pts, t0)
    rep.details["min_eigenvalue"] = rep.min_margin
    return rep


def scalar_q_inequality(f: WarpFunction, xi: np.ndarray) -> np.ndarray:
    """(2 cot 2xi - f'/f)^2 + 3 f''/(4 f), the collapsed-fiber Ricci criterion."""
    j = f.jet(xi)
    if np.any(j.f <= 0):
        raise DomainError("f must be positive at every sample")
    d = 2.0 / np.tan(2.0 * xi) - j.f1 / j.f
    return d * d + 0.75 * j.f2 / j.f


def certify_inequality(f: WarpFunction, bound: float, grid: Grid,
                       tol: float = DEFAULT_TOL, target: str = "") -> CertificationReport:
    """Certify (2 cot 2xi - f'/f)^2 + 3 f''/(4f) <= bound on the grid."""
    t0 = time.perf_counter()
    pts = grid.points()
    xi = pts[:, 0]
    lhs = scalar_q_inequality(f, xi)
    margins = bound - lhs
    name = target or f"inequality<= {bound} for {f.name or 'f'}"
    rep = _margin_report(name, grid, tol, margins, pts, t0)
    rep.details["bound"] = bound
    rep.details["max_lhs"] = float(np.max(lhs))
    return rep


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------


def closed_form_on_frame(ansatz, X: np.ndarray) -> np.ndarray:
    """Closed-form Ricci entries on the chart frame at chart points X."""
    from . import curvature as cv

    if isinstance(ansatz, cv.BergerSphere):
        return cv.ricci_berger_sphere(ansatz.f, ansatz.t, X[:, 0]).entries
    if isinstance(ansatz, cv.ConeOverBerger):
        return cv.ricci_cone_berger(ansatz.rho, ansatz.phi, ansatz.f, X[:, 0], X[:, 1]).entries
    if isinstance(ansatz, cv.BergerGeneral):
        vals = cv.ricci_berger_general(ansatz.rho, ansatz.phi, X[:, 0])
        out = np.zeros((X.shape[0], 4, 4))
        for i in range(4):
            out[:, i, i] = vals[i]
        return out
    if isinstance(ansatz, cv.DoubleWarp):
        lam = cv.ricci_double_warp(ansatz.m, ansatz.n, ansatz.varphi, ansatz.phi, X[:, 0])
        out = np.zeros((X.shape[0], 3, 3))
        for i in range(3):
            out[:, i, i] = lam[i]
        return out
    if isinstance(ansatz, cv.LocalGlue):
        half = ansatz.xi0 / 2.0
        return cv.ricci_local_glue(ansatz, half * X[:, 0], half * X[:, 1]).entries
    if isinstance(ansatz, cv.TorusInvariant):
        return cv.ricci_torus_invariant(ansatz.Phi, ansatz.Psi, ansatz.Ups,
                                        X[:, 0], X[:, 1]).entries
    raise DomainError(f"no closed form dispatch for {type(ansatz).__name__}")


def certify_oracle_agreement(ansatz, n_points: int = 100, h: float = 1e-3,
                             tol_factor: float = 10.0, rng=0,
                             target: str = "") -> CertificationReport:
    """Cross-validate the closed-form Ricci against the FD oracle.

    Per the oracle design, the comparison value is the Richardson
    extrapolation of the h and h/2 central-difference results; the observed
    convergence order is measured from the plain h and h/2 deviations.
    Pass requires max deviation <= tol_factor * h^2 * scale and order >= 1.8,
    where scale is max(1, largest closed-form entry).
    """
    t0 = time.perf_counter()
    chart = ansatz_to_chart(ansatz)
    X = chart.interior_samples(n_points, rng=rng)
    closed = closed_form_on_frame(ansatz, X)
    k = closed.shape[-1]

    def projected(hh):
        ric = ricci_fd_batch(chart, X, hh)
        proj = frame_project(ric, chart.frame_batch(X))
        return proj[:, :k, :k]

    p1 = projected(h)
    p2 = projected(h / 2)
    p_rich = (4.0 * p2 - p1) / 3.0
    dev1 = np.abs(p1 - closed)
    dev2 = np.abs(p2 - closed)
    devr = np.abs(p_rich - closed)
    scale = max(1.0, float(np.max(np.abs(closed))))
    tol = tol_factor * h * h * scale
    rms1 = float(np.sqrt(np.mean(dev1 ** 2)))
    rms2 = float(np.sqrt(np.mean(dev2 ** 2)))
    order = float(np.log2(rms1 / rms2)) if rms2 > 0 else 4.0
    margins = tol - devr.reshape(devr.shape[0], -1).max(axis=1)
    name = target or f"oracle agreement: {chart.name}"
    rep = _margin_report(name, Grid([(0, 1)], [max(2, n_points)]), tol,
                         margins, X, t0)
    rep.grid = {"samples": int(n_points), "h": h}
    rep.details.update({
        "max_dev_richardson": float(np.max(devr)),
        "max_dev_h": float(np.max(dev1)),
        "max_dev_h2": float(np.max(dev2)),
        "convergence_order": order,
        "scale": scale,
    })
    if order < 1.8:
        rep.passed = False
        rep.violations.append({"point": "order", "value": order})
    rep.wall_time = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# interface gluing
# ---------------------------------------------------------------------------


def certify_interface(name: str, samples_a: np.ndarray, samples_b: np.ndarray,
                      chart_a: Chart, chart_b: Chart, jac_ab: np.ndarray,
                      tol: float = DEFAULT_TOL,
                      radial_dir: tuple | None = None,
                      h: float = 1e-6) -> CertificationReport:
    """Compare pulled-back metric components across an interface.

    ``samples_a``/``samples_b`` are matched point lists in the two charts;
    ``jac_ab[n, i, j] = d x_a^i / d x_b^j`` is the identification Jacobian at
    each sample.  Checks components and, when ``radial_dir = (dir_a, dir_b)``
    unit coordinate directions are given, the first radial derivative.
    """
    t0 = time.perf_counter()
    ga = chart_a.metric_batch(samples_a)
    gb = chart_b.metric_batch(samples_b)
    # pulled[n,i,j] = jac^a_i g_ab jac^b_j with jac indexed [n, a, i]
    pulled = np.einsum("nai,nab,nbj->nij", jac_ab, ga, jac_ab)
    scale = np.maximum(1e-30, np.max(np.abs(gb), axis=(1, 2), keepdims=True))
    dev = np.max(np.abs(pulled - gb) / scale, axis=(1, 2))
    details = {"max_component_dev": float(np.max(dev))}
    if radial_dir is not None:
        da, db = radial_dir
        ga_p = chart_a.metric_batch(samples_a + h * da)
        ga_m = chart_a.metric_batch(samples_a - h * da)
        gb_p = chart_b.metric_batch(samples_b + h * db)
        gb_m = chart_b.metric_batch(samples_b - h * db)
        dga = np.einsum("nai,nab,nbj->nij", jac_ab, (ga_p - ga_m) / (2 * h), jac_ab)
        dgb = (gb_p - gb_m) / (2 * h)
        ddev = np.max(np.abs(dga - dgb) / scale, axis=(1, 2))
        dev = np.maximum(dev, ddev)
        details["max_radial_derivative_dev"] = float(np.max(ddev))
    margins = tol - dev
    rep = _margin_report(f"interface {name}", Grid([(0, 1)], [max(2, len(dev))]),
                         tol, margins, samples_b, t0, details=details)
    rep.grid = {"samples": int(len(dev))}
    return rep


# ---------------------------------------------------------------------------
# atlas region checks
# ---------------------------------------------------------------------------


@dataclass
class AtlasRegion:
    id: str
    kind: str
    description: str
    data: dict = field(default_factory=dict)
    warps: dict = field(default_factory=dict)   # name -> WarpFunction

    @classmethod
    def from_json(cls, d: dict) -> "AtlasRegion":
        return cls(d["id"], d["kind"], d["description"], d["data"],
                   {k: WarpFunction.deserialize(v) for k, v in d["warps"].items()})


def bound_report(target, value, bound, tol=0.0, grid=None) -> CertificationReport:
    """Report for a value the builder computed: value <= bound + tol passes."""
    rep = CertificationReport(target=target, grid=grid or {}, tolerance=tol,
                              min_margin=float(bound - value), argmin=[])
    rep.passed = value <= bound + tol
    rep.details["value"] = float(value)
    rep.details["bound"] = float(bound)
    return rep


def cap_block_margins(part, n: int):
    """(grid, points, margins) of one cap family on its n x n grid over
    ``part.box[0]`` x (0, pi/2): per point, the min of the (Y1,Y2)-block
    eigenvalues and the Y3, Y4 diagonal Ricci entries.  The cap search and
    the cap report both reduce through this function."""
    grid = Grid([part.box[0], (0.0, PIH)], [n, n])
    pts = grid.points()
    e = ricci_torus_invariant(part.Phi, part.Psi, part.Ups, pts[:, 0], pts[:, 1]).entries
    block = np.linalg.eigvalsh(e[:, :2, :2])[:, 0]
    return grid, pts, np.minimum(np.minimum(block, e[:, 2, 2]), e[:, 3, 3])


def _identity_report(target, grid, pts, dev, bound, tol, t0) -> CertificationReport:
    """Scalar reduction of a pointwise deviation: dev <= bound at every sample."""
    return _margin_report(target, grid, tol, bound - dev, pts, t0,
                          details={"value": float(np.max(dev)), "bound": float(bound)})


def _local_glue(region) -> LocalGlue:
    d, w = region.data, region.warps
    return LocalGlue(rho=w["rho"], n=int(d["n"]), eta1=w["eta1"], eta2=w["eta2"],
                     sigma1=d["sigma1"], sigma2=d["sigma2"], xi0=d["xi0"])


def _cap_parts(region):
    d, w = region.data, region.warps
    return cap_parts(w["phi1"], w["eta_delta"], w["rho_cap"], int(d["n"]), d["zeta"], d["r0"])


def _cone_berger_psd(region, grid, tol, target) -> CertificationReport:
    w = region.warps

    def field_fn(pts):
        return ricci_cone_berger(w["rho"], w["phi"], w["f"], pts[:, 0], pts[:, 1]).entries

    return certify_psd(field_fn, grid, tol, target=target)


def _leaf_flat(regions, n_1d, n_2d, tol):
    return _cone_berger_psd(regions["flat"], Grid([(0.1, 2.0), (0.0, PIH)], [32, 32]),
                            tol, "flat leaf Ricci = 0")


def _f_inequality(regions, n_1d, n_2d, tol):
    e = regions["edge_body"]
    return certify_inequality(e.warps["f"], -1.0, Grid([(0.0, PIH)], [n_1d]), tol,
                              target=f"f inequality <= -1 ({e.data['n']},{e.data['p']})")


def _edge_ricci(regions, n_1d, n_2d, tol):
    e = regions["edge_body"]
    return _cone_berger_psd(e, Grid([(0.0, e.data["r_out"]), (0.0, PIH)], [n_2d, n_2d]),
                            tol, "edge body Ricci >= 0")


def _exact_tail(tail, body):
    """The radial profiles of ``body`` equal the linear cone c (r + c3) on
    [R_mu, r_out], with the constants stored in ``tail``."""
    t0 = time.perf_counter()
    d = tail.data
    grid = Grid([(d["R_mu"], body.data["r_out"])], [1024])
    pts = grid.points()
    r = pts[:, 0]
    lin_r = d["c1"] * (r + d["c3"])
    lin_p = d["c2"] * (r + d["c3"])
    dev = np.maximum(np.abs(body.warps["rho"](r) - lin_r) / lin_r,
                     np.abs(body.warps["phi"](r) - lin_p) / lin_p)
    return _identity_report("tail region is the exact cone (closed form)", grid, pts,
                            dev, 1e-12, 0.0, t0)


def _tail_exact_linear(regions, n_1d, n_2d, tol):
    return _exact_tail(regions["cone_tail"], regions["edge_body"])


def _body_tail_exact(regions, n_1d, n_2d, tol):
    return _exact_tail(regions["berger_body"], regions["berger_body"])


def _glue_ricci(regions, n_1d, n_2d, tol):
    g = regions["glue_collar"]
    glue = _local_glue(g)
    half = g.data["xi0"] / 2
    # the cutoff windows are far below the uniform spacing: refine them
    grid = Grid([(0.0, half), (0.0, half)], [n_2d, n_2d],
                refine=[(0.0, min(2.2 * g.data[s], half), n_2d // 2)
                        for s in ("sigma1", "sigma2")])

    def field_fn(pts):
        return ricci_local_glue(glue, pts[:, 0], pts[:, 1]).entries

    return certify_psd(field_fn, grid, tol, target="glue collar Ricci >= 0 (refined cutoff bands)")


def _glue_product(regions, n_1d, n_2d, tol):
    """In the corner the glue metric is exactly the surface product."""
    t0 = time.perf_counter()
    g = regions["glue_collar"]
    grid = Grid([(0.0, g.data["sigma1"]), (0.0, g.data["sigma2"])], [48, 48])
    pts = grid.points()
    psi = _local_glue(g).psi_jets(pts[:, 0], pts[:, 1])[0]
    return _identity_report("glue corner equals the surface product (psi = 0)", grid, pts,
                            np.abs(psi), 0.0, 1e-15, t0)


def _edge_glue_interface(regions, n_1d, n_2d, tol):
    """Exact identification on the overlap where the twist is fully on."""
    e, g = regions["edge_body"], regions["glue_collar"]
    glue = _local_glue(g)
    n = glue.n
    half = glue.xi0 / 2
    chart_e = ansatz_to_chart(ConeOverBerger(e.warps["rho"], e.warps["phi"], e.warps["f"]))
    chart_g = Chart([(0, half), (0, half), (0, 7), (0, 7)],
                    lambda Xp: glue.metric(Xp[:, 0], Xp[:, 1]))
    # overlap where both cutoffs vanish: twist fully on
    m = 24
    rs = np.linspace(2.2 * glue.sigma1, half * 0.95, m)
    xs = np.linspace(max(2.2 * glue.sigma2, half * 0.3), half * 0.95, m)
    Rg, Xg = np.meshgrid(rs, xs, indexing="ij")
    pts_glue = np.stack([Rg.ravel(), Xg.ravel(),
                         np.full(m * m, 1.0), np.full(m * m, 1.0)], axis=-1)
    pts_edge = pts_glue.copy()
    pts_edge[:, 2] = pts_glue[:, 2] / n - pts_glue[:, 3]
    # Jacobian d(edge)/d(glue): alpha = alpha_hat/n - beta_hat, beta = beta_hat
    jac = np.zeros((m * m, 4, 4))
    jac[:, 0, 0] = 1.0
    jac[:, 1, 1] = 1.0
    jac[:, 2, 2] = 1.0 / n
    jac[:, 2, 3] = -1.0
    jac[:, 3, 3] = 1.0
    dr = np.zeros(4)
    dr[0] = 1.0
    return certify_interface("edge <-> glue collar", pts_edge, pts_glue,
                             chart_e, chart_g, jac, tol=1e-9, radial_dir=(dr, dr))


def _cap_blocks(regions, n_1d, n_2d, tol):
    t0 = time.perf_counter()
    grids, pts, margins = zip(*(cap_block_margins(p, n_2d)
                                for p in _cap_parts(regions["conical_cap"])))
    rep = _margin_report("cap (Y1,Y2)-block and Y3, Y4 diagonals >= 0", list(grids), tol,
                         np.concatenate(margins), np.concatenate(pts), t0)
    rep.details["argmin_part"] = "part1" if margins[0].min() <= margins[1].min() else "part2"
    return rep


def _cap_collar(regions, n_1d, n_2d, tol):
    """Near gamma = r0 the cap families equal the unmodified product metric."""
    t0 = time.perf_counter()
    c = regions["conical_cap"]
    r0, n = c.data["r0"], c.data["n"]
    part1 = _cap_parts(c)[0]
    grid = Grid([(0.985 * r0, 0.999 * r0), (0.0, PIH)], [16, 64], open_ends=(False, True))
    pts = grid.points()
    G, T = pts[:, 0], pts[:, 1]
    jr = c.warps["rho_cap"].jet(G * np.sin(T))
    dev = np.maximum.reduce([
        np.abs(part1.Phi(G, T) / G - 1.0),
        np.abs(part1.Psi(G, T) / (np.sin(2 * G * np.cos(T)) / 2) - 1.0),
        np.abs(part1.Ups(G, T) / (jr.f / n) - 1.0),
    ])
    return _identity_report("cap collar equals the product model at gamma ~ r0", grid, pts,
                            dev, 1e-8, 0.0, t0)


def _cap_cone(regions, n_1d, n_2d, tol):
    """Inside gamma <= sigma the part-2 family is the exact frozen cone."""
    t0 = time.perf_counter()
    c = regions["conical_cap"]
    d = c.data
    part2 = _cap_parts(c)[1]
    grid = Grid([(0.02 * d["sigma"], 0.98 * d["sigma"]), (0.0, PIH)], [24, 48],
                open_ends=(False, True))
    pts = grid.points()
    G, T = pts[:, 0], pts[:, 1]
    z = 1 - d["zeta"]
    sl = d["sigma_link"]
    jr = c.warps["rho_cap"].jet(sl * np.sin(T))
    dev = np.maximum.reduce([
        np.abs(part2.Phi(G, T) / (z * G) - 1.0),
        np.abs(part2.Psi(G, T) / (z * G * np.sin(2 * sl * np.cos(T)) / (2 * sl)) - 1.0),
        np.abs(part2.Ups(G, T) / (z * G * jr.f / (int(d["n"]) * sl)) - 1.0),
    ])
    return _identity_report("cap inner ball is the exact frozen cone", grid, pts,
                            dev, 1e-12, 0.0, t0)


def _body_ricci(regions, n_1d, n_2d, tol):
    t0 = time.perf_counter()
    b = regions["berger_body"]
    grid = Grid([(0.0, b.data["r_out"])], [4096])
    pts = grid.points()
    vals = ricci_berger_general(b.warps["rho"], b.warps["phi"], pts[:, 0])
    return _margin_report("round-base body: four diagonal Ricci values >= 0", grid, tol,
                          np.min(vals, axis=0), pts, t0)


# Every check computable from atlas region data: report name -> (ids of the
# regions it reads, check(regions, n_1d, n_2d, tol)), where n_1d and n_2d are
# the 1-D and 2-D grid counts.  resolve runs every entry whose regions its
# atlas has; conewarp certify runs FILE_CHECKS on the atlas file and
# certify_gluing runs GLUING_CHECKS on the built atlas.
CHECKS = {
    "leaf_flat": (("flat",), _leaf_flat),
    "f_inequality_smoothed": (("edge_body",), _f_inequality),
    "edge_ricci_psd": (("edge_body",), _edge_ricci),
    "tail_exact_linear": (("cone_tail", "edge_body"), _tail_exact_linear),
    "glue_ricci_psd": (("glue_collar",), _glue_ricci),
    "iface_edge_glue": (("edge_body", "glue_collar"), _edge_glue_interface),
    "iface_glue_product": (("glue_collar",), _glue_product),
    "cap_blocks_psd": (("conical_cap",), _cap_blocks),
    "iface_cap_collar": (("conical_cap",), _cap_collar),
    "iface_cap_cone": (("conical_cap",), _cap_cone),
    "body_ricci_psd": (("berger_body",), _body_ricci),
    "body_tail_exact": (("berger_body",), _body_tail_exact),
}
FILE_CHECKS = ("f_inequality_smoothed", "edge_ricci_psd", "glue_ricci_psd", "cap_blocks_psd",
               "body_ricci_psd")
GLUING_CHECKS = ("tail_exact_linear", "iface_edge_glue", "iface_glue_product",
                 "iface_cap_collar", "iface_cap_cone")


def run_checks(regions: dict, names=None, n_1d: int = 10_000, n_2d: int = 128,
               tol: float = DEFAULT_TOL) -> dict:
    """Reports of the named checks (all by default) whose regions are present
    in ``regions`` (region id -> AtlasRegion)."""
    return {name: check(regions, n_1d, n_2d, tol)
            for name, (needs, check) in CHECKS.items()
            if (names is None or name in names) and all(r in regions for r in needs)}


def recertify(atlas_json: dict, n_2d: int = 128, tol: float = DEFAULT_TOL) -> dict:
    """Run FILE_CHECKS on a written atlas; only the regions they read are
    deserialized."""
    needed = {r for name in FILE_CHECKS for r in CHECKS[name][0]}
    regions = {d["id"]: AtlasRegion.from_json(d) for d in atlas_json["regions"]
               if d["id"] in needed}
    return run_checks(regions, FILE_CHECKS, n_2d=n_2d, tol=tol)


def certify_gluing(atlas, tol: float = DEFAULT_TOL) -> dict:
    """Recompute the tail and interface reports of a built atlas from its
    region data; every declared interface must resolve to a report or the
    atlas is rejected."""
    out = run_checks({r.id: r for r in atlas.regions}, GLUING_CHECKS, tol=tol)
    for iface in atlas.interfaces:
        if iface.report_name not in out:
            raise PipelineError(f"unmatched interface: {iface.report_name}")
    return out
