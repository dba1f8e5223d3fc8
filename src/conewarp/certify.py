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
from functools import partial

import numpy as np

from .curvature import (
    KAPPA,
    CapFactors,
    ConeOverBerger,
    LocalGlue,
    cap_family_jets,
    cap_gamma_boxes,
    cap_link_lower_bound,
    frame_project,
    link_family_jets,
    link_ricci_margins,
    link_theta_jets,
    ricci_berger_general,
    ricci_cone_berger,
    ricci_fd_batch,
    ricci_local_glue,
    ricci_torus_jets,
)
from .errors import DomainError, PipelineError, SingularityError
from .jets import j2warp, jet2_var_x, jet2_var_y
from .warpfn import WarpFunction, _sample_open

__all__ = [
    "Grid",
    "CellGrid",
    "CertificationReport",
    "AtlasRegion",
    "certify_psd",
    "certify_inequality",
    "certify_oracle_agreement",
    "certify_interface",
    "cap_block_min",
    "cap_link_margins",
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

    def size(self) -> int:
        return math.prod(len(a) for a in self.axes())

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


class CellGrid:
    """The one per-cell sampler: ``per_cell`` midpoints in each cell of f up to
    ``upto``, a row of ``x`` per cell; ``bilateral`` moves a cell whose midpoint
    lies right of pi/4 to ``s`` = pi/2 - x, where cot(2s) keeps the digits
    cot(2x) loses.  Margins list the x rows first; points state all in x."""

    def __init__(self, f: WarpFunction, per_cell: int, bilateral: bool = False,
                 upto: float = math.inf):
        edges = [f.a, *f.breakpoints, f.b]
        cells = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi <= upto]
        right = [bilateral and lo + hi > PIH for lo, hi in cells]
        self.x = np.reshape([_sample_open(lo, hi, per_cell)
                             for (lo, hi), r in zip(cells, right) if not r], (-1, per_cell))
        self.s = np.reshape([_sample_open(PIH - hi, PIH - lo, per_cell)
                             for (lo, hi), r in zip(cells, right) if r], (-1, per_cell))
        self.per_cell, self.bilateral = per_cell, bilateral

    def q(self, f: WarpFunction):
        """The inequality's left side on the x rows and on the s rows."""
        return (scalar_q_inequality(f, self.x.ravel()),
                scalar_q_inequality(f, self.s.ravel(), reflected=True))

    def points(self) -> np.ndarray:
        return np.concatenate([self.x.ravel(), PIH - self.s.ravel()])[:, None]

    def size(self) -> int:
        return self.x.size + self.s.size

    def cell_bound(self, margins: np.ndarray) -> float:
        """Half the largest step between neighbouring samples of one cell."""
        steps = np.abs(np.diff(margins.reshape(-1, self.per_cell), axis=1))
        return 0.5 * float(np.max(steps, initial=0.0))

    def spec(self):
        return {"per_cell": self.per_cell, "cells": len(self.x) + len(self.s),
                "conditioning": "bilateral" if self.bilateral else "x"}


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

    ``grid`` is the Grid or CellGrid the points came from, or a list of them
    whose points were concatenated in order; ``t0`` is when the caller began
    evaluating the field, so ``wall_time`` covers the evaluation.
    """
    if not np.all(np.isfinite(margins)):
        bad = pts[~np.isfinite(margins)][0]
        raise SingularityError(f"{target}: non-finite field value at {bad}")
    i_min = int(np.argmin(margins))
    viol = np.flatnonzero(margins < -tol)
    viol = viol[np.argsort(margins[viol], kind="stable")][:32]
    grids = grid if isinstance(grid, list) else [grid]
    parts = np.split(margins, np.cumsum([g.size() for g in grids])[:-1])
    rep = CertificationReport(
        target=target, grid=[g.spec() for g in grid] if grids is grid else grid.spec(),
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


def scalar_q_inequality(f: WarpFunction, xi: np.ndarray, reflected: bool = False) -> np.ndarray:
    """(2 cot 2xi - f'/f)^2 + 3 f''/(4 f), the collapsed-fiber Ricci criterion;
    ``reflected``: of xi -> f(pi/2 - xi), exactly (f's odd derivatives flip sign)."""
    j = f.jet(PIH - xi if reflected else xi)
    if np.any(j.f <= 0):
        raise DomainError("f must be positive at every sample")
    d = 2.0 / np.tan(2.0 * xi) + (j.f1 if reflected else -j.f1) / j.f
    return d * d + 0.75 * j.f2 / j.f


def certify_inequality(f: WarpFunction, bound: float, grid,
                       tol: float = DEFAULT_TOL, target: str = "") -> CertificationReport:
    """Certify (2 cot 2xi - f'/f)^2 + 3 f''/(4f) <= bound on a Grid in x, or on a
    CellGrid, whose report says in which variable its argmin was evaluated."""
    t0 = time.perf_counter()
    pts = grid.points()
    cells = isinstance(grid, CellGrid)
    margins = bound - (np.concatenate(grid.q(f)) if cells else scalar_q_inequality(f, pts[:, 0]))
    name = target or f"inequality<= {bound} for {f.name or 'f'}"
    rep = _margin_report(name, grid, tol, margins, pts, t0, details={"bound": bound})
    if cells:
        rep.details["argmin_evaluated_in"] = ("x" if np.argmin(margins) < grid.x.size
                                              else "s = pi/2 - x")
    return rep


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------


def certify_oracle_agreement(ansatz, n_points: int = 100, h: float = 1e-3,
                             rng=0) -> CertificationReport:
    """Cross-validate a family's closed-form Ricci (``ansatz.frame_ricci``)
    against the FD oracle on its chart (``ansatz.chart()``).

    Per the oracle design, the comparison value is the Richardson
    extrapolation of the h and h/2 central-difference results; the observed
    convergence order is measured from the plain h and h/2 deviations.
    Pass requires max deviation <= 10 h^2 scale and order >= 1.8, where
    scale is max(1, largest closed-form entry).
    """
    t0 = time.perf_counter()
    chart = ansatz.chart()
    X = chart.interior_samples(n_points, rng=rng)
    closed = ansatz.frame_ricci(X)
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
    tol = 10.0 * h * h * scale
    rms1 = float(np.sqrt(np.mean(dev1 ** 2)))
    rms2 = float(np.sqrt(np.mean(dev2 ** 2)))
    order = float(np.log2(rms1 / rms2)) if rms2 > 0 else 4.0
    margins = tol - devr.reshape(devr.shape[0], -1).max(axis=1)
    rep = _margin_report(f"oracle agreement: {chart.name}",
                         Grid([(0, 1)], [max(2, n_points)]), tol, margins, X, t0)
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
                      metric_a, metric_b, jac_ab: np.ndarray, radial_dir: tuple,
                      tol: float) -> CertificationReport:
    """Compare pulled-back metric components across an interface.

    ``metric_a``/``metric_b`` map points (N, d) of each side's coordinates to
    metrics (N, d, d); ``samples_a``/``samples_b`` are matched point lists in
    those coordinates; ``jac_ab[n, i, j] = d x_a^i / d x_b^j`` is the
    identification Jacobian at each sample.  Checks components and their
    first derivative along ``radial_dir = (dir_a, dir_b)``, unit coordinate
    directions, by central differences of step 1e-6.
    """
    t0 = time.perf_counter()
    h = 1e-6
    ga = metric_a(samples_a)
    gb = metric_b(samples_b)
    # pulled[n,i,j] = jac^a_i g_ab jac^b_j with jac indexed [n, a, i]
    pulled = np.einsum("nai,nab,nbj->nij", jac_ab, ga, jac_ab)
    scale = np.maximum(1e-30, np.max(np.abs(gb), axis=(1, 2), keepdims=True))
    dev = np.max(np.abs(pulled - gb) / scale, axis=(1, 2))
    details = {"max_component_dev": float(np.max(dev))}
    da, db = radial_dir
    ga_p = metric_a(samples_a + h * da)
    ga_m = metric_a(samples_a - h * da)
    gb_p = metric_b(samples_b + h * db)
    gb_m = metric_b(samples_b - h * db)
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


def bound_report(target, value, bound, grid) -> CertificationReport:
    """Report for a value the builder computed: value <= bound passes."""
    rep = CertificationReport(target=target, grid=grid, tolerance=0.0,
                              min_margin=float(bound - value), argmin=[])
    rep.passed = value <= bound
    rep.details["value"] = float(value)
    rep.details["bound"] = float(bound)
    return rep


def cap_block_min(e: np.ndarray) -> np.ndarray:
    """Per point of cap Ricci entries (N, 4, 4), the min of the (Y1,Y2)-block
    eigenvalues and the Y3, Y4 diagonal entries.  The cap search and the cap
    report both reduce through this function."""
    block = np.linalg.eigvalsh(e[:, :2, :2])[:, 0]
    return np.minimum(np.minimum(block, e[:, 2, 2]), e[:, 3, 3])


def cap_link_margins(rho_cap: WarpFunction, n: int, sigma_link: float, n_grid: int):
    """(grid, least Ricci eigenvalue) of the frozen cap link (s = 1) at the
    n_grid open points of (1e-4, pi/2 - 1e-4).  The cap search and the
    cap_link_bound report both sample the link through this function."""
    grid = Grid([(1e-4, PIH - 1e-4)], [n_grid])
    return grid, link_ricci_margins(rho_cap, n, sigma_link, 1.0, grid.axes()[0])


def _identity_report(target, grid, pts, dev, bound, tol, t0) -> CertificationReport:
    """Scalar reduction of a pointwise deviation: dev <= bound at every sample."""
    return _margin_report(target, grid, tol, bound - dev, pts, t0,
                          details={"value": float(np.max(dev)), "bound": float(bound)})


def _local_glue(region) -> LocalGlue:
    d, w = region.data, region.warps
    return LocalGlue(rho=w["rho"], n=int(d["n"]), eta1=w["eta1"], eta2=w["eta2"],
                     sigma1=d["sigma1"], sigma2=d["sigma2"], xi0=d["xi0"])


def _cap_family(cap, part, pts):
    """Phi, Psi and Ups of part 0 or 1 of the cap region as Jet2s at the
    points (gamma, theta)."""
    d, w = cap.data, cap.warps
    fac = CapFactors(jet2_var_x(pts[:, 0], pts[:, 1]), jet2_var_y(pts[:, 0], pts[:, 1]),
                     int(d["n"]), w["eta_delta"] if part else None)
    return [form() for form in cap_family_jets(fac.pref(w["phi1"], d["zeta"]), fac,
                                               lambda: j2warp(w["rho_cap"], fac.arg_sin))]


def _f_inequality(regions, n_1d, n_2d, tol):
    """Every cell of f at max(192, n_1d / cells) midpoints, bilateral."""
    e = regions["edge_body"]
    f = e.warps["f"]
    grid = CellGrid(f, max(192, math.ceil(n_1d / (len(f.breakpoints) + 1))), bilateral=True)
    return {"f_inequality_smoothed": certify_inequality(
        f, -1.0, grid, tol, target=f"f inequality <= -1 ({e.data['n']},{e.data['p']})")}


def _edge_ricci(regions, n_1d, n_2d, tol):
    e = regions["edge_body"]
    w = e.warps

    def field_fn(pts):
        return ricci_cone_berger(w["rho"], w["phi"], w["f"], pts[:, 0], pts[:, 1]).entries

    return {"edge_ricci_psd": certify_psd(
        field_fn, Grid([(0.0, e.data["r_out"]), (0.0, PIH)], [n_2d, n_2d]), tol,
        target="edge body Ricci >= 0")}


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
    return {"tail_exact_linear": _exact_tail(regions["cone_tail"], regions["edge_body"])}


def _body_tail_exact(regions, n_1d, n_2d, tol):
    return {"body_tail_exact": _exact_tail(regions["berger_body"], regions["berger_body"])}


def _rho_bands(body, regions, n_1d, n_2d, tol):
    """rho below band_hi of ``body``, the edge body or the round-base body
    (whose rho is built at n = the group order), on 4096 uniform points and
    64 per piece (the dip corner is below the uniform spacing): at tol 1e-9
    the smaller margin of 1 - mu <= rho' sin(kr) / (k rho cos(kr)) <= 1 + mu
    and -rho''/(k^2 rho) >= 1 - mu (which overflows to +inf, and passes, deep
    in the dip); at 1e-12 rho/n <= min(sin r, mu (1 + sin r)).  The round-base
    body's phi must also be 1 exactly on (1e-4, band_hi)."""
    t0 = time.perf_counter()
    b, edge, k = regions[body], body == "edge_body", KAPPA
    rho, mu, hi = b.warps["rho"], b.data["mu"], b.data["band_hi"]
    prefix, n = ("edge", b.data["n"]) if edge else ("body", b.data["order"])
    grids = [Grid([(1e-6 * hi, hi)], [4096]), CellGrid(rho, 64, upto=hi)]
    pts = np.concatenate([g.points() for g in grids])
    r = pts[:, 0]
    j = rho.jet(r)
    band = j.f1 * np.sin(k * r) / (k * j.f * np.cos(k * r))
    with np.errstate(over="ignore"):
        concave = -j.f2 / (k * k * j.f)
    out = {f"{prefix}_rho_bands": _margin_report(
               f"{prefix} rho log-derivative and concavity bands 1 -/+ mu", grids, 1e-9,
               np.minimum.reduce([band - (1 - mu), 1 + mu - band, concave - (1 - mu)]), pts, t0),
           f"{prefix}_rho_bounds": _margin_report(
               f"{prefix} rho/n <= min(sin r, mu (1 + sin r))", grids, 1e-12,
               np.minimum(np.sin(r), mu * (1 + np.sin(r))) - j.f / n, pts, t0)}
    if not edge:
        grid = Grid([(1e-4, hi)], [512])
        out["body_phi_one"] = _identity_report(
            "round-base body phi = 1 on (0, band_hi)", grid, grid.points(),
            np.abs(b.warps["phi"](grid.axes()[0]) - 1.0), 0.0, 0.0, t0)
    return out


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

    return {"glue_ricci_psd": certify_psd(field_fn, grid, tol,
                                          target="glue collar Ricci >= 0 (refined cutoff bands)")}


def _glue_bounds(regions, n_1d, n_2d, tol):
    """|psi_r / sin 2xi| <= 2 n sigma2/sigma1 and the mixed term
    |3 rho' psi_r / (n sin 2xi)| <= 1/100, from one sweep of psi."""
    t0 = time.perf_counter()
    glue = _local_glue(regions["glue_collar"])
    s1, s2, n, half = glue.sigma1, glue.sigma2, glue.n, glue.xi0 / 2
    # the cutoff windows are far below the uniform spacing: refine them;
    # contiguous copies keep numpy's ufuncs on the paths the golden margins pin
    grid = Grid([(0.0, half)] * 2, [192, 192],
                refine=[(0.0, min(2.2 * s, half), 96) for s in (s1, s2)])
    pts = grid.points()
    r, xi = pts.T.copy()
    p_r = glue.psi_jets(r, xi)[1]
    s2xi = np.sin(2 * xi)
    mixed = np.abs(3.0 * glue.rho.jet(r).f1 * p_r / (n * s2xi))
    return {"glue_psi_r_bound": _identity_report(
                "glue |psi_r/sin 2xi| <= 2 n sigma2/sigma1", grid, pts, np.abs(p_r / s2xi),
                2 * n * s2 / s1 * (1 + 1e-12), 0.0, t0),
            "glue_mixed_bound": _identity_report("glue mixed term <= 1/100", grid, pts,
                                                 mixed, 0.01, 0.0, t0)}


def _glue_product(regions, n_1d, n_2d, tol):
    """In the corner the glue metric is exactly the surface product."""
    t0 = time.perf_counter()
    g = regions["glue_collar"]
    grid = Grid([(0.0, g.data["sigma1"]), (0.0, g.data["sigma2"])], [48, 48])
    pts = grid.points()
    psi = _local_glue(g).psi_jets(pts[:, 0], pts[:, 1])[0]
    return {"iface_glue_product": _identity_report(
        "glue corner equals the surface product (psi = 0)", grid, pts, np.abs(psi), 0.0,
        1e-15, t0)}


def _edge_glue_interface(regions, n_1d, n_2d, tol):
    """Exact identification on the overlap where the twist is fully on."""
    e, g = regions["edge_body"], regions["glue_collar"]
    glue = _local_glue(g)
    n = glue.n
    half = glue.xi0 / 2
    metric_e = ConeOverBerger(e.warps["rho"], e.warps["phi"], e.warps["f"]).chart().metric_batch
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
    return {"iface_edge_glue": certify_interface(
        "edge <-> glue collar", pts_edge, pts_glue, metric_e,
        lambda Xp: glue.metric(Xp[:, 0], Xp[:, 1]), jac, (dr, dr), tol=1e-9)}


def _cap_blocks(regions, n_1d, n_2d, tol):
    """Both parts of the cap on n_2d x n_2d grids over ``cap_gamma_boxes`` x (0, pi/2)."""
    t0 = time.perf_counter()
    c = regions["conical_cap"]
    grids = [Grid([box, (0.0, PIH)], [n_2d, n_2d]) for box in cap_gamma_boxes(c.data["r0"])]
    pts = [g.points() for g in grids]
    margins = [cap_block_min(ricci_torus_jets(*_cap_family(c, part, x)).entries)
               for part, x in enumerate(pts)]
    rep = _margin_report("cap (Y1,Y2)-block and Y3, Y4 diagonals >= 0", grids, tol,
                         np.concatenate(margins), np.concatenate(pts), t0)
    rep.details["argmin_part"] = "part1" if margins[0].min() <= margins[1].min() else "part2"
    return {"cap_blocks_psd": rep}


def _cap_link(regions, n_1d, n_2d, tol):
    """The frozen link (s = 1) has Ric >= (2 + zeta/100)(1 - zeta)^2 g."""
    t0 = time.perf_counter()
    d, w = regions["conical_cap"].data, regions["conical_cap"].warps
    grid, m = cap_link_margins(w["rho_cap"], int(d["n"]), d["sigma_link"], 256)
    return {"cap_link_bound": _margin_report("cap link Ric >= (2 + zeta/100) g", grid, tol,
                                             m - cap_link_lower_bound(d["zeta"]),
                                             grid.points(), t0)}


def _family(regions, n_1d, n_2d, tol):
    """The link family at s = 0, 1/4, .., 1 (``link_family_jets``): Ric >=
    2 ghat, ghat's round end having radius 1 - 999 zeta/1000; volumes and
    volume densities nonincreasing in s; equal volumes after the
    (V1/Vs)^(2/3) scaling; and an s-independent density after the Moser
    reparametrization (cumulative volume matching, trapezoid sums on nf
    points, compared on the middle three quarters of theta)."""
    t0 = time.perf_counter()
    d, w = regions["conical_cap"].data, regions["conical_cap"].warps
    link = (w["rho_cap"], int(d["n"]), d["sigma_link"])
    lam = 1.0 - 999.0 * d["zeta"] / 1000.0
    grid = Grid([(0.0, 1.0), (1e-5, PIH - 1e-5)], [5, n_2d], open_ends=(False, True))
    s_axis, th = grid.axes()
    margins = np.concatenate([link_ricci_margins(*link, s, th) - 2.0 * lam * lam
                              for s in s_axis])
    out = {"family_ricci": _margin_report("interpolation family Ric >= 2 ghat", grid, tol,
                                          margins, grid.points(), t0)}

    t0 = time.perf_counter()
    nf = 16385
    thf = np.linspace(1e-9, PIH - 1e-9, nf)
    shared = link_theta_jets(w["rho_cap"], d["sigma_link"], thf)
    D = np.stack([jb.f * jc.f
                  for jb, jc in (link_family_jets(*link, s, thf, shared) for s in s_axis)])
    vols = np.array([np.trapezoid(dens, thf) for dens in D])
    cs = (vols[-1] / vols) ** (2.0 / 3.0)
    vol_norm = cs ** 1.5 * vols
    s_grid = Grid([(0.0, 1.0)], [5], open_ends=False)
    rep = out["family_volumes"] = _identity_report(
        "normalized family volumes constant", s_grid, s_grid.points(),
        np.abs(vol_norm / vol_norm[-1] - 1.0), 1e-8, 0.0, t0)
    # a volume or a volume density that rises with s is a violation
    rise = np.diff(D, axis=0)
    rep.violations += [{"point": [float(s)], "value": float(v)}
                       for s, v in zip(s_axis[1:], np.diff(vols)) if v > 1e-12]
    rep.violations += [{"point": [float(s_axis[i + 1]), float(thf[j])],
                        "value": float(rise[i, j])} for i, j in np.argwhere(rise > 1e-12)[:32]]
    rep.passed = rep.passed and not rep.violations
    rep.details["nf"] = nf

    F = [np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(thf))])
         for dens in D]
    mid = slice(nf // 8, -nf // 8)
    dev = []
    for i, s in enumerate(s_axis):
        theta_map = np.interp(F[-1], cs[i] ** 1.5 * F[i], thf)
        jb, jc = link_family_jets(*link, s, theta_map)
        d_re = cs[i] ** 1.5 * jb.f * jc.f * np.gradient(theta_map, thf)
        dev.append(np.abs(d_re[mid] / D[-1][mid] - 1.0))
    th_mid = thf[mid]
    m_grid = Grid([(0.0, 1.0), (float(th_mid[0]), float(th_mid[-1]))], [5, len(th_mid)],
                  open_ends=False)
    pts = np.column_stack([np.repeat(s_axis, len(th_mid)), np.tile(th_mid, len(s_axis))])
    rep = out["family_moser"] = _identity_report("Moser density s-independent", m_grid, pts,
                                                 np.concatenate(dev), 1e-6, 0.0, t0)
    rep.details["nf"] = nf
    return out


def _cap_collar(regions, n_1d, n_2d, tol):
    """Near gamma = r0 the cap families equal the unmodified product metric."""
    t0 = time.perf_counter()
    c = regions["conical_cap"]
    r0, n = c.data["r0"], c.data["n"]
    grid = Grid([(0.985 * r0, 0.999 * r0), (0.0, PIH)], [16, 64], open_ends=(False, True))
    pts = grid.points()
    G, T = pts[:, 0], pts[:, 1]
    P, S, U = (j.f for j in _cap_family(c, 0, pts))
    jr = c.warps["rho_cap"].jet(G * np.sin(T))
    dev = np.maximum.reduce([
        np.abs(P / G - 1.0),
        np.abs(S / (np.sin(2 * G * np.cos(T)) / 2) - 1.0),
        np.abs(U / (jr.f / n) - 1.0),
    ])
    return {"iface_cap_collar": _identity_report(
        "cap collar equals the product model at gamma ~ r0", grid, pts, dev, 1e-8, 0.0, t0)}


def _cap_cone(regions, n_1d, n_2d, tol):
    """Inside gamma <= sigma the part-2 family is the exact frozen cone."""
    t0 = time.perf_counter()
    c = regions["conical_cap"]
    d = c.data
    grid = Grid([(0.02 * d["sigma"], 0.98 * d["sigma"]), (0.0, PIH)], [24, 48],
                open_ends=(False, True))
    pts = grid.points()
    G, T = pts[:, 0], pts[:, 1]
    P, S, U = (j.f for j in _cap_family(c, 1, pts))
    z = 1 - d["zeta"]
    sl = d["sigma_link"]
    jr = c.warps["rho_cap"].jet(sl * np.sin(T))
    dev = np.maximum.reduce([
        np.abs(P / (z * G) - 1.0),
        np.abs(S / (z * G * np.sin(2 * sl * np.cos(T)) / (2 * sl)) - 1.0),
        np.abs(U / (z * G * jr.f / (int(d["n"]) * sl)) - 1.0),
    ])
    return {"iface_cap_cone": _identity_report("cap inner ball is the exact frozen cone",
                                               grid, pts, dev, 1e-12, 0.0, t0)}


def _body_ricci(regions, n_1d, n_2d, tol):
    t0 = time.perf_counter()
    b = regions["berger_body"]
    grid = Grid([(0.0, b.data["r_out"])], [4096])
    pts = grid.points()
    vals = ricci_berger_general(b.warps["rho"], b.warps["phi"], pts[:, 0])
    return {"body_ricci_psd": _margin_report("round-base body: four diagonal Ricci values >= 0",
                                             grid, tol, np.min(vals, axis=0), pts, t0)}


# Every check computable from atlas region data: check name -> (ids of the
# regions it reads, check(regions, n_1d, n_2d, tol)), where n_1d and n_2d are
# the 1-D and 2-D grid counts and a check returns {report name: report}; a
# check of one report shares its name.  resolve runs every entry whose
# regions its atlas has; conewarp certify runs FILE_CHECKS on the atlas file
# and certify_gluing runs GLUING_CHECKS on the built atlas.
CHECKS = {
    "f_inequality_smoothed": (("edge_body",), _f_inequality),
    "edge_ricci_psd": (("edge_body",), _edge_ricci),
    "tail_exact_linear": (("cone_tail", "edge_body"), _tail_exact_linear),
    "glue_ricci_psd": (("glue_collar",), _glue_ricci),
    "iface_edge_glue": (("edge_body", "glue_collar"), _edge_glue_interface),
    "iface_glue_product": (("glue_collar",), _glue_product),
    "glue_bounds": (("glue_collar",), _glue_bounds),
    "cap_blocks_psd": (("conical_cap",), _cap_blocks),
    "cap_link_bound": (("conical_cap",), _cap_link),
    "family": (("conical_cap",), _family),
    "iface_cap_collar": (("conical_cap",), _cap_collar),
    "iface_cap_cone": (("conical_cap",), _cap_cone),
    "body_ricci_psd": (("berger_body",), _body_ricci),
    "body_tail_exact": (("berger_body",), _body_tail_exact),
    "edge_bands": (("edge_body",), partial(_rho_bands, "edge_body")),
    "body_bands": (("berger_body",), partial(_rho_bands, "berger_body")),
}
FILE_CHECKS = ("f_inequality_smoothed", "edge_ricci_psd", "glue_ricci_psd", "cap_blocks_psd",
               "cap_link_bound", "body_ricci_psd", "edge_bands", "body_bands")
GLUING_CHECKS = ("tail_exact_linear", "iface_edge_glue", "iface_glue_product",
                 "iface_cap_collar", "iface_cap_cone")


def run_checks(regions: dict, names=None, n_1d: int = 10_000, n_2d: int = 128,
               tol: float = DEFAULT_TOL) -> dict:
    """Reports of the named checks (all by default) whose regions are present
    in ``regions`` (region id -> AtlasRegion)."""
    out = {}
    for name, (needs, check) in CHECKS.items():
        if (names is None or name in names) and all(r in regions for r in needs):
            out.update(check(regions, n_1d, n_2d, tol))
    return out


def recertify(atlas_json: dict, n_2d: int = 128, tol: float = DEFAULT_TOL) -> dict:
    """Run FILE_CHECKS on a written atlas; only the regions they read are
    deserialized."""
    needed = {r for name in FILE_CHECKS for r in CHECKS[name][0]}
    regions = {d["id"]: AtlasRegion.from_json(d) for d in atlas_json["regions"]
               if d["id"] in needed}
    return run_checks(regions, FILE_CHECKS, n_2d=n_2d, tol=tol)


def certify_gluing(atlas) -> dict:
    """Recompute the tail and interface reports of a built atlas from its
    region data; every declared interface must resolve to a report or the
    atlas is rejected.  Each of these checks has its own fixed tolerance."""
    out = run_checks({r.id: r for r in atlas.regions}, GLUING_CHECKS)
    for iface in atlas.interfaces:
        if iface.report_name not in out:
            raise PipelineError(f"unmatched interface: {iface.report_name}")
    return out
