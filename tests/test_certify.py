"""Certification layer: grids, reports, determinism, inequality targets."""

import json
import math

import numpy as np
import pytest

from conewarp import expr as ex
from conewarp.certify import (
    CellGrid,
    CertificationReport,
    Grid,
    certify_inequality,
    certify_psd,
    scalar_q_inequality,
)
from conewarp.curvature import BergerSphere, ricci_berger_sphere
from conewarp.errors import DomainError
from conewarp.warpfn import WarpFunction


def round_f():
    return WarpFunction(0.0, math.pi / 2, [], [ex.sin(2.0 * ex.X) / 2.0])


def test_grid_points_shape_and_offsets():
    g = Grid([(0.0, 1.0), (0.0, 2.0)], [4, 8])
    pts = g.points()
    assert pts.shape == (32, 2)
    assert np.min(pts[:, 0]) == pytest.approx(0.125)  # half-cell offset
    assert np.max(pts[:, 1]) < 2.0
    closed = Grid([(0.0, 1.0)], [5], open_ends=False)
    assert closed.axes()[0][0] == 0.0 and closed.axes()[0][-1] == 1.0


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid([(0, 1)], [1])
    with pytest.raises(DomainError):
        Grid([(0, 1), (0, 2)], [4])


def test_certify_psd_round_sphere():
    f = round_f()

    def fn(pts):
        R = ricci_berger_sphere(f, 1.0, pts[:, 0])
        return R.entries - 2.0 * np.broadcast_to(np.eye(3), R.entries.shape)

    rep = certify_psd(fn, Grid([(0.0, math.pi / 2)], [512]), tol=1e-12,
                      target="round minus 2g")
    assert rep.passed
    assert abs(rep.min_margin) <= 1e-12


def test_certify_psd_flags_violations_deterministically():
    def fn(pts):
        x = pts[:, 0]
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = x - 0.5       # negative for x < 0.5
        out[:, 1, 1] = 1.0
        return out

    g = Grid([(0.0, 1.0)], [64])
    rep1 = certify_psd(fn, g, tol=1e-10)
    rep2 = certify_psd(fn, g, tol=1e-10)
    assert not rep1.passed
    assert rep1.violations == rep2.violations
    assert rep1.min_margin == rep2.min_margin
    assert rep1.argmin[0] == pytest.approx(g.axes()[0][0])


def test_certify_psd_diagonal_cross_check():
    rng = np.random.default_rng(3)
    diag = rng.uniform(-1, 1, size=(128, 4))

    def fn(pts):
        out = np.zeros((len(pts), 4, 4))
        for i in range(4):
            out[:, i, i] = diag[: len(pts), i]
        return out

    rep = certify_psd(fn, Grid([(0, 1)], [128]), tol=1e-12)
    assert rep.min_margin == pytest.approx(float(np.min(diag)), abs=1e-15)


def test_refinement_consistency():
    f = round_f()

    def fn(pts):
        R = ricci_berger_sphere(f, 0.3, pts[:, 0])
        return R.entries

    r1 = certify_psd(fn, Grid([(0.0, math.pi / 2)], [128]), tol=1e-9)
    r2 = certify_psd(fn, Grid([(0.0, math.pi / 2)], [256]), tol=1e-9)
    # doubling the grid may only lower the min by at most the cell bound
    assert r2.min_margin >= r1.min_margin - r1.lipschitz_cell_bound


def test_inequality_round_and_failing():
    f = round_f()
    q = scalar_q_inequality(f, np.linspace(0.05, 1.5, 200))
    np.testing.assert_allclose(q, -3.0, atol=1e-10)
    rep = certify_inequality(f, -2.0, Grid([(0.0, math.pi / 2)], [10_000]))
    assert rep.passed and rep.min_margin == pytest.approx(1.0, abs=1e-9)
    # wrong endpoint slope: the square term diverges near pi/2
    bad = WarpFunction(0.0, math.pi / 2, [], [ex.sin(ex.X)])
    rep_bad = certify_inequality(bad, -2.0, Grid([(0.0, math.pi / 2)], [4096]))
    assert not rep_bad.passed
    assert rep_bad.argmin[0] > 1.4
    # per cell: the cell right of pi/4 is evaluated in s = pi/2 - x, and its
    # argmin and violations are still stated in x
    halves = WarpFunction(0.0, math.pi / 2, [math.pi / 4], [ex.sin(ex.X), ex.sin(ex.X)])
    rep_cells = certify_inequality(halves, -2.0, CellGrid(halves, 512, bilateral=True))
    assert not rep_cells.passed and rep_cells.details["argmin_evaluated_in"] == "s = pi/2 - x"
    assert rep_cells.argmin[0] > 1.4
    assert rep_cells.violations and all(v["point"][0] > 1.4 for v in rep_cells.violations)


def test_inequality_rejects_nonpositive():
    bad = WarpFunction(0.0, math.pi / 2, [], [ex.cos(ex.X)])  # vanishes inside? no: stays positive
    shifted = WarpFunction(0.0, math.pi / 2, [], [ex.cos(ex.X) - 0.5])
    with pytest.raises(DomainError):
        certify_inequality(shifted, -1.0, Grid([(0.0, math.pi / 2)], [512]))


def test_report_json_and_summary():
    rep = CertificationReport(target="demo", grid={"n": 4}, tolerance=1e-8,
                              min_margin=0.5, argmin=[0.1])
    rep.passed = True
    d = json.loads(rep.to_json())
    assert d["target"] == "demo" and d["passed"] is True
    assert "PASS" in rep.summary()
    assert "sampled certification" in d["note"]


def test_oracle_agreement_report_fields():
    from conewarp.certify import certify_oracle_agreement

    f = round_f()
    rep = certify_oracle_agreement(BergerSphere(f, 1.0), n_points=8, rng=7)
    assert rep.passed
    for key in ("max_dev_richardson", "convergence_order", "scale"):
        assert key in rep.details
