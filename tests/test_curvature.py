"""Closed-form Ricci evaluators against exact witnesses and the FD oracle."""

import numpy as np
import pytest

from conewarp import expr as ex
from conewarp.curvature import (
    BergerGeneral,
    BergerSphere,
    BivariateFn,
    ConeOverBerger,
    DoubleWarp,
    LocalGlue,
    RicciFrame,
    TorusInvariant,
    ansatz_to_chart,
    frame_project,
    ricci_berger_general,
    ricci_berger_sphere,
    ricci_cone_berger,
    ricci_double_warp,
    ricci_fd_batch,
    ricci_local_glue,
    ricci_local_glue_display,
    ricci_torus_invariant,
)
from conewarp.errors import DegenerateMetricError, SingularityError
from conewarp.jets import j2cos, j2sin
from conewarp.warpfn import WarpFunction, build_cutoff

PIH = np.pi / 2


def wf(expr, a=0.0, b=PIH, name=""):
    return WarpFunction(a, b, [], [expr], name=name)


def round_f():
    return wf(ex.sin(2.0 * ex.X) / 2.0, name="round")


def linear(a=0.0, b=3.0):
    return wf(ex.X, a, b, name="linear")


def fd_ricci(chart, x, h, richardson=False):
    """Coordinate Ricci at one point by the FD oracle; with ``richardson``,
    the extrapolation (4 R(h/2) - R(h)) / 3."""
    r_h = ricci_fd_batch(chart, x[None, :], h)[0]
    if not richardson:
        return r_h
    return (4.0 * ricci_fd_batch(chart, x[None, :], h / 2)[0] - r_h) / 3.0


def frame_gram(chart, X):
    """Gram matrix of the chart's declared frame under its metric."""
    fr = chart.frame_batch(X)
    return np.einsum("nia,nab,njb->nij", fr, chart.metric_batch(X), fr)


# --------------------------------------------------------------- exact witnesses


def test_berger_round_is_einstein():
    xi = np.linspace(0.2, PIH - 0.2, 9)
    R = ricci_berger_sphere(round_f(), 1.0, xi)
    np.testing.assert_allclose(R.entries, np.broadcast_to(2.0 * np.eye(3), R.entries.shape), atol=1e-12)


def test_berger_collapsed_values():
    R = ricci_berger_sphere(round_f(), 0.25, np.array([0.7]))
    M = R.entries[0]
    assert M[0, 0] == pytest.approx(1 / 8, abs=1e-14)       # 2 t^2
    assert M[1, 1] == pytest.approx(3.5, abs=1e-14)          # -f''/f - 2 t
    assert M[2, 2] == pytest.approx(3.5, abs=1e-14)
    assert M[0, 2] == pytest.approx(0.0, abs=1e-14)


def test_berger_degenerate_error():
    with pytest.raises(DegenerateMetricError):
        ricci_berger_sphere(round_f(), -1.0, np.array([0.3]))


def test_cone_flat():
    rho, phi = linear(), linear()
    R = ricci_cone_berger(rho, phi, round_f(), np.linspace(0.5, 2.5, 5), np.linspace(0.3, 1.2, 5))
    np.testing.assert_allclose(R.entries, 0.0, atol=1e-13)


def test_cone_sin_fiber():
    # rho = sin r (n=1), phi = 1: Ric(dr,dr) = 1
    rho = wf(ex.sin(ex.X), 0.0, 3.0)
    phi = wf(ex.Const(1.0), 0.0, 3.0)
    R = ricci_cone_berger(rho, phi, round_f(), np.array([0.9]), np.array([0.6]))
    M = R.entries[0]
    assert M[0, 0] == pytest.approx(1.0, abs=1e-13)
    # fiber direction: 2 sin^4 r + sin^2 r (product value + O'Neill term)
    s = np.sin(0.9)
    assert M[1, 1] == pytest.approx(2 * s**4 + s**2, abs=1e-12)


@pytest.mark.parametrize(
    "m,n,vphi,ph,expected",
    [
        (1, 1, ex.sin(ex.X), ex.cos(ex.X), (2.0, 2.0, 2.0)),  # round S^3
        (1, 1, ex.X, ex.Const(1.0), (0.0, 0.0, 0.0)),          # flat R^2 x S^1
        (2, 1, ex.X, ex.Const(1.0), (0.0, 0.0, 0.0)),          # flat R^3 x S^1
    ],
)
def test_double_warp_witnesses(m, n, vphi, ph, expected):
    varphi = wf(vphi, 0.0, 1.4)
    phi = wf(ph, 0.0, 1.4)
    lam = ricci_double_warp(m, n, varphi, phi, np.array([0.7]))
    for got, want in zip(lam, expected):
        assert got[0] == pytest.approx(want, abs=1e-13)


def test_torus_invariant_flat():
    Phi = BivariateFn(lambda g, t: g, "gamma")
    Psi = BivariateFn(lambda g, t: g * j2cos(t), "gamma cos")
    Ups = BivariateFn(lambda g, t: g * j2sin(t), "gamma sin")
    gm = np.linspace(0.2, 0.8, 4)
    th = np.linspace(0.3, 1.2, 4)
    R = ricci_torus_invariant(Phi, Psi, Ups, gm, th)
    np.testing.assert_allclose(R.entries, 0.0, atol=1e-12)


def test_torus_invariant_axis_error():
    Phi = BivariateFn(lambda g, t: g)
    Psi = BivariateFn(lambda g, t: g * j2cos(t))
    Ups = BivariateFn(lambda g, t: g * j2sin(t))
    with pytest.raises(SingularityError):
        ricci_torus_invariant(Phi, Psi, Ups, np.array([0.5]), np.array([0.0]))


def test_berger_general_flat_and_specialization():
    rho, phi = linear(), linear()
    vals = ricci_berger_general(rho, phi, np.array([1.3]))
    for v in vals:
        assert v[0] == pytest.approx(0.0, abs=1e-13)
    # general inputs: agree with cone-over-Berger at the round fiber
    rho2 = wf(ex.sin(ex.X) * ex.cos(ex.X), 0.1, 1.4)
    phi2 = wf(ex.cos(0.5 * ex.X) + 0.2, 0.1, 1.4)
    r = np.array([0.8])
    vals = ricci_berger_general(rho2, phi2, r)
    R = ricci_cone_berger(rho2, phi2, round_f(), r, np.array([0.6]))
    M = R.entries[0]
    assert vals[0][0] == pytest.approx(M[0, 0], rel=1e-12)
    assert vals[1][0] == pytest.approx(M[1, 1], rel=1e-12)
    assert vals[2][0] == pytest.approx(M[2, 2], rel=1e-12)


# --------------------------------------------------------------- glue metric


def make_glue(xi0=0.3, n=2):
    # generous cutoff windows keep the FD chart well conditioned in tests;
    # rho = n sin r makes -rho''/rho = 1 != 4 so the two surface curvatures
    # are distinguishable
    sigma1, sigma2 = xi0 / 6.0, xi0 / 8.0
    eta1 = build_cutoff(sigma1, 2 * sigma1, domain_end=xi0, name="eta1")
    eta2 = build_cutoff(sigma2, 2 * sigma2, domain_end=xi0, name="eta2")
    rho = WarpFunction(0.0, xi0, [], [float(n) * ex.sin(ex.X)], name="rho")
    return LocalGlue(rho=rho, n=n, eta1=eta1, eta2=eta2,
                     sigma1=sigma1, sigma2=sigma2, xi0=xi0)


def test_glue_product_region_diagonal():
    glue = make_glue()
    # both cutoffs equal 1: r, xi < sigma_i
    r = np.array([0.2 * glue.sigma1])
    xi = np.array([0.5 * glue.sigma2])
    R = ricci_local_glue(glue, r, xi)
    M = R.entries[0]
    rj = glue.rho.jet(r)
    k1 = float((-rj.f2 / rj.f)[0])
    np.testing.assert_allclose(np.diag(M), [k1, k1, 4.0, 4.0], rtol=1e-10)
    off = M - np.diag(np.diag(M))
    np.testing.assert_allclose(off, 0.0, atol=1e-12)


def test_glue_berger_region_matches_cone_berger():
    glue = make_glue()
    # both cutoffs are 0 past their windows: psi = -n sin^2 xi
    r = np.array([0.14])
    xi = np.array([0.13])  # beyond 2*sigma2 = 0.075
    R = ricci_local_glue(glue, r, xi)
    M = R.entries[0]
    # under (alpha_hat, beta_hat) = (n(alpha+beta), beta) the glue metric in this
    # region is the full-rho cone-Berger body with phi = 1 and the round fiber;
    # X2 is the unit fiber vector U/rho
    rho_full = glue.rho.jet(r).f[0]
    phi1 = WarpFunction(0.0, glue.xi0, [], [ex.Const(1.0)])
    C = ricci_cone_berger(glue.rho, phi1, round_f(), r, xi).entries[0]
    assert M[0, 0] == pytest.approx(C[0, 0], rel=1e-9)
    assert M[1, 1] == pytest.approx(C[1, 1] / rho_full**2, rel=1e-9)
    assert M[3, 3] == pytest.approx(C[2, 2], rel=1e-9)  # phi = 1: unit X
    # psi_r = 0 here, so no mixed terms
    assert abs(M[0, 2]) < 1e-12 and abs(M[1, 3]) < 1e-12


def test_glue_axis_error():
    glue = make_glue()
    with pytest.raises(SingularityError):
        ricci_local_glue(glue, np.array([0.05]), np.array([0.0]))


def test_glue_disambiguation_uncorrected_vs_corrected():
    """In the product region exactly one index assignment matches the oracle."""
    glue = make_glue()
    chart = ansatz_to_chart(glue)
    half = glue.xi0 / 2.0
    # normalized chart point inside the product region (u < sigma1/half etc.)
    u, v = 0.8 * glue.sigma1 / half, 0.8 * glue.sigma2 / half
    pt = np.array([u, v, 1.0, 1.0])
    ric = fd_ricci(chart, pt, h=3e-4)
    fr = chart.frame_batch(pt[None, :])
    proj = frame_project(ric[None, :, :], fr)[0]
    r, xi = np.array([half * u]), np.array([half * v])
    corrected = ricci_local_glue(glue, r, xi).entries[0]
    uncorr = ricci_local_glue_display(glue, r, xi, variant="uncorrected").entries[0]
    dev_c = np.max(np.abs(proj - corrected))
    dev_p = np.max(np.abs(proj - uncorr))
    assert dev_c < 0.05
    assert dev_p > 1.0  # uncorrected swaps the two surface curvatures (1 vs 4)


# --------------------------------------------------------------- charts & FD oracle


def test_chart_components_berger_round():
    ans = BergerSphere(round_f(), 1.0)
    chart = ansatz_to_chart(ans)
    g = chart.metric_batch(np.array([[np.pi / 4, 1.0, 1.0]]))[0]
    assert g[1, 1] == pytest.approx(1.0)
    assert g[1, 2] == pytest.approx(0.5)
    assert g[2, 2] == pytest.approx(0.5)  # t cos^4 + f^2 = 1/4 + 1/4
    assert g[0, 0] == pytest.approx(1.0)


def test_torus_chart_diagonal_and_gram():
    Phi = BivariateFn(lambda g, t: g)
    Psi = BivariateFn(lambda g, t: g * j2cos(t))
    Ups = BivariateFn(lambda g, t: g * j2sin(t))
    ti = TorusInvariant(Phi, Psi, Ups, box=[(0.2, 0.8), (0.3, 1.2)])
    chart = ansatz_to_chart(ti)
    X = chart.interior_samples(20, rng=0)
    gram = frame_gram(chart, X)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), gram.shape), atol=1e-9)


def test_glue_chart_gram_identity():
    glue = make_glue()
    chart = ansatz_to_chart(glue)
    X = chart.interior_samples(20, rng=1)
    gram = frame_gram(chart, X)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(4), gram.shape), atol=1e-9)


def test_fd_flat_cone():
    ans = ConeOverBerger(linear(), linear(), round_f(), r_range=(0.8, 2.0))
    chart = ansatz_to_chart(ans)
    pt = np.array([1.2, 0.8, 1.0, 2.0])
    ric = fd_ricci(chart, pt, h=1e-3, richardson=True)
    assert np.max(np.abs(ric)) < 1e-6


def test_fd_round_berger_einstein():
    ans = BergerSphere(round_f(), 1.0)
    chart = ansatz_to_chart(ans)
    pt = np.array([0.7, 1.0, 2.0])
    ric = fd_ricci(chart, pt, h=1e-3)
    g = chart.metric_batch(pt[None, :])[0]
    np.testing.assert_allclose(ric, 2.0 * g, atol=1e-5)


def _closed_form_on_frame(ansatz, X):
    """Dispatch: closed-form Ricci projected on the chart frame vectors."""
    if isinstance(ansatz, BergerSphere):
        return ricci_berger_sphere(ansatz.f, ansatz.t, X[:, 0]).entries
    if isinstance(ansatz, ConeOverBerger):
        return ricci_cone_berger(ansatz.rho, ansatz.phi, ansatz.f, X[:, 0], X[:, 1]).entries
    if isinstance(ansatz, BergerGeneral):
        d = ricci_berger_general(ansatz.rho, ansatz.phi, X[:, 0])
        out = np.zeros((X.shape[0], 4, 4))
        for i in range(4):
            out[:, i, i] = d[i]
        return out
    if isinstance(ansatz, DoubleWarp):
        lam = ricci_double_warp(ansatz.m, ansatz.n, ansatz.varphi, ansatz.phi, X[:, 0])
        out = np.zeros((X.shape[0], 3, 3))
        for i in range(3):
            out[:, i, i] = lam[i]
        return out
    if isinstance(ansatz, LocalGlue):
        return ricci_local_glue(ansatz, X[:, 0], X[:, 1]).entries
    if isinstance(ansatz, TorusInvariant):
        return ricci_torus_invariant(ansatz.Phi, ansatz.Psi, ansatz.Ups, X[:, 0], X[:, 1]).entries
    raise AssertionError


def generic_ansatze():
    gen_rho = wf(ex.sin(ex.X) * ex.cos(0.4 * ex.X), 0.2, 1.4)
    gen_phi = wf(ex.cos(0.5 * ex.X) + 0.2, 0.2, 1.4)
    bumpy_f = wf(ex.sin(2.0 * ex.X) / 2.0 * (1.0 + 0.1 * ex.sin(ex.X)), name="bumpy")
    Phi = BivariateFn(lambda g, t: g * (1.0 + 0.1 * j2sin(t)))
    Psi = BivariateFn(lambda g, t: g * j2cos(t) * (1.0 + 0.05 * j2sin(g)))
    Ups = BivariateFn(lambda g, t: g * j2sin(t))
    return [
        BergerSphere(bumpy_f, 0.3),
        ConeOverBerger(gen_rho, gen_phi, bumpy_f, r_range=(0.35, 1.25)),
        DoubleWarp(2, 1, wf(ex.sin(ex.X), 0.2, 1.4), wf(ex.cos(0.4 * ex.X), 0.2, 1.4),
                   r_range=(0.35, 1.25)),
        make_glue(),
        TorusInvariant(Phi, Psi, Ups, box=[(0.3, 0.7), (0.3, 1.1)]),
        BergerGeneral(gen_rho, gen_phi, 2, r_range=(0.35, 1.25)),
    ]


@pytest.mark.parametrize("idx", range(6))
def test_oracle_agreement_each_family(idx):
    from conewarp.certify import certify_oracle_agreement

    ansatz = generic_ansatze()[idx]
    rep = certify_oracle_agreement(ansatz, n_points=12, h=1e-3, rng=42)
    assert rep.passed, rep.summary() + f" {rep.details}"
    assert rep.details["convergence_order"] >= 1.8


def test_ricci_frame_symmetry_guard():
    bad = np.zeros((2, 2))
    bad[0, 1] = 1.0
    with pytest.raises(Exception):
        RicciFrame(bad)


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_scaled_round_family(delta):
    """The delta-scaled round sphere has frame Ricci (2/delta^2) Id, realized
    by chart scaling of the t = 1, f = sin(2 xi)/2 case and cross-checked
    against the oracle."""
    from conewarp.curvature import Chart
    base = ansatz_to_chart(BergerSphere(round_f(), 1.0))

    def scaled_metric(X):
        return delta**2 * base.metric_batch(X)

    def scaled_frame(X):
        return base.frame_batch(X) / delta

    chart = Chart(base.box, scaled_metric, scaled_frame)
    pt = np.array([0.8, 1.0, 2.0])
    ric = fd_ricci(chart, pt, h=1e-3, richardson=True)
    proj = frame_project(ric[None], chart.frame_batch(pt[None]))[0]
    np.testing.assert_allclose(proj, (2.0 / delta**2) * np.eye(3), atol=1e-7)
