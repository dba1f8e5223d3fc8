"""Builders: profile properties, certified inequalities, and constants."""

import math

import numpy as np
import pytest

from conewarp import expr as ex
from conewarp.certify import Grid, certify_inequality
from conewarp.construct import (
    alpha_nominal,
    build_conical_cap,
    build_edge_profile,
    build_f_kappa,
    build_general_profiles,
    build_glue_field,
    build_interpolation_family,
    solve_kappa_prime,
    _bilateral_worst_q,
    _bisect,
    _Reflected,
    _sample_open,
)
from conewarp.curvature import (
    ricci_berger_general,
    ricci_berger_sphere,
    ricci_cone_berger,
    ricci_local_glue,
    ricci_torus_invariant,
)
from conewarp.errors import ParameterError, UnderflowError_
from conewarp.warpfn import check_parity

TAU = 0.099
MU = 0.012

_cache = {}


def fk_for(n, p):
    if (n, p) not in _cache:
        _cache[(n, p)] = build_f_kappa(n, p, tau=TAU)
    return _cache[(n, p)]


def edge_for(n, p, mu=MU):
    key = ("edge", n, p, mu)
    if key not in _cache:
        _cache[key] = build_edge_profile(2.0, mu, n, fk_for(n, p))
    return _cache[key]


# ------------------------------------------------------------------ f_kappa


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (5, 3), (7, 3)])
def test_f_kappa_properties(n, p):
    fk = fk_for(n, p)
    f = fk.f
    # (i): sin(kappa xi)/kappa on [0, xi0/kappa]
    xs = np.linspace(1e-6, fk.xi0 / fk.kappa, 50)
    np.testing.assert_allclose(f(xs), np.sin(fk.kappa * xs) / fk.kappa, rtol=1e-14)
    # (ii): positive and concave in the interior; c sin(2 xi) on [tau, pi/2 - tau]
    xi = _sample_open(1e-4, math.pi / 2 - 1e-4, 3000)
    j = f.jet(xi)
    assert np.all(j.f > 0)
    assert np.all(j.f2 < 0)
    mid = _sample_open(TAU, math.pi / 2 - TAU, 200)
    np.testing.assert_allclose(f(mid), fk.c_mid * np.sin(2 * mid), rtol=1e-11)
    # (iii): endpoint data
    rep0 = check_parity(f, "left", "even-derivatives-vanish-and-value-zero", 2)
    assert rep0.passed and rep0.derivatives[1] == pytest.approx(1.0, abs=1e-9)
    j1 = f.eval_jet_onesided(math.pi / 2, "left")
    assert j1.value == pytest.approx(0.0, abs=1e-15)
    assert j1.d1 == pytest.approx(-p, rel=1e-8)
    assert abs(j1.d2) <= 1e-6 * max(1.0, p)


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (5, 3), (7, 3)])
def test_f_kappa_inequalities(n, p):
    fk = fk_for(n, p)
    wl, wr = _bilateral_worst_q(fk.f_hat, 256)
    assert max(wl, wr) <= -2.0
    wl, wr = _bilateral_worst_q(fk.f, 256)
    assert max(wl, wr) <= -1.0
    # uniform 1e4-point certification of the smoothed profile, bound -1
    rep = certify_inequality(fk.f, -1.0, Grid([(0.0, math.pi / 2)], [10_000]))
    assert rep.passed, rep.summary()
    assert 0 < fk.t_kappa < 0.11
    assert 0 < fk.eps_kappa < 0.11


def test_f_kappa_berger_psd():
    """Ric_{g_{f,t}} >= eps_kappa (t dalpha^2 + pi* h_f) for t < t_kappa."""
    fk = fk_for(5, 3)
    t = fk.t_kappa / 2
    xi = _sample_open(1e-3, math.pi / 2 - 1e-3, 2000)
    R = ricci_berger_sphere(fk.f, t, xi)
    fv = fk.f(xi)
    g = np.zeros_like(R.entries)
    g[:, 0, 0] = t
    g[:, 1, 1] = 1.0
    g[:, 2, 2] = 1.0
    eigs = np.linalg.eigvalsh(R.entries - fk.eps_kappa * g)
    assert float(np.min(eigs)) >= -1e-10


def test_round_case_is_exact():
    fk = fk_for(2, 1)
    xs = np.linspace(0, math.pi / 2, 500)
    np.testing.assert_allclose(fk.f(xs), np.sin(2 * xs) / 2, atol=1e-15)
    assert fk.t_kappa == pytest.approx(0.1, rel=1e-9)
    assert fk.eps_kappa == pytest.approx(0.1, rel=1e-9)


def test_alpha_nominal_formula_example():
    # evaluation of the nominal tilt-exponent closed form at xi0 = 0.01, kappa = 2
    val = alpha_nominal(0.01, 2.0)
    assert val == pytest.approx(2e-4, rel=2e-2)
    assert abs(val) <= 8 * 0.01


def test_solve_kappa_prime():
    fk = fk_for(5, 3)
    kp1 = solve_kappa_prime(fk.xi0, 2.0, 1, TAU)
    assert kp1.value == 2.0 and kp1.residual == 0.0
    kp3 = solve_kappa_prime(fk.xi0, 2.0, 3, TAU)
    assert kp3.residual <= 1e-10
    kp5 = solve_kappa_prime(fk.xi0, 2.0, 5, TAU)
    assert kp5.log_value > kp3.log_value > math.log(2.0)


def test_reflect_warp():
    fk = fk_for(5, 3)
    xs = np.linspace(0.0, math.pi / 2, 777)
    jr, j = _Reflected(fk.f).jet(xs), fk.f.jet(math.pi / 2 - xs)
    assert np.array_equal(jr.f, j.f) and np.array_equal(jr.f1, -j.f1)
    assert np.array_equal(jr.f2, j.f2)


def test_bisect_equals_the_fixed_step_loop():
    root = 1.0 / 3.0
    for lo0, hi0, steps in ((0.0, 1.0, 80), (-2.0, 5.0, 200), (0.25, 0.5, 10)):
        calls = []

        def pred(m):
            calls.append(m)
            return m < root

        lo, hi = lo0, hi0
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if mid < root:
                lo = mid
            else:
                hi = mid
        assert [repr(v) for v in _bisect(pred, lo0, hi0, steps)] == [repr(lo), repr(hi)]
        # 10 halvings stay far above double resolution; 80 and 200 do not
        assert len(calls) < steps if steps > 10 else len(calls) == steps


# ------------------------------------------------------------------ edge profile


@pytest.mark.parametrize("n,p", [(2, 1), (5, 3)])
def test_edge_profile_bullets(n, p):
    prof = edge_for(n, p)
    rho, phi = prof.rho, prof.phi
    kappa, mu = prof.kappa, prof.mu
    # phi == 1 before the bump
    r = _sample_open(1e-8, 1.0 / (10 * kappa), 300)
    np.testing.assert_array_equal(phi(r), np.ones_like(r))
    # logarithmic-derivative identities per piece, relative 1e-9
    r1 = _sample_open(prof.mu_hat * 1e-3, prof.mu_hat * 0.7, 64)
    j1 = rho.jet(r1)
    band1 = j1.f1 * np.sin(kappa * r1) / (kappa * j1.f * np.cos(kappa * r1))
    np.testing.assert_allclose(band1, 1.0, rtol=1e-9)
    r2 = _sample_open(prof.mu_hat * 2.0, 1.0 / (10 * kappa), 300)
    j2 = rho.jet(r2)
    band2 = j2.f1 * np.sin(kappa * r2) / (kappa * j2.f * np.cos(kappa * r2))
    np.testing.assert_allclose(band2, 1.0 - mu / 2, rtol=1e-9)
    # band membership and concavity bound across the windows too
    rall = np.concatenate([r1, r2, _sample_open(prof.mu_hat * 0.7, prof.mu_hat * 2.0, 200)])
    jall = rho.jet(rall)
    band = jall.f1 * np.sin(kappa * rall) / (kappa * jall.f * np.cos(kappa * rall))
    assert np.all(band >= 1 - mu - 1e-9) and np.all(band <= 1 + mu + 1e-9)
    with np.errstate(over="ignore"):
        assert np.all(-jall.f2 / (kappa**2 * jall.f) >= 1 - mu - 1e-9)
    # rho/n <= min(sin r, mu (1 + sin r))
    assert np.all(jall.f / n <= np.sin(rall) * (1 + 1e-12))
    assert np.all(jall.f / n <= mu * (1 + np.sin(rall)) + 1e-12)


@pytest.mark.parametrize("n,p", [(2, 1), (5, 3)])
def test_edge_linear_tails_exact(n, p):
    prof = edge_for(n, p)
    r = _sample_open(prof.R_mu, prof.r_out, 512)
    lin_r = prof.c1 * (r + prof.c3)
    lin_p = prof.c2 * (r + prof.c3)
    assert np.max(np.abs(prof.rho(r) - lin_r) / lin_r) <= 1e-12
    assert np.max(np.abs(prof.phi(r) - lin_p) / lin_p) <= 1e-12
    assert prof.c1 > 0 and prof.c2 > 0 and prof.c3 > 0
    # c2 closed form: 4 (eps_k mu_hat_bump)^20 (1/(40 kappa))^3
    assert prof.c2 == pytest.approx(4 * prof.bump_const * (1 / (40 * prof.kappa)) ** 3, rel=1e-12)
    assert "c3_nominal" in prof.params.values


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (5, 3), (7, 3)])
def test_edge_metric_psd(n, p):
    mu = MU if n < 6 else 0.02
    prof = edge_for(n, p, mu)
    fk = fk_for(n, p)
    grid = Grid([(0.0, prof.r_out), (0.0, math.pi / 2)], [128, 128])
    pts = grid.points()
    R = ricci_cone_berger(prof.rho, prof.phi, fk.f, pts[:, 0], pts[:, 1])
    assert float(np.min(np.linalg.eigvalsh(R.entries))) >= -1e-8


def test_edge_underflow_error():
    fk = fk_for(2, 1)
    with pytest.raises(UnderflowError_):
        build_edge_profile(2.0, 0.004, 2, fk)


# ------------------------------------------------------------------ glue field


def glue_for(n, p):
    key = ("glue", n, p)
    if key not in _cache:
        fk = fk_for(n, p)
        _cache[key] = build_glue_field(fk.xi0, n, edge_for(n, p).rho)
    return _cache[key]


def test_glue_defaults_and_bounds():
    fk = fk_for(2, 1)
    g = glue_for(2, 1)
    assert g.sigma1 == pytest.approx(fk.xi0 / 200)
    assert g.sigma2 == pytest.approx(g.sigma1 / (200 * 4))
    assert g.psi_r_bound <= 2 * 2 * g.sigma2 / g.sigma1 * (1 + 1e-9)
    assert g.mixed_bound <= 1e-2


def test_glue_psi_regions():
    g = glue_for(2, 1)
    glue = g.glue
    # both cutoffs 1: psi = 0
    psi = glue.psi_jets(np.array([0.5 * g.sigma1]), np.array([0.5 * g.sigma2]))[0]
    assert psi[0] == 0.0
    # both cutoffs 0: psi = -n sin^2 xi
    xi = np.array([5 * g.sigma2])
    psi = glue.psi_jets(np.array([3 * g.sigma1]), xi)[0]
    assert psi[0] == pytest.approx(-glue.n * np.sin(xi[0]) ** 2, rel=1e-12)


@pytest.mark.parametrize("n,p", [(2, 1), (5, 3)])
def test_glue_ricci_psd(n, p):
    g = glue_for(n, p)
    half = g.xi0 / 2
    ax_r = np.concatenate([_sample_open(0, half, 128), _sample_open(0, 2.2 * g.sigma1, 64)])
    ax_x = np.concatenate([_sample_open(0, half, 128), _sample_open(0, 2.2 * g.sigma2, 64)])
    ax_r.sort()
    ax_x.sort()
    R, X = np.meshgrid(ax_r, ax_x, indexing="ij")
    M = ricci_local_glue(g.glue, R.ravel(), X.ravel())
    assert float(np.min(np.linalg.eigvalsh(M.entries))) >= -1e-8


# ------------------------------------------------------------------ conical cap


def cap_for():
    if "cap" not in _cache:
        _cache["cap"] = build_conical_cap(0.75, MU, 2, eps_target=0.024)
    return _cache["cap"]


def test_cap_gates_and_certification():
    cap = cap_for()
    assert cap.mu < cap.mu0
    assert cap.mu0 == pytest.approx(0.5 * min(cap.mu123), rel=1e-12)
    assert 0 < cap.zeta < 1
    assert cap.sigma == pytest.approx(cap.sigma_hat - cap.delta)
    # determinant + diagonal certificates on a 128x128 grid
    grid = Grid([(cap.r0 * 1e-3, cap.r0), (0.0, math.pi / 2)], [128, 128])
    pts = grid.points()
    E = ricci_torus_invariant(cap.part1.Phi, cap.part1.Psi, cap.part1.Ups,
                              pts[:, 0], pts[:, 1]).entries
    det = E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] ** 2
    assert float(np.min(det)) >= -1e-8
    assert float(np.min(E[:, 2, 2])) >= -1e-8
    assert float(np.min(E[:, 3, 3])) >= -1e-8


def test_cap_part1_pointwise_predicate():
    """4 cos^2 th - (rho''/rho) sin^2 th - 1/10 > 0 on the grid."""
    cap = cap_for()
    grid = Grid([(cap.r0 * 1e-3, cap.r0), (0.0, math.pi / 2)], [96, 96])
    pts = grid.points()
    g0, th = pts[:, 0], pts[:, 1]
    arg = g0 * np.sin(th)
    j = cap.rho_cap.jet(arg)
    val = 4 * np.cos(th) ** 2 - (j.f2 / j.f) * np.sin(th) ** 2 - 0.1
    assert float(np.min(val)) > 0


def test_cap_exact_cone_region():
    """Inside gamma <= sigma the part-2 metric is the exact frozen cone."""
    cap = cap_for()
    g0 = np.linspace(cap.sigma * 0.05, cap.sigma * 0.98, 40)
    th = np.linspace(0.05, math.pi / 2 - 0.05, 40)
    G, T = np.meshgrid(g0, th, indexing="ij")
    P = cap.part2.Phi(G.ravel(), T.ravel())
    S = cap.part2.Psi(G.ravel(), T.ravel())
    U = cap.part2.Ups(G.ravel(), T.ravel())
    z = 1 - cap.zeta
    sl = cap.sigma_link
    jr = cap.rho_cap.jet(sl * np.sin(T.ravel()))
    np.testing.assert_allclose(P, z * G.ravel(), rtol=1e-13)
    np.testing.assert_allclose(
        S, z * G.ravel() * np.sin(2 * sl * np.cos(T.ravel())) / (2 * sl), rtol=1e-12)
    np.testing.assert_allclose(U, z * G.ravel() * jr.f / (cap.n * sl), rtol=1e-12)


def test_cap_link_lower_bound():
    from conewarp.construct import cap_link_ricci_margin
    cap = cap_for()
    assert cap_link_ricci_margin(cap, 256) >= -1e-8


def test_cap_mu_gate_error():
    cap = cap_for()
    with pytest.raises(ParameterError):
        build_conical_cap(0.75, cap.mu0 * 1.5, 2, zeta=cap.zeta, eps_target=0.024)


# ------------------------------------------------------------------ interpolation family


def fam_for():
    if "fam" not in _cache:
        _cache["fam"] = build_interpolation_family(cap_for())
    return _cache["fam"]


def test_family_criteria():
    fam = fam_for()
    assert fam.min_ricci_margin >= -1e-8
    assert np.all(np.diff(fam.volumes) <= 1e-12)
    assert fam.vol_norm_residual <= 1e-8
    assert fam.moser_density_residual <= 1e-6
    assert fam.lam1 == 1.0
    z = fam.cap.zeta
    assert fam.lam2 == pytest.approx((1000 - 1000 * z) / (1000 - 999 * z))


def test_family_round_end():
    """ghat(0) is the round sphere of radius 1 - 999 zeta/1000."""
    from conewarp.construct import _interp_BC
    fam = fam_for()
    th = np.linspace(0.05, math.pi / 2 - 0.05, 60)
    B, C = _interp_BC(fam.cap, 0.0)
    np.testing.assert_allclose(B.jet(th).f, np.cos(th), rtol=1e-14)
    np.testing.assert_allclose(C.jet(th).f, np.sin(th), rtol=1e-14)


# ------------------------------------------------------------------ round-base body


def test_general_profiles():
    fk = fk_for(2, 1)
    prof = build_general_profiles(3, MU, fk)
    r = _sample_open(1e-6, 0.1, 400)
    np.testing.assert_array_equal(prof.phi(r), np.ones_like(r))
    rr = _sample_open(0.0, prof.r_out, 4096)
    vals = ricci_berger_general(prof.rho, prof.phi, rr)
    for v in vals:
        assert float(np.min(v)) >= -1e-8
    rt = _sample_open(prof.R_mu, prof.r_out, 128)
    assert np.max(np.abs(prof.rho(rt) - prof.c1 * (rt + prof.c3)) / (prof.c1 * (rt + prof.c3))) <= 1e-12
