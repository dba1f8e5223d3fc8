"""Builders: profile properties, certified inequalities, and constants."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from conewarp import certify, construct
from conewarp import expr as ex
from conewarp.certify import (
    AtlasRegion,
    CellGrid,
    Grid,
    cap_block_margins,
    certify_inequality,
    run_checks,
    scalar_q_inequality,
)
from conewarp.construct import (
    KAPPA,
    alpha_nominal,
    build_conical_cap,
    build_edge_profile,
    build_f_kappa,
    build_general_profiles,
    build_glue_field,
    build_interpolation_family,
    solve_kappa_prime,
    _bisect,
    _sample_open,
)
from conewarp.curvature import (
    cap_parts,
    link_family_jets,
    ricci_berger_general,
    ricci_berger_sphere,
    ricci_cone_berger,
    ricci_local_glue,
    ricci_torus_invariant,
)
from conewarp.errors import ConstructionFailure, ParameterError, UnderflowError_
from conewarp.pipeline import mu_floor
from conewarp.warpfn import WarpFunction, _piece_jet, check_parity

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
        _cache[key] = build_edge_profile(mu, n, fk_for(n, p))
    return _cache[key]


# ------------------------------------------------------------------ f_kappa


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (5, 3), (7, 3)])
def test_f_kappa_properties(n, p):
    fk = fk_for(n, p)
    f = fk.f
    # (i): sin(kappa xi)/kappa on [0, xi0/kappa]
    xs = np.linspace(1e-6, fk.xi0 / KAPPA, 50)
    np.testing.assert_allclose(f(xs), np.sin(KAPPA * xs) / KAPPA, rtol=1e-14)
    # (ii): positive and concave in the interior; c sin(2 xi) on [tau, pi/2 - tau]
    xi = _sample_open(1e-4, math.pi / 2 - 1e-4, 3000)
    j = f.jet(xi)
    assert np.all(j.f > 0)
    assert np.all(j.f2 < 0)
    mid = _sample_open(TAU, math.pi / 2 - TAU, 200)
    np.testing.assert_allclose(f(mid), fk.c_mid * np.sin(2 * mid), rtol=1e-11)
    # (iii): endpoint data
    rep0 = check_parity(f, "left", "even-derivatives-vanish-and-value-zero")
    assert rep0.passed and rep0.derivatives[1] == pytest.approx(1.0, abs=1e-9)
    j1 = f.eval_jet_onesided(math.pi / 2, "left")
    assert j1.f == pytest.approx(0.0, abs=1e-15)
    assert j1.f1 == pytest.approx(-p, rel=1e-8)
    assert abs(j1.f2) <= 1e-6 * max(1.0, p)


@pytest.mark.parametrize("n,p", [(2, 1), (3, 1), (5, 3), (7, 3)])
def test_f_kappa_inequalities(n, p):
    fk = fk_for(n, p)
    for f, bound in ((fk.f_hat, -2.0), (fk.f, -1.0)):
        assert all(np.max(q, initial=-np.inf) <= bound
                   for q in CellGrid(f, 256, bilateral=True).q(f))
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
    val = alpha_nominal(0.01)
    assert val == pytest.approx(2e-4, rel=2e-2)
    assert abs(val) <= 8 * 0.01


def test_solve_kappa_prime():
    fk = fk_for(5, 3)
    kp1 = solve_kappa_prime(fk.xi0, 1, TAU)
    assert kp1.value == 2.0 and kp1.residual == 0.0
    kp3 = solve_kappa_prime(fk.xi0, 3, TAU)
    assert kp3.residual <= 1e-10
    kp5 = solve_kappa_prime(fk.xi0, 5, TAU)
    assert kp5.log_value > kp3.log_value > math.log(2.0)


def test_reflect_warp():
    """The reflected inequality, of x -> f(pi/2 - x) through f, is the one of
    f's jets at pi/2 - x with f' negated, bit for bit."""
    fk = fk_for(5, 3)
    xs = np.linspace(0.01, math.pi / 2 - 0.01, 777)
    j = fk.f.jet(math.pi / 2 - xs)
    d = 2.0 / np.tan(2.0 * xs) - (-j.f1) / j.f
    assert np.array_equal(scalar_q_inequality(fk.f, xs, reflected=True),
                          d * d + 0.75 * j.f2 / j.f)


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
    kappa, mu = KAPPA, prof.mu
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


def test_rho_out_of_its_bands_is_a_fail_report_not_a_build_failure(monkeypatch):
    """A dip factor far above its target lifts rho/n over mu (1 + sin r):
    build_edge_profile returns the profile, and the table's band report
    fails."""
    monkeypatch.setattr(construct, "_dip_mu_hat", lambda mu, eps: math.asin(0.02) / KAPPA)
    prof = build_edge_profile(MU, 5, fk_for(5, 3))
    region = AtlasRegion("edge_body", "cone_over_berger", "",
                         {"n": 5, "mu": MU, "band_hi": prof.band_hi}, {"rho": prof.rho})
    reports = run_checks({"edge_body": region}, ["edge_bands"])
    assert not reports["edge_rho_bounds"].passed
    assert reports["edge_rho_bounds"].min_margin < -1e-3


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
    assert prof.c2 == pytest.approx(4 * prof.bump_const * (1 / (40 * KAPPA)) ** 3, rel=1e-12)
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


def test_edge_rho_joins_at_its_dip_breakpoints():
    """The blend of rho's dip starts and ends about 3e-271 apart, far closer
    than any absolute tolerance: each left jet is the piece ending there,
    and rho is C^2 at every breakpoint."""
    rho = edge_for(5, 3).rho
    t = rho.breakpoints[1]
    assert t < 1e-200
    left = rho.eval_jet_onesided(t, "left")
    assert left.as_tuple() == _piece_jet(rho.pieces[1], t).as_tuple()
    assert rho.check_joins()


def test_edge_underflow_error():
    fk = fk_for(2, 1)
    with pytest.raises(UnderflowError_):
        build_edge_profile(0.004, 2, fk)


# ------------------------------------------------------------------ glue field


def glue_for(n, p):
    key = ("glue", n, p)
    if key not in _cache:
        fk = fk_for(n, p)
        _cache[key] = build_glue_field(fk.xi0, n, edge_for(n, p).rho)
    return _cache[key]


def glue_region(g):
    """The glue_collar region of an atlas with the glue field ``g``."""
    return AtlasRegion("glue_collar", "local_glue", "glue collar",
                       data={"xi0": g.xi0, "sigma1": g.sigma1, "sigma2": g.sigma2, "n": g.n},
                       warps={"rho": g.glue.rho, "eta1": g.glue.eta1, "eta2": g.glue.eta2})


def test_glue_defaults_and_bounds():
    """Default sigmas; the table's glue_bounds check passes on the built field."""
    fk = fk_for(2, 1)
    g = glue_for(2, 1)
    assert g.sigma1 == pytest.approx(fk.xi0 / 200)
    assert g.sigma2 == pytest.approx(g.sigma1 / (200 * 4))
    reps = run_checks({"glue_collar": glue_region(g)}, ["glue_bounds"])
    assert set(reps) == {"glue_psi_r_bound", "glue_mixed_bound"}
    assert all(r.passed for r in reps.values())
    assert reps["glue_psi_r_bound"].details["value"] <= 2 * 2 * g.sigma2 / g.sigma1 * (1 + 1e-9)
    assert reps["glue_mixed_bound"].details["value"] <= 1e-2


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


def _reference_cap_search(r0, mu, n, eps_target, budget=10):
    """The cap search with every probe assembling its cap from the builders
    and sweeping it with cap_block_margins at 40 x 40 and
    cap_link_ricci_margin: (zeta, mu1, mu2, mu3, mu0, warp texts)."""
    sigma_hat = r0 / 20.0
    delta = sigma_hat / 10.0

    def assemble(m, z):
        rho = construct._build_rho_cap(r0, m, n, eps_target)
        phi1 = construct._build_phi1(r0, z)
        eta = construct._build_eta_delta(r0, sigma_hat, delta)
        link = SimpleNamespace(rho_cap=rho, n=n, sigma_link=sigma_hat - delta / 2, zeta=z)
        return (phi1, eta, rho), cap_parts(phi1, eta, rho, n, z, r0), link

    def passes(m, z, parts, link_grid):
        try:
            _, two, link = assemble(m, z)
            return (all(np.min(cap_block_margins(two[i], 40)[2]) >= -1e-8 for i in parts)
                    and (not link_grid
                         or construct.cap_link_ricci_margin(link, link_grid) >= -1e-8))
        except (ConstructionFailure, ParameterError, UnderflowError_):
            return False

    zeta = _bisect(lambda z: passes(min(2.2 * mu, 0.095), z, (0, 1), 256),
                   0.0, min(0.1, r0 * r0 / 8.0), budget)[0]
    mus = [_bisect(lambda m: passes(m, zeta, parts, link), 0.0, 0.1, budget)[0]
           for parts, link in (((0,), None), ((1,), None), ((), 96))]
    warps = assemble(mu, zeta)[0]
    return (zeta, *mus, 0.5 * min(mus), [w.serialize() for w in warps])


@pytest.mark.parametrize("n,p", [(2, 1), (5, 3), (11, 7)])
def test_cap_search_matches_the_per_probe_reference(n, p):
    """Sharing the probes' builds and jets changes no probe outcome: zeta,
    mu1..mu3, mu0 and the cap's warps equal those of the per-probe path."""
    mu = mu_floor(n)
    eps = build_edge_profile(mu, n, fk_for(n, p)).eps
    cap = build_conical_cap(0.75, mu, n, eps_target=eps)
    got = (cap.zeta, *cap.mu123, cap.mu0,
           [w.serialize() for w in (cap.phi1, cap.eta_delta, cap.rho_cap)])
    assert got == _reference_cap_search(0.75, mu, n, eps)


def test_cap_search_builds_each_piece_once_per_constant(monkeypatch):
    """eta_delta is built once per search, phi1 once per zeta and rho_cap
    once per mu, and phi1 is evaluated on the probe grid once per zeta."""
    counts = {"eta": 0, "phi1": 0, "rho": 0, "phi1_on_grid": 0}

    def counted(key, fn):
        return lambda *a: counts.__setitem__(key, counts[key] + 1) or fn(*a)

    for key, name in (("eta", "_build_eta_delta"), ("phi1", "_build_phi1"),
                      ("rho", "_build_rho_cap")):
        monkeypatch.setattr(construct, name, counted(key, getattr(construct, name)))
    jet = WarpFunction.jet

    def counted_jet(self, x):
        if self.name == "phi1" and np.size(x) == 40 * 40:
            counts["phi1_on_grid"] += 1
        return jet(self, x)

    monkeypatch.setattr(WarpFunction, "jet", counted_jet)
    build_conical_cap(0.75, MU, 5, eps_target=0.024)
    assert counts["eta"] == 1
    assert counts["phi1"] <= 11 and counts["rho"] <= 23 and counts["phi1_on_grid"] <= 11


# ------------------------------------------------------------------ interpolation family


def cap_region(cap):
    """The conical_cap region data that the link and family checks read."""
    return AtlasRegion("conical_cap", "torus_invariant", "conical cap",
                       data={"zeta": cap.zeta, "sigma_link": cap.sigma_link, "n": cap.n},
                       warps={"rho_cap": cap.rho_cap})


def test_family_criteria():
    """The family's constants and ledger; the table's family check passes:
    Ric >= 2 ghat, monotone volumes and densities, normalized volumes
    constant to 1e-8, Moser density s-independent to 1e-6."""
    cap = cap_for()
    fam = build_interpolation_family(cap)
    z = cap.zeta
    assert fam.lam == 1.0 - 999.0 * z / 1000.0
    assert fam.lam2 == pytest.approx((1000 - 1000 * z) / (1000 - 999 * z))
    assert set(fam.params.values) == {"lambda", "lambda2", "volume_exponent"}
    reps = run_checks({"conical_cap": cap_region(cap)}, ["family"])
    assert set(reps) == {"family_ricci", "family_volumes", "family_moser"}
    assert all(r.passed and not r.violations for r in reps.values())
    assert reps["family_ricci"].min_margin >= -1e-8
    assert reps["family_volumes"].details["value"] <= 1e-8
    assert reps["family_moser"].details["value"] <= 1e-6


def test_family_volumes_flags_a_rising_density(monkeypatch):
    """A volume density that rises with s fails family_volumes through its
    violations (the volume at s = 1/4 first, then the density points); the
    normalized volumes, and so the margin, stay constant."""
    jets = certify.link_family_jets
    monkeypatch.setattr(certify, "link_family_jets",
                        lambda *a: tuple((1.0 + a[3]) * j for j in jets(*a)))
    rep = run_checks({"conical_cap": cap_region(cap_for())}, ["family"])["family_volumes"]
    assert rep.min_margin >= 0 and not rep.passed
    assert rep.violations[0]["point"] == [0.25]
    assert len(rep.violations[1]["point"]) == 2


def test_family_round_end():
    """ghat(0) is the round sphere of radius 1 - 999 zeta/1000."""
    cap = cap_for()
    th = np.linspace(0.05, math.pi / 2 - 0.05, 60)
    B, C = link_family_jets(cap.rho_cap, cap.n, cap.sigma_link, 0.0, th)
    np.testing.assert_allclose(B.f, np.cos(th), rtol=1e-14)
    np.testing.assert_allclose(C.f, np.sin(th), rtol=1e-14)


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
