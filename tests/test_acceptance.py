"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or plain pytest: the lines
also appear in captured output).  Every tolerance is pinned here.
"""

import math
import time
import warnings
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from test_construct import cap_region
from test_groups import groups_equal_mod_swap

from conewarp import expr as ex
from conewarp.certify import (
    CellGrid,
    Grid,
    certify_inequality,
    certify_oracle_agreement,
    certify_psd,
    run_checks,
)
from conewarp.construct import (
    build_conical_cap,
    build_edge_profile,
    build_f_kappa,
    build_glue_field,
    build_interpolation_family,
    cap_link_ricci_margin,
)
from conewarp.curvature import (
    make_cap_families,
    ricci_berger_sphere,
    ricci_cone_berger,
    ricci_local_glue,
    ricci_torus_invariant,
)
from conewarp.groups import (
    cyclic_group,
    generate_elements,
    hj_continued_fraction,
    hj_reconstruct,
    resolution_tree,
)
from conewarp.pipeline import PipelineConfig, run_full_resolution
from conewarp.warpfn import WarpFunction, _sample_open

warnings.filterwarnings("ignore", category=RuntimeWarning)

PAIRS = [(2, 1), (3, 1), (5, 3), (7, 3)]
TAU = 0.099
MU = 0.012

_built = {}


def announce(num, ok, text):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}"
    print("\n" + line)
    assert ok, line


def fk(n, p):
    if ("fk", n, p) not in _built:
        _built[("fk", n, p)] = build_f_kappa(n, p, tau=TAU)
    return _built[("fk", n, p)]


def edge(n, p):
    key = ("edge", n, p)
    if key not in _built:
        from conewarp.pipeline import mu_floor
        f = fk(n, p)
        _built[key] = build_edge_profile(mu_floor(n), n, f.t_kappa, f.eps_kappa)
    return _built[key]


def _round_f():
    return WarpFunction(0.0, math.pi / 2, [], [ex.sin(2.0 * ex.X) / 2.0])


def _linear(b=3.0):
    return WarpFunction(0.0, b, [], [ex.X])


def test_criterion_1_exact_witnesses():
    """Flat cone Ricci = 0 and round Berger Ricci = 2 Id, to 1e-10, < 1 s."""
    t0 = time.perf_counter()
    lin, f = _linear(), _round_f()
    r = np.linspace(0.3, 2.5, 40)
    xi = np.linspace(0.1, math.pi / 2 - 0.1, 40)
    R, XI = np.meshgrid(r, xi, indexing="ij")
    flat = ricci_cone_berger(lin, lin, f, R.ravel(), XI.ravel()).entries
    dev_flat = float(np.max(np.abs(flat)))
    berger = ricci_berger_sphere(f, 1.0, xi).entries
    dev_round = float(np.max(np.abs(berger - 2.0 * np.eye(3))))
    dt = time.perf_counter() - t0
    announce(1, dev_flat <= 1e-10 and dev_round <= 1e-10 and dt < 1.0,
             f"flat dev {dev_flat:.1e}, round dev {dev_round:.1e}, {dt:.2f}s")


def test_criterion_2_oracle_agreement():
    """Five families, 100 interior points each, 10 h^2 at h = 1e-3, order >= 1.8,
    < 60 s; the uncorrected X2/X3 assignment resolved in favor of the oracle."""
    from tests.test_curvature import (
        fd_ricci, generic_ansatze, make_glue, ricci_local_glue_uncorrected)
    from conewarp.curvature import frame_project

    t0 = time.perf_counter()
    ok = True
    msgs = []
    for ansatz in generic_ansatze():
        rep = certify_oracle_agreement(ansatz, n_points=100, h=1e-3, rng=2024)
        ok = ok and rep.passed and rep.details["convergence_order"] >= 1.8
        msgs.append(f"{rep.target.split(': ')[-1]}: dev {rep.details['max_dev_richardson']:.1e} "
                    f"order {rep.details['convergence_order']:.2f}")
    # disambiguation: the uncorrected local-glue variant must lose to the oracle
    glue = make_glue()
    chart = glue.chart()
    half = glue.xi0 / 2
    u, v = 0.8 * glue.sigma1 / half, 0.8 * glue.sigma2 / half
    pt = np.array([u, v, 1.0, 1.0])
    ric = fd_ricci(chart, pt, h=3e-4, richardson=True)
    proj = frame_project(ric[None], chart.frame_batch(pt[None]))[0]
    r, x = np.array([half * u]), np.array([half * v])
    dev_corr = float(np.max(np.abs(proj - ricci_local_glue(glue, r, x).entries[0])))
    dev_prnt = float(np.max(np.abs(proj - ricci_local_glue_uncorrected(glue, r, x)[0])))
    winner = "corrected" if dev_corr < dev_prnt else "uncorrected"
    ok = ok and winner == "corrected" and dev_prnt > 1.0
    dt = time.perf_counter() - t0
    announce(2, ok and dt < 60.0,
             "; ".join(msgs) + f"; X2/X3 disambiguation winner: {winner}; {dt:.1f}s")


@pytest.mark.parametrize("n,p", PAIRS)
def test_criterion_3_f_inequalities(n, p):
    """Bound -1 for f_kappa and -2 pre-smoothing, 1e4 grid points, < 30 s/pair."""
    t0 = time.perf_counter()
    f = fk(n, p)
    rep = certify_inequality(f.f, -1.0, Grid([(0.0, math.pi / 2)], [10_000]))
    wl, wr = (np.max(q, initial=-np.inf)
              for q in CellGrid(f.f_hat, 512, bilateral=True).q(f.f_hat))
    pre_ok = max(wl, wr) <= -2.0
    rep_hat = certify_inequality(f.f_hat, -2.0, Grid([(0.0, math.pi / 2)], [10_000]))
    dt = time.perf_counter() - t0
    announce(f"3({n},{p})",
             rep.passed and rep.min_margin >= 0 and rep_hat.passed and pre_ok and dt < 30,
             f"smoothed margin {rep.min_margin:.3f}, pre-smooth margin "
             f"{-2.0 - max(wl, wr):.3f} (grid margin {rep_hat.min_margin:.3f}), {dt:.1f}s")


@pytest.mark.parametrize("n,p", PAIRS)
def test_criterion_4_edge_certification(n, p):
    """Cone-Berger Ricci >= -1e-8 on 128x128; exact linear tails to 1e-12."""
    t0 = time.perf_counter()
    prof = edge(n, p)
    f = fk(n, p)

    def fn(pts):
        return ricci_cone_berger(prof.rho, prof.phi, f.f, pts[:, 0], pts[:, 1]).entries

    rep = certify_psd(fn, Grid([(0.0, prof.r_out), (0.0, math.pi / 2)], [128, 128]),
                      tol=1e-8, target=f"edge ({n},{p})")
    r = _sample_open(prof.R_mu, prof.r_out, 1024)
    tail_dev = max(
        float(np.max(np.abs(prof.rho(r) - prof.c1 * (r + prof.c3)) / (prof.c1 * (r + prof.c3)))),
        float(np.max(np.abs(prof.phi(r) - prof.c2 * (r + prof.c3)) / (prof.c2 * (r + prof.c3)))))
    dt = time.perf_counter() - t0
    announce(f"4({n},{p})", rep.passed and tail_dev <= 1e-12,
             f"min eig {rep.min_margin:.2e} at mu={prof.mu}, tail dev {tail_dev:.1e}, {dt:.1f}s")


@pytest.mark.parametrize("n,p", PAIRS)
def test_criterion_5_glue_certification(n, p):
    """Default sigmas; mixed term <= 1/100 on the grid; glue Ricci PSD 1e-8."""
    prof = edge(n, p)
    f = fk(n, p)
    g = build_glue_field(f.xi0, n, prof.rho)
    assert g.sigma1 == pytest.approx(f.xi0 / 200)
    assert g.sigma2 == pytest.approx(g.sigma1 / (200 * n * n))
    half = f.xi0 / 2
    ax_r = np.sort(np.concatenate([_sample_open(0, half, 128),
                                   _sample_open(0, 2.2 * g.sigma1, 64)]))
    ax_x = np.sort(np.concatenate([_sample_open(0, half, 128),
                                   _sample_open(0, 2.2 * g.sigma2, 64)]))
    R, X = np.meshgrid(ax_r, ax_x, indexing="ij")
    pts = np.stack([R.ravel(), X.ravel()], axis=-1)
    jr = prof.rho.jet(pts[:, 0])
    p_r = g.glue.psi_jets(pts[:, 0], pts[:, 1])[1]
    mixed = float(np.max(np.abs(3.0 * jr.f1 * p_r / (n * np.sin(2 * pts[:, 1])))))
    eigs = np.linalg.eigvalsh(ricci_local_glue(g.glue, pts[:, 0], pts[:, 1]).entries)
    min_eig = float(np.min(eigs))
    announce(f"5({n},{p})", mixed <= 0.01 and min_eig >= -1e-8,
             f"mixed term {mixed:.2e} <= 1/100, glue min eig {min_eig:.2e}")


def cap():
    if "cap" not in _built:
        _built["cap"] = build_conical_cap(0.75, MU, 2, eps_target=edge(2, 1).eps)
    return _built["cap"]


def test_criterion_6_cap_certification():
    """(Y1,Y2) block det and Y3, Y4 >= -1e-8 on 128x128; link >= (2+zeta/100)g."""
    c = cap()
    worst_det, worst_diag = math.inf, math.inf
    for eta, hi in ((None, c.r0), (c.eta_delta, c.r0 / 2)):
        pts = Grid([(c.r0 * 1e-3, hi), (0.0, math.pi / 2)], [128, 128]).points()
        fams = make_cap_families(c.phi1, eta, c.rho_cap, c.n, c.zeta)
        E = ricci_torus_invariant(*fams, pts[:, 0], pts[:, 1]).entries
        det = E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] ** 2
        worst_det = min(worst_det, float(np.min(det)))
        worst_diag = min(worst_diag, float(np.min(E[:, 2, 2])), float(np.min(E[:, 3, 3])))
    link = cap_link_ricci_margin(c, 256)
    announce(6, worst_det >= -1e-8 and worst_diag >= -1e-8 and link >= -1e-8,
             f"det {worst_det:.2e}, Y3/Y4 {worst_diag:.2e}, link margin {link:.2e} "
             f"(zeta {c.zeta:.4f}, mu0 {c.mu0:.4f})")


def test_criterion_7_interpolation_family():
    """Ric >= 2 ghat at 5x128 samples; volumes monotone; normalization 1e-8;
    Moser density 1e-6 (the certification table's family check)."""
    fam = build_interpolation_family(cap())
    reps = run_checks({"conical_cap": cap_region(cap())}, ["family"], n_2d=128)
    ric, vol, moser = reps["family_ricci"], reps["family_volumes"], reps["family_moser"]
    announce(7, ric.min_margin >= -1e-8 and not vol.violations
             and vol.details["value"] <= 1e-8 and moser.details["value"] <= 1e-6,
             f"Ricci margin {ric.min_margin:.2e}, volumes decreasing, "
             f"norm residual {vol.details['value']:.1e}, "
             f"Moser residual {moser.details['value']:.1e}, round end {fam.lam:.4f}")


def test_criterion_8_group_layer():
    """Fast path = brute force for n <= 200 exhaustively; chains decrease and
    terminate; the two child descriptions agree (n <= 50); HJ reconstructs
    exactly (n <= 500)."""
    t0 = time.perf_counter()
    # exhaustive freeness: integer-exact eigenvalue check of every element
    from conewarp.groups import acts_freely
    bad = 0
    for n in range(2, 201):
        k = np.arange(1, n)
        l = np.arange(1, n)
        K, L = np.meshgrid(k, l, indexing="ij")
        j = np.arange(1, n)[:, None, None]
        fixes = ((j * K[None]) % n == 0) | ((j * L[None]) % n == 0)
        nontrivial = ~(((j * K[None]) % n == 0) & ((j * L[None]) % n == 0))
        brute_free = ~np.any(fixes & nontrivial, axis=0)
        dk = np.gcd(K, n)
        dl = np.gcd(L, n)
        fast_free = dk == dl
        bad += int(np.sum(brute_free != fast_free))
    free_ok = bad == 0

    chains_ok = True
    for n in range(2, 40):
        for p in range(1, n):
            if gcd(n, p) != 1:
                continue
            node = resolution_tree(cyclic_group(n, 1, p))
            steps = 0
            while node.children:
                child = node.children[0]
                chains_ok &= child.order() < node.order()
                node = child
                steps += 1
                chains_ok &= steps <= n
            chains_ok &= node.group.is_trivial

    two_desc_ok = True
    for n in range(2, 51):
        for p in range(2, n):
            if gcd(n, p) != 1:
                continue
            a = generate_elements(cyclic_group(p, n % p, p - 1))
            b = generate_elements(cyclic_group(p, (-1) % p, n % p))
            two_desc_ok &= groups_equal_mod_swap(a, b)

    hj_ok = True
    for n in range(2, 501):
        for p in range(1, n):
            if gcd(n, p) != 1:
                continue
            coeffs = hj_continued_fraction(n, p)
            hj_ok &= all(a >= 2 for a in coeffs)
            hj_ok &= hj_reconstruct(coeffs) == Fraction(n, p)
    dt = time.perf_counter() - t0
    announce(8, free_ok and chains_ok and two_desc_ok and hj_ok,
             f"freeness exhaustive n<=200 ({'ok' if free_ok else 'mismatch'}), "
             f"chains terminate, child descriptions agree mod coordinate swap "
             f"(n<=50), HJ exact (n<=500), {dt:.1f}s")


def test_criterion_9_end_to_end():
    """resolve cyclic:5,1,3: 2 atlases, all pass, deterministic, < 10 min."""
    t0 = time.perf_counter()
    cfg = PipelineConfig()
    run1 = run_full_resolution(cyclic_group(5, 1, 3), cfg)
    run2 = run_full_resolution(cyclic_group(5, 1, 3), cfg)
    same = len(run1.atlases) == len(run2.atlases)
    for (n1, a1), (n2, a2) in zip(run1.atlases, run2.atlases):
        same &= n1 == n2 and set(a1.reports) == set(a2.reports)
        for k in a1.reports:
            same &= a1.reports[k].min_margin == a2.reports[k].min_margin
    dt = time.perf_counter() - t0
    announce(9, run1.passed and len(run1.atlases) == 2 and same and dt < 600,
             f"{len(run1.atlases)} atlases, all reports pass, reruns bit-identical "
             f"on margins, {dt:.1f}s total for two runs")
