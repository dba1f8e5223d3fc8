"""The f_kappa build computes each quantity once: the beta search reads a
scalar residual on one shared descent grid, the inequality sweep is one call
per side and is not repeated by the atlas, and an atlas stores f once, its
descent as one spline node that evaluates bit for bit as the per-cell
expression trees it replaces."""

import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conewarp import construct
from conewarp import expr as ex
from conewarp.certify import AtlasRegion, certify_gluing, recertify, scalar_q_inequality
from conewarp.cli import main as cli_main
from conewarp.construct import PIH, _bilateral_worst_q
from conewarp.errors import ConstructionFailure
from conewarp.groups import cyclic_group
from conewarp.pipeline import PipelineConfig, assemble_atlas
from conewarp.warpfn import (
    TOL_JOIN,
    DescentSpline,
    ScalarJet,
    WarpFunction,
    _hermite_quintic_piece,
    _sample_open,
)


@pytest.fixture(scope="module")
def fk53():
    """build_f_kappa(5, 3, 0.099), the number of descent integrations it made
    and the number of descent grids it built."""
    calls, grids = [], []
    integrate = construct._integrate_descent
    descent_grid = construct._descent_grid
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_integrate_descent",
                   lambda *a, **k: calls.append(a) or integrate(*a, **k))
        mp.setattr(construct, "_descent_grid",
                   lambda *a: grids.append(a) or descent_grid(*a))
        fk = construct.build_f_kappa(5, 3, 0.099)
    return fk, len(calls), len(grids)


def _integrate_descent_reference(beta, xd, tau, n_grid=16000):
    """Reference: the descent loop that derives its grid at every step."""
    D_KILL, DESCENT_SLACK, DESCENT_FRAC = (construct.D_KILL, construct.DESCENT_SLACK,
                                           construct.DESCENT_FRAC)
    x_cap = 0.99 * tau
    r = (x_cap / xd) ** (1.0 / n_grid)
    xs = [xd]
    Ds = [beta / xd]
    Dps = []
    taper_at = None
    prev_rate = beta / (xd * xd)
    growth = r ** 40.0
    for i in range(n_grid):
        x, D = xs[-1], Ds[-1]
        design = DESCENT_FRAC * (4.0 / 3.0) * (
            DESCENT_SLACK + 3.0 / math.tan(2 * x) * D - 1.75 * D * D)
        if design <= 0:
            raise ConstructionFailure(f"drift descent stalled at x={x:.5f}")
        rate = min(design, prev_rate * growth)
        prev_rate = rate
        if D <= D_KILL:
            taper_at = (x, D, rate)
            Dps.append(-rate)
            break
        h = x * (r - 1.0)
        Dps.append(-rate)
        xs.append(x * r)
        Ds.append(max(D - h * rate, 0.0))
    if taper_at is None:
        raise ConstructionFailure("drift descent does not finish before tau")
    xk, Dk, rate_k = taper_at
    w = max(4.0 * Dk, 0.015)
    w = min(w, x_cap - xk)
    if w <= 2.0 * Dk:
        raise ConstructionFailure("no room for the drift taper before tau")
    m = 64
    for j in range(1, m + 1):
        u = j / m
        h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
        h10 = u * (1.0 - u) ** 2
        dh00 = 6.0 * u * (u - 1.0)
        dh10 = (1.0 - u) * (1.0 - 3.0 * u)
        xs.append(xk + w * u)
        Ds.append(Dk * h00 - rate_k * w * h10)
        Dps.append((Dk * dh00 - rate_k * w * dh10) / w)
    Dps[len(xs) - m - 1] = -rate_k
    xs = np.array(xs)
    Ds = np.array(Ds)
    Dps = np.array(Dps)
    W = np.concatenate([np.cumsum((0.5 * (Ds[1:] + Ds[:-1]) * np.diff(xs))[::-1])[::-1], [0.0]])
    return xs, Ds, Dps, W


def _descent_or_failure(integrate, *args):
    try:
        return [a.tobytes() for a in integrate(*args)]
    except ConstructionFailure as e:
        return str(e)


@pytest.mark.parametrize("tau, n_finished", [(0.099, 7), (0.05, 3)])
def test_descent_on_the_shared_grid_equals_the_per_step_loop(tau, n_finished):
    """xs, Ds, Dps and W bit for bit, and the same failure where it fails
    (at tau = 0.05 the larger betas run out of room before 0.99 tau; a NaN
    drift passes through min and max and never finishes)."""
    xd = construct.X_DESCENT
    grid = construct._descent_grid(xd, tau)
    betas = (1e-4, 0.03, 0.06898702692510963, 0.1111281410630468, 0.1984310081415538,
             0.27, construct.BETA_MAX, math.nan)
    outcomes = []
    for beta in betas:
        ref = _descent_or_failure(_integrate_descent_reference, beta, xd, tau)
        assert _descent_or_failure(construct._integrate_descent, beta, grid) == ref, beta
        outcomes.append(isinstance(ref, list))
    assert sum(outcomes) == n_finished


def _reflect_expr(e):
    """Reference: substitute x -> pi/2 - x in an expression tree."""
    if isinstance(e, ex.Const):
        return e
    if isinstance(e, ex.Var):
        return ex.Const(PIH) - ex.X
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        return type(e)(_reflect_expr(e.a), _reflect_expr(e.b))
    if isinstance(e, ex.Neg):
        return ex.Neg(_reflect_expr(e.a))
    if isinstance(e, ex.Pow):
        return ex.Pow(_reflect_expr(e.a), e.p)
    if isinstance(e, ex.Fun):
        return ex.Fun(e.name, _reflect_expr(e.a))
    raise TypeError(f"cannot reflect node {type(e).__name__}")


def cell_trees(spline):
    """Reference: one expression tree per cell of a spline node, (lo, hi, tree)
    in x order, built by _hermite_quintic_piece from the node's knot rows."""
    out = []
    for r0, r1 in zip(spline.table, spline.table[1:]):
        W = _hermite_quintic_piece(ScalarJet(*r0[1:], 0.0), ScalarJet(*r1[1:], 0.0),
                                   r0[0], r1[0], ex.Const(PIH) - ex.X)
        out.append((PIH - r1[0], PIH - r0[0],
                    ex.Const(spline.c) * ex.sin(2.0 * ex.X) * ex.exp(W)))
    return out[::-1]


def tree_cells(f):
    """(lo, hi, tree) for every cell of f: a spline piece gives one tree per
    cell of its span."""
    edges = [f.a, *f.breakpoints, f.b]
    out = []
    for lo, hi, e in zip(edges, edges[1:], f.pieces):
        if not isinstance(e, DescentSpline):
            out.append((lo, hi, e))
            continue
        cuts = [lo, *e.knots_inside(lo, hi), hi]
        trees = cell_trees(e)
        for c0, c1 in zip(cuts, cuts[1:]):
            out.append((c0, c1, next(t for (a, b, t) in trees if a <= c0 < b)))
    return out


def reflect_warp(f):
    """Reference: the function x -> f(pi/2 - x) as reflected expression trees,
    a spline piece reflected cell by cell through its rows' trees."""
    pieces = sorted(((PIH - hi, PIH - lo, _reflect_expr(e)) for lo, hi, e in tree_cells(f)),
                    key=lambda t: t[0])
    return WarpFunction(PIH - f.b, PIH - f.a, [hi for (_, hi, _) in pieces[:-1]],
                        [e for (_, _, e) in pieces], continuity_class=f.continuity_class)


def _worst_q_per_piece(f, n_per_piece):
    """Reference: one scalar_q_inequality call per cell, each on the side of
    pi/4 where the cell is well conditioned."""
    fr = reflect_warp(f)
    edges = [f.a, *f.knots, f.b]
    worst_l, worst_r = -np.inf, -np.inf
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        if mid <= np.pi / 4:
            xs = _sample_open(lo, hi, n_per_piece)
            worst_l = max(worst_l, float(np.max(scalar_q_inequality(f, xs))))
        else:
            xs = _sample_open(PIH - hi, PIH - lo, n_per_piece)
            worst_r = max(worst_r, float(np.max(scalar_q_inequality(fr, xs))))
    return worst_l, worst_r


@pytest.mark.parametrize("which", ["f_hat", "f"])
def test_bilateral_sweep_equals_per_piece_loop(fk53, which):
    f = getattr(fk53[0], which)
    for n in (192, 256):
        got = _bilateral_worst_q(f, n)
        assert [repr(v) for v in got] == [repr(v) for v in _worst_q_per_piece(f, n)]


def test_beta_search_stops_when_the_bracket_stops_moving(fk53):
    fk, calls, _ = fk53
    assert fk.p == 3 and 0.0 < fk.beta < construct.BETA_MAX
    assert calls <= 60


def test_beta_search_builds_one_descent_grid(fk53):
    _, calls, grids = fk53
    assert (calls, grids) == (58, 1)


def test_exhausted_xi0_search_names_its_first_cause():
    """At xi0 = tau/20 the (64, 27) build fails on the drift budget; later
    halvings fail on the record-only kappa' solve, which is not the cause."""
    with pytest.raises(ConstructionFailure, match="drift budget cannot reach slope -27"):
        construct.build_f_kappa(64, 27, 0.099)


def test_kappa_prime_solve_stops_when_the_bracket_stops_moving():
    """The 200-step budget is far past double resolution of log kappa'."""
    calls = []
    tail = construct.tail_coefficient_log
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "tail_coefficient_log",
                   lambda *a: calls.append(a) or tail(*a))
        kp = construct.solve_kappa_prime(0.099 / 20, 2.0, 3, 0.099)
    assert kp.residual <= 1e-10
    assert len(calls) < 100


def test_atlas_reports_the_builds_presmoothing_sweep():
    """f_inequality_presmooth is the build's own sweep of f_hat, not a second one."""
    sweeps = []
    sweep = construct._bilateral_worst_q
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_bilateral_worst_q",
                   lambda *a: sweeps.append(sweep(*a)) or sweeps[-1])
        atlas = assemble_atlas(cyclic_group(3, 1, 2), 0.05,
                               PipelineConfig(grid_1d=4096, grid_2d=64, cap_search_budget=8))
    assert len(sweeps) == 2
    rep = atlas.reports["f_inequality_presmooth"]
    assert rep.details["value"] == max(sweeps[0]) and rep.passed


def test_overflowing_third_derivative_is_quiet_and_stays_inf():
    """A dip-like power piece sin(2x)^(1 - mu/2) at a junction near 1e-188:
    its third derivative overflows, orders 0..2 are finite."""
    t = 1e-188
    f = WarpFunction(0.0, 1.0, [t], [ex.sin(2.0 * ex.X), ex.sin(2.0 * ex.X) ** 0.975])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        one = f.eval_jet_onesided(t, "right")
        ref = f.jet(np.array([t]))
    assert [one.value, one.d1, one.d2] == [ref.f[0], ref.f1[0], ref.f2[0]]
    assert one.d3 == np.inf


@pytest.fixture(scope="module")
def written_513(tmp_path_factory):
    """The output directory of conewarp resolve cyclic:5,1,3 at the default config."""
    out = tmp_path_factory.mktemp("resolve_513")
    assert cli_main(["resolve", "--group", "cyclic:5,1,3", "--out", str(out)]) == 0
    return out


def test_written_atlas_stores_f_once(written_513):
    for path in sorted(written_513.glob("atlas_*.json")):
        data = json.loads(path.read_text())
        regions = {d["id"]: d for d in data["regions"]}
        assert regions["cone_tail"]["warps"] == {}
        assert "f" in regions["edge_body"]["warps"]
        assert cli_main(["certify", "--atlas", str(path)]) == 0
        atlas = SimpleNamespace(
            regions=[AtlasRegion.from_json(d) for d in data["regions"]],
            interfaces=[SimpleNamespace(**i) for i in data["interfaces"]])
        reports = certify_gluing(atlas)
        assert "tail_exact_linear" in reports
        for key, rep in reports.items():
            assert rep.passed, key
            assert rep.min_margin == data["reports"][key]["min_margin"], key


def test_conewarp_certify_rechecks_the_f_inequality(written_513, capsys):
    """At the default grid_1d, conewarp certify reproduces resolve's
    f_inequality_smoothed report from the written f."""
    for path in sorted(written_513.glob("atlas_*.json")):
        data = json.loads(path.read_text())
        rep = recertify(data)["f_inequality_smoothed"]
        stored = data["reports"]["f_inequality_smoothed"]
        assert rep.passed and stored["passed"]
        assert rep.min_margin == stored["min_margin"]
        assert json.loads(json.dumps(rep.grid)) == stored["grid"]
        capsys.readouterr()
        assert cli_main(["certify", "--atlas", str(path)]) == 0
        assert rep.target in capsys.readouterr().out


def test_written_warps_read_back_byte_for_byte(written_513):
    texts = [text for path in sorted(written_513.glob("atlas_*.json"))
             for reg in json.loads(path.read_text())["regions"] for text in reg["warps"].values()]
    assert any(text.startswith("warpfn v2\n") for text in texts)
    for text in texts:
        assert WarpFunction.deserialize(text).serialize() == text


def test_spline_keeps_f_and_the_atlas_small(written_513, fk53):
    """133,722 bytes was the atlas with f's descent as one tree per cell; the
    176 knot rows of four repr numbers are about 15 KB of the new file.  The
    pinned 3.5x is below ROADMAP item 3's goal of 4x, which stays open."""
    assert 3.5 * (written_513 / "atlas_node0.json").stat().st_size <= 133_722
    assert len(fk53[0].f.pieces) <= 10
    for n, p in ((3, 2), (11, 7)):
        assert len(construct.build_f_kappa(n, p, 0.099).f.pieces) <= 10


def tree_warp(f):
    """Reference: f with every cell its own expression-tree piece."""
    cells = tree_cells(f)
    return WarpFunction(f.a, f.b, [hi for (_, hi, _) in cells[:-1]], [e for (_, _, e) in cells])


def _jet_bytes(j):
    return np.stack(j.as_tuple()).tobytes()


@pytest.mark.parametrize("which", ["f_hat", "f"])
def test_spline_node_evaluates_as_its_cell_trees(fk53, which):
    """All four jet orders bit for bit on every cell and at every knot (the
    right cell's value), one-sided at the junctions, and C^2 across the
    spline's own knots."""
    f = getattr(fk53[0], which)
    ref = tree_warp(f)
    assert ref.breakpoints == f.knots and len(ref.pieces) > 100 > len(f.pieces)
    edges = [f.a, *f.knots, f.b]
    xs = np.concatenate([_sample_open(lo, hi, 16) for lo, hi in zip(edges, edges[1:])]
                        + [np.array(f.knots)])
    assert _jet_bytes(f.jet(xs)) == _jet_bytes(ref.jet(xs))
    for t in f.breakpoints:
        for side in ("left", "right"):
            assert (f.eval_jet_onesided(t, side).as_array().tobytes()
                    == ref.eval_jet_onesided(t, side).as_array().tobytes())
    mismatch = dict(zip(ref.breakpoints, ref.breakpoint_mismatch()))
    inner = [t for t in f.knots if t not in f.breakpoints]
    assert len(inner) > 100
    assert all(np.all(mismatch[t] <= TOL_JOIN) for t in inner)
