"""The f_kappa build computes each quantity once: the beta search reads a
scalar residual, the inequality sweep is one call per side and is not
repeated by the atlas, and an atlas stores f once."""

import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conewarp import construct
from conewarp import expr as ex
from conewarp.certify import AtlasRegion, certify_gluing, scalar_q_inequality
from conewarp.cli import main as cli_main
from conewarp.construct import PIH, _bilateral_worst_q
from conewarp.groups import cyclic_group
from conewarp.pipeline import PipelineConfig, assemble_atlas
from conewarp.warpfn import WarpFunction, _sample_open


@pytest.fixture(scope="module")
def fk53():
    """build_f_kappa(5, 3, 0.099) and the number of descent integrations it made."""
    calls = []
    integrate = construct._integrate_descent
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_integrate_descent",
                   lambda *a, **k: calls.append(a) or integrate(*a, **k))
        fk = construct.build_f_kappa(5, 3, 0.099)
    return fk, len(calls)


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


def reflect_warp(f):
    """Reference: the function x -> f(pi/2 - x) as reflected expression trees."""
    edges = [f.a, *f.breakpoints, f.b]
    pieces = sorted(((PIH - edges[i + 1], PIH - edges[i], _reflect_expr(e))
                     for i, e in enumerate(f.pieces)), key=lambda t: t[0])
    return WarpFunction(PIH - f.b, PIH - f.a, [hi for (_, hi, _) in pieces[:-1]],
                        [e for (_, _, e) in pieces], continuity_class=f.continuity_class)


def _worst_q_per_piece(f, n_per_piece):
    """Reference: one scalar_q_inequality call per piece, each on the side of
    pi/4 where the piece is well conditioned."""
    fr = reflect_warp(f)
    edges = [f.a, *f.breakpoints, f.b]
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
    fk, calls = fk53
    assert fk.p == 3 and 0.0 < fk.beta < construct.BETA_MAX
    assert calls <= 60


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


def test_written_atlas_stores_f_once(tmp_path):
    assert cli_main(["resolve", "--group", "cyclic:5,1,3", "--out", str(tmp_path)]) == 0
    for path in sorted(tmp_path.glob("atlas_*.json")):
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
