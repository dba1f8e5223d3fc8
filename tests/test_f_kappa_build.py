"""The f_kappa build computes each quantity once: the beta search reads a
scalar closed-form residual, the inequality sweep is one call per side and
is not repeated by the atlas, and an atlas stores f once, as a few
closed-form expression pieces."""

import json
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conewarp import certify, construct
from conewarp import expr as ex
from conewarp.certify import (
    AtlasRegion,
    CellGrid,
    certify_gluing,
    recertify,
    run_checks,
    scalar_q_inequality,
)
from conewarp.cli import main as cli_main
from conewarp.construct import PIH
from conewarp.errors import ConstructionFailure
from conewarp.groups import cyclic_group
from conewarp.pipeline import PipelineConfig, assemble_atlas
from conewarp.warpfn import WarpFunction, _sample_open


@pytest.fixture(scope="module")
def fk53():
    """build_f_kappa(5, 3, 0.099), the number of mirror sides it evaluated and
    the number of times it built the descent's pieces."""
    calls, descents = [], []
    mirror_side, mirror_pieces = construct._mirror_side, construct._mirror_pieces
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_mirror_side",
                   lambda *a, **k: calls.append(a) or mirror_side(*a, **k))
        mp.setattr(construct, "_mirror_pieces",
                   lambda *a: descents.append(a) or mirror_pieces(*a))
        fk = construct.build_f_kappa(5, 3, 0.099)
    return fk, len(calls), len(descents)


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
    pieces = sorted(((PIH - hi, PIH - lo, _reflect_expr(e))
                     for lo, hi, e in zip(edges, edges[1:], f.pieces)), key=lambda t: t[0])
    return WarpFunction(PIH - f.b, PIH - f.a, [hi for (_, hi, _) in pieces[:-1]],
                        [e for (_, _, e) in pieces], continuity_class=f.continuity_class)


def _worst_q_per_piece(f, n_per_piece):
    """Reference: one scalar_q_inequality call per cell, each on the side of
    pi/4 where the cell is well conditioned."""
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
        got = [float(np.max(q, initial=-np.inf)) for q in CellGrid(f, n, bilateral=True).q(f)]
        assert [repr(v) for v in got] == [repr(v) for v in _worst_q_per_piece(f, n)]


def test_beta_search_stops_when_the_bracket_stops_moving(fk53):
    """Two bracket ends, the bisection until its bracket stops moving, and
    the final side."""
    fk, calls, _ = fk53
    assert fk.p == 3 and 0.0 < fk.beta < construct.BETA_MAX
    assert calls == 58


def test_beta_search_builds_one_descent_grid(fk53):
    """The search reads scalar residuals only: the descent's pieces (the
    cells of f_hat past the round part) are built once, for the final beta."""
    _, calls, descents = fk53
    assert (calls, descents) == (58, 1)


@pytest.mark.parametrize("n, p", [(40, 21), (64, 27)])
def test_failed_build_names_the_drift_budget(n, p):
    """Past p = 20 the seal cannot carry slope -p within BETA_MAX."""
    with pytest.raises(ConstructionFailure, match=f"drift budget cannot reach slope -{p}"):
        construct.build_f_kappa(n, p, 0.099)


def test_drift_budget_message_rounds_both_residuals():
    """Both residuals of the failed drift budget print to three decimals, so
    the coverage table changes with the outcome, not with the descent's last
    digits."""
    with pytest.raises(ConstructionFailure) as err:
        construct.build_f_kappa(22, 21, 0.099)
    assert re.search(r"\(residuals -?\d+\.\d{3}, -?\d+\.\d{3}\)$", str(err.value))


def test_record_only_kappa_prime_does_not_mask_the_cause():
    """At tau = 0.0005 the drift descent cannot finish before tau.  kappa'
    only goes to the ledger, so its solve (which also fails there) comes
    after the mirror side and does not hide that cause."""
    with pytest.raises(ConstructionFailure, match="drift descent does not finish before tau"):
        construct.build_f_kappa(5, 3, 0.0005)


def test_kappa_prime_solve_stops_when_the_bracket_stops_moving():
    """The 200-step budget is far past double resolution of log kappa'."""
    calls = []
    tail = construct.tail_coefficient_log
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "tail_coefficient_log",
                   lambda *a: calls.append(a) or tail(*a))
        kp = construct.solve_kappa_prime(0.099 / 20, 3, 0.099)
    assert kp.residual <= 1e-10
    assert len(calls) < 100


def test_atlas_reports_the_builds_presmoothing_sweep():
    """f_inequality_presmooth is the build's own sweep of f_hat, not a second
    one; the only other inequality sweep is the f_inequality_smoothed report."""
    sweeps = []
    sweep = CellGrid.q
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CellGrid, "q",
                   lambda grid, f: sweeps.append((grid.per_cell, sweep(grid, f))) or sweeps[-1][1])
        atlas = assemble_atlas(cyclic_group(3, 1, 2),
                               PipelineConfig(grid_1d=4096, grid_2d=64, cap_search_budget=8))
    assert [per_cell for per_cell, _ in sweeps] == [256, 456]     # 4096 / 9 cells
    rep = atlas.reports["f_inequality_presmooth"]
    assert rep.details["value"] == max(np.max(q, initial=-np.inf) for q in sweeps[0][1])
    assert rep.passed


def test_steep_power_piece_jet_is_finite_and_quiet():
    """A dip-like power piece sin(2x)^(1 - mu/2) at a junction near 1e-188:
    orders 0..2 are finite and raise no RuntimeWarning, one-sided or not."""
    t = 1e-188
    f = WarpFunction(0.0, 1.0, [t], [ex.sin(2.0 * ex.X), ex.sin(2.0 * ex.X) ** 0.975])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        one = f.eval_jet_onesided(t, "right")
        ref = f.jet(np.array([t]))
    assert np.all(np.isfinite(one.as_tuple()))
    assert list(one.as_tuple()) == [ref.f[0], ref.f1[0], ref.f2[0]]


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


def test_conewarp_certify_rechecks_the_rho_bands(written_513, capsys):
    """conewarp certify prints the edge body's rho band reports, with the
    margins resolve wrote."""
    for path in sorted(written_513.glob("atlas_*.json")):
        data = json.loads(path.read_text())
        reports = recertify(data)
        capsys.readouterr()
        assert cli_main(["certify", "--atlas", str(path)]) == 0
        out = capsys.readouterr().out
        for key in ("edge_rho_bands", "edge_rho_bounds"):
            stored = data["reports"][key]
            assert reports[key].passed and stored["passed"]
            assert reports[key].min_margin == stored["min_margin"], key
            assert reports[key].argmin == stored["argmin"], key
            assert reports[key].target in out


def test_f_report_samples_every_cell_at_192_points(fk53):
    """The f report sweeps each cell of f, the narrow seal and window cells
    too, at 192 midpoints or more; cells right of pi/4 in s = pi/2 - x."""
    f = fk53[0].f
    calls = []
    q = certify.scalar_q_inequality
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "scalar_q_inequality", lambda g, xi, reflected=False:
                   calls.append((not reflected, np.array(xi)))
                   or (q(g, xi, reflected=True) if reflected else q(g, xi)))
        region = AtlasRegion("edge_body", "cone_over_berger", "", {"n": 5, "p": 3}, {"f": f})
        rep = run_checks({"edge_body": region}, ["f_inequality_smoothed"])
    assert rep["f_inequality_smoothed"].passed
    edges = np.array([f.a, *f.breakpoints, f.b])
    cells = len(edges) - 1
    counts = np.zeros(cells, dtype=int)
    for in_x, xi in calls:
        cell = (np.searchsorted(edges, xi) - 1 if in_x
                else cells - np.searchsorted((PIH - edges)[::-1], xi))
        counts += np.bincount(cell, minlength=cells)
    narrow = np.diff(edges) < 1e-7
    assert narrow.any() and counts.sum() == sum(len(xi) for _, xi in calls)
    assert counts.min() >= 192 and counts[narrow].min() >= 192


def test_margin_plot_samples_the_seal_cell(written_513, tmp_path):
    """plot-data --field margin plots the f report's per-cell samples, so the
    seal cell next to pi/2, narrower than 1e-7, has rows."""
    path = written_513 / "atlas_node0.json"
    edge = next(r for r in json.loads(path.read_text())["regions"] if r["id"] == "edge_body")
    f = WarpFunction.deserialize(edge["warps"]["f"])
    seal = (f.breakpoints[-1], f.b)
    assert seal[1] - seal[0] < 1e-7
    csv = tmp_path / "margin.csv"
    assert cli_main(["plot-data", "--atlas", str(path), "--field", "margin",
                     "--out", str(csv)]) == 0
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.any((seal[0] < rows[:, 0]) & (rows[:, 0] < seal[1]))
    assert np.all(rows[:, 1] >= 0.0)


def test_written_warps_read_back_byte_for_byte(written_513):
    texts = [text for path in sorted(written_513.glob("atlas_*.json"))
             for reg in json.loads(path.read_text())["regions"] for text in reg["warps"].values()]
    for text in texts:
        assert text.startswith("warpfn v1\n")
        assert WarpFunction.deserialize(text).serialize() == text


def test_conewarp_certify_rejects_a_v2_warp(written_513, tmp_path, capsys):
    """warpfn v2 stored spline pieces, which no longer exist: an atlas that
    holds one is a usage error, not a certification failure."""
    data = json.loads((written_513 / "atlas_node0.json").read_text())
    edge = next(r for r in data["regions"] if r["id"] == "edge_body")
    edge["warps"]["f"] = edge["warps"]["f"].replace("warpfn v1", "warpfn v2", 1)
    path = tmp_path / "atlas_v2.json"
    path.write_text(json.dumps(data))
    assert cli_main(["certify", "--atlas", str(path)]) == 2
    assert "unsupported warpfn version 'v2'" in capsys.readouterr().err


def test_atlas_meets_the_4x_size_goal(written_513):
    """133,722 bytes was the atlas with f's descent as one tree per cell."""
    assert 4 * (written_513 / "atlas_node0.json").stat().st_size <= 133_722


@pytest.mark.parametrize("p", [2, 3, 7, 13, 20])
def test_mirror_side_is_few_c2_pieces_within_both_bounds(p):
    """f is at most 10 closed-form pieces, C^2 at every join, and passes the
    -2 bound before smoothing and the f_inequality_smoothed report after."""
    fk = construct.build_f_kappa(p + 1, p, 0.099)
    f = fk.f
    assert len(f.pieces) <= 10 and f.continuity_class == 2 and f.check_joins()
    assert fk.presmooth_worst <= -2.0
    region = AtlasRegion("edge_body", "cone_over_berger", "", {"n": p + 1, "p": p}, {"f": f})
    assert run_checks({"edge_body": region}, ["f_inequality_smoothed"])[
        "f_inequality_smoothed"].passed
