"""The f_kappa build computes each quantity once: the beta search reads a
scalar residual, the inequality sweep is one call per side, and an atlas
stores f once."""

import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conewarp import construct
from conewarp import expr as ex
from conewarp.certify import AtlasRegion, certify_gluing, scalar_q_inequality
from conewarp.cli import main as cli_main
from conewarp.construct import PIH, _bilateral_worst_q, reflect_warp
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
