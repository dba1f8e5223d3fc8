"""One certification layer: resolve, conewarp certify and certify_gluing
build their reports through the same region checks."""

import json
import warnings

import numpy as np
import pytest

from conewarp.certify import (
    CHECKS,
    FILE_CHECKS,
    Grid,
    _margin_report,
    certify_gluing,
    recertify,
)
from conewarp.cli import main as cli_main
from conewarp.groups import cyclic_group
from conewarp.pipeline import PipelineConfig, run_full_resolution

warnings.filterwarnings("ignore", category=RuntimeWarning)

FAST = PipelineConfig(grid_1d=4096, grid_2d=64, cap_search_budget=8)


@pytest.fixture(scope="module")
def run_513():
    return run_full_resolution(cyclic_group(5, 1, 3), 0.05, FAST)


def _json(x):
    return json.loads(json.dumps(x))


def test_conewarp_certify_reproduces_resolve_reports(run_513, tmp_path):
    for name, atlas in run_513.atlases:
        path = tmp_path / f"atlas_{name}.json"
        path.write_text(atlas.to_json())
        data = json.loads(path.read_text())
        reports = recertify(data, n_2d=FAST.grid_2d, tol=FAST.tol)
        assert set(reports) == set(FILE_CHECKS) & set(data["reports"])
        assert {"edge_ricci_psd", "glue_ricci_psd", "cap_blocks_psd"} <= set(reports)
        for key, rep in reports.items():
            stored = data["reports"][key]
            assert rep.target == stored["target"]
            assert rep.min_margin == stored["min_margin"], key
            assert _json(rep.argmin) == stored["argmin"], key
            assert _json(rep.grid) == stored["grid"], key
            assert rep.passed and stored["passed"]
        code = cli_main(["certify", "--atlas", str(path), "--grid", str(FAST.grid_2d)])
        assert code == 0


def test_certify_gluing_recomputes_every_report(run_513):
    for _, atlas in run_513.atlases:
        reports = certify_gluing(atlas)
        assert {i.report_name for i in atlas.interfaces} <= set(reports)
        for key, rep in reports.items():
            assert rep is not atlas.reports[key], f"{key} passed through, not recomputed"
            assert rep.min_margin == atlas.reports[key].min_margin, key
            assert rep.passed
        # every table report covers its own field evaluation in wall_time
        assert all(atlas.reports[k].wall_time > 0 for k in CHECKS if k in atlas.reports)


def test_margin_report_matches_sorted_loop_reference():
    rng = np.random.default_rng(5)
    grid = Grid([(0.0, 1.0), (0.0, 2.0)], [20, 30])
    pts = grid.points()
    margins = np.round(rng.normal(0.0, 1.0, len(pts)), 1)   # ties and violations
    tol = 0.05
    rep = _margin_report("reference", grid, tol, margins, pts, 0.0)
    order = np.argsort(margins, kind="stable")
    viol = [int(i) for i in order if margins[i] < -tol][:32]
    assert rep.min_margin == margins[order[0]]
    assert rep.argmin == pts[order[0]].tolist()
    assert rep.violations == [{"point": pts[i].tolist(), "value": float(margins[i])}
                              for i in viol]
    assert not rep.passed
