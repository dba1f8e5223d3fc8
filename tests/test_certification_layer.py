"""One certification layer: resolve, conewarp certify and certify_gluing
build their reports through the same region checks."""

import importlib.util
import json
import warnings
from pathlib import Path

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
        # certify sweeps f on resolve's default grid, not FAST's; that report is
        # compared at the default grid in test_f_kappa_build
        assert reports.pop("f_inequality_smoothed").passed
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


def _golden_module():
    path = Path(__file__).parent / "golden" / "regen_margins.py"
    spec = importlib.util.spec_from_file_location("regen_margins", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_margins_match_golden_file(run_513):
    """Every margin, ledger value and warp text equals the committed golden
    file exactly; regenerate it with tests/golden/regen_margins.py."""
    gm = _golden_module()
    golden = json.loads(gm.GOLDEN.read_text())
    env = gm.environment()
    if env != golden["environment"]:
        pytest.skip(f"golden margins recorded on {golden['environment']}, "
                    f"running on {env}")
    atlases = gm.cyclic_entries(run_full_resolution(cyclic_group(2, 1, 1), 0.05, FAST),
                                 "2,1,1")
    atlases.update(gm.cyclic_entries(run_513, "5,1,3"))
    atlases.update(gm.noncyclic_entry(FAST))
    assert sorted(atlases) == sorted(golden["atlases"])
    for name, entry in atlases.items():
        assert entry == golden["atlases"][name], name
