"""Atlas assembly, resolution runs, serialization, and the CLI."""

import json
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from test_certification_layer import _golden_module
from test_groups import GOLDEN_RATIO, binary_dihedral_generators, quaternion

from conewarp import certify, cli, construct, pipeline
from conewarp.cli import main as cli_main
from conewarp.errors import NotFreeError
from conewarp.groups import cyclic_group, noncyclic_group, serialize_group
from conewarp.pipeline import (
    PipelineConfig,
    SurgeryAtlas,
    assemble_atlas,
    mu_floor,
    run_full_resolution,
)

warnings.filterwarnings("ignore", category=RuntimeWarning)

_cache = {}


def fast_cfg():
    return PipelineConfig(grid_1d=4096, grid_2d=64, cap_search_budget=8)


def atlas_21():
    if "a21" not in _cache:
        _cache["a21"] = assemble_atlas(cyclic_group(2, 1, 1), 0.05, fast_cfg())
    return _cache["a21"]


def run_513():
    if "run" not in _cache:
        _cache["run"] = run_full_resolution(cyclic_group(5, 1, 3), 0.05, fast_cfg())
    return _cache["run"]


def test_mu_floor_monotone():
    vals = [mu_floor(n) for n in (1, 2, 3, 5, 7)]
    assert all(0 < v < 0.1 for v in vals)
    assert vals == sorted(vals)


def test_trivial_atlas():
    atlas = assemble_atlas(cyclic_group(1, 0, 0), 0.05, fast_cfg())
    assert atlas.passed
    assert len(atlas.regions) == 1
    assert atlas.cone_at_infinity["round"] is True


def test_atlas_21_smooth_cap():
    atlas = atlas_21()
    assert atlas.passed, atlas.summary()
    assert [r.id for r in atlas.regions] == ["cone_tail", "edge_body",
                                             "glue_collar", "conical_cap"]
    assert len(atlas.singular_points) == 1
    assert atlas.singular_points[0].child.is_trivial  # p = 1: smooth ball
    # interface graph: connected chain, each interface joins two listed regions
    ids = {r.id for r in atlas.regions} | {"inner_cone"}
    for iface in atlas.interfaces:
        assert iface.a in ids and iface.b in ids
        assert iface.report_name in atlas.reports


def test_atlas_53_child_group():
    run = run_513()
    name, atlas = run.atlases[0]
    assert (atlas.n, atlas.p) == (5, 3)
    child = atlas.singular_points[0].child
    assert child.n == 3  # order-3 child group


def test_run_513_shape_and_pass():
    run = run_513()
    assert run.passed
    assert len(run.atlases) == 2          # orders 5 and 3; trivial leaf uncounted
    orders = [a.n for _, a in run.atlases]
    assert orders == [5, 3]
    assert all(m["residual"] <= m["tolerance"] for m in run.matchings)


def test_run_deterministic():
    run1 = run_513()
    run2 = run_full_resolution(cyclic_group(5, 1, 3), 0.05, fast_cfg())
    for (n1, a1), (n2, a2) in zip(run1.atlases, run2.atlases):
        assert n1 == n2
        assert set(a1.reports) == set(a2.reports)
        for k in a1.reports:
            assert a1.reports[k].min_margin == a2.reports[k].min_margin
            assert a1.reports[k].argmin == a2.reports[k].argmin


def test_atlas_json_roundtrip(tmp_path):
    atlas = atlas_21()
    text = atlas.to_json()
    data = json.loads(text)
    assert {r["id"] for r in data["regions"]} == {r.id for r in atlas.regions}
    # warp functions reload and agree
    from conewarp.warpfn import WarpFunction
    reg = next(r for r in data["regions"] if r["id"] == "edge_body")
    rho = WarpFunction.deserialize(reg["warps"]["rho"])
    orig = next(r for r in atlas.regions if r.id == "edge_body").warps["rho"]
    xs = np.linspace(1e-6, orig.b * 0.99, 400)
    np.testing.assert_array_equal(rho(xs), orig(xs))
    # every warp text reads back to the tree it was written from
    for reg in data["regions"]:
        for text in reg["warps"].values():
            assert WarpFunction.deserialize(text).serialize() == text


def test_not_free_rejected():
    with pytest.raises(NotFreeError):
        assemble_atlas(cyclic_group(4, 1, 2), 0.05, fast_cfg())


def test_noncyclic_atlas():
    a = np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    b = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    group = noncyclic_group([a, b])   # binary dihedral, order 12
    atlas = assemble_atlas(group, 0.05, fast_cfg())
    assert atlas.passed, atlas.summary()
    assert atlas.regions[0].kind == "berger_general"
    assert len(atlas.singular_points) >= 1
    for sp in atlas.singular_points:
        assert sp.child.kind == "cyclic"
    assert atlas.cone_at_infinity["round"] is False


@pytest.mark.parametrize("gens", [
    binary_dihedral_generators(4),
    [quaternion(0, 1, 0, 0), quaternion(0.5, 0.5, 0.5, 0.5)],
    [quaternion(2 ** -0.5, 2 ** -0.5, 0, 0), quaternion(0.5, 0.5, 0.5, 0.5)],
    [quaternion(0.5, 0.5, 0.5, 0.5), quaternion(GOLDEN_RATIO / 2, 0.5, 0.5 / GOLDEN_RATIO, 0)],
], ids=["D16", "T24", "O48", "I120"])
def test_polyhedral_root_atlases_pass(gens):
    """The round-base body takes its band exponent from the full group
    order, whose dip target it meets; mu from min(order, 8) underflowed."""
    group = noncyclic_group(gens)
    atlas = assemble_atlas(group, 0.05, fast_cfg())
    assert atlas.regions[0].data["mu"] == mu_floor(atlas.n)
    assert atlas.passed, atlas.summary()


# ------------------------------------------------------------------ CLI


def test_cli_resolve_certify_plot(tmp_path):
    out = tmp_path / "run"
    code = cli_main(["resolve", "--group", "cyclic:2,1,1", "--epsilon", "0.05",
                     "--out", str(out),
                     "--config", str(_write_cfg(tmp_path))])
    assert code == 0
    atlases = sorted(out.glob("atlas_*.json"))
    assert len(atlases) == 1
    assert (out / "run_summary.txt").exists()
    assert (out / "reports.json").exists()
    code = cli_main(["certify", "--atlas", str(atlases[0]), "--grid", "48"])
    assert code == 0
    csv = tmp_path / "field.csv"
    code = cli_main(["plot-data", "--atlas", str(atlases[0]),
                     "--field", "ricci-min", "--out", str(csv)])
    assert code == 0
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert rows.shape[1] == 3
    assert np.min(rows[:, 2]) >= -1e-8


def _write_cfg(tmp_path):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("grid_1d = 4096\ngrid_2d = 64\ncap_search_budget = 8\n")
    return cfg


def test_cli_recursion_and_errors(capsys):
    assert cli_main(["recursion", "--group", "cyclic:5,1,3"]) == 0
    out = capsys.readouterr().out
    assert "order 5" in out and "[2, 3]" in out
    assert cli_main(["recursion", "--group", "cyclic:4,1,2"]) == 2  # not free
    assert cli_main(["recursion", "--group", "nonsense"]) == 2
    assert cli_main(["bogus-subcommand"]) == 2


def test_cli_resolve_rejects_kappa_config_key(tmp_path, capsys):
    """kappa is fixed at 2, as in the cap and the round-base body."""
    cfg = tmp_path / "conf.txt"
    cfg.write_text("kappa = 3.0\n")
    assert cli_main(["resolve", "--group", "cyclic:2,1,1", "--out", str(tmp_path / "run"),
                     "--config", str(cfg)]) == 2
    assert "unknown config key 'kappa'" in capsys.readouterr().err


def test_cli_certify_rejects_json_without_regions(tmp_path, capsys):
    path = tmp_path / "not_an_atlas.json"
    path.write_text(json.dumps({"group": "cyclic", "n": 5}))
    assert cli_main(["certify", "--atlas", str(path)]) == 2
    assert "'regions'" in capsys.readouterr().err


def test_cli_plot_data_rejects_an_atlas_without_edge_body(bd8_resolve, tmp_path, capsys):
    """The non-cyclic root atlas has a berger_body and no edge_body."""
    code = cli_main(["plot-data", "--atlas", str(bd8_resolve.out / "atlas_node0.json"),
                     "--field", "warp", "--out", str(tmp_path / "field.csv")])
    assert code == 2
    assert "'edge_body'" in capsys.readouterr().err
    assert not (tmp_path / "field.csv").exists()


def _record_calls(monkeypatch, name, calls):
    """Append the arguments of every call of ``certify.<name>`` to ``calls``,
    in every conewarp module that binds the name."""
    orig = getattr(certify, name)

    def wrapper(*args):
        calls.append(args)
        return orig(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("conewarp") and vars(mod).get(name) is orig:
            monkeypatch.setattr(mod, name, wrapper)


def test_cap_is_certified_once(monkeypatch):
    """The final cap's blocks are reduced at the atlas grid once per part
    (the cap_blocks_psd report); every other reduction is a 40 x 40 search
    probe.  Its link is sampled by the table alone: once at 256 points
    (cap_link_bound), and its Ricci margins are evaluated besides once per
    family s value at the 2-D grid (family_ricci).  No builder repeats
    either."""
    cfg = fast_cfg()
    reductions, samples, links, caps = [], [], [], []
    _record_calls(monkeypatch, "cap_block_min", reductions)
    _record_calls(monkeypatch, "cap_link_margins", samples)
    _record_calls(monkeypatch, "link_ricci_margins", links)
    build = construct.build_conical_cap
    monkeypatch.setattr(construct, "build_conical_cap",
                        lambda *a, **k: caps.append(build(*a, **k)) or caps[-1])
    atlas = assemble_atlas(cyclic_group(3, 1, 2), 0.05, cfg)
    assert atlas.passed, atlas.summary()
    assert len(caps) == 1
    sizes = [len(e) for (e,) in reductions]
    assert sizes.count(cfg.grid_2d ** 2) == 2
    assert set(sizes) == {construct.CAP_PROBE_GRID ** 2, cfg.grid_2d ** 2}
    rho = caps[0].rho_cap
    assert [a[3] for a in samples if a[0] is rho] == [256]
    assert [len(a[4]) for a in links if a[0] is rho] == [256] + [cfg.grid_2d] * 5


def test_a_failed_moser_bound_is_a_fail_report(tmp_path, capsys):
    """cyclic:14,1,1 builds, but its Moser residual (about 1.13e-6) misses
    the 1e-6 bound: a FAIL report and exit 1, not a construction error."""
    assert cli_main(["resolve", "--group", "cyclic:14,1,1", "--out", str(tmp_path)]) == 1
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert [(name, key) for name, reps in reports.items()
            for key, rep in reps.items() if not rep["passed"]] == [("node0", "family_moser")]
    assert "[FAIL] Moser density s-independent" in capsys.readouterr().out


def test_tree_machine_readable():
    from conewarp.groups import resolution_tree
    tree = resolution_tree(cyclic_group(5, 1, 3))
    assert tree.order() == 5 and tree.children[0].order() == 3


def test_certify_gluing_op():
    from conewarp.certify import certify_gluing
    atlas = atlas_21()
    reports = certify_gluing(atlas)
    assert {i.report_name for i in atlas.interfaces} <= set(reports)
    assert all(r.passed for r in reports.values())


# ------------------------------------------------------------------ node reuse


@pytest.fixture(scope="module")
def bd8_resolve(tmp_path_factory):
    """conewarp resolve on the order-8 binary dihedral group, recording every
    assemble_atlas call, the run, and every atlas serialized."""
    tmp = tmp_path_factory.mktemp("bd8")
    group_file = tmp / "group.txt"
    group_file.write_text(serialize_group(noncyclic_group(binary_dihedral_generators(2))))
    built, runs, dumped = [], [], []
    assemble, resolve, to_json = (pipeline.assemble_atlas, cli.run_full_resolution,
                                  SurgeryAtlas.to_json)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "assemble_atlas", lambda *a: built.append(a[0]) or assemble(*a))
        mp.setattr(cli, "run_full_resolution",
                   lambda *a, **k: runs.append(resolve(*a, **k)) or runs[-1])
        mp.setattr(SurgeryAtlas, "to_json", lambda self: dumped.append(self) or to_json(self))
        code = cli_main(["resolve", "--group-file", str(group_file), "--out", str(tmp / "run"),
                         "--config", str(_write_cfg(tmp))])
    return SimpleNamespace(code=code, run=runs[0], built=built, dumped=dumped, out=tmp / "run")


def test_identical_nodes_share_one_atlas(bd8_resolve):
    run = bd8_resolve.run
    assert bd8_resolve.code == 0 and run.passed
    assert len(run.atlases) == 10
    distinct = {id(a) for _, a in run.atlases}
    assert len(distinct) == 4
    assert len([g for g in bd8_resolve.built if not g.is_trivial]) == 4
    assert len(bd8_resolve.built) == 5                      # and one trivial leaf
    atlas_of = dict(run.atlases)
    assert len(run.reused) == 6
    for name, first in run.reused.items():
        assert atlas_of[name] is atlas_of[first] and first not in run.reused


def test_shared_atlas_equals_the_golden_21_atlas(bd8_resolve):
    """Every (2,1) node of the run carries exactly the margins, ledger and
    warps of a resolve of cyclic:2,1,1 alone."""
    gm = _golden_module()
    golden = json.loads(gm.GOLDEN.read_text())
    if gm.environment() != golden["environment"]:
        pytest.skip(f"golden margins recorded on {golden['environment']}")
    twos = [a for _, a in bd8_resolve.run.atlases if (a.n, a.p) == (2, 1)]
    assert len(twos) == 3
    for atlas in twos:
        assert gm.atlas_entry(atlas) == golden["atlases"]["cyclic:2,1,1/node0"]


def test_shared_atlas_is_serialized_once_and_written_per_name(bd8_resolve):
    run, out = bd8_resolve.run, bd8_resolve.out
    assert len(bd8_resolve.dumped) == 4
    for name, _ in run.atlases:
        assert (out / f"atlas_{name}.json").exists()
    for name, first in run.reused.items():
        for fmt in ("atlas_{}.json", "params_{}.txt"):
            assert (out / fmt.format(name)).read_bytes() == (out / fmt.format(first)).read_bytes()
    assert set(json.loads((out / "reports.json").read_text())) == {n for n, _ in run.atlases}
    summary = (out / "run_summary.txt").read_text()
    for name, first in run.reused.items():
        assert f"\n{name}: same atlas as {first}\n" in summary
    assert summary.count("\natlas for ") == 4
