"""Smoke test of the benchmark at a tiny config.

    python -m pytest -q bench

Runs every workload on one small group with a coarse PipelineConfig and no
measuring time (one pass, or one untraced and one traced pass), and checks
that the run passes its own output checks and reports exactly the metrics
BENCHMARK.json declares.
"""

import json
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

TINY = {"grid_1d": 4096, "grid_2d": 64, "cap_search_budget": 8}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _conewarp_bindings():
    return {(name, key): val for name, mod in sys.modules.items()
            if name.startswith("conewarp") for key, val in vars(mod).items()}


def _bench(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)], config=TINY, setup_reps=1)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["resolve-cyclic", "resolve-noncyclic", "recertify"])
def test_untraced_run(workload, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "CYCLIC_SPECS", ["cyclic:2,1,1", "cyclic:3,1,2"])
    lines, result = _bench(workload, 0, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(ln.startswith("margin_digest ") for ln in lines)


@pytest.mark.parametrize("workload", ["resolve-cyclic", "recertify"])
def test_traced_run(workload, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "CYCLIC_SPECS", ["cyclic:3,1,2"])
    before = _conewarp_bindings()
    _, result = _bench(workload, 1, capsys)
    after = _conewarp_bindings()
    assert all(after[k] is v for k, v in before.items()), "tracing left a patch behind"
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in DECLARED["per_layer"]}
    assert metrics["warpfn.jet_calls"] > 0 and metrics["certify.certify_psd_calls"] > 0
    # self times partition the traced pass
    self_sum = sum(v for k, v in metrics.items() if k.endswith("_s")
                   and not k.endswith("_per_s") and not k.startswith("trace."))
    assert self_sum + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.pass_s"], rel=1e-3)
    if workload == "resolve-cyclic":
        assert metrics["pipeline.assemble_atlas_calls"] == metrics["pipeline.distinct_nodes"] == 2
