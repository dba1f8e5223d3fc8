"""The package names that the benchmark under ``bench/`` wraps or reads.

Every name here must resolve, so that deleting or renaming one fails tier-1
and not only the traced runs of ``python -m pytest -q bench``.
"""

import ast
import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spans_targets():
    """``TARGETS`` of bench/spans.py, loaded by path (it imports no conewarp)."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def _conewarp_reads(path):
    """(module, attribute) for every conewarp name a bench file imports or
    reads as an attribute of an imported conewarp module."""
    tree = ast.parse(path.read_text())
    modules, out = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names
                            if a.name.split(".")[0] == "conewarp"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("conewarp"):
            for a in node.names:
                if node.module == "conewarp":
                    modules[a.asname or a.name] = f"conewarp.{a.name}"
                else:
                    out.append((node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.append((modules[node.value.id], node.attr))
    return out


@pytest.mark.parametrize("target", _spans_targets(), ids=lambda t: t[2])
def test_every_span_target_resolves(target):
    mod_name, attr = target[:2]
    reduce(getattr, attr.split("."), importlib.import_module(f"conewarp.{mod_name}"))


def test_every_conewarp_name_the_benchmark_reads_resolves():
    reads = sorted({r for path in BENCH.glob("*.py") for r in _conewarp_reads(path)})
    assert ("conewarp.construct", "make_cap_families") in reads
    missing = [(m, a) for m, a in reads if not hasattr(importlib.import_module(m), a)]
    assert missing == []
