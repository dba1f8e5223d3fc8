"""Write tests/golden/margins.json: the exact margins, ledgers and warp texts
of a fixed set of atlases, for the golden-margin test.

    PYTHONPATH=src python tests/golden/regen_margins.py [--diff]

With ``--diff`` it writes nothing: it prints every key whose value differs
from the committed file (``path: committed -> recomputed``) and exits 1 if
any does.

Per atlas the file holds every report's repr(min_margin), argmin and
passed, every ledger value's repr, and the sorted set of sha256 hashes of
the distinct serialized warp functions.  The last bits of a margin can
depend on numpy's libm/SIMD paths, so the file also records numpy's version
and the CPU model; the test skips on another environment.  Regenerate only
from code whose margins are meant to be unchanged, or when a change moves
margins on purpose (then list every moved key with the change).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "margins.json"
CYCLIC = ((2, 1, 1), (5, 1, 3))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"numpy": np.__version__, "cpu": cpu_model()}


def _plain(v):
    return v.item() if isinstance(v, np.generic) else v


def atlas_entry(atlas) -> dict:
    reports = {}
    for key, rep in sorted(atlas.reports.items()):
        reports[key] = {"min_margin": repr(float(rep.min_margin)),
                        "argmin": json.loads(rep.to_json())["argmin"],
                        "passed": bool(rep.passed)}
    warps = {hashlib.sha256(w.serialize().encode()).hexdigest()
             for region in atlas.regions for w in region.warps.values()}
    return {"reports": reports,
            "ledger": {k: repr(_plain(v)) for k, v in sorted(atlas.params.values.items())},
            "warp_sha256": sorted(warps)}


def binary_dihedral_12():
    """The order-12 binary dihedral group of tests/test_pipeline.py."""
    from conewarp.groups import noncyclic_group
    a = np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    b = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    return noncyclic_group([a, b])


def cyclic_entries(run, spec) -> dict:
    return {f"cyclic:{spec}/{name}": atlas_entry(atlas) for name, atlas in run.atlases}


def noncyclic_entry(config) -> dict:
    from conewarp.pipeline import assemble_atlas
    return {"binary-dihedral-12/root":
            atlas_entry(assemble_atlas(binary_dihedral_12(), config))}


def _flat(d, prefix=""):
    """Nested dicts as {"a/b/c": leaf}."""
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out.update(_flat(v, f"{prefix}{k}/"))
        else:
            out[f"{prefix}{k}"] = v
    return out


def diff_keys(committed: dict, recomputed: dict) -> list:
    """Lines ``key: committed -> recomputed`` for every differing leaf."""
    old, new = _flat(committed), _flat(recomputed)
    return [f"{k}: {old.get(k, '<absent>')!r} -> {new.get(k, '<absent>')!r}"
            for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", action="store_true",
                    help="print the keys that differ from the committed file; write nothing")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE.parent))
    from test_certification_layer import FAST

    from conewarp.groups import cyclic_group
    from conewarp.pipeline import run_full_resolution

    atlases = {}
    for n, k, l in CYCLIC:
        run = run_full_resolution(cyclic_group(n, k, l), FAST)
        atlases.update(cyclic_entries(run, f"{n},{k},{l}"))
    atlases.update(noncyclic_entry(FAST))
    golden = {"environment": environment(), "atlases": atlases}
    if args.diff:
        lines = diff_keys(json.loads(GOLDEN.read_text()), golden)
        for line in lines:
            print(line)
        return 1 if lines else 0
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(atlases)} atlases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
