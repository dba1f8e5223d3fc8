"""Write tests/golden/coverage.json: the outcome of every group of the
supported-range sweep at the default config.

    PYTHONPATH=src python tests/golden/regen_coverage.py [--diff]

With ``--diff`` it writes nothing: it prints every row whose outcome differs
from the committed file (``row: committed -> recomputed``) and exits 1 if
any does.

Rows:

* ``cyclic:n,1,p`` -- ``assemble_atlas`` of the root, for 2 <= n <= 24 and
  every p < n coprime to n;
* ``binary-dihedral-4m`` for 2 <= m <= 12, ``T24``, ``O48`` and ``I120`` --
  ``run_full_resolution`` of the whole tree.

An outcome is ``PASS``, ``FAIL`` followed by the sorted names of the failing
reports, or ``<Exception>: <message>`` when the build raises.  No timings
are stored, so the file changes exactly when an outcome does.  The sweep
takes a few minutes; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
COVERAGE = HERE / "coverage.json"
N_MAX = 24
DIHEDRAL_M_MAX = 12


def quaternion(a, b, c, d):
    """a + b i + c j + d k as a matrix of SU(2)."""
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def polyhedral_generators() -> dict:
    """SU(2) generators of the binary dihedral groups of order 4m and of the
    binary tetrahedral, octahedral and icosahedral groups."""
    golden = (1 + 5 ** 0.5) / 2
    b = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    gens = {f"binary-dihedral-{4 * m}":
            [np.diag([np.exp(1j * np.pi / m), np.exp(-1j * np.pi / m)]), b]
            for m in range(2, DIHEDRAL_M_MAX + 1)}
    gens["T24"] = [quaternion(0, 1, 0, 0), quaternion(0.5, 0.5, 0.5, 0.5)]
    gens["O48"] = [quaternion(2 ** -0.5, 2 ** -0.5, 0, 0), quaternion(0.5, 0.5, 0.5, 0.5)]
    gens["I120"] = [quaternion(0.5, 0.5, 0.5, 0.5),
                    quaternion(golden / 2, 0.5, 0.5 / golden, 0)]
    return gens


def outcome(build) -> str:
    """The row text of one build: PASS, FAIL <names> or <Exception>: <message>."""
    try:
        reports = build()
    except Exception as e:     # every cause is a row of the table
        return f"{type(e).__name__}: {e}"
    failed = sorted({name for name, rep in reports if not rep.passed})
    return "PASS" if not failed else "FAIL " + " ".join(failed)


def rows():
    from conewarp.groups import cyclic_group, noncyclic_group
    from conewarp.pipeline import assemble_atlas, run_full_resolution

    def atlas_of(group):
        return lambda: assemble_atlas(group).reports.items()

    def resolution_of(group):
        return lambda: [kv for _, atlas in run_full_resolution(group).atlases
                        for kv in atlas.reports.items()]

    for n in range(2, N_MAX + 1):
        for p in range(1, n):
            if math.gcd(n, p) == 1:
                yield f"cyclic:{n},1,{p}", atlas_of(cyclic_group(n, 1, p))
    for name, gens in polyhedral_generators().items():
        yield name, resolution_of(noncyclic_group(gens))


def diff_rows(committed: dict, recomputed: dict) -> list:
    """Lines ``row: committed -> recomputed`` for every differing row."""
    return [f"{k}: {committed.get(k, '<absent>')} -> {recomputed.get(k, '<absent>')}"
            for k in sorted(committed.keys() | recomputed.keys())
            if committed.get(k) != recomputed.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", action="store_true",
                    help="print the rows that differ from the committed file; write nothing")
    args = ap.parse_args(argv)
    table = {name: outcome(build) for name, build in rows()}
    if args.diff:
        lines = diff_rows(json.loads(COVERAGE.read_text()), table)
        for line in lines:
            print(line)
        return 1 if lines else 0
    COVERAGE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {COVERAGE} ({len(table)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
