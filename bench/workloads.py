"""Workloads of the conewarp benchmark: inputs, operations and output checks.

Every operation goes through a public entry point of the program
(``cli.main``, ``pipeline.run_full_resolution`` or ``certify.*``).  An
operation is split into ``run`` (timed) and ``check`` (untimed); ``check``
turns the raw output into an ``Outcome``.  Why each workload exists is in
NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from conewarp import certify, cli, construct, pipeline
from conewarp.curvature import ConeOverBerger, LocalGlue, TorusInvariant
from conewarp.groups import (
    cyclic_group,
    deserialize_group,
    noncyclic_group,
    resolution_tree,
    serialize_group,
)
from conewarp.warpfn import WarpFunction

# One chain per group; every node of every chain has a distinct (n, p).
CYCLIC_SPECS = ["cyclic:2,1,1", "cyclic:5,1,3", "cyclic:7,1,3", "cyclic:11,1,7"]
# Cheapest cyclic input: the warm-up, and the source of the cyclic reference.
WARMUP_SPEC = "cyclic:2,1,1"
CERTIFY_GRID = 128            # conewarp certify's default grid
ORACLE_POINTS = 100           # certify_oracle_agreement's default sample count


class SetupError(RuntimeError):
    """The reference taken in setup could not be produced."""


@dataclass
class Outcome:
    ok: bool
    atlases: int = 0              # atlases certified (or re-certified)
    digest: str = ""              # of every report's min_margin
    error: str = ""
    names: frozenset = frozenset()   # report names the operation produced


@dataclass
class Op:
    label: str
    run: callable                 # () -> raw output; the timed part
    check: callable               # raw -> Outcome; untimed


def binary_dihedral_12():
    """The order-12 binary dihedral group of tests/test_pipeline.py."""
    a = np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    b = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    return noncyclic_group([a, b])


def parse_cyclic(spec):
    n, k, l = (int(v) for v in spec.split(":", 1)[1].split(","))
    return cyclic_group(n, k, l)


def atlas_names(node, name="node0"):
    """Atlas names a resolution run produces, in the run's visiting order
    (trivial leaves get no atlas)."""
    out = [] if node.group.is_trivial else [name]
    for i, child in enumerate(node.children):
        out += atlas_names(child, f"{name}.{i}")
    return out


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def digest(rows):
    h = hashlib.sha256()
    for row in sorted(rows):
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def _config_args(config, workdir):
    if not config:
        return []
    path = workdir / "pipeline.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    return ["--config", str(path)]


@dataclass
class Workload:
    name: str
    workdir: Path
    config: dict | None = None    # PipelineConfig overrides; None = defaults
    inputs: list = field(default_factory=list)

    def ops(self, rng):
        """One pass: every input once, in an order drawn from ``rng``."""
        return [self.inputs[i] for i in rng.permutation(len(self.inputs))]


# ---------------------------------------------------------------------------
# resolve-cyclic / resolve-noncyclic
# ---------------------------------------------------------------------------


@dataclass
class ResolveWorkload(Workload):
    """``conewarp resolve`` in-process on each group, into a fresh directory."""

    noncyclic: bool = False

    def setup(self, rng):
        cfg_args = _config_args(self.config, self.workdir)
        groups = []
        if self.noncyclic:
            path = self.workdir / "group.txt"
            path.write_text(serialize_group(binary_dihedral_12()))
            groups.append(("binary-dihedral-12", ["--group-file", str(path)],
                           deserialize_group(path.read_text())))
        else:
            groups += [(s, ["--group", s], parse_cyclic(s)) for s in CYCLIC_SPECS]

        # reference report-name sets, one per atlas kind
        rc, _, err = call_cli(["resolve", "--group", WARMUP_SPEC,
                               "--out", str(self.workdir / "warmup"), *cfg_args])
        if rc != 0:
            raise SetupError(f"warm-up resolve of {WARMUP_SPEC} exited {rc}: {err}")
        reports = json.loads((self.workdir / "warmup" / "reports.json").read_text())
        self.reference = {"cyclic": set(reports["node0"])}
        if self.noncyclic:
            cfg = pipeline.PipelineConfig.from_mapping(self.config or {})
            root = pipeline.assemble_atlas(groups[0][2], config=cfg)
            self.reference["noncyclic"] = set(root.reports)

        self.inputs = [self._op(label, argv, atlas_names(resolution_tree(g)), cfg_args)
                       for label, argv, g in groups]

    def _op(self, label, group_argv, names, cfg_args):
        def run():
            out = Path(tempfile.mkdtemp(dir=self.workdir))
            return out, call_cli(["resolve", *group_argv, "--out", str(out), *cfg_args])

        def check(raw):
            out, (rc, _, err) = raw
            try:
                return self._check(rc, err, out, names)
            finally:
                shutil.rmtree(out)

        return Op(label, run, check)

    def _check(self, rc, err, out, names):
        if rc != 0:
            return Outcome(False, error=f"exit code {rc}: {err.strip()[-300:]}")
        reports = json.loads((out / "reports.json").read_text())
        if list(reports) != names:
            return Outcome(False, error=f"atlases {list(reports)} != expected {names}")
        rows = []
        for name, reps in reports.items():
            kind = "noncyclic" if self.noncyclic and name == "node0" else "cyclic"
            if set(reps) != self.reference[kind]:
                return Outcome(False, error=f"{name}: report names differ from the "
                                            f"{kind} reference: {sorted(reps)}")
            failed = [k for k, r in reps.items() if not r["passed"]]
            if failed:
                return Outcome(False, error=f"{name}: failed reports {failed}")
            rows += [(name, k, repr(r["min_margin"])) for k, r in reps.items()]
        return Outcome(True, atlases=len(names), digest=digest(rows))


# ---------------------------------------------------------------------------
# recertify
# ---------------------------------------------------------------------------


def oracle_ansatze(atlas_json):
    """Ansatz of each region that ``ansatz_to_chart`` supports, rebuilt from
    the atlas file's deserialized warps.

    The cap enters with its part-1 family on the family's default chart box,
    clear of the phi1 junctions.  On the cap's full certified box the FD
    oracle refuses the n = 11 cap as ill-conditioned for some sample draws,
    and the part-2 family as well (see NOTES.md).
    """
    out = {}
    for reg in atlas_json["regions"]:
        w = {k: WarpFunction.deserialize(v) for k, v in reg["warps"].items()}
        d = reg["data"]
        if reg["id"] == "edge_body":
            out["edge_body"] = ConeOverBerger(w["rho"], w["phi"], w["f"])
        elif reg["id"] == "glue_collar":
            out["glue_collar"] = LocalGlue(
                rho=w["rho"], n=int(d["n"]), eta1=w["eta1"], eta2=w["eta2"],
                sigma1=d["sigma1"], sigma2=d["sigma2"], xi0=d["xi0"])
        elif reg["id"] == "conical_cap":
            fams = construct.make_cap_families(w["phi1"], None, w["rho_cap"],
                                               int(d["n"]), d["zeta"])
            out["conical_cap"] = TorusInvariant(*fams,
                                                avoid={0: list(w["phi1"].breakpoints)})
    return out


@dataclass
class RecertifyWorkload(Workload):
    """Re-certify written atlases: ``conewarp certify`` on the file,
    ``certify_gluing`` on the in-memory atlas, and the FD oracle on every
    chartable region rebuilt from the file."""

    def setup(self, rng):
        cfg = pipeline.PipelineConfig.from_mapping(self.config or {})
        self.inputs, self.reference = [], {}
        for spec in CYCLIC_SPECS:
            run = pipeline.run_full_resolution(parse_cyclic(spec), config=cfg)
            if not run.passed:
                raise SetupError(f"resolution of {spec} did not pass:\n{run.summary()}")
            for name, atlas in run.atlases:
                path = self.workdir / f"atlas_{spec.replace(':', '_')}_{name}.json"
                path.write_text(atlas.to_json())
                self.inputs.append(self._op(f"{spec}/{name}", path, atlas,
                                            int(rng.integers(2 ** 31))))
        # warm-up pass; its report names are the per-atlas reference
        for op in self.inputs:
            outcome = op.check(op.run())
            if not outcome.ok:
                raise SetupError(f"warm-up recertify of {op.label}: {outcome.error}")
            self.reference[op.label] = outcome.names

    def _op(self, label, path, atlas, oracle_seed):
        def run():
            cert = call_cli(["certify", "--atlas", str(path), "--grid", str(CERTIFY_GRID)])
            gluing = certify.certify_gluing(atlas)
            data = json.loads(path.read_text())
            oracle = {k: certify.certify_oracle_agreement(a, n_points=ORACLE_POINTS,
                                                          rng=oracle_seed)
                      for k, a in oracle_ansatze(data).items()}
            return cert, gluing, oracle

        def check(raw):
            (rc, out, err), gluing, oracle = raw
            lines = out.splitlines()
            names = frozenset(
                {"certify:" + ln.split("] ", 1)[1].split(":", 1)[0] for ln in lines}
                | {"gluing:" + k for k in gluing} | {"oracle:" + k for k in oracle})
            if rc != 0:
                return Outcome(False, error=f"certify exit code {rc}: {err.strip()[-300:]}")
            ref = self.reference.get(label, names)
            if names != ref:
                return Outcome(False, error=f"report names {sorted(names)} != "
                                            f"reference {sorted(ref)}")
            failed = [k for k, r in {**gluing, **oracle}.items() if not r.passed]
            if failed:
                return Outcome(False, error=f"failed reports {failed}")
            # the CLI prints its margins at 4 significant digits
            rows = [("certify", ln) for ln in lines]
            rows += [(k, repr(r.min_margin)) for k, r in {**gluing, **oracle}.items()]
            return Outcome(True, atlases=1, digest=digest(rows), names=names)

        return Op(label, run, check)
