"""conewarp benchmark: time to a certified atlas, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process as a closed loop: one operation at a time,
no worker threads, BLAS pinned to one thread.  After set-up it makes full
passes over the workload's inputs (in an order drawn from the seed) until S
seconds have passed, then prints the metrics by name with their units and,
as the last line, one JSON object.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  Every run also writes its record to
bench/out/.  Workloads, metrics and their reasons are in bench/NOTES.md.
"""

import os

# Pin BLAS before numpy loads: one operation at a time on one core.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("resolve-cyclic", "resolve-noncyclic", "recertify")
SETUP_REPS = 3

# (name, unit) of the end-to-end metrics, in print order
END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("atlases_per_s", "1/s"),
              ("op_max_s", "s"), ("ok_frac", "fraction"), ("peak_rss_mb", "MB")]


def make_workload(name, workdir, config=None):
    from workloads import RecertifyWorkload, ResolveWorkload
    if name == "resolve-cyclic":
        return ResolveWorkload(name, workdir, config)
    if name == "resolve-noncyclic":
        return ResolveWorkload(name, workdir, config, noncyclic=True)
    return RecertifyWorkload(name, workdir, config)


def import_seconds():
    """Wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import conewarp.cli"], env=env,
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def set_up(name, seed, config, reps):
    """Set the workload up ``reps`` times; keep the last, return the times.
    Each time covers imports, input generation and the warm-up."""
    import numpy as np
    times = []
    for rep in range(reps):
        t_import = import_seconds()
        t0 = time.perf_counter()
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
        try:
            workload = make_workload(name, workdir, config)
            workload.setup(np.random.default_rng([seed, 0]))
        except BaseException:
            shutil.rmtree(workdir)
            raise
        times.append(t_import + time.perf_counter() - t0)
        if rep < reps - 1:
            shutil.rmtree(workdir)
    return workload, times


def run_passes(workload, seed, seconds, recorder=None):
    """Closed loop of full passes until ``seconds`` have passed.  With a
    recorder, passes alternate untraced / traced (at least one of each)."""
    import numpy as np
    from spans import OP
    from workloads import Outcome

    rng = np.random.default_rng([seed, 1])
    passes, failures, digests = [], [], {}
    t_start = time.perf_counter()
    while True:
        traced = recorder is not None and len(passes) % 2 == 1
        if traced:
            recorder.install()
        ops, op_s, atlases = workload.ops(rng), [], 0
        try:
            for op in ops:
                t0 = time.perf_counter()
                try:
                    raw = recorder.span(OP, op.run) if traced else op.run()
                except Exception:
                    outcome = Outcome(False, error=traceback.format_exc(limit=3))
                else:
                    outcome = None
                op_s.append(time.perf_counter() - t0)
                outcome = outcome or op.check(raw)
                if outcome.ok:
                    atlases += outcome.atlases
                    digests.setdefault(op.label, set()).add(outcome.digest)
                else:
                    failures.append({"op": op.label, "error": outcome.error})
        finally:
            if traced:
                recorder.uninstall()
        passes.append({"traced": traced, "ops": [op.label for op in ops],
                       "op_s": op_s, "atlases": atlases})
        done = time.perf_counter() - t_start >= seconds
        if done and (recorder is None or len(passes) >= 2):
            return passes, failures, digests


def end_to_end(setup_times, passes, failures):
    attempted = sum(len(p["op_s"]) for p in passes)
    op_time = sum(sum(p["op_s"]) for p in passes)
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(sum(p["op_s"]) for p in passes),
        "atlases_per_s": sum(p["atlases"] for p in passes) / op_time,
        "op_max_s": statistics.median(max(p["op_s"]) for p in passes),
        "ok_frac": (attempted - len(failures)) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or "unavailable"
    src = hashlib.sha256()
    for path in sorted((SRC / "conewarp").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, config=None, setup_reps=SETUP_REPS):
    """Run one benchmark; ``config`` overrides PipelineConfig fields (the
    smoke test uses a tiny one).  Returns the process exit code."""
    args = parse_args(argv)
    if not (SRC / "conewarp" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'conewarp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conewarp
    if Path(conewarp.__file__).resolve().parent != SRC / "conewarp":
        print(f"error: imported conewarp from {conewarp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    from spans import SpanRecorder, layer_metrics
    from workloads import SetupError

    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)
    for key, val in env.items():
        print(f"env {key} {val}")
    try:
        workload, setup_times = set_up(args.workload, args.seed, config, setup_reps)
    except SetupError as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    # The set-up's objects (for recertify, every atlas in memory) are harness
    # state a user's process does not hold: keep them out of the collector's
    # full passes, which would otherwise scan them during timed operations.
    gc.collect()
    gc.freeze()
    recorder = SpanRecorder() if args.trace else None
    try:
        passes, failures, digests = run_passes(workload, args.seed, args.seconds, recorder)
    finally:
        gc.unfreeze()
        shutil.rmtree(workload.workdir)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    attempted = sum(len(p["op_s"]) for p in passes)
    if recorder is None:
        metrics = end_to_end(setup_times, passes, failures)
        units = dict(END_TO_END)
        print(f"failed_frac {len(failures) / attempted!r} fraction")
    else:
        metrics, units = layer_metrics(recorder, passes)
        recorder.dump(OUT / f"spans-{stem}.json")
        n_traced = sum(p["traced"] for p in passes)
        self_sum = sum(row["self_s"] for row in recorder.aggregate().values()) / n_traced
        print(f"trace: self times sum to {self_sum:.4f} s per traced pass "
              f"(traced pass {metrics['trace.pass_s']:.4f} s = untraced "
              f"{metrics['trace.untraced_pass_s']:.4f} s + overhead "
              f"{metrics['trace.overhead_s']:.4f} s)")
    for name, val in metrics.items():
        print(f"{name} {val!r} {units[name]}")
    for label in sorted(digests):
        ds = digests[label]
        print(f"margin_digest {label} {','.join(sorted(ds))}"
              f"{'' if len(ds) == 1 else ' (differs between passes)'}")
    for f in failures:
        print(f"FAILED {f['op']}: {f['error']}")

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds, "env": env,
         "setup_times_s": setup_times, "passes": passes, "failures": failures,
         "digests": {k: sorted(v) for k, v in digests.items()}, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
