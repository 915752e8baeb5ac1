#!/usr/bin/env python3
"""symflow benchmark: four desk workloads, end-to-end timings, traced self times.

    python3 bench/run.py --workload spectrum-grid --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 0

Run from the root of a checkout; symflow is imported from its ``src``.
One run times set-up, then repeats the workload's job a fixed number of
times that fills about ``--seconds`` at the seed code's speed, checks every
op's output, and prints the metrics; times are scaled to a nominal host
speed by reference computations timed between ops (see bench/README.md),
and the raw seconds are printed too.  ``--trace 1`` instead runs one untraced and
one traced job and reports per-module self times and call counts.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is imported

import argparse
import gzip
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import OpResult, SpeedProbe, median, percentile, tally
from spans import Tracer, install, layer_totals, self_times, uninstall

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("horseshoe", "spectrum-grid", "witness", "lorenz")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
REF_NOMINAL_S = 0.025  # scaled seconds are seconds at the speed where ReferenceWork() takes this
PROBE_EDGE_SAMPLES = 8  # before the first job and after the last
PROBE_INTERVAL_S = 0.5  # after an op, one reference sample per this much time since the last
PROBE_MAX_BATCH = 4
SETUP_PROBE_SAMPLES = 8

# Layers reported by the traced run, each as <layer>.calls and <layer>.self_s.
LAYERS = (
    "sft.perron_root",
    "sft.block_recode",
    "sft.admissible_words",
    "sft.Sft.is_admissible",
    "sft.LocallyConstantFunction",
    "graphs.mean_cycle",
    "graphs.strong_components",
    "thermo.pressure",
    "spectrum.conditional_entropy_spectrum",
    "spectrum.conditional_entropy_spectrum_2d",
    "spectrum.flow_conditional_spectrum",
    "measures.stationary",
    "measures.MarkovComponent",
    "measures.d_star",
    "measures.InvariantMeasure.to_json",
    "measures.InvariantMeasure.from_json",
    "witness.intermediate_witness",
    "witness.low_entropy_mean_witness",
    "witness.birkhoff_witness_2d",
    "jsonio.read_json",
    "jsonio.write_json",
    "jsonio.write_csv",
    "horseshoe.build_multi_horseshoe",
    "horseshoe.certify_pack",
    "horseshoe.lift_pack_to_flow",
    "suspension.d_star_flow",
    "lorenz.validate_lorenz",
    "lorenz.simulate_return_map",
    "lorenz.empirical_statistics",
    "cli.main",
    "cli.build_parser",
    "bench",
)
# Both Karp entry points are one layer (max_mean_cycle delegates to
# min_mean_cycle); block_recode's work happens in the BlockRecoding constructor.
LAYER_GROUPS = {
    "graphs.min_mean_cycle": "graphs.mean_cycle",
    "graphs.max_mean_cycle": "graphs.mean_cycle",
    "sft.BlockRecoding": "sft.block_recode",
    "bench.job": "bench",
    "bench.op": "bench",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def load(name: str, seed: int, workdir: Path):
    """Import symflow from this checkout and build the workload inputs.

    Returns (workload, inputs, seconds); the seconds are the set-up time."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import symflow

    expected = (ROOT / "src" / "symflow").resolve()
    if Path(symflow.__file__).resolve().parent != expected:
        raise ImportError(f"symflow imported from {symflow.__file__}, not {expected}")
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed, workdir)
    return workload, inputs, time.perf_counter() - t0


class ReferenceWork:
    """A fixed computation whose time follows the host's speed for the kinds
    of work the ops do, in two halves of about equal length: interpreter-bound
    Python with small numpy matrix-vector products (CLI parsing, small Perron
    and tilt solves, orbit loops), and numpy elementwise passes over 16 MB
    arrays, larger than the caches (horseshoe tables, lorenz grid sweeps).
    Neither half alone tracks both kinds of op: on a shared host the two
    speeds drift apart.  The arrays live as long as the object, so a run's
    peak RSS carries a fixed 32 MB for them."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.M = np.full((64, 64), 1.0 / 64)
        self.x = np.linspace(-1.0, 1.0, 1 << 21)
        self.y = np.empty_like(self.x)

    def __call__(self) -> float:
        np = self.np
        total = 0
        for i in range(120000):
            total += i * i
        v = np.ones(64)
        for _ in range(450):
            v = self.M @ v
            v = v / v.sum()
        np.multiply(self.x, 0.5, out=self.y)
        np.subtract(self.y, 0.1, out=self.y)
        np.abs(self.y, out=self.y)
        return total + float(v[0]) + float(self.y.max())


def new_probe() -> SpeedProbe:
    return SpeedProbe(ReferenceWork(), REF_NOMINAL_S)


def scaled_setup(raw: float) -> float:
    """Set-up seconds at the nominal speed, from probe samples taken just after."""
    probe = new_probe()
    now = time.perf_counter()
    probe.sample(SETUP_PROBE_SAMPLES)
    return raw * probe.scale(now, now)


def setup_sample(name: str, seed: int) -> float:
    """Scaled set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_job(workload, inputs, jobdir: Path, job: int, tracer: Tracer | None = None,
            probe: SpeedProbe | None = None) -> list:
    """One pass over the workload's ops, in order; returns [OpResult].

    With a probe, the reference is sampled after an op (outside the op's
    timing), once per ``PROBE_INTERVAL_S`` passed since the last sample."""
    from symflow import SymflowError
    from workloads import OpFailure

    shutil.rmtree(jobdir, ignore_errors=True)
    jobdir.mkdir(parents=True)
    ops = workload.ops(inputs, jobdir)
    results = []
    last_probe = time.perf_counter()
    job_span = tracer.enter("bench.job") if tracer else None
    for op_id, fn in ops:
        if tracer:
            tracer.op = op_id
            op_span = tracer.enter("bench.op")
        failure, wrong = None, False
        start = time.perf_counter()
        try:
            fn()
        except OpFailure as exc:
            failure, wrong = str(exc), exc.wrong
        except SymflowError as exc:
            failure = f"refused {exc.name}: {exc}"
        except Exception as exc:  # an op that crashes is recorded, the run goes on
            failure, wrong = f"crashed {type(exc).__name__}: {exc}", True
        seconds = time.perf_counter() - start
        if tracer:
            tracer.exit(op_span)
            tracer.op = None
        results.append(OpResult(workload.name, job, op_id, seconds, failure, wrong, start=start))
        due = int((time.perf_counter() - last_probe) / PROBE_INTERVAL_S)
        if probe and due:
            probe.sample(min(due, PROBE_MAX_BATCH))
            last_probe = time.perf_counter()
    if tracer:
        tracer.exit(job_span)
    return results


def per_job(results, attr: str, stat) -> float:
    """Median over jobs of ``stat`` applied to each job's op latencies
    (``attr`` is ``seconds`` or ``scaled``)."""
    jobs = {}
    for r in results:
        jobs.setdefault(r.job, []).append(getattr(r, attr))
    return median([stat(lat) for lat in jobs.values()])


def p50(values) -> float:
    return percentile(values, 50)


def p90(values) -> float:
    return percentile(values, 90)


def artifact_mismatches(ref_dir: Path, new_dir: Path) -> dict:
    """{op_id: reason} for artifacts that differ between two jobs' directories."""
    names = {p.name for p in ref_dir.iterdir()} | {p.name for p in new_dir.iterdir()}
    out = {}
    for name in sorted(names):
        a, b = ref_dir / name, new_dir / name
        if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
            out[name.split(".", 1)[0]] = f"artifact {name} differs between untraced and traced runs"
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def job_count(workload, seconds: float) -> int:
    """Jobs in a run: as many of the workload's nominal job time as fit in
    ``seconds``, at least one.  A fixed count, not a deadline, so that two
    runs with the same seed attempt (and fail) the same ops."""
    return max(1, int(seconds // workload.job_s))


def measure(workload, inputs, setup_s: list, seconds: float, workdir: Path):
    """``job_count`` jobs.  Each metric is the median over jobs of the job's
    figure; an op's time is scaled by the reference samples around it
    (``SpeedProbe.scale``), and raw times are printed too."""
    probe = new_probe()
    probe.sample(PROBE_EDGE_SAMPLES)
    results, jobs = [], job_count(workload, seconds)
    for job in range(jobs):
        results += run_job(workload, inputs, workdir / "job", job, probe=probe)
    probe.sample(PROBE_EDGE_SAMPLES)
    for r in results:
        r.scaled = r.seconds * probe.scale(r.start, r.start + r.seconds)
    metrics = {
        "setup_s": metric(median(setup_s), "s"),
        "wall_s": metric(per_job(results, "scaled", sum), "s"),
        "op_p50_s": metric(per_job(results, "scaled", p50), "s"),
        "op_p90_s": metric(per_job(results, "scaled", p90), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    print(f"jobs: {jobs}  ops: {len(results)}  setup samples_s: {[round(x, 4) for x in setup_s]}")
    print(f"raw (unscaled) seconds: wall_s {per_job(results, 'seconds', sum):.6g}  "
          f"op_p50_s {per_job(results, 'seconds', p50):.6g}  "
          f"op_p90_s {per_job(results, 'seconds', p90):.6g}")
    print(f"reference: median {median([d for _, d in probe.samples]) * 1e3:.4g} ms over "
          f"{len(probe.samples)} samples (nominal {REF_NOMINAL_S * 1e3:g} ms)")
    return metrics, results


def measure_traced(workload, inputs, workdir: Path, env: dict):
    results = run_job(workload, inputs, workdir / "job", 0)
    untraced_wall = sum(r.seconds for r in results)
    (workdir / "job").rename(workdir / "untraced")
    tracer = Tracer()
    undo = install(tracer, "symflow")
    try:
        traced = run_job(workload, inputs, workdir / "job", 1, tracer)
    finally:
        uninstall(undo)
    mismatched = artifact_mismatches(workdir / "untraced", workdir / "job")
    for r in traced:
        if r.op in mismatched and r.failure is None:
            r.failure, r.wrong = mismatched[r.op], True
    results += traced

    spans = tracer.spans
    totals = layer_totals(spans, LAYER_GROUPS)
    traced_wall = spans[0].end - spans[0].start  # the bench.job span
    metrics = {}
    for layer in LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = metric(calls, "count")
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")

    self_sum = sum(t for _, t in totals.values())
    print(f"traced wall {traced_wall:.4f} s, untraced wall {untraced_wall:.4f} s, "
          f"{len(spans)} spans; self times of {len(totals)} layers sum to {self_sum:.4f} s")
    for name, (calls, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1])[:25]:
        print(f"  {name:48s} {calls:9d} calls {self_s:11.4f} s self")
    write_spans(spans, workload.name, env)
    return metrics, results


SPAN_FIELDS = ("name", "start", "end", "parent", "op", "self_s")


def write_spans(spans, name: str, env: dict) -> None:
    """Header line, then one JSON array per span (its index is its id)."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"workload": name, "env": env, "fields": SPAN_FIELDS}) + "\n")
        for s, t in zip(spans, self_times(spans)):
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, t]) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def run_one(args) -> int:
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=_work_root()))
    try:
        workload, inputs, own_setup = load(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": scaled_setup(own_setup), "raw_s": own_setup}))
            return 0
        env = environment(args.seed)
        print(f"workload: {args.workload}  env: {json.dumps(env)}")
        if args.trace:
            metrics, results = measure_traced(workload, inputs, workdir, env)
        else:
            setup_s = [scaled_setup(own_setup)] + [
                setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
            metrics, results = measure(workload, inputs, setup_s, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = tally(results)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {summary['fail_frac']:.6g} ({summary['failed']}/{summary['attempted']})")
    for line in summary["failures"]:
        print(f"failed: {line}")
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def _work_root() -> Path:
    root = HERE / ".work"
    root.mkdir(exist_ok=True)
    return root


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, then a summary table."""
    rows, correct = [], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        rows.append((name, result))
    print("\nsummary")
    for name, result in rows:
        frac = result["failed"] / result["attempted"]
        cells = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()
                          if args.trace == 0 or k.startswith(("trace.", "bench.")))
        print(f"  {name:14s} fail_frac={frac:.4g} ({result['failed']}/{result['attempted']})  {cells}")
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for _, r in rows),
                      "failed": sum(r["failed"] for _, r in rows),
                      "workloads": {n: r for n, r in rows}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except (ImportError, RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
