"""hybridstream benchmark: stream throughput per model kind, wide offline
training and parallel trials, with a separate traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload led-stream --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``; metric names, units and bounds
are read from ``BENCHMARK.json``.  ``--trace 0`` prints the end-to-end
metrics of an untraced run; ``--trace 1`` prints the per-layer metrics of a
traced run together with the tracing overhead measured against an
untraced run of the same length.  The last stdout line is the result
object; the line before it records the environment, the output checks and
the reference-output digest.  Files are written under ``.bench_out/``.
"""

import os

# one BLAS thread per process, fixed before numpy loads, so that one
# benchmark process plus two pool workers never exceed two CPUs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from instrument import Patches, Recorder, Tracer, p90_ms, role  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 21
# median time of setup_probe's reference on the two-CPU machine the
# benchmark was defined on
SETUP_NOMINAL_REFERENCE_S = 0.105

# spans reported as calls / us_p50 / self_s in the traced run
SPANS = (
    "numerics.sigmoid",
    "recognition.recognize", "recognition.rec_gradients", "recognition.rec_update",
    "dhbm.mean_field_step", "dhbm.cond_y", "dhda.dhda_forward",
    "estimators.mf_cd_gradients", "estimators.mf_bp_gradients",
    "estimators.sap_gradients", "estimators.apply_gradients",
    "estimators.Gradients.scaled_add", "estimators.Gradients.zeros_like",
    "kernels.gibbs_sweeps",
    "trainer.Trainer.predict", "trainer.Trainer.update",
    "baseline.mlp_update", "baseline.mlp_predict",
    "streams.next_batch", "streams.mask_labels",
    "evaluation.PrequentialState.update_many", "evaluation.test_error",
    "evaluation.CurveWriter.add",
    "datasets.load_idx", "datasets.split_semi_supervised",
    "experiments.run_stream_trial", "experiments.run_mnist_trial",
)
PER_BATCH = ("recognition.recognize", "dhbm.cond_y", "estimators.Gradients.zeros_like")


class Phase:
    """The calls of one measured stretch.

    Rates are instances per reference second: per CPU second divided by
    the host slowdown during each call (see ``Recorder.call``).  The
    workload rate counts each call's critical path, so that it keeps the
    pool's parallelism: a call that ran its trials in one process takes
    its whole CPU time.  A model kind's rate counts the kind's share of the
    calls' total CPU time (see ``Call.cpu_by_kind``).

    A kind's p90 step time is taken over all its steps, each in reference
    seconds of its call; a role's is the mean over its kinds.
    """

    def __init__(self, calls, units, failed_units):
        self.calls = calls
        self.units = units
        self.failed_units = failed_units
        self.kinds = sorted({k for c in calls for k in c.steps_s})

    @property
    def wall_s(self):
        return sum(c.wall_s for c in self.calls)

    def rate(self):
        """Instances per reference second of the calls' critical paths."""
        return (sum(c.instances for c in self.calls)
                / sum(c.path_cpu_s / c.slowdown for c in self.calls))

    def kind_rate(self, kinds):
        """Instances per reference second of the given kinds' CPU shares."""
        instances = ref_s = 0.0
        for c in self.calls:
            for kind, share in c.cpu_by_kind().items():
                if kind in kinds:
                    instances += c.instances
                    ref_s += share / c.slowdown
        return instances / ref_s

    def role_rate(self, r):
        return self.kind_rate([k for k in self.kinds if role(k) == r])

    def kind_p90_ms(self, kind):
        return p90_ms([t / c.slowdown for c in self.calls
                       for t in c.steps_s.get(kind, ())])

    def role_p90_ms(self, r):
        return statistics.mean(self.kind_p90_ms(k) for k in self.kinds
                               if role(k) == r)


def measure(wl, experiments, recorder, seconds, out_dir, units=None, jobs=2):
    """Run units back to back while the next one, at the mean unit time so
    far, ends within `seconds`; or run exactly `units`."""
    calls, done, failed = [], [], 0
    start = time.perf_counter()
    for index in (units if units is not None else itertools.count()):
        elapsed = time.perf_counter() - start
        if units is None and done and elapsed * (1 + 1 / len(done)) > seconds:
            break
        try:
            calls.extend(wl.unit(index, os.path.join(out_dir, f"unit{index}"),
                                 experiments, recorder.call, jobs=jobs))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
        done.append(index)
    recorder.collect_workers()
    if not calls:
        raise RuntimeError("no unit completed")
    return Phase(calls, done, failed)


def measure_setup(wl):
    """Median set-up time over fresh interpreters, each divided by the
    reference time measured in the same interpreter, in reference seconds."""
    spec = dict(wl.setup_spec(), src=SRC)
    samples = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                              json.dumps(spec)], capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(json.loads(res.stdout.strip().splitlines()[-1]))
    ratio = statistics.median(s["setup_s"] / s["reference_s"] for s in samples)
    return ratio * SETUP_NOMINAL_REFERENCE_S, samples


# ---------------------------------------------------------------- checks

NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _unit_value(v, where, problems):
    if not (math.isfinite(v) and 0.0 <= v <= 1.0):
        problems.append(f"{where}: {v!r} not finite in [0, 1]")


def _number(text, where, notes):
    """A CSV field as a float.  numpy 2 writes repr(np.float64) as
    'np.float64(x)': that value is read, and the format is noted."""
    try:
        return float(text)
    except ValueError:
        m = NUMPY_REPR.fullmatch(text)
        if m is None:
            raise
        notes.append(f"{where}: {text}")
        return float(m.group(1))


def check_file(path, problems, notes):
    """Curve CSVs: every preq_error; summary CSVs: every error, mean, stderr."""
    if not os.path.isfile(path):
        problems.append(f"missing output {os.path.basename(path)}")
        return {}
    last = {}
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    name = os.path.basename(path)
    if not rows:
        problems.append(f"{name}: empty")
        return last
    if name.startswith("curves"):
        if rows[0] != ["iteration", "model", "preq_error"] or len(rows) < 2:
            problems.append(f"{name}: bad header or no points")
        for row in rows[1:]:
            last[row[1]] = _number(row[2], name, notes)
            _unit_value(last[row[1]], f"{name} {row[:2]}", problems)
        return last
    header = None
    for row in rows:
        if row[0] == "model":
            header = row
            continue
        cols = (2,) if header[1] == "trial" else (1, 2)
        for c in cols:
            where = f"{name} {row[0]} {header[c]}"
            _unit_value(_number(row[c], where, notes), where, problems)
    return last


def check_outputs(wl, calls, notes):
    problems = []
    for c in calls:
        for kind, errs in c.finals.items():
            for e in errs:
                _unit_value(e, f"{kind} final", problems)
        for path in c.files:
            for kind, value in check_file(path, problems, notes).items():
                if value not in c.finals.get(kind, ()):
                    problems.append(f"{os.path.basename(path)}: last {kind} "
                                    f"point {value!r} is not a returned final")
    if wl.name == "offline-wide":
        # chance is 0.9 on 10 balanced classes; 0.8 is 15 standard errors
        # below it on 2000 test images, a constant predictor scores 0.9
        for c in calls:
            for e in c.finals.get("dhbm-mf", ()):
                if e >= 0.8:
                    problems.append(f"dhbm-mf test error {e:.3f} not below 0.8")
    return problems


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def environment(kernels):
    git_sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = res.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "hybridstream")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"library": f"{blas.get('name')} {blas.get('version')}",
                 "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
                 "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]},
        "numba_absent": importlib.util.find_spec("numba") is None,
        "kernels_numba_enabled": kernels.NUMBA_ENABLED,
        "start_method": multiprocessing.get_start_method(),
    }


# ---------------------------------------------------------------- runs

def untraced_run(wl, experiments, recorder, args, tmp, info):
    setup_s, setup_samples = measure_setup(wl)
    phase = measure(wl, experiments, recorder, args.seconds,
                    os.path.join(tmp, "measure"))
    ref_files = wl.reference(os.path.join(tmp, "reference"), experiments)
    recorder.collect_workers()
    expected = json.load(open(os.path.join(HERE, "digests.json"))).get(wl.name)
    got = digest(ref_files)
    info["reference_outputs"] = {"sha256": got, "expected": expected,
                                 "match": got == expected}
    info["setup"] = {k: [round(x[k], 5) for x in setup_samples]
                     for k in ("setup_s", "reference_s")}
    if wl.name == "waveform-trials":
        rss_kb = max(recorder.worker_maxrss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info["per_kind"] = {kind: {"inst_per_ref_s": phase.kind_rate([kind]),
                               "step_ref_ms_p90": phase.kind_p90_ms(kind)}
                        for kind in phase.kinds}
    info["units"] = len(phase.units)
    info["cpu_s"] = sum(c.cpu_s for c in phase.calls)
    info["path_cpu_s"] = sum(c.path_cpu_s for c in phase.calls)
    info["wall_s"] = phase.wall_s
    info["wall_inst_per_s"] = sum(c.instances for c in phase.calls) / phase.wall_s
    info["reference_slowdown"] = (recorder.tick_s / recorder.ticks
                                  / recorder.reference.nominal_s)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "inst_per_ref_s": phase.rate(),
        "hybrid.inst_per_ref_s": phase.role_rate("hybrid"),
        "mlp.inst_per_ref_s": phase.role_rate("mlp"),
        "hybrid.step_ref_ms.p90": phase.role_p90_ms("hybrid"),
        "mlp.step_ref_ms.p90": phase.role_p90_ms("mlp"),
    }
    return metrics, [phase], ref_files


def traced_run(wl, experiments, recorder, instr_patches, args, tmp, info, env):
    """Untraced stretch, then traced stretch; waveform-trials also reruns its
    pool units in one process for the parallel-efficiency baseline."""
    tracer = Tracer()
    trace_patches = Patches()
    pool_phase = None
    if wl.name == "waveform-trials":
        pool_phase = measure(wl, experiments, recorder, args.seconds / 4,
                             os.path.join(tmp, "pool"))
        base = measure(wl, experiments, recorder, 0, os.path.join(tmp, "single"),
                       units=pool_phase.units, jobs=1)
        budget = args.seconds / 4
    else:
        base = measure(wl, experiments, recorder, args.seconds / 2,
                       os.path.join(tmp, "untraced"))
        budget = args.seconds / 2
    instr_patches.undo()
    tracer.install(trace_patches)
    recorder.install(instr_patches)
    try:
        traced = measure(wl, experiments, recorder, budget,
                         os.path.join(tmp, "traced"), jobs=1)
    finally:
        instr_patches.undo()
        trace_patches.undo()
        recorder.install(instr_patches)

    metrics = {}
    for name in SPANS:
        s = tracer.stats(name)
        metrics[f"{name}.calls"] = s["calls"]
        metrics[f"{name}.us_p50"] = s["us_p50"]
        metrics[f"{name}.self_s"] = s["self_s"]
    batches = tracer.stats("trainer.Trainer.update")["calls"]
    for name in PER_BATCH:
        calls = tracer.stats(name)["calls"]
        metrics[f"{name}.calls_per_batch"] = calls / batches if batches else 0.0
    for name, metric in (("kernels.gibbs_sweeps", "us_per_sweep"),
                         ("evaluation.PrequentialState.update_many", "us_per_inst")):
        s = tracer.stats(name)
        metrics[f"{name}.{metric}"] = s["total_s"] * 1e6 / s["work"] if s["work"] else 0.0
    metrics["experiments.parallel_efficiency"] = (
        base.wall_s / (2 * pool_phase.wall_s) if pool_phase else 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced.rate() / base.rate())
    info["untraced_inst_per_ref_s"] = base.rate()
    info["traced_inst_per_ref_s"] = traced.rate()
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json")
    tracer.dump(path, {"workload": wl.name, "seed": args.seed, "env": env,
                       "metrics": metrics})
    info["trace_file"] = os.path.relpath(path, ROOT)
    phases = [p for p in (pool_phase, base, traced) if p is not None]
    return metrics, phases, []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hybridstream", "__init__.py")):
        print(f"hybridstream sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, SRC)
    from hybridstream import experiments, kernels
    if not experiments.__file__.startswith(SRC):
        print(f"imported {experiments.__file__}, not the checkout's", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    wl = WORKLOADS[args.workload](args.seed, tmp)
    env = environment(kernels)
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env}
    try:
        wl.prepare()
        stats_dir = os.path.join(tmp, "worker-stats")
        os.makedirs(stats_dir)
        recorder = Recorder(stats_dir, wl.step_mode, wl.ref_loop)
        instr_patches = Patches()
        recorder.install(instr_patches)
        try:
            if args.trace:
                metrics, phases, ref_files = traced_run(wl, experiments, recorder,
                                                instr_patches, args, tmp, info, env)
                names = spec["per_layer"]
            else:
                metrics, phases, ref_files = untraced_run(wl, experiments, recorder,
                                                  args, tmp, info)
                names = spec["end_to_end"]
        finally:
            instr_patches.undo()
        calls = [c for p in phases for c in p.calls]
        notes = []
        problems = check_outputs(wl, calls, notes)
        for path in ref_files:
            check_file(path, problems, notes)
        failed_units = sum(p.failed_units for p in phases)
        units = sum(len(p.units) for p in phases)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    counts = dict(recorder.counts, units=units, failed_units=failed_units)
    info["operations"] = counts
    info["checks"] = {"passed": not problems, "problems": problems[:20],
                      "format_defects": len(notes), "format_examples": notes[:3]}
    out = {}
    for m in names:
        value = float(metrics[m["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} is {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps(info, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": counts["updates"] + counts["trials"] + units,
        "failed": counts["failed_updates"] + counts["failed_trials"] + failed_units,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
