"""Measurement hooks installed by patching hybridstream's module attributes.

Nothing here edits the package: every hook replaces a module or class
attribute for the duration of a run and is undone through :class:`Patches`.

* :class:`Recorder` is always installed.  It times whole entry-point calls
  and takes two timestamps around the public ``predict``/``update`` methods
  of every model that ``experiments.build_model`` returns, and counts
  attempted and failed operations.  In a forked pool worker it hands each trial's figures to the
  parent through a small JSON file.
* :class:`Tracer` is installed only for the traced part of a ``--trace 1``
  run.  It wraps every public function and method of the traced modules,
  keeps spans in memory and computes per-span call counts, median duration
  and self time (span time minus the time its child spans cover).
"""

import dataclasses
import functools
import inspect
import json
import math
import os
import resource
import time
import weakref
from array import array

import numpy as np

HYBRID_KINDS = ("dhbm-mf", "dhbm-sap", "dhda")

# Modules whose public functions get spans; serialize, checks and cli have no
# calls on the benchmark's paths.
TRACED_MODULES = ("numerics", "recognition", "dhbm", "dhda", "estimators",
                  "kernels", "trainer", "baseline", "streams", "evaluation",
                  "datasets", "experiments")

# Units of work per call, for spans whose cost scales with an argument.
WORK = {
    "kernels.gibbs_sweeps": lambda args, kwargs: kwargs.get(
        "n_sweeps", args[5] if len(args) > 5 else 0),
    "evaluation.PrequentialState.update_many": lambda args, kwargs: len(args[1]),
}


def role(kind):
    """Metric group of a model kind: the hybrid models or the MLP baseline."""
    return "hybrid" if kind in HYBRID_KINDS else "mlp"


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _param_arrays(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _param_arrays(item)]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj)
                for a in _param_arrays(getattr(obj, f.name))]
    return []


class _ModelState:
    __slots__ = ("kind", "t_predict", "owners", "arrays")

    def __init__(self, kind):
        self.kind = kind
        self.t_predict = None
        self.owners = None
        self.arrays = None

    def params_finite(self, model):
        # Trainer keeps .model and .rec, the MLP adapter keeps .params
        owners = tuple(getattr(model, n) for n in ("model", "rec", "params")
                       if hasattr(model, n))
        if self.owners is None or any(a is not b for a, b in
                                      zip(owners, self.owners)):
            self.owners = owners
            self.arrays = _param_arrays(list(owners))
        return all(np.isfinite(a).all() for a in self.arrays)


class Recorder:
    """CPU times and failure accounting around hybridstream's public API.

    Every time is process CPU time.  :meth:`call` runs one entry-point call
    and returns its CPU time: the calling process's, less the harness's own
    work in it (reference ticks and parameter checks), plus the net CPU
    time of every trial a pool worker ran for it.  It also returns the
    call's critical path: the calling process's CPU time plus that of the
    busiest pool worker, which is what two CPUs take at least to run it,
    and the host slowdown that the reference ticks measured during the
    call (see :class:`ReferenceLoop`).

    Steps time the public model methods.  ``step_mode`` "predict+update": a
    step runs from the entry of ``predict`` to the return of the next
    ``update`` of the same model (the stream loops).  "update": a step is
    the ``update`` call alone (offline loop).

    An update that raises or leaves a non-finite parameter, and a trial that
    raises, count as failed.
    """

    TICK_EVERY = 10     # updates per reference tick

    def __init__(self, stats_dir, step_mode, ref_loop):
        self.stats_dir = stats_dir
        self.step_mode = step_mode
        self.reference = ReferenceLoop(*ref_loop)
        self._pid = os.getpid()
        self._parent_pid = self._pid
        self._models = weakref.WeakKeyDictionary()
        self.harness_s = 0.0
        self.worker_cpu_s = {}      # pid: net trial CPU seconds
        self.reset()

    def reset(self):
        self.steps = {}
        self.ticks = 0
        self.tick_s = 0.0
        self.counts = {"updates": 0, "failed_updates": 0, "trials": 0,
                       "failed_trials": 0}
        self.worker_maxrss_kb = []

    def install(self, patches):
        from hybridstream import experiments, trainer
        rec = self
        build = experiments.build_model

        def build_model(kind, *args, **kwargs):
            model = build(kind, *args, **kwargs)
            rec._models[model] = _ModelState(kind)
            return model

        patches.set(experiments, "build_model", build_model)
        for cls in (trainer.Trainer, experiments.MlpPseudoLabelModel):
            patches.set(cls, "predict", self._wrap_predict(vars(cls)["predict"]))
            patches.set(cls, "update", self._wrap_update(vars(cls)["update"]))
        for name in ("run_stream_trial", "run_mnist_trial"):
            patches.set(experiments, name,
                        self._wrap_trial(vars(experiments)[name]))

    def call(self, fn, *args, **kwargs):
        """fn's result, its wall seconds, the host slowdown during it, its
        CPU seconds, its critical-path CPU seconds and each model kind's
        step CPU seconds."""
        self.steps = {}
        h0, w0 = self.harness_s, dict(self.worker_cpu_s)
        ticks0, tick_s0 = self.ticks, self.tick_s
        t0, c0 = time.perf_counter(), time.process_time()
        out = fn(*args, **kwargs)
        c1, t1 = time.process_time(), time.perf_counter()
        self.collect_workers()
        if self.ticks == ticks0:
            raise RuntimeError("no reference tick during the call")
        slowdown = ((self.tick_s - tick_s0) / (self.ticks - ticks0)
                    / self.reference.nominal_s)
        own = (c1 - c0) - (self.harness_s - h0)
        workers = [v - w0.get(pid, 0.0) for pid, v in self.worker_cpu_s.items()]
        steps, self.steps = self.steps, {}
        return (out, t1 - t0, slowdown, own + sum(workers),
                own + max(workers, default=0.0), steps)

    def _wrap_predict(self, fn):
        models = self._models
        clock = time.process_time

        @functools.wraps(fn)
        def predict(model, *args, **kwargs):
            t0 = clock()
            out = fn(model, *args, **kwargs)
            state = models.get(model)
            if state is not None:
                state.t_predict = t0
            return out
        return predict

    def _wrap_update(self, fn):
        rec = self
        models = self._models
        clock = time.process_time

        @functools.wraps(fn)
        def update(model, *args, **kwargs):
            counts = rec.counts
            counts["updates"] += 1
            t0 = clock()
            try:
                out = fn(model, *args, **kwargs)
            except Exception:
                counts["failed_updates"] += 1
                raise
            t1 = clock()
            state = models.get(model)
            if state is not None:
                start = state.t_predict if (rec.step_mode == "predict+update"
                                            and state.t_predict is not None) else t0
                state.t_predict = None
                rec.steps.setdefault(state.kind, []).append(t1 - start)
                if not state.params_finite(model):
                    counts["failed_updates"] += 1
            if counts["updates"] % rec.TICK_EVERY == 0:
                rec.tick_s += rec.reference.tick()
                rec.ticks += 1
            rec.harness_s += clock() - t1
            return out
        return update

    def _wrap_trial(self, fn):
        rec = self

        @functools.wraps(fn)
        def run_trial(*args, **kwargs):
            if os.getpid() != rec._pid:
                # first trial in a forked worker: drop the parent's figures
                rec._pid = os.getpid()
                rec.reset()
            rec.counts["trials"] += 1
            c0, h0 = time.process_time(), rec.harness_s
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec.counts["failed_trials"] += 1
                raise
            finally:
                if rec._pid != rec._parent_pid:
                    rec._dump_worker(time.process_time() - c0 - (rec.harness_s - h0))
        return run_trial

    def _dump_worker(self, trial_cpu_s):
        payload = {"steps": self.steps, "ticks": self.ticks, "tick_s": self.tick_s,
                   "counts": self.counts, "pid": os.getpid(),
                   "trial_cpu_s": trial_cpu_s,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        path = os.path.join(self.stats_dir, f"worker-{os.getpid()}-{time.monotonic_ns()}.json")
        with open(path + ".part", "w") as f:
            json.dump(payload, f)
        os.replace(path + ".part", path)
        self.reset()

    def collect_workers(self):
        """Merge the figures pool workers wrote."""
        names = sorted(n for n in os.listdir(self.stats_dir) if n.endswith(".json"))
        for name in names:
            path = os.path.join(self.stats_dir, name)
            with open(path) as f:
                payload = json.load(f)
            os.remove(path)
            for kind, values in payload["steps"].items():
                self.steps.setdefault(kind, []).extend(values)
            self.ticks += payload["ticks"]
            self.tick_s += payload["tick_s"]
            for key, value in payload["counts"].items():
                self.counts[key] += value
            pid = payload["pid"]
            self.worker_cpu_s[pid] = (self.worker_cpu_s.get(pid, 0.0)
                                      + payload["trial_cpu_s"])
            self.worker_maxrss_kb.append(payload["maxrss_kb"])


class ReferenceLoop:
    """A fixed numpy loop, sharing no code with hybridstream, that measures
    the host's current speed on work shaped like a workload's.

    A tick runs `iterations` of a sigmoid layer forward pass and a
    whole-matrix update on a (rows x n_in) batch and an (n_out x n_in)
    matrix.  The recorder runs one tick after every few model updates, in
    the process that runs them, so that the ticks sample the host's speed
    as the work met it: on the shared two-CPU machine the benchmark was
    defined on, that speed varied with a CV of 0.25 between trials half a
    second apart, and a chunk timed before each trial did not follow it.
    The mean tick time over `nominal_s`, a typical tick time there, is the
    slowdown.
    """

    def __init__(self, rows, n_in, n_out, iterations, nominal_s):
        rng = np.random.default_rng(0)
        self.x = rng.random((rows, n_in))
        self.w0 = rng.normal(0.0, 0.1, (n_out, n_in))
        self.iterations = iterations
        self.nominal_s = nominal_s

    def tick(self):
        """CPU seconds of one tick."""
        x, w = self.x, self.w0.copy()
        t0 = time.process_time()
        for _ in range(self.iterations):
            s = 0.5 * (1.0 + np.tanh(0.5 * (x @ w.T)))
            w -= 1e-3 * ((s - 0.5).T @ x) / x.shape[0]
        return time.process_time() - t0


class Tracer:
    """In-memory spans around every public function of the traced modules.

    Aggregates (calls, durations, self time, work units) cover every span;
    full records (id, name, start, end, parent id) are kept for the first
    ``cap`` spans so the dump stays bounded.
    """

    def __init__(self, cap=50_000):
        self.cap = cap
        self.names = []
        self._ids = {}
        self.durations = []
        self.self_ns = []
        self.work = []
        self.records = array("q")
        self.count = 0
        self._stack = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.durations.append(array("q"))
            self.self_ns.append(0)
            self.work.append(0)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        durations = self.durations[nid]
        self_ns = self.self_ns
        work_of = WORK.get(name)
        work = self.work
        records = self.records
        cap = self.cap
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.count
            tracer.count = idx + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                durations.append(d)
                self_ns[nid] += d - frame[0]
                if work_of is not None:
                    work[nid] += work_of(args, kwargs)
                if idx < cap:
                    records.extend((idx, nid, t0, t1, parent))
        return traced

    def install(self, patches):
        import hybridstream
        modules = [getattr(hybridstream, m) for m in TRACED_MODULES]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") and not inspect.isclass(obj):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self.wrap(f"{short}.{name}", obj)
                    # rebind every name the function was imported under
                    for other in modules:
                        for other_name, value in list(vars(other).items()):
                            if value is obj:
                                patches.set(other, other_name, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    # methods of a private base class are named by module only
                    prefix = short if name.startswith("_") else f"{short}.{name}"
                    self._install_class(patches, obj, prefix)

    def _install_class(self, patches, cls, prefix):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value):
                patches.set(cls, attr, self.wrap(f"{prefix}.{attr}", value))
            elif isinstance(value, (classmethod, staticmethod)):
                patches.set(cls, attr, type(value)(
                    self.wrap(f"{prefix}.{attr}", value.__func__)))

    def stats(self, name):
        """calls, us_p50, self_s and total work units of one span name."""
        nid = self._ids.get(name)
        if nid is None or not self.durations[nid]:
            return {"calls": 0, "us_p50": 0.0, "self_s": 0.0, "total_s": 0.0,
                    "work": 0}
        d = np.frombuffer(self.durations[nid], dtype=np.int64)
        return {"calls": int(d.size), "us_p50": float(np.median(d)) / 1e3,
                "self_s": self.self_ns[nid] / 1e9, "total_s": float(d.sum()) / 1e9,
                "work": self.work[nid]}

    def dump(self, path, extra):
        rec = np.frombuffer(self.records, dtype=np.int64).reshape(-1, 5)
        rec = rec[np.argsort(rec[:, 0], kind="stable")]
        t_base = int(rec[:, 2].min()) if len(rec) else 0
        spans = [[int(i), self.names[n], int(s - t_base), int(e - t_base), int(p)]
                 for i, n, s, e, p in rec]
        payload = dict(extra)
        payload["aggregates"] = {n: self.stats(n) for n in self.names}
        payload["spans_total"] = self.count
        payload["spans_kept"] = len(spans)
        payload["span_fields"] = ["id", "name", "start_ns", "end_ns", "parent_id"]
        payload["spans"] = spans
        with open(path, "w") as f:
            json.dump(payload, f, separators=(",", ":"))


def p90_ms(values):
    return float(np.percentile(np.asarray(values) * 1e3, 90)) if values else math.nan
