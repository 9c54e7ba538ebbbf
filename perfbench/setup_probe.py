"""Time one set-up in a fresh interpreter and print it as JSON.

Set-up is importing hybridstream and building every model a workload uses
with ``experiments.build_model``; for the offline workload it also loads
the IDX files and splits them.  numpy is imported before the clock starts.
The time is process CPU time, like every timing of the benchmark.

Right after the set-up the same process times a fixed reference: compiling
and running module-like source and building dataclasses, the interpreter
work an import does, sharing no code with hybridstream.  run.py divides
one by the other, so that set-up time does not follow the host's speed.
Started by run.py with one JSON argument.
"""

import json
import sys
import time

REFERENCE_SOURCE = "".join(
    f"def f{i}(a, b=1):\n    return [a + b * j for j in range(3)]\n"
    f"class C{i}:\n    x = {i}\n    def m(self):\n        return self.x\n"
    for i in range(200))


def reference_s():
    import dataclasses
    t0 = time.process_time()
    for k in range(3):
        exec(compile(REFERENCE_SOURCE, "<reference>", "exec"), {})
        for i in range(15):
            dataclasses.make_dataclass(f"D{k}_{i}", [
                ("a", int), ("b", float, dataclasses.field(default=0.0)),
                ("c", list, dataclasses.field(default_factory=list))])
    return time.process_time() - t0


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import numpy  # noqa: F401  (not part of the timed set-up)

    t0 = time.process_time()
    from hybridstream import experiments
    from hybridstream.numerics import make_rng
    from hybridstream.trainer import TrainerConfig
    n_visible, hidden, n_classes = experiments.parse_architecture(spec["arch"])
    cfg = TrainerConfig(**spec["trainer"])
    for i, kind in enumerate(spec["kinds"]):
        experiments.build_model(kind, n_visible, hidden, n_classes, cfg,
                                make_rng(i + 1))
    if "idx_root" in spec:
        from hybridstream import datasets
        train = datasets.load_idx(*datasets.mnist_paths(spec["idx_root"], "train"))
        datasets.load_idx(*datasets.mnist_paths(spec["idx_root"], "test"))
        n_labeled, n_valid = spec["split"]
        datasets.split_semi_supervised(train, n_labeled, n_valid, make_rng(0))
    elapsed = time.process_time() - t0
    if not experiments.__file__.startswith(spec["src"]):
        raise SystemExit(f"imported {experiments.__file__}, not the checkout's")
    print(json.dumps({"setup_s": elapsed, "reference_s": reference_s()}))


if __name__ == "__main__":
    main()
