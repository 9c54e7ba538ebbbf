"""Command-line entry points.

Experiments are described by a JSON config file; a handful of common knobs
(seed, iterations, jobs, output directory) can be overridden on the command
line.  Config keys mirror the dictionaries consumed by
:mod:`hybridstream.experiments`.
"""

import json
import sys

import click

from . import checks, experiments


def _load_config(path):
    """The JSON object in the file at `path` ({} when None); a file that is
    not JSON, or whose top level is not an object, is a usage error."""
    if path is None:
        return {}
    with open(path) as f:
        try:
            config = json.load(f)
        except ValueError as e:
            raise click.UsageError(f"config {path} is not JSON: {e}") from e
    if not isinstance(config, dict):
        raise click.UsageError(f"config {path} must hold a JSON object, "
                               f"not a {type(config).__name__}")
    return config


def _run(experiment, measure, config, *args, **kwargs):
    """Echo each model's mean `measure` over experiment(config, ...)'s trials;
    its ValueError or TypeError (a refused config or data) is a usage error."""
    try:
        finals = experiment(config, *args, **kwargs)
    except (ValueError, TypeError) as e:
        raise click.UsageError(str(e)) from e
    for kind, errs in finals.items():
        click.echo(f"{kind}: {measure} {sum(errs) / len(errs):.4f} "
                   f"over {len(errs)} trial(s)")


@click.group()
@click.version_option()
def main():
    """Hybrid semi-supervised models on evolving data streams."""


@main.command("stream-run")
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="JSON experiment config.")
@click.option("--out", "out_dir", required=True, type=click.Path(),
              help="Output directory for curves and summaries.")
@click.option("--seed", type=int, default=None, help="Override the base seed.")
@click.option("--iterations", type=int, default=None,
              help="Override the instance count per trial.")
@click.option("--trials", type=int, default=None, help="Override the trial count.")
@click.option("--stream", "stream_kind", type=click.Choice(["led", "waveform"]),
              default=None, help="Override the stream kind.")
@click.option("--models", default=None,
              help="Comma-separated model kinds (e.g. dhbm-mf,mlp-pl).")
@click.option("--jobs", type=int, default=1, help="Parallel trial processes.")
def stream_run(config_path, out_dir, seed, iterations, trials, stream_kind,
               models, jobs):
    """Prequential test-then-train run on a drifting stream."""
    config = _load_config(config_path)
    config.setdefault("stream", {})
    if not isinstance(config["stream"], dict):
        raise click.UsageError(f"stream must be a JSON object, got "
                               f"{config['stream']!r}")
    if seed is not None:
        config["seed"] = seed
    if iterations is not None:
        config["iterations"] = iterations
    if trials is not None:
        config["trials"] = trials
    if stream_kind is not None:
        config["stream"]["kind"] = stream_kind
    if models is not None:
        config["models"] = models.split(",")
    config.setdefault("architecture",
                      "24-24-24-10" if config["stream"].get("kind", "led") == "led"
                      else "40-40-40-3")
    _run(experiments.run_stream_experiment, "final prequential error", config,
         out_dir, jobs=jobs)


@main.command("mnist-run")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--data-root", default=None,
              help="Directory holding the IDX files (else HYBRIDSTREAM_DATA).")
@click.option("--seed", type=int, default=None)
@click.option("--epochs", type=int, default=None)
def mnist_run(config_path, out_dir, data_root, seed, epochs):
    """Offline semi-supervised digit run from IDX files."""
    config = _load_config(config_path)
    config.setdefault("architecture", "784-256-256-10")
    if data_root is not None:
        config["data_root"] = data_root
    if seed is not None:
        config["seed"] = seed
    if epochs is not None:
        config["epochs"] = epochs
    _run(experiments.run_mnist_experiment, "test error", config, out_dir)


@main.command("oracle-check")
@click.option("--models", "n_models", type=int, default=50)
@click.option("--seed", type=int, default=7)
def oracle_check(n_models, seed):
    """Compare every conditional against brute-force enumeration."""
    worst = checks.oracle_check(n_models=n_models, seed=seed)
    click.echo(f"worst conditional deviation over {n_models} models: {worst:.3e}")
    if worst > 1e-10:
        sys.exit(1)


@main.command("gradcheck")
@click.option("--seed", type=int, default=0)
def gradcheck(seed):
    """Finite-difference checks for every back-propagated gradient."""
    results = checks.run_all_gradchecks(seed=seed)
    failed = False
    for name, worst in results.items():
        status = "ok" if worst < 1e-4 else "FAIL"
        if status == "FAIL":
            failed = True
        click.echo(f"{name}: max relative error {worst:.3e} [{status}]")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
