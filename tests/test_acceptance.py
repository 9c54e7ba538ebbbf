"""End-to-end acceptance suite.

Each test prints a single pass/fail line for its criterion.  Criterion 7
needs the MNIST-format IDX files on disk (HYBRIDSTREAM_DATA or --data-root
convention) and is skipped, with the reason stated, when they are absent.
"""

import os
import time

import numpy as np
import pytest

from hybridstream import checks, dhbm, dhda, experiments, trainer
from hybridstream.datasets import mnist_paths
from hybridstream.evaluation import PrequentialState, prequential_direct
from hybridstream.numerics import bernoulli_mask, cross_entropy, make_rng
from hybridstream.recognition import recognize
from hybridstream.trainer import beta_schedule


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_exact_oracle_equivalence():
    t0 = time.time()
    worst = checks.oracle_check(n_models=50, seed=7)
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 30
    _report(1, "exact-oracle equivalence", ok,
            f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_gradient_checks():
    t0 = time.time()
    results = checks.run_all_gradchecks(seed=0)
    elapsed = time.time() - t0
    worst = max(results.values())
    ok = worst < 1e-4 and elapsed < 60
    detail = ", ".join(f"{k} {v:.2e}" for k, v in results.items())
    _report(2, "finite-difference gradients", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_3_sap_chain_fidelity():
    t0 = time.time()
    tv = checks.sap_chain_fidelity(seed=23, n_sweeps=100_000, n_particles=10)
    elapsed = time.time() - t0
    ok = tv <= 0.02 and elapsed < 300
    _report(3, "SAP chain fidelity", ok,
            f"total variation {tv:.4f}, {elapsed:.1f}s")


def test_criterion_4_prequential_evaluator():
    rng = make_rng(0)
    ok = True
    detail = []
    for alpha in (0.5, 0.9, 0.995):
        losses = rng.random(1000)
        incr = PrequentialState(alpha).update_many(losses)
        direct = prequential_direct(losses, alpha)
        if abs(incr - direct) >= 1e-12:
            ok = False
            detail.append(f"alpha={alpha} gap {abs(incr - direct):.1e}")
    losses = rng.random(1000)
    # running mean: identical sequential sum/count arithmetic, exact equality
    if PrequentialState(1.0).update_many(losses) != sum(losses) / len(losses):
        ok = False
        detail.append("alpha=1 running-mean mismatch")
    hand = PrequentialState(0.5)
    hand.update_many([1.0])
    if abs(hand.update_many([0.0]) - 1.0 / 3.0) >= 1e-15:
        ok = False
        detail.append("hand case [1,0] != 1/3")
    _report(4, "prequential evaluator", ok, "; ".join(detail))


def test_criterion_5_learning_sanity():
    # MF-CD on a 2-class separable toy set
    rng = make_rng(42)
    n_per = 10
    c0 = rng.random((n_per, 8)) * 0.2
    c0[:, :4] += 0.8
    c1 = rng.random((n_per, 8)) * 0.2
    c1[:, 4:] += 0.8
    x = np.vstack([c0, c1])
    y = np.array([0] * n_per + [1] * n_per)
    cfg = trainer.TrainerConfig(estimator="mf-cd", keep_prob=1.0, beta_f=0.0)
    tr = trainer.Trainer(dhbm.HybridParams.initialize(8, [8, 8], 2, make_rng(1)),
                         cfg, make_rng(2))
    train_err = 1.0
    reached = None
    for step in range(500):
        tr.update(x, y)
        train_err = np.mean(np.argmax(tr.predict(x), axis=1) != y)
        if train_err == 0.0:
            reached = step + 1
            break
    cd_ok = train_err == 0.0

    # DHDA reconstruction cross-entropy halves over 200 updates at lr 0.05
    rng = make_rng(7)
    xb = (rng.random((10, 16)) < 0.5).astype(np.float64)
    yb = rng.integers(0, 2, 10)
    cfg = trainer.TrainerConfig(estimator="mf-bp", lr=0.05, keep_prob=1.0,
                                beta_f=0.1, corruption_p=0.15)
    tr2 = trainer.Trainer(
        dhbm.HybridParams.initialize(16, [32, 32], 2, make_rng(3),
                                     weight_std=0.5), cfg, make_rng(4))

    def recon_ce():
        state = dhda.dhda_forward(tr2.model, xb, recognize(tr2.rec, xb),
                                  make_rng(0), corruption_p=0.0, num_steps=1)
        return cross_entropy(xb, state.recons[0])

    before = recon_ce()
    for _ in range(200):
        tr2.update(xb, yb)
    after = recon_ce()
    drop = 1.0 - after / before
    dhda_ok = drop >= 0.5
    _report(5, "learning sanity", cd_ok and dhda_ok,
            f"MF-CD zero error at update {reached}, "
            f"DHDA recon CE {before:.2f}->{after:.2f} ({drop:.0%} drop)")


def test_criterion_6_stream_directional(tmp_path):
    t0 = time.time()
    wins = {}
    finals = {}
    for kind, arch in (("led", "24-24-24-24-24-10"),
                       ("waveform", "40-40-40-40-40-3")):
        config = {
            "stream": {"kind": kind, "noise_fraction": 0.1 if kind == "led" else 0.0,
                       "label_fraction": 0.1, "batch_size": 20,
                       "drift_attr_count": 4, "drift_interval": 50_000},
            "architecture": arch,
            "iterations": 100_000,
            "models": ["dhbm-mf", "mlp-pl"],
            "trainer": {"lr": 0.051, "beta_f": 0.1, "keep_prob": 0.5,
                        "num_steps": 3},
            "seed": 0,
            "trials": 5,
        }
        out = tmp_path / kind
        finals[kind] = experiments.run_stream_experiment(
            config, str(out), jobs=min(5, os.cpu_count() or 1))
        wins[kind] = sum(d < m for d, m in zip(finals[kind]["dhbm-mf"],
                                               finals[kind]["mlp-pl"]))
    elapsed = time.time() - t0
    ok = all(w >= 4 for w in wins.values()) and elapsed < 7200
    detail = ", ".join(f"{k}: DHBM-MF wins {w}/5" for k, w in wins.items())
    _report(6, "stream directional reproduction", ok,
            f"{detail}, {elapsed / 60:.1f}min")


def test_criterion_7_mnist_desk_scale(tmp_path):
    train_imgs, train_lbls = mnist_paths(None, "train")
    test_imgs, test_lbls = mnist_paths(None, "test")
    missing = [p for p in (train_imgs, train_lbls, test_imgs, test_lbls)
               if not os.path.exists(p)]
    if missing:
        print("ACCEPTANCE 7 (MNIST desk scale): SKIP - IDX files not found "
              f"(looked for {missing[0]}); set HYBRIDSTREAM_DATA to a "
              "directory holding the MNIST IDX files to enable this check")
        pytest.skip("MNIST IDX files unavailable in this environment")
    t0 = time.time()
    config = {
        "architecture": "784-256-256-10",
        "n_labeled": 1000,
        "n_unlabeled": 10_000,
        "n_valid": 1000,
        "epochs": 6,
        "batch_size": 10,
        "models": ["dhbm-mf", "mlp-lab"],
        "trainer": {"keep_prob": 0.5, "anneal": True},
        "seed": 0,
        "trials": 1,
    }
    finals = experiments.run_mnist_experiment(config, str(tmp_path))
    elapsed = time.time() - t0
    dhbm_err = finals["dhbm-mf"][0]
    mlp_err = finals["mlp-lab"][0]
    ok = (mlp_err - dhbm_err) >= 0.02 and elapsed < 3600
    _report(7, "MNIST desk scale", ok,
            f"DHBM {dhbm_err:.3f} vs labeled-only MLP {mlp_err:.3f}, "
            f"{elapsed / 60:.1f}min")


def test_criterion_8_schedule_masking_reproducibility(tmp_path):
    ok = True
    detail = []
    # schedule endpoints, exact
    if beta_schedule(2.9999, 3, 300, 0.7) != 0.0 or \
            beta_schedule(300, 3, 300, 0.7) != 0.7 or \
            beta_schedule(10_000, 3, 300, 0.7) != 0.7:
        ok = False
        detail.append("beta_schedule endpoints wrong")
    # empirical masking rates within 3 sigma at 1e5 samples
    for p in (0.15, 0.5):
        m = bernoulli_mask(make_rng(3), 1000, 100, p)
        bound = 3 * np.sqrt(p * (1 - p) / 100_000)
        if abs(m.mean() - p) >= bound:
            ok = False
            detail.append(f"mask rate off at p={p}")
    # full-pipeline bit-reproducibility: identical CSVs across two runs
    config = {
        "stream": {"kind": "led", "label_fraction": 0.1, "batch_size": 20},
        "architecture": "24-12-12-10",
        "iterations": 2000,
        "curve_every": 500,
        "models": ["dhbm-mf", "dhbm-sap", "dhda", "mlp-pl"],
        "trainer": {"keep_prob": 0.5},
        "seed": 11,
        "trials": 1,
    }
    experiments.run_stream_experiment(config, str(tmp_path / "a"))
    experiments.run_stream_experiment(config, str(tmp_path / "b"))
    for name in ("curves_trial0.csv", "summary.csv"):
        if (tmp_path / "a" / name).read_bytes() != \
                (tmp_path / "b" / name).read_bytes():
            ok = False
            detail.append(f"{name} differs between identical runs")
    _report(8, "schedules, masking, reproducibility", ok, "; ".join(detail))
