import hashlib

import numpy as np
import pytest

from hybridstream import dhbm, trainer
from hybridstream.numerics import bernoulli_mask, make_rng
from hybridstream.trainer import Trainer, TrainerConfig, beta_schedule, pseudo_label


def make_trainer(estimator="mf-cd", seed=0, **kw):
    cfg = TrainerConfig(estimator=estimator, **kw)
    model = dhbm.HybridParams.initialize(4, [3, 3], 2, make_rng(seed))
    return Trainer(model, cfg, make_rng(seed + 1))


def test_beta_schedule_endpoints():
    assert beta_schedule(0.0, 3, 300, 0.5) == 0.0
    assert beta_schedule(2.999, 3, 300, 0.5) == 0.0
    assert beta_schedule(300.0, 3, 300, 0.5) == 0.5
    assert beta_schedule(1e9, 3, 300, 0.5) == 0.5
    mid = beta_schedule(151.5, 3, 300, 0.5)
    assert mid == pytest.approx(0.25)


def test_beta_schedule_rejects_inverted_interval():
    with pytest.raises(ValueError):
        beta_schedule(0.0, 10, 5, 0.5)


def test_pseudo_label_argmax_one_hot():
    probs = np.array([[0.2, 0.8], [0.6, 0.4]])
    assert np.array_equal(pseudo_label(probs), [[0, 1], [1, 0]])


def test_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(estimator="nonsense")
    with pytest.raises(ValueError):
        TrainerConfig(keep_prob=0.0)
    with pytest.raises(ValueError):
        TrainerConfig(lr=-0.1)


def test_update_both_empty_is_noop():
    tr = make_trainer()
    before = tr.model.copy()
    report = tr.update(None, None, None)
    assert report == {"updated": False, "beta": None}
    assert np.array_equal(before.layers[0].W, tr.model.layers[0].W)
    assert tr.updates == 0


def test_zero_lr_keeps_parameters():
    tr = make_trainer(lr=0.0, keep_prob=1.0)
    before = tr.model.copy()
    x = make_rng(2).random((5, 4))
    tr.update(x, np.zeros(5, dtype=int))
    assert np.allclose(before.layers[0].W, tr.model.layers[0].W)
    assert np.allclose(before.b_class, tr.model.b_class)


def test_empty_unlabeled_matches_beta_zero():
    x = make_rng(3).random((6, 4))
    y = np.array([0, 1, 0, 1, 0, 1])
    tr_a = make_trainer(seed=5, keep_prob=1.0, beta_f=0.1)
    tr_b = make_trainer(seed=5, keep_prob=1.0, beta_f=0.0)
    tr_a.update(x, y, None)
    tr_b.update(x, y, None)
    assert np.array_equal(tr_a.model.layers[0].W, tr_b.model.layers[0].W)


def test_update_changes_parameters_every_estimator():
    x = make_rng(4).random((5, 4))
    y = np.array([0, 1, 1, 0, 1])
    for est in ("mf-cd", "mf-bp", "sap"):
        tr = make_trainer(est, seed=7)
        before = tr.model.copy()
        report = tr.update(x, y, x[:2])
        assert report["updated"]
        assert not np.array_equal(before.layers[0].W, tr.model.layers[0].W)


def test_sap_trainer_owns_particles():
    tr = make_trainer("sap", n_particles=6)
    assert tr.particles is not None
    assert tr.particles.n_particles == 6
    assert make_trainer("mf-cd").particles is None


def test_labeled_counter_and_annealed_beta():
    tr = make_trainer(anneal=True, t1=1, t2=2, beta_f=0.4,
                      labeled_epoch_size=5, keep_prob=1.0)
    x = make_rng(6).random((5, 4))
    y = np.zeros(5, dtype=int)
    assert tr.current_beta() == 0.0
    tr.update(x, y)
    assert tr.labeled_seen == 5
    assert tr.current_beta() == 0.0  # exactly t1: ramp starts at zero
    tr.update(x, y)
    assert tr.current_beta() == pytest.approx(0.4)


def test_dropout_masks_match_per_layer_draws():
    # one draw cut into masks: the same uniforms, in the same order, as one
    # draw per layer, and the generator ends in the same state
    tr = make_trainer(seed=40, keep_prob=0.6)
    stats = [np.zeros((5, 3)), np.zeros((5, 4)), np.zeros((5, 2))]
    masks = tr._dropout_masks(stats)
    rng = make_rng(41)
    for m, s in zip(masks, stats):
        want = bernoulli_mask(rng, s.shape[0], s.shape[1], 0.6)
        assert m.shape == want.shape and np.array_equal(m, want)
    assert tr.rng.random() == rng.random()


def test_predict_shapes_and_normalization():
    tr = make_trainer()
    probs = tr.predict(make_rng(8).random((7, 4)))
    assert probs.shape == (7, 2)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_seeded_reproducibility():
    def run(seed):
        tr = make_trainer(seed=seed)
        rng = make_rng(99)
        for _ in range(10):
            x = rng.random((4, 4))
            tr.update(x, rng.integers(0, 2, 4), rng.random((3, 4)))
        return tr.predict(np.full((1, 4), 0.5))

    assert np.array_equal(run(11), run(11))


def test_keep_prob_one_has_no_masking_noise():
    # with keep_prob 1 two trainers differing only in rng stream agree
    x = make_rng(10).random((5, 4))
    y = np.array([0, 1, 0, 1, 1])
    tr_a = make_trainer(seed=13, keep_prob=1.0)
    tr_b = make_trainer(seed=13, keep_prob=1.0)
    tr_b.rng = make_rng(555)  # only consumed by drop-out / corruption draws
    tr_a.update(x, y)
    tr_b.update(x, y)
    assert np.array_equal(tr_a.model.layers[0].W, tr_b.model.layers[0].W)


# sha256 of (model.data, rec.data) after ten updates of a 24-12-12-10 model
# with drop-out and both batch sides, recorded before the update path moved
# to in-place arithmetic; the same under one and two BLAS threads
PINNED_UPDATE_SHA256 = {
    "mf-cd": ("da7346fb744b3ca19fe8dc12aee951955a693559c2a334dc74971d17e94a3342",
              "0344c70569d7ee06d0650f5c39fccfdb7121b117cb4c95272d12535c9858d285"),
    "sap": ("ce9156c9b9bd4fb711a1e7cc09bc24f370199cfbfc96cfb77fff1dcfa8c4650f",
            "3b3a42048a896967efe773c40fb9bf2cdb0d3eacd33c0c6443a4be17b89c09e3"),
    "mf-bp": ("44c67ed6c7be2ca6531081d4f71a703fadf12307e2ee1d77095b34ec4fca107d",
              "5ad3d7a76ea2a525794341038aef6b67fd70497313975f9e9b1f372cdf66beb8"),
}


# the same run without drop-out (keep_prob 1), where the unmasked statistics
# reach the estimators uncopied; recorded while the trainer still copied them
PINNED_UPDATE_KEEP_ALL_SHA256 = {
    "mf-cd": ("83d94d8c1f188f493145c368a5f6ca07f13734156d2c81b13d76b38327a6d85c",
              "02b70937581d4879c79afb1d59d76b219c237bbfffbdee2b8186c390a2753633"),
    "sap": ("d54042bdcec50eff39aea44a6bc2abead4b25d4cc662c016cecf15d2ded9dc18",
            "2600ab29fdc36f3f3d5e185d1b844846eb53a0bdd4d5a93af6c119025b5c7a7e"),
    "mf-bp": ("fb81614fb4d1ba1a7a17f078f1a75f0065634365a6b506665dbfb60f420facf2",
              "6d20a7d10975b171c7bf8a08cf8274d874fb36dbe7e30908948628399d75e12b"),
}


def _update_digests(estimator, keep_prob):
    model = dhbm.HybridParams.initialize(24, [12, 12], 10, make_rng(21),
                                         weight_std=0.1)
    cfg = TrainerConfig(estimator=estimator, keep_prob=keep_prob, beta_f=0.3,
                        num_steps=2, n_particles=5)
    tr = Trainer(model, cfg, make_rng(22))
    rng = make_rng(23)
    for _ in range(10):
        tr.update(rng.random((6, 24)), rng.integers(0, 10, 6), rng.random((4, 24)))
    return tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in (tr.model.data, tr.rec.data))


@pytest.mark.parametrize("estimator", sorted(PINNED_UPDATE_SHA256))
def test_update_bits_pinned(estimator):
    assert _update_digests(estimator, 0.5) == PINNED_UPDATE_SHA256[estimator]


@pytest.mark.parametrize("estimator", sorted(PINNED_UPDATE_KEEP_ALL_SHA256))
def test_update_bits_pinned_keep_all(estimator):
    assert _update_digests(estimator, 1.0) == \
        PINNED_UPDATE_KEEP_ALL_SHA256[estimator]
