import copy
import hashlib
import itertools

import numpy as np
import pytest

from hybridstream import (dhbm, dhda, estimators, kernels, numerics,
                          recognition, trainer)
from hybridstream.numerics import (bernoulli_mask, dropout_masks, make_rng,
                                  one_hot, row_targets)
from hybridstream.trainer import Trainer, TrainerConfig, beta_schedule


def mixed_batch(x_lab, y_lab, x_unlab):
    """One batch of labeled rows, then unlabeled rows (label -1)."""
    return (np.vstack([x_lab, x_unlab]),
            np.concatenate([y_lab, np.full(len(x_unlab), -1)]))


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
    # an unlabeled row (label -1) trains toward the argmax of its class
    # probabilities, a tie going to the lowest class, and a labeled row
    # toward its label; a batch of labeled rows needs no probabilities
    probs = np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5], [0.9, 0.1]])
    labels = np.array([-1, -1, -1, 1])
    targets = row_targets(labels, labels >= 0, probs)
    assert np.array_equal(one_hot(targets, 2), [[0, 1], [1, 0], [1, 0], [0, 1]])
    assert np.array_equal(row_targets(labels[3:], labels[3:] >= 0, None), [1])


def test_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(estimator="nonsense")
    with pytest.raises(ValueError):
        TrainerConfig(keep_prob=0.0)
    with pytest.raises(ValueError):
        TrainerConfig(lr=-0.1)


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("alpha", -1.0),
    ("alpha", float("nan")), ("beta_f", -0.5), ("beta_f", float("nan")),
    ("t1", float("nan")), ("labeled_epoch_size", 0)])
def test_config_rejects_values_that_poison_the_weights(field, value):
    # lr, alpha and beta scale the row weights; a NaN t1 makes the annealed
    # beta NaN, and an epoch size of 0 divides by zero at the first update
    with pytest.raises(ValueError, match=field):
        TrainerConfig(anneal=True, **{field: value})


@pytest.mark.parametrize("num_steps", [0, -1])
def test_config_rejects_num_steps_below_one(num_steps):
    with pytest.raises(ValueError, match="num_steps"):
        TrainerConfig(num_steps=num_steps)


@pytest.mark.parametrize("field, value", [
    ("num_steps", 1.5), ("num_steps", 2.0), ("num_steps", True),
    ("num_steps", "2"), ("n_particles", 4.0), ("n_particles", True),
    ("labeled_epoch_size", 10.5), ("labeled_epoch_size", False),
    ("anneal", "no"), ("anneal", 1), ("anneal", None)])
def test_config_requires_integer_counts_and_a_bool_anneal(field, value):
    # a float count would reach range() or an array shape later, and any
    # non-empty string, "no" included, would switch annealing on
    with pytest.raises(ValueError, match=field):
        TrainerConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("lr", "fast"), ("t1", None), ("keep_prob", "0.5"), ("corruption_p", "x"),
    ("alpha", True), ("t2", float("inf"))])
def test_config_requires_finite_real_numbers(field, value):
    # a string or None would fail with a TypeError that names no field, and
    # a bool or an infinite t2 would be taken as a number
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TrainerConfig(**{field: value})


def test_config_takes_numpy_integers():
    cfg = TrainerConfig(num_steps=np.int64(2), n_particles=np.int32(3),
                        labeled_epoch_size=np.uint16(7))
    assert (cfg.num_steps, cfg.n_particles, cfg.labeled_epoch_size) == (2, 3, 7)


@pytest.mark.parametrize("corruption_p", [-0.01, 1.01])
def test_config_rejects_corruption_p_outside_unit_interval(corruption_p):
    with pytest.raises(ValueError, match="corruption_p"):
        TrainerConfig(corruption_p=corruption_p)


@pytest.mark.parametrize("n_particles", [0, -3])
def test_config_rejects_n_particles_below_one(n_particles):
    with pytest.raises(ValueError, match="n_particles"):
        TrainerConfig(n_particles=n_particles)


def test_update_both_empty_is_noop():
    tr = make_trainer()
    before = tr.model.data.copy()
    report = tr.update(np.empty((0, 4)), np.empty(0, dtype=int))
    assert report == {"updated": False, "beta": None}
    assert np.array_equal(before, tr.model.data)
    assert tr.updates == 0


def test_zero_lr_keeps_parameters():
    tr = make_trainer(lr=0.0, keep_prob=1.0)
    before = tr.model.data.copy()
    x = make_rng(2).random((5, 4))
    tr.update(x, np.zeros(5, dtype=int))
    assert np.allclose(before, tr.model.data)


def test_empty_unlabeled_matches_beta_zero():
    x = make_rng(3).random((6, 4))
    y = np.array([0, 1, 0, 1, 0, 1])
    tr_a = make_trainer(seed=5, keep_prob=1.0, beta_f=0.1)
    tr_b = make_trainer(seed=5, keep_prob=1.0, beta_f=0.0)
    tr_a.update(x, y)
    tr_b.update(x, y)
    assert np.array_equal(tr_a.model.layers[0].W, tr_b.model.layers[0].W)


def test_update_changes_parameters_every_estimator():
    x = make_rng(4).random((5, 4))
    y = np.array([0, 1, 1, 0, 1])
    for est in ("mf-cd", "mf-bp", "sap"):
        tr = make_trainer(est, seed=7)
        before = tr.model.layers[0].W.copy()
        report = tr.update(*mixed_batch(x, y, x[:2]))
        assert report["updated"]
        assert not np.array_equal(before, tr.model.layers[0].W)


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


DROPOUT_SHAPES = ([(5, 3), (5, 4), (5, 2)], [(1, 7)], [(4, 1), (4, 6)])


def test_dropout_masks_match_per_layer_draws():
    # one draw cut into masks: the same uniforms, in the same order, as one
    # draw per shape, and the generator ends in the same state
    for shapes, keep_prob in itertools.product(DROPOUT_SHAPES, (0.6, 0.05)):
        rng, want_rng = make_rng(41), make_rng(41)
        masks = dropout_masks(rng, shapes, keep_prob)
        for m, shape in zip(masks, shapes, strict=True):
            want = bernoulli_mask(want_rng, *shape, keep_prob)
            assert m.shape == want.shape and np.array_equal(m, want)
        assert rng.random() == want_rng.random()


def count_calls(monkeypatch, targets):
    """Record (name, args) of every call to the given module functions."""
    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for module, name in targets:
        counting(module, name)
    return calls


@pytest.mark.parametrize("estimator", trainer.ESTIMATORS)
def test_one_pass_per_batch(estimator, monkeypatch):
    # a batch of labeled and unlabeled rows takes one recognition pass and
    # one class posterior before mean-field (or the DHDA forward pass), then
    # one per MF-CD mean-field step, one per SAP step but the last (whose
    # posterior nothing reads) and one from the DHDA forward pass; SAP
    # advances its particles one sweep (which draws y from cond_y and x from
    # cond_x once), MF-CD reconstructs the input once, the DHDA decodes each
    # layer's input once through cond_x at that layer, and no update builds
    # a container; a predict of the same batch before the update leaves one
    # recognition pass for the two calls
    tr = make_trainer(estimator, seed=50, n_particles=4, num_steps=3)
    calls = count_calls(monkeypatch, (
        (recognition, "recognize"), (dhbm, "cond_y"), (dhbm, "cond_x"),
        (dhbm, "mean_field_step"), (dhda, "dhda_forward"),
        (kernels, "gibbs_sweeps"), (numerics, "flat_views"),
        (dhbm, "flat_views")))
    rng = make_rng(51)
    for step in range(6):
        x, labels = mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                                rng.random((3, 4)))
        calls.clear()
        if step % 2:
            tr.predict(x)
            assert [name for name, _ in calls] == ["recognize", "cond_y"]
            calls.clear()
        tr.update(x, labels)
        names = [name for name, _ in calls]
        first = names.index("dhda_forward" if estimator == "mf-bp"
                            else "mean_field_step")
        assert names[:first] == (["cond_y"] if step % 2
                                 else ["recognize", "cond_y"])
        assert names.count("recognize") == (0 if step % 2 else 1)
        decoded = [args[2] if len(args) > 2 else 0
                   for name, args in calls if name == "cond_x"]
        assert decoded == ([0, 1] if estimator == "mf-bp" else [0])
        sweeps = [args[5] for name, args in calls if name == "gibbs_sweeps"]
        assert sweeps == ([1] if estimator == "sap" else [])
        steps = tr.config.num_steps
        assert names.count("cond_y") == 1 + sum(sweeps) + {
            "mf-cd": steps, "sap": steps - 1, "mf-bp": 1}[estimator]
        assert "flat_views" not in names


# (estimator function, position of its row weights)
ESTIMATOR_CALLS = {"mf-cd": ("mf_cd_gradients", 6), "sap": ("sap_gradients", 6),
                   "mf-bp": ("mf_bp_gradients", 5)}


def record_unit_weight_calls(monkeypatch, module, name, w_at, unit_w):
    """Wrap module.name so each call first runs twice into fresh zero
    containers, on deep copies of its arguments (parameters, particles and
    generators included): once as given, the fresh-container step, and once
    with its row weights replaced by `unit_w`.  Then the call itself adds
    into its `out`, which must end bit for bit the parameters before it
    plus that step.  Records the weights it was given, the step and the
    unit-weight result."""
    fn = getattr(module, name)
    seen = {}

    def fresh(args, kwargs, w=None):
        args = copy.deepcopy(list(args))
        if w is not None:
            args[w_at] = w
        copied = {k: copy.deepcopy(v) for k, v in kwargs.items() if k != "out"}
        return fn(*args, out=kwargs["out"].zeros_like(), **copied).data

    def wrapped(*args, **kwargs):
        seen["unit"] = fresh(args, kwargs, unit_w)
        seen["step"] = fresh(args, kwargs)
        seen["w"] = np.array(args[w_at])
        before = kwargs["out"].data.copy()
        result = fn(*args, **kwargs)
        assert result is kwargs["out"]
        assert np.array_equal(result.data.view(np.int64),
                              (before + seen["step"]).view(np.int64))
        return result

    monkeypatch.setattr(module, name, wrapped)
    return seen


def assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("estimator", trainer.ESTIMATORS)
def test_step_is_lr_times_the_unit_weight_estimate(estimator, monkeypatch):
    # the trainer puts lr into the row weights, negated for the recognition
    # net: each step is lr (-lr) times the gradient function's output at the
    # unscaled weights, and each net moves by exactly its step
    lr, alpha, beta = 0.37, 0.8, 0.3
    tr = make_trainer(estimator, seed=80, lr=lr, alpha=alpha, beta_f=beta,
                      n_particles=4, num_steps=2)
    rng = make_rng(81)
    x, labels = mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                            rng.random((3, 4)))
    lab = labels >= 0
    name, w_at = ESTIMATOR_CALLS[estimator]
    w_unit = np.where(lab, alpha / 4, beta / 3)
    w_rec_unit = np.where(lab, 1.0 / 4, beta / 3)
    model_seen = record_unit_weight_calls(monkeypatch, estimators, name, w_at,
                                          w_unit)
    rec_seen = record_unit_weight_calls(monkeypatch, recognition,
                                        "rec_gradients", 3, w_rec_unit)
    model_before, rec_before = tr.model.data.copy(), tr.rec.data.copy()
    tr.update(x, labels)
    for seen, unit_w, sign in ((model_seen, w_unit, 1.0),
                               (rec_seen, w_rec_unit, -1.0)):
        assert_close(seen["w"], sign * lr * unit_w)
        assert_close(seen["step"], sign * lr * seen["unit"])
    assert np.array_equal(tr.model.data, model_before + model_seen["step"])
    assert np.array_equal(tr.rec.data, rec_before + rec_seen["step"])


def trainer_state(tr):
    """Bytes of everything an update writes: parameters, particles, rng."""
    parts = [tr.model.data.tobytes(), tr.rec.data.tobytes(),
             repr(tr.rng.bit_generator.state).encode()]
    if tr.particles is not None:
        parts += [a.tobytes() for a in (tr.particles.x, *tr.particles.hs,
                                         tr.particles.y)]
    return parts


@pytest.mark.parametrize("keep_prob", [0.5, 1.0])
@pytest.mark.parametrize("estimator", trainer.ESTIMATORS)
def test_predict_then_update_matches_update_alone(estimator, keep_prob):
    # predict's kept recognition pass gives the update the same bits as the
    # update's own pass: parameters, particles and rng state agree after
    # every step.  At beta 0 the update keeps only the labeled rows and so
    # makes its own pass over them; the annealed run leaves beta 0 after
    # its second step
    for beta_cfg in ({"beta_f": 0.1}, {"beta_f": 0.0},
                     {"anneal": True, "t1": 1, "t2": 2, "labeled_epoch_size": 8}):
        assert_predict_then_update_matches(estimator, keep_prob, beta_cfg)


def assert_predict_then_update_matches(estimator, keep_prob, beta_cfg):
    def run(with_predict):
        tr = make_trainer(estimator, seed=60, keep_prob=keep_prob,
                          n_particles=4, num_steps=2, **beta_cfg)
        rng = make_rng(61)
        states = []
        for _ in range(5):
            x, labels = mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                                    rng.random((3, 4)))
            if with_predict:
                tr.predict(x)
            tr.update(x, labels)
            states.append(trainer_state(tr))
        return states

    assert run(True) == run(False)


# a mixed batch whose labeled rows, 0-3 of mixed_batch's 7, keep their order
# among unlabeled ones
INTERLEAVED = [4, 0, 1, 5, 2, 6, 3]


@pytest.mark.parametrize("estimator", trainer.ESTIMATORS)
def test_beta_zero_update_is_the_update_of_the_labeled_rows(estimator):
    # at beta 0 the unlabeled rows weigh nothing and leave the batch before
    # any pass or draw: a mixed batch, predicted first or not, leaves the
    # same parameters, particles, generator state, counters and report as
    # its labeled rows alone
    def run(mixed, with_predict):
        tr = make_trainer(estimator, seed=90, beta_f=0.0, n_particles=4,
                          num_steps=2)
        rng = make_rng(91)
        states = []
        for _ in range(4):
            x_lab, y_lab = rng.random((4, 4)), rng.integers(0, 2, 4)
            x, labels = mixed_batch(x_lab, y_lab, rng.random((3, 4)))
            x, labels = (x[INTERLEAVED], labels[INTERLEAVED]) if mixed \
                else (x_lab, y_lab)
            if with_predict:
                tr.predict(x)
            report = tr.update(x, labels)
            states.append((trainer_state(tr), tr.labeled_seen, tr.updates,
                           report))
        return states

    want = run(False, False)
    assert want[-1][1:] == (16, 4, {"updated": True, "beta": 0.0})
    assert run(True, False) == want
    assert run(True, True) == want


@pytest.mark.parametrize("estimator", trainer.ESTIMATORS)
def test_beta_zero_update_of_unlabeled_rows_changes_nothing(estimator,
                                                            monkeypatch):
    # no row of the batch carries weight: no recognition pass, no drop-out
    # or corruption draw, no sweep, and nothing written but the kept pass of
    # the predict before it, which is dropped
    tr = make_trainer(estimator, seed=93, beta_f=0.0, n_particles=4)
    x = make_rng(94).random((5, 4))
    tr.predict(x)
    calls = count_calls(monkeypatch, (
        (recognition, "recognize"), (dhbm, "cond_y"),
        (dhbm, "mean_field_step"), (dhda, "dhda_forward"),
        (kernels, "gibbs_sweeps"), (estimators, "mf_cd_gradients"),
        (estimators, "mf_bp_gradients"), (estimators, "sap_gradients"),
        (recognition, "rec_gradients")))
    before = trainer_state(tr)
    assert tr.update(x, np.full(5, -1)) == {"updated": False, "beta": None}
    assert calls == []
    assert trainer_state(tr) == before
    assert (tr.labeled_seen, tr.updates, tr._recognized) == (0, 0, None)


@pytest.mark.parametrize("estimator", trainer.ESTIMATORS)
def test_update_of_another_array_recognizes_afresh(estimator, monkeypatch):
    # the kept pass serves only the array object predict was given: an equal
    # copy, or another batch, takes its own recognition pass, and the pass is
    # dropped after one update whatever it was given
    tr = make_trainer(estimator, seed=70, n_particles=4)
    calls = count_calls(monkeypatch, ((recognition, "recognize"),))
    rng = make_rng(71)
    x, labels = mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                            rng.random((3, 4)))
    other = rng.random(x.shape)
    for predicted, updated, fresh in ((x, x.copy(), 1), (x, other, 1),
                                      (x, x, 0)):
        tr.predict(predicted)
        calls.clear()
        tr.update(updated, labels)
        assert len(calls) == fresh
        calls.clear()
        tr.update(x, labels)
        assert len(calls) == 1


@pytest.mark.parametrize("keep_prob", [0.5, 1.0])
def test_predict_scales_a_copy_of_each_layer(keep_prob):
    # the same bits as cond_y of every recognition statistic times keep_prob,
    # and the kept pass stays unscaled
    tr = make_trainer(seed=45, keep_prob=keep_prob)
    x = make_rng(46).random((5, 4))
    v = recognition.recognize(tr.rec, x)
    want = dhbm.cond_y(tr.model, [s * keep_prob for s in v])
    assert np.array_equal(tr.predict(x).view(np.int64), want.view(np.int64))
    assert all(np.array_equal(a, b) for a, b in zip(tr._recognized[1], v))


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
            tr.update(*mixed_batch(x, rng.integers(0, 2, 4), rng.random((3, 4))))
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
# with drop-out and batches of labeled and unlabeled rows, recorded when the
# learning rate moved into the row weights and the contrastive phases into
# one signed pass; the same under one and two BLAS threads
PINNED_UPDATE_SHA256 = {
    "mf-cd": ("60421b57d2cc60396ec9b1e850037de88dae3f55a5b7005be9fa9d4204bfcbb8",
              "dd352321343b792b6127ba9fe5ce3f9472ff2fdfa9aee8524b22f49b3f8d61ff"),
    "sap": ("7cebcbf3824819ce4f6df56c71d3a5a80e7871b89a06558e9b435fb49b94c60e",
            "7fb030718f2db728c199d935e69c368179243e508a9470f944b69071d9ca63b5"),
    "mf-bp": ("6c0b41eef9691ac6e84ea9ff90c9140be3c2b362bac008393d6a3c416e3310f4",
              "9d0a1f8d0084f173e546034514fafc5fe32a18f206b858d0dfde52397fdd80de"),
}


# the same run without drop-out (keep_prob 1), where the unmasked statistics
# reach the estimators uncopied
PINNED_UPDATE_KEEP_ALL_SHA256 = {
    "mf-cd": ("3a738497ddc47e05bd729d25d04e793e6848f5651dce458cbe058db08a05c2c3",
              "5b7f9a15ccb260b1b71b7dec7dc03ce3c7356b2522014b84b74b477e9480d053"),
    "sap": ("7841ab03601dca60581d890368a30f6ae0912169cb8bef6ff8671320c09e5766",
            "0eb6bae41905eec8913408c4722e8f6f0a69ff6305214dbf04446d1554c34a37"),
    "mf-bp": ("50b1301dc944bc622d3bf2dff15cc90a74af49f5da86b01a40bb05c545b1da8a",
              "b7ed4a2d77dd6be9190783de1498b2be6715877e2261354e1181feba5f96ec57"),
}


def _update_digests(estimator, keep_prob):
    model = dhbm.HybridParams.initialize(24, [12, 12], 10, make_rng(21),
                                         weight_std=0.1)
    cfg = TrainerConfig(estimator=estimator, keep_prob=keep_prob, beta_f=0.3,
                        num_steps=2, n_particles=5)
    tr = Trainer(model, cfg, make_rng(22))
    rng = make_rng(23)
    for _ in range(10):
        tr.update(*mixed_batch(rng.random((6, 24)), rng.integers(0, 10, 6),
                               rng.random((4, 24))))
    return tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in (tr.model.data, tr.rec.data))


@pytest.mark.parametrize("estimator", sorted(PINNED_UPDATE_SHA256))
def test_update_bits_pinned(estimator):
    assert _update_digests(estimator, 0.5) == PINNED_UPDATE_SHA256[estimator]


@pytest.mark.parametrize("estimator", sorted(PINNED_UPDATE_KEEP_ALL_SHA256))
def test_update_bits_pinned_keep_all(estimator):
    assert _update_digests(estimator, 1.0) == \
        PINNED_UPDATE_KEEP_ALL_SHA256[estimator]
