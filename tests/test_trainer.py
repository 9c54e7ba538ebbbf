import copy
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from hybridstream import (baseline, dhbm, dhda, estimators, experiments,
                          kernels, numerics, recognition, trainer)
from hybridstream.numerics import cut_masks, make_rng, one_hot, row_targets
from hybridstream.trainer import Trainer, TrainerConfig, beta_schedule


def mixed_batch(x_lab, y_lab, x_unlab):
    """One batch of labeled rows, then unlabeled rows (label -1)."""
    return (np.vstack([x_lab, x_unlab]),
            np.concatenate([y_lab, np.full(len(x_unlab), -1)]))


def make_trainer(kind="dhbm-mf", seed=0, **kw):
    model = dhbm.HybridParams.initialize(4, [3, 3], 2, make_rng(seed))
    return Trainer(kind, model, TrainerConfig(**kw), make_rng(seed + 1))


def make_learner(kind, seed=0, **kw):
    """A 4-3-3-2 model of any of experiments.MODEL_KINDS: make_trainer's for
    a hybrid kind, else build_model's."""
    if kind in trainer.KINDS:
        return make_trainer(kind, seed, **kw)
    return experiments.build_model(kind, 4, [3, 3], 2, TrainerConfig(**kw),
                                   make_rng(seed))


# the procedure each hybrid kind trains by names its test cases
PROCEDURES = {"dhbm-mf": "mf-cd", "dhbm-sap": "sap", "dhda": "mf-bp"}
each_kind = pytest.mark.parametrize("kind", trainer.KINDS, ids=PROCEDURES.get)
# the hybrids' cases keep their names, the MLP kinds' are their kinds
each_model_kind = pytest.mark.parametrize(
    "kind", experiments.MODEL_KINDS, ids=lambda kind: PROCEDURES.get(kind, kind))


def test_readme_library_example_runs():
    # README's "Library example" block, run exactly as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example\n", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["probs"].shape == (20, 10)


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
        TrainerConfig(keep_prob=0.0)
    with pytest.raises(ValueError):
        TrainerConfig(lr=-0.1)


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("beta_f", -0.5),
    ("beta_f", float("nan")), ("t1", float("nan")), ("labeled_epoch_size", 0)])
def test_config_rejects_values_that_poison_the_weights(field, value):
    # lr and beta scale the row weights; a NaN t1 makes the annealed
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
    ("beta_f", True), ("t2", float("inf"))])
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
    for kind in trainer.KINDS:
        tr = make_trainer(kind, seed=7)
        before = tr.model.layers[0].W.copy()
        report = tr.update(*mixed_batch(x, y, x[:2]))
        assert report["updated"]
        assert not np.array_equal(before, tr.model.layers[0].W)


def test_sap_trainer_owns_particles():
    tr = make_trainer("dhbm-sap", n_particles=6)
    assert tr.particles is not None
    assert tr.particles.n_particles == 6
    assert make_trainer("dhbm-mf").particles is None
    assert make_trainer("dhda").particles is None


@pytest.mark.parametrize("kind", ["mf-cd", "mlp-pl"])
def test_trainer_refuses_an_unknown_kind(kind):
    # an estimator's name is not a kind, and the MLP kinds have no trainer
    model = dhbm.HybridParams.initialize(4, [3], 2, make_rng(0))
    with pytest.raises(ValueError, match=f"^unknown model kind '{kind}'$"):
        Trainer(kind, model, TrainerConfig(), make_rng(1))


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
    # draw per shape, and the generator ends in the same state.  The masks
    # are float64 views of the one draw, the compare written into it; a keep_prob
    # given as a 0-d operand gives the same masks; and two groups of the
    # shapes in one call, as MF-CD draws them, are the masks of two draws
    for shapes, p in itertools.product(DROPOUT_SHAPES, (0.6, 0.05)):
        for keep_prob, sets in itertools.product((p, numerics.constant(p)),
                                                 (1, 2)):
            rng, want_rng = make_rng(41), make_rng(41)
            cut = cut_masks(rng, [(shapes, keep_prob, False)] * sets)
            assert len(cut) == sets
            masks = [m for group in cut for m in group]
            assert len({id(m.base) for m in masks}) == 1
            assert masks[0].base.size == sum(math.prod(s) for s in shapes) * sets
            for m, shape in zip(masks, shapes * sets, strict=True):
                want = want_rng.random(shape) < p
                assert m.dtype == np.float64 and m.shape == want.shape
                assert np.array_equal(m, want)
            assert rng.random() == want_rng.random()


@pytest.mark.parametrize("kind", ["dhbm-mf", "dhda", "mlp-pl"])
def test_keep_prob_one_update_draws_no_dropout_mask(kind):
    # at keep_prob 1 an update draws no drop-out mask: a dhbm-mf or mlp-pl
    # update leaves the generator where it was, and a dhda update draws its
    # corruption keep-masks alone
    rng = make_rng(7)
    model = experiments.build_model(kind, 4, [3, 3], 2,
                                    TrainerConfig(keep_prob=1.0, num_steps=2),
                                    rng)
    data = make_rng(8)
    x, y = mixed_batch(data.random((4, 4)), np.array([0, 1, 1, 0]),
                       data.random((3, 4)))
    want = copy.deepcopy(rng)
    if kind == "dhda":
        want.random(sum(math.prod(s)
                        for s in dhda.keep_shapes(model.model, len(x), 2)))
    model.predict(x)
    model.update(x, y)
    assert rng.bit_generator.state == want.bit_generator.state


class CountingGenerator:
    """A generator that counts its random() calls and hands every call on."""

    def __init__(self, rng):
        self.rng = rng
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self.rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


# random() calls per update: MF-CD cuts both mask sets from one draw, SAP
# draws one mask set and one block per sweep, the DHDA cuts its mask set, its
# corruption masks and its delta masks from one draw, and the MLP draws its
# drop-out masks
DRAWS_PER_UPDATE = {"dhbm-mf": 1, "dhbm-sap": 2, "dhda": 1, "mlp-pl": 1}


@pytest.mark.parametrize("kind", list(DRAWS_PER_UPDATE))
def test_each_update_draws_its_uniforms_at_once(kind):
    rng = CountingGenerator(make_rng(5))
    model = experiments.build_model(kind, 4, [3, 3], 2,
                                    TrainerConfig(keep_prob=0.5, num_steps=3),
                                    rng)
    data = make_rng(6)
    x, y = mixed_batch(data.random((4, 4)), np.array([0, 1, 1, 0]),
                       data.random((3, 4)))
    for _ in range(3):
        rng.random_calls = 0
        model.predict(x)
        model.update(x, y)
        assert rng.random_calls == DRAWS_PER_UPDATE[kind]


class CountingUfunc:
    """A ufunc that counts its calls."""

    def __init__(self, ufunc):
        self.ufunc, self.calls = ufunc, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.ufunc(*args, **kwargs)


# np.negative calls per update at num_steps 3 on two hidden layers: one per
# class drive (MF-CD's and SAP's mean-field steps, SAP's sweep, the DHDA's
# forward pass) and one per cond_x, a decoder's five-pass sigmoid (MF-CD's
# reconstruction, SAP's sweep, the DHDA's two decoders)
NEGATIONS_PER_UPDATE = {"dhbm-mf": 3 + 1, "dhbm-sap": 4 + 1, "dhda": 1 + 2}


@each_kind
def test_negations_per_update_are_one_per_class_drive(kind, monkeypatch):
    # the hidden conditionals and the recognition layers form their negated
    # pre-activations in the adds they make anyway, so no cond_h and no
    # recognition layer negates: a predict makes no np.negative call, and an
    # update one per class drive (of the bias vector) and one per cond_x
    tr = make_trainer(kind, seed=60, n_particles=4, num_steps=3)
    calls = count_calls(monkeypatch, ((dhbm, "class_drive"), (dhbm, "cond_h"),
                                      (dhbm, "cond_x")))
    negative = CountingUfunc(np.negative)
    monkeypatch.setattr(np, "negative", negative)
    rng = make_rng(61)
    for _ in range(3):
        x, labels = mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                                rng.random((3, 4)))
        negative.calls = 0
        tr.predict(x)
        assert negative.calls == 0
        calls.clear()
        tr.update(x, labels)
        names = [name for name, _ in calls]
        assert names.count("cond_h") >= 2 * names.count("class_drive") > 0
        assert negative.calls == (names.count("class_drive")
                                  + names.count("cond_x"))
        assert negative.calls == NEGATIONS_PER_UPDATE[kind]


@pytest.mark.parametrize("kind", ["dhbm-mf", "dhbm-sap"])
def test_hoisted_input_product_has_the_per_step_bits(kind, monkeypatch):
    # an update forms x W_1' once and hands it to each of its num_steps
    # mean-field steps: the same bits as steps that each form it themselves
    step = dhbm.mean_field_step
    products = []

    def hoisted(params, x, state, clamped_y=None, x_product=None):
        products.append(x_product)
        return step(params, x, state, clamped_y, x_product)

    def per_step(params, x, state, clamped_y=None, x_product=None):
        return step(params, x, state, clamped_y)

    rng = make_rng(71)
    batches = [mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                           rng.random((3, 4))) for _ in range(4)]
    states = []
    for patch in (hoisted, per_step):
        monkeypatch.setattr(dhbm, "mean_field_step", patch)
        tr = make_trainer(kind, seed=70, n_particles=4, num_steps=3)
        for x, labels in batches:
            tr.update(x, labels)
        states.append(learner_state(tr))
    assert len(products) == 12
    assert all(p is products[0] for p in products[:3])
    assert all(p is not None for p in products)
    assert states[0] == states[1]


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


@each_kind
def test_one_pass_per_batch(kind, monkeypatch):
    # a batch of labeled and unlabeled rows takes one recognition pass and
    # one class posterior before mean-field (or the DHDA forward pass), then
    # one per MF-CD mean-field step, one per SAP step but the last (whose
    # posterior nothing reads) and one from the DHDA forward pass; SAP
    # advances its particles one sweep (which draws y from cond_y and x from
    # cond_x once), MF-CD reconstructs the input once, the DHDA decodes each
    # layer's input once through cond_x at that layer, and no update builds
    # a container; a predict of the same batch before the update leaves one
    # recognition pass for the two calls
    tr = make_trainer(kind, seed=50, n_particles=4, num_steps=3)
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
        first = names.index("dhda_forward" if kind == "dhda"
                            else "mean_field_step")
        assert names[:first] == (["cond_y"] if step % 2
                                 else ["recognize", "cond_y"])
        assert names.count("recognize") == (0 if step % 2 else 1)
        decoded = [args[2] if len(args) > 2 else 0
                   for name, args in calls if name == "cond_x"]
        assert decoded == ([0, 1] if kind == "dhda" else [0])
        sweeps = [args[5] for name, args in calls if name == "gibbs_sweeps"]
        assert sweeps == ([1] if kind == "dhbm-sap" else [])
        steps = tr.config.num_steps
        assert names.count("cond_y") == 1 + sum(sweeps) + {
            "dhbm-mf": steps, "dhbm-sap": steps - 1, "dhda": 1}[kind]
        assert "flat_views" not in names


# (each kind's gradient function, position of its row weights)
GRADIENT_CALLS = {"dhbm-mf": ("mf_cd_gradients", 6),
                  "dhbm-sap": ("sap_gradients", 6),
                  "dhda": ("mf_bp_gradients", 5)}


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


@each_kind
def test_step_is_lr_times_the_unit_weight_estimate(kind, monkeypatch):
    # the trainer puts lr into the row weights, negated for the recognition
    # net: each step is lr (-lr) times the gradient function's output at the
    # unscaled weights, and each net moves by exactly its step
    lr, beta = 0.37, 0.3
    tr = make_trainer(kind, seed=80, lr=lr, beta_f=beta, n_particles=4,
                      num_steps=2)
    rng = make_rng(81)
    x, labels = mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                            rng.random((3, 4)))
    lab = labels >= 0
    name, w_at = GRADIENT_CALLS[kind]
    w_unit = np.where(lab, 1.0 / 4, beta / 3)
    model_seen = record_unit_weight_calls(monkeypatch, estimators, name, w_at,
                                          w_unit)
    rec_seen = record_unit_weight_calls(monkeypatch, recognition,
                                        "rec_gradients", 3, w_unit)
    model_before, rec_before = tr.model.data.copy(), tr.rec.data.copy()
    tr.update(x, labels)
    for seen, sign in ((model_seen, 1.0), (rec_seen, -1.0)):
        assert_close(seen["w"], sign * lr * w_unit)
        assert_close(seen["step"], sign * lr * seen["unit"])
    assert np.array_equal(tr.model.data, model_before + model_seen["step"])
    assert np.array_equal(tr.rec.data, rec_before + rec_seen["step"])


@each_kind
def test_model_and_recognition_net_share_one_row_weight_vector(kind,
                                                              monkeypatch):
    # the model's row weights are weighted_rows' weights and the recognition
    # net's are the same weights negated, bit for bit
    seen = {}

    def capture(module, name, w_at):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen[name] = np.array(args[w_at])
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    name, w_at = GRADIENT_CALLS[kind]
    capture(estimators, name, w_at)
    capture(recognition, "rec_gradients", 3)
    rng = make_rng(90)
    x, labels = mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                            rng.random((3, 4)))
    lab = labels >= 0
    tr = make_trainer(kind, seed=91, beta_f=0.3, n_particles=4)
    tr.update(x, labels)
    lr = tr.config.lr
    w = np.where(lab, lr / 4, lr * 0.3 / 3)
    assert np.array_equal(seen["rec_gradients"].view(np.int64),
                          (-w).view(np.int64))
    assert np.array_equal(seen[name].view(np.int64), w.view(np.int64))


def learner_state(model):
    """Bytes of everything an update writes: parameters, particles, rng."""
    parts = [v.tobytes() for v in model.param_vectors()]
    parts.append(repr(model.rng.bit_generator.state).encode())
    particles = getattr(model, "particles", None)
    if particles is not None:
        parts += [a.tobytes() for a in (particles.x, *particles.hs,
                                         particles.y)]
    return parts


@pytest.mark.parametrize("keep_prob", [0.5, 1.0])
@each_model_kind
def test_predict_then_update_matches_update_alone(kind, keep_prob):
    # predict's kept pass (the hybrids' recognition pass, the MLP's class
    # probabilities and first layer) gives the update the same bits as the
    # update's own pass: parameters, particles and rng state agree after
    # every step.  At beta 0 the update keeps only the labeled rows and so
    # makes its own pass over them; the annealed run leaves beta 0 after
    # its second step
    for beta_cfg in ({"beta_f": 0.1}, {"beta_f": 0.0},
                     {"anneal": True, "t1": 1, "t2": 2, "labeled_epoch_size": 8}):
        assert_predict_then_update_matches(kind, keep_prob, beta_cfg)


def assert_predict_then_update_matches(kind, keep_prob, beta_cfg):
    def run(with_predict):
        model = make_learner(kind, seed=60, keep_prob=keep_prob,
                             n_particles=4, num_steps=2, **beta_cfg)
        rng = make_rng(61)
        states = []
        for _ in range(5):
            x, labels = mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                                    rng.random((3, 4)))
            if with_predict:
                model.predict(x)
            model.update(x, labels)
            states.append(learner_state(model))
        return states

    assert run(True) == run(False)


# a mixed batch whose labeled rows, 0-3 of mixed_batch's 7, keep their order
# among unlabeled ones
INTERLEAVED = [4, 0, 1, 5, 2, 6, 3]


@each_model_kind
def test_beta_zero_update_is_the_update_of_the_labeled_rows(kind):
    # at beta 0 the unlabeled rows weigh nothing and leave the batch before
    # any pass or draw: a mixed batch, predicted first or not, leaves the
    # same parameters, particles, generator state, counters and report as
    # its labeled rows alone.  So does an annealed run before t1 (3 epochs
    # of 10 labeled rows; the 16 rows here reach 1.6), whatever its beta_f
    def run(mixed, with_predict, beta_cfg):
        model = make_learner(kind, seed=90, n_particles=4, num_steps=2,
                             **beta_cfg)
        rng = make_rng(91)
        states = []
        for _ in range(4):
            x_lab, y_lab = rng.random((4, 4)), rng.integers(0, 2, 4)
            x, labels = mixed_batch(x_lab, y_lab, rng.random((3, 4)))
            x, labels = (x[INTERLEAVED], labels[INTERLEAVED]) if mixed \
                else (x_lab, y_lab)
            if with_predict:
                model.predict(x)
            report = model.update(x, labels)
            states.append((learner_state(model), model.labeled_seen,
                           model.updates, report))
        return states

    for beta_cfg in ({"beta_f": 0.0},
                     {"anneal": True, "labeled_epoch_size": 10, "beta_f": 0.3}):
        want = run(False, False, beta_cfg)
        assert want[-1][1:] == (16, 4, {"updated": True, "beta": 0.0})
        assert run(True, False, beta_cfg) == want
        assert run(True, True, beta_cfg) == want


@each_model_kind
def test_beta_zero_update_of_unlabeled_rows_changes_nothing(kind, monkeypatch):
    # no row of the batch carries weight: no recognition or forward pass, no
    # drop-out or corruption draw, no sweep, and nothing written but the
    # kept pass of the predict before it, which is dropped
    model = make_learner(kind, seed=93, beta_f=0.0, n_particles=4)
    x = make_rng(94).random((5, 4))
    model.predict(x)
    calls = count_calls(monkeypatch, (
        (recognition, "recognize"), (dhbm, "cond_y"),
        (dhbm, "mean_field_step"), (dhda, "dhda_forward"),
        (kernels, "gibbs_sweeps"), (estimators, "mf_cd_gradients"),
        (estimators, "mf_bp_gradients"), (estimators, "sap_gradients"),
        (recognition, "rec_gradients"), (baseline, "mlp_forward"),
        (baseline, "mlp_gradients")))
    before = learner_state(model)
    assert model.update(x, np.full(5, -1)) == {"updated": False, "beta": None}
    assert calls == []
    assert learner_state(model) == before
    assert (model.labeled_seen, model.updates, model._kept) == (0, 0, None)


def kept_arrays(model):
    """Every array of the pass that `model` keeps from its last predict."""
    return [a for p in model._kept[1]
            for a in (p if isinstance(p, list) else [p])]


@each_model_kind
def test_update_of_another_array_recognizes_afresh(kind, monkeypatch):
    # the kept pass serves only the array object predict was given and an
    # update that keeps every row (mlp-lab's beta 0 leaves out the
    # unlabeled rows): an equal copy, another batch or a batch that loses
    # rows gets its own pass, which the bits of a twin that never predicted
    # show, and the kept pass is dropped after one update whatever it was
    # given.  The kept pass is filled with NaN, so an update that takes it
    # writes a non-finite parameter, and makes no pass of its own: no
    # recognition pass, and no MLP eval pass, which an update makes only
    # for a kept unlabeled row
    passes = count_calls(monkeypatch, ((recognition, "recognize"),
                                       (baseline, "mlp_predict")))
    rng = make_rng(71)
    x, labels = mixed_batch(rng.random((4, 4)), rng.integers(0, 2, 4),
                            rng.random((3, 4)))
    x_lab, y_lab = x[:4], labels[:4]
    other = rng.random(x.shape)
    for predicted, updated, y, taken in (
            (x, x.copy(), labels, False), (x, other, labels, False),
            (x, x, labels, kind != "mlp-lab"), (x_lab, x_lab, y_lab, True)):
        model, twin = (make_learner(kind, seed=70, beta_f=0.3, n_particles=4)
                       for _ in range(2))
        model.predict(predicted)
        for a in kept_arrays(model):
            a.fill(np.nan)
        passes.clear()
        model.update(updated, y)
        own_pass = kind in trainer.KINDS or (kind == "mlp-pl" and (y < 0).any())
        assert len(passes) == (0 if taken else int(own_pass))
        twin.update(updated, y)
        assert model._kept is None
        finite = all(np.isfinite(v).all() for v in model.param_vectors())
        assert finite != taken
        if not taken:
            assert learner_state(model) == learner_state(twin)
            model.update(predicted, y)
            twin.update(predicted, y)
            assert learner_state(model) == learner_state(twin)


@pytest.mark.parametrize("keep_prob", [0.5, 1.0])
def test_predict_scales_a_copy_of_each_layer(keep_prob):
    # every kind predicts the bits of its pass with each hidden layer times
    # keep_prob, and keeps the pass unscaled for the next update: the
    # hybrids cond_y of their recognition statistics, the MLP its eval pass
    # and layer 0's rectified activations
    x = make_rng(46).random((5, 4))
    for kind in experiments.MODEL_KINDS:
        model = make_learner(kind, seed=45, keep_prob=keep_prob)
        if kind in trainer.KINDS:
            v = recognition.recognize(model.rec, x)
            want = dhbm.cond_y(model.model, [s * keep_prob for s in v])
        else:
            p = model.params
            want = baseline.mlp_predict(p, x, keep_prob)
            v = [want, np.maximum(x @ p.Ws[0].T + p.bs[0], 0.0)]
        assert np.array_equal(model.predict(x).view(np.int64),
                              want.view(np.int64))
        kept = kept_arrays(model)
        assert len(kept) == len(v)
        assert all(np.array_equal(a, b) for a, b in zip(kept, v))


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
# one signed pass, again when the sigmoid took its clamped five-pass form,
# and again when the layers' class weights became one block (a new layout
# of model.data, the class terms summed in a new order); the same under one
# and two BLAS threads
PINNED_UPDATE_SHA256 = {
    "dhbm-mf": ("d035638dab53ec8eaec61a0f7ba33ad8ac3489e33873ba80534ce0891ba47ede",
              "7fc83a97e53547433f382c281619e07e55449b8e7533cb7ebbb03f50886e74fd"),
    "dhbm-sap": ("c22e9ed7fc08262cb605dc4d610c81517a6b4c52573cf364b82e2d84680edcc4",
            "b8ff3d6f95b3f502a50956109484cfb382fa99f695185190d3b9009ca6d63b6b"),
    "dhda": ("849bdd2f54916c1ee5a56cbed4a3f641d8c90219110742c5d1ce1ab63adbadef",
              "040e01123efe399583fecca43e7c4ff525910b256ce1b28e6d3953a68fb77262"),
}


# the same run without drop-out (keep_prob 1), where the unmasked statistics
# reach the estimators uncopied
PINNED_UPDATE_KEEP_ALL_SHA256 = {
    "dhbm-mf": ("7190efc8bae0501d3c4c1c98f6d553912b48b5342f74b73508d1501b77e6f2fc",
              "1fa75457cb8013bd4da494bb1ea62329f3351fc3ac75a8348b014139410ca2d4"),
    "dhbm-sap": ("6ed6977eb2d809d0d09ec293f7f481325d633353f48c90b9ab7fae0b9f6e6c05",
            "22a957b65656e75fe8d96881c50cb5b93d27588ce109f59c865de488d8f092f7"),
    "dhda": ("a8dcf750856f7de4366d8e9a2805da7bc676779ec29fb8d947cbbff59007ae95",
              "f8d312c415495e8ddcec14baf045d99cea869006154e257d331295d480221fbe"),
}


def _update_digests(kind, keep_prob):
    model = dhbm.HybridParams.initialize(24, [12, 12], 10, make_rng(21),
                                         weight_std=0.1)
    cfg = TrainerConfig(keep_prob=keep_prob, beta_f=0.3, num_steps=2,
                        n_particles=5)
    tr = Trainer(kind, model, cfg, make_rng(22))
    rng = make_rng(23)
    for _ in range(10):
        tr.update(*mixed_batch(rng.random((6, 24)), rng.integers(0, 10, 6),
                               rng.random((4, 24))))
    return tuple(hashlib.sha256(a.tobytes()).hexdigest()
                 for a in (tr.model.data, tr.rec.data))


@each_kind
def test_update_bits_pinned(kind):
    assert _update_digests(kind, 0.5) == PINNED_UPDATE_SHA256[kind]


@each_kind
def test_update_bits_pinned_keep_all(kind):
    assert _update_digests(kind, 1.0) == PINNED_UPDATE_KEEP_ALL_SHA256[kind]
