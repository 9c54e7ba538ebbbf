import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridstream import baseline
from hybridstream.numerics import cut_masks, make_rng, one_hot, softmax
from hybridstream.trainer import TrainerConfig
from test_trainer import mixed_batch, record_unit_weight_calls


def mlp_learner(dims, rng, weight_std, **config):
    """An MlpPseudoLabelModel of `dims` whose weights, at `weight_std`, and
    drop-out masks are drawn from `rng`."""
    model = baseline.MlpPseudoLabelModel(dims[0], dims[1:-1], dims[-1],
                                         TrainerConfig(**config), make_rng(0))
    model.params = baseline.init_mlp(dims[0], dims[1:-1], dims[-1], rng,
                                     weight_std=weight_std)
    model.rng = rng
    return model


def test_zero_params_uniform_output():
    p = baseline.init_mlp(4, [3], 5, make_rng(0), weight_std=0.0)
    _, probs = baseline.mlp_forward(p, np.ones((2, 4)), None)
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_keep_prob_one_train_equals_eval():
    # a pass with masks of ones is the unscaled pass that mlp_predict takes
    # (at keep_prob 1 the update draws no mask: test_trainer's
    # test_keep_prob_one_update_draws_no_dropout_mask)
    p = baseline.init_mlp(4, [3, 3], 2, make_rng(1), weight_std=0.5)
    x = make_rng(2).random((3, 4))
    _, train_probs = baseline.mlp_forward(p, x, [np.ones((3, 3))] * 2)
    assert np.array_equal(train_probs, baseline.mlp_predict(p, x, 1.0))


def old_train_pass(params, x, keep_prob, rng):
    """The training pass as written before drop-out moved into one draw: a
    fresh mask per hidden layer, drawn as the layer is computed."""
    hidden, masks, below = [], [], x
    for W, b in zip(params.Ws[:-1], params.bs[:-1]):
        h = np.maximum(below @ W.T + b, 0.0)
        m = (rng.random(h.shape) < keep_prob).astype(np.float64)
        h = h * m
        hidden.append(h)
        masks.append(m)
        below = h
    return hidden, softmax(below @ params.Ws[-1].T + params.bs[-1]), masks


@pytest.mark.parametrize("hidden", [[5], [5, 4], [6, 3, 7]])
def test_masked_pass_equals_the_per_layer_train_pass(hidden):
    # the masks of one split draw reproduce the per-layer draws' pass bit
    # for bit, and leave the generator where they left it
    p = baseline.init_mlp(4, hidden, 3, make_rng(12), weight_std=0.5)
    x = make_rng(13).random((6, 4))
    rng_old, rng_new = make_rng(14), make_rng(14)
    want_hidden, want_probs, want_masks = old_train_pass(p, x, 0.6, rng_old)
    masks, = cut_masks(rng_new, [([(6, h) for h in hidden], 0.6, False)])
    got_hidden, got_probs = baseline.mlp_forward(p, x, masks)
    for got, want in zip([*got_hidden, got_probs, *masks],
                         [*want_hidden, want_probs, *want_masks]):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert rng_old.bit_generator.state == rng_new.bit_generator.state


def old_eval_pass(params, x, keep_prob):
    """The prediction pass as written before: each hidden layer times
    keep_prob below 1, untouched at 1."""
    below = x
    for W, b in zip(params.Ws[:-1], params.bs[:-1]):
        below = np.maximum(below @ W.T + b, 0.0)
        if keep_prob < 1.0:
            below = below * keep_prob
    return softmax(below @ params.Ws[-1].T + params.bs[-1])


@pytest.mark.parametrize("keep_prob", [0.5, 1.0])
def test_predict_scales_every_hidden_layer_by_keep_prob(keep_prob):
    p = baseline.init_mlp(4, [5, 3], 2, make_rng(15), weight_std=0.5)
    x = make_rng(16).random((3, 4))
    assert np.array_equal(baseline.mlp_predict(p, x, keep_prob),
                          old_eval_pass(p, x, keep_prob))



def test_one_unit_chain_hand_case():
    p = baseline.init_mlp(1, [1], 2, make_rng(0), weight_std=0.0)
    p.Ws[0][0, 0] = 2.0
    p.Ws[1][0, 0] = 1.0
    p.Ws[1][1, 0] = -1.0
    _, probs = baseline.mlp_forward(p, np.array([[1.0]]), None)
    h = 2.0  # relu(2*1)
    z = np.exp([h, -h])
    assert np.allclose(probs[0], z / z.sum(), atol=1e-12)


def test_gradients_match_finite_differences():
    from hybridstream.checks import gradcheck_mlp
    assert gradcheck_mlp() < 1e-4


def test_update_zero_lr_is_identity():
    model = mlp_learner([4, 3, 2], make_rng(4), 0.5, lr=0.0, beta_f=0.5,
                        keep_prob=1.0)
    before = model.params.data.copy()
    x = make_rng(5).random((4, 4))
    model.update(*mixed_batch(x, np.array([0, 1, 0, 1]), x))
    assert np.array_equal(before, model.params.data)


def test_beta_zero_ignores_unlabeled():
    # at beta 0 the unlabeled rows are left out before the pass: the same
    # drop-out draws and the same bits as a batch of the labeled rows alone
    x = make_rng(6).random((4, 4))
    y = np.array([0, 1, 1, 0])
    u = make_rng(7).random((6, 4))
    config = dict(lr=0.1, beta_f=0.0, keep_prob=0.5)
    a = mlp_learner([4, 3, 2], make_rng(8), 0.5, **config)
    b = mlp_learner([4, 3, 2], make_rng(8), 0.5, **config)
    a.update(*mixed_batch(x, y, u))
    b.update(x, y)
    assert np.array_equal(a.params.data, b.params.data)
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def test_supervised_training_fits_toy_set():
    rng = make_rng(9)
    n = 40
    x = rng.random((n, 4))
    y = (x[:, 0] + x[:, 1] > x[:, 2] + x[:, 3]).astype(int)
    model = mlp_learner([4, 16, 2], make_rng(10), 0.3, lr=0.2, beta_f=0.0,
                        keep_prob=1.0)
    for _ in range(400):
        model.update(x, y)
    pred = np.argmax(model.predict(x), axis=1)
    assert np.mean(pred != y) < 0.1


def weighted_sides(dims, lab, beta, seed, scale=(1.0, 1.0)):
    """(fused, sides, bound): the gradient of one pass over the batch with
    weights 1/n_lab and beta/n_unlab, each side's times its `scale`; the
    oracle g(labeled rows, 1/n_lab) + beta * g(unlabeled rows, 1/n_unlab),
    both at keep_prob 1; and the entrywise bound on their rounding."""
    lab = np.asarray(lab)
    n_lab, n_unlab = int(lab.sum()), int((~lab).sum())
    rng = make_rng(seed)
    p = baseline.init_mlp(dims[0], dims[1:-1], dims[-1], rng, weight_std=0.5)
    x = rng.random((len(lab), dims[0]))
    y = one_hot(rng.integers(0, dims[-1], len(lab)), dims[-1])

    def grad(rows, w):
        return baseline.mlp_gradients(p, x[rows], y[rows], w,
                                      out=p.zeros_like()).data

    w = np.where(lab, 1.0 / n_lab, beta / n_unlab)
    fused = grad(np.arange(len(lab)), w * np.where(lab, *scale))
    sides = grad(lab, np.full(n_lab, 1.0 / n_lab)) \
        + beta * grad(~lab, np.full(n_unlab, 1.0 / n_unlab))
    return fused, sides, roundings(dims, len(lab)) * EPS \
        * term_magnitudes(p, x, y, w)


EPS = np.finfo(np.float64).eps


def roundings(dims, n_rows):
    """Roundings along one term of the gradient in the two computations
    together, in units of EPS = 2u, u the unit roundoff.  Each computation
    rounds a term at most sum(dims[:-1]) + len(dims) - 1 times in the layer
    sums and bias adds of its forward pass (their errors add up layer by
    layer), dims[-1] + 3 times in the softmax, twice in w * (p - y),
    sum(dims[1:-1]) times in the deltas' sums going back, n_rows times in
    the sum over rows and twice in the beta product and the sides' sum.  A
    sum of k roundings errs by at most gamma_k = k u / (1 - k u) of its
    terms' magnitudes, and the two computations' errors add, so the
    difference of the two is below (k + 1) * EPS of the magnitudes."""
    k = (sum(dims[:-1]) + len(dims) - 1) + (dims[-1] + 3) + 2 \
        + sum(dims[1:-1]) + n_rows + 2
    return k + 1


def term_magnitudes(p, x, y, w):
    """Entrywise bounds on the sum of the magnitudes of the terms of
    mlp_gradients(p, x, y, w) and of their rounding errors.  The forward
    magnitudes a_l = |W_l| a_(l-1) + |b_l|, a_0 = |x|, bound each layer's
    sums; an output delta w (p - y) is bounded by |w| (y + p (1 + 2 a)),
    where a, the row's largest logit magnitude, carries a logit error
    through the softmax, whose derivative is at most 2p; the deltas go back
    through |W| and the gates of the pass."""
    hidden, probs = baseline.mlp_forward(p, x, None)
    a = [np.abs(x)]
    for W, b in zip(p.Ws, p.bs):
        a.append(a[-1] @ np.abs(W).T + np.abs(b))
    m = np.abs(w)[:, None] * (y + probs * (1 + 2 * a[-1].max(axis=1,
                                                            keepdims=True)))
    out = p.zeros_like()
    for l in range(len(p.Ws) - 1, -1, -1):
        out.Ws[l][...] = m.T @ a[l]
        out.bs[l][...] = m.sum(axis=0)
        if l:
            m = (m @ np.abs(p.Ws[l])) * (hidden[l - 1] > 0)
    return out.data


def within_rounding(fused, sides, bound):
    return bool(np.all(np.abs(fused - sides) <= bound))


def assert_close(fused, sides):
    assert np.abs(fused - sides).max() <= 1e-12 * np.abs(sides).max()


def test_update_steps_along_the_sum_of_sides():
    # one update at keep_prob 1 is a step of lr along g(labeled rows,
    # 1/n_lab) + beta * g(unlabeled rows, 1/n_unlab), the unlabeled rows
    # carrying the argmax of the eval pass as their targets
    rng = make_rng(41)
    lr, beta = 0.2, 0.3
    model = mlp_learner([6, 5, 4, 3], rng, 0.5, lr=lr, beta_f=beta,
                        keep_prob=1.0)
    p = model.params
    x_lab, x_unlab = rng.random((4, 6)), rng.random((5, 6))
    y_lab = one_hot(rng.integers(0, 3, 4), 3)
    y_unlab = one_hot(np.argmax(baseline.mlp_predict(p, x_unlab), axis=1), 3)
    sides = baseline.mlp_gradients(p, x_lab, y_lab, np.full(4, 0.25),
                                   out=p.zeros_like()).data \
        + beta * baseline.mlp_gradients(p, x_unlab, y_unlab, np.full(5, 0.2),
                                        out=p.zeros_like()).data
    before = p.data.copy()
    model.update(*mixed_batch(x_lab, np.argmax(y_lab, axis=1), x_unlab))
    assert_close((before - p.data) / lr, sides)


def test_update_is_lr_times_the_unit_weight_gradient(monkeypatch):
    # the update puts -lr into the row weights: the step it adds is -lr
    # times the gradient at weights 1/n_lab and beta/n_unlab, under the same
    # drop-out draw, and the parameters move by exactly that step
    lr, beta = 0.37, 0.3
    rng = make_rng(42)
    model = mlp_learner([6, 5, 4, 3], rng, 0.5, lr=lr, beta_f=beta,
                        keep_prob=0.5)
    model.rng = make_rng(43)
    x, labels = mixed_batch(rng.random((4, 6)), rng.integers(0, 3, 4),
                            rng.random((5, 6)))
    w_unit = np.where(labels >= 0, 1.0 / 4, beta / 5)
    seen = record_unit_weight_calls(monkeypatch, baseline, "mlp_gradients", 3,
                                    w_unit)
    before = model.params.data.copy()
    model.update(x, labels)
    assert_close(seen["w"], -lr * w_unit)
    assert_close(seen["step"], -lr * seen["unit"])
    assert np.array_equal(model.params.data, before + seen["step"])


# (dims, labeled rows, beta, seed): a batch of both sides, and one whose
# sides cancel to 2.5e-6 from terms of order 1 (beta near 1)
SIDE_CASES = (
    ([6, 5, 4, 3], [True, False, True, True, False, False, True, False, False],
     0.3, 40),
    ([6, 6, 5, 3, 4], [False, False, True, True], 0.99999, 377))


def test_weighted_gradient_is_the_weighted_sum_of_sides():
    for case in SIDE_CASES:
        assert within_rounding(*weighted_sides(*case))


@pytest.mark.parametrize("scale", [(2.0, 1.0), (1.0, 2.0)],
                         ids=["labeled", "unlabeled"])
def test_rounding_bound_sees_a_side_of_double_weight(scale):
    # the bound is not so loose that a wrong weight on one side passes
    for case in SIDE_CASES:
        assert not within_rounding(*weighted_sides(*case, scale=scale))


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 6), hidden=st.lists(st.integers(1, 6), min_size=0,
                                             max_size=3),
       c=st.integers(2, 4),
       lab=st.lists(st.booleans(), min_size=2, max_size=10).filter(
           lambda m: any(m) and not all(m)),
       beta=st.floats(0.05, 2.0), seed=st.integers(0, 1000))
@example(d=6, hidden=[6, 5, 3], c=4, lab=[False, False, True, True],
         beta=0.99999, seed=377)
def test_weighted_gradient_sums_the_sides_at_any_shape(d, hidden, c, lab, beta,
                                                       seed):
    assert within_rounding(*weighted_sides([d] + hidden + [c], lab, beta, seed))


def test_log_loss_perfect_prediction():
    y = one_hot(np.array([1]), 2)
    assert baseline.log_loss(np.array([[0.0, 1.0]]), y) == pytest.approx(0.0)


def test_dropout_requires_rng():
    # drop-out asked for without a generator is refused, not skipped
    p = baseline.init_mlp(4, [3], 2, make_rng(11))
    with pytest.raises(ValueError, match="rng"):
        baseline.mlp_gradients(p, np.ones((1, 4)), one_hot([0], 2), np.ones(1),
                               keep_prob=0.5, out=p.zeros_like())


def test_update_bits_pinned():
    # sha256 of the parameters after ten steps of a 24-12-12-10 network with
    # drop-out and both batch sides, recorded when the learning rate moved
    # into the row weights of the one weighted pass; the same under one and
    # two BLAS threads
    rng = make_rng(24)
    model = mlp_learner([24, 12, 12, 10], rng, 0.1, lr=0.1, beta_f=0.3,
                        keep_prob=0.5)
    for _ in range(10):
        model.update(*mixed_batch(rng.random((6, 24)), rng.integers(0, 10, 6),
                                  rng.random((4, 24))))
    assert hashlib.sha256(model.params.data.tobytes()).hexdigest() == \
        "67c76f34183806da40ce093b3bb0e9eaf9fad706bf1655efc3260345d57daea4"
