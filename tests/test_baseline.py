import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridstream import baseline
from hybridstream.numerics import make_rng, one_hot
from test_trainer import mixed_batch, record_unit_weight_calls


def test_zero_params_uniform_output():
    p = baseline.init_mlp(4, [3], 5, make_rng(0), weight_std=0.0)
    _, probs, _ = baseline.mlp_forward(p, np.ones((2, 4)))
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_keep_prob_one_train_equals_eval():
    p = baseline.init_mlp(4, [3, 3], 2, make_rng(1), weight_std=0.5)
    x = make_rng(2).random((3, 4))
    _, train_probs, _ = baseline.mlp_forward(p, x, keep_prob=1.0,
                                             train_mode=True, rng=make_rng(3))
    _, eval_probs, _ = baseline.mlp_forward(p, x, keep_prob=1.0)
    assert np.array_equal(train_probs, eval_probs)


def test_one_unit_chain_hand_case():
    p = baseline.init_mlp(1, [1], 2, make_rng(0), weight_std=0.0)
    p.Ws[0][0, 0] = 2.0
    p.Ws[1][0, 0] = 1.0
    p.Ws[1][1, 0] = -1.0
    _, probs, _ = baseline.mlp_forward(p, np.array([[1.0]]))
    h = 2.0  # relu(2*1)
    z = np.exp([h, -h])
    assert np.allclose(probs[0], z / z.sum(), atol=1e-12)


def test_gradients_match_finite_differences():
    from hybridstream.checks import gradcheck_mlp
    assert gradcheck_mlp() < 1e-4


def test_update_zero_lr_is_identity():
    p = baseline.init_mlp(4, [3], 2, make_rng(4), weight_std=0.5)
    before = p.data.copy()
    x = make_rng(5).random((4, 4))
    baseline.mlp_update(p, *mixed_batch(x, np.array([0, 1, 0, 1]), x), 0.0, 0.5)
    assert np.array_equal(before, p.data)


def test_beta_zero_ignores_unlabeled():
    # at beta 0 the unlabeled rows are left out before the pass: the same
    # drop-out draws and the same bits as a batch of the labeled rows alone
    x = make_rng(6).random((4, 4))
    y = np.array([0, 1, 1, 0])
    u = make_rng(7).random((6, 4))
    p1 = baseline.init_mlp(4, [3], 2, make_rng(8), weight_std=0.5)
    p2 = p1.zeros_like()
    p2.data[...] = p1.data
    rng1, rng2 = make_rng(9), make_rng(9)
    baseline.mlp_update(p1, *mixed_batch(x, y, u), 0.1, 0.0, 0.5, rng1)
    baseline.mlp_update(p2, x, y, 0.1, 0.0, 0.5, rng2)
    assert np.array_equal(p1.data, p2.data)
    assert rng1.bit_generator.state == rng2.bit_generator.state


def test_supervised_training_fits_toy_set():
    rng = make_rng(9)
    n = 40
    x = rng.random((n, 4))
    y = (x[:, 0] + x[:, 1] > x[:, 2] + x[:, 3]).astype(int)
    p = baseline.init_mlp(4, [16], 2, make_rng(10), weight_std=0.3)
    for _ in range(400):
        baseline.mlp_update(p, x, y, 0.2, 0.0)
    pred = np.argmax(baseline.mlp_predict(p, x), axis=1)
    assert np.mean(pred != y) < 0.1


def weighted_sides(dims, lab, beta, seed):
    """(fused, sides): the gradient of one pass over the batch with weights
    1/n_lab and beta/n_unlab, and the oracle g(labeled rows, 1/n_lab) +
    beta * g(unlabeled rows, 1/n_unlab), both at keep_prob 1."""
    lab = np.asarray(lab)
    n_lab, n_unlab = int(lab.sum()), int((~lab).sum())
    rng = make_rng(seed)
    p = baseline.init_mlp(dims[0], dims[1:-1], dims[-1], rng, weight_std=0.5)
    x = rng.random((len(lab), dims[0]))
    y = one_hot(rng.integers(0, dims[-1], len(lab)), dims[-1])

    def grad(rows, w):
        return baseline.mlp_gradients(p, x[rows], y[rows], w).data

    fused = grad(np.arange(len(lab)), np.where(lab, 1.0 / n_lab, beta / n_unlab))
    sides = grad(lab, np.full(n_lab, 1.0 / n_lab)) \
        + beta * grad(~lab, np.full(n_unlab, 1.0 / n_unlab))
    return fused, sides


def assert_close(fused, sides):
    assert np.abs(fused - sides).max() <= 1e-12 * np.abs(sides).max()


def test_update_steps_along_the_sum_of_sides():
    # one update at keep_prob 1 is a step of lr along g(labeled rows,
    # 1/n_lab) + beta * g(unlabeled rows, 1/n_unlab), the unlabeled rows
    # carrying the argmax of the eval pass as their targets
    rng = make_rng(41)
    p = baseline.init_mlp(6, [5, 4], 3, rng, weight_std=0.5)
    x_lab, x_unlab = rng.random((4, 6)), rng.random((5, 6))
    y_lab = one_hot(rng.integers(0, 3, 4), 3)
    y_unlab = one_hot(np.argmax(baseline.mlp_predict(p, x_unlab), axis=1), 3)
    lr, beta = 0.2, 0.3
    sides = baseline.mlp_gradients(p, x_lab, y_lab, np.full(4, 0.25)).data \
        + beta * baseline.mlp_gradients(p, x_unlab, y_unlab, np.full(5, 0.2)).data
    before = p.data.copy()
    baseline.mlp_update(p, *mixed_batch(x_lab, np.argmax(y_lab, axis=1), x_unlab),
                        lr, beta)
    assert_close((before - p.data) / lr, sides)


def test_update_is_lr_times_the_unit_weight_gradient(monkeypatch):
    # mlp_update puts lr into the row weights: the gradient it takes is lr
    # times the gradient at weights 1/n_lab and beta/n_unlab, under the same
    # drop-out draw, and the step is one subtract of it, to the last bit
    lr, beta = 0.37, 0.3
    rng = make_rng(42)
    p = baseline.init_mlp(6, [5, 4], 3, rng, weight_std=0.5)
    x, labels = mixed_batch(rng.random((4, 6)), rng.integers(0, 3, 4),
                            rng.random((5, 6)))
    w_unit = np.where(labels >= 0, 1.0 / 4, beta / 5)
    seen = record_unit_weight_calls(monkeypatch, baseline, "mlp_gradients", 3,
                                    w_unit)
    before = p.data.copy()
    baseline.mlp_update(p, x, labels, lr, beta, keep_prob=0.5,
                        rng=make_rng(43))
    assert_close(seen["w"], lr * w_unit)
    assert_close(seen["step"].data, lr * seen["unit"])
    assert np.array_equal(p.data, before - seen["step"].data)


def test_weighted_gradient_is_the_weighted_sum_of_sides():
    lab = [True, False, True, True, False, False, True, False, False]
    assert_close(*weighted_sides([6, 5, 4, 3], lab, 0.3, 40))


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 6), hidden=st.lists(st.integers(1, 6), min_size=0,
                                             max_size=3),
       c=st.integers(2, 4),
       lab=st.lists(st.booleans(), min_size=2, max_size=10).filter(
           lambda m: any(m) and not all(m)),
       beta=st.floats(0.05, 2.0), seed=st.integers(0, 1000))
def test_weighted_gradient_sums_the_sides_at_any_shape(d, hidden, c, lab, beta,
                                                       seed):
    assert_close(*weighted_sides([d] + hidden + [c], lab, beta, seed))


def test_log_loss_perfect_prediction():
    y = one_hot(np.array([1]), 2)
    assert baseline.log_loss(np.array([[0.0, 1.0]]), y) == pytest.approx(0.0)


def test_train_mode_dropout_requires_rng():
    p = baseline.init_mlp(4, [3], 2, make_rng(11))
    with pytest.raises(ValueError):
        baseline.mlp_forward(p, np.ones((1, 4)), keep_prob=0.5, train_mode=True)


def test_update_bits_pinned():
    # sha256 of the parameters after ten steps of a 24-12-12-10 network with
    # drop-out and both batch sides, recorded when the learning rate moved
    # into the row weights of the one weighted pass; the same under one and
    # two BLAS threads
    rng = make_rng(24)
    p = baseline.init_mlp(24, [12, 12], 10, rng, weight_std=0.1)
    for _ in range(10):
        baseline.mlp_update(p, *mixed_batch(rng.random((6, 24)),
                                            rng.integers(0, 10, 6),
                                            rng.random((4, 24))),
                            0.1, 0.3, keep_prob=0.5, rng=rng)
    assert hashlib.sha256(p.data.tobytes()).hexdigest() == \
        "67c76f34183806da40ce093b3bb0e9eaf9fad706bf1655efc3260345d57daea4"
