import hashlib

import numpy as np
import pytest

from hybridstream import baseline
from hybridstream.numerics import make_rng, one_hot


def test_zero_params_uniform_output():
    p = baseline.MlpParams.initialize(4, [3], 5, make_rng(0), weight_std=0.0)
    _, probs, _ = baseline.mlp_forward(p, np.ones((2, 4)))
    assert np.allclose(probs, 0.2, atol=1e-12)


def test_keep_prob_one_train_equals_eval():
    p = baseline.MlpParams.initialize(4, [3, 3], 2, make_rng(1), weight_std=0.5)
    x = make_rng(2).random((3, 4))
    _, train_probs, _ = baseline.mlp_forward(p, x, keep_prob=1.0,
                                             train_mode=True, rng=make_rng(3))
    _, eval_probs, _ = baseline.mlp_forward(p, x, keep_prob=1.0)
    assert np.array_equal(train_probs, eval_probs)


def test_one_unit_chain_hand_case():
    p = baseline.MlpParams.initialize(1, [1], 2, make_rng(0), weight_std=0.0)
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
    p = baseline.MlpParams.initialize(4, [3], 2, make_rng(4), weight_std=0.5)
    before = p.copy()
    x = make_rng(5).random((4, 4))
    baseline.mlp_update(p, x, np.array([0, 1, 0, 1]), x, 0.0, 0.5)
    assert np.array_equal(before.Ws[0], p.Ws[0])


def test_beta_zero_ignores_unlabeled():
    x = make_rng(6).random((4, 4))
    y = np.array([0, 1, 1, 0])
    u = make_rng(7).random((6, 4))
    p1 = baseline.MlpParams.initialize(4, [3], 2, make_rng(8), weight_std=0.5)
    p2 = p1.copy()
    baseline.mlp_update(p1, x, y, u, 0.1, 0.0)
    baseline.mlp_update(p2, x, y, None, 0.1, 0.0)
    assert np.array_equal(p1.Ws[0], p2.Ws[0])


def test_supervised_training_fits_toy_set():
    rng = make_rng(9)
    n = 40
    x = rng.random((n, 4))
    y = (x[:, 0] + x[:, 1] > x[:, 2] + x[:, 3]).astype(int)
    p = baseline.MlpParams.initialize(4, [16], 2, make_rng(10), weight_std=0.3)
    for _ in range(400):
        baseline.mlp_update(p, x, y, None, 0.2, 0.0)
    pred = np.argmax(baseline.mlp_predict(p, x), axis=1)
    assert np.mean(pred != y) < 0.1


def test_log_loss_perfect_prediction():
    y = one_hot(np.array([1]), 2)
    assert baseline.log_loss(np.array([[0.0, 1.0]]), y) == pytest.approx(0.0)


def test_train_mode_dropout_requires_rng():
    p = baseline.MlpParams.initialize(4, [3], 2, make_rng(11))
    with pytest.raises(ValueError):
        baseline.mlp_forward(p, np.ones((1, 4)), keep_prob=0.5, train_mode=True)


def test_update_bits_pinned():
    # sha256 of the parameters after ten steps of a 24-12-12-10 network with
    # drop-out and both batch sides, recorded before the step moved to
    # in-place arithmetic; the same under one and two BLAS threads
    rng = make_rng(24)
    p = baseline.MlpParams.initialize(24, [12, 12], 10, rng, weight_std=0.1)
    for _ in range(10):
        baseline.mlp_update(p, rng.random((6, 24)), rng.integers(0, 10, 6),
                            rng.random((4, 24)), 0.1, 0.3, keep_prob=0.5, rng=rng)
    assert hashlib.sha256(p.data.tobytes()).hexdigest() == \
        "b5353859b876a334c49c1fbddc1437b3260a7ac29f674d0a79271af34444f31e"
