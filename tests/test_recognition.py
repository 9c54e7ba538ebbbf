import numpy as np

from hybridstream import dhbm, recognition
from hybridstream.numerics import make_rng, sigmoid
from hybridstream.trainer import Trainer, TrainerConfig


def small_net(seed=0, dims=(3, 4, 3)):
    model = dhbm.HybridParams.initialize(dims[0], list(dims[1:]), 2,
                                         make_rng(seed), weight_std=0.5)
    return model, recognition.init_from_model(model)


def test_init_copies_model_weights():
    model, rec = small_net()
    assert rec.dims == [3, 4, 3]
    for lp, W, b in zip(model.layers, rec.Ws, rec.bs):
        assert np.array_equal(lp.W, W)
        assert np.array_equal(lp.b_hidden, b)
    # independent storage after init
    rec.Ws[0][...] += 1.0
    assert not np.array_equal(model.layers[0].W, rec.Ws[0])


def test_recognize_doubling():
    _, rec = small_net()
    x = make_rng(1).random((2, 3))
    v = recognition.recognize(rec, x)
    expect0 = sigmoid(2.0 * (x @ rec.Ws[0].T) + rec.bs[0])
    assert np.allclose(v[0], expect0, atol=1e-12)
    expect1 = sigmoid(expect0 @ rec.Ws[1].T + rec.bs[1])
    assert np.allclose(v[1], expect1, atol=1e-12)


def test_kl_loss_minimized_at_target():
    _, rec = small_net()
    x = make_rng(2).random((3, 3))
    v = recognition.recognize(rec, x)
    at_target = recognition.kl_loss(v, v)
    perturbed = [np.clip(m + 0.1, 0.0, 1.0) for m in v]
    assert recognition.kl_loss(v, perturbed) > at_target - 1e-12


def test_gradients_vanish_at_target():
    _, rec = small_net()
    x = make_rng(3).random((2, 3))
    v = recognition.recognize(rec, x)
    grads = recognition.rec_gradients(rec, x, v, np.full(2, 0.5), v,
                                      out=rec.zeros_like())
    for gW, gb in zip(grads.Ws, grads.bs):
        assert np.allclose(gW, 0.0, atol=1e-12)
        assert np.allclose(gb, 0.0, atol=1e-12)


def test_gradients_match_finite_differences():
    from hybridstream.checks import gradcheck_recognition
    assert gradcheck_recognition() < 1e-4


def test_rec_update_descends_loss():
    # the trainer's recognition step, rec -= lr * gradient, lowers the loss
    _, rec = small_net(5)
    rng = make_rng(6)
    x = rng.random((4, 3))
    mu = [rng.random((4, 4)), rng.random((4, 3))]
    before = recognition.kl_loss(recognition.recognize(rec, x), mu)
    g = rec.zeros_like()
    for _ in range(50):
        recognition.rec_gradients(rec, x, mu, np.full(4, 0.25),
                                  recognition.recognize(rec, x), out=g)
        rec.data -= 0.1 * g.data
    after = recognition.kl_loss(recognition.recognize(rec, x), mu)
    assert after < before


def test_rec_update_handles_missing_sides():
    # a batch of only labeled or only unlabeled rows still takes a
    # recognition-net step
    x = make_rng(8).random((2, 3))
    for labels in (np.array([0, 1]), np.array([-1, -1])):
        model, _ = small_net(7)
        tr = Trainer("dhbm-mf", model, TrainerConfig(beta_f=0.5), make_rng(9))
        before = tr.rec.data.copy()
        tr.update(x, labels)
        assert not np.array_equal(before, tr.rec.data)
