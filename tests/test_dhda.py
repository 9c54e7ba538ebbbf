import numpy as np
import pytest

from hybridstream import dhbm, dhda, recognition
from hybridstream.numerics import cross_entropy, cut_masks, make_rng, sigmoid


def setup_model(seed=0, d=4, hidden=(3, 3), c=2, std=0.5):
    model = dhbm.HybridParams.initialize(d, list(hidden), c, make_rng(seed),
                                         weight_std=std)
    return model, recognition.init_from_model(model)


def corrupted_forward(model, x, hidden, rng, p, num_steps):
    """dhda_forward over `num_steps` cycles whose keep-masks, at corruption
    probability p, are one draw from `rng`."""
    keep, = cut_masks(rng, [(dhda.keep_shapes(model, len(x), num_steps), p,
                             True)])
    return dhda.dhda_forward(model, x, hidden, keep)


def corrupted_input(x, rng, p):
    """The corrupted input of a one-cycle forward pass over `x`."""
    model, rec = setup_model(d=x.shape[1])
    return corrupted_forward(model, x, recognition.recognize(rec, x), rng, p,
                             1).input_hat


def test_corrupt_identity_at_p0():
    v = make_rng(0).random((5, 7))
    assert np.array_equal(corrupted_input(v, make_rng(1), 0.0), v)


def test_corrupt_zeros_at_p1():
    v = make_rng(0).random((5, 7))
    assert np.array_equal(corrupted_input(v, make_rng(1), 1.0),
                          np.zeros_like(v))


def test_corrupt_rejects_bad_probability():
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            corrupted_input(np.ones((1, 3)), make_rng(0), p)


def test_corruption_rate_within_binomial_bounds():
    # an input of ones: the corrupted input is the keep-mask
    mask = corrupted_input(np.ones((1000, 100)), make_rng(2), 0.15)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    surviving = mask.mean()
    assert 0.843 <= surviving <= 0.857


def test_encode_hand_case():
    # 1-unit chain with W1 x = 1 and (W2)' h2 = 1 gives sigma(2)
    model, _ = setup_model(d=1, hidden=(1, 1), std=0.0)
    model.layers[0].W[0, 0] = 1.0
    model.layers[1].W[0, 0] = 1.0
    h1 = dhbm.cond_h(model, 0, dhbm.class_drive(model, None), np.array([[1.0]]),
                     np.array([[1.0]]))
    assert np.allclose(h1, sigmoid(np.array([2.0])), atol=1e-12)
    assert abs(float(h1[0, 0]) - 0.88080) < 1e-4


def test_decode_uses_tied_transpose():
    model, _ = setup_model(3)
    h = make_rng(4).random((2, 3))
    for l in range(model.n_layers):
        z = dhbm.cond_x(model, h, l)
        assert np.allclose(z, sigmoid(h @ model.layers[l].W
                                      + model.layers[l].b_visible), atol=1e-12)


def test_recon_cross_entropy_perfect_reconstruction():
    x = np.array([[1.0, 0.0, 1.0]])
    near = np.clip(x, 1e-9, 1 - 1e-9)
    assert cross_entropy(x, near) < 1e-6


def test_forward_shapes_and_determinism():
    model, rec = setup_model(5)
    x = make_rng(6).random((4, 4))
    q = recognition.recognize(rec, x)
    s1 = corrupted_forward(model, x, q, make_rng(7), 0.15, 1)
    s2 = corrupted_forward(model, x, q, make_rng(7), 0.15, 1)
    assert np.array_equal(s1.input_hat, s2.input_hat)
    assert np.array_equal(s1.recons[0], s2.recons[0])
    assert s1.class_probs.shape == (4, 2)
    assert len(s1.hidden) == 2
    assert s1.recons[0].shape == x.shape


def test_forward_rejects_zero_steps():
    model, rec = setup_model()
    x = np.ones((1, 4))
    with pytest.raises(ValueError):
        corrupted_forward(model, x, recognition.recognize(rec, x),
                          make_rng(0), 0.0, 0)


def test_forward_no_corruption_matches_clean_encoding():
    model, rec = setup_model(8)
    x = make_rng(9).random((3, 4))
    state = corrupted_forward(model, x, recognition.recognize(rec, x),
                              make_rng(10), 0.0, 1)
    assert np.array_equal(state.input_hat, x)
    for h, h_hat in zip(state.hidden, state.hidden_hat):
        assert np.array_equal(h, h_hat)


def test_forward_masks_match_per_mask_draws():
    # every cycle's masks are cut from one draw: the same uniforms, in the
    # same order, as one draw per mask (input, then each layer, per cycle),
    # and the generator ends in the same state; the last cycle's are kept
    model, rec = setup_model(11, d=5, hidden=(4, 3))
    x = make_rng(12).random((6, 5))
    rng = make_rng(13)
    state = corrupted_forward(model, x, recognition.recognize(rec, x), rng,
                              0.3, 3)
    ref = make_rng(13)
    for _ in range(3):
        want = [(ref.random(shape) >= 0.3).astype(np.float64)
                for shape in ((6, 5), (6, 4), (6, 3))]
    assert np.array_equal(state.input_hat, x * want[0])
    for m, w in zip(state.masks, want[1:]):
        assert m.shape == w.shape and np.array_equal(m, w)
    assert rng.random() == ref.random()
