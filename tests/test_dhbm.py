import dataclasses

import numpy as np
import pytest

from hybridstream import dhbm
from hybridstream.baseline import init_mlp
from hybridstream.numerics import make_rng, one_hot
from hybridstream.recognition import init_from_model, recognize


def tiny_model(seed=0, d=3, hidden=(2, 2), c=2, scale=1.0):
    rng = make_rng(seed)
    params = dhbm.HybridParams.initialize(d, list(hidden), c, rng)
    for lp in params.layers:
        lp.W[...] = rng.uniform(-scale, scale, lp.W.shape)
        lp.U[...] = rng.uniform(-scale, scale, lp.U.shape)
        lp.b_hidden[...] = rng.uniform(-scale, scale, lp.b_hidden.shape)
    params.layers[0].b_visible[...] = rng.uniform(-scale, scale, d)
    params.b_class[...] = rng.uniform(-scale, scale, c)
    return params


def zero_model(d=3, hidden=(2, 2), c=2):
    return dhbm.HybridParams.initialize(d, list(hidden), c, make_rng(0),
                                        weight_std=0.0)


def bottom_up_state(params, x):
    """Mean-field start from the recognition pass of a fresh network."""
    means = recognize(init_from_model(params), x)
    return dhbm.MeanFieldState(means, dhbm.cond_y(params, means))


def test_zero_params_conditionals_are_uniform():
    params = zero_model()
    x = np.ones(3)
    h1 = np.ones(2)
    h2 = np.zeros(2)
    ey = one_hot(0, 2)
    assert np.allclose(dhbm.cond_h(params, 0, ey, x, h2), 0.5)
    assert np.allclose(dhbm.cond_h(params, 1, ey, h1), 0.5)
    assert np.allclose(dhbm.cond_x(params, h1), 0.5)
    assert np.allclose(dhbm.cond_y(params, [h1, h2]), 0.5)


def test_zero_params_energy_zero():
    params = zero_model()
    assert dhbm.energy(params, 1, np.ones(3), [np.ones(2), np.ones(2)]) == 0.0


def test_energy_single_coupling():
    # one visible, one hidden unit per layer, only W1 nonzero
    params = zero_model(d=1, hidden=(1, 1), c=2)
    params.layers[0].W[0, 0] = 2.0
    e = dhbm.energy(params, 0, [1.0], [[1.0], [0.0]])
    assert e == -2.0


def test_conditionals_match_enumeration():
    params = tiny_model(3)
    oracle = dhbm.BruteForceJoint(params)
    rng = make_rng(9)
    for _ in range(5):
        y = int(rng.integers(0, 2))
        x = rng.integers(0, 2, 3).astype(np.float64)
        h1 = rng.integers(0, 2, 2).astype(np.float64)
        h2 = rng.integers(0, 2, 2).astype(np.float64)
        ey = one_hot(y, 2)
        assert np.allclose(dhbm.cond_h(params, 0, ey, x, h2),
                           oracle.cond_h1(y, x, h2), atol=1e-12)
        assert np.allclose(dhbm.cond_h(params, 1, ey, h1),
                           oracle.cond_h2(y, h1), atol=1e-12)
        assert np.allclose(dhbm.cond_x(params, h1), oracle.cond_x(h1),
                           atol=1e-12)
        assert np.allclose(dhbm.cond_y(params, [h1, h2]),
                           oracle.cond_y(h1, h2), atol=1e-12)


def test_joint_normalized():
    oracle = dhbm.BruteForceJoint(tiny_model(5))
    assert abs(oracle.joint.sum() - 1.0) < 1e-12
    assert abs(oracle.marginal_xy().sum() - 1.0) < 1e-12


def test_oracle_rejects_large_models():
    params = dhbm.HybridParams.initialize(12, [12, 12], 10, make_rng(0))
    with pytest.raises(ValueError):
        dhbm.BruteForceJoint(params)


def test_mean_field_zero_params_fixed_point():
    params = zero_model()
    x = np.array([[1.0, 0.0, 1.0]])
    state = bottom_up_state(params, x)
    nxt = dhbm.mean_field_step(params, x, state)
    assert np.allclose(nxt.layer_means[0], 0.5)
    assert np.allclose(nxt.layer_means[1], 0.5)
    assert np.allclose(nxt.class_probs, 0.5)
    assert nxt.input_recon is None
    assert np.allclose(dhbm.cond_x(params, nxt.layer_means[0]), 0.5)


def test_mean_field_converges_on_tiny_model():
    params = tiny_model(7)
    x = np.array([[1.0, 0.0, 1.0]])
    state = bottom_up_state(params, x)
    for _ in range(200):
        state = dhbm.mean_field_step(params, x, state)
    nxt = dhbm.mean_field_step(params, x, state)
    for a, b in zip(state.layer_means, nxt.layer_means):
        assert np.allclose(a, b, atol=1e-8)
    assert np.allclose(state.class_probs, nxt.class_probs, atol=1e-8)


def test_mean_field_clamped_y_stays_clamped():
    params = tiny_model(7)
    x = np.array([[1.0, 0.0, 1.0]])
    ey = one_hot(np.array([1]), 2)
    state = bottom_up_state(params, x)
    nxt = dhbm.mean_field_step(params, x, state, clamped_y=ey)
    assert np.array_equal(nxt.class_probs, ey)


def test_copy_is_deep():
    params = tiny_model(0)
    clone = params.copy()
    clone.layers[0].W[...] += 1.0
    assert not np.allclose(params.layers[0].W, clone.layers[0].W)


def _views_in_layout_order(p):
    if isinstance(p, dhbm.HybridParams):
        return [a for lp in p.layers
                for a in (lp.W, lp.U, lp.b_hidden, lp.b_visible)] + [p.b_class]
    return [a for W, b in zip(p.Ws, p.bs) for a in (W, b)]


@pytest.mark.parametrize("make", [
    lambda: tiny_model(0),
    lambda: init_from_model(tiny_model(1)),
    lambda: init_mlp(3, [4, 2], 3, make_rng(2)),
], ids=["hybrid", "recognition", "mlp"])
def test_views_tile_the_flat_vector(make):
    p = make()
    p.data[...] = np.arange(p.data.size)
    views = _views_in_layout_order(p)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), p.data)
    for v in views:
        v += 1.0
    assert np.array_equal(p.data, np.arange(p.data.size) + 1.0)
    for other, filled in ((p.copy(), p.data), (p.zeros_like(), 0.0)):
        assert not np.shares_memory(other.data, p.data)
        assert np.array_equal(other.data, np.broadcast_to(filled, p.data.shape))
        other_views = _views_in_layout_order(other)
        assert [v.shape for v in other_views] == [v.shape for v in views]
        assert all(np.shares_memory(v, other.data) for v in other_views)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.data = p.data.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.unknown_field = p.data
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.data
    for record in getattr(p, "layers", ()):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, dataclasses.fields(record)[0].name, None)


def test_plus_equals_on_views_updates_data_once():
    hybrid = tiny_model(3)
    rec = init_from_model(tiny_model(4))
    mlp = init_mlp(3, [4], 3, make_rng(2))
    expected = [p.copy() for p in (hybrid, rec, mlp)]
    lp = hybrid.layers[1]
    lp.W += 1.0
    hybrid.b_class -= 0.5
    W = rec.Ws[0]
    W += 1.0
    rec.data *= 2.0
    mlp.data += 1.0
    expected[0].layers[1].W[...] += 1.0
    expected[0].b_class[...] -= 0.5
    expected[1].Ws[0][...] += 1.0
    expected[1].data[...] *= 2.0
    expected[2].data[...] += 1.0
    for p, want in zip((hybrid, rec, mlp), expected):
        assert np.array_equal(p.data, want.data)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lp.W = lp.W.copy()
