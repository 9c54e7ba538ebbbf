import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridstream import dhbm
from hybridstream.baseline import init_mlp
from hybridstream.numerics import make_rng, one_hot, sigmoid, softmax
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


def test_cond_h_refuses_integer_labels():
    # with as many rows as classes, labels times U' would broadcast into a
    # wrong class term; their one-hot rows give the right one
    params = tiny_model(c=3)
    labels, below, above = np.array([0, 2, 1]), np.zeros((3, 3)), np.zeros((3, 2))
    with pytest.raises(TypeError, match="one-hot"):
        dhbm.cond_h(params, 0, labels, below, above)
    got = dhbm.cond_h(params, 0, one_hot(labels, 3), below, above)
    assert np.array_equal(got, sigmoid(params.layers[0].U.T[labels]
                                       + params.layers[0].b_hidden))


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


def _configurations(params):
    """Every (y, x, [h^1, h^2]) of a tiny two-layer model, y slowest."""
    d, (h1d, h2d), c = params.n_visible, params.hidden_dims, params.n_classes
    for y, ix, i1, i2 in np.ndindex(c, 1 << d, 1 << h1d, 1 << h2d):
        yield y, [((ix >> np.arange(d)) & 1).astype(np.float64),
                  [((i1 >> np.arange(h1d)) & 1).astype(np.float64),
                   ((i2 >> np.arange(h2d)) & 1).astype(np.float64)]]


@pytest.mark.parametrize("seed, d, hidden, c", [(1, 3, (2, 2), 2),
                                                (4, 2, (3, 1), 3)])
def test_energy_on_a_grid_equals_each_configuration(seed, d, hidden, c):
    params = tiny_model(seed, d, hidden, c)
    configs = list(_configurations(params))
    ys = np.array([y for y, _ in configs])
    xs = np.array([x for _, (x, _) in configs])
    h1s = np.array([hs[0] for _, (_, hs) in configs])
    h2s = np.array([hs[1] for _, (_, hs) in configs])
    one_by_one = np.array([dhbm.energy(params, y, x, hs)
                           for y, (x, hs) in configs])
    assert all(isinstance(e, float) for e in one_by_one.tolist())
    # a flat batch, and the same batch as a (4, n / 4) grid of leading axes
    assert np.allclose(dhbm.energy(params, ys, xs, [h1s, h2s]), one_by_one,
                       rtol=0, atol=1e-12)
    grid = dhbm.energy(params, ys.reshape(4, -1), xs.reshape(4, -1, d),
                       [h1s.reshape(4, -1, hidden[0]),
                        h2s.reshape(4, -1, hidden[1])])
    assert np.allclose(grid.ravel(), one_by_one, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed, d, hidden, c", [(2, 3, (2, 2), 2),
                                                (6, 2, (1, 3), 3)])
def test_log_z_is_the_log_sum_exp_of_energies(seed, d, hidden, c):
    params = tiny_model(seed, d, hidden, c)
    neg_e = np.array([-dhbm.energy(params, y, x, hs)
                      for y, (x, hs) in _configurations(params)])
    log_z = neg_e.max() + np.log(np.exp(neg_e - neg_e.max()).sum())
    oracle = dhbm.BruteForceJoint(params)
    assert abs(oracle.log_z - log_z) < 1e-12
    # the table is indexed [y, x, h^1, h^2] in the enumeration order
    assert np.allclose(oracle.joint.ravel(), np.exp(neg_e - log_z),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("x, hs, message", [
    (np.ones(3), [np.ones(2)], "expected 2 hidden vectors, got 1"),
    (np.ones(4), [np.ones(2), np.ones(2)], "does not match"),
    (np.ones(3), [np.ones(2), np.ones(3)], "does not match"),
], ids=["one-hidden-vector", "wide-x", "wide-h2"])
def test_energy_refuses_states_that_do_not_fit(x, hs, message):
    with pytest.raises(ValueError, match=message):
        dhbm.energy(tiny_model(), 0, x, hs)


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
    assert [f.name for f in dataclasses.fields(nxt)] == ["layer_means",
                                                        "class_probs"]
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
    other = p.zeros_like()
    assert not np.shares_memory(other.data, p.data)
    assert not other.data.any()
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
    expected = [p.zeros_like() for p in (hybrid, rec, mlp)]
    for p, want in zip((hybrid, rec, mlp), expected):
        want.data[...] = p.data
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


def encode_h(params, l, below_hat, above_hat=None):
    """The DHDA encoder as it was written beside cond_h (test oracle):
    sigma(W_l v-hat + b + W_{l+1}' h-hat^{l+1}), summed in that order."""
    lp = params.layers[l]
    pre = below_hat @ lp.W.T
    np.add(pre, lp.b_hidden, out=pre)
    if l + 1 < params.n_layers:
        np.add(pre, above_hat @ params.layers[l + 1].W, out=pre)
    return sigmoid(pre, out=pre)


def decode(params, l, h_hat):
    """The DHDA's tied decoder as it was written beside cond_x (test
    oracle): sigma(W_l' h-hat + b_visible)."""
    lp = params.layers[l]
    pre = h_hat @ lp.W
    np.add(pre, lp.b_visible, out=pre)
    return sigmoid(pre, out=pre)


@st.composite
def conditional_case(draw):
    """A model of 1-4 hidden layers, every width 1-6, with every visible-side
    bias set, and a batch of inputs, layer means and class distributions."""
    d = draw(st.integers(1, 6))
    hidden = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    c = draw(st.integers(2, 6))
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 16))
    params = tiny_model(seed, d, hidden, c, scale=3.0)
    rng = make_rng(seed + 1)
    for lp in params.layers:
        lp.b_visible[...] = rng.uniform(-3.0, 3.0, lp.b_visible.shape)
    x = rng.random((n, d))
    hs = [rng.random((n, h)) for h in hidden]
    y_probs = softmax(rng.normal(0.0, 2.0, (n, c)))
    return params, x, hs, y_probs


def neighbours(x, hs, l):
    return (x if l == 0 else hs[l - 1]), (hs[l + 1] if l + 1 < len(hs) else None)


def assert_probabilities(a, shape):
    assert a.shape == shape
    assert np.all((a >= 0.0) & (a <= 1.0))


@settings(max_examples=60, deadline=None)
@given(case=conditional_case())
def test_conditionals_shapes_and_ranges(case):
    params, x, hs, y_probs = case
    n, c = y_probs.shape
    for l in range(params.n_layers):
        below, above = neighbours(x, hs, l)
        for y in (y_probs, None):
            assert_probabilities(dhbm.cond_h(params, l, y, below, above),
                                 hs[l].shape)
        assert_probabilities(dhbm.cond_x(params, hs[l], l), below.shape)
    p = dhbm.cond_y(params, hs)
    assert_probabilities(p, (n, c))
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    state = dhbm.mean_field_step(params, x, dhbm.MeanFieldState(hs, y_probs))
    for mean, h in zip(state.layer_means, hs):
        assert_probabilities(mean, h.shape)
    assert_probabilities(state.class_probs, (n, c))
    assert np.allclose(state.class_probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(case=conditional_case())
def test_class_free_conditionals_are_the_dhda_encoder_and_decoder(case):
    # the DHDA encodes with cond_h without a class term and decodes with
    # cond_x at each layer: the same bits as its own formulas gave
    params, x, hs, _ = case
    for l in range(params.n_layers):
        below, above = neighbours(x, hs, l)
        assert np.array_equal(
            dhbm.cond_h(params, l, None, below, above).view(np.int64),
            encode_h(params, l, below, above).view(np.int64))
        assert np.array_equal(dhbm.cond_x(params, hs[l], l).view(np.int64),
                              decode(params, l, hs[l]).view(np.int64))
