import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridstream import baseline, dhbm, dhda, estimators, recognition
from hybridstream.numerics import (make_rng, one_hot,
                                  sigmoid_prime_from_output, softmax)
from test_dhda import corrupted_forward


def setup(seed=0, d=4, hidden=(3, 3), c=3, std=0.5):
    model = dhbm.HybridParams.initialize(d, list(hidden), c, make_rng(seed),
                                         weight_std=std)
    return model, recognition.init_from_model(model)


def test_gradients_zeros_like_shapes():
    model, _ = setup()
    g = model.zeros_like()
    assert len(g.layers) == 2
    assert g.layers[0].W.shape == model.layers[0].W.shape
    assert g.b_class.shape == model.b_class.shape
    assert g.data.shape == model.data.shape
    assert not g.data.any()


def test_scaled_add_and_apply():
    # a weighted sum and ascent step on the flat vectors moves exactly the
    # views the gradient's own views name
    model, _ = setup(1)
    before = model.zeros_like()
    before.data[...] = model.data
    g = model.zeros_like()
    g.layers[0].W[...] += 1.0
    total = np.zeros_like(model.data)
    total += 0.5 * g.data
    np.add(model.data, 0.1 * total, out=model.data)
    assert np.allclose(model.layers[0].W, before.layers[0].W + 0.05)
    assert np.array_equal(model.layers[0].U, before.layers[0].U)
    assert np.array_equal(model.layers[1].W, before.layers[1].W)
    assert np.array_equal(model.b_class, before.b_class)


def test_mf_cd_zero_when_phases_agree():
    model, rec = setup(2)
    x = make_rng(3).random((2, 4))
    q = recognition.recognize(rec, x)
    y = one_hot(np.array([0, 1]), 3)
    g = estimators.mf_cd_gradients(x, y, q, x.copy(), [m.copy() for m in q],
                                   y.copy(), np.full(2, 0.5),
                                   out=model.zeros_like())
    for layer in g.layers:
        assert np.allclose(layer.W, 0.0, atol=1e-12)
        assert np.allclose(layer.U, 0.0, atol=1e-12)
    assert np.allclose(g.b_class, 0.0, atol=1e-12)


def test_mf_cd_visible_bias_only_on_first_layer():
    model, rec = setup(4)
    rng = make_rng(5)
    x = rng.random((2, 4))
    q = recognition.recognize(rec, x)
    y = one_hot(np.array([0, 1]), 3)
    means = [np.clip(m + 0.1, 0, 1) for m in q]
    g = estimators.mf_cd_gradients(x, y, q, rng.random((2, 4)), means,
                                   np.full((2, 3), 1 / 3), np.full(2, 0.5),
                                   out=model.zeros_like())
    assert not np.allclose(g.layers[0].b_visible, 0.0)
    assert np.allclose(g.layers[1].b_visible, 0.0, atol=1e-12)


def test_mf_bp_matches_finite_differences():
    from hybridstream.checks import gradcheck_mf_bp
    assert gradcheck_mf_bp() < 1e-4


def test_fantasy_particles_initialize():
    model, _ = setup(6)
    p = estimators.FantasyParticles.initialize(model, 7, make_rng(7))
    assert p.x.shape == (7, 4)
    assert len(p.hs) == 2
    assert set(np.unique(p.x)) <= {0.0, 1.0}
    # a one-hot row of a label in [0, 3) per particle
    assert np.array_equal(p.y, one_hot(p.y.argmax(axis=1), 3))


def test_fantasy_particles_reject_zero():
    model, _ = setup()
    with pytest.raises(ValueError):
        estimators.FantasyParticles.initialize(model, 0, make_rng(0))


def test_sap_gradients_advance_particles():
    model, rec = setup(8)
    x = make_rng(9).random((2, 4))
    q = recognition.recognize(rec, x)
    y = one_hot(np.array([1, 2]), 3)
    particles = estimators.FantasyParticles.initialize(model, 5, make_rng(10))
    before = particles.x.copy()
    g = estimators.sap_gradients(x, y, q, particles, model, make_rng(11),
                                 np.full(2, 0.5), out=model.zeros_like())
    assert np.isfinite(g.data).all()
    # a full Gibbs sweep on a random model virtually always flips something
    assert not np.array_equal(before, particles.x)


def chain_state(particles, rng):
    """Bytes of a chain: x, each h, y and the generator's state."""
    return [a.tobytes() for a in (particles.x, *particles.hs, particles.y)] \
        + [repr(rng.bit_generator.state).encode()]


@pytest.mark.parametrize("k", [2, 7])
@pytest.mark.parametrize("dims", [(4, 3, 3, 3), (2, 2, 2, 2), (6, 5, 1, 4, 2),
                                  (1, 1, 2)])
def test_single_sweeps_equal_one_call_of_k(dims, k):
    # each sweep draws its blocks from the generator in turn, so k calls of
    # one sweep and one call of k leave the same chain and generator state;
    # the chain-fidelity oracle advances one sweep at a time on this
    runs = []
    for calls in ([1] * k, [k]):
        rng = make_rng(30)
        model = dhbm.HybridParams.initialize(dims[0], list(dims[1:-1]), dims[-1],
                                             rng, weight_std=0.7)
        particles = estimators.FantasyParticles.initialize(model, 5, rng)
        for n in calls:
            particles.advance(model, rng, n_sweeps=n)
        runs.append(chain_state(particles, rng))
    assert runs[0] == runs[1]


def test_sweep_draws_each_block_in_order():
    # one sweep of M particles takes an (M, H_l) block per hidden layer
    # bottom-up, an (M, 1) block for y and an (M, D) block for x, each unit
    # on when its uniform lies below its conditional
    rng = make_rng(31)
    model = dhbm.HybridParams.initialize(4, [3, 2], 3, rng, weight_std=0.7)
    particles = estimators.FantasyParticles.initialize(model, 5, rng)
    x, hs, y = (particles.x.copy(), [h.copy() for h in particles.hs],
                particles.y.copy())
    want = copy.deepcopy(rng)
    particles.advance(model, rng)
    u1, u2, uy, ux = (want.random(s) for s in ((5, 3), (5, 2), (5, 1), (5, 4)))
    drive = dhbm.class_drive(model, y)
    h1 = (u1 < dhbm.cond_h(model, 0, drive, x, hs[1])).astype(float)
    h2 = (u2 < dhbm.cond_h(model, 1, drive, h1)).astype(float)
    cdf = np.cumsum(dhbm.cond_y(model, [h1, h2]), axis=1)
    y_new = np.minimum((cdf <= uy).sum(axis=1), 2)
    x_new = (ux < dhbm.cond_x(model, h1)).astype(float)
    assert chain_state(particles, rng) == chain_state(
        estimators.FantasyParticles(x_new, [h1, h2], one_hot(y_new, 3)), want)


def test_chain_bits_pinned():
    # sha256 over the chain after 1, then 7, then 50 more sweeps of a
    # 24-24x5-10 model, its labels as int64 indices, and over four uniforms
    # drawn after them; recorded when the sweeps drew from a pre-drawn
    # buffer, and the same under one and two BLAS threads
    rng = make_rng(3)
    params = dhbm.HybridParams.initialize(24, [24] * 5, 10, rng, weight_std=0.5)
    particles = estimators.FantasyParticles.initialize(params, 10, rng)
    digest = hashlib.sha256()
    for n in (1, 7, 50):
        particles.advance(params, rng, n_sweeps=n)
        for a in (particles.x, *particles.hs,
                  particles.y.argmax(axis=1).astype(np.int64)):
            digest.update(a.tobytes())
    digest.update(rng.random(4).tobytes())
    assert digest.hexdigest() == \
        "d44e5eb41bf9e41b2b38718e8d7ab6a37ad5abac9599c179c47846d689178c63"


def gradient_case(name):
    """(grad(out), empty container) for one gradient function on fixed
    inputs; a call that draws from a generator gets a fresh, equally seeded
    one, so every call sees the same draws."""
    model, rec = setup(20, d=5, hidden=(4, 3), c=3)
    rng = make_rng(21)
    x = rng.random((4, 5))
    y = one_hot(rng.integers(0, 3, 4), 3)
    q = recognition.recognize(rec, x)
    w = np.full(4, 0.25)
    if name == "mf-cd":
        means = [np.clip(m + 0.1, 0, 1) for m in q]
        y_hat = softmax(rng.normal(size=(4, 3)))
        x_recon = rng.random((4, 5))
        return (lambda out: estimators.mf_cd_gradients(
            x, y, q, x_recon, means, y_hat, w, out=out)), model.zeros_like()
    if name == "sap":
        def sap(out):
            particles = estimators.FantasyParticles.initialize(model, 5, make_rng(22))
            return estimators.sap_gradients(x, y, q, particles, model,
                                            make_rng(23), w, out=out)
        return sap, model.zeros_like()
    if name == "mf-bp":
        masks = [rng.random((4, h)) < 0.5 for h in (4, 3)]

        def mf_bp(out):
            state = corrupted_forward(model, x, recognition.recognize(rec, x),
                                      make_rng(24), 0.2, 2)
            return estimators.mf_bp_gradients(x, y, q, state, model, w,
                                              delta_masks=masks, out=out)
        return mf_bp, model.zeros_like()
    if name == "rec":
        mu = [rng.random((4, 4)), rng.random((4, 3))]
        v = recognition.recognize(rec, x)
        return (lambda out: recognition.rec_gradients(rec, x, mu, w, v,
                                                      out=out)), \
            rec.zeros_like()
    mlp = baseline.init_mlp(5, [4, 3], 3, make_rng(25), weight_std=0.5)
    return (lambda out: baseline.mlp_gradients(
        mlp, x, y, w, 0.5, rng=make_rng(26), out=out)), \
        mlp.zeros_like()


@pytest.mark.parametrize("name", ["mf-cd", "sap", "mf-bp", "rec", "mlp"])
def test_gradients_overwrite_every_workspace_entry(name):
    # a gradient function adds into its workspace: one that holds finite
    # values P (parameters, say) ends bit for bit P plus the gradient read
    # in a fresh zero container, and one that holds NaN stays NaN in every
    # entry, so no entry is overwritten or skipped
    grad, workspace = gradient_case(name)
    fresh = grad(workspace.zeros_like()).data.copy()
    held = make_rng(27).normal(size=workspace.data.shape)
    for _ in range(2):
        workspace.data[...] = held
        assert grad(workspace) is workspace
        assert np.array_equal(workspace.data.view(np.int64),
                              (held + fresh).view(np.int64))
    workspace.data[...] = np.nan
    assert grad(workspace) is workspace
    assert np.isnan(workspace.data).all()


def rows_case(name, dims, n, seed):
    """g(rows, w): one gradient function on a fixed batch, evaluated over a
    subset of its rows with one weight per row.  Every per-row input (data,
    targets, masked statistics, mean-field or forward state, drop-out
    masks) is built once for the whole batch and sliced; SAP gets copied
    particles and an equally seeded generator on every call, so each call
    draws the same negative phase."""
    d, hidden, c = dims[0], list(dims[1:-1]), dims[-1]
    model = dhbm.HybridParams.initialize(d, hidden, c, make_rng(seed),
                                         weight_std=0.5)
    rec = recognition.init_from_model(model)
    rng = make_rng(seed + 1)
    x = rng.random((n, d))
    y = one_hot(rng.integers(0, c, n), c)
    q = [s * (rng.random((n, s.shape[1])) < 0.5)
         for s in recognition.recognize(rec, x)]

    def rows(arrays, r):
        return [a[r] for a in arrays]

    if name == "mf-cd":
        means = [rng.random((n, h)) for h in hidden]
        y_hat = softmax(rng.normal(size=(n, c)))
        x_recon = rng.random((n, d))

        def grad(r, w):
            return estimators.mf_cd_gradients(
                x[r], y[r], rows(q, r), x_recon[r], rows(means, r), y_hat[r], w,
                out=model.zeros_like())
    elif name == "sap":
        particles = estimators.FantasyParticles.initialize(model, 5,
                                                           make_rng(seed + 2))

        def grad(r, w):
            copied = estimators.FantasyParticles(
                particles.x.copy(), [h.copy() for h in particles.hs],
                particles.y.copy())
            return estimators.sap_gradients(x[r], y[r], rows(q, r), copied,
                                            model, make_rng(seed + 3), w,
                                            out=model.zeros_like())
    elif name == "mf-bp":
        state = corrupted_forward(model, x, q, rng, 0.2, 2)
        masks = [rng.random((n, h)) < 0.5 for h in hidden]

        def grad(r, w):
            sub = dhda.DhdaState(state.input_hat[r], rows(state.hidden, r),
                                 rows(state.hidden_hat, r), rows(state.masks, r),
                                 rows(state.recons, r), state.class_probs[r])
            return estimators.mf_bp_gradients(x[r], y[r], rows(q, r), sub, model,
                                              w, delta_masks=rows(masks, r),
                                              out=model.zeros_like())
    else:
        mu = [rng.random((n, h)) for h in hidden]
        v = recognition.recognize(rec, x)

        def grad(r, w):
            return recognition.rec_gradients(rec, x[r], rows(mu, r), w,
                                             rows(v, r), out=rec.zeros_like())
    return grad


def side_sum(grad, lab, alpha, beta):
    """The oracle: alpha * g(labeled rows, 1/n_lab) + beta * g(unlabeled
    rows, 1/n_unlab), one gradient per batch side."""
    lab = np.asarray(lab)
    n_lab = int(lab.sum())
    n_unlab = len(lab) - n_lab
    return alpha * grad(lab, np.full(n_lab, 1.0 / n_lab)).data \
        + beta * grad(~lab, np.full(n_unlab, 1.0 / n_unlab)).data


def assert_close(fused, sides):
    assert np.abs(fused - sides).max() <= 1e-12 * np.abs(sides).max()


@pytest.mark.parametrize("name", ["mf-cd", "mf-bp", "sap", "rec"])
def test_weighted_gradient_is_the_weighted_sum_of_sides(name):
    # the fused pass's weights: alpha/n_lab on labeled rows, beta/n_unlab
    # on unlabeled ones
    lab = np.array([True, False, True, True, False, False, True, False, False])
    alpha, beta = 1.0, 0.3
    grad = rows_case(name, (6, 5, 4, 3), len(lab), 40)
    w = np.where(lab, alpha / lab.sum(), beta / (~lab).sum())
    assert_close(grad(np.arange(len(lab)), w).data,
                 side_sum(grad, lab, alpha, beta))


@pytest.mark.parametrize("name", ["mf-cd", "mf-bp", "sap", "rec"])
@settings(max_examples=20, deadline=None)
@given(d=st.integers(1, 6), hidden=st.lists(st.integers(1, 5), min_size=1,
                                             max_size=3),
       c=st.integers(2, 4),
       lab=st.lists(st.booleans(), min_size=2, max_size=8).filter(
           lambda m: any(m) and not all(m)),
       seed=st.integers(0, 1000))
def test_uniform_weights_sum_the_sides(name, d, hidden, c, lab, seed):
    # weights 1/n everywhere are the batch average: the side gradients
    # weighted by their share of the rows
    n = len(lab)
    grad = rows_case(name, [d] + hidden + [c], n, seed)
    share = sum(lab) / n
    assert_close(grad(np.arange(n), np.full(n, 1.0 / n)).data,
                 side_sum(grad, lab, share, 1.0 - share))


# ---- oracles: the two-pass formulas the signed weighted pass replaced ----

def mf_cd_two_phase(x, y_probs, q_rec, x_recon, means, y_hat, params, w):
    """MF-CD as a positive-phase product minus a negative-phase product per
    block, each weighted by `w`."""
    wc = w[:, None]
    out = params.zeros_like()
    for l, g in enumerate(out.layers):
        h_pos, v_pos = q_rec[l], x if l == 0 else q_rec[l - 1]
        h_neg = means[l]
        v_neg = x_recon if l == 0 else means[l - 1]
        g.W[...] = (h_pos * wc).T @ v_pos - (h_neg * wc).T @ v_neg
        g.U[...] = (h_pos * wc).T @ y_probs - (h_neg * wc).T @ y_hat
        g.b_hidden[...] = w @ (h_pos - h_neg)
        if l == 0:
            g.b_visible[...] = w @ (v_pos - v_neg)
    out.b_class[...] = w @ (y_probs - y_hat)
    return out


def sap_two_phase(x, y_probs, q_rec, particles, params, rng, w, *, out):
    """SAP as the weighted positive phase minus the particles' unweighted
    sums scaled by w.sum() / M, written into `out`."""
    wc = w[:, None]
    particles.advance(params, rng, n_sweeps=1)
    neg_weight = w.sum() / particles.n_particles
    ey_neg = particles.y
    for l, g in enumerate(out.layers):
        h_pos, v_pos = q_rec[l], x if l == 0 else q_rec[l - 1]
        h_neg = particles.hs[l]
        v_neg = particles.x if l == 0 else particles.hs[l - 1]
        g.W[...] = (h_pos * wc).T @ v_pos - (h_neg.T @ v_neg) * neg_weight
        g.U[...] = (h_pos * wc).T @ y_probs - (h_neg.T @ ey_neg) * neg_weight
        g.b_hidden[...] = w @ h_pos - h_neg.sum(axis=0) * neg_weight
        if l == 0:
            g.b_visible[...] = w @ v_pos - v_neg.sum(axis=0) * neg_weight
    out.b_class[...] = w @ y_probs - ey_neg.sum(axis=0) * neg_weight
    return out


def mf_bp_negate_at_end(x, y_probs, q_rec, state, params, w,
                        dropout_masks=None):
    """MF-BP with positive row weights: the descent gradient, negated
    entry by entry at the end."""
    wc = w[:, None]
    out = params.zeros_like()
    xi_out = (state.class_probs - y_probs) * wc
    h_all = np.concatenate(state.hidden, axis=1)
    hid_prime = sigmoid_prime_from_output(h_all)
    xi_hid_out = (xi_out @ params.U.T) * hid_prime
    totals = []
    for l, g in enumerate(out.layers):
        lp = params.layers[l]
        lo, hi = params.edges[l:l + 2]
        v_in = state.input_hat if l == 0 else state.hidden_hat[l - 1]
        v_target = x if l == 0 else q_rec[l - 1]
        xi_recon = (state.recons[l] - v_target) * wc
        xi_hid_total = (xi_recon @ lp.W.T) * state.masks[l] \
            * hid_prime[:, lo:hi] + xi_hid_out[:, lo:hi]
        if dropout_masks is not None:
            xi_hid_total = xi_hid_total * dropout_masks[l]
        totals.append(xi_hid_total)
        g.W[...] = -(xi_hid_total.T @ v_in + state.hidden_hat[l].T @ xi_recon)
        g.b_visible[...] = -np.add.reduce(xi_recon, axis=0)
    out.U[...] = -(h_all.T @ xi_out)
    out.b_hidden[...] = -np.add.reduce(np.concatenate(totals, axis=1), axis=0)
    out.b_class[...] = -np.add.reduce(xi_out, axis=0)
    return out


@st.composite
def estimator_case(draw):
    """A random model of 1-3 hidden layers, widths 1-6, and a batch of 1-8
    rows with weights in [0, 2], zeros included, plus masked recognition
    statistics and a random mean-field negative phase (x_recon, means,
    y_hat)."""
    dims = [draw(st.integers(1, 6)) for _ in range(draw(st.integers(3, 5)))]
    n = draw(st.integers(1, 8))
    w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
                               min_size=n, max_size=n)))
    seed = draw(st.integers(0, 10_000))
    d, hidden, c = dims[0], dims[1:-1], dims[-1]
    rng = make_rng(seed)
    model = dhbm.HybridParams.initialize(d, hidden, c, rng, weight_std=0.5)
    rec = recognition.init_from_model(model)
    x = rng.random((n, d))
    y = one_hot(rng.integers(0, c, n), c)
    q = [s * (rng.random((n, s.shape[1])) < 0.5)
         for s in recognition.recognize(rec, x)]
    means = [rng.random((n, h)) for h in hidden]
    y_hat = softmax(rng.normal(size=(n, c)))
    negative = (rng.random((n, d)), means, y_hat)
    return model, rec, x, y, q, negative, w, seed


@settings(max_examples=60, deadline=None)
@given(case=estimator_case())
def test_mf_cd_signed_pass_matches_two_phase_oracle(case):
    model, _, x, y, q, negative, w, _ = case
    assert_close(estimators.mf_cd_gradients(x, y, q, *negative, w,
                                            out=model.zeros_like()).data,
                 mf_cd_two_phase(x, y, q, *negative, model, w).data)


@settings(max_examples=60, deadline=None)
@given(case=estimator_case(), m=st.integers(1, 6))
def test_sap_signed_pass_matches_two_phase_oracle(case, m):
    # both sides advance equal particles with equally seeded generators
    model, _, x, y, q, _, w, seed = case
    grads = []
    for estimate in (estimators.sap_gradients, sap_two_phase):
        particles = estimators.FantasyParticles.initialize(model, m,
                                                           make_rng(seed + 1))
        grads.append(estimate(x, y, q, particles, model, make_rng(seed + 2),
                              w, out=model.zeros_like()).data)
    assert_close(*grads)


def zero_signed_bits(a):
    """The bits of `a` with every zero made +0."""
    return (a + 0.0).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(case=estimator_case())
def test_mf_bp_negated_weights_match_negate_at_end(case):
    # negation is exact and rounding is sign-symmetric, so -w through the
    # deltas gives the negated descent gradient to the last bit; the one
    # difference is the sign of an exact zero (a sum that starts at +0
    # against a negated +0), which is the same gradient entry
    model, rec, x, y, q, _, w, seed = case
    rng = make_rng(seed + 3)
    state = corrupted_forward(model, x, recognition.recognize(rec, x), rng,
                              0.3, 2)
    masks = [rng.random((len(x), h)) < 0.5 for h in model.hidden_dims]
    got = estimators.mf_bp_gradients(x, y, q, state, model, w,
                                     delta_masks=masks,
                                     out=model.zeros_like()).data
    want = mf_bp_negate_at_end(x, y, q, state, model, w, masks).data
    assert np.array_equal(zero_signed_bits(got), zero_signed_bits(want))
    differ = got.view(np.int64) != want.view(np.int64)
    assert not got[differ].any()
