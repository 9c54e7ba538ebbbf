"""Self-verification suites exposed on the CLI: exact-enumeration oracle
checks for the Boltzmann conditionals, and central finite-difference checks
for every back-propagated gradient, each of which differences the whole flat
parameter vector `data` of its network against the returned gradient's.
"""

import numpy as np

from . import baseline, dhbm, estimators, recognition
from .dhda import dhda_forward
from .numerics import cross_entropy, make_rng, one_hot, sigmoid

FD_STEP = 1e-5
CONFIGS_PER_MODEL = 3   # random (y, x, h^1, h^2) per model in oracle_check


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)


def random_tiny_model(rng, max_dim=3, max_classes=3):
    d = int(rng.integers(1, max_dim + 1))
    h1 = int(rng.integers(1, max_dim + 1))
    h2 = int(rng.integers(1, max_dim + 1))
    c = int(rng.integers(2, max_classes + 1))
    params = dhbm.HybridParams.initialize(d, [h1, h2], c, rng)
    for lp in params.layers:
        lp.W[...] = rng.uniform(-1.0, 1.0, lp.W.shape)
        lp.U[...] = rng.uniform(-1.0, 1.0, lp.U.shape)
        lp.b_hidden[...] = rng.uniform(-1.0, 1.0, lp.b_hidden.shape)
    params.layers[0].b_visible[...] = rng.uniform(-1.0, 1.0, params.n_visible)
    params.b_class[...] = rng.uniform(-1.0, 1.0, c)
    return params


def oracle_check(n_models=50, seed=7):
    """Max deviation of every conditional from enumerating dhbm.energy."""
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        params = random_tiny_model(rng)
        oracle = dhbm.BruteForceJoint(params)
        assert abs(oracle.joint.sum() - 1.0) < 1e-12
        for _ in range(CONFIGS_PER_MODEL):
            y = int(rng.integers(0, params.n_classes))
            x, h1, h2 = (rng.integers(0, 2, n).astype(np.float64)
                         for n in (params.n_visible, *params.hidden_dims))
            # the class as its one-hot row, as the Gibbs sweep passes it
            ey = one_hot(y, params.n_classes)
            worst = max(worst, *(np.max(np.abs(a - b)) for a, b in [
                (dhbm.cond_h(params, 0, ey, x, h2), oracle.cond_h1(y, x, h2)),
                (dhbm.cond_h(params, 1, ey, h1), oracle.cond_h2(y, h1)),
                (dhbm.cond_x(params, h1), oracle.cond_x(h1)),
                (dhbm.cond_y(params, [h1, h2]), oracle.cond_y(h1, h2))]))
    return worst


def _fd(loss_fn, flat):
    """Central differences of loss_fn() in each entry of the vector `flat`."""
    g = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        up = loss_fn()
        flat[i] = orig - FD_STEP
        down = loss_fn()
        flat[i] = orig
        g[i] = (up - down) / (2.0 * FD_STEP)
    return g


def gradcheck_recognition(seed=11):
    """Recognition-net KL gradients vs central differences."""
    dims, batch = (3, 4, 3, 2), 3
    rng = make_rng(seed)
    model = dhbm.HybridParams.initialize(dims[0], list(dims[1:]), 2, rng,
                                         weight_std=0.5)
    rec = recognition.init_from_model(model)
    x = rng.random((batch, dims[0]))
    mu = [rng.random((batch, h)) for h in dims[1:]]
    grads = recognition.rec_gradients(rec, x, mu, np.full(batch, 1.0 / batch),
                                      recognition.recognize(rec, x),
                                      out=rec.zeros_like())

    def loss():
        return recognition.kl_loss(recognition.recognize(rec, x), mu)

    return float(np.max(_rel_err(grads.data, _fd(loss, rec.data))))


def _mf_bp_surrogate(params, y_onehot, frozen):
    """The layer-local loss the MF-BP estimator differentiates.

    `frozen` captures every cross-layer quantity as a constant: encoder
    inputs, top-down pre-activation contributions, corruption masks and
    reconstruction targets.
    """
    hs = []
    recon_total = 0.0
    for l, lp in enumerate(params.layers):
        v_in, topdown, mask, v_target = frozen[l]
        h = sigmoid(v_in @ lp.W.T + topdown + lp.b_hidden)
        recon_total += cross_entropy(v_target, dhbm.cond_x(params, h * mask, l))
        hs.append(h)
    return recon_total + baseline.log_loss(dhbm.cond_y(params, hs), y_onehot)


def gradcheck_mf_bp(seed=13):
    """MF-BP estimator vs central differences of its surrogate loss, negated:
    the estimator returns the ascent direction."""
    batch = 2
    rng = make_rng(seed)
    d, hidden, c = 4, [3, 3], 3
    params = dhbm.HybridParams.initialize(d, hidden, c, rng, weight_std=0.5)
    params.b_class[...] = rng.normal(0, 0.1, c)
    rec = recognition.init_from_model(params)
    x = rng.random((batch, d))
    y = one_hot(rng.integers(0, c, batch), c)
    q_rec = recognition.recognize(rec, x)
    state = dhda_forward(params, x, q_rec, rng, corruption_p=0.0, num_steps=1)
    frozen = []
    for l in range(params.n_layers):
        v_in = state.input_hat if l == 0 else state.hidden_hat[l - 1]
        topdown = (q_rec[l + 1] @ params.layers[l + 1].W
                   if l + 1 < params.n_layers else 0.0)
        v_target = x if l == 0 else q_rec[l - 1]
        frozen.append((v_in.copy(), topdown, state.masks[l].copy(),
                       np.asarray(v_target).copy()))
    grads = estimators.mf_bp_gradients(x, y, q_rec, state, params,
                                       np.full(batch, 1.0 / batch),
                                       out=params.zeros_like())

    def loss():
        return _mf_bp_surrogate(params, y, frozen)

    return float(np.max(_rel_err(grads.data, -_fd(loss, params.data))))


def gradcheck_mlp(seed=17):
    """Baseline-MLP row-weighted log-loss gradients vs central differences,
    with a different weight on every row."""
    batch = 3
    rng = make_rng(seed)
    d, hidden, c = 4, [5, 4], 3
    params = baseline.init_mlp(d, hidden, c, rng, weight_std=0.5)
    x = rng.random((batch, d))
    y = one_hot(rng.integers(0, c, batch), c)
    w = rng.uniform(0.1, 1.0, batch)
    grads = baseline.mlp_gradients(params, x, y, w, out=params.zeros_like())

    def loss():
        _, probs = baseline.mlp_forward(params, x, None)
        return sum(w[i] * baseline.log_loss(probs[i:i + 1], y[i:i + 1])
                   for i in range(batch))

    return float(np.max(_rel_err(grads.data, _fd(loss, params.data))))


def run_all_gradchecks(seed=0):
    return {
        "recognition_kl": gradcheck_recognition(seed + 11),
        "mf_bp_surrogate": gradcheck_mf_bp(seed + 13),
        "baseline_mlp": gradcheck_mlp(seed + 17),
    }


def sap_chain_fidelity(seed=23, n_sweeps=100_000, n_particles=10):
    """Total-variation gap between the empirical particle marginal over
    (x, y) and the enumerated one, on a frozen tiny model.

    The chain advances one sweep at a time through FantasyParticles.advance,
    the sampler SAP trains with; after a burn-in of min(1000, n_sweeps // 10)
    sweeps, every particle's (x, y) cell is counted after each sweep."""
    rng = make_rng(seed)
    params = random_tiny_model(rng, max_dim=2, max_classes=2)
    target = dhbm.BruteForceJoint(params).marginal_xy()
    particles = estimators.FantasyParticles.initialize(params, n_particles, rng)
    burn_in = min(1000, n_sweeps // 10)
    if burn_in:
        particles.advance(params, rng, n_sweeps=burn_in)
    counts = np.zeros_like(target)
    bits = 1 << np.arange(params.n_visible)
    for _ in range(n_sweeps - burn_in):
        particles.advance(params, rng)
        ix = particles.x.astype(np.int64) @ bits
        np.add.at(counts, (ix, particles.y), 1.0)
    empirical = counts / counts.sum()
    return 0.5 * float(np.abs(empirical - target).sum())
