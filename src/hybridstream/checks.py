"""Self-verification suites exposed on the CLI: exact-enumeration oracle
checks for the Boltzmann conditionals, and central finite-difference checks
for every back-propagated gradient.
"""

import numpy as np

from . import baseline, dhbm, estimators, recognition
from .dhda import dhda_forward, recon_cross_entropy
from .numerics import make_rng, one_hot, softmax

FD_STEP = 1e-5


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


def oracle_check(n_models=50, seed=7, configs_per_model=3):
    """Max deviation of every conditional from brute-force enumeration."""
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        params = random_tiny_model(rng)
        oracle = dhbm.BruteForceJoint(params)
        assert abs(oracle.joint.sum() - 1.0) < 1e-12
        d = params.n_visible
        h1d, h2d = params.hidden_dims
        c = params.n_classes
        for _ in range(configs_per_model):
            y = int(rng.integers(0, c))
            x = rng.integers(0, 2, d).astype(np.float64)
            h1 = rng.integers(0, 2, h1d).astype(np.float64)
            h2 = rng.integers(0, 2, h2d).astype(np.float64)
            ey = one_hot(y, c)
            worst = max(worst, np.max(np.abs(
                dhbm.cond_h(params, 0, ey, x, h2) - oracle.cond_h1(y, x, h2))))
            worst = max(worst, np.max(np.abs(
                dhbm.cond_h(params, 1, ey, h1) - oracle.cond_h2(y, h1))))
            worst = max(worst, np.max(np.abs(
                dhbm.cond_x(params, h1) - oracle.cond_x(h1))))
            worst = max(worst, np.max(np.abs(
                dhbm.cond_y(params, [h1, h2]) - oracle.cond_y(h1, h2))))
    return worst


def _fd(loss_fn, arr):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = arr[i]
        arr[i] = orig + FD_STEP
        up = loss_fn()
        arr[i] = orig - FD_STEP
        down = loss_fn()
        arr[i] = orig
        g[i] = (up - down) / (2.0 * FD_STEP)
        it.iternext()
    return g


def gradcheck_recognition(seed=11, dims=(3, 4, 3, 2), batch=3):
    """Recognition-net KL gradients vs central differences."""
    rng = make_rng(seed)
    model = dhbm.HybridParams.initialize(dims[0], list(dims[1:]), 2, rng,
                                         weight_std=0.5)
    rec = recognition.init_from_model(model)
    x = rng.random((batch, dims[0]))
    mu = [rng.random((batch, h)) for h in dims[1:]]
    grads = recognition.rec_gradients(rec, x, mu, np.full(batch, 1.0 / batch))

    def loss():
        return recognition.kl_loss(recognition.recognize(rec, x), mu)

    worst = 0.0
    for W, b, gW, gb in zip(rec.Ws, rec.bs, grads.Ws, grads.bs):
        worst = max(worst, np.max(_rel_err(gW, _fd(loss, W))))
        worst = max(worst, np.max(_rel_err(gb, _fd(loss, b))))
    return worst


def _mf_bp_surrogate(params, x, y_onehot, frozen):
    """The layer-local loss the MF-BP estimator differentiates.

    `frozen` captures every cross-layer quantity as a constant: encoder
    inputs, top-down pre-activation contributions, corruption masks and
    reconstruction targets.
    """
    from .numerics import sigmoid
    n = x.shape[0]
    logits = params.b_class.copy()[None, :].repeat(n, axis=0)
    recon_total = 0.0
    for l, lp in enumerate(params.layers):
        v_in, topdown, mask, v_target = frozen[l]
        h = sigmoid(v_in @ lp.W.T + topdown + lp.b_hidden)
        h_hat = h * mask
        z = sigmoid(h_hat @ lp.W + lp.b_visible)
        recon_total += recon_cross_entropy(v_target, z)
        logits = logits + h @ lp.U
    p = softmax(logits)
    logloss = float(-np.sum(y_onehot * np.log(np.clip(p, 1e-12, 1.0)))) / n
    return recon_total + logloss


def gradcheck_mf_bp(seed=13, batch=2):
    """MF-BP estimator vs central differences of its surrogate loss."""
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
        if l + 1 < params.n_layers:
            topdown = q_rec[l + 1] @ params.layers[l + 1].W
        else:
            topdown = np.zeros((batch, params.hidden_dims[l]))
        v_target = x if l == 0 else q_rec[l - 1]
        frozen.append((v_in.copy(), topdown, state.masks[l].copy(),
                       np.asarray(v_target).copy()))
    grads = estimators.mf_bp_gradients(x, y, q_rec, state, params,
                                       np.full(batch, 1.0 / batch))

    def loss():
        return _mf_bp_surrogate(params, x, y, frozen)

    worst = 0.0
    for lp, g in zip(params.layers, grads.layers):
        # estimator returns ascent direction: compare against -FD
        worst = max(worst, np.max(_rel_err(g.W, -_fd(loss, lp.W))))
        worst = max(worst, np.max(_rel_err(g.U, -_fd(loss, lp.U))))
        worst = max(worst, np.max(_rel_err(g.b_hidden, -_fd(loss, lp.b_hidden))))
        worst = max(worst, np.max(_rel_err(g.b_visible, -_fd(loss, lp.b_visible))))
    worst = max(worst, np.max(_rel_err(grads.b_class, -_fd(loss, params.b_class))))
    return worst


def gradcheck_mlp(seed=17, batch=3):
    """Baseline-MLP row-weighted log-loss gradients vs central differences,
    with a different weight on every row."""
    rng = make_rng(seed)
    d, hidden, c = 4, [5, 4], 3
    params = baseline.init_mlp(d, hidden, c, rng, weight_std=0.5)
    x = rng.random((batch, d))
    y = one_hot(rng.integers(0, c, batch), c)
    w = rng.uniform(0.1, 1.0, batch)
    grads = baseline.mlp_gradients(params, x, y, w)

    def loss():
        _, probs, _ = baseline.mlp_forward(params, x)
        return sum(w[i] * baseline.log_loss(probs[i:i + 1], y[i:i + 1])
                   for i in range(batch))

    worst = 0.0
    for W, b, gW, gb in zip(params.Ws, params.bs, grads.Ws, grads.bs):
        worst = max(worst, np.max(_rel_err(gW, _fd(loss, W))))
        worst = max(worst, np.max(_rel_err(gb, _fd(loss, b))))
    return worst


def run_all_gradchecks(seed=0):
    return {
        "recognition_kl": gradcheck_recognition(seed + 11),
        "mf_bp_surrogate": gradcheck_mf_bp(seed + 13),
        "baseline_mlp": gradcheck_mlp(seed + 17),
    }


def sap_chain_fidelity(seed=23, n_sweeps=100_000, n_particles=10,
                       chunk=5_000):
    """Total-variation gap between the empirical particle marginal over
    (x, y) and the enumerated one, on a frozen tiny model."""
    rng = make_rng(seed)
    params = random_tiny_model(rng, max_dim=2, max_classes=2)
    oracle = dhbm.BruteForceJoint(params)
    target = oracle.marginal_xy()
    particles = estimators.FantasyParticles.initialize(params, n_particles, rng)
    counts = np.zeros_like(target)
    burn_in = min(1000, n_sweeps // 10)
    if burn_in:
        particles.advance(params, rng, n_sweeps=burn_in)
    done = burn_in
    while done < n_sweeps:
        step = min(chunk, n_sweeps - done)
        particles.advance(params, rng, n_sweeps=step, counts=counts)
        done += step
    empirical = counts / counts.sum()
    return 0.5 * float(np.abs(empirical - target).sum())
