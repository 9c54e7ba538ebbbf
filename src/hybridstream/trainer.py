"""Single-parameter-update orchestration: recognition, pseudo-labeling,
mean-field, recognition-net step, estimator dispatch, weighted model step,
drop-out masking, beta annealing, and prediction.
"""

from dataclasses import dataclass, field

import numpy as np

from . import dhbm, dhda, estimators, recognition
from .numerics import bernoulli_mask, one_hot

ESTIMATORS = ("mf-cd", "mf-bp", "sap")


def beta_schedule(t, t1, t2, beta_f):
    """Annealed unsupervised weight: 0 before t1, linear ramp to beta_f at t2."""
    if t1 > t2:
        raise ValueError("t1 must not exceed t2")
    if t < t1:
        return 0.0
    if t < t2:
        return beta_f * (t - t1) / (t2 - t1)
    return beta_f


def pseudo_label(class_probs):
    """Argmax proxy labels as a one-hot matrix; ties break to the lowest index."""
    probs = np.atleast_2d(class_probs)
    return one_hot(np.argmax(probs, axis=1), probs.shape[1])


@dataclass
class TrainerConfig:
    lr: float = 0.051
    alpha: float = 1.0
    beta_f: float = 0.1
    num_steps: int = 1
    estimator: str = "mf-cd"
    keep_prob: float = 0.5
    corruption_p: float = 0.15
    n_particles: int = 10
    anneal: bool = False
    t1: float = 3.0
    t2: float = 300.0
    labeled_epoch_size: int = 1000

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in (0, 1]")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.t1 > self.t2:
            raise ValueError("t1 must not exceed t2")


class Trainer:
    """Owns a hybrid model, its recognition co-network and update state.

    Not safe for concurrent update() calls on the same instance.
    """

    def __init__(self, model, config, rng):
        self.model = model
        self.config = config
        self.rng = rng
        self.rec = recognition.init_from_model(model)
        self.particles = None
        if config.estimator == "sap":
            self.particles = estimators.FantasyParticles.initialize(
                model, config.n_particles, rng)
        self.labeled_seen = 0
        self.updates = 0
        # side -> (model gradient, recognition gradient), kept across updates
        self._workspaces = {}

    def current_beta(self):
        if not self.config.anneal:
            return self.config.beta_f
        t = self.labeled_seen / self.config.labeled_epoch_size
        return beta_schedule(t, self.config.t1, self.config.t2, self.config.beta_f)

    def _dropout_masks(self, stats):
        """One keep-mask per statistic, cut from a single draw: the same
        uniforms, in the same order, as one draw per statistic."""
        if self.config.keep_prob >= 1.0:
            return None
        flat = bernoulli_mask(self.rng, 1, sum(s.size for s in stats),
                              self.config.keep_prob)[0]
        masks = []
        offset = 0
        for s in stats:
            masks.append(flat[offset:offset + s.size].reshape(s.shape))
            offset += s.size
        return masks

    def _workspace(self, side):
        """The gradient containers of one side, built on its first update."""
        if side not in self._workspaces:
            self._workspaces[side] = (self.model.zeros_like(),
                                      self.rec.zeros_like())
        return self._workspaces[side]

    def _masked(self, stats, masks):
        """The statistics times their masks; `stats` itself when unmasked,
        because nothing downstream writes them."""
        if masks is None:
            return stats
        return [s * m for s, m in zip(stats, masks)]

    def _side(self, x, y_onehot, side):
        """Gradients and bookkeeping for one (labeled or unlabeled) batch,
        written into that side's workspace."""
        cfg = self.config
        model_out, rec_out = self._workspace(side)
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        v = [np.atleast_2d(s) for s in recognition.recognize(self.rec, x)]
        v_stats = self._masked(v, self._dropout_masks(v))
        class_probs = None
        if y_onehot is None:
            class_probs = dhbm.cond_y(self.model, v_stats)
            y_onehot = pseudo_label(class_probs)
        if cfg.estimator == "mf-bp":
            state = dhda.dhda_forward(self.model, x, v_stats, self.rng,
                                      cfg.corruption_p, cfg.num_steps)
            mf_masks = self._dropout_masks(state.hidden)
            mu_clean = state.hidden
            model_grad = estimators.mf_bp_gradients(
                x, y_onehot, v_stats, state, self.model,
                dropout_masks=mf_masks, out=model_out)
        else:
            if class_probs is None:
                class_probs = dhbm.cond_y(self.model, v_stats)
            # mean_field_step builds new arrays and never writes its inputs
            state = dhbm.MeanFieldState(v_stats, class_probs,
                                        dhbm.cond_x(self.model, v_stats[0]))
            for _ in range(cfg.num_steps):
                state = dhbm.mean_field_step(self.model, x, state)
            mf_masks = self._dropout_masks(state.layer_means)
            mu_clean = state.layer_means
            masked_state = dhbm.MeanFieldState(
                self._masked(state.layer_means, mf_masks), state.class_probs,
                state.input_recon)
            if cfg.estimator == "mf-cd":
                model_grad = estimators.mf_cd_gradients(
                    x, y_onehot, state.class_probs, v_stats, masked_state,
                    self.model, out=model_out)
            else:
                model_grad = estimators.sap_gradients(
                    x, y_onehot, v_stats, self.particles, self.model, self.rng,
                    out=model_out)
        # the recognition target is the clean mean-field statistic: drop-out
        # masks perturb only the statistics fed to the model-gradient
        # estimators, a masked target would collapse the network to constants
        rec_grad = recognition.rec_gradients(self.rec, x, mu_clean, v,
                                             out=rec_out)
        return model_grad, rec_grad

    def update(self, x_lab=None, y_lab=None, x_unlab=None):
        """One Algorithm-1 step: one recognition-net step, one model step.

        y_lab holds class indices (or a one-hot matrix).  Either batch may be
        empty/None; with both empty nothing happens and the report says so.
        """
        has_lab = x_lab is not None and len(x_lab) > 0
        has_unlab = x_unlab is not None and len(x_unlab) > 0
        if not has_lab and not has_unlab:
            return {"updated": False, "beta": None}
        cfg = self.config
        beta = self.current_beta()
        g_model_lab = g_rec_lab = g_model_un = g_rec_un = None
        if has_lab:
            y_arr = np.asarray(y_lab)
            y_onehot = y_arr if y_arr.ndim == 2 \
                else one_hot(y_arr, self.model.n_classes)
            g_model_lab, g_rec_lab = self._side(x_lab, y_onehot, "lab")
        if has_unlab:
            g_model_un, g_rec_un = self._side(x_unlab, None, "unlab")
        recognition.rec_update(self.rec, g_rec_lab, g_rec_un, cfg.lr, beta)
        # ascent step on the flat vector: model += lr * (alpha g_lab + beta g_unlab),
        # built in the gradients' own vectors
        step = None
        if g_model_lab is not None:
            step = np.multiply(g_model_lab.data, cfg.alpha, out=g_model_lab.data)
        if g_model_un is not None:
            scaled = np.multiply(g_model_un.data, beta, out=g_model_un.data)
            step = scaled if step is None else np.add(step, scaled, out=step)
        np.multiply(step, cfg.lr, out=step)
        np.add(self.model.data, step, out=self.model.data)
        if has_lab:
            self.labeled_seen += np.atleast_2d(x_lab).shape[0]
        self.updates += 1
        return {"updated": True, "beta": beta}

    def predict(self, x):
        """Class distribution from the recognition network.

        Hidden statistics are scaled by keep_prob (drop-out expectation).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        v = [np.atleast_2d(s) for s in recognition.recognize(self.rec, x)]
        stats = [np.multiply(s, self.config.keep_prob, out=s) for s in v]
        return dhbm.cond_y(self.model, stats)
