"""Single-parameter-update orchestration: one weighted pass per batch of
recognition, pseudo-labeling, mean-field, estimator dispatch, model and
recognition-net steps, with drop-out masking, beta annealing, and
prediction.
"""

from dataclasses import dataclass

import numpy as np

from . import dhbm, dhda, estimators, recognition
from .numerics import (check_fields, dropout_masks, one_hot, row_targets,
                       row_weights)

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


def _masked(stats, masks):
    """The statistics times their drop-out masks; `stats` itself when
    unmasked, because nothing downstream writes them."""
    if masks is None:
        return stats
    return [s * m for s, m in zip(stats, masks)]


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
        # a float count would reach range(), any non-empty string would switch
        # annealing on, and a NaN or an infinite lr, alpha or beta would reach
        # every parameter in one step
        check_fields(self, lr=0, alpha=0, beta_f=0, num_steps=1, n_particles=1)
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in (0, 1]")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}")
        if self.t1 > self.t2:
            raise ValueError("t1 must not exceed t2")
        if self.anneal and self.labeled_epoch_size < 1:
            raise ValueError("labeled_epoch_size must be >= 1 when annealing")
        if not 0.0 <= self.corruption_p <= 1.0:
            raise ValueError("corruption_p must lie in [0, 1]")


class Trainer:
    """Owns a hybrid model, its recognition co-network and update state.

    Not safe for concurrent calls on the same instance.
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
        # gradient containers, overwritten by every update
        self._model_grad = model.zeros_like()
        self._rec_grad = self.rec.zeros_like()
        # (x, recognize(rec, x)) of the last predict, until the next update
        self._recognized = None

    def current_beta(self):
        if not self.config.anneal:
            return self.config.beta_f
        t = self.labeled_seen / self.config.labeled_epoch_size
        return beta_schedule(t, self.config.t1, self.config.t2, self.config.beta_f)

    def update(self, x, labels):
        """One Algorithm-1 step over a batch: one recognition-net step, one
        model step.

        `labels` holds a class index per row of `x`, negative where the row
        is unlabeled.  Rows train toward their row_targets with their
        row_weights, times alpha on the model's labeled rows, so the model
        ascends alpha * (labeled mean) + beta * (unlabeled mean) and the
        recognition net descends (labeled mean) + beta * (unlabeled mean).
        The weights carry lr: each net takes its step with one add (or
        subtract) on its flat vector.  An empty batch changes nothing and
        the report says so.  The recognition pass of the last predict() is
        reused when `x` is the array object it was given (and not written
        since), and dropped either way.
        """
        recognized, self._recognized = self._recognized, None
        v = recognized[1] if recognized is not None and recognized[0] is x else None
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        labels = np.asarray(labels)
        cfg, rng = self.config, self.rng
        beta = self.current_beta()
        lab, w_rec = row_weights(labels, len(x), cfg.lr, beta)
        if len(lab) == 0:
            return {"updated": False, "beta": None}
        w = np.where(lab, cfg.alpha * w_rec, w_rec)

        if v is None:
            v = recognition.recognize(self.rec, x)
        v_stats = _masked(v, dropout_masks(rng, [s.shape for s in v], cfg.keep_prob))
        class_probs = dhbm.cond_y(self.model, v_stats)
        targets = one_hot(row_targets(labels, lab, class_probs), self.model.n_classes)
        if cfg.estimator == "mf-bp":
            state = dhda.dhda_forward(self.model, x, v_stats, rng,
                                      cfg.corruption_p, cfg.num_steps)
            mu_clean = state.hidden
            model_grad = estimators.mf_bp_gradients(
                x, targets, v_stats, state, self.model, w,
                dropout_masks(rng, [m.shape for m in mu_clean], cfg.keep_prob),
                out=self._model_grad)
        else:
            # mean_field_step builds new arrays and never writes its inputs
            state = dhbm.MeanFieldState(v_stats, class_probs)
            for _ in range(cfg.num_steps):
                state = dhbm.mean_field_step(self.model, x, state)
            mu_clean = state.layer_means
            if cfg.estimator == "mf-cd":
                masks = dropout_masks(rng, [m.shape for m in mu_clean], cfg.keep_prob)
                model_grad = estimators.mf_cd_gradients(
                    x, targets, v_stats, dhbm.cond_x(self.model, mu_clean[0]),
                    _masked(mu_clean, masks), state.class_probs, w,
                    out=self._model_grad)
            else:
                model_grad = estimators.sap_gradients(
                    x, targets, v_stats, self.particles, self.model, rng, w,
                    out=self._model_grad)
        # the recognition target is the clean mean-field statistic: drop-out
        # masks perturb only the statistics fed to the model-gradient
        # estimators, a masked target would collapse the network to constants
        rec_grad = recognition.rec_gradients(self.rec, x, mu_clean, w_rec, v,
                                             out=self._rec_grad)
        # the weights carry lr: an ascent step for the model, a descent step
        # for the recognition net, each one pass over the flat vectors
        np.add(self.model.data, model_grad.data, out=self.model.data)
        np.subtract(self.rec.data, rec_grad.data, out=self.rec.data)
        self.labeled_seen += int(np.count_nonzero(lab))
        self.updates += 1
        return {"updated": True, "beta": beta}

    def predict(self, x):
        """Class distribution from the recognition network.

        Hidden statistics are scaled by keep_prob (drop-out expectation), in
        copies made one layer at a time: the unscaled pass is kept for the
        next update() of `x`.
        """
        self._recognized = None     # freed before the new pass, not after
        v = recognition.recognize(self.rec, np.atleast_2d(
            np.asarray(x, dtype=np.float64)))
        self._recognized = (x, v)
        return dhbm.cond_y(self.model, v, scale=self.config.keep_prob)
