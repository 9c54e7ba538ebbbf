"""Single-parameter-update orchestration: one weighted pass per batch of
recognition, pseudo-labeling, mean-field, the model kind's estimator, model
and recognition-net steps, with drop-out masking, beta annealing, and
prediction.  Learner holds what the hybrids' Trainer shares with the
baseline MLP, the update prologue among it.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from . import dhbm, dhda, estimators, recognition
from .numerics import (as_rows, check_fields, constant, cut_masks, one_hot,
                       row_targets, weighted_rows)

# the hybrid model kinds, each the model with the one procedure it trains
# by: the DHBM with MF-CD or with SAP, and the DHDA with MF-BP
KINDS = ("dhbm-mf", "dhbm-sap", "dhda")


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
    beta_f: float = 0.1
    num_steps: int = 1
    keep_prob: float = 0.5
    corruption_p: float = 0.15
    n_particles: int = 10
    anneal: bool = False
    t1: float = 3.0
    t2: float = 300.0
    labeled_epoch_size: int = 1000

    def __post_init__(self):
        # a float count would reach range(), any non-empty string would switch
        # annealing on, and a NaN or an infinite lr or beta would reach every
        # parameter in one step
        check_fields(self, lr=0, beta_f=0, num_steps=1, n_particles=1)
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError("keep_prob must lie in (0, 1]")
        if self.t1 > self.t2:
            raise ValueError("t1 must not exceed t2")
        if self.anneal and self.labeled_epoch_size < 1:
            raise ValueError("labeled_epoch_size must be >= 1 when annealing")
        if not 0.0 <= self.corruption_p <= 1.0:
            raise ValueError("corruption_p must lie in [0, 1]")


class Learner:
    """What both model families share: the config and generator, keep_prob
    as a 0-d operand, the labeled rows seen (which anneal beta), the passes
    of the last predict, kept for the next update of its batch, and the
    update prologue.  Trainer and baseline.MlpPseudoLabelModel each define
    their own predict, update and param_vectors.

    Not safe for concurrent calls on the same instance.
    """

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng
        # the drop-out masks' compare operand and predict's scale
        self.keep_prob = constant(config.keep_prob)
        self.labeled_seen = 0
        self.updates = 0
        # (weak reference to x, passes) of the last predict, until the next
        # update
        self._kept = None

    def current_beta(self):
        if not self.config.anneal:
            return self.config.beta_f
        t = self.labeled_seen / self.config.labeled_epoch_size
        return beta_schedule(t, self.config.t1, self.config.t2, self.config.beta_f)

    def _keep(self, x, *passes):
        """Keep the passes of a predict over batch `x` for the next update,
        behind a weak reference to `x`, so that they keep alive no batch
        its caller has dropped; none when `x` takes no weak reference, as a
        list does."""
        try:
            self._kept = (weakref.ref(x), passes)
        except TypeError:
            self._kept = None

    def _rows(self, x, labels):
        """The update prologue: (rows, labels, lab, w, beta, passes) of
        weighted_rows over batch `x` at the current beta, its labeled rows
        counted, or None when it keeps no row.  `passes` are the last
        predict's when `x` is the array object it was given (and not written
        since) and every row is kept, else None; they are dropped either
        way."""
        kept, self._kept = self._kept, None
        whole = as_rows(x)
        beta = self.current_beta()
        rows, labels, lab, w, n_lab = weighted_rows(
            whole, np.asarray(labels), self.config.lr, beta)
        if len(rows) == 0:
            return None
        self.labeled_seen += n_lab
        self.updates += 1
        same = kept is not None and kept[0]() is x and rows is whole
        return rows, labels, lab, w, beta, kept[1] if same else None


class Trainer(Learner):
    """Owns a hybrid model of one of KINDS, its recognition co-network and
    update state."""

    def __init__(self, kind, model, config, rng):
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        super().__init__(config, rng)
        self.kind = kind
        self.model = model
        self.corruption_p = constant(config.corruption_p)
        self.rec = recognition.init_from_model(model)
        self.particles = None
        if kind == "dhbm-sap":
            self.particles = estimators.FantasyParticles.initialize(
                model, config.n_particles, rng)

    def param_vectors(self):
        return [self.model.data, self.rec.data]

    def update(self, x, labels):
        """One Algorithm-1 step over a batch: one recognition-net step, one
        model step.

        `labels` holds a class index per row of `x`, negative where the row
        is unlabeled.  The rows of weighted_rows train toward their
        row_targets with their weights, so the model ascends and the
        recognition net descends (labeled mean) + beta * (unlabeled mean).
        At beta 0 the unlabeled rows are left out: every pass and draw below
        covers the kept rows only.  The weights carry lr, and the
        recognition net's are negated: each gradient function gets its
        net's own parameters as `out` and adds the step into them inside its
        products.  An update that keeps no row changes nothing, draws
        nothing, and the report says so.  The recognition pass of the last
        predict() stands in for the update's own when the prologue (_rows)
        hands it on.
        """
        taken = self._rows(x, labels)
        if taken is None:
            return {"updated": False, "beta": None}
        x, labels, lab, w, beta, passes = taken
        v = recognition.recognize(self.rec, x) if passes is None else passes[0]
        cfg, rng = self.config, self.rng
        # every mask of the step is cut from one draw, as nothing draws
        # between them: a drop-out group for the statistics, MF-CD's second
        # for its mean-field statistics, and the DHDA's corruption keep-masks
        # and a second group for its deltas; no drop-out group at keep_prob 1
        dropout = ([([s.shape for s in v], self.keep_prob, False)]
                   if cfg.keep_prob < 1.0 else [])
        if self.kind == "dhda":
            corruption = (dhda.keep_shapes(self.model, len(x), cfg.num_steps),
                          self.corruption_p, True)
            groups = dropout + [corruption] + dropout
        else:
            groups = dropout * 2 if self.kind == "dhbm-mf" else dropout
        masks = iter(cut_masks(rng, groups) if groups else ())
        stat_masks = next(masks) if dropout else None
        keep = next(masks) if self.kind == "dhda" else None
        second_masks = next(masks, None)
        v_stats = _masked(v, stat_masks)
        class_probs = dhbm.cond_y(self.model, v_stats)
        targets = one_hot(row_targets(labels, lab, class_probs), self.model.n_classes)
        if self.kind == "dhda":
            state = dhda.dhda_forward(self.model, x, v_stats, keep)
            mu_clean = state.hidden
            estimators.mf_bp_gradients(
                x, targets, v_stats, state, self.model, w, second_masks,
                out=self.model)
        else:
            # mean_field_step builds new arrays and never writes its inputs.
            # SAP reads the layer means only, so its last step holds y where
            # it is: the same means, without a posterior that nothing reads.
            # x and the parameters hold still over the steps, so x W_1' is
            # formed once for all of them
            state = dhbm.MeanFieldState(v_stats, class_probs)
            x_product = x.dot(self.model.layers[0].W.T)
            for step in range(cfg.num_steps):
                hold = self.kind == "dhbm-sap" and step == cfg.num_steps - 1
                state = dhbm.mean_field_step(
                    self.model, x, state, state.class_probs if hold else None,
                    x_product)
            mu_clean = state.layer_means
            if self.kind == "dhbm-mf":
                estimators.mf_cd_gradients(
                    x, targets, v_stats, dhbm.cond_x(self.model, mu_clean[0]),
                    _masked(mu_clean, second_masks), state.class_probs, w,
                    out=self.model)
            else:
                estimators.sap_gradients(
                    x, targets, v_stats, self.particles, self.model, rng, w,
                    out=self.model)
        # the recognition target is the clean mean-field statistic: drop-out
        # masks perturb only the statistics fed to the model-gradient
        # estimators, a masked target would collapse the network to
        # constants.  Negated weights make the step a descent step, to the
        # bit the subtraction of the gradient
        recognition.rec_gradients(self.rec, x, mu_clean, -w, v, out=self.rec)
        return {"updated": True, "beta": beta}

    def predict(self, x):
        """Class distribution from the recognition network.

        Hidden statistics are scaled by keep_prob (drop-out expectation) in
        cond_y's one joined copy of them: the unscaled pass is kept for the
        next update() of `x` (_keep).
        """
        self._kept = None     # freed before the new pass, not after
        v = recognition.recognize(self.rec, as_rows(x))
        self._keep(x, v)
        return dhbm.cond_y(self.model, v, scale=self.keep_prob)
