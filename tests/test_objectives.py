"""The objective table against the if-chain it replaced.

``reference_step_loss`` below is the reference: one branch per
objective, each building its loss from the public loss functions.  Every
table entry must agree with it bit for bit in the loss, the logged
breakdown row (components and kept fractions) and the gradients that reach
the student's parameters.
"""
import argparse

import numpy as np
import pytest

from vrm import autodiff as ad
from vrm.autodiff import Tensor, backward
from vrm.baselines import angular_relations, gram_inter_class, gram_inter_sample
from vrm.cli import build_parser
from vrm.data import AugmentSpec, virtual_batch
from vrm.errors import ParameterError
from vrm.graphs import LogitBatch
from vrm.losses import VRMWeights, total_loss
from vrm.models import MLP, MLPSpec
from vrm.training import OBJECTIVES, TrainConfig

# -- reference if-chain --------------------------------------------------


def reference_step_loss(objective, model, teacher, xb, yb, xv, config):
    """Returns (loss tensor, breakdown row: components, then kept fractions)."""
    w = config.weights
    if objective == "ce_only":
        loss = ad.cross_entropy(model(xb), yb)
        parts = {"ce_real": loss.item(), "ce_virtual": 0.0, "isv": 0.0, "icv": 0.0}
        return loss, {**parts, "kept_isv_frac": 0.0, "kept_icv_frac": 0.0}

    if objective == "vrm":
        s_batch = LogitBatch(model(xb), model(xv))
        with ad.no_grad():
            t_batch = LogitBatch(Tensor(teacher.logits(xb)), Tensor(teacher.logits(xv)))
        bd = total_loss(s_batch, t_batch, yb, w)
        parts = {"ce_real": bd.ce_real.item(), "ce_virtual": bd.ce_virtual.item(),
                 "isv": bd.isv.item(), "icv": bd.icv.item()}
        b, c = s_batch.batch_size, s_batch.n_classes
        return bd.total, {**parts, "kept_isv_frac": bd.kept_isv / (b * b),
                          "kept_icv_frac": bd.kept_icv / (c * c)}

    s_logits = model(xb)
    with ad.no_grad():
        t_logits = Tensor(teacher.logits(xb))
    ce = ad.cross_entropy(s_logits, yb)

    if objective == "im_kd":
        kl = ad.kld(t_logits, s_logits, w.tau)
        loss = ce + kl * config.im_kd_weight
        parts = {"ce_real": ce.item(), "ce_virtual": 0.0, "isv": kl.item(), "icv": 0.0}
        return loss, {**parts, "kept_isv_frac": 1.0, "kept_icv_frac": 1.0}

    s_soft = ad.softmax(s_logits, axis=1, tau=w.tau)
    with ad.no_grad():
        t_soft = ad.softmax(t_logits, axis=1, tau=w.tau)
    if objective == "gram":
        rel_is = ad.huber(gram_inter_sample(s_soft), gram_inter_sample(t_soft).detach(),
                          w.huber_delta).mean()
        rel_ic = ad.huber(gram_inter_class(s_soft), gram_inter_class(t_soft).detach(),
                          w.huber_delta).mean()
        loss = ce + rel_is * w.alpha + rel_ic * w.beta
        parts = {"ce_real": ce.item(), "ce_virtual": 0.0,
                 "isv": rel_is.item(), "icv": rel_ic.item()}
    elif objective == "angular":
        rel = ad.huber(angular_relations(s_soft), angular_relations(t_soft).detach(),
                       w.huber_delta).mean()
        loss = ce + rel * w.alpha
        parts = {"ce_real": ce.item(), "ce_virtual": 0.0, "isv": rel.item(), "icv": 0.0}
    else:
        raise ParameterError(f"unknown objective {objective!r}")
    return loss, {**parts, "kept_isv_frac": 1.0, "kept_icv_frac": 1.0}


# -- helpers -------------------------------------------------------------


def assert_same_bits(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def evaluate(fn, spec, teacher, xb, yb, xv, config):
    student = MLP(spec)
    loss, row = fn(student, teacher, xb, yb, xv, config)
    backward(loss)
    return loss.data, row, [p.grad for p in student.parameters()]


# -- exactness -----------------------------------------------------------


@pytest.mark.parametrize("objective", list(OBJECTIVES))
@pytest.mark.parametrize("seed,b,c", [(0, 8, 3), (1, 5, 7), (2, 16, 4), (3, 32, 10)])
def test_table_entry_matches_reference_bit_for_bit(objective, seed, b, c):
    rng = np.random.default_rng(seed)
    dim = 6
    weights = VRMWeights(alpha=float(rng.uniform(1, 128)), beta=float(rng.uniform(1, 32)),
                         tau=float(rng.uniform(1, 6)), huber_delta=float(rng.uniform(0.01, 1)),
                         uep_percentile=float(rng.choice([50.0, 95.0, 100.0])))
    augment = AugmentSpec(magnitude=0.3, seed=seed)
    config = TrainConfig(weights=weights, augment=augment, im_kd_weight=float(rng.uniform(0, 2)))
    teacher = MLP(MLPSpec([dim, 16, c], "relu", seed + 100))
    spec = MLPSpec([dim, 8, c], "relu", seed)
    xb = rng.standard_normal((b, dim)) * 2.0
    yb = rng.integers(0, c, size=b)
    xv = virtual_batch(xb, augment, (seed, 0))

    got = evaluate(OBJECTIVES[objective], spec, teacher, xb, yb, xv, config)
    want = evaluate(lambda *args: reference_step_loss(objective, *args),
                    spec, teacher, xb, yb, xv, config)
    assert_same_bits(got[0], want[0])
    assert got[1] == want[1]
    assert list(got[1]) == list(want[1])
    assert len(got[2]) == len(want[2])
    for g_got, g_want in zip(got[2], want[2]):
        assert_same_bits(g_got, g_want)


def test_objective_choices_are_the_table_keys():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices["distill"]._actions if a.dest == "objective")
    assert list(action.choices) == list(OBJECTIVES)
