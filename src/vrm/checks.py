"""Self-verification suites: finite-difference gradient checks for every
differentiable op, oracle-equivalence checks for the vectorized edge
builders and masked losses, and bit-exactness checks of the fused
objective terms against the public composites they replace, and of the
virtual-view kernel against per-row numpy generators.  These back the
``check`` command and double as the release gate."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import _OPS, AugmentSpec, virtual_batch
from .graphs import (
    LogitBatch,
    brute_force_edges,
    build_icv_edges,
    build_inter_class_edges,
    build_inter_sample_edges,
    build_isv_edges,
    soften,
)
from .losses import (VRMWeights, icv_edge_loss, isv_edge_loss, loss_icv, loss_isv,
                     total_loss, uep_masks_for)
from .pruning import joint_entropy_matrix, uep_mask

GRAD_TOL = 1e-4
# the fused ISV and ICV nodes are checked on raw unit-scale views, whose
# large differences keep a central difference from straddling the Huber joint
TERM_GRAD_TOL = 1e-6
ORACLE_TOL = 1e-12


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _grad_case(name, fn, shapes, n_instances, seed, tol=GRAD_TOL) -> CheckResult:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        x = rng.standard_normal(shapes)
        err = ad.finite_diff_check(fn, ad.Tensor(x))
        worst = max(worst, err)
        if not np.isfinite(err):
            worst = np.inf
            break
    passed = worst < tol
    return CheckResult(name, passed, f"max rel err {worst:.3e} (tol {tol:g})")


def gradient_checks(quick: bool = False, seed: int = 0) -> list[CheckResult]:
    n = 3 if quick else 20
    results = []
    results.append(_grad_case(
        "grad:softmax", lambda x: (ad.softmax(x, axis=1, tau=3.0) * ad.Tensor(
            np.random.default_rng(1).standard_normal((4, 5)))).sum(), (4, 5), n, seed))
    results.append(_grad_case(
        "grad:l2_normalize", lambda x: (ad.l2_normalize(x, axis=1) * ad.Tensor(
            np.random.default_rng(2).standard_normal((4, 5)))).sum(), (4, 5), n, seed + 1))
    results.append(_grad_case(
        "grad:huber", lambda x: ad.huber(x, ad.Tensor(np.zeros((3, 4))), 0.7).sum(),
        (3, 4), n, seed + 2))
    results.append(_grad_case(
        "grad:cross_entropy",
        lambda x: ad.cross_entropy(x, np.arange(4) % 3), (4, 3), n, seed + 3))
    results.append(_grad_case(
        "grad:kld", lambda x: ad.kld(ad.Tensor(
            np.random.default_rng(3).standard_normal((4, 5))), x, tau=2.0),
        (4, 5), n, seed + 4))
    results.append(_grad_case(
        "grad:entropy",
        lambda x: ad.entropy(ad.softmax(x, axis=1), axis=1).sum(), (4, 5), n, seed + 5))

    # the ISV and ICV terms as training runs them: one node each from both
    # models' views, under a frozen mask
    b, c = 4, 3
    for offset, kind, node in ((7, "ISV", isv_edge_loss), (8, "ICV", icv_edge_loss)):
        rng = np.random.default_rng(seed + offset)
        worst = 0.0
        for _ in range(n):
            teacher = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
            mask = uep_mask(rng.random((b, b) if kind == "ISV" else (c, c)), 75.0, kind)

            def term(x, teacher=teacher, mask=mask, node=node):
                views = LogitBatch(ad.row_slice(x, 0, b), ad.row_slice(x, b, 2 * b))
                return node(views, teacher, mask, 1.0)[0]

            x = rng.standard_normal((2 * b, c))
            worst = max(worst, ad.finite_diff_check(term, ad.Tensor(x)))
        results.append(CheckResult(
            f"grad:{kind.lower()}_edge_loss", worst < TERM_GRAD_TOL,
            f"max rel err {worst:.3e} (tol {TERM_GRAD_TOL:g})"))

    # full objective with frozen masks
    rng = np.random.default_rng(seed + 6)
    worst = 0.0
    for _ in range(2 if quick else 5):
        b, c = 4, 3
        weights = VRMWeights(alpha=8.0, beta=4.0)
        teacher = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
        base = rng.standard_normal((2 * b, c))
        labels = rng.integers(0, c, size=b)
        frozen = uep_masks_for(LogitBatch(base[:b], base[b:]), weights)

        def objective(x, frozen=frozen):
            student = LogitBatch(ad.row_slice(x, 0, b), ad.row_slice(x, b, 2 * b))
            return total_loss(student, teacher, labels, weights, masks=frozen).total

        worst = max(worst, ad.finite_diff_check(objective, ad.Tensor(base)))
    results.append(CheckResult(
        "grad:total_loss", worst < GRAD_TOL, f"max rel err {worst:.3e} (tol {GRAD_TOL:g})"))
    return results


def oracle_checks(quick: bool = False, seed: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    n = 5 if quick else 50
    results = []
    builders = {
        "IS": lambda lb: build_inter_sample_edges(lb.real),
        "IC": lambda lb: build_inter_class_edges(lb.real),
        "ISV": build_isv_edges,
        "ICV": build_icv_edges,
    }
    for kind, builder in builders.items():
        worst = 0.0
        for _ in range(n):
            b = int(rng.integers(2, 9))
            c = int(rng.integers(2, 6))
            lb = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
            fast = builder(lb).values.data
            source = lb if kind in ("ISV", "ICV") else lb.real
            slow = brute_force_edges(source, kind).values.data
            worst = max(worst, float(np.abs(fast - slow).max()))
        results.append(CheckResult(
            f"oracle:{kind}", worst < ORACLE_TOL, f"max abs dev {worst:.3e}"))

    worst = 0.0
    for _ in range(n):
        b, c = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        lb = soften(LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c))), 4.0)
        je = joint_entropy_matrix(lb, "ISV")
        mask = uep_mask(je, 75.0, "ISV")
        edges_s = build_isv_edges(lb)
        lb2 = soften(LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c))), 4.0)
        edges_t = build_isv_edges(lb2)
        fast = loss_isv(edges_s, edges_t, mask).item()
        slow = _scalar_masked_loss(edges_s.values.data, edges_t.values.data, mask.keep)
        worst = max(worst, abs(fast - slow))
    results.append(CheckResult(
        "oracle:masked_loss", worst < ORACLE_TOL, f"max abs dev {worst:.3e}"))

    # the ISV and ICV terms of total_loss, which training runs, against scalar
    # loops over the scalar-loop edges of both models
    worst = {"ISV": 0.0, "ICV": 0.0}
    weights = VRMWeights()
    for _ in range(n):
        b, c = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        student = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
        teacher = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
        masks = uep_masks_for(student, weights)
        labels = rng.integers(0, c, size=b)
        breakdown = total_loss(student, teacher, labels, weights, masks)
        for kind, fast, mask in (("ISV", breakdown.isv, masks[0]),
                                 ("ICV", breakdown.icv, masks[1])):
            slow = _scalar_masked_loss(
                brute_force_edges(soften(student, weights.tau), kind).values.data,
                brute_force_edges(soften(teacher, weights.tau), kind).values.data,
                mask.keep, weights.huber_delta)
            worst[kind] = max(worst[kind], abs(fast.item() - slow))
    for kind, dev in worst.items():
        results.append(CheckResult(
            f"oracle:total_loss_{kind.lower()}", dev < ORACLE_TOL, f"max abs dev {dev:.3e}"))
    return results


def _scalar_masked_loss(e_s, e_t, keep, delta=1.0):
    total = 0.0
    kept = 0
    n0, n1, fl = e_s.shape
    for i in range(n0):
        for j in range(n1):
            if not keep[i, j]:
                continue
            kept += 1
            for k in range(fl):
                r = e_s[i, j, k] - e_t[i, j, k]
                if abs(r) <= delta:
                    total += 0.5 * r * r
                else:
                    total += delta * (abs(r) - 0.5 * delta)
    return total / (kept * fl) if kept else 0.0


def structure_checks(seed: int = 200) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    z = rng.standard_normal((6, 4))
    e_is = build_inter_sample_edges(z).values.data
    anti = float(np.abs(e_is + e_is.transpose(1, 0, 2)).max())
    results.append(CheckResult("structure:antisymmetry", anti == 0.0,
                               f"max |E[i,j]+E[j,i]| = {anti:.3e}"))

    norms = np.sqrt((e_is * e_is).sum(axis=2))
    ok = np.all((norms == 0.0) | (np.abs(norms - 1.0) < 1e-9))
    results.append(CheckResult("structure:unit_norm", bool(ok),
                               "fibers unit length or exactly zero"))

    counts_ok = True
    for m in (50.0, 75.0, 90.0, 95.0, 100.0):
        je = rng.standard_normal((8, 8))  # distinct values, no threshold ties
        mask = uep_mask(je, m)
        expected = int(np.ceil(m / 100.0 * je.size))
        if mask.kept_count != expected:
            counts_ok = False
    results.append(CheckResult("structure:uep_retention", counts_ok,
                               "nearest-rank retention counts exact"))
    return results


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def exactness_checks(seed: int = 300) -> list[CheckResult]:
    """The fused ISV and ICV terms against :func:`build_isv_edges` /
    :func:`build_icv_edges` followed by :func:`loss_isv` / :func:`loss_icv`,
    and :func:`autodiff._blocked_sum` against ``np.sum``, bit for bit (sign
    bits included), so drift under another numpy shows here.  Each term
    expects the upstream gradient 128 and is differentiated twice, through
    ``loss * 128`` (the gradients its forward formed) and ``loss * 2`` (a
    rerun), as is the composite."""
    rng = np.random.default_rng(seed)
    # the ISV term runs in blocks of 10 rows, the last of which holds one
    b, c = 131, 24
    student, teacher = (soften(LogitBatch(rng.standard_normal((b, c)),
                                          rng.standard_normal((b, c))), 4.0) for _ in range(2))
    masks = uep_masks_for(student, VRMWeights(uep_percentile=95.0))
    results = []
    for kind, term, build, loss, mask in (
            ("isv", isv_edge_loss, build_isv_edges, loss_isv, masks[0]),
            ("icv", icv_edge_loss, build_icv_edges, loss_icv, masks[1])):
        outputs = []
        for fused in (True, False):
            views = LogitBatch(ad.Tensor(student.real.data, requires_grad=True),
                               ad.Tensor(student.virtual.data, requires_grad=True))
            value = (term(views, teacher, mask, 1.0, upstream=128.0)[0] if fused
                     else loss(build(views), build(teacher), mask, 1.0))
            outputs.append([value.data])
            for k in (128.0, 2.0):
                views.real.grad = views.virtual.grad = None
                ad.backward(value * k)
                outputs[-1] += [views.real.grad, views.virtual.grad]
        differ = [name for name, x, y in zip(
                      ("loss", "real grad", "virtual grad", "rerun real grad",
                       "rerun virtual grad"), *outputs) if not _same_bits(x, y)]
        results.append(CheckResult(
            f"exact:{kind}_edge_loss", not differ,
            f"fused and composite differ in {', '.join(differ)}" if differ
            else f"loss and view grads bit-identical (B={b}, C={c}, m=95, g=128 and 2)"))

    # numpy sums 300 values as leaves starting at 0, 72, 144 and 216; the
    # cuts split the second leaf over four chunks and the third over two
    values = rng.standard_normal(300) * 10.0 ** rng.integers(-8, 9, size=300)
    same = _same_bits(ad._blocked_sum(np.split(values, [80, 90, 100, 200]), 300), values.sum())
    results.append(CheckResult("exact:blocked_sum", same, f"bit-identical to np.sum: {same}"))

    # virtual views at the vrm_desk and vrm_wide batch shapes, a seed of two words
    spec = AugmentSpec(n_ops=2, magnitude=0.3, seed=2**32 + 3)
    differ = []
    for shape in ((32, 16), (128, 32)):
        xb = rng.standard_normal(shape)
        if not _same_bits(virtual_batch(xb, spec, (5, 7)), _reference_views(xb, spec, (5, 7))):
            differ.append(f"B={shape[0]}, D={shape[1]}")
    return results + [CheckResult(
        "exact:virtual_batch", not differ,
        f"kernel and per-row generators differ at {'; '.join(differ)}" if differ
        else "bit-identical to per-row default_rng and Generator.choice (B=32 and 128)")]


def _reference_views(xb, spec: AugmentSpec, step_key) -> np.ndarray:
    """Row i of :func:`virtual_batch` from its own ``default_rng((spec.seed,
    *step_key, i))``, its op picks from ``Generator.choice``, and the ops
    applied to the row alone.  The kernel replays numpy's seeding and
    ``choice`` on its own, so a numpy that changes either shows here."""
    out = np.array(xb, dtype=np.float64)
    for i, row in enumerate(out):
        rng = np.random.default_rng([spec.seed, *step_key, i])
        view = row[None, :].copy()
        for op_idx in rng.choice(len(spec.op_pool), size=spec.n_ops, replace=False):
            draw, apply = _OPS[spec.op_pool[op_idx]]
            drawn = draw(rng, len(row))
            if drawn is not None:
                view = apply(view, spec.magnitude, *(np.array([d]) for d in drawn))
        out[i] = view[0]
    return out


def run_all_checks(quick: bool = False) -> list[CheckResult]:
    return gradient_checks(quick) + oracle_checks(quick) + structure_checks() + exactness_checks()
