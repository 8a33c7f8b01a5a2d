"""Self-verification suites: finite-difference gradient checks for every
differentiable op, oracle-equivalence checks for the vectorized edge
builders and masked losses, checks of the fused objective terms against
the public composites they replace within a derived rounding bound, and
bit-exactness checks of the virtual-view kernel against per-row numpy
generators and of the screened ISV UEP mask against the float64 grid's.
These back the ``check`` command and double as the release gate."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import _OPS, AUGMENT_OPS, AugmentSpec, virtual_batch
from .graphs import (
    LogitBatch,
    brute_force_edges,
    build_icv_edges,
    build_inter_class_edges,
    build_inter_sample_edges,
    build_isv_edges,
    relation_items,
    soften,
)
from .losses import (_CANCEL, _SLACK, VRMWeights, _cleared, _cos_error, _gathered_screen,
                     _quadratic, _screen_limit, icv_edge_loss, isv_edge_loss, loss_icv, loss_isv,
                     total_loss, uep_masks_for)
from .pruning import (_LOG_ULPS, _band_select, _entropy_grid32, _grid_inputs,
                      _mixture_entropy_grid, _nearest_rank, _screen_error, _screened_mask,
                      joint_entropy_matrix, uep_mask)

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


def _grad_case(name, fn, shapes, n_instances, seed) -> CheckResult:
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        x = rng.standard_normal(shapes)
        worst = max(worst, ad.finite_diff_check(fn, ad.Tensor(x)))
    return CheckResult(name, worst < GRAD_TOL, f"max rel err {worst:.3e} (tol {GRAD_TOL:g})")


def gradient_checks(quick: bool = False) -> list[CheckResult]:
    n = 3 if quick else 20
    results = []
    results.append(_grad_case(
        "grad:softmax", lambda x: (ad.softmax(x, axis=1, tau=3.0) * ad.Tensor(
            np.random.default_rng(1).standard_normal((4, 5)))).sum(), (4, 5), n, 0))
    results.append(_grad_case(
        "grad:l2_normalize", lambda x: (ad.l2_normalize(x, axis=1) * ad.Tensor(
            np.random.default_rng(2).standard_normal((4, 5)))).sum(), (4, 5), n, 1))
    results.append(_grad_case(
        "grad:huber", lambda x: ad.huber(x, ad.Tensor(np.zeros((3, 4))), 0.7).sum(),
        (3, 4), n, 2))
    results.append(_grad_case(
        "grad:cross_entropy",
        lambda x: ad.cross_entropy(x, np.arange(4) % 3), (4, 3), n, 3))
    results.append(_grad_case(
        "grad:kld", lambda x: ad.kld(ad.Tensor(
            np.random.default_rng(3).standard_normal((4, 5))), x, tau=2.0),
        (4, 5), n, 4))

    # the ISV and ICV terms as training runs them: one node each from both
    # models' views, under a frozen mask
    b, c = 4, 3
    for offset, kind, node in ((7, "ISV", isv_edge_loss), (8, "ICV", icv_edge_loss)):
        rng = np.random.default_rng(offset)
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
    rng = np.random.default_rng(6)
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


def oracle_checks(quick: bool = False) -> list[CheckResult]:
    rng = np.random.default_rng(100)
    n = 5 if quick else 50
    results = []
    builders = {"IS": build_inter_sample_edges, "IC": build_inter_class_edges,
                "ISV": build_isv_edges, "ICV": build_icv_edges}
    for kind, builder in builders.items():
        worst = 0.0
        for _ in range(n):
            b = int(rng.integers(2, 9))
            c = int(rng.integers(2, 6))
            lb = LogitBatch(rng.standard_normal((b, c)), rng.standard_normal((b, c)))
            source = lb if kind in ("ISV", "ICV") else lb.real
            fast = builder(source).values.data
            slow = brute_force_edges(source, kind).values.data
            worst = np.maximum(worst, np.abs(fast - slow).max())
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
        worst = np.maximum(worst, abs(fast - slow))
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
            worst[kind] = np.maximum(worst[kind], abs(fast.item() - slow))
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


def structure_checks() -> list[CheckResult]:
    rng = np.random.default_rng(200)
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
        expected = _nearest_rank(m, je.size)
        if mask.kept_count != expected:
            counts_ok = False
    results.append(CheckResult("structure:uep_retention", counts_ok,
                               "nearest-rank retention counts exact"))
    return results


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _gamma(k):
    u = 2.0 ** -53
    return k * u / (1.0 - k * u)


def _kappas(R, V, P, N):
    """Each fiber's squared norms ns^2 and nt^2, summed from its
    differences, and kappa_s and kappa_t (see
    :func:`losses._relation_term`), inf or NaN where a norm is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ns2, nt2 = (((hi[None] - lo[:, None]) ** 2).sum(axis=2) for hi, lo in ((R, V), (P, N)))
        k_s = ((R * R).sum(axis=1) + (V * V).sum(axis=1)[:, None]) / ns2
        k_t = ((P * P).sum(axis=1) + (N * N).sum(axis=1)[:, None]) / nt2
    return ns2, nt2, k_s, k_t


def _cos_bound(k_s, k_t, length):
    """e_f, a quadratic fiber's bound on the rounding error of its cos,
    2 gamma_(L+3) (kappa_s + kappa_t) + 6u."""
    return 2.0 * _gamma(length + 3) * (k_s + k_t) + 6.0 * 2.0 ** -53


def term_bound(kind: str, views, teacher, mask):
    """Bounds on how far the fused ISV or ICV term and the public composite
    can part, for ``views`` against ``teacher``: a function of the loss
    bounding its deviation, and a bound on each entry of the view
    gradients per unit of upstream gradient.  On the rows of
    :func:`losses._relation_term` (n rows, fiber length L), to first order
    and then doubled:

    * A fiber with kappa_s, kappa_t < 2/c may be quadratic.  Its penalty
      is then within e_f, its W within delta_W = (eps_s + eps_t)/2 + 5u
      and Z within (e_f + eps_s + eps_t + 10u) scale / ns^2, and the
      products add gamma_(n+5) of their terms' moduli.  As |P[j, k]| +
      |N[i, k]| <= sqrt(2 kappa_t) nt (R, V alike), it moves an entry of
      its rows' gradients by at most scale / ns ((gamma_(n+5) + delta_W)
      sqrt(2 kappa_t) + (gamma_(n+5) + e_f + eps_s + eps_t + 10u)
      sqrt(2 kappa_s)).
    * Each side forms a kept fiber's penalty within 5 gamma_(L+4), an
      entry of a live fiber's gradient within 16 gamma_(2L+10) scale / ns,
      and adds it within gamma_(n+1) 4 scale / ns; the penalty sums are
      within gamma_(n^2 + kept L) of the loss.
    """
    R, V, P, N = relation_items(kind, *(getattr(x, "data", x) for x in (
        views.real, views.virtual, teacher.real, teacher.virtual)))
    n, length = R.shape
    keep = np.ones((n, n), dtype=bool) if mask is None else mask.keep
    scale, u = 1.0 / (keep.sum() * length), 2.0 ** -53
    ns2, nt2, k_s, k_t = _kappas(R, V, P, N)
    with np.errstate(divide="ignore"):
        inv_s = np.where(keep & (ns2 >= ad.DEFAULT_NORM_EPS ** 2), scale / np.sqrt(ns2), 0.0)
    quad = (inv_s > 0.0) & (nt2 > 0.0) & (np.maximum(k_s, k_t) < 2.0 / _CANCEL)
    k_s, k_t = np.where(quad, k_s, 0.0), np.where(quad, k_t, 0.0)
    eps = 2.0 * _gamma(length + 2) * (k_s + k_t)
    e_f = quad * _cos_bound(k_s, k_t, length)
    per_entry = inv_s * ((_gamma(n + 5) + eps / 2.0 + 5.0 * u) * np.sqrt(2.0 * k_t)
                         + (_gamma(n + 5) + e_f + eps + 10.0 * u) * np.sqrt(2.0 * k_s)
                         + 32.0 * _gamma(2 * length + 10) + 8.0 * _gamma(n + 1))
    g_real, g_virtual = 2.0 * per_entry.sum(axis=0)[:, None], 2.0 * per_entry.sum(axis=1)[:, None]
    value = keep.sum() * 10.0 * _gamma(length + 4) + e_f.sum()
    return (lambda loss: 2.0 * (scale * value + _gamma(n * n + keep.sum() * length) * loss),
            *relation_items(kind, g_real, g_virtual))


def match_checks() -> list[CheckResult]:
    """The fused ISV and ICV terms against :func:`build_isv_edges` /
    :func:`build_icv_edges` followed by :func:`loss_isv` / :func:`loss_icv`:
    the loss and both view gradients must agree within :func:`term_bound`.
    Each term expects the upstream gradient 128 and is differentiated
    twice, through ``loss * 128`` (the gradients its forward formed) and
    ``loss * 2`` (a rerun), as is the composite.  Two views of one sample
    agree, so a dead fiber takes the exact path, and a second delta of 0.1
    puts some residuals past it."""
    rng = np.random.default_rng(300)
    b, c = 131, 24
    logits = [rng.standard_normal((b, c)) for _ in range(4)]
    logits[1][5] = logits[0][5]
    student, teacher = soften(LogitBatch(*logits[:2]), 4.0), soften(LogitBatch(*logits[2:]), 4.0)
    masks = uep_masks_for(student, VRMWeights(uep_percentile=95.0))
    results = []
    for kind, term, build, loss, mask in (
            ("ISV", isv_edge_loss, build_isv_edges, loss_isv, masks[0]),
            ("ICV", icv_edge_loss, build_icv_edges, loss_icv, masks[1])):
        value_bound, g_real, g_virtual = term_bound(kind, student, teacher, mask)
        worst, differ = 0.0, []
        for delta in (1.0, 0.1):
            outputs = []
            for fused in (True, False):
                views = LogitBatch(ad.Tensor(student.real.data, requires_grad=True),
                                   ad.Tensor(student.virtual.data, requires_grad=True))
                value = (term(views, teacher, mask, delta, upstream=128.0)[0] if fused
                         else loss(build(views), build(teacher), mask, delta))
                outputs.append([value.data])
                for k in (128.0, 2.0):
                    views.real.grad = views.virtual.grad = None
                    ad.backward(value * k)
                    outputs[-1] += [views.real.grad, views.virtual.grad]
            bounds = (value_bound(abs(float(outputs[1][0]))), 128.0 * g_real, 128.0 * g_virtual,
                      2.0 * g_real, 2.0 * g_virtual)
            for name, x, y, bound in zip(("loss", "real grad", "virtual grad", "rerun real grad",
                                          "rerun virtual grad"), *outputs, bounds):
                gap = np.abs(x - y)
                ratio = float(np.max(np.divide(gap, bound, out=np.zeros_like(gap), where=gap != 0)))
                worst = max(worst, ratio)
                if not ratio <= 1.0 and name not in differ:
                    differ.append(name)
        results.append(CheckResult(
            f"match:{kind.lower()}_edge_loss", not differ,
            f"fused and composite differ past the bound in {', '.join(differ)}" if differ
            else f"loss and view grads within {worst:.2g} of the bound "
                 f"(B={b}, C={c}, m=95, delta=1 and 0.1, g=128 and 2)"))
    return results


def exactness_checks() -> list[CheckResult]:
    """The virtual-view kernel's vectorized apply against the per-row
    apply, bit for bit (sign bits included); then the screened ISV mask
    (:func:`_uep_mask_check`) and the relation term's screen
    (:func:`_relation_screen_check`)."""
    rng = np.random.default_rng(300)
    # virtual views at the vrm_desk and vrm_wide batch shapes, a seed of two words
    spec = AugmentSpec(n_ops=2, magnitude=0.3, seed=2**32 + 3)
    differ = []
    for shape in ((32, 16), (128, 32)):
        xb = rng.standard_normal(shape)
        if not _same_bits(virtual_batch(xb, spec, (5, 7)), _reference_views(xb, spec, (5, 7))):
            differ.append(f"B={shape[0]}, D={shape[1]}")
    return [CheckResult(
        "exact:virtual_batch", not differ,
        f"vectorized and per-row apply differ at {'; '.join(differ)}" if differ
        else "vectorized apply bit-identical to the per-row apply (B=32 and 128)"),
        _uep_mask_check(rng), _relation_screen_check(rng)]


def _uep_mask_check(rng) -> CheckResult:
    """The ISV mask from the float32 screen against ``uep_mask`` of
    ``joint_entropy_matrix``: keep and threshold_value bit for bit (sign
    bits included), at B=128, C=32 and B=131, C=24, for m = 50, 95 and
    100, on plain rows, exactly duplicated rows and near-tied rows.

    Two more parts test the screen's bound e itself.  The float32 grid
    must lie within :func:`_entropy_error`, each entry's bound under the
    error model of :func:`pruning._screen_error`, which e must cover.  And
    the band selection must give the float64 mask from a stand-in grid
    with every entry pushed nearly e toward the far side of the cutoff."""
    faults, worst = [], 0.0
    for b, c in ((128, 32), (131, 24)):
        e = _screen_error(c)
        for rows, jitter in (("plain", None), ("duplicated", 0.0), ("near-tied", 1e-12)):
            # logits of unit scale after tau = 4, like a trained student's
            logits = [4.0 * rng.standard_normal((b, c)) for _ in range(2)]
            if jitter is not None:
                for view in logits:
                    view[1::9] = view[0] + jitter * rng.standard_normal(view[1::9].shape)
            P, Q = _grid_inputs(soften(LogitBatch(*logits), 4.0), "ISV")
            je = _mixture_entropy_grid(P, Q)
            bound = _entropy_error(je, P, Q)
            approx = _entropy_grid32(P.astype(np.float32), Q.astype(np.float32))
            worst = np.maximum(worst, (np.abs(approx - je) / bound).max())
            if not bound.max() <= e:
                faults.append(f"e below an entry's bound at {b}x{c} {rows}")
            for m in (50.0, 95.0, 100.0):
                rank = _nearest_rank(m, je.size)
                want = uep_mask(je, m, "ISV")
                pushed = je + np.where(je <= want.threshold_value, e, -e) * (1.0 - 2.0 ** -10)
                for how, got in (("screen", _screened_mask(P, Q, rank)),
                                 ("band", _band_select(pushed, e, rank,
                                                       lambda r, k: je[np.ix_(r, k)]))):
                    if got is None or not (np.array_equal(got[0], want.keep) and _same_bits(
                            np.float64(got[1]), np.float64(want.threshold_value))):
                        faults.append(f"{how} mask differs at {b}x{c} {rows} m={m:g}")
    if faults:
        detail = "; ".join(faults[:3]) + (f" (and {len(faults) - 3} more)" if faults[3:] else "")
    elif not worst <= 1.0:
        detail = f"float32 grid {worst:.3g} times its error bound from the float64 one"
    else:
        detail = (f"bit-identical at B=128 and 131, m=50, 95 and 100, on tied and near-tied "
                  f"rows; float32 grid within {worst:.2g} of its bound")
    return CheckResult("exact:uep_mask", not faults and worst <= 1.0, detail)


def _relation_screen_check(rng) -> CheckResult:
    """The relation term's screen of the fibers the L2 bound leaves
    against the same screen of every quadratic fiber: the flags bit for
    bit, on the ISV and ICV rows of B=131, C=24 and B=128, C=32 views of
    a student near its teacher, at delta 1, 0.3 and 0.05.
    Each view's diagonal fibers are set on the edges: within a few ulps of
    the clearing threshold T = limit - _SLACK, T + _SLACK / 4, within a
    few float32 ulps of the screen's limit, and near cancellation at T +
    0.3 e / T (:func:`_screen_fibers`).

    A second part tests the clearing rule against its error model on
    those fibers.  Take each quadratic fiber's true cos to be nearly its
    e_f (:func:`_cos_bound`, from its kappas) below the computed one, and
    its float32 screen value nearly _SLACK past sqrt(2 - 2 cos) of that
    cos: no fiber :func:`losses._cleared` clears may then reach the limit."""
    faults, counts, near = [], np.zeros(3, dtype=int), [0, 0]
    for b, c in ((131, 24), (128, 32)):
        for kind in ("ISV", "ICV"):
            for delta in (1.0, 0.3, 0.05):
                where = f"{kind} {b}x{c} delta={delta:g}"
                rows, threshold = _screen_fibers(rng, kind, b, c, delta)
                length = rows[0].shape[1]
                s, t, quad, inv, cos = _quadratic(*rows, None)
                limit = _screen_limit(delta)
                cleared = quad & _cleared(cos, limit, length)
                flagged = _gathered_screen(s, t, inv, np.flatnonzero(quad), limit)
                left = _gathered_screen(s, t, inv, np.flatnonzero(quad & ~cleared), limit)
                if not np.array_equal(left, flagged):
                    faults.append(f"flags of the fibers left differ at {where}")
                counts += cleared.sum(), (quad & ~cleared).sum(), len(flagged)
                # the diagonal's distance from T, in ulps of T
                bound = np.sqrt(np.maximum(2.0 - 2.0 * cos.diagonal() + 2.0 * _cos_error(length),
                                           0.0))
                ulps = (bound - threshold) / np.spacing(threshold)
                near[0] += int(((ulps >= -4) & (ulps <= 0)).sum())
                near[1] += int(((ulps > 0) & (ulps <= 4)).sum())
                # the stand-in: true cos e_f (1 - 2^-10) lower, screen _SLACK (1 - 2^-26) higher
                _, _, k_s, k_t = _kappas(*rows)
                true_cos = cos - _cos_bound(k_s, k_t, length) * (1.0 - 2.0 ** -10)
                reach = (np.sqrt(np.maximum(2.0 - 2.0 * true_cos, 0.0))
                         + _SLACK * (1.0 - 2.0 ** -26))
                if (cleared & (reach > limit)).any():
                    faults.append(f"a cleared fiber's stand-in reaches the limit at {where}")
    if not min(near):
        faults.append(f"{near[0]} and {near[1]} fibers within 4 ulps below and above T")
    if faults:
        detail = "; ".join(faults[:3]) + (f" (and {len(faults) - 3} more)" if faults[3:] else "")
    else:
        detail = (f"bit-identical at B=131 and 128, ISV and ICV, delta=1, 0.3 and 0.05 "
                  f"({counts[0]} fibers cleared, {counts[1]} left, {counts[2]} flagged; "
                  f"{near[0]} and {near[1]} within 4 ulps below and above T); "
                  f"no stand-in of a cleared fiber reaches the limit")
    return CheckResult("exact:relation_screen", not faults, detail)


def _screen_fibers(rng, kind, b, c, delta):
    """The rows R, V, P, N of ``kind`` for softened [b, c] views of a
    student near its teacher, with their diagonal fibers set in turn:
    three of every eight within 4 ulps of the clearing threshold T, one at
    T + _SLACK / 4, one near cancellation (kappa near 0.87 / c) at T + 0.3
    e / T, two within 4 float32 ulps of the screen's limit with y - u on a
    single axis, and one as drawn.  Returns the rows and T."""
    teacher = [4.0 * rng.standard_normal((b, c)) for _ in range(2)]
    student = [x + 0.3 * rng.standard_normal((b, c)) for x in teacher]
    views = [soften(LogitBatch(*x), 4.0) for x in (student, teacher)]
    R, V, P, N = (np.array(x) for x in relation_items(kind, *(
        y.data for v in views for y in (v.real, v.virtual))))
    length = R.shape[1]
    limit, e = float(_screen_limit(delta)), _cos_error(length)
    threshold = limit - _SLACK
    for i in range(len(R)):
        part, k = i % 8, (i // 8) % 9 - 4
        # the target |y - u|_2 and each difference's norm
        scale_s, scale_t = np.linalg.norm(R[i]), np.linalg.norm(P[i])
        if part < 3:
            norm = np.sqrt((threshold * (1.0 + k * 2.0 ** -52)) ** 2 - 2.0 * e)
        elif part == 3:
            norm = np.sqrt((threshold + _SLACK / 4.0) ** 2 - 2.0 * e)
        elif part == 4:
            norm = np.sqrt((threshold + 0.3 * e / threshold) ** 2 - 2.0 * e)
            scale_s, scale_t = np.sqrt(2.3 * _CANCEL) * scale_s, np.sqrt(2.3 * _CANCEL) * scale_t
        elif part < 7:
            norm = limit * (1.0 + k * 2.0 ** -23)
        else:
            continue
        # unit y and u with y - u = norm on axis a: (m + x e_a) and (m - x e_a), m _|_ e_a
        a, x = i % length, norm / 2.0
        m = rng.standard_normal(length)
        m[a] = 0.0
        m *= np.sqrt(1.0 - x * x) / np.linalg.norm(m)
        y, u = m.copy(), m.copy()
        y[a] += x
        u[a] -= x
        V[i], N[i] = R[i] - scale_s * y, P[i] - scale_t * u
    return (R, V, P, N), threshold


def _entropy_error(je, P, Q):
    """Each entry's bound on |JE32 - JE64| under the error model of
    :func:`pruning._screen_error`, 2 sum_u ((k u + gamma_C) A + k u S), k =
    2 * 16 ulp + 2, at the entry's own A (its entropy, as no mixture
    entry exceeds 1 by more than rounding) and S (its mixture's sum)."""
    c, k = P.shape[1], 2 * _LOG_ULPS + 2
    s = (P.sum(axis=1)[None, :] + Q.sum(axis=1)[:, None]) / 2.0
    return 2.0 * sum((k * u + c * u / (1.0 - c * u)) * np.abs(je) + k * u * s
                     for u in (2.0 ** -24, 2.0 ** -53))


def _reference_views(xb, spec: AugmentSpec, step_key) -> np.ndarray:
    """Row i of :func:`virtual_batch` from its own ``default_rng((spec.seed,
    *step_key, i))``, its op picks from ``Generator.choice``, and the ops
    applied to the row alone.  The kernel draws from the same generators
    but applies each op to all the rows that drew it at once, so this
    checks the vectorized apply against the per-row one."""
    out = np.array(xb, dtype=np.float64)
    for i, row in enumerate(out):
        rng = np.random.default_rng([spec.seed, *step_key, i])
        view = row[None, :].copy()
        for op_idx in rng.choice(len(AUGMENT_OPS), size=spec.n_ops, replace=False):
            draw, apply = _OPS[AUGMENT_OPS[op_idx]]
            drawn = np.zeros((1, len(row) + 2))
            if draw(rng, len(row), drawn[0]):
                view = apply(view, spec.magnitude, drawn)
        out[i] = view[0]
    return out


def run_all_checks(quick: bool = False) -> list[CheckResult]:
    return (gradient_checks(quick) + oracle_checks(quick) + structure_checks()
            + match_checks() + exactness_checks())
