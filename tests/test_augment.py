"""The batched virtual-view kernel against the per-sample reference it
replaced: same generator per sample, same draws, same bits.  The kernel
draws each row from its own ``np.random.default_rng`` on the row's seed
words, then applies each op to every row that drew it at once; the
reference seeds from the list of key parts and applies one op to one
sample at a time."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrm.data
from vrm.cli import EXIT_PROPERTY, main
from vrm.data import (AUGMENT_OPS, AugmentSpec, _row_norms, _seed_words, draw_plan,
                      virtual_batch, virtual_view)
from vrm.errors import ParameterError
from vrm.models import MLP, MLPSpec
from vrm.training import TrainConfig, _drawn_ahead, teacher_side


# -- reference: one generator and one op at a time, per sample ------------


def ref_apply_op(name, x, magnitude, rng):
    norm = float(np.linalg.norm(x))
    budget = magnitude * (norm + 1.0)
    if name == "gaussian_noise":
        g = rng.standard_normal(x.shape)
        g_norm = np.linalg.norm(g)
        if g_norm == 0.0:
            return x
        return x + (budget * rng.uniform()) * (g / g_norm)
    if name == "feature_dropout":
        k = max(1, x.size // 4)
        idx = rng.choice(x.size, size=k, replace=False)
        out = x.copy()
        out[idx] *= 1.0 - magnitude
        return out
    if name == "random_scale":
        return x * (1.0 + magnitude * rng.uniform(-1.0, 1.0))
    if name == "random_shift":
        shift = magnitude * rng.uniform(-1.0, 1.0) * (norm + 1.0) / np.sqrt(x.size)
        return x + shift
    raise ParameterError(f"unknown augment op {name!r}")


def ref_virtual_view(x, spec, per_sample_seed):
    x = np.asarray(x, dtype=np.float64)
    if spec.n_ops == 0:
        return x.copy()
    seed_parts = [spec.seed]
    if np.iterable(per_sample_seed):
        seed_parts.extend(int(s) for s in per_sample_seed)
    else:
        seed_parts.append(int(per_sample_seed))
    rng = np.random.default_rng(seed_parts)
    chosen = rng.choice(len(AUGMENT_OPS), size=spec.n_ops, replace=False)
    out = x
    for op_idx in chosen:
        out = ref_apply_op(AUGMENT_OPS[op_idx], out, spec.magnitude, rng)
    return out


def ref_virtual_batch(xb, spec, step_key):
    return np.stack([ref_virtual_view(xb[i], spec, (*step_key, i))
                     for i in range(xb.shape[0])])


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


BIG = 2**32


def random_case(rng):
    n_ops = int(rng.integers(0, len(AUGMENT_OPS) + 1))
    magnitude = float(rng.choice([0.0, 1.0, rng.uniform()]))
    seed = int(rng.choice([0, BIG + 5, 3 * BIG**2, rng.integers(0, 1000)]))
    key = tuple(int(rng.choice([0, BIG, BIG + 7, rng.integers(0, 100)]))
                for _ in range(rng.integers(0, 3)))
    return AugmentSpec(n_ops, magnitude, seed), key


@pytest.mark.parametrize("case_seed", range(12))
def test_virtual_batch_matches_per_sample_reference(case_seed):
    rng = np.random.default_rng(case_seed)
    for _ in range(15):
        b, d = int(rng.integers(1, 41)), int(rng.integers(1, 34))
        spec, key = random_case(rng)
        xb = rng.standard_normal((b, d)) * rng.uniform(0.01, 10.0)
        xb[rng.integers(0, b)] = 0.0   # a zero row: norm 0, signed zeros
        assert_same_bits(virtual_batch(xb, spec, key), ref_virtual_batch(xb, spec, key))


@pytest.mark.parametrize("magnitude", [0.0, 1.0])
def test_each_op_alone_matches_reference(magnitude):
    rng = np.random.default_rng(7)
    xb = rng.standard_normal((40, 33))
    spec = AugmentSpec(n_ops=1, magnitude=magnitude, seed=BIG + 1)
    rows_per_op = 0
    for key in [(0, 0), (BIG, 3), (2, BIG * 5)]:
        assert_same_bits(virtual_batch(xb, spec, key), ref_virtual_batch(xb, spec, key))
        rows_per_op += np.diff(draw_plan(spec, key, xb.shape).ends[0])
    # every op of the table was drawn, each on rows of its own
    assert rows_per_op.shape == (len(AUGMENT_OPS),) and (rows_per_op > 0).all()


def test_full_pool_at_the_desk_shapes_matches_reference():
    # vrm_desk's batch, then vrm_wide's
    rng = np.random.default_rng(8)
    for shape in ((32, 16), (128, 32)):
        xb = rng.standard_normal(shape)
        for n_ops in range(len(AUGMENT_OPS) + 1):
            spec = AugmentSpec(n_ops=n_ops, magnitude=0.05, seed=0)
            for step in range(3):
                key = (step, step + 1)
                assert_same_bits(virtual_batch(xb, spec, key), ref_virtual_batch(xb, spec, key))


def test_virtual_view_is_the_one_row_case():
    rng = np.random.default_rng(9)
    spec = AugmentSpec(n_ops=3, magnitude=0.4, seed=BIG + 2)
    for per_sample_seed in (0, 5, BIG, (1, 2), (BIG, 0, 7)):
        x = rng.standard_normal(9)
        assert_same_bits(virtual_view(x, spec, per_sample_seed),
                         ref_virtual_view(x, spec, per_sample_seed))


def test_virtual_batch_leaves_its_input_alone():
    xb = np.random.default_rng(10).standard_normal((6, 5))
    before = xb.copy()
    virtual_batch(xb, AugmentSpec(n_ops=4, magnitude=1.0), (0, 0))
    assert np.array_equal(xb, before)


# zero rows, rows whose squares underflow or overflow, and ones in between
ROW_SCALE = st.sampled_from([0.0, 1e-300, 1e-160, 1e-5, 1.0, 1e5, 1e160, 1e300])


# the reference views share _row_norms with the kernel, so exact:virtual_batch
# cannot see it drift: it is held to np.linalg.norm here
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(ROW_SCALE, min_size=1, max_size=40), st.integers(1, 130),
       st.integers(0, 2**32 - 1))
def test_row_norms_are_each_rows_linalg_norm_bit_for_bit(scales, dim, seed):
    rows = np.random.default_rng(seed).standard_normal((len(scales), dim))
    rows *= np.array(scales)[:, None]
    assert_same_bits(_row_norms(rows), np.array([np.linalg.norm(row) for row in rows]))


@pytest.mark.parametrize("parts", [[0], [0, 0, 0], [7, 1, 2], [BIG - 1, BIG, BIG + 1],
                                   [3 * BIG**2 + 5, 0, 2**70], [np.int64(4), 9]])
def test_seed_words_give_the_list_seeded_generator_state(parts):
    by_list = np.random.default_rng(list(parts))
    by_words = np.random.default_rng(_seed_words(parts))
    assert by_words.bit_generator.state == by_list.bit_generator.state


def test_negative_seed_still_raises_value_error():
    xb = np.zeros((2, 3))
    with pytest.raises(ValueError):
        virtual_batch(xb, AugmentSpec(seed=-1), (0, 0))
    with pytest.raises(ValueError):
        virtual_batch(xb, AugmentSpec(seed=1), (0, -2))
    with pytest.raises(ValueError):
        virtual_view(xb[0], AugmentSpec(seed=1), -3)


@pytest.mark.parametrize("key", [1.5, (0.9, 2.7), (2, 3.0), np.float64(1.0)],
                         ids=["float", "floats", "one-float", "numpy-float"])
def test_a_non_integer_key_part_raises_type_error(key):
    # no key part is truncated to an int: 1.5 is not the key 1
    xb = np.arange(10.0).reshape(2, 5)
    parts = key if np.iterable(key) else (key,)
    with pytest.raises(TypeError):
        virtual_view(xb[0], AugmentSpec(), key)
    with pytest.raises(TypeError):
        virtual_batch(xb, AugmentSpec(), parts)


@pytest.mark.parametrize("field", ["n_ops", "seed"])
def test_spec_integers_are_checked_when_the_spec_is_built(field):
    with pytest.raises(TypeError):
        AugmentSpec(**{field: 1.5})
    spec = AugmentSpec(**{field: np.int64(1)})
    assert type(getattr(spec, field)) is int and getattr(spec, field) == 1


def test_numpy_integer_key_parts_give_the_int_key_bits():
    x = np.random.default_rng(12).standard_normal((6, 9))
    spec = AugmentSpec(n_ops=3, magnitude=0.4, seed=BIG + 2)
    by_numpy = AugmentSpec(n_ops=np.int8(3), magnitude=0.4, seed=np.uint64(BIG + 2))
    assert_same_bits(virtual_view(x[0], by_numpy, (np.int64(2), np.uint32(3))),
                     virtual_view(x[0], spec, (2, 3)))
    assert_same_bits(virtual_batch(x, by_numpy, np.array([BIG, 7])),
                     virtual_batch(x, spec, (BIG, 7)))


# -- plans drawn ahead, by the worker a vrm run forks ----------------------


# a step key crosses the pipe as int64 parts; the spec's seed stays in the worker
KEY_PART = st.integers(0, 2**63 - 1)


@st.composite
def plan_cases(draw):
    spec = AugmentSpec(n_ops=draw(st.integers(0, len(AUGMENT_OPS))),
                       magnitude=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                       seed=draw(st.integers(0, 2**64)))
    key = tuple(draw(st.lists(KEY_PART, max_size=3)))
    return spec, key, draw(st.integers(1, 41)), draw(st.integers(1, 33))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(plan_cases(), st.integers(0, 2**32 - 1))
def test_a_plan_from_the_worker_makes_the_views_drawn_inline(case, data_seed):
    spec, key, b, d = case
    xb = np.random.default_rng(data_seed).standard_normal((b, d))
    xb[0] = 0.0   # a zero row: norm 0, signed zeros
    teacher = MLP(MLPSpec([d, 5, 3], "relu", data_seed))
    side = teacher_side("vrm", teacher, TrainConfig(augment=spec))
    with _drawn_ahead(side, spec, [(key, xb)]) as next_step:
        # written flat by the worker and read back through its pipe
        plan, xv, (t_real, t_virtual) = next_step(key, xb)
    assert_same_bits(virtual_batch(xb, spec, key, plan), virtual_batch(xb, spec, key))
    assert_same_bits(xv, virtual_batch(xb, spec, key))
    assert_same_bits(t_real, teacher.logits(xb))
    assert_same_bits(t_virtual, teacher.logits(xv))


# -- long seeds: every seed-word count the kernel and reference share -----


def parts_of_words(rng, k):
    """Nonnegative ints whose ``_seed_words`` are k words, some of them 0
    or 0xFFFFFFFF; the first part is the spec's seed."""
    cuts = np.sort(rng.choice(np.arange(1, k), size=rng.integers(0, k), replace=False))
    parts = []
    for n_words in np.diff([0, *cuts, k]):
        words = [int(rng.choice([0, 0xFFFFFFFF, rng.integers(1, 2**32)])) for _ in range(n_words)]
        if n_words > 1 and words[-1] == 0:
            words[-1] = 0xFFFFFFFF   # a zero top word would be no word at all
        parts.append(sum(word << 32 * j for j, word in enumerate(words)))
    return parts


@pytest.mark.parametrize("k", range(1, 13))
def test_seeds_of_every_word_count_match_the_reference(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(4):
        seed, *key = parts_of_words(rng, k)
        assert _seed_words((seed, *key)).size == k
        spec = AugmentSpec(n_ops=int(rng.integers(1, len(AUGMENT_OPS) + 1)), magnitude=0.5,
                           seed=seed)
        xb = rng.standard_normal((12, 7))
        assert_same_bits(virtual_batch(xb, spec, key), ref_virtual_batch(xb, spec, key))
        assert_same_bits(virtual_view(xb[0], spec, tuple(key)),
                         ref_virtual_view(xb[0], spec, tuple(key)))


def test_exactness_check_catches_swapped_picks(monkeypatch, capsys):
    real_draw = vrm.data._draw

    def swapped(spec, entropy, dim):
        # the batch kernel applies each row's first two ops in the other's slot
        return vrm.data.AugmentPlan(*(np.concatenate([field[1::-1], field[2:]])
                                      for field in real_draw(spec, entropy, dim)))

    monkeypatch.setattr(vrm.data, "_draw", swapped)
    assert main(["check", "--quick"]) == EXIT_PROPERTY
    out = capsys.readouterr().out
    assert "FAIL exact:virtual_batch:" in out and "differ" in out
    # the fault reaches no other property
    assert out.count("FAIL ") == 1
