"""The batched virtual-view kernel against the per-sample reference it
replaced: same generator per sample, same draws, same bits.  The kernel
seeds every row's generator at once and makes each row's op picks on a
Python-int PCG64 stream; both are checked against numpy itself."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrm.data
from vrm.cli import EXIT_PROPERTY, main
from vrm.data import (AUGMENT_OPS, AugmentSpec, _pcg64_states, _seed_words, _Stream,
                      virtual_batch, virtual_view)
from vrm.errors import ParameterError, UsageError
from vrm.models import MLP, MLPSpec
from vrm.training import _drawn_ahead


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
    chosen = rng.choice(len(spec.op_pool), size=spec.n_ops, replace=False)
    out = x
    for op_idx in chosen:
        out = ref_apply_op(spec.op_pool[op_idx], out, spec.magnitude, rng)
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
    pool = tuple(rng.permutation(AUGMENT_OPS)[:rng.integers(1, len(AUGMENT_OPS) + 1)])
    n_ops = int(rng.integers(0, len(pool) + 1))
    magnitude = float(rng.choice([0.0, 1.0, rng.uniform()]))
    seed = int(rng.choice([0, BIG + 5, 3 * BIG**2, rng.integers(0, 1000)]))
    key = tuple(int(rng.choice([0, BIG, BIG + 7, rng.integers(0, 100)]))
                for _ in range(rng.integers(0, 3)))
    return AugmentSpec(n_ops, magnitude, pool, seed), key


@pytest.mark.parametrize("case_seed", range(12))
def test_virtual_batch_matches_per_sample_reference(case_seed):
    rng = np.random.default_rng(case_seed)
    for _ in range(15):
        b, d = int(rng.integers(1, 41)), int(rng.integers(1, 34))
        spec, key = random_case(rng)
        xb = rng.standard_normal((b, d)) * rng.uniform(0.01, 10.0)
        xb[rng.integers(0, b)] = 0.0   # a zero row: norm 0, signed zeros
        assert_same_bits(virtual_batch(xb, spec, key), ref_virtual_batch(xb, spec, key))


@pytest.mark.parametrize("op", AUGMENT_OPS)
@pytest.mark.parametrize("magnitude", [0.0, 1.0])
def test_each_op_alone_matches_reference(op, magnitude):
    rng = np.random.default_rng(7)
    xb = rng.standard_normal((40, 33))
    spec = AugmentSpec(n_ops=1, magnitude=magnitude, op_pool=(op,), seed=BIG + 1)
    for key in [(0, 0), (BIG, 3), (2, BIG * 5)]:
        assert_same_bits(virtual_batch(xb, spec, key), ref_virtual_batch(xb, spec, key))


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


def test_views_never_seed_a_generator_per_row(monkeypatch):
    def per_row_seeding(*args, **kwargs):
        raise AssertionError("np.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", per_row_seeding)
    xb = np.arange(40.0).reshape(8, 5)
    spec = AugmentSpec(n_ops=4, magnitude=0.5, seed=BIG + 3)
    assert virtual_batch(xb, spec, (2, 3)).shape == (8, 5)
    assert virtual_view(xb[0], spec, (2, 3, 0)).shape == (5,)



# -- plans drawn ahead, by the worker a vrm run forks ----------------------


KEY_PART = st.integers(0, 2**64)


@st.composite
def plan_cases(draw):
    pool = tuple(draw(st.permutations(AUGMENT_OPS))[:draw(st.integers(1, len(AUGMENT_OPS)))])
    spec = AugmentSpec(n_ops=draw(st.integers(0, len(pool))),
                       magnitude=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
                       op_pool=pool, seed=draw(KEY_PART))
    key = tuple(draw(st.lists(KEY_PART, max_size=3)))
    return spec, key, draw(st.integers(1, 41)), draw(st.integers(1, 33))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(plan_cases(), st.integers(0, 2**32 - 1))
def test_a_plan_from_the_worker_makes_the_views_drawn_inline(case, data_seed):
    spec, key, b, d = case
    xb = np.random.default_rng(data_seed).standard_normal((b, d))
    xb[0] = 0.0   # a zero row: norm 0, signed zeros
    teacher = MLP(MLPSpec([d, 5, 3], "relu", data_seed))
    with _drawn_ahead(teacher, spec, [(key, xb)]) as next_step:
        # written flat by the worker and read back through its pipe
        plan, xv, t_real, t_virtual = next_step(key, xb)
    assert_same_bits(virtual_batch(xb, spec, key, plan), virtual_batch(xb, spec, key))
    assert_same_bits(xv, virtual_batch(xb, spec, key))
    assert_same_bits(t_real, teacher.logits(xb))
    assert_same_bits(t_virtual, teacher.logits(xv))
    # a plan drawn for other arguments raises instead of making views
    for other_spec, other_key, other_xb in (
            (dataclasses.replace(spec, seed=spec.seed + 1), key, xb),
            (spec, (*key, 0), xb),
            (spec, key, np.vstack([xb, xb[:1]])),
            (spec, key, np.hstack([xb, xb[:, :1]]))):
        with pytest.raises(UsageError):
            virtual_batch(other_xb, other_spec, other_key, plan)


# -- the seeding and the op picks against numpy ---------------------------


def numpy_pcg64(state, inc, has_uint32=0, uinteger=0):
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": has_uint32, "uinteger": uinteger}
    return np.random.Generator(bitgen)


@pytest.mark.parametrize("k", range(1, 13))
def test_pcg64_states_match_numpy_seeding(k):
    rng = np.random.default_rng(100 + k)
    entropy = rng.integers(0, 2**32, size=(12, k), dtype=np.uint32)
    entropy[0] = 0
    entropy[1] = 0xFFFFFFFF
    entropy[2, ::2] = 0xFFFFFFFF
    for row, (state, inc) in zip(entropy, _pcg64_states(entropy)):
        want = np.random.PCG64(row).state["state"]
        assert (state, inc) == (want["state"], want["inc"])


def test_stream_choice_matches_generator_choice():
    # every size <= pop <= 40, from fresh states and from states holding
    # a buffered half-word; the streams must also end in the same state
    rng = np.random.default_rng(11)
    for pop in range(41):
        for size in range(pop + 1):
            for buffered in (0, 1):
                state = int(rng.integers(0, 2**63)) << 65 | int(rng.integers(0, 2**63))
                inc = int(rng.integers(0, 2**63)) << 1 | 1
                uinteger = int(rng.integers(0, 2**32))
                stream = _Stream(state, inc)
                stream.has_uint32, stream.uinteger = buffered, uinteger
                gen = numpy_pcg64(state, inc, buffered, uinteger)
                assert stream.choice(pop, size) == gen.choice(pop, size, replace=False).tolist()
                assert stream.numpy_state() == gen.bit_generator.state


def test_stream_bounded_rejection_matches_numpy():
    # a state whose next 64-bit output is 0: the Lemire draw on [0, 2]
    # (threshold 2**32 % 3 = 1) rejects both zero halves, then steps again
    mult = vrm.data._PCG_MULT
    inc = 0x5851F42D4C957F2D_14057B7EF767814F | 1
    zero_output = (0x9E3779B97F4A7C15 << 64) | 0x9E3779B97F4A7C15   # high half == low half
    prev = (zero_output - inc) * pow(mult, -1, 2**128) % 2**128
    stream = _Stream(prev, inc)
    assert stream.next32() == 0 and stream.next32() == 0
    stream = _Stream(prev, inc)
    gen = numpy_pcg64(prev, inc)
    assert stream.choice(3, 1) == gen.choice(3, 1, replace=False).tolist()
    assert stream.state == (zero_output * mult + inc) % 2**128   # two steps taken
    assert stream.numpy_state() == gen.bit_generator.state


def test_exactness_check_catches_swapped_picks(monkeypatch, capsys):
    real_choice = _Stream.choice

    def swapped(self, pop, size):
        # the batch kernel applies each row's first two ops in the other's slot
        picks = real_choice(self, pop, size)
        return picks[1::-1] + picks[2:]

    monkeypatch.setattr(vrm.data._Stream, "choice", swapped)
    assert main(["check", "--quick"]) == EXIT_PROPERTY
    out = capsys.readouterr().out
    assert "FAIL exact:virtual_batch:" in out and "differ" in out
    # the fault reaches no other property
    assert out.count("FAIL ") == 1
