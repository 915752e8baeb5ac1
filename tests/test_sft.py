from __future__ import annotations

import json
import re
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import count_perron_steps
from symflow.errors import DomainError, InputError
from symflow.sft import (
    LocallyConstantFunction,
    Sft,
    _STALL_STEPS,
    _perron_right,
    _read_word_keys,
    _word_keys,
    admissible_words,
    block_recode,
    is_irreducible,
    perron_root,
    topological_entropy,
    validate_and_trim,
)
from symflow.thermo import _EdgeModel

PHI = (1 + np.sqrt(5)) / 2


def test_sft_validation_rejects_bad_matrices():
    with pytest.raises(InputError):
        Sft([[1, 1], [0, 2]])
    with pytest.raises(InputError):
        Sft(np.ones((2, 3)))
    with pytest.raises(InputError):
        Sft(np.zeros((0, 0)))


def test_sft_json_round_trip(golden):
    doc = golden.to_json()
    assert doc["k"] == 2
    again = Sft.from_json(doc)
    assert again == golden
    with pytest.raises(InputError):
        Sft.from_json({"k": 3, "A": [[1, 1], [1, 0]]})


def test_trim_removes_dead_symbols():
    # Symbol 2 has no return path, so trimming drops it.
    A = [[1, 1, 1], [1, 1, 0], [0, 0, 0]]
    trimmed, kept = validate_and_trim(Sft(A))
    assert list(kept) == [0, 1]
    assert trimmed.k == 2


def test_irreducibility_flags():
    assert is_irreducible(Sft([[1, 1], [1, 0]]))
    assert not is_irreducible(Sft([[1, 1], [0, 1]]))


def test_perron_root_known_matrices():
    lam, right, left = perron_root(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert abs(lam - PHI) < 1e-12
    # Perron vectors are positive and consistent: Br = lam r, lB = lam l.
    B = np.array([[1.0, 1.0], [1.0, 0.0]])
    assert np.all(right > 0) and np.all(left > 0)
    assert np.abs(B @ right - lam * right).max() < 1e-10
    assert np.abs(left @ B - lam * left).max() < 1e-10
    # Asymmetric matrix separates the two vectors.
    C = np.array([[1.0, 4.0], [1.0, 0.0]])
    lam, right, left = perron_root(C)
    assert np.abs(C @ right - lam * right).max() < 1e-10
    assert np.abs(left @ C - lam * left).max() < 1e-10
    assert np.abs(right / right.sum() - left / left.sum()).max() > 1e-3


def test_perron_root_against_dense_eigensolver():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        B = rng.uniform(0.1, 2.0, size=(n, n))
        lam, _, _ = perron_root(B)
        ref = np.abs(np.linalg.eigvals(B)).max()
        assert abs(lam - ref) < 1e-9 * max(1.0, ref)


def test_warm_start_certifies_the_cold_root(full2):
    # From the vector of a nearby tilt, the warm start skips eig and lands on
    # the cold root and vector; without its extra step after the bracket
    # certifies, the vector is only about 1e-12 accurate.
    from symflow.thermo import _EdgeModel

    words = admissible_words(full2, 7)
    g = LocallyConstantFunction(full2, 7, dict(zip(words, np.random.default_rng(7).normal(size=len(words)))))
    model = _EdgeModel(full2, [g])
    _, near, _ = _perron_right(model.weights((0.3,))[0])
    B = model.weights((0.31,))[0]
    lam, right, start = _perron_right(B, r0=near)
    cold, cold_right, cold_start = _perron_right(B)
    assert (start, cold_start) == ("warm", "cold")
    assert abs(lam - cold) <= 1e-12 * cold
    assert np.abs(right / cold_right - 1.0).max() <= 1e-13
    # An exact start gives hi == lo, where the extra step's matrix is singular.
    lam, right, start = _perron_right(np.ones((2, 2)), r0=np.ones(2))
    assert (lam, start) == (2.0, "warm") and np.array_equal(right, [0.5, 0.5])


def test_stalled_warm_start_falls_back_to_the_cold_solve():
    # Two nearly decoupled blocks with roots 1 and 1 - 1e-6.  Started from the
    # second block's vector, inverse iteration only halves the first block's
    # deficit per step: the bracket stalls and the solve starts again from eig.
    A = np.full((2, 2), 0.5)
    B = np.block([[A, 1e-6 * np.ones((2, 2))], [1e-6 * np.ones((2, 2)), (1 - 1e-6) * A]])
    lam, right, start = _perron_right(B, r0=np.array([1e-3, 1e-3, 1.0, 1.0]))
    cold, cold_right, _ = _perron_right(B)
    assert start == "fallback"
    assert lam == cold and np.array_equal(right, cold_right)


@pytest.mark.parametrize("beta", [240.0, 1e3, 1e8])
@pytest.mark.parametrize("tiny", [False, True])
def test_a_stalled_bracket_gives_up_within_a_bounded_number_of_steps(beta, tiny, monkeypatch):
    # An 81-state chain tilted far into its tail (full3, memory-3 table
    # default_rng(1032), recoded at memory 4): every Collatz-Wielandt ratio
    # but one underflows, lo = 0 and the bracket never halves.  The stall
    # counter reset whenever an entry of r moved by 2x, so the warm start and
    # its cold fall-back ran 165-2,481 steps before the bracket turned NaN;
    # each now gives up once _STALL_STEPS steps pass without a halving.
    full3 = Sft(np.ones((3, 3), dtype=int))
    words = admissible_words(full3, 3)
    g = LocallyConstantFunction(full3, 3, dict(zip(words, np.random.default_rng(1032).normal(size=27))))
    model = _EdgeModel(full3, [g], min_memory=4)
    W = model.mask / model.mask.sum(axis=1, keepdims=True) * model.weights((beta,))[0]
    r0 = np.where(np.arange(len(W)) % 2, 1.0, np.finfo(float).tiny) if tiny else np.ones(len(W))
    steps = count_perron_steps(monkeypatch)
    with pytest.raises(DomainError) as e:
        _perron_right(W, r0=r0)
    assert e.value.name == "iteration_cap"
    assert len(steps) <= 2 * _STALL_STEPS + 4, len(steps)


def test_entropy_values_and_runtime(full2, golden):
    t0 = time.time()
    h_full = topological_entropy(full2)
    h_gold = topological_entropy(golden)
    elapsed = time.time() - t0
    assert abs(h_full - np.log(2)) < 1e-10
    assert abs(h_gold - np.log(PHI)) < 1e-10
    assert elapsed < 1.0
    assert topological_entropy(Sft([[1]])) == 0.0


def test_entropy_of_cycle_with_chord():
    # A 200-cycle with the chord 0 -> 100 has first-return loops of lengths
    # 200 and 101, so lambda^200 = lambda^99 + 1; its spectrum crowds the
    # circle of radius lambda.
    A = np.roll(np.eye(200, dtype=int), 1, axis=1)
    A[0, 100] = 1
    x = brentq(lambda x: np.exp(-200 * x) + np.exp(-101 * x) - 1.0, 1e-4, 0.1, xtol=1e-18)
    assert abs(topological_entropy(Sft(A)) - x) < 1e-12


def test_entropy_requires_irreducible():
    with pytest.raises(DomainError):
        topological_entropy(Sft([[1, 1], [0, 1]]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_function_tables_refuse_non_finite_values(full2, bad):
    with pytest.raises(InputError):
        LocallyConstantFunction(full2, 1, {(0,): 0.5, (1,): bad})
    with pytest.raises(InputError):
        LocallyConstantFunction.from_json(full2, {"memory": 1, "table": {"0": bad, "1": 1.0}})
    g = LocallyConstantFunction.indicator(full2, (1,))
    with pytest.raises(InputError):
        g * bad  # bad * 1 is not finite, and inf * 0 is NaN


def test_admissible_words_counts(full2, golden):
    assert admissible_words(full2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    w3 = admissible_words(golden, 3)
    assert w3 == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
    assert len(admissible_words(golden, 2)) == 3
    # Count equals the matrix-power formula.
    for n in range(1, 9):
        expect = int((np.linalg.matrix_power(golden.A, n - 1)).sum())
        assert len(admissible_words(golden, n)) == expect


def test_admissible_word_count_growth_matches_entropy(golden):
    n = 16
    count = len(admissible_words(golden, n))
    assert abs(np.log(count) / n - topological_entropy(golden)) <= 0.1


def test_enumeration_budget(full2):
    with pytest.raises(DomainError):
        admissible_words(full2, 40, budget=10_000)


def test_block_recode_holds_its_dense_matrix_to_the_budget(full2):
    # 128 recoded states fit a word budget of 2^10, but their 2^14-entry
    # transition matrix does not: refused before it is allocated.
    with pytest.raises(DomainError) as e:
        block_recode(full2, 7, budget=2**10)
    assert e.value.name == "enumeration_too_large"
    assert block_recode(full2, 5, budget=2**10).sft.k == 32


def test_block_recode_identity_and_entropy(full2, golden):
    rec1 = block_recode(golden, 1)
    assert rec1.sft == golden
    rec2 = block_recode(full2, 2)
    assert rec2.sft.k == 4
    assert int(rec2.sft.A.sum()) == 8
    for sft in (full2, golden):
        h = topological_entropy(sft)
        for m in range(1, 5):
            hm = topological_entropy(block_recode(sft, m).sft)
            assert abs(hm - h) < 1e-11


def test_block_recode_edge_words(golden):
    rec = block_recode(golden, 2)
    words = rec.words
    for i, w in enumerate(words):
        for j, w2 in enumerate(words):
            if rec.sft.A[i, j]:
                assert w[1:] == w2[:-1]
                joined = w + w2[-1:]
                assert golden.is_admissible(joined)


def test_locally_constant_function_basics(full2):
    g = LocallyConstantFunction.indicator(full2, (1,))
    assert g((1,)) == 1.0 and g((0,)) == 0.0
    assert g((1, 0)) == 1.0  # longer words read the leading coordinates
    assert g.bounds() == (0.0, 1.0)
    c = LocallyConstantFunction.constant(full2, 2.5)
    assert c.bounds() == (2.5, 2.5)
    combo = 2.0 * g - c
    assert combo((1,)) == -0.5
    assert combo((0,)) == -2.5


def test_locally_constant_lift_and_arithmetic(full2):
    g = LocallyConstantFunction.indicator(full2, (1,))
    h = LocallyConstantFunction.indicator(full2, (0, 1))
    s = g + h  # memory lifts to 2
    assert s.memory == 2
    assert s((0, 1)) == 1.0
    assert s((1, 1)) == 1.0
    assert s((1, 0)) == 1.0
    assert s((0, 0)) == 0.0
    lifted = g.lift(3)
    for w in admissible_words(full2, 3):
        assert lifted(w) == g(w[:1])


def test_locally_constant_table_must_cover(golden):
    with pytest.raises(InputError):
        LocallyConstantFunction(golden, 1, {(0,): 1.0})
    # Entries outside the admissible set are rejected too.
    with pytest.raises(InputError):
        LocallyConstantFunction(golden, 2, {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 3.0})


def test_locally_constant_json_round_trip(golden):
    g = LocallyConstantFunction.from_callable(golden, 2, lambda w: float(w[0] + 2 * w[1]))
    doc = g.to_json()
    again = LocallyConstantFunction.from_json(golden, doc)
    for w in admissible_words(golden, 2):
        assert again(w) == g(w)


def test_indicator_rejects_inadmissible(golden):
    with pytest.raises(InputError):
        LocallyConstantFunction.indicator(golden, (1, 1))


@pytest.mark.parametrize("memory", [1, 2])
def test_word_keys_round_trip_on_twelve_symbols(memory):
    # Keys on more than 10 symbols are comma-separated, so the one-symbol
    # key "10" is the word (10,), not (1, 0).
    full12 = Sft(np.ones((12, 12), dtype=int))
    g = LocallyConstantFunction.from_callable(full12, memory, lambda w: float(sum(a * 12**i for i, a in enumerate(w))))
    doc = g.to_json()
    assert ("10" in doc["table"]) if memory == 1 else ("10,11" in doc["table"])
    again = LocallyConstantFunction.from_json(full12, doc)
    assert again.table == g.table


_SHIFTS = {
    "full2": np.ones((2, 2), dtype=int),
    "full3": np.ones((3, 3), dtype=int),
    "golden": np.array([[1, 1], [1, 0]]),
    "full12": np.ones((12, 12), dtype=int),
}


def _key_loop(word, k: int) -> str:
    """The spelling of a word key, one symbol at a time."""
    return ("" if k <= 10 else ",").join(str(a) for a in word)


@pytest.mark.parametrize("shift", list(_SHIFTS))
@pytest.mark.parametrize("memory", [1, 2, 3])
def test_word_key_codec_round_trips(shift, memory):
    sft = Sft(_SHIFTS[shift])
    rng = np.random.default_rng(memory)
    g = LocallyConstantFunction.from_callable(sft, memory, lambda w: float(rng.normal()))
    doc = json.loads(json.dumps(g.to_json()))
    assert list(doc["table"]) == [_key_loop(w, sft.k) for w in sorted(g.table)]
    assert LocallyConstantFunction.from_json(sft, doc).table == g.table
    words = rng.integers(0, sft.k, size=(200, memory + 4))
    for arr in (words, words.astype(np.int8)):
        keys = _word_keys(arr, sft.k)
        assert keys == [_key_loop(w, sft.k) for w in words.tolist()]
        assert np.array_equal(_read_word_keys(keys, sft.k, memory + 4), words)


@pytest.mark.parametrize(
    "shift, key",
    [
        # on at most 10 symbols: commas, non-ASCII digits, a wrong length or
        # a symbol outside the shift
        ("full2", "0,1"), ("full2", "\uff10\uff11"), ("full2", "011"), ("full2", "0"), ("full2", "02"),
        ("full2", "0 "), ("full2", 1),
        # above 10 symbols: leading zeros, signs, spaces, a wrong symbol count
        # or a symbol outside the shift
        ("full12", "01,2"), ("full12", " 1,2"), ("full12", "+1,2"), ("full12", "1,2 "), ("full12", "-1,2"),
        ("full12", "1,2,3"), ("full12", "12"), ("full12", "1,12"), ("full12", "1,,2"), ("full12", "1_0,2"),
    ],
)
def test_word_keys_not_in_their_one_spelling_are_refused(shift, key):
    # the first key that is not a word of 2 symbols is named, in a table too
    sft = Sft(_SHIFTS[shift])
    good = _word_keys(np.array([[0, 0], [1, 1]]), sft.k)
    with pytest.raises(InputError, match=re.escape(f"word key {key!r} is not a word on {sft.k} symbols")) as err:
        _read_word_keys([good[0], key, "?"], sft.k, 2)
    assert "words of 2 integer symbols" in str(err.value)
    table = dict.fromkeys([good[0], key, *good[1:]], 0.0)
    with pytest.raises(InputError, match=re.escape(f"word key {key!r}")):
        LocallyConstantFunction.from_json(sft, {"memory": 2, "table": table})


def test_a_table_cannot_name_a_word_twice(full2):
    # "0,1" once read as the word (0, 1) too, and its value replaced 1.0
    doc = {"memory": 2, "table": {"00": 0, "01": 1, "0,1": 5, "10": 2, "11": 3}}
    with pytest.raises(InputError, match="'0,1'"):
        LocallyConstantFunction.from_json(full2, doc)
