from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from symflow.errors import DomainError, InputError
from symflow.sft import (
    LocallyConstantFunction,
    Sft,
    admissible_words,
    block_recode,
    is_irreducible,
    perron_root,
    topological_entropy,
    validate_and_trim,
)

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
