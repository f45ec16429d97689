"""Self-tests of the benchmark's reference computations.

Run with ``python3 perfbench/test_oracles.py`` or
``python3 -m pytest perfbench/test_oracles.py``.  They use no part of
hyperkit.
"""

from __future__ import annotations

import itertools
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

LEVELS = (1, 2, 3, 7, 20)


def test_verlinde_s_is_real_symmetric_unitary():
    for k in LEVELS:
        s = oracles.verlinde_s(k)
        assert np.allclose(s, s.T)
        assert np.allclose(s @ s.T, np.eye(k + 1), atol=1e-12)


def test_su2_fusion_is_associative_and_frobenius_symmetric():
    for k in LEVELS:
        N = oracles.su2_fusion_tensor(k)
        left = np.einsum("ijm,mlp->ijlp", N, N)
        right = np.einsum("jlm,imp->ijlp", N, N)
        assert np.array_equal(left, right)
        # every SU(2)_k label is self-conjugate: N[i, j, l] = N[i, l, j]
        assert np.array_equal(N, N.transpose(0, 2, 1))
        assert np.array_equal(N, N.transpose(1, 0, 2))
        assert np.array_equal(N[0], np.eye(k + 1, dtype=np.int64))


def test_verlinde_formula_reproduces_fusion_and_dimensions():
    for k in LEVELS:
        s = oracles.verlinde_s(k)
        N = oracles.su2_fusion_tensor(k)
        verlinde = np.einsum("im,jm,lm,m->ijl", s, s, s, 1.0 / s[0])
        assert np.allclose(verlinde, N, atol=1e-9)
        dims = oracles.su2_dims(k)
        assert np.allclose(dims, s[:, 0] / s[0, 0])
        assert np.allclose(np.einsum("ijl,l->ij", N, dims), np.outer(dims, dims))
        assert math.isclose(dims[1] ** 2, oracles.jones(k + 2), rel_tol=1e-12)


def test_rescaled_lambda_is_convex_with_weights_dim_squared():
    for k in LEVELS:
        dims = oracles.su2_dims(k)
        lam = oracles.rescaled_lambda(oracles.su2_fusion_tensor(k), dims)
        assert np.allclose(lam.sum(axis=2), 1.0)
        assert np.allclose(1.0 / np.diagonal(lam[:, :, 0]), dims ** 2)
        assert not oracles.associativity_violations(lam, 1e-9)


def test_associativity_kernel_matches_einsum():
    rng = np.random.default_rng(5)
    lam = oracles.rescaled_lambda(oracles.su2_fusion_tensor(6), oracles.su2_dims(6))
    lam = lam.copy()
    lam[2, 3, 1] += 0.125
    lam[4, 4, 4] -= rng.uniform(0.01, 0.1)
    dev = np.abs(
        np.einsum("ijm,mlp->ijlp", lam, lam) - np.einsum("jlm,imp->ijlp", lam, lam)
    )
    expected = {tuple(int(x) for x in t) for t in zip(*np.nonzero(dev > 1e-9))}
    assert expected
    assert oracles.associativity_violations(lam, 1e-9) == expected


def test_bincount_convolution_equals_brute_force_on_s3():
    mul, e = oracles.symmetric_group(3)
    subgroup = oracles.cyclic_subgroup(mul, e, 1)
    partitions = [
        oracles.conjugacy_classes(mul, e),
        oracles.double_cosets(mul, subgroup, subgroup),
        oracles.double_cosets(mul, [e], subgroup),
        [(g,) for g in range(6)],
    ]
    for pa, pb, pc in itertools.product(partitions, repeat=3):
        fast = oracles.pair_count_convolution(mul, pa, pb, pc)
        part_c = {x: c for c, part in enumerate(pc) for x in part}
        brute = np.zeros((len(pa), len(pb), len(pc)))
        for a, A in enumerate(pa):
            for b, B in enumerate(pb):
                for g in A:
                    for h in B:
                        brute[a, b, part_c[int(mul[g, h])]] += 1
                brute[a, b] /= len(A) * len(B)
        assert np.array_equal(fast, brute)


def test_group_constructors_are_groups():
    for mul, e in (
        oracles.symmetric_group(4),
        oracles.dihedral_group(5),
        oracles.dicyclic_group(3),
        oracles.direct_product(oracles.symmetric_group(3), oracles.cyclic_group(4)),
    ):
        n = mul.shape[0]
        assert all(sorted(row) == list(range(n)) for row in mul)
        assert np.array_equal(mul[e], np.arange(n))
        assert np.array_equal(mul[mul], mul[:, mul])
    mul, e = oracles.dicyclic_group(2)  # the quaternion group
    assert oracles.class_count(mul) == 5
    assert sum(int(mul[g, g] == e) for g in range(8)) == 2


def test_element_orders_and_conjugate_subgroups():
    mul, e = oracles.symmetric_group(4)
    orders = oracles.element_orders(mul, e)
    assert sorted(orders.tolist()) == [1] + [2] * 9 + [3] * 8 + [4] * 6
    rng = np.random.default_rng(3)
    for g in range(24):
        h = oracles.conjugate_cyclic(mul, e, g, rng)
        assert len(h) == orders[g] and e in h
        assert all(mul[a, b] in h for a in h for b in h)


def test_class_partition_matches_burnside_count():
    for mul, e in (oracles.symmetric_group(4), oracles.dicyclic_group(5)):
        classes = oracles.conjugacy_classes(mul, e)
        assert len(classes) == oracles.class_count(mul)
        assert sorted(x for c in classes for x in c) == list(range(mul.shape[0]))


def test_relabeling_preserves_the_table():
    mul, e = oracles.symmetric_group(3)
    perm = np.random.default_rng(1).permutation(6)
    mul2, e2 = oracles.relabel_group(mul, e, perm)
    for a in range(6):
        for b in range(6):
            assert mul2[perm[a], perm[b]] == perm[mul[a, b]]
    assert e2 == perm[e]


def test_admissible_values_below_four():
    values = oracles.admissible_values(4.0, 100, 1e-9)
    assert np.allclose(values, [1.0, 2.0, 3.0, (5 + math.sqrt(5)) / 2, 4.0])


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} oracle self-tests passed")
