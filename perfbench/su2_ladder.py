"""Workload ``su2_ladder``: SU(2)_k fusion rings on a ladder of levels.

One job takes one level k.  The benchmark writes the fusion ring from
the truncated Clebsch-Gordan rule as a document, with its basis in
level order, and the program parses it, rescales it by its
Perron-Frobenius dimensions, computes characters, Haar orthogonality
and the dual, serializes and parses the table, and folds a chain of
seeded mixtures in the one-object hypergroupoid.  On the rungs in
``PERTURBED`` the job also validates a copy of the table with one
entry raised by a seeded amount.  Every output is checked against the
closed forms in ``oracles``.

The seed draws the mixtures, the composed pair and the size of the
raised entry.  It does not reorder the basis: with some basis orders
the round-off of the character solver makes ``dual_hypergroup`` refuse
SU(2)_36 (a zero structure constant comes out near -1.4e-9), so a
seeded order would make jobs fail on some seeds only.
"""

from __future__ import annotations

import json

import numpy as np

import hyperkit as hk
import oracles
from jobs import Job, expect, expect_close, match_rows, weights_of

#: levels of one round.  The median job must be one size: taken between
#: rungs of different sizes it read 20% apart from run to run on a noisy
#: machine, against 7% for many jobs of one size.  So k = 12 runs nine
#: times a round, spread between the other rungs.
LADDER = (12, 2, 12, 3, 12, 5, 12, 8, 12, 18, 12, 26, 12, 36, 12, 60, 12)
PERTURBED = (5, 12, 26)
WARMUP_LADDER = (2, 4)
CHAIN_LENGTH = 6
#: levels (i, j, l) of the raised entry lambda[i][j][l] on perturbed rungs;
#: the same on every seed, so the violation count is too
DEFECT_LEVELS = (1, 1, 2)
TOL = 1e-9


def fusion_document(N: np.ndarray, labels, unit: int) -> str:
    return json.dumps(
        {"format_version": 1, "kind": "fusion_ring", "labels": labels, "unit": unit, "N": N.tolist()}
    )


def make_job(k: int, rng: np.random.Generator, perturb: bool) -> Job:
    n = k + 1
    N = oracles.su2_fusion_tensor(k)
    labels = [f"j{j}" for j in range(n)]
    unit = 0
    document = fusion_document(N, labels, unit)
    dims = oracles.su2_dims(k)
    lam = oracles.rescaled_lambda(N, dims)
    chars = oracles.verlinde_characters(k)
    mixtures = rng.dirichlet(np.ones(n), size=CHAIN_LENGTH)
    pair = tuple(int(x) for x in rng.integers(0, n, size=2))
    defect = None
    if perturb:
        defect = (*DEFECT_LEVELS, float(rng.uniform(0.05, 0.2)))

    def run():
        ring = hk.parse_fusion_ring(document)
        table = hk.from_fusion_ring(ring)
        ct = hk.characters(table)
        duality = hk.orthogonality_check(table, chars=ct)
        dual = hk.dual_hypergroup(table, chars=ct)
        texts = (hk.serialize_hypergroup(table), hk.serialize_hypergroup(table))
        back = hk.parse_hypergroup(texts[0])
        g = hk.from_hypergroup(back)
        chain = hk.juxtapose_chain(g, [hk.BoundaryState(g, 0, 0, p) for p in mixtures])
        point = hk.compose(g, hk.point_state(g, 0, 0, pair[0]), hk.point_state(g, 0, 0, pair[1]))
        report = None
        if defect is not None:
            bad = table.lam.copy()
            bad[defect[:3]] += defect[3]
            report = hk.validate(hk.HypergroupTable(table.labels, table.unit, table.involution, bad))
        return table, ct, duality, dual, texts, back, chain, point, report

    def check(out):
        table, ct, duality, dual, texts, back, chain, point, report = out
        expect(table.labels == tuple(labels) and table.unit == unit, "table labels or unit")
        expect_close(table.lam, lam, "lambda vs N d_l/(d_i d_j)", atol=1e-10)
        expect_close(ct.haar_weights, dims ** 2, "weights vs d_j^2", rtol=1e-9)
        expect_close(ct.haar_weights[1], oracles.jones(k + 2),
                     "spin-1/2 weight vs 4cos^2(pi/(k+2))", rtol=1e-9)
        expect(np.max(np.abs(ct.chars.imag)) < 1e-9, "SU(2)_k characters are real")
        match_rows(ct.chars.real, chars, "characters vs Verlinde S[a][m]/S[0][m]", atol=1e-7)
        expect(duality.unitarity_defect < 1e-8, f"unitarity defect {duality.unitarity_defect:.3e}")
        expect_close(np.sort(ct.dual_weights), np.sort(dims ** 2), "dual weights vs d_j^2", rtol=1e-7)
        dual_w = weights_of(dual.lam, dual.unit, dual.involution)
        expect_close(np.sort(dual_w), np.sort(dims ** 2), "dual table weights vs d_j^2", rtol=1e-7)
        expect(texts[0] == texts[1], "serialization is not byte-identical")
        expect(np.array_equal(back.lam, table.lam), "parse(serialize(table)) changed lambda")
        expect(back.labels == table.labels and back.involution == table.involution, "round trip labels")
        expect_close(point.coeffs, lam[pair[0], pair[1]], "point states vs N d_l/(d_i d_j)", atol=1e-10)
        want = mixtures[0]
        for p in mixtures[1:]:
            want = np.einsum("a,b,abc->c", want, p, lam)
        expect_close(chain.coeffs, want, "chain fold vs closed-form fold", atol=1e-10)
        if report is not None:
            i, j, l, delta = defect
            bad = table.lam.copy()
            bad[i, j, l] += delta
            keys = [(v.axiom, v.indices) for v in report.violations]
            expect(not report.passed, "perturbed table passed validation")
            expect(("convexity", (i, j)) in keys, f"no convexity violation at ({i}, {j})")
            expect(len(keys) == len(set(keys)), "a violation is reported twice")
            got = {v.indices for v in report.violations if v.axiom == "associativity"}
            expect(got == oracles.associativity_violations(bad, TOL),
                   "associativity violations differ from the reference kernel")

    return Job(f"su2_k{k}", f"k{k}", run, check)


def warmup_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1 << 20])
    return [make_job(k, rng, perturb=True) for k in WARMUP_LADDER]


def round_jobs(seed: int, index: int) -> list[Job]:
    rng = np.random.default_rng([seed, index])
    return [make_job(k, rng, perturb=k in PERTURBED) for k in LADDER]
