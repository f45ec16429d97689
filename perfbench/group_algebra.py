"""Workload ``group_algebra``: class and double-coset tables, and the
two-object hypergroupoid of boundary conditions, over finite groups.

One job takes one group; a round runs the groups in ``ROUND``.  The
benchmark writes its Cayley table as a group document with the
elements in a seeded order, and picks each subgroup as the cyclic
group of a seeded conjugate of a fixed element, so that every seed
does the same amount of work.  The
program parses the group, builds the class table and the double-coset
tables, computes the characters of the class table, and, for groups of
order up to ``GROUPOID_MAX_ORDER``, builds and validates the
double-coset groupoid and folds seeded chains of boundary conditions
that cross between its two objects.  Outputs are checked against the
``np.bincount`` pair-count convolution and the orbit counts in
``oracles``.

One more job per round validates a fixed groupoid, built by the
benchmark, with one endo entry raised, and checks that each defect is
reported once.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

import hyperkit as hk
import oracles
from jobs import Job, Mismatch, expect, expect_close, weights_of

GROUPOID_MAX_ORDER = 48
CHAIN_LENGTH = 5


def _sym(k):
    return lambda: oracles.symmetric_group(k)


#: name -> (Cayley table, orders of the elements that generate the subgroups)
GROUPS = {
    "S3": (_sym(3), (2, 3)),
    "Dic3": (lambda: oracles.dicyclic_group(3), (4, 3)),
    "D8": (lambda: oracles.dihedral_group(8), (2, 8)),
    "S4": (_sym(4), (2, 3)),
    "S3xS3": (lambda: oracles.direct_product(_sym(3)(), _sym(3)()), (2, 3)),
    "Dic10": (lambda: oracles.dicyclic_group(10), (4, 5)),
    "Z2xS4": (lambda: oracles.direct_product(oracles.cyclic_group(2), _sym(4)()), (2, 4)),
    "D30": (lambda: oracles.dihedral_group(30), (2, 5)),
    "S5": (_sym(5), (2, 4)),
    "Dic30": (lambda: oracles.dicyclic_group(30), (4, 6)),
}
#: one round.  The median job must be one size: taken between groups of
#: different sizes it moved twice as much from run to run on a noisy
#: machine.  So S4 runs five times, spread between the others, with five
#: cheaper and five dearer jobs around it.
ROUND = (
    "S3", "S4", "Dic3", "D8", "S4", "S3xS3", "Dic10", "S4", "Z2xS4", "S4", "D30", "S5", "S4", "Dic30",
)
WARMUP_ROUND = ("S3",)


def group_document(mul: np.ndarray, e: int) -> str:
    return json.dumps({"format_version": 1, "kind": "group", "unit": int(e), "mul": mul.tolist()})


def make_job(name: str, rng: np.random.Generator) -> Job:
    build, generator_orders = GROUPS[name]
    mul0, e0 = build()
    n = mul0.shape[0]
    perm = rng.permutation(n)
    mul, e = oracles.relabel_group(mul0, e0, perm)
    # the first element of each order in the fixed table, so its class is fixed too
    orders = oracles.element_orders(mul0, e0)
    subgroups = [
        oracles.conjugate_cyclic(mul, e, int(perm[np.flatnonzero(orders == order)[0]]), rng)
        for order in generator_orders
    ]
    document = group_document(mul, e)
    classes = oracles.conjugacy_classes(mul, e)
    coset_parts = [oracles.double_cosets(mul, h, h) for h in subgroups]
    with_groupoid = n <= GROUPOID_MAX_ORDER
    parts = oracles.groupoid_parts(mul, e, subgroups[0])
    objects = [int(rng.integers(2))]
    for _ in range(CHAIN_LENGTH):
        objects.append(1 - objects[-1] if rng.random() < 0.75 else objects[-1])
    mixtures = [
        rng.dirichlet(np.ones(len(parts[objects[i], objects[i + 1]]))) for i in range(CHAIN_LENGTH)
    ]

    def run():
        group = hk.parse_group(document)
        class_table = hk.conjugacy_class_hypergroup(group)
        coset_tables = [hk.double_coset_hypergroup(group, h) for h in subgroups]
        ct = hk.characters(class_table)
        if not with_groupoid:
            return group, class_table, coset_tables, ct, None
        gpd = hk.double_coset_groupoid(group, subgroups[0])
        report = hk.validate_groupoid(gpd)
        states = [
            hk.BoundaryState(gpd, objects[i], objects[i + 1], p) for i, p in enumerate(mixtures)
        ]
        left = hk.juxtapose_chain(gpd, states)
        right = states[-1]
        for state in reversed(states[:-1]):
            right = hk.compose(gpd, state, right)
        return group, class_table, coset_tables, ct, (gpd, report, left, right)

    def check(out):
        group, class_table, coset_tables, ct, groupoid = out
        expect(group.order == n and np.array_equal(group.mul, mul), "parsed group differs")
        expect(class_table.n == oracles.class_count(mul), "class count differs from Burnside count")
        sizes = np.array([len(c) for c in classes])
        expect_close(ct.haar_weights, sizes, "class weights vs class sizes", rtol=1e-12)
        expect_close(class_table.lam, oracles.pair_count_convolution(mul, classes, classes, classes),
                     "class table vs bincount convolution", atol=0.0)
        expect_close(np.sum(ct.dual_weights), n, "dual weights of the class table sum to |G|",
                     rtol=1e-9)
        for h, cosets, table in zip(subgroups, coset_parts, coset_tables):
            mu = weights_of(table.lam, table.unit, table.involution)
            expect_close(mu, [len(c) / len(h) for c in cosets],
                         "double-coset weights vs |HgH|/|H|", rtol=1e-12)
            expect_close(table.lam, oracles.pair_count_convolution(mul, cosets, cosets, cosets),
                         "double-coset table vs bincount convolution", atol=0.0)
        if groupoid is None:
            return
        gpd, report, left, right = groupoid
        expect(report.passed, f"built groupoid fails validation: {report.violations[:3]}")
        for (x, y), px in parts.items():
            for z in range(2):
                want = oracles.pair_count_convolution(mul, px, parts[y, z], parts[x, z])
                expect_close(gpd.comp[x][y][z], want, f"groupoid comp[{x}][{y}][{z}] vs bincount",
                             atol=0.0)
        expect(left.to_object == objects[0] and left.from_object == objects[-1], "chain end objects")
        convex = np.all(left.coeffs >= 0) and abs(left.coeffs.sum() - 1.0) < 1e-12
        expect(convex, "chain result is not convex")
        expect_close(left.coeffs, oracles.chain_convolution(mul, parts, objects, mixtures),
                     "chain vs measure convolution", atol=1e-12)
        expect_close(right.coeffs, left.coeffs, "right fold vs left fold", atol=1e-12)

    return Job(f"group_{name}", name, run, check)


def perturbed_groupoid_job() -> Job:
    """Validate a fixed two-object groupoid over S3 with one endo entry raised."""
    mul, e = oracles.symmetric_group(3)
    mor, comp, star, units = oracles.double_coset_groupoid(mul, e, oracles.cyclic_subgroup(mul, e, 1))
    defect = (1, 1, 1)
    comp[1][1][1] = comp[1][1][1].copy()
    comp[1][1][1][defect] += 0.25
    expect(units[1] not in defect, "the raised entry must avoid the unit arrow")

    def run():
        g = hk.Hypergroupoid(("X0", "X1"), mor, comp, star, units)
        return hk.validate_groupoid(g)

    def check(report):
        keys = [_groupoid_key(v) for v in report.violations]
        expect(("convexity", (1, 1, 1, 1, 1)) in keys, "no convexity violation at the raised row")
        twice = [key for key, count in Counter(keys).items() if count > 1]
        if twice:
            raise Mismatch(f"{len(twice)} defect(s) reported more than once, e.g. {twice[0]}")

    return Job(
        "groupoid_perturbed",
        "perturbed",
        run,
        check,
        known_fault="validate_groupoid reports each endo defect again as endo:<axiom>",
    )


def _groupoid_key(v) -> tuple:
    """Name a violation by groupoid-level indices, so endo reports coincide."""
    if not v.axiom.startswith("endo:"):
        return (v.axiom, tuple(v.indices))
    axiom = v.axiom[len("endo:"):]
    x, *rest = v.indices
    copies = {"nonnegativity": 3, "convexity": 3, "associativity": 4}.get(axiom, 2)
    return (axiom, (x,) * copies + tuple(rest))


def warmup_jobs(seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1 << 20])
    return [make_job(name, rng) for name in WARMUP_ROUND] + [perturbed_groupoid_job()]


def round_jobs(seed: int, index: int) -> list[Job]:
    rng = np.random.default_rng([seed, index])
    return [make_job(name, rng) for name in ROUND] + [perturbed_groupoid_job()]
