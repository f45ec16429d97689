"""Workload ``cli_batch``: in-process ``hyperkit.cli.main`` calls.

One job is one ``main(argv)`` call with stdout and stderr captured.  The
benchmark writes small documents (n <= 9) whose elements sit in a
seeded order, so every seed prints the same values and does the same
work.  Every subcommand runs in human mode and again with ``--json``;
the JSON output is parsed back with ``parse_document`` and compared
with the closed forms in ``oracles``, and every number in the human
output must agree with its JSON twin to the printed digits.  Jobs on
broken or non-commutative tables expect exit 1 and keep their twins;
jobs on malformed documents and usage errors expect exit 2 and run
once, since they print nothing to compare.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re

import numpy as np

import hyperkit as hk
import hyperkit.cli as hk_cli
import oracles
from jobs import Job, Mismatch, expect, expect_close, match_rows, weights_of

TOL = 1e-9
HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(HERE, "out", f"work-{os.getpid()}")

#: malformed documents that reach numpy or int() unchecked; fixed, not seeded
FAULTY_DOCUMENTS = {
    "ragged_N": (
        ["build", "fusion"],
        {"format_version": 1, "kind": "fusion_ring", "labels": ["1", "x"], "unit": 0,
         "N": [[[1, 0], [0, 1]], [[0, 1]]]},
        "io.parse_fusion_ring passes a ragged N to numpy (ValueError)",
    ),
    "ragged_mul": (
        ["build", "group"],
        {"format_version": 1, "kind": "group", "unit": 0, "mul": [[0, 1], [1]]},
        "io.parse_group passes a ragged mul to numpy (ValueError)",
    ),
    "list_unit": (
        ["build", "classes"],
        {"format_version": 1, "kind": "group", "unit": [0], "mul": [[0, 1], [1, 0]]},
        "io.parse_group passes a list-valued unit to int() (TypeError)",
    ),
}


# ---------------------------------------------------------------------------
# inputs


def _write(name: str, document) -> str:
    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document if isinstance(document, str) else json.dumps(document))
    return path


def _hypergroup_doc(lam, labels, unit) -> dict:
    return {"format_version": 1, "kind": "hypergroup", "labels": labels, "unit": unit,
            "lambda": np.asarray(lam).tolist()}


class Su2:
    """SU(2)_k data with the basis in a seeded order."""

    def __init__(self, k: int, rng: np.random.Generator):
        self.perm = rng.permutation(k + 1)
        self.order = np.argsort(self.perm)
        self.labels = [f"j{j}" for j in self.order]
        self.unit = int(self.perm[0])
        self.N = oracles.permute_tensor(oracles.su2_fusion_tensor(k), self.perm)
        self.dims = oracles.su2_dims(k)[self.order]
        self.lam = oracles.rescaled_lambda(self.N, self.dims)
        self.chars = oracles.verlinde_characters(k)[:, self.order]

    def hypergroup_doc(self, lam=None) -> dict:
        return _hypergroup_doc(self.lam if lam is None else lam, self.labels, self.unit)

    def fusion_doc(self) -> dict:
        return {"format_version": 1, "kind": "fusion_ring", "labels": self.labels,
                "unit": self.unit, "N": self.N.tolist()}


class Group:
    """A Cayley table with its elements in a seeded order."""

    def __init__(self, table, rng: np.random.Generator):
        mul0, e0 = table
        self.perm = rng.permutation(mul0.shape[0])
        self.orders = oracles.element_orders(mul0, e0)   # by label before relabeling
        self.mul, self.e = oracles.relabel_group(mul0, e0, self.perm)

    def doc(self) -> dict:
        return {"format_version": 1, "kind": "group", "unit": self.e, "mul": self.mul.tolist()}

    def element(self, order: int) -> int:
        """The element of this order that comes first in the table before relabeling."""
        return int(self.perm[np.flatnonzero(self.orders == order)[0]])


# ---------------------------------------------------------------------------
# reading the human output


_LITERAL = re.compile(r"(?:(-?\d+)(?=[+-]))?([+-]?\d*)√(\d+)")


def literal_value(text: str) -> float:
    """Value of a printed quadratic literal such as ``(5+√5)/2`` or ``-√3``."""
    body, c = text, 1
    whole = re.fullmatch(r"\((.*)\)/(\d+)", text)
    if whole:
        body, c = whole.group(1), int(whole.group(2))
    m = _LITERAL.fullmatch(body)
    if not m:
        raise Mismatch(f"unreadable quadratic literal {text!r}")
    a = int(m.group(1) or 0)
    b = {"": 1, "+": 1, "-": -1}.get(m.group(2))
    b = int(m.group(2)) if b is None else b
    return (a + b * math.sqrt(int(m.group(3)))) / c


def agree(text: str, value: float, what: str) -> None:
    """A printed real agrees with a value to its printed digits."""
    text = text.strip()
    if text == "0":
        expect(abs(value) <= TOL, f"{what}: printed 0 for {value!r}")
        return
    head, _, annotation = text.partition(" (")
    expect(head == f"{value:.12g}", f"{what}: printed {head}, twin has {value:.12g}")
    if annotation:
        literal = literal_value(annotation[:-1])
        expect(abs(literal - value) <= TOL, f"{what}: annotation {annotation} is {literal!r}")


def agree_complex(text: str, re_part: float, im_part: float, what: str) -> None:
    if abs(im_part) <= TOL:
        agree(text, re_part, what)
        return
    m = re.fullmatch(r"(\S+) ([+-]) (\S+)i", text.strip())
    expect(m is not None, f"{what}: unreadable complex {text!r}")
    expect(m.group(1) == f"{re_part:.12g}", f"{what}: real part {m.group(1)}")
    sign = 1.0 if m.group(2) == "+" else -1.0
    expect(sign * float(m.group(3)) == float(f"{im_part:.12g}"), f"{what}: imaginary part")


def blocks(text: str) -> list[tuple[str, list[str]]]:
    """Split output into (header, indented lines) blocks."""
    out = []
    for line in text.splitlines():
        if line.startswith("  ") and out:
            out[-1][1].append(line)
        else:
            out.append((line, []))
    return out


def mixture_lines(lines, labels, values, what: str) -> None:
    expect(len(lines) == len(labels), f"{what}: {len(lines)} lines for {len(labels)} values")
    for line, label, value in zip(lines, labels, values):
        name, _, number = line.strip().partition(" ")
        expect(name == label, f"{what}: label {name!r}, expected {label!r}")
        agree(number, value, f"{what} {label}")


# ---------------------------------------------------------------------------
# checks per subcommand


def validate_checks(labels, lam, defect=None):
    def json_check(text):
        report = hk.parse_document(text)
        expect(report["kind"] == "validation_report", "validate --json kind")
        keys = [(v["axiom"], tuple(v["indices"])) for v in report["violations"]]
        expect(len(keys) == len(set(keys)), "a violation is reported twice")
        if defect is None:
            expect(report["passed"] and not keys, "valid table reported invalid")
            return
        expect(not report["passed"], "broken table passed")
        expect(("convexity", defect[:2]) in keys, f"no convexity violation at {defect[:2]}")
        got = {k for a, k in keys if a == "associativity"}
        expect(got == oracles.associativity_violations(lam, TOL),
               "associativity violations differ from the reference kernel")

    def human_check(text, twin):
        lines = text.splitlines()
        header = f"hypergroup on {len(labels)} element(s): {', '.join(labels)}"
        expect(lines[0] == header, "validate header")
        report = json.loads(twin)
        if report["passed"]:
            expect(lines[1:] == ["all hypergroup axioms hold"], "validate verdict")
            return
        want = [f"{len(report['violations'])} axiom violation(s):"] + [
            f"  {v['axiom']} at ({', '.join(map(str, v['indices']))}): "
            f"defect {v['magnitude']:.3e}"
            for v in report["violations"]
        ]
        expect(lines[1:] == want, "violation lines differ from the JSON report")

    return json_check, human_check


def build_checks(expected_lam, expected_weights=None, exact=False):
    def json_check(text):
        table = hk.parse_document(text)
        expect(isinstance(table, hk.HypergroupTable), "build --json is not a hypergroup")
        expect_close(table.lam, expected_lam, "built table vs closed form",
                     atol=0.0 if exact else 1e-10)
        if expected_weights is not None:
            expect_close(weights_of(table.lam, table.unit, table.involution), expected_weights,
                         "built weights vs closed form", rtol=1e-9)

    def human_check(text, twin):
        head, sep, document = text.partition("document:\n")
        expect(sep and document == twin, "human document differs from the JSON twin")
        doc = json.loads(twin)
        lam = np.array(doc["lambda"])
        mu = weights_of(lam, doc["unit"], doc["involution"])
        parts = blocks(head)
        headers = [f"built hypergroup on {len(mu)} element(s)", "weights:", "haar measure:"]
        expect([h for h, _ in parts] == headers, "build headers")
        mixture_lines(parts[1][1], doc["labels"], mu, "weight")
        mixture_lines(parts[2][1], doc["labels"], mu / mu.sum(), "haar")

    return json_check, human_check


def characters_checks(su2: Su2 | None, dual: bool):
    def json_check(text):
        result = hk.parse_document(text)
        ct = hk.parse_character_table(result["character_table"])
        expect(result["unitarity_defect"] < 1e-8, "unitarity defect")
        weights = su2.dims ** 2
        expect_close(ct.haar_weights, weights, "haar weights vs d_j^2", rtol=1e-9)
        expect(np.max(np.abs(ct.chars.imag)) < TOL, "SU(2)_k characters are real")
        match_rows(ct.chars.real, su2.chars, "characters vs Verlinde ratios", atol=1e-7)
        expect_close(np.sort(ct.dual_weights), np.sort(weights), "dual weights vs d_j^2", rtol=1e-7)
        if dual:
            table = hk.parse_hypergroup(result["dual"])
            expect_close(np.sort(weights_of(table.lam, table.unit, table.involution)), np.sort(weights),
                         "dual table weights vs d_j^2", rtol=1e-7)
        else:
            expect(result["dual"] is None, "dual printed without --dual")

    def human_check(text, twin):
        result = json.loads(twin)
        ct = result["character_table"]
        labels = ct["labels"]
        lines = text.splitlines()
        expect(lines[0] == "characters (rows) by element (columns):", "characters header")
        expect(lines[1].split() == labels, "characters column labels")
        for m, row in enumerate(ct["chars"]):
            tokens = re.split(r"\s{2,}", lines[2 + m].strip())
            expect(len(tokens) == len(row), f"character row {m} has {len(tokens)} values")
            for a, (token, z) in enumerate(zip(tokens, row)):
                agree_complex(token, z["re"], z["im"], f"chi[{m}][{a}]")
        rest = "\n".join(lines[2 + len(labels):]) + "\n"
        head, sep, dual_text = rest.partition("dual hypergroup:\n")
        parts = blocks(head)
        expect([h for h, _ in parts] == ["haar weights:", "dual weights:",
                                          f"unitarity defect: {result['unitarity_defect']:.3e}"],
               "characters sections")
        mixture_lines(parts[0][1], labels, ct["haar_weights"], "haar weight")
        mixture_lines(parts[1][1], labels, ct["dual_weights"], "dual weight")
        expect(bool(sep) == (result["dual"] is not None), "dual section")
        if sep:
            expect(json.loads(dual_text) == result["dual"], "human dual differs from the JSON twin")

    return json_check, human_check


def compose_checks(objects, labels, steps):
    """``steps[i]`` is the closed-form mixture after composing i+1 arrows."""
    final = steps[-1]

    def json_check(text):
        state = hk.parse_document(text)
        expect(state["kind"] == "boundary_state", "compose --json kind")
        ends = (state["to_object"], state["from_object"])
        expect(ends == (objects[0], objects[-1]), "composed end objects")
        expect(state["labels"] == labels[-1], "composed arrow labels")
        expect_close(state["coeffs"], final, "composed state vs convolution", atol=1e-12)

    def human_check(text, twin):
        state = json.loads(twin)
        parts = blocks(text)
        for pos, (header, lines) in enumerate(parts[:-1]):
            want = f"after step {pos + 1}: state from {objects[pos + 1]!r} to {objects[0]!r}"
            expect(header == want, f"step header {header!r}")
            mixture_lines(lines, labels[pos], steps[pos], f"step {pos + 1}")
        expect(len(parts) in (1, len(steps) + 1), "compose step count")
        header, lines = parts[-1]
        want = f"composed boundary condition from {state['from_object']!r} to {state['to_object']!r}:"
        expect(header == want, "compose result header")
        mixture_lines(lines, state["labels"], state["coeffs"], "composed")

    return json_check, human_check


def indices_checks(bound: float, n_max: int):
    def json_check(text):
        result = hk.parse_document(text)
        values = [v["value"] for v in result["values"]]
        expect_close(values, oracles.admissible_values(bound, n_max, TOL), "admissible values",
                     atol=1e-9)
        for v in result["values"]:
            total = 1.0 + sum(oracles.jones(n) for n in v["witness"])
            expect(abs(total - v["value"]) < 1e-9, "witness sum")
        expect(result["continuum_from"] == (5.0 if bound >= 5.0 else None), "continuum onset")

    def human_check(text, twin):
        result = json.loads(twin)
        lines = text.splitlines()
        expect(lines[0].startswith(f"admissible index values up to {bound:g} "), "indices header")
        expect(len(lines) == 1 + len(result["values"]), "one line per admissible value")
        for line, entry in zip(lines[1:], result["values"]):
            number, _, witness = line.strip().partition(" = ")
            agree(number, entry["value"], "admissible value")
            expect([int(n) for n in re.findall(r"pi/(\d+)", witness)] == entry["witness"], "witness")

    return json_check, human_check


# ---------------------------------------------------------------------------
# jobs


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hk_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def twin_jobs(name: str, argv, code: int, checks) -> list[Job]:
    """The ``--json`` job and its human twin, which is checked against it."""
    json_check, human_check = checks
    sub = argv[0]
    twin = {}

    def checker(mode):
        def check(result):
            got, stdout, stderr = result
            expect(got == code, f"exit {got}, expected {code}: {stderr.strip()[-300:]}")
            if mode == "json":
                twin["json"] = stdout
                json_check(stdout)
            else:
                expect("json" in twin, "the JSON twin produced no output")
                human_check(stdout, twin["json"])
        return check

    return [
        Job(f"{name}.json", f"{sub}.json", lambda: call_main(argv + ["--json"]), checker("json")),
        Job(f"{name}.human", f"{sub}.human", lambda: call_main(list(argv)), checker("human")),
    ]


def error_job(name: str, argv, code: int, known_fault=None) -> Job:
    def check(result):
        got, stdout, stderr = result
        expect(got == code, f"exit {got}, expected {code}")
        expect(stdout == "", "error job printed to stdout")
        expect(stderr.strip() != "", "error job printed no message")

    return Job(name, "error", lambda: call_main(argv), check, known_fault)


def noncommutative_checks():
    def json_check(text):
        expect(text == "", "characters of a non-commutative table printed output")

    def human_check(text, twin):
        expect(text == "" and twin == "", "characters of a non-commutative table printed output")

    return json_check, human_check


def round_jobs(seed: int, index: int) -> list[Job]:
    rng = np.random.default_rng([seed, index])
    su2_2, su2_3, su2_4, su2_5 = (Su2(k, rng) for k in (2, 3, 4, 5))
    s3 = Group(oracles.symmetric_group(3), rng)
    s4 = Group(oracles.symmetric_group(4), rng)
    d4 = Group(oracles.dihedral_group(4), rng)

    broken = su2_2.lam.copy()
    i, j = int(su2_2.perm[1]), int(su2_2.perm[2])
    broken[i, j, i] += 0.125
    s3_table = np.zeros((6, 6, 6))
    for a in range(6):
        for b in range(6):
            s3_table[a, b, s3.mul[a, b]] = 1.0
    subgroup = oracles.conjugate_cyclic(s4.mul, s4.e, s4.element(2), rng)
    cosets = oracles.double_cosets(s4.mul, subgroup, subgroup)
    classes = oracles.conjugacy_classes(s4.mul, s4.e)
    ghj = 2.0 - math.sqrt(3.0)

    paths = {
        "su2_4": _write("su2_4.hg", su2_4.hypergroup_doc()),
        "su2_3": _write("su2_3.hg", su2_3.hypergroup_doc()),
        "broken": _write("broken.hg", su2_2.hypergroup_doc(broken)),
        "s3_table": _write("s3.hg", _hypergroup_doc(s3_table, [f"g{a}" for a in range(6)], s3.e)),
        "fr_su2_3": _write("su2_3.fr", su2_3.fusion_doc()),
        "fr_su2_5": _write("su2_5.fr", su2_5.fusion_doc()),
        "s3": _write("s3.grp", s3.doc()),
        "s4": _write("s4.grp", s4.doc()),
    }

    # a chain through the two-object groupoid of D4 over a seeded order-2 subgroup
    h = oracles.conjugate_cyclic(d4.mul, d4.e, d4.element(2), rng)
    mor, comp, star, units = oracles.double_coset_groupoid(d4.mul, d4.e, h)
    groupoid_doc = {"format_version": 1, "kind": "groupoid", "objects": ["X0", "X1"], "mor": mor,
                    "comp": [[[t.tolist() for t in row] for row in plane] for plane in comp],
                    "star": star, "unit": units}
    paths["groupoid"] = _write("d4.gpd", groupoid_doc)
    path_objects = [0, 1, 1, 0, 1]
    arrows = [int(rng.integers(len(mor[x][y]))) for x, y in zip(path_objects, path_objects[1:])]
    names = [f"X{x}:X{y}:{mor[x][y][a]}" for x, y, a in zip(path_objects, path_objects[1:], arrows)]
    parts = oracles.groupoid_parts(d4.mul, d4.e, h)
    points = [np.eye(len(mor[x][y]))[a] for x, y, a in zip(path_objects, path_objects[1:], arrows)]
    chain_steps = [
        oracles.chain_convolution(d4.mul, parts, path_objects[: m + 2], points[: m + 1])
        for m in range(len(points))
    ]
    chain_labels = [mor[0][y] for y in path_objects[1:]]

    # the builtin two-object groupoid: S3 over the subgroup {0, 2}
    mul_s3, e_s3 = oracles.symmetric_group(3)
    builtin_parts = oracles.groupoid_parts(mul_s3, e_s3, [0, 2])
    builtin_points = [np.eye(len(builtin_parts[0, 1]))[0], np.eye(len(builtin_parts[1, 0]))[0]]
    builtin_steps = [
        builtin_points[0],
        oracles.chain_convolution(mul_s3, builtin_parts, [0, 1, 0], builtin_points),
    ]
    u_labels = [f"u{a}" for a in range(len(builtin_parts[0, 1]))]
    g_labels = [f"g{a}" for a in range(6)]

    ising = oracles.rescaled_lambda(oracles.su2_fusion_tensor(2), oracles.su2_dims(2))[1, 1][[0, 2, 1]]

    jobs = []
    jobs += twin_jobs("validate_su2_4", ["validate", paths["su2_4"]], 0,
                      validate_checks(su2_4.labels, su2_4.lam))
    jobs += twin_jobs("validate_broken", ["validate", paths["broken"]], 1,
                      validate_checks(su2_2.labels, broken, defect=(i, j, i)))
    jobs += twin_jobs("characters_su2_4_dual", ["characters", paths["su2_4"], "--dual"], 0,
                      characters_checks(su2_4, dual=True))
    jobs += twin_jobs("characters_su2_3", ["characters", paths["su2_3"]], 0,
                      characters_checks(su2_3, dual=False))
    jobs += twin_jobs("characters_s3_group", ["characters", paths["s3_table"]], 1,
                      noncommutative_checks())
    jobs += twin_jobs("build_fusion_su2_3", ["build", "fusion", paths["fr_su2_3"]], 0,
                      build_checks(su2_3.lam, su2_3.dims ** 2))
    jobs += twin_jobs("build_fusion_su2_5", ["build", "fusion", paths["fr_su2_5"]], 0,
                          build_checks(su2_5.lam, su2_5.dims ** 2))
    jobs += twin_jobs("build_group_s3", ["build", "group", paths["s3"]], 0,
                      build_checks(s3_table, exact=True))
    jobs += twin_jobs("build_classes_s4", ["build", "classes", paths["s4"]], 0,
                      build_checks(oracles.pair_count_convolution(s4.mul, classes, classes, classes),
                                   [len(c) for c in classes], exact=True))
    jobs += twin_jobs("build_double_cosets_s4",
                      ["build", "double-cosets", paths["s4"], "--subgroup", ",".join(map(str, subgroup))],
                      0,
                      build_checks(oracles.pair_count_convolution(s4.mul, cosets, cosets, cosets),
                                   [len(c) / len(subgroup) for c in cosets], exact=True))
    jobs += twin_jobs("build_two_element_ghj", ["build", "two-element", "--lambda", "2,-1,1,3"], 0,
                      build_checks(np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [ghj, 1.0 - ghj]]]),
                                   [1.0, 1.0 / ghj]))
    jobs += twin_jobs("compose_ising", ["compose", "--builtin", "ising", "dual", "dual"], 0,
                      compose_checks(["ising", "ising"], [["trivial", "fermionic", "dual"]], [ising]))
    jobs += twin_jobs("compose_two_object",
                      ["compose", "--builtin", "two-object", "u0", "v0", "--steps"], 0,
                      compose_checks(["X0", "X1", "X0"], [u_labels, g_labels], builtin_steps))
    jobs += twin_jobs("compose_file_d4", ["compose", "--file", paths["groupoid"], *names, "--steps"], 0,
                      compose_checks([f"X{x}" for x in path_objects], chain_labels, chain_steps))
    jobs += twin_jobs("indices_4", ["indices", "--bound", "4"], 0, indices_checks(4.0, 100))
    jobs += twin_jobs("indices_4.7", ["indices", "--bound", "4.7", "--nmax", "12"], 0,
                      indices_checks(4.7, 12))

    not_subgroup = [s4.e, s4.element(3)]
    jobs += [
        error_job("error_not_json", ["validate", _write("bad.hg", "{not json")], 2),
        error_job("error_wrong_kind", ["build", "group", paths["su2_4"]], 2),
        error_job("error_not_subgroup",
                  ["build", "double-cosets", paths["s4"],
                   "--subgroup", ",".join(map(str, sorted(not_subgroup)))], 2),
        error_job("error_usage", ["build", "double-cosets", paths["s4"]], 2),
    ]
    for name, (argv, document, fault) in FAULTY_DOCUMENTS.items():
        jobs.append(error_job(f"error_{name}", argv + [_write(f"{name}.json", document)], 2, fault))
    return jobs


def warmup_jobs(seed: int) -> list[Job]:
    """Every subcommand in both modes on builtins whose values print cheaply."""

    def parses(text):
        hk.parse_document(text)

    def printed(text, twin):
        expect(text.strip() != "", "no human output")

    jobs = []
    for name, argv in (
        ("validate", ["validate", "--builtin", "conj-s3"]),
        ("build", ["build", "classes", "--builtin", "s3"]),
        ("characters", ["characters", "--builtin", "conj-s3", "--dual"]),
        ("compose", ["compose", "--builtin", "ising", "dual", "dual", "--steps"]),
        ("indices", ["indices", "--bound", "3"]),
    ):
        jobs += twin_jobs(f"warmup_{name}", argv, 0, (parses, printed))
    return jobs
