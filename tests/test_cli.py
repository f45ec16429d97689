import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import hyperkit as hk
import oracles
from hyperkit.cli import build_parser, main

SQRT3 = math.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateCommand:
    def test_builtin_ghj(self, capsys):
        code, out, _ = run(capsys, "validate", "--builtin", "ghj")
        assert code == 0
        assert "all hypergroup axioms hold" in out

    def test_builtin_conj_s3(self, capsys):
        code, _, _ = run(capsys, "validate", "--builtin", "conj-s3")
        assert code == 0

    def test_broken_file_lists_convexity(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "kind": "hypergroup",
            "labels": ["e", "g"],
            "unit": 0,
            "involution": [0, 1],
            "lambda": [[[1, 0], [0, 1]], [[0, 1], [0.9, 0.0]]],
        }
        path = tmp_path / "broken.hg"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "convexity" in out

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 2

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "validate", "--builtin", "nope")
        assert code == 2
        assert "unknown builtin" in err

    def test_bad_json_file(self, capsys, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("{ not json")
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 2

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "validate", "--builtin", "z2", "--json")
        assert code == 0
        doc = hk.parse_document(out)
        assert doc["passed"] is True


class TestBuildCommand:
    def test_fusion_ising(self, capsys):
        code, out, _ = run(capsys, "build", "fusion", "--builtin", "ising", "--json")
        assert code == 0
        table = hk.parse_hypergroup(out)
        sigma = table.index_of("sigma")
        assert np.allclose(table.lam[sigma, sigma], (0.5, 0.5, 0.0), atol=1e-9)

    def test_two_element_lambda_one_is_z2(self, capsys, tables):
        code, out, _ = run(capsys, "build", "two-element", "--lambda", "1.0", "--json")
        assert code == 0
        table = hk.parse_hypergroup(out)
        assert np.allclose(table.lam, tables["z2"].lam, atol=1e-15)

    def test_two_element_quadratic_literal(self, capsys, tables):
        code, out, _ = run(capsys, "build", "two-element", "--lambda", "2,-1,1,3", "--json")
        assert code == 0
        table = hk.parse_hypergroup(out)
        assert np.max(np.abs(table.lam - tables["ghj"].lam)) < 1e-12

    def test_two_element_out_of_range(self, capsys):
        code, _, err = run(capsys, "build", "two-element", "--lambda", "1.5")
        assert code == 1

    def test_classes_s3(self, capsys, tables):
        code, out, _ = run(capsys, "build", "classes", "--builtin", "s3", "--json")
        assert code == 0
        table = hk.parse_hypergroup(out)
        assert np.max(np.abs(table.lam - tables["conj-s3"].lam)) < 1e-12

    def test_group_from_file(self, capsys, tmp_path, groups):
        path = tmp_path / "z4.grp"
        path.write_text(hk.serialize_group(groups["z4"]))
        code, out, _ = run(capsys, "build", "group", str(path), "--json")
        assert code == 0
        table = hk.parse_hypergroup(out)
        assert table.n == 4

    def test_double_cosets(self, capsys, tables):
        code, out, _ = run(
            capsys, "build", "double-cosets", "--builtin", "s3", "--subgroup", "0,2", "--json"
        )
        assert code == 0
        table = hk.parse_hypergroup(out)
        assert np.max(np.abs(table.lam - tables["s3-double-coset"].lam)) < 1e-12

    def test_double_cosets_not_subgroup(self, capsys):
        code, _, err = run(
            capsys, "build", "double-cosets", "--builtin", "s3", "--subgroup", "0,3"
        )
        assert code == 2
        assert "subgroup" in err

    def test_human_output_mentions_weights(self, capsys):
        code, out, _ = run(capsys, "build", "fusion", "--builtin", "fibonacci")
        assert code == 0
        assert "weights" in out and "haar" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.hg"
        code, out, _ = run(
            capsys, "build", "two-element", "--lambda", "0.5", "-o", str(target)
        )
        assert code == 0
        table = hk.parse_hypergroup(target.read_text())
        assert abs(table.lam[1, 1, 0] - 0.5) < 1e-15


class TestCharactersCommand:
    def test_ghj_row(self, capsys):
        code, out, _ = run(capsys, "characters", "--builtin", "ghj")
        assert code == 0
        assert "-0.267949192431" in out
        assert "unitarity defect" in out

    def test_z2_fourier(self, capsys):
        code, out, _ = run(capsys, "characters", "--builtin", "z2", "--json")
        assert code == 0
        doc = hk.parse_document(out)
        chars = doc["character_table"]["chars"]
        assert chars[1][1]["re"] == pytest.approx(-1.0)
        assert doc["unitarity_defect"] < 1e-9

    def test_noncommutative_exits_one(self, capsys):
        code, _, err = run(capsys, "characters", "--builtin", "s3-group")
        assert code == 1
        assert "not commutative" in err

    def test_dual_flag(self, capsys):
        code, out, _ = run(capsys, "characters", "--builtin", "conj-s3", "--dual")
        assert code == 0
        assert "dual hypergroup" in out

    def test_dual_json(self, capsys):
        code, out, _ = run(capsys, "characters", "--builtin", "ghj", "--dual", "--json")
        assert code == 0
        doc = hk.parse_document(out)
        dual = hk.parse_hypergroup(json.dumps(doc["dual"]))
        assert abs(dual.lam[1, 1, 0] - (2 - SQRT3)) < 1e-9

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--dual"]], ids=["human", "json", "dual"])
    def test_overflowing_combination_exits_three(self, capsys, tmp_path, tables, flags):
        # the random combination of the regular matrices overflows to inf
        document = json.loads(hk.serialize_hypergroup(tables["z3"]))
        document["lambda"][1][1][2] = 1e308
        path = tmp_path / "z3-huge.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "characters", str(path), *flags)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error: ") and "not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["ghj", "conj-s3", "fibonacci-rescaled", "z3"])
    def test_json_embeds_the_serialized_documents(self, capsys, tables, name):
        code, out, _ = run(capsys, "characters", "--builtin", name, "--dual", "--json")
        assert code == 0
        doc = json.loads(out)
        ct = hk.characters(tables[name])
        assert doc["character_table"] == json.loads(hk.serialize_character_table(ct))
        dual = hk.dual_hypergroup(tables[name], chars=ct)
        assert doc["dual"] == json.loads(hk.serialize_hypergroup(dual))


class TestComposeCommand:
    def test_ising_dual_dual(self, capsys):
        code, out, _ = run(capsys, "compose", "--builtin", "ising", "dual", "dual")
        assert code == 0
        assert "trivial" in out and "0.5" in out

    def test_ising_dual_fermionic_json(self, capsys):
        code, out, _ = run(
            capsys, "compose", "--builtin", "ising", "dual", "fermionic", "--json"
        )
        assert code == 0
        doc = hk.parse_document(out)
        assert doc["coeffs"] == [0.0, 0.0, 1.0]

    def test_ghj_triple(self, capsys):
        code, out, _ = run(
            capsys, "compose", "--builtin", "ghj", "a1", "a1", "a1", "--json"
        )
        assert code == 0
        doc = hk.parse_document(out)
        assert np.allclose(doc["coeffs"], (3 * SQRT3 - 5, 6 - 3 * SQRT3), atol=1e-9)

    def test_steps_flag(self, capsys):
        code, out, _ = run(
            capsys, "compose", "--builtin", "ising", "dual", "dual", "--steps"
        )
        assert code == 0
        assert "after step 1" in out and "after step 2" in out

    def test_unknown_arrow(self, capsys):
        code, _, err = run(capsys, "compose", "--builtin", "ising", "ghost")
        assert code == 2
        assert "no arrow" in err

    def test_chain_mismatch(self, capsys):
        # u0 ends at X0, so a second u0 (starting at X1) cannot follow
        code, _, err = run(capsys, "compose", "--builtin", "two-object", "u0", "u0")
        assert code == 2
        assert "chain mismatch" in err

    def test_two_object_chain(self, capsys, groupoids):
        g = groupoids["two-object"]
        back = g.star[0][1][0]
        code, out, _ = run(
            capsys, "compose", "--builtin", "two-object", "u0", f"v{back}", "--json"
        )
        assert code == 0
        doc = hk.parse_document(out)
        assert doc["from_object"] == "X0" and doc["to_object"] == "X0"

    def test_qualified_arrows(self, capsys):
        code, _, _ = run(
            capsys, "compose", "--builtin", "two-object", "X0:X1:u0", "X1:X1:h0"
        )
        assert code == 0

    def test_from_file(self, capsys, tmp_path, groupoids):
        path = tmp_path / "ising.gpd"
        path.write_text(hk.serialize_groupoid(groupoids["ising"]))
        code, out, _ = run(capsys, "compose", "--file", str(path), "dual", "dual")
        assert code == 0
        assert "0.5" in out


class TestIndicesCommand:
    def test_bound_four_highlights_golden(self, capsys):
        code, out, _ = run(capsys, "indices", "--bound", "4")
        assert code == 0
        assert "3.61803398875" in out
        assert "unique non-integer" in out

    def test_bound_two(self, capsys):
        code, out, _ = run(capsys, "indices", "--bound", "2", "--json")
        assert code == 0
        doc = hk.parse_document(out)
        assert [round(v["value"], 9) for v in doc["values"]] == [1.0, 2.0]

    def test_bound_five_with_cutoff(self, capsys):
        code, out, _ = run(capsys, "indices", "--bound", "5", "--nmax", "12")
        assert code == 0
        assert "4cos^2(pi/7)" in out
        assert "plus every value >= 5" in out

    def test_bad_bound(self, capsys):
        code, _, err = run(capsys, "indices", "--bound", "0.5")
        assert code == 2

    def test_quadratic_values_keep_their_literals(self, capsys):
        code, out, _ = run(capsys, "indices", "--bound", "5", "--nmax", "12")
        assert code == 0
        sums = {line.split(" = ")[1].split("  <-")[0]: line for line in out.splitlines()[1:-1]}
        for literal, witness in [("(5+√5)/2", "4cos^2(pi/5)"), ("3+√2", "4cos^2(pi/8)"),
                                 ("(7+√5)/2", "4cos^2(pi/3) + 4cos^2(pi/5)"),
                                 ("3+√3", "4cos^2(pi/12)")]:
            assert f"({literal})" in sums["1 + " + witness]

    def test_no_literal_for_a_value_of_higher_degree(self, capsys):
        # 2 + 4cos^2(pi/86) has degree 21, yet lies within 1e-9 of (-59+25√30)/13
        code, out, _ = run(capsys, "indices", "--bound", "6", "--nmax", "100")
        assert code == 0
        (line,) = [x for x in out.splitlines() if x.endswith("= 1 + 4cos^2(pi/3) + 4cos^2(pi/86)")]
        assert line.split()[:2] == ["5.99466456733", "="]

    def test_loose_tolerance_annotates_only_quadratic_values(self, capsys):
        code, out, _ = run(capsys, "indices", "--bound", "4.5", "--nmax", "12", "--tol", "1e-4")
        assert code == 0
        lines = out.splitlines()
        assert "  4.24697960372                      = 1 + 4cos^2(pi/7)" in lines
        assert "  4.41421356237 (3+√2)               = 1 + 4cos^2(pi/8)" in lines


class TestGlobalFlags:
    def test_tolerance_flag_loosens_validation(self, capsys, tmp_path):
        doc = {
            "format_version": 1,
            "kind": "hypergroup",
            "labels": ["e", "g"],
            "unit": 0,
            "involution": [0, 1],
            "lambda": [[[1, 0], [0, 1]], [[0, 1], [1.0 + 5e-7, -5e-7]]],
        }
        path = tmp_path / "noisy.hg"
        path.write_text(json.dumps(doc))
        strict, _, _ = run(capsys, "validate", str(path))
        loose, _, _ = run(capsys, "validate", str(path), "--tol", "1e-5")
        assert strict == 1 and loose == 0

    def test_env_tolerance(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERKIT_TOL", "1e-5")
        doc = {
            "format_version": 1,
            "kind": "hypergroup",
            "labels": ["e", "g"],
            "unit": 0,
            "involution": [0, 1],
            "lambda": [[[1, 0], [0, 1]], [[0, 1], [1.0 + 5e-7, -5e-7]]],
        }
        path = tmp_path / "noisy.hg"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 0

    def test_seed_flag_accepted(self, capsys):
        code, _, _ = run(capsys, "characters", "--builtin", "ghj", "--seed", "0xBEEF")
        assert code == 0


class TestRepeatedCalls:
    """``main`` reuses one parser, yet every call reads its own environment and flags."""

    @pytest.fixture
    def noisy(self, tmp_path):
        # passes validation at --tol 1e-5, fails at the default 1e-9
        doc = {
            "format_version": 1,
            "kind": "hypergroup",
            "labels": ["e", "g"],
            "unit": 0,
            "involution": [0, 1],
            "lambda": [[[1, 0], [0, 1]], [[0, 1], [1.0 + 5e-7, -5e-7]]],
        }
        path = tmp_path / "noisy.hg"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "values, codes",
        [((None, "1e-5"), (1, 0)), ((None, "1e-5", None), (1, 0, 1))],
        ids=["set", "set-back"],
    )
    def test_env_tolerance_is_read_on_every_call(self, capsys, monkeypatch, noisy, values, codes):
        got = []
        for value in values:
            if value is None:
                monkeypatch.delenv("HYPERKIT_TOL", raising=False)
            else:
                monkeypatch.setenv("HYPERKIT_TOL", value)
            got.append(run(capsys, "validate", noisy)[0])
        assert tuple(got) == codes

    def test_bad_env_tolerance_beats_an_explicit_flag(self, capsys, monkeypatch):
        monkeypatch.delenv("HYPERKIT_TOL", raising=False)
        first, _, _ = run(capsys, "validate", "--builtin", "ghj", "--tol", "1e-5")
        monkeypatch.setenv("HYPERKIT_TOL", "abc")
        code, out, err = run(capsys, "validate", "--builtin", "ghj", "--tol", "1e-5")
        assert first == 0
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_no_parse_leaks_into_the_next(self, capsys):
        first, _, _ = run(capsys, "compose", "--builtin", "ising", "dual", "dual", "--steps")
        code, out, _ = run(capsys, "compose", "--builtin", "ising", "dual", "fermionic")
        assert first == 0 and code == 0
        assert out == (
            "composed boundary condition from 'ising' to 'ising':\n"
            "  trivial    0\n"
            "  fermionic  0\n"
            "  dual       1\n"
        )

    def test_a_rebound_handler_is_called(self, capsys, monkeypatch):
        assert run(capsys, "indices", "--bound", "2", "--json")[0] == 0
        monkeypatch.setattr("hyperkit.cli.cmd_indices", lambda args: 7)
        assert run(capsys, "indices", "--bound", "2", "--json")[0] == 7

    def test_parser_is_built_once(self, capsys):
        build_parser.cache_clear()
        for argv in (["validate", "--builtin", "z2"], ["indices", "--bound", "2", "--json"],
                     ["compose", "--builtin", "ising", "dual", "dual"]):
            assert run(capsys, *argv)[0] == 0
        info = build_parser.cache_info()
        assert info.misses == 1 and info.hits == 2


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv, document, env_tol",
        [
            pytest.param(
                ["build", "fusion"],
                {"format_version": 1, "kind": "fusion_ring", "labels": ["1", "x"], "unit": 0,
                 "N": [[[1, 0], [0, 1]], [[0, 1]]]},
                None,
                id="ragged-N",
            ),
            pytest.param(
                ["build", "group"],
                {"format_version": 1, "kind": "group", "unit": 0, "mul": [[0, 1], [1]]},
                None,
                id="ragged-mul",
            ),
            pytest.param(
                ["build", "classes"],
                {"format_version": 1, "kind": "group", "unit": [0], "mul": [[0, 1], [1, 0]]},
                None,
                id="list-unit",
            ),
            pytest.param(
                ["build", "classes"],
                {"format_version": 1, "kind": "group", "unit": 0, "labels": "ab",
                 "mul": [[0, 1], [1, 0]]},
                None,
                id="string-labels",
            ),
            pytest.param(
                ["compose", "e", "--file"],
                {"format_version": 1, "kind": "groupoid", "objects": ["X"], "mor": [[["e"]]],
                 "comp": [[[[[[1.0]]]]]], "star": [[[0]]], "unit": ["a"]},
                None,
                id="groupoid-string-unit",
            ),
            pytest.param(
                ["build", "fusion"],
                {"format_version": 1, "kind": "fusion_ring", "labels": ["1", "x"], "unit": 0,
                 "N": [[[1, 0], [0, 1]], [[0, 1], [1, 2**40]]]},
                None,
                id="huge-multiplicity",
            ),
            pytest.param(
                ["validate"],
                {"format_version": 1, "kind": "hypergroup", "labels": ["e"], "unit": 0,
                 "lambda": [[[10**400]]]},
                None,
                id="huge-integer",
            ),
            pytest.param(
                ["validate"],
                {"format_version": 1, "kind": "hypergroup", "labels": ["e"], "unit": 0,
                 "lambda": [[[{"a": 1, "b": 0, "c": 1, "d": 1000000000000000003}]]]},
                None,
                id="huge-radicand",
            ),
            pytest.param(
                ["build", "two-element", "--lambda", "1,0,1,1000000000000000003"],
                None,
                None,
                id="huge-radicand-argument",
            ),
            pytest.param(["validate", "--builtin", "ghj"], None, "abc", id="env-tol"),
            pytest.param(
                ["validate", "--tol", "nan"],
                {"format_version": 1, "kind": "hypergroup", "labels": ["e", "g"], "unit": 0,
                 "involution": [0, 1], "lambda": [[[1, 0], [0, 1]], [[0, 1], [3, -2]]]},
                None,
                id="nan-tol",
            ),
            pytest.param(["validate", "--builtin", "ghj", "--tol", "inf"], None, None, id="inf-tol"),
            pytest.param(["validate", "--builtin", "ghj", "--tol", "-1"], None, None,
                         id="negative-tol"),
            pytest.param(["validate", "--builtin", "ghj"], None, "nan", id="nan-env-tol"),
            pytest.param(["validate", "--builtin", "ghj"], None, "-1e-9", id="negative-env-tol"),
            pytest.param(["indices", "--bound", "nan"], None, None, id="nan-bound"),
            pytest.param(["indices", "--bound", "inf"], None, None, id="inf-bound"),
            pytest.param(["indices", "--bound", "3", "--nmax", "2"], None, None, id="small-nmax"),
        ],
    )
    def test_exits_two_with_message(self, capsys, tmp_path, monkeypatch, argv, document, env_tol):
        if env_tol is not None:
            monkeypatch.setenv("HYPERKIT_TOL", env_tol)
        if document is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(document))
            argv = argv + [str(path)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "extra",
        [{"comp": [[[[[[1.0]]]]], [[[[[1.0]]]]]]}, {"mor": [[["e"], ["f"]]]}],
        ids=["comp-plane", "mor-hom-space"],
    )
    def test_groupoid_grid_with_an_extra_entry_exits_two(self, capsys, tmp_path, extra):
        # a one-object groupoid with one more entry than objects in one grid
        document = {"format_version": 1, "kind": "groupoid", "objects": ["X"], "mor": [[["e"]]],
                    "comp": [[[[[[1.0]]]]]], "star": [[[0]]], "unit": [0], **extra}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "compose", "e", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_huge_radicand_is_rejected_at_once(self, capsys, tmp_path):
        literal = {"a": 1, "b": 0, "c": 1, "d": 1000000000000000003}
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "hypergroup", "labels": ["e"],
                                    "unit": 0, "lambda": [[[literal]]]}))
        start = time.perf_counter()
        code, _, err = run(capsys, "validate", str(path))
        assert time.perf_counter() - start < 0.1
        assert code == 2 and "2**31" in err


class TestDeterminismAcrossProcesses:
    def test_identical_bytes(self):
        cmd = [
            sys.executable,
            "-m",
            "hyperkit",
            "build",
            "fusion",
            "--builtin",
            "ising",
            "--json",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True).stdout
        second = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert first == second

    def test_characters_bytes_stable(self):
        cmd = [sys.executable, "-m", "hyperkit", "characters", "--builtin", "conj-s3", "--json"]
        first = subprocess.run(cmd, capture_output=True, check=True).stdout
        second = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert first == second


#: two objects, and one arrow named ``a`` in each of the four hom-spaces
ALL_NAMED_A = {
    "format_version": 1, "kind": "groupoid", "objects": ["X", "Y"],
    "mor": [[["a"], ["a"]], [["a"], ["a"]]],
    "comp": [[[[[[1.0]]]] * 2] * 2] * 2,
    "star": [[[0], [0]], [[0], [0]]], "unit": [0, 0],
}

#: runs ``hyperkit`` on its arguments and prints the seconds that ``main`` took
TIMED_MAIN = (
    "import sys, time\n"
    "from hyperkit.cli import main\n"
    "start = time.perf_counter()\n"
    "code = main(sys.argv[1:])\n"
    "print(time.perf_counter() - start)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "names, message",
    [(["a"] * 40, "chain is ambiguous"),
     (["a"] * 38 + ["X:X:a", "Y:Y:a"], "chain mismatch")],
    ids=["ambiguous-40", "mismatch-40"],
)
def test_long_chain_of_repeated_names_exits_two_at_once(tmp_path, names, message):
    # 2**41 candidate paths: a fresh process, so that enumerating them
    # is stopped by the timeout instead of filling memory
    path = tmp_path / "groupoid.json"
    path.write_text(json.dumps(ALL_NAMED_A))
    done = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, "compose", "--file", str(path), *names],
        capture_output=True, text=True, timeout=3,
    )
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: {message}")
    assert float(done.stdout) < 1.0


class TestHumanLiterals:
    """The human formatter marks values that match a quadratic literal."""

    def test_two_element_weights_and_haar_measure(self, capsys):
        code, out, _ = run(capsys, "build", "two-element", "--lambda", "2,-1,1,3")
        assert code == 0
        assert "3.73205080757 (2+√3)" in out
        assert "0.211324865405 ((3-√3)/6)" in out

    def test_cubic_weights_take_no_literal(self, capsys, tmp_path):
        # SU(2)_5: its weights, such as 4cos^2(pi/7), have degree 3
        k = 5
        labels = [f"j{i}" for i in range(k + 1)]
        doc = {"format_version": 1, "kind": "fusion_ring", "labels": labels, "unit": 0,
               "N": oracles.su2_fusion_tensor(k).tolist()}
        path = tmp_path / "su2_5.fr"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "build", "fusion", str(path))
        assert code == 0
        weights = out.split("weights:\n")[1].split("haar measure:")[0].splitlines()
        assert [line.split()[0] for line in weights] == labels
        assert weights[1].split() == ["j1", "3.24697960372"]  # the value, no literal
        assert all(len(line.split()) == 2 for line in weights)
