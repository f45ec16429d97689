"""Command-line front end.

Subcommands: validate, build (group | classes | double-cosets |
fusion | two-element), characters, compose, indices.  Exit codes:
0 success, 1 validation/axiom failure, 2 usage or input error,
3 numerical failure.

``hyperkit.cli.main(argv)`` may be called repeatedly in one process: it
builds its parser on the first call and reads ``HYPERKIT_TOL`` on every
call.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import io as hio
from . import registry
from .constructions import (
    conjugacy_class_hypergroup,
    double_coset_hypergroup,
    from_fusion_ring,
    group_hypergroup,
    two_element,
)
from .core import DEFAULT_TOL, haar, is_commutative, validate, weights
from .errors import (
    AxiomError,
    HypergroupError,
    NumericalError,
    PreconditionError,
    StructureError,
)
from .groupoid import juxtapose_steps, point_state
from .quantize import enumerate_admissible, jones_value
from .reprs import DEFAULT_SEED, characters, dual_hypergroup, orthogonality_check

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(value: float, tol: float, quadratic: bool = True) -> str:
    """The value to 12 digits, with a quadratic literal matching it within tol.

    ``quadratic=False`` says the value is known to have degree above 2,
    so the literal search is skipped.
    """
    if abs(value) <= max(tol, 1e-9):
        return "0"
    text = f"{value:.12g}"
    if not quadratic:
        return text
    match = hio.match_quadratic(value, tol=max(tol, 1e-9))
    if match is not None and match.d > 0:
        text += f" ({match.pretty()})"
    return text


def _fmt_complex(z: complex, tol: float) -> str:
    if abs(z.imag) <= max(tol, 1e-9):
        return _fmt(z.real, tol)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g} {sign} {abs(z.imag):.12g}i"


def _beyond_quadratic(witness: tuple[int, ...]) -> bool:
    """Whether ``1 + sum(4cos^2(pi/n) for n in witness)`` has degree above 2.

    4cos^2(pi/n) = 2 + 2cos(2 pi/n) is an integer for n in {3, 4, 6},
    and 2cos(2 pi/n) has degree phi(n)/2, which is at most 2 only for
    n in {5, 8, 10, 12} besides those.  With exactly one other distinct
    n, the value is an integer plus m * 2cos(2 pi/n) with m >= 1, of
    degree phi(n)/2 > 2.
    """
    others = set(witness) - {3, 4, 6}
    return len(others) == 1 and others.isdisjoint({5, 8, 10, 12})


def _mixture_lines(labels, coeffs, tol) -> list[str]:
    width = max(len(str(x)) for x in labels)
    return [
        f"  {label:<{width}}  {_fmt(float(c), tol)}"
        for label, c in zip(labels, coeffs)
    ]


def _print_document(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_builtin(name: str, table: dict, what: str):
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise StructureError(f"unknown builtin {what} {name!r} (available: {known})") from None


def _read_path(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc}") from exc


def _one_input(args) -> None:
    if args.path and args.builtin:
        raise StructureError("give either a path or --builtin, not both")
    if not args.path and not args.builtin:
        raise StructureError("an input path or --builtin is required")


def _resolve(args, what: str, builtins, parse):
    """The input: builtin ``what`` named by ``--builtin``, or ``parse`` of the file at the path."""
    _one_input(args)
    if args.builtin:
        return _load_builtin(args.builtin, builtins(), what)
    return parse(_read_path(args.path))


def _resolve_hypergroup(args):
    return _resolve(
        args, "hypergroup", registry.builtin_hypergroups,
        lambda text: hio.parse_hypergroup(text, tol=args.tol, check=False),
    )


def _resolve_group(args):
    return _resolve(args, "group", registry.builtin_groups, hio.parse_group)


def _resolve_groupoid(args):
    if args.file and args.builtin:
        raise StructureError("give either --file or --builtin, not both")
    if args.builtin:
        return _load_builtin(args.builtin, registry.builtin_groupoids(), "groupoid")
    if args.file:
        return hio.parse_groupoid(_read_path(args.file))
    raise StructureError("a groupoid is required: --builtin NAME or --file PATH")


def _parse_scalar_argument(text: str) -> float:
    """A decimal literal, or an exact quadratic literal 'a,b,c,d'."""
    if "," in text:
        parts = text.split(",")
        if len(parts) != 4:
            raise StructureError("quadratic literal takes four integers a,b,c,d")
        try:
            a, b, c, d = (int(p) for p in parts)
        except ValueError:
            raise StructureError("quadratic literal takes four integers a,b,c,d") from None
        return hio.QuadraticLiteral(a, b, c, d).value()
    try:
        return float(text)
    except ValueError:
        raise StructureError(f"not a number: {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    table = _resolve_hypergroup(args)
    report = validate(table, tol=args.tol)
    if args.json:
        sys.stdout.write(hio.canonical_text(hio.validation_report_document(report)))
    else:
        print(f"hypergroup on {table.n} element(s): {', '.join(table.labels)}")
        print(report)
    return EXIT_OK if report.passed else EXIT_INVALID


def _emit_built_table(table, args) -> int:
    doc = hio.serialize_hypergroup(table)
    if args.json:
        _print_document(doc, args.output)
        return EXIT_OK
    mu = weights(table, tol=args.tol)
    h = haar(table, tol=args.tol)
    print(f"built hypergroup on {table.n} element(s)")
    print("weights:")
    print("\n".join(_mixture_lines(table.labels, mu, args.tol)))
    print("haar measure:")
    print("\n".join(_mixture_lines(table.labels, h.coeffs, args.tol)))
    if args.output:
        _print_document(doc, args.output)
        print(f"document written to {args.output}")
    else:
        print("document:")
        sys.stdout.write(doc)
    return EXIT_OK


def cmd_build_group(args) -> int:
    return _emit_built_table(group_hypergroup(_resolve_group(args)), args)


def cmd_build_classes(args) -> int:
    return _emit_built_table(conjugacy_class_hypergroup(_resolve_group(args)), args)


def cmd_build_double_cosets(args) -> int:
    group = _resolve_group(args)
    try:
        subgroup = [int(x) for x in args.subgroup.split(",")]
    except ValueError:
        raise StructureError("--subgroup takes comma-separated element indices") from None
    return _emit_built_table(double_coset_hypergroup(group, subgroup), args)


def cmd_build_fusion(args) -> int:
    ring = _resolve(args, "fusion ring", registry.builtin_fusion_rings, hio.parse_fusion_ring)
    return _emit_built_table(from_fusion_ring(ring), args)


def cmd_build_two_element(args) -> int:
    return _emit_built_table(two_element(_parse_scalar_argument(args.lam)), args)


def cmd_characters(args) -> int:
    table = _resolve_hypergroup(args)
    if not is_commutative(table, tol=args.tol):
        print("error: table is not commutative; characters are undefined", file=sys.stderr)
        return EXIT_INVALID
    ct = characters(table, seed=args.seed, tol=args.tol)
    duality = orthogonality_check(table, seed=args.seed, tol=args.tol, chars=ct)

    dual_table = None
    dual_error = None
    if args.dual:
        try:
            dual_table = dual_hypergroup(table, seed=args.seed, tol=args.tol, chars=ct)
        except AxiomError as exc:
            dual_error = exc

    if args.json:
        doc = {
            "format_version": hio.FORMAT_VERSION,
            "kind": "characters_result",
            "character_table": hio.character_table_document(ct),
            "unitarity_defect": duality.unitarity_defect,
            "dual": None if dual_table is None else hio.hypergroup_document(dual_table),
            "dual_error": None if dual_error is None else str(dual_error),
        }
        sys.stdout.write(hio.canonical_text(doc))
    else:
        width = max(12, max(len(x) for x in ct.labels))
        print("characters (rows) by element (columns):")
        print("    " + "  ".join(f"{x:>{width}}" for x in ct.labels))
        for m in range(ct.n):
            row = "  ".join(f"{_fmt_complex(z, args.tol):>{width}}" for z in ct.chars[m])
            print(f"    {row}")
        print("haar weights:")
        print("\n".join(_mixture_lines(ct.labels, ct.haar_weights, args.tol)))
        print("dual weights:")
        print("\n".join(_mixture_lines(ct.labels, ct.dual_weights, args.tol)))
        print(f"unitarity defect: {duality.unitarity_defect:.3e}")
        if dual_table is not None:
            print("dual hypergroup:")
            sys.stdout.write(hio.serialize_hypergroup(dual_table))
        elif dual_error is not None:
            print(f"dual hypergroup does not exist: {dual_error}")

    if args.dual and dual_error is not None:
        return EXIT_INVALID
    return EXIT_OK


def _resolve_chain(g, names: list[str]):
    """Turn arrow names into a composable list of point states.

    A bare name must identify a unique arrow once chain composability
    is taken into account; the qualified form ``to:from:name`` pins
    the hom-space explicitly.
    """
    candidate_lists = []
    for name in names:
        if name.count(":") == 2:
            to_label, from_label, arrow = name.split(":")
            x = g.object_index(to_label)
            y = g.object_index(from_label)
            candidates = [(x, y, g.arrow_index(x, y, arrow))]
        else:
            candidates = [
                (x, y, g.mor[x][y].index(name))
                for x in range(g.n_objects)
                for y in range(g.n_objects)
                if name in g.mor[x][y]
            ]
        if not candidates:
            raise PreconditionError(f"no arrow named {name!r} in the groupoid")
        candidate_lists.append(candidates)

    # one pass, left to right: per from-object of the last arrow, the number
    # of composable paths so far (capped at 2) and one of them.  An arrow
    # extends the paths that end at its to-object.
    ends = None
    for candidates in candidate_lists:
        step = {}
        for x, y, a in candidates:
            count, path = (1, ()) if ends is None else ends.get(x, (0, ()))
            if count:
                total, witness = step.get(y, (0, path + ((x, y, a),)))
                step[y] = (min(total + count, 2), witness)
        ends = step
    if not ends:
        raise PreconditionError("chain mismatch: the named arrows do not compose")
    if sum(count for count, _ in ends.values()) > 1:
        raise PreconditionError("chain is ambiguous; qualify arrows as to:from:name")
    ((_, path),) = ends.values()
    return [point_state(g, x, y, a) for x, y, a in path]


def cmd_compose(args) -> int:
    g = _resolve_groupoid(args)
    try:
        states = _resolve_chain(g, args.arrows)
    except (PreconditionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    steps = list(juxtapose_steps(g, states, tol=args.tol))
    acc = steps[-1]

    if args.json:
        sys.stdout.write(hio.canonical_text(hio.boundary_state_document(acc)))
        return EXIT_OK
    if args.steps:
        for pos, state in enumerate(steps):
            labels = g.mor[state.to_object][state.from_object]
            print(
                f"after step {pos + 1}: state from {g.objects[state.from_object]!r} "
                f"to {g.objects[state.to_object]!r}"
            )
            print("\n".join(_mixture_lines(labels, state.coeffs, args.tol)))
    labels = g.mor[acc.to_object][acc.from_object]
    print(
        f"composed boundary condition from {g.objects[acc.from_object]!r} "
        f"to {g.objects[acc.to_object]!r}:"
    )
    print("\n".join(_mixture_lines(labels, acc.coeffs, args.tol)))
    return EXIT_OK


def cmd_indices(args) -> int:
    if args.bound <= 1.0:
        print("error: --bound must exceed 1", file=sys.stderr)
        return EXIT_USAGE
    result = enumerate_admissible(args.bound, n_max=args.nmax, tol=args.tol)
    if args.json:
        sys.stdout.write(hio.canonical_text(hio.admissible_indices_document(result)))
        return EXIT_OK
    print(
        f"admissible index values up to {args.bound:g} "
        f"(discrete summands 4cos^2(pi/n), n = 3..{args.nmax}):"
    )
    for entry in result.entries:
        is_integer = abs(entry.value - round(entry.value)) <= args.tol
        if entry.witness:
            summands = " + ".join(
                f"4cos^2(pi/{n})" for n in entry.witness
            )
            witness = f"1 + {summands}"
        else:
            witness = "1 (empty sum)"
        flag = ""
        if not is_integer and entry.value < 4.0:
            flag = "  <- the unique non-integer value below 4"
        text = _fmt(entry.value, args.tol, quadratic=not _beyond_quadratic(entry.witness))
        print(f"  {text:<34} = {witness}{flag}")
    if result.continuum_from is not None:
        print(f"  plus every value >= {result.continuum_from:g} (continuum summands)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_input_arguments(parser, what="hypergroup document"):
    parser.add_argument("path", nargs="?", help=f"path to a {what}")
    parser.add_argument("--builtin", metavar="NAME", help="use a builtin object instead")


def _add_output_argument(parser):
    parser.add_argument("-o", "--output", help="write the document to a file")


def _env_tol() -> float:
    text = os.environ.get("HYPERKIT_TOL")
    if not text:
        return DEFAULT_TOL
    try:
        return float(text)
    except ValueError:
        raise StructureError(f"HYPERKIT_TOL is not a number: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process and shared, so callers
    must not change it.  Nothing in it varies between calls: ``main``
    fills in the ``--tol`` default, and each subcommand names its
    handler, so a rebound handler is the one run."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        help="absolute comparison tolerance (env HYPERKIT_TOL, default 1e-9)",
    )
    common.add_argument(
        "--seed",
        type=lambda s: int(s, 0),
        default=DEFAULT_SEED,
        help="seed for the character eigensolver (default 0xC0FFEE)",
    )
    common.add_argument("--json", action="store_true", help="emit a machine-readable document")

    parser = argparse.ArgumentParser(
        prog="hyperkit",
        description="finite hypergroups: validation, constructions, characters, "
        "boundary-condition composition, index quantization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check all hypergroup axioms")
    _add_input_arguments(p)
    p.set_defaults(func="cmd_validate")

    build = sub.add_parser("build", help="construct a hypergroup table")
    build_sub = build.add_subparsers(dest="build_kind", required=True)

    p = build_sub.add_parser("group", parents=[common], help="from a Cayley table")
    _add_input_arguments(p, "group document")
    _add_output_argument(p)
    p.set_defaults(func="cmd_build_group")

    p = build_sub.add_parser("classes", parents=[common], help="from conjugacy classes")
    _add_input_arguments(p, "group document")
    _add_output_argument(p)
    p.set_defaults(func="cmd_build_classes")

    p = build_sub.add_parser(
        "double-cosets", parents=[common], help="from double cosets of a subgroup"
    )
    _add_input_arguments(p, "group document")
    p.add_argument(
        "--subgroup",
        required=True,
        help="comma-separated element indices forming a subgroup",
    )
    _add_output_argument(p)
    p.set_defaults(func="cmd_build_double_cosets")

    p = build_sub.add_parser(
        "fusion", parents=[common], help="rescale a fusion ring by its dimensions"
    )
    _add_input_arguments(p, "fusion ring document")
    _add_output_argument(p)
    p.set_defaults(func="cmd_build_fusion")

    p = build_sub.add_parser(
        "two-element", parents=[common], help="the family k1^2 = L*k0 + (1-L)*k1"
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        help="unit coefficient in (0, 1]; decimal or quadratic literal a,b,c,d",
    )
    _add_output_argument(p)
    p.set_defaults(func="cmd_build_two_element")

    p = sub.add_parser(
        "characters", parents=[common], help="character table of a commutative hypergroup"
    )
    _add_input_arguments(p)
    p.add_argument("--dual", action="store_true", help="also compute the dual hypergroup")
    p.set_defaults(func="cmd_characters")

    p = sub.add_parser("compose", parents=[common], help="juxtapose boundary conditions")
    p.add_argument("arrows", nargs="+", help="chain of arrow names, left to right")
    p.add_argument("--builtin", metavar="NAME", help="use a builtin groupoid")
    p.add_argument("--file", metavar="PATH", help="path to a groupoid document")
    p.add_argument("--steps", action="store_true", help="print intermediate mixtures")
    p.set_defaults(func="cmd_compose")

    p = sub.add_parser("indices", parents=[common], help="enumerate admissible index values")
    p.add_argument("--bound", type=float, required=True, help="largest value to list (> 1)")
    p.add_argument("--nmax", type=int, default=100, help="discrete spectrum cutoff (default 100)")
    p.set_defaults(func="cmd_indices")

    return parser


def main(argv=None) -> int:
    try:
        tol = _env_tol()
        args = build_parser().parse_args(argv)
        if args.tol is None:
            args.tol = tol
        return globals()[args.func](args)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HypergroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
