#!/usr/bin/env bash
# Exit-code and output checks of the hyperkit console script.
#
# The arguments are the command that runs hyperkit:
#   bash tests/console_checks.sh hyperkit                         (installed package)
#   PYTHONPATH=src bash tests/console_checks.sh python -m hyperkit  (source tree)
# Documents and outputs go to a temporary directory, removed on exit.
set -eo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 COMMAND [ARGS...]" >&2
  exit 2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$@" validate --builtin ghj
"$@" compose --builtin two-object u0 v0 --json
# human output matches literals through the root index, built on first use
"$@" build two-element --lambda 2,-1,1,3 > "$work/literals.txt"
cat "$work/literals.txt"
grep -qF '(2+√3)' "$work/literals.txt"
# a groupoid document with an extra comp plane is malformed: exit 2
echo '{"format_version": 1, "kind": "groupoid", "objects": ["X"], "mor": [[["e"]]],
  "comp": [[[[[[1.0]]]]], [[[[[1.0]]]]]], "star": [[[0]]], "unit": [0]}' > "$work/extra-plane.json"
code=0
"$@" compose e --file "$work/extra-plane.json" 2> "$work/err.txt" || code=$?
cat "$work/err.txt"
test "$code" -eq 2
grep -q '^error: ' "$work/err.txt"
# index fields reach the constructors unparsed, which refuse a float star and a boolean unit: exit 2
echo '{"format_version": 1, "kind": "groupoid", "objects": ["X"], "mor": [[["e"]]],
  "comp": [[[[[[1.0]]]]]], "star": [[[0.0]]], "unit": [0]}' > "$work/float-star.json"
code=0
"$@" compose e --file "$work/float-star.json" 2> "$work/err.txt" || code=$?
cat "$work/err.txt"
test "$code" -eq 2
grep -q '^error: ' "$work/err.txt"
echo '{"format_version": 1, "kind": "group", "unit": true, "mul": [[0, 1], [1, 0]]}' > "$work/bool-unit.json"
code=0
"$@" build group "$work/bool-unit.json" 2> "$work/err.txt" || code=$?
cat "$work/err.txt"
test "$code" -eq 2
grep -q '^error: ' "$work/err.txt"
# a non-numeric HYPERKIT_TOL is a usage error: exit 2
code=0
HYPERKIT_TOL=abc "$@" validate --builtin ghj 2> "$work/err.txt" || code=$?
cat "$work/err.txt"
test "$code" -eq 2
grep -q '^error: ' "$work/err.txt"
# a table off by 5e-7 fails at the default 1e-9 and passes at HYPERKIT_TOL=1e-5
echo '{"format_version": 1, "kind": "hypergroup", "labels": ["e", "g"], "unit": 0,
  "involution": [0, 1], "lambda": [[[1, 0], [0, 1]], [[0, 1], [1.0000005, -5e-7]]]}' > "$work/noisy.json"
HYPERKIT_TOL=1e-5 "$@" validate "$work/noisy.json"
# SU(2)_100 from the truncated Clebsch-Gordan rule: both of its associativity
# checks go through the generator certificate, not the n^5 kernel
python -c 'import json; k = 100; n = k + 1; N = [[[int(abs(i - j) <= l <= min(i + j, 2 * k - i - j) and (i + j + l) % 2 == 0) for l in range(n)] for j in range(n)] for i in range(n)]; print(json.dumps({"format_version": 1, "kind": "fusion_ring", "labels": [f"j{i}" for i in range(n)], "unit": 0, "N": N}))' > "$work/su2-100.json"
timeout 60 "$@" build fusion "$work/su2-100.json" --json > "$work/out.json"
echo "console checks passed: $*"
