#!/usr/bin/env bash
# Static-analysis gate, mirroring CI's analyze job: build cmd/repolint
# and run the suite once over ./.... The loader covers every unit —
# each package, its in-package test variant and its external _test
# package — and deadexport judges each exported name by every package of
# the module and of bench/, which is why there are no package arguments.
# Exit 0 clean / 1 findings / 2 error. The tree must be clean — every
# invariant violation is either a real bug or needs a //bc:hotpath /
# //bc:ctxok justification at the site (see internal/analysis for the
# invariant catalogue).
#
# Usage:
#   scripts/lint.sh
#
# Equivalent without this script:
#   go run ./cmd/repolint ./...
set -euo pipefail
cd "$(dirname "$0")/.."

tool="$(mktemp -d)/repolint"
trap 'rm -rf "$(dirname "$tool")"' EXIT

go build -o "$tool" ./cmd/repolint
"$tool" ./...
