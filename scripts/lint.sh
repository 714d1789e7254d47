#!/usr/bin/env bash
# Static-analysis gate, mirroring CI's analyze job: build cmd/repolint
# and run the suite twice. The `go vet -vettool` protocol runs the
# per-package analyzers over the given packages, so findings come out with
# file:line positions and a nonzero exit. It hands the tool one package at
# a time, so the standalone run over ./... (exit 0 clean / 1 findings /
# 2 error) adds deadexport, which judges each exported name by every
# package of the module and of bench/. The tree must be clean — every
# invariant violation is either a real bug or needs a //bc:hotpath /
# //bc:ctxok justification at the site (see internal/analysis for the
# invariant catalogue).
#
# Usage:
#   scripts/lint.sh [packages...]     # vet default ./...; standalone always ./...
#
# Equivalent without this script:
#   go build -o "$(go env GOPATH)/bin/repolint" ./cmd/repolint && \
#     go vet -vettool="$(go env GOPATH)/bin/repolint" ./... && \
#     "$(go env GOPATH)/bin/repolint" ./...
set -euo pipefail
cd "$(dirname "$0")/.."

tool="$(mktemp -d)/repolint"
trap 'rm -rf "$(dirname "$tool")"' EXIT

go build -o "$tool" ./cmd/repolint
go vet -vettool="$tool" "${@:-./...}"
"$tool" ./...
