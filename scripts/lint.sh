#!/bin/sh
# Runs the exact checks CI's lint and sigvet jobs run (see
# .github/workflows/ci.yml), so a clean local run means green lint and
# sigvet columns:
#
#   scripts/lint.sh
#
# go vet and sigvet (the project's nine invariant checkers — lockcheck,
# ctxcheck, pageacct, errwrap, faultclass, wirecode, segimmut,
# detorder, atomiccheck; DESIGN.md §11) always run; sigvet's -summary
# table names the failing analyzer, and an unused //sigvet:ignore
# directive anywhere in the repo fails the run. The benchmark harness
# in bench/ is its own module that go vet ./... does not reach, so it is
# vetted and tested here too (CI does it in the test job). staticcheck and
# govulncheck run when installed; install the CI-pinned versions with
#
#   go install honnef.co/go/tools/cmd/staticcheck@2025.1.1
#   go install golang.org/x/vuln/cmd/govulncheck@v1.1.4
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> sigvet"
go run ./cmd/sigvet -summary ./...

echo "==> bench harness (own module)"
(cd bench && go vet . && go test .)

if command -v staticcheck >/dev/null 2>&1; then
	echo "==> staticcheck"
	staticcheck ./...
else
	echo "==> staticcheck not installed; skipping (CI runs 2025.1.1)"
fi

if command -v govulncheck >/dev/null 2>&1; then
	echo "==> govulncheck"
	govulncheck ./...
else
	echo "==> govulncheck not installed; skipping (CI runs v1.1.4)"
fi

echo "lint OK"
