#!/usr/bin/env bash
# check_coverage.sh — enforces per-package statement-coverage floors on
# the scoring core and on the packages that decode every network body
# (internal/serve) and every model file (internal/registry).
#
#   go test -coverprofile=coverage.out ./...
#   ./scripts/check_coverage.sh coverage.out
#
# The floor applies to the packages whose correctness the audit results
# depend on most directly; override with FLOOR / PACKAGES:
#
#   FLOOR=80 PACKAGES="dataaudit/internal/audit" ./scripts/check_coverage.sh
set -euo pipefail

profile=${1:-coverage.out}
floor=${FLOOR:-70}
packages=${PACKAGES:-"dataaudit/internal/audit dataaudit/internal/mlcore dataaudit/internal/monitor dataaudit/internal/obs dataaudit/internal/dataset dataaudit/internal/shard dataaudit/internal/assoc dataaudit/internal/dedup dataaudit/internal/serve dataaudit/internal/registry"}

if [ ! -f "$profile" ]; then
  echo "check_coverage: profile $profile not found (run: go test -coverprofile=$profile ./...)" >&2
  exit 2
fi

status=0
for pkg in $packages; do
  # Coverprofile lines: <file>:<positions> <numStatements> <hitCount>.
  # Statement-weighted coverage per package = covered stmts / total stmts.
  # The file's directory must equal the package exactly — a bare prefix
  # match would fold test-less subpackages (e.g. mlcore/conform, present
  # with zero counts since Go 1.22 lists untested packages in ./...
  # profiles) into their parent's floor.
  pct=$(awk -v pkg="$pkg" '
    NR > 1 {
      file = $1
      sub(/:.*/, "", file)
      dir = file
      sub(/\/[^\/]*$/, "", dir)
      if (dir == pkg) {
        total += $2
        if ($3 > 0) covered += $2
      }
    }
    END {
      if (total == 0) print "-1"
      else printf "%.1f", covered / total * 100
    }' "$profile")
  if [ "$pct" = "-1" ]; then
    echo "check_coverage: FAIL: $pkg has no statements in $profile" >&2
    status=1
    continue
  fi
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "check_coverage: FAIL: $pkg at ${pct}% (floor ${floor}%)" >&2
    status=1
  else
    echo "check_coverage: $pkg at ${pct}% (floor ${floor}%)"
  fi
done
exit $status
