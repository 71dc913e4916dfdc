#!/bin/sh
# check_flag_docs.sh — fail when the flags auditd accepts and the flag
# table in docs/api.md name different flags: every flag printed by
# `go run ./cmd/auditd -h` must have a row in the table, and every row
# must name a flag auditd still has. Names only — defaults and meanings
# are not compared. Run from the repo root; the CI docs job runs it.
set -eu

help=$(mktemp)
trap 'rm -f "$help" "$help.code" "$help.docs"' EXIT

# -h prints the usage and exits 0; any other status is a build or
# start-up failure.
go run ./cmd/auditd -h >"$help" 2>&1 || {
    cat "$help" >&2
    echo "check_flag_docs: go run ./cmd/auditd -h failed" >&2
    exit 1
}
sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' "$help" | sort >"$help.code"

# The table opens with its "| Flag |" header and ends at the first line
# that is not a table row.
awk '
    /^\| Flag \|/ { in_table = 1; next }
    in_table && !/^\|/ { exit }
    in_table && /^\| `-/ { sub(/^\| `-/, ""); sub(/`.*/, ""); print }
' docs/api.md | sort >"$help.docs"

if [ ! -s "$help.code" ] || [ ! -s "$help.docs" ]; then
    echo "check_flag_docs: found no flags in the auditd usage or in docs/api.md" >&2
    exit 1
fi

fail=0
for f in $(comm -23 "$help.code" "$help.docs"); do
    echo "undocumented auditd flag: -$f (add a row to docs/api.md's flag table)" >&2
    fail=1
done
for f in $(comm -13 "$help.code" "$help.docs"); do
    echo "docs/api.md documents -$f, which auditd does not accept" >&2
    fail=1
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_flag_docs: $(wc -l <"$help.code") auditd flags, all documented"
