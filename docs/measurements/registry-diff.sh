#!/usr/bin/env bash
# Checks that the checked-in registry files moved only where a change of
# histogram format may move them, against an earlier revision:
#   - every tracked *.metrics.json keeps its counters and gauges byte for
#     byte (everything but the "histograms" object);
#   - internal/experiments/testdata/baseline/costs.json keeps every column
#     but "allocs" and "alloc_bytes".
# Prints each file that moved beyond that and exits 1 if any did.
#
#   bash docs/measurements/registry-diff.sh <rev>
set -euo pipefail
rev=${1:?usage: registry-diff.sh <rev>}
cd "$(git rev-parse --show-toplevel)"

# without_histograms drops every "histograms" object (at any indentation,
# so the registries inside a JSON array too).
without_histograms() {
	awk '
		skip == 0 && /"histograms": \{\}/ { next }
		skip == 0 && /"histograms": \{/ { match($0, /^ */); indent = RLENGTH; skip = 1; next }
		skip == 1 { match($0, /^ */); if (RLENGTH == indent && $0 ~ /^ *\}/) skip = 0; next }
		{ print }
	'
}
without_allocs() { grep -v -e '"allocs"' -e '"alloc_bytes"'; }

status=0
for f in $(git ls-files '*.metrics.json'); do
	if ! diff <(git show "$rev:$f" | without_histograms) <(without_histograms <"$f") >/dev/null; then
		echo "counters or gauges moved: $f"
		status=1
	fi
done
costs=internal/experiments/testdata/baseline/costs.json
if ! diff <(git show "$rev:$costs" | without_allocs) <(without_allocs <"$costs") >/dev/null; then
	echo "moved beyond allocs and alloc_bytes: $costs"
	status=1
fi
exit $status
