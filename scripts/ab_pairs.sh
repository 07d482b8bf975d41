#!/usr/bin/env bash
# Compares the working tree's perfbench iters_per_s with a base
# revision's in order-alternated pairs of untraced runs:
#
#	scripts/ab_pairs.sh <base-rev> <workload> <pairs> [first-seed]
#
# The base revision is checked out in a temporary git worktree, which
# is removed on exit. Pair k runs `bash perfbench/run.sh --workload
# <workload> --seed <first-seed + k> --seconds 10 --trace 0` once in the
# base checkout and once in the working tree; even pairs run the base
# first, odd pairs the working tree. AB_SECONDS overrides the 10 s run
# length (use the same on every comparison you report).
#
# It prints every pair, then each side's median and quartiles, the win
# count and the verdict: a gain only when the working tree wins at least
# nine tenths of the pairs (ties count for neither side) and its median
# beats the base's by more than the base's interquartile range.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <base-rev> <workload> <pairs> [first-seed]" >&2
	exit 2
fi
base_rev=$1 workload=$2 pairs=$3 seed=${4:-1}
seconds=${AB_SECONDS:-10}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
	rm -rf "$tmp"
	git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$tmp/base" "$base_rev" >/dev/null 2>&1

# rate <checkout> <seed> prints one run's iters_per_s; a run that is not
# correct, or failed an operation, stops the comparison.
rate() {
	local line
	line=$(cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
	case $line in
	*'"correct":true'*'"failed":0,'*) ;;
	*)
		echo "ab_pairs: run in $1 (seed $2) failed: $line" >&2
		return 1
		;;
	esac
	sed -n 's/.*"iters_per_s":{"value":\([0-9.eE+-]*\).*/\1/p' <<<"$line"
}

echo "base $(git -C "$tmp/base" rev-parse --short HEAD) vs working tree, $workload, $pairs pairs of ${seconds}s runs"
results=$tmp/pairs
: >"$results"
for ((k = 0; k < pairs; k++)); do
	s=$((seed + k))
	if ((k % 2 == 0)); then
		b=$(rate "$tmp/base" "$s")
		n=$(rate "$root" "$s")
	else
		n=$(rate "$root" "$s")
		b=$(rate "$tmp/base" "$s")
	fi
	echo "$s $b $n" >>"$results"
	awk '{printf "seed %d  base %.0f  new %.0f  new/base %.3f\n", $1, $2, $3, $3 / $2}' <<<"$s $b $n"
done

awk '
function q(a, n, p,    x, i) { # linear-interpolated quantile of sorted a[1..n]
	x = 1 + (n - 1) * p; i = int(x)
	return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i])
}
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
{ n++; b[n] = $2; c[n] = $3; if ($3 > $2) wins++; else if ($3 < $2) losses++ }
END {
	sort(b, n); sort(c, n)
	bm = q(b, n, .5); cm = q(c, n, .5); iqr = q(b, n, .75) - q(b, n, .25)
	printf "base: median %.0f  quartiles %.0f-%.0f\n", bm, q(b, n, .25), q(b, n, .75)
	printf "new:  median %.0f  quartiles %.0f-%.0f\n", cm, q(c, n, .25), q(c, n, .75)
	printf "new wins %d of %d pairs (%d losses, %d ties); median ratio %.3f; base IQR %.0f\n", wins, n, losses, n - wins - losses, cm / bm, iqr
	if (n >= 10 && wins >= 0.9 * n && cm - bm > iqr) print "verdict: gain"
	else if (n < 10) print "verdict: no claim (fewer than 10 pairs)"
	else print "verdict: no claim"
}' "$results"
