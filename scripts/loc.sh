#!/bin/sh
# loc.sh — non-test Go source lines per package and in total. The
# benchmark/ directory is a module of its own and gets a line of its own,
# outside the main module's total. Counts are physical lines (blank and
# comment lines included) of every .go file that is not a _test.go file
# and not a test fixture under a testdata/ directory.
#
# Usage: scripts/loc.sh            (from anywhere inside the repository)
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' -print |
	sed 's|^\./||' |
	sort |
	while read -r f; do
		printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
	done |
	awk '
		{
			if ($1 == "benchmark" || index($1, "benchmark/") == 1) { bench += $2; next }
			lines[$1] += $2; total += $2
		}
		END {
			n = 0
			for (p in lines) pkgs[++n] = p
			# insertion sort: awk has no portable sort
			for (i = 2; i <= n; i++) {
				v = pkgs[i]; j = i - 1
				while (j > 0 && pkgs[j] > v) { pkgs[j + 1] = pkgs[j]; j-- }
				pkgs[j + 1] = v
			}
			for (i = 1; i <= n; i++) printf "%7d  %s\n", lines[pkgs[i]], pkgs[i]
			printf "%7d  total (main module)\n", total
			printf "%7d  benchmark/ (separate module)\n", bench
		}'
