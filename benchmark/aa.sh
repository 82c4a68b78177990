#!/usr/bin/env bash
# A/A check: two interleaved sets of N untraced runs per workload on
# one build, printing both medians and their gap against each metric's
# bound.  Exits non-zero if any gap exceeds half its bound.
#
#   benchmark/aa.sh                      # 5 + 5 runs of every workload, seed 1994
#   benchmark/aa.sh --runs 5 --seed 7    # the acceptance pair is seeds 1994 and 7
#   benchmark/aa.sh --workload scan-spill-128
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
args=("$@")
[[ " ${args[*]-} " == *" --workload "* ]] || args+=(--all)
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- aa "${args[@]}"
