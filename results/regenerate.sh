#!/bin/sh
# Regenerates the committed paper-scale outputs in this directory from the
# bench binaries, in the `== name ==` layout the files are committed in.
# The simulator is deterministic, so on an unchanged tree
# `git diff --exit-code -- results/` stays clean afterwards.
#
# Usage (from anywhere): results/regenerate.sh
set -eu
cd "$(dirname "$0")/.."
cargo build --release --quiet -p dashlat-bench

# regenerate FILE BINARY... — each binary's stdout under its own header,
# followed by a blank line.
regenerate() {
    out=$1
    shift
    for bin in "$@"; do
        echo "== $bin =="
        "target/release/$bin"
        echo
    done >"$out"
}

regenerate results/paper_scale.txt \
    table1 table2 figure2 figure3 figure4 figure5 figure6 stats summary
regenerate results/extensions.txt \
    ablations consistency_spectrum scaling timeline
