#!/usr/bin/env bash
# Same-runner A/B of the simulator and the verifier: perfbench's `figures`
# and `litmus` workloads, base build against head build, in ten
# alternating pairs each.
#
# Usage: .github/bench-ab.sh BASE_PERFBENCH HEAD_PERFBENCH
#
# For each workload in turn, each side runs `--workload W --seed N
# --seconds 5 --trace 0` for seeds 1-10. The base runs first on odd seeds
# and the head first on even seeds, so a drift in the runner's speed falls
# on both sides alike. The script prints every pair and, per workload, the
# median over the pairs of head/base for `p50_ms` and `p90_ms`. It exits 1
# if any head run is not `correct` or has `failed > 0`, or if either
# median ratio of either workload is above 1.10. Run it from the
# repository root; it needs bash and jq.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 BASE_PERFBENCH HEAD_PERFBENCH" >&2
    exit 1
fi
base=$1
head=$2

# The last line of a perfbench run is its JSON record.
run() {
    "$1" --workload "$2" --seed "$3" --seconds 5 --trace 0 | tail -n 1
}

# Runs the ten pairs of one workload, prints them and its verdict, and
# records a verdict that is not ok. (Called plainly, not in an `||` list,
# so a crashed run still stops the script under `set -e`.)
failed=0
ab() {
    local workload=$1 pairs="" seed b h pair verdict
    for seed in 1 2 3 4 5 6 7 8 9 10; do
        if [ $((seed % 2)) -eq 1 ]; then
            b=$(run "$base" "$workload" "$seed")
            h=$(run "$head" "$workload" "$seed")
        else
            h=$(run "$head" "$workload" "$seed")
            b=$(run "$base" "$workload" "$seed")
        fi
        pair=$(jq -cn --argjson seed "$seed" --argjson b "$b" --argjson h "$h" \
            '{seed: $seed, base: $b, head: $h}')
        jq -r --arg w "$workload" '
            def m(side; k): side.metrics[k].value;
            "\($w) seed \(.seed): p50_ms \(m(.base; "p50_ms")) -> \(m(.head; "p50_ms")) "
            + "(x\(m(.head; "p50_ms") / m(.base; "p50_ms") * 1000 | round / 1000)), "
            + "p90_ms \(m(.base; "p90_ms")) -> \(m(.head; "p90_ms")) "
            + "(x\(m(.head; "p90_ms") / m(.base; "p90_ms") * 1000 | round / 1000)); "
            + "head correct \(.head.correct), failed \(.head.failed)"' <<<"$pair"
        pairs+="$pair"$'\n'
    done

    verdict=$(jq -rs --arg w "$workload" '
        def median: sort | if length % 2 == 1 then .[length / 2 | floor]
            else (.[length / 2 - 1] + .[length / 2]) / 2 end;
        def ratio(k): map(.head.metrics[k].value / .base.metrics[k].value) | median;
        (ratio("p50_ms")) as $p50 | (ratio("p90_ms")) as $p90
        | (map(select(.head.correct != true or .head.failed > 0)) | length) as $bad
        | "\($w) median head/base: p50_ms x\($p50 * 1000 | round / 1000), p90_ms x\($p90 * 1000 | round / 1000)",
          (if $bad > 0 then "FAIL: \($bad) \($w) head run(s) not correct or with failed operations"
           elif $p50 > 1.10 or $p90 > 1.10 then "FAIL: the head runs \($w) more than 10 % slower than the base"
           else "ok" end)
    ' <<<"$pairs")
    echo "$verdict"
    if [ "$(tail -n 1 <<<"$verdict")" != ok ]; then
        failed=1
    fi
}

ab figures
ab litmus
[ "$failed" -eq 0 ]
