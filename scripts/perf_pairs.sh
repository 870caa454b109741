#!/usr/bin/env bash
# A/B comparison of two perfbench binaries in alternating pairs.
#
#   scripts/perf_pairs.sh PARENT_BIN CHANGE_BIN [PAIRS [WORKLOAD...]]
#
# For each workload (default: fig11-grid serve-obs shard32) in both
# trace modes, runs PAIRS (default 6) pairs of 20 s runs at seed 1.
# Pairs alternate which binary goes first (ABBA), so a drift in host
# speed does not favour either side. Per pair it prints:
#   --trace 0: the sim_accesses_per_s ratio (change / parent),
#              peak_rss_mb and setup_s of both runs;
#   --trace 1: correct and sim.unattributed_share of both runs;
#   both:      whether the two runs printed the same digest lines.
# After each workload and mode it prints the median ratio (trace 0)
# or the median share and the correct counts (trace 1).
#
# Exits 1 if any pair's digest lines differ, 2 on a usage error or a
# run that prints no result.
#
# Build each binary from its own checkout, for example:
#   cmake -S perfbench -B /tmp/pb -DCMAKE_BUILD_TYPE=Release
#   cmake --build /tmp/pb --target perfbench -j

set -u

if [ $# -lt 2 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN [PAIRS [WORKLOAD...]]" >&2
    exit 2
fi
parent=$1
change=$2
pairs=${3:-6}
shift $(($# < 3 ? $# : 3))
workloads=${*:-fig11-grid serve-obs shard32}
for bin in "$parent" "$change"; do
    if [ ! -x "$bin" ]; then
        echo "$0: not an executable: $bin" >&2
        exit 2
    fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run BIN WORKLOAD TRACE OUT: stdout to OUT, stderr discarded.
run() {
    "$1" --workload "$2" --seed 1 --seconds 20 --trace "$3" \
        >"$4" 2>/dev/null
}

# field FILE KEY: one value from the result line (the last line).
field() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
res = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
key = sys.argv[2]
if key == "correct":
    print("true" if res["correct"] and res["failed"] == 0 else "false")
else:
    print(res["values"][key])
EOF
}

# median of the numbers on stdin.
median() {
    python3 -c 'import statistics, sys
v = [float(x) for x in sys.stdin.read().split()]
print(f"{statistics.median(v):.4f}" if v else "n/a")'
}

mismatch=0
for workload in $workloads; do
    for trace in 0 1; do
        ratios=""
        pshares=""
        cshares=""
        pcorrect=0
        ccorrect=0
        for i in $(seq 1 "$pairs"); do
            p=$tmp/parent.out
            c=$tmp/change.out
            if [ $((i % 2)) -eq 1 ]; then
                run "$parent" "$workload" "$trace" "$p"
                run "$change" "$workload" "$trace" "$c"
            else
                run "$change" "$workload" "$trace" "$c"
                run "$parent" "$workload" "$trace" "$p"
            fi
            for out in "$p" "$c"; do
                if ! tail -n 1 "$out" | grep -q '"values"'; then
                    echo "$0: $workload --trace $trace printed no" \
                         "result (pair $i)" >&2
                    exit 2
                fi
            done
            if diff <(grep '^digest ' "$p") <(grep '^digest ' "$c") \
                    >/dev/null; then
                digests="digests match"
            else
                digests="DIGESTS DIFFER"
                mismatch=1
            fi
            pc=$(field "$p" correct)
            cc=$(field "$c" correct)
            [ "$pc" = true ] && pcorrect=$((pcorrect + 1))
            [ "$cc" = true ] && ccorrect=$((ccorrect + 1))
            if [ "$trace" = 0 ]; then
                pr=$(field "$p" sim_accesses_per_s)
                cr=$(field "$c" sim_accesses_per_s)
                ratio=$(python3 -c "print(f'{$cr / $pr:.4f}')")
                ratios="$ratios $ratio"
                printf '%s trace=0 pair %d: ratio %s (%.0f -> %.0f acc/s)' \
                    "$workload" "$i" "$ratio" "$pr" "$cr"
                printf ' rss %.2f -> %.2f MiB setup %.4f -> %.4f s' \
                    "$(field "$p" peak_rss_mb)" "$(field "$c" peak_rss_mb)" \
                    "$(field "$p" setup_s)" "$(field "$c" setup_s)"
                printf ' correct %s/%s %s\n' "$pc" "$cc" "$digests"
            else
                ps=$(field "$p" sim.unattributed_share)
                cs=$(field "$c" sim.unattributed_share)
                pshares="$pshares $ps"
                cshares="$cshares $cs"
                printf '%s trace=1 pair %d: correct %s/%s' \
                    "$workload" "$i" "$pc" "$cc"
                printf ' unattributed_share %.3f -> %.3f %s\n' \
                    "$ps" "$cs" "$digests"
            fi
        done
        if [ "$trace" = 0 ]; then
            echo "$workload trace=0: median ratio $(echo "$ratios" | median)" \
                 "over $pairs pairs; correct $pcorrect/$ccorrect"
        else
            echo "$workload trace=1: median unattributed_share" \
                 "$(echo "$pshares" | median) -> $(echo "$cshares" | median);" \
                 "correct $pcorrect/$ccorrect of $pairs"
        fi
    done
done
exit "$mismatch"
