#!/usr/bin/env sh
# Bench-regression gate. Dispatches on the measured file's schema:
#
# flashmark-bench-physics/v1 (written by `make bench-physics`), judged
# against scripts/bench_physics_baseline.json:
#   - per-bench speedup (reference ns over fast ns) must stay within
#     ±20% of the baseline ratio: below -20% fails as a fast-path
#     regression; above +20% only prints a hint to refresh the
#     baseline (conservative round numbers, not a raw snapshot).
#   - the characterization sweep must additionally stay >= 3.0x, the
#     paper-reproduction acceptance floor for the batched physics.
#   - allocs/op on the steady-state read path must not exceed the
#     baseline (0: the warm read path never touches the heap).
#
# flashmark-bench-registry/v1 (written by `make bench-registry`), judged
# against scripts/bench_registry_baseline.json:
#   - fleet lookup must be allocation-free (allocs_op == 0) and
#     sub-microsecond (ns_op <= max_ns_op) at the recorded fleet size
#     (keys must match, so the gate can't be satisfied by shrinking
#     the index).
#   - durable enroll appends/fsync is reported for context only: on a
#     single-CPU runner RunParallel gives no overlap and the honest
#     value is 1.0, so group commit is proven by tests, not gated here.
#
# flashmark-bench-service/v1 (written by `make loadgen`), judged
# against scripts/bench_service_baseline.json:
#   - verify p99 latency must not exceed the SLO ceiling, and sustained
#     verifies/sec and enrolls/sec must stay above the floors.
#   - the combined shed rate (server 429s plus client-cap drops) must
#     stay under the overload budget, and no request may fail outright
#     (http_errors <= max_http_errors, normally 0).
#   - the clone storm must register: duplicate_id_verdicts has a floor,
#     proving the provenance overlay was live under load, not bypassed.
#
# flashmark-bench-hotpath/v1 (written by `make bench-hotpath`), judged
# against scripts/bench_hotpath_baseline.json:
#   - allocs/op is a hard ceiling on both the cache-miss and cache-hit
#     /v1/verify paths: the allocation profile is deterministic, so any
#     excess is a lifecycle regression (a dropped pool, a report that
#     escapes to the heap on every request), not runner noise.
#   - chips-verified/sec has a loose floor on the miss path only,
#     proving the benchmark exercised real verifications.
#
# Raw ns/op ratios track the runner, not the code, and are never
# compared across machines; the registry ns_op ceiling and the service
# SLO bands are deliberately loose (paper acceptance bounds on shared CI
# runners, not regression tripwires).
#
# Usage: scripts/check_bench.sh [measured.json] [baseline.json]
set -eu

measured=${1:-BENCH_physics.json}
floor_characterize=3.0

# jfield FILE KEY -> first value of "KEY": in FILE (json.MarshalIndent
# layout: one field per line). Struct order puts lookup before
# enroll_durable, so the first ns_op is the lookup's.
jfield() {
    awk -v f="\"$2\":" '$1 == f { v = $2; gsub(/[",]/, "", v); print v; exit }' "$1"
}

schema=$(jfield "$measured" schema || true)

if [ "$schema" = "flashmark-bench-registry/v1" ]; then
    baseline=${2:-$(dirname "$0")/bench_registry_baseline.json}
    fail=0
    max_ns=$(jfield "$baseline" max_ns_op)
    max_allocs=$(jfield "$baseline" max_allocs_op)
    want_keys=$(jfield "$baseline" keys)
    got_ns=$(jfield "$measured" ns_op)
    got_allocs=$(jfield "$measured" allocs_op)
    got_keys=$(jfield "$measured" keys)
    if [ -z "$got_ns" ] || [ -z "$got_allocs" ] || [ -z "$got_keys" ]; then
        echo "FAIL: $measured has no lookup measurement (run make bench-registry)" >&2
        exit 1
    fi
    echo "registry lookup: ${got_ns} ns/op, ${got_allocs} allocs/op at ${got_keys} keys"
    if [ "$got_keys" != "$want_keys" ]; then
        echo "FAIL: lookup measured at ${got_keys} keys, acceptance requires ${want_keys}" >&2
        fail=1
    fi
    if awk -v g="$got_allocs" -v m="$max_allocs" 'BEGIN { exit (g + 0 <= m + 0) ? 1 : 0 }'; then
        echo "FAIL: fleet lookup allocates (${got_allocs} allocs/op > ${max_allocs})" >&2
        fail=1
    fi
    if awk -v g="$got_ns" -v m="$max_ns" 'BEGIN { exit (g + 0 <= m + 0) ? 1 : 0 }'; then
        echo "FAIL: fleet lookup ${got_ns} ns/op exceeds the ${max_ns} ns acceptance ceiling" >&2
        fail=1
    fi
    per_fsync=$(jfield "$measured" appends_per_fsync)
    if [ -n "$per_fsync" ]; then
        echo "registry enroll: ${per_fsync} appends/fsync (informational; 1.0 on single-CPU runners)"
    fi
    [ "$fail" -eq 0 ] && echo "bench gate OK"
    exit "$fail"
fi

if [ "$schema" = "flashmark-bench-hotpath/v1" ]; then
    baseline=${2:-$(dirname "$0")/bench_hotpath_baseline.json}
    fail=0

    # jsection FILE SECTION KEY -> value of "KEY": inside the "SECTION"
    # object (json.MarshalIndent layout: nested objects, one field per
    # line, sections closed by an indented brace).
    jsection() {
        awk -v s="\"$2\":" -v k="\"$3\":" '
            $1 == s { inside = 1; next }
            inside && $1 == k { v = $2; gsub(/[",]/, "", v); print v; exit }
            inside && /\}/ { inside = 0 }
        ' "$1"
    }

    for path in verify_miss verify_hit; do
        got_allocs=$(jsection "$measured" "$path" allocs_op)
        max_allocs=$(jsection "$baseline" "$path" max_allocs_op)
        if [ -z "$got_allocs" ]; then
            echo "FAIL: $measured has no $path measurement (run make bench-hotpath)" >&2
            exit 1
        fi
        echo "$path: ${got_allocs} allocs/op (max ${max_allocs}), $(jsection "$measured" "$path" chips_per_sec) chips/s"
        if awk -v g="$got_allocs" -v m="$max_allocs" 'BEGIN { exit (g + 0 <= m + 0) ? 1 : 0 }'; then
            echo "FAIL: $path ${got_allocs} allocs/op exceeds the hard ceiling ${max_allocs}" >&2
            fail=1
        fi
    done

    got_rate=$(jsection "$measured" verify_miss chips_per_sec)
    min_rate=$(jsection "$baseline" verify_miss min_chips_per_sec)
    if awk -v g="$got_rate" -v m="$min_rate" 'BEGIN { exit (g + 0 >= m + 0) ? 1 : 0 }'; then
        echo "FAIL: miss-path throughput ${got_rate} chips/s is below the ${min_rate} floor" >&2
        fail=1
    fi

    [ "$fail" -eq 0 ] && echo "bench gate OK"
    exit "$fail"
fi

if [ "$schema" = "flashmark-bench-service/v1" ]; then
    baseline=${2:-$(dirname "$0")/bench_service_baseline.json}
    fail=0
    sent=$(jfield "$measured" sent_requests)
    if [ -z "$sent" ] || [ "$sent" = 0 ]; then
        echo "FAIL: $measured reports no sent requests (run make loadgen)" >&2
        exit 1
    fi
    echo "service load: ${sent} requests sent ($(jfield "$measured" chips_verified) chips verified)"

    # ceiling KEY BASELINE_KEY LABEL -> fail if measured > baseline bound
    ceiling() {
        got=$(jfield "$measured" "$1")
        max=$(jfield "$baseline" "$2")
        echo "$3: ${got} (max ${max})"
        if awk -v g="$got" -v m="$max" 'BEGIN { exit (g + 0 <= m + 0) ? 1 : 0 }'; then
            echo "FAIL: $3 ${got} exceeds the SLO ceiling ${max}" >&2
            fail=1
        fi
    }
    # floor KEY BASELINE_KEY LABEL -> fail if measured < baseline bound
    floor() {
        got=$(jfield "$measured" "$1")
        min=$(jfield "$baseline" "$2")
        echo "$3: ${got} (min ${min})"
        if awk -v g="$got" -v m="$min" 'BEGIN { exit (g + 0 >= m + 0) ? 1 : 0 }'; then
            echo "FAIL: $3 ${got} is below the SLO floor ${min}" >&2
            fail=1
        fi
    }

    ceiling verify_p99_ms max_verify_p99_ms "verify p99"
    ceiling verify_p999_ms max_verify_p999_ms "verify p999"
    floor verifies_per_sec min_verifies_per_sec "verifies/sec"
    floor enrolls_per_sec min_enrolls_per_sec "enrolls/sec"
    ceiling shed_rate max_shed_rate "shed rate"
    ceiling http_errors max_http_errors "http errors"
    floor duplicate_id_verdicts min_duplicate_id "DUPLICATE-ID verdicts"

    [ "$fail" -eq 0 ] && echo "bench gate OK"
    exit "$fail"
fi

baseline=${2:-$(dirname "$0")/bench_physics_baseline.json}

# speedups FILE -> lines of "<bench> <speedup>", keyed off the 4-space
# indentation json.MarshalIndent gives the per-bench objects.
speedups() {
    awk '
        /^    "[a-z_]+": \{/ { name = $1; gsub(/[":{]/, "", name) }
        /"speedup":/ { v = $2; gsub(/,/, "", v); print name, v }
    ' "$1"
}

allocs() {
    awk '/"allocs_op":/ { v = $2; gsub(/,/, "", v); print v; exit }' "$1"
}

fail=0
speedups "$baseline" | while read -r bench base; do
    got=$(speedups "$measured" | awk -v b="$bench" '$1 == b { print $2 }')
    if [ -z "$got" ]; then
        echo "FAIL: $measured has no speedup for '$bench'" >&2
        exit 1
    fi
    echo "$bench: speedup ${got}x (baseline ${base}x)"
    if awk -v g="$got" -v b="$base" 'BEGIN { exit (g + 0 >= 0.8 * b) ? 1 : 0 }'; then
        echo "FAIL: $bench speedup ${got}x fell more than 20% below the baseline ${base}x" >&2
        exit 1
    fi
    if awk -v g="$got" -v b="$base" 'BEGIN { exit (g + 0 <= 1.2 * b) ? 1 : 0 }'; then
        echo "note: $bench speedup ${got}x is >20% above the baseline ${base}x -- consider raising scripts/bench_physics_baseline.json"
    fi
    if [ "$bench" = characterize ] &&
        awk -v g="$got" -v f="$floor_characterize" 'BEGIN { exit (g + 0 >= f) ? 1 : 0 }'; then
        echo "FAIL: characterization speedup ${got}x is below the ${floor_characterize}x acceptance floor" >&2
        exit 1
    fi
done || fail=1

got_allocs=$(allocs "$measured")
base_allocs=$(allocs "$baseline")
if [ -z "$got_allocs" ]; then
    echo "FAIL: $measured has no read_steady_state allocs_op" >&2
    fail=1
else
    echo "steady-state read: ${got_allocs} allocs/op (baseline ${base_allocs})"
    if awk -v g="$got_allocs" -v b="$base_allocs" 'BEGIN { exit (g + 0 <= b + 0) ? 1 : 0 }'; then
        echo "FAIL: steady-state read allocates (${got_allocs} allocs/op > baseline ${base_allocs})" >&2
        fail=1
    fi
fi

[ "$fail" -eq 0 ] && echo "bench gate OK"
exit "$fail"
