#!/usr/bin/env bash
# bench.sh — measure the batched DMA fast path (the production path)
# against the retained per-block reference, and emit the next
# BENCH_PR<n>.json.
#
# All execution paths live in the same binary (the per-block model is the
# semantic reference the faster paths are pinned to), so before/after is a
# single build. Single-NPU machine runs have two legs: "perblock" = the
# reference, "streak" = the batched run-length path that npu.Machine.Run
# executes for every single-NPU cell. Multi-NPU runs have three: "block",
# "arbitrated", and "batched" (the joint-run-cache steady state).
#
# PREV defaults to the newest *checked-in* BENCH_PR<n>.json by numeric
# suffix; OUT defaults to BENCH_PR<n+1>.json (or takes $1) and the script
# refuses to overwrite an existing file, so stale hard-coded names can't
# silently clobber recorded results. After writing the output, the
# production-path times (machine-run "streak", multi-NPU "batched") are
# compared against PREV: any cell more than 10% (and 100us) slower fails
# the script, so a fast-path regression cannot be checked in silently.
#
# Usage: scripts/bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

# Newest checked-in bench file by numeric suffix (git ls-files, so a
# freshly written but uncommitted OUT never becomes its own baseline).
newest_checked_in() {
	git ls-files 'BENCH_PR*.json' |
		awk '{ n = $0; gsub(/[^0-9]/, "", n); print n + 0, $0 }' |
		sort -n | awk 'END { print $2 }'
}

PREV="${PREV:-$(newest_checked_in)}"
if [ -z "$PREV" ]; then
	echo "bench.sh: no checked-in BENCH_PR*.json to compare against (set PREV= explicitly)" >&2
	exit 1
fi

if [ -n "${1:-}" ]; then
	OUT="$1"
else
	maxn=$(basename "$PREV" | tr -dc '0-9')
	OUT="BENCH_PR$((maxn + 1)).json"
fi
if [ -e "$OUT" ]; then
	echo "bench.sh: refusing to overwrite existing $OUT (pass a fresh filename or remove it first)" >&2
	exit 1
fi
echo "baseline $PREV -> output $OUT" >&2

# The engine microbenchmarks run in ~100us/op, so they need many
# iterations to settle; one full machine run takes 0.1-100 ms, and 100
# iterations keep the streak cells' scheduling noise well inside the
# gate's 10%.
MICRO_BENCHTIME="${MICRO_BENCHTIME:-200x}"
BENCHTIME="${BENCHTIME:-100x}"
# Multi-NPU block-interleave legs run 100-300ms each on large/res, so a
# modest iteration count already dominates scheduling noise.
MULTI_BENCHTIME="${MULTI_BENCHTIME:-10x}"

echo "engine microbenchmarks (ReadBlock vs ReadRun, 4096-block dense stream)..." >&2
# Exact-match the two comparison benchmarks: ReadRunHot/WriteRunHot (the
# allocation-pinned steady-state variants) share the ReadRun prefix and
# must not overwrite its numbers.
MICRO=$(go test ./internal/memprot -run '^$' -bench '^(BenchmarkReadBlock|BenchmarkReadRun)$' -benchtime "$MICRO_BENCHTIME" -count=1 | grep '^Benchmark')

echo "machine benchmarks (full npu.Run on res, per scheme x path)..." >&2
MACHINE=$(go test ./internal/npu -run '^$' -bench 'BenchmarkMachineRun' -benchtime "$BENCHTIME" -count=1 | grep '^Benchmark')

echo "multi-NPU benchmarks (2-3 co-tenant NPUs on res, per scheme x path)..." >&2
MULTI=$(go test ./internal/multinpu -run '^$' -bench 'BenchmarkMultiNPU' -benchtime "$MULTI_BENCHTIME" -count=1 | grep '^Benchmark')

echo "full regeneration wall time (tnpu-bench -parallel 1, df/res subset)..." >&2
go build -o /tmp/tnpu-bench-run ./cmd/tnpu-bench
t0=$(date +%s.%N)
/tmp/tnpu-bench-run -parallel 1 -models df,res >/dev/null
t1=$(date +%s.%N)
BATCHED_S=$(echo "$t1 $t0" | awk '{printf "%.2f", $1-$2}')
t0=$(date +%s.%N)
/tmp/tnpu-bench-run -parallel 1 -perblock -models df,res >/dev/null
t1=$(date +%s.%N)
PERBLOCK_S=$(echo "$t1 $t0" | awk '{printf "%.2f", $1-$2}')

# --- served regeneration: cold vs warm disk cache --------------------------
# The same artifact set (all figures + sensitivity sweeps) fetched through
# tnpu-serve, once against a fresh cache directory (every artifact
# simulated and persisted) and once after a process restart over the same
# directory (every artifact read back, zero simulation) — the
# service-level win the disk cache buys for full regeneration.
echo "served regeneration wall time (tnpu-serve, cold vs warm disk cache)..." >&2
go build -o /tmp/tnpu-serve-run ./cmd/tnpu-serve
SERVE_CACHE=$(mktemp -d)
SERVE_LOG=$(mktemp)
SERVE_PID=""
serve_boot() {
	/tmp/tnpu-serve-run -addr 127.0.0.1:0 -cache "$SERVE_CACHE" -models df,res >"$SERVE_LOG" 2>&1 &
	SERVE_PID=$!
	SERVE_URL=""
	for _ in $(seq 1 100); do
		SERVE_URL=$(sed -n 's/^tnpu-serve: listening on \(http:\/\/[^ ]*\).*/\1/p' "$SERVE_LOG")
		[ -n "$SERVE_URL" ] && break
		sleep 0.1
	done
	if [ -z "$SERVE_URL" ]; then
		echo "bench.sh: tnpu-serve failed to boot:" >&2
		cat "$SERVE_LOG" >&2
		exit 1
	fi
}
serve_fetch_all() {
	local id
	for id in fig4 fig5 fig14 fig15 fig16 fig17; do
		curl -fsS "$SERVE_URL/api/figure/$id" >/dev/null
	done
	for id in bandwidth spm latency; do
		curl -fsS "$SERVE_URL/api/sweep/$id?model=df" >/dev/null
	done
}
serve_stop() {
	kill "$SERVE_PID"
	wait "$SERVE_PID" 2>/dev/null || true
	SERVE_PID=""
}
serve_boot
t0=$(date +%s.%N)
serve_fetch_all
t1=$(date +%s.%N)
SERVED_COLD_S=$(echo "$t1 $t0" | awk '{printf "%.3f", $1-$2}')
serve_stop
serve_boot
t0=$(date +%s.%N)
serve_fetch_all
t1=$(date +%s.%N)
SERVED_WARM_S=$(echo "$t1 $t0" | awk '{printf "%.3f", $1-$2}')
serve_stop
# Memo-warm: wipe only the result-cache entries, keep the persistent cell
# store (at its default location under the cache directory), and restart.
# The server must regenerate every artifact, but stored cells replace
# simulation — this is the cold-process regeneration cost with a warm
# cell store.
rm -f "$SERVE_CACHE"/*.entry
serve_boot
t0=$(date +%s.%N)
serve_fetch_all
t1=$(date +%s.%N)
SERVED_MEMOWARM_S=$(echo "$t1 $t0" | awk '{printf "%.3f", $1-$2}')
serve_stop
rm -rf "$SERVE_CACHE" "$SERVE_LOG"

# The tentpole guarantee: with the memo store intact, cold-process
# regeneration must be at least 5x faster than fully cold. A miss here
# means the cell store stopped covering the artifact set.
if ! echo "$SERVED_COLD_S $SERVED_MEMOWARM_S" | awk '{exit !($2 > 0 && $1 / $2 >= 5)}'; then
	echo "bench.sh: memo-warm regeneration ${SERVED_MEMOWARM_S}s is not >=5x faster than cold ${SERVED_COLD_S}s" >&2
	exit 1
fi

{
	echo "{"
	echo '  "description": "Batched DMA fast path (streak, the production path every single-NPU cell runs) vs per-block reference (same binary, cycle-identical results). multi_npu compares 2-3 co-tenant NPUs on the block-granular interleave (block), live horizon-bounded streak arbitration (arbitrated), and the joint-run-cache steady state (batched). ns/op from go test -bench; wall seconds from tnpu-bench -parallel 1 -models df,res. served_cold/served_warm time the same artifact set (all figures + sweeps) through tnpu-serve against a fresh vs restart-surviving disk cache; served_cold_memowarm re-times the cold case (result cache wiped, every artifact regenerated) with the persistent whole-run cell store intact — regeneration loads stored cells instead of simulating. memowarm_speedup gates at >=5x.",'
	echo '  "benchtime": {"micro": "'"$MICRO_BENCHTIME"'", "machine": "'"$BENCHTIME"'", "multi": "'"$MULTI_BENCHTIME"'"},'

	echo '  "engine_micro_ns_per_op": {'
	echo "$MICRO" | awk '
		{
			split($1, p, "/"); sub(/-[0-9]+$/, "", p[2])
			key = (index(p[1], "ReadRun") ? "readrun" : "readblock")
			ns[p[2] "." key] = $3
			if (!(p[2] in seen)) { seen[p[2]] = 1; order[++n] = p[2] }
		}
		END {
			for (i = 1; i <= n; i++) {
				s = order[i]
				rb = ns[s ".readblock"]; rr = ns[s ".readrun"]
				printf "    \"%s\": {\"perblock\": %s, \"batched\": %s, \"speedup\": %.2f}%s\n",
					s, rb, rr, rb / rr, (i < n ? "," : "")
			}
		}'
	echo '  },'

	echo '  "machine_run_ns_per_op": {'
	echo "$MACHINE" | awk '
		{
			split($1, p, "/"); sub(/-[0-9]+$/, "", p[5])
			key = p[2] "/" p[3] "/" p[4]
			ns[key "." p[5]] = $3
			if (!(key in seen)) { seen[key] = 1; order[++n] = key }
		}
		END {
			for (i = 1; i <= n; i++) {
				c = order[i]
				pb = ns[c ".perblock"]; st = ns[c ".streak"]
				printf "    \"%s\": {\"perblock\": %s, \"streak\": %s, \"speedup_streak\": %.2f}%s\n",
					c, pb, st, pb / st, (i < n ? "," : "")
			}
		}'
	echo '  },'

	echo '  "multi_npu_ns_per_op": {'
	echo "$MULTI" | awk '
		{
			split($1, p, "/"); sub(/-[0-9]+$/, "", p[6])
			key = p[2] "/" p[3] "/" p[4] "/" p[5]
			ns[key "." p[6]] = $3
			if (!(key in seen)) { seen[key] = 1; order[++n] = key }
		}
		END {
			for (i = 1; i <= n; i++) {
				c = order[i]
				bl = ns[c ".block"]; ar = ns[c ".arbitrated"]; bt = ns[c ".batched"]
				printf "    \"%s\": {\"block\": %s, \"arbitrated\": %s, \"batched\": %s, \"speedup_arbitrated\": %.2f, \"speedup\": %.2f}%s\n",
					c, bl, ar, bt, bl / ar, bl / bt, (i < n ? "," : "")
			}
		}'
	echo '  },'

	echo '  "full_regeneration_wall_s": {'
	echo '    "perblock": '"$PERBLOCK_S"','
	echo '    "batched": '"$BATCHED_S"','
	echo '    "speedup": '"$(echo "$PERBLOCK_S $BATCHED_S" | awk '{printf "%.2f", $1/$2}')"','
	echo '    "served_cold": '"$SERVED_COLD_S"','
	echo '    "served_warm": '"$SERVED_WARM_S"','
	echo '    "served_speedup": '"$(echo "$SERVED_COLD_S $SERVED_WARM_S" | awk '{if ($2 > 0) printf "%.2f", $1/$2; else print "null"}')"','
	echo '    "served_cold_memowarm": '"$SERVED_MEMOWARM_S"','
	echo '    "memowarm_speedup": '"$(echo "$SERVED_COLD_S $SERVED_MEMOWARM_S" | awk '{if ($2 > 0) printf "%.2f", $1/$2; else print "null"}')"
	echo '  }'
	echo "}"
} >"$OUT"

echo "wrote $OUT" >&2

# --- regression gate -------------------------------------------------------
# Compare the production-path times against the previous checked-in
# results: machine_run_ns_per_op's "streak" leg (what every single-NPU
# cell runs) and multi_npu_ns_per_op's "batched" leg. A cell fails only if
# it is BOTH >10% slower AND >100us slower in absolute terms: the
# protected-scheme cells are ms-scale and get an effective 10% gate, while
# the unprotected cells run in tens of microseconds where
# session-to-session scheduling drift on shared hardware routinely exceeds
# 10% (reproducible on an unmodified checkout) and a pure relative gate
# just measures machine load. The sub-microsecond engine micro numbers are
# excluded entirely for the same reason. Keys present only in OUT are not
# gated; keys missing from OUT fail.
if [ -f "$PREV" ] && [ "$PREV" != "$OUT" ]; then
	echo "checking production-path machine-run and multi-NPU times against $PREV (>10% slower fails)..." >&2
	# extract_leg FILE SECTION LEG prints "key value" for every cell of
	# SECTION that records LEG.
	extract_leg() {
		awk -v blk="$2" -v leg="$3" '
			index($0, "\"" blk "\"") { inblk = 1; next }
			inblk && /^  \}/ { inblk = 0 }
			inblk && index($0, "\"" leg "\":") {
				split($0, q, "\"")
				v = $0; sub(".*\"" leg "\": ", "", v); sub(/[,}].*/, "", v)
				print q[2], v
			}
		' "$1"
	}
	fail=0
	for gate in machine_run_ns_per_op:streak multi_npu_ns_per_op:batched; do
		section=${gate%%:*} leg=${gate#*:}
		while read -r key old; do
			new=$(extract_leg "$OUT" "$section" "$leg" | awk -v k="$key" '$1 == k {print $2}')
			if [ -z "$new" ]; then
				echo "  missing in $OUT: $section $key $leg" >&2
				fail=1
				continue
			fi
			if echo "$old $new" | awk '{exit !($2 > $1 * 1.10 && $2 > $1 + 100000)}'; then
				echo "  REGRESSION: $section $key $leg $old -> $new ns/op (>10% and >100us slower)" >&2
				fail=1
			else
				echo "  ok: $section $key $leg $old -> $new ns/op" >&2
			fi
		done < <(extract_leg "$PREV" "$section" "$leg")
	done
	if [ "$fail" != 0 ]; then
		echo "production path regressed vs $PREV" >&2
		exit 1
	fi
fi
