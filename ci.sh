#!/bin/sh
# Repository gate: formatting, vet, repo-specific analyzers (edgerepvet),
# build, race-enabled tests, pricing-table gates (zero-alloc pricing,
# table-vs-reference-scan equivalence incl. the exact-tie case, stale-table
# fuzz, chaos-on latency smoke, one allocation per admitted offer, the
# Dijkstra / matrix / table-build / dual-ascent oracles),
# attribution gates (zero-alloc off path, byte-identical traces, flight-ring
# race stress), durability (journal/recovery incl. bit-exact through a
# snapshot + the solution layer against its sort-per-admit reference + group
# commit/power-loss/commit-fail drills +
# kill-and-resume byte-identity), the edgerepd daemon drill
# (selfdrive byte-identity + HTTP serve/kill -9/same-command-line restart +
# live /slo and /debug/flight probes + SIGTERM flight snapshot), federation
# gates (3-region kill-the-leader drill byte-identity + multi-process kill -9
# follower promotion, with the same probes and snapshot), docs link and
# edgerepd mode-and-flag checks, example smoke, bench smoke (incl. admit cost
# flat in history, pinned allocations of the cold-start kernels).
# Run before every commit. See ARCHITECTURE.md, "CI".
set -eu

cd "$(dirname "$0")"

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== edgerepvet ./... (type-aware repo analyzers; gate + JSON artifact, <30s budget)"
go build -o "$tmp/edgerepvet" ./cmd/edgerepvet
vet_start=$(date +%s)
"$tmp/edgerepvet" -stats ./...
"$tmp/edgerepvet" -json ./... > "$tmp/edgerepvet.json"
vet_elapsed=$(( $(date +%s) - vet_start ))
grep -q '"findings": \[\]' "$tmp/edgerepvet.json" || {
    echo "edgerepvet -json reports findings the exit-code gate missed" >&2; exit 1; }
echo "edgerepvet artifact: $tmp/edgerepvet.json (2 repo scans in ${vet_elapsed}s)"
if [ "$vet_elapsed" -ge 30 ]; then
    echo "edgerepvet repo scans took ${vet_elapsed}s; budget is <30s" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== trace gates (zero-alloc inactive emission + deterministic JSONL golden)"
go test -run 'TestTraceEmissionZeroAllocInactive' ./internal/instrument ./internal/core
go test -run 'TestTraceGoldenDeterministic' ./internal/experiments

echo "== attribution gates (zero-alloc off path; byte-identical traces; flight ring race-clean)"
go test -run 'TestAttributionZeroAllocInactive' ./internal/instrument
go test -run 'TestAttributionTraceBytesIdentical|TestAttributionOffNoStageNs' ./internal/server
go test -race -run 'TestFlightRecorderRaceStress' ./internal/instrument

echo "== pricing-table gates (zero-alloc pricing; table-vs-reference equivalence incl. the tie case; stale-table fuzz under -race; one allocation per admit; kernel, matrix, table-build and dual-ascent oracles under -race)"
go test -run 'TestFastPathZeroAlloc' ./internal/online
go test -run 'TestFastPathEquivalence' ./internal/online
go test -race -run 'TestFastPathStaleTableFuzz|TestFastPathRestoreChurnRace|TestAckConvoyRegression' ./internal/server
go test -run 'TestFastPathChaosLatencySmoke' ./internal/server
go test -run '^$' -bench 'BenchmarkFastPathPlan' -benchtime 1x ./internal/online
# The commit step after pricing: an admitted offer allocates its decision's
# assignment slice and nothing else (typed release heap, no sort in Admit).
go test -run 'TestAdmitPathAllocs' ./internal/online
# What the tables are built from and how: the typed-heap Dijkstra against the
# container/heap kernel it replaced (Dist bits and parents, ties included),
# the parallel matrix against the serial all-pairs loop, the one-pass parallel
# table build against the two-loop serial one at 1, 2 and 8 workers.
go test -race -run 'TestDijkstraMatchesReference|TestMatrixMatchesSerial' ./internal/graph
go test -race -run 'TestFastPathTablesMatchReference' ./internal/online
# The paper's solver against the plan-everything ascent it replaced (result,
# FinalTheta bits and trace bytes, on the figures' cells, the ablation rows,
# the bench instance and the hand-built ones), what its admission loop relies
# on to leave a bundle unplanned, and the delay kernel both table builders
# share against EvalDelay.
go test -race -run 'TestAscentMatchesReference|TestAdmissionBoundsHold|TestHandBuiltInstancesReachTheirCases' ./internal/core
go test -run 'TestAscentPlansAThird' ./internal/core
go test -run 'TestDemandDelaysMatchEvalDelay' ./internal/placement

echo "== chaos gates (seeded crash sweep replays clean; failover paths race-clean; wall-clock smoke)"
go test -run 'TestExtChaosTraceDeterministicAndValid' ./internal/experiments
go test -race -run 'Crash|Chaos|Failover|Degraded|Retry' ./internal/online ./internal/sim ./internal/testbed ./internal/invariant
go run ./cmd/edgereptestbed -chaos

echo "== durability gates (journal + recovery under -race, bit-exact through a snapshot; solution-layer oracle; decode fuzz smoke)"
go test -race -run 'Journal|Recover|Resume|Torn|Snapshot|Rehydrate|ProcCrash|StateDump' \
    ./internal/journal ./internal/online ./internal/invariant ./internal/experiments ./internal/testbed
# Recovery through a snapshot is bit-exact (tied expiries pop in one order
# however the heap was built), and the solution layer under it agrees with its
# sort-per-admit reference, repeated query IDs included.
go test -race -run 'TestRecoverThroughSnapshotBitExact' ./internal/online
go test -race -run 'TestSolutionMatchesReference' ./internal/placement
go test -run '^$' -fuzz '^FuzzJournalDecode$' -fuzztime 5s ./internal/journal
# Group commit: one fsync per epoch with acks after it, every byte offset of
# a power cut recovers every acked decision, a failed commit fails closed.
go test -race -run 'GroupCommit|PowerLoss|CommitFail' ./internal/journal ./internal/online ./internal/server

echo "== kill-and-resume gate (traced sweep killed mid-write resumes byte-identical)"
go build -o "$tmp/edgerepsim" ./cmd/edgerepsim
"$tmp/edgerepsim" -fig 2 -quick -csv -trace "$tmp/full.jsonl" > "$tmp/full.csv"
"$tmp/edgerepsim" -fig 2 -quick -csv -trace "$tmp/crashed.jsonl" \
    -journal "$tmp/wal" -proc-crash-after 4 > "$tmp/crashed.csv" && {
    echo "proc-crash run was not killed" >&2; exit 1; } || true
"$tmp/edgerepsim" -fig 2 -quick -csv -trace "$tmp/resumed.jsonl" \
    -journal "$tmp/wal" -resume > "$tmp/resumed.csv"
cmp "$tmp/full.csv" "$tmp/resumed.csv"
cmp "$tmp/full.jsonl" "$tmp/resumed.jsonl"

echo "== daemon gate (edgerepd: selfdrive SIGKILL-and-rerun byte-identity; HTTP drive / kill -9 / same command line again / drain)"
go build -o "$tmp/edgerepd" ./cmd/edgerepd
# Deterministic selfdrive: an uninterrupted run vs one SIGKILLed (torn WAL
# tail) at decision 6000 and run again. WAL-only journaling so the second
# run's trace replays the whole history; journal and trace must match byte
# for byte.
"$tmp/edgerepd" selfdrive -count 10000 -nosync -snapshot-every 0 \
    -journal "$tmp/dfull-wal" -trace "$tmp/dfull.jsonl" > /dev/null
"$tmp/edgerepd" selfdrive -count 10000 -nosync -snapshot-every 0 \
    -journal "$tmp/dcrash-wal" -trace "$tmp/ddead.jsonl" -proc-crash-after 6000 > /dev/null 2>&1 && {
    echo "edgerepd proc-crash run was not killed" >&2; exit 1; } || true
"$tmp/edgerepd" selfdrive -count 10000 -nosync -snapshot-every 0 \
    -journal "$tmp/dcrash-wal" -trace "$tmp/dresumed.jsonl" > /dev/null
cmp "$tmp/dfull.jsonl" "$tmp/dresumed.jsonl"
for f in "$tmp/dfull-wal"/*; do cmp "$f" "$tmp/dcrash-wal/$(basename "$f")"; done
# HTTP: bind a random port, drive real traffic, kill -9, start again with
# the SAME command line (recovery is worked out from the journal, which must
# replay clean), drive again, drain on SIGTERM. On the durable journal:
# group commit makes the fsync affordable here.
"$tmp/edgerepd" serve -http 127.0.0.1:0 -journal "$tmp/dhttp-wal" \
    > "$tmp/dserve1.out" 2> "$tmp/dserve1.err" &
dpid=$!
i=0
until grep -q "serving on" "$tmp/dserve1.out" 2>/dev/null; do
    i=$((i+1))
    if [ "$i" -gt 100 ]; then echo "edgerepd did not bind" >&2; cat "$tmp/dserve1.err" >&2; exit 1; fi
    sleep 0.1
done
daddr=$(sed -n 's/^edgerepd: serving on //p' "$tmp/dserve1.out")
"$tmp/edgerepd" drive -count 2000 "$daddr" | grep -q "drive ok: /metrics serves"
kill -9 "$dpid"
wait "$dpid" 2>/dev/null || true
"$tmp/edgerepd" serve -http 127.0.0.1:0 -journal "$tmp/dhttp-wal" \
    > "$tmp/dserve2.out" 2> "$tmp/dserve2.err" &
dpid=$!
i=0
until grep -q "serving on" "$tmp/dserve2.out" 2>/dev/null; do
    i=$((i+1))
    if [ "$i" -gt 100 ]; then echo "edgerepd did not restart" >&2; cat "$tmp/dserve2.err" >&2; exit 1; fi
    sleep 0.1
done
grep -q "recovered 2000 decisions" "$tmp/dserve2.err"
daddr=$(sed -n 's/^edgerepd: serving on //p' "$tmp/dserve2.out")
"$tmp/edgerepd" drive -count 500 "$daddr" > "$tmp/ddrive2.out"
grep -q "drive ok: /metrics serves" "$tmp/ddrive2.out"
# The observability endpoints must serve live data under drive traffic.
grep -q "drive ok: /slo serves live data" "$tmp/ddrive2.out"
grep -q "drive ok: /debug/flight serves live data" "$tmp/ddrive2.out"
kill -TERM "$dpid"
wait "$dpid"
grep -q "drained" "$tmp/dserve2.err"
# Graceful shutdown drops a flight-recorder snapshot next to the journal.
[ -s "$tmp/dhttp-wal/flight-snapshot.json" ] || {
    echo "SIGTERM drain left no flight-snapshot.json next to the journal" >&2; exit 1; }
grep -q '"entries"' "$tmp/dhttp-wal/flight-snapshot.json"

echo "== federation gates (replication + failover race-clean; 3-region drill byte-identity; multi-process kill -9 promotion)"
# The shipping/standby/promotion paths and the failover auditor under -race.
go test -race -run 'Ship|Standby|Drill|Failover|Term|Owner' ./internal/federation ./internal/invariant
# In-process 3-region chaos drill: kill the shard-0 leader mid-load, promote
# the warm standby, and require every acked decision exactly-once (the drill
# errors internally otherwise). Run it twice with the same seed: the
# verification trace AND every WAL byte must be identical across runs.
for run in 1 2; do
    mkdir "$tmp/fed$run"
    "$tmp/edgerepd" drill -regions 3 -count 600 -journal "$tmp/fed$run" \
        -trace "$tmp/fedtrace$run.jsonl" > "$tmp/feddrill$run.out"
    grep -q "drill ok: 600/600 acked exactly-once" "$tmp/feddrill$run.out"
done
cmp "$tmp/fedtrace1.jsonl" "$tmp/fedtrace2.jsonl"
diff -r "$tmp/fed1" "$tmp/fed2" > /dev/null
# The killed shard's ack stream must resume within the promotion budget:
# < 2s of model time between the old leader's last ack and the new one's first.
gap=$(sed -n 's/.*"promotion_gap_model_sec":\([0-9.e+-]*\).*/\1/p' "$tmp/feddrill1.out")
awk "BEGIN { exit !($gap > 0 && $gap < 2) }" || {
    echo "promotion gap ${gap}s of model time; budget is (0, 2)" >&2; exit 1; }
# Multi-process: a real leader daemon, a warm follower shipping its WAL over
# HTTP, kill -9 the leader mid-load, and require the follower to promote
# itself and serve admissions at the bumped term. Both are leaders like the
# daemon gate's, so both must serve live /slo and /debug/flight, and the
# promoted one must leave its flight snapshot on SIGTERM.
"$tmp/edgerepd" serve -region r0 -journal "$tmp/fedlead-wal" -http 127.0.0.1:0 \
    -segment-bytes 4096 -nosync > "$tmp/fedlead.out" 2> "$tmp/fedlead.err" &
fpid=$!
i=0
until grep -q "serving on" "$tmp/fedlead.out" 2>/dev/null; do
    i=$((i+1))
    if [ "$i" -gt 100 ]; then echo "federated leader did not bind" >&2; cat "$tmp/fedlead.err" >&2; exit 1; fi
    sleep 0.1
done
faddr=$(sed -n 's/^edgerepd: serving on //p' "$tmp/fedlead.out")
"$tmp/edgerepd" follow -takeover "$tmp/fedlead-wal" -journal "$tmp/fedpromo-wal" \
    -http 127.0.0.1:0 -heartbeat 100ms -failover-after 3 -nosync "$faddr" \
    > "$tmp/fedfollow.out" 2> "$tmp/fedfollow.err" &
wpid=$!
i=0
until grep -q "serving on" "$tmp/fedfollow.out" 2>/dev/null; do
    i=$((i+1))
    if [ "$i" -gt 100 ]; then echo "follower did not bind" >&2; cat "$tmp/fedfollow.err" >&2; exit 1; fi
    sleep 0.1
done
"$tmp/edgerepd" drive -count 1000 "$faddr" > "$tmp/feddrive1.out"
grep -q "drive ok: /metrics serves" "$tmp/feddrive1.out"
grep -q "drive ok: /slo serves live data" "$tmp/feddrive1.out"
grep -q "drive ok: /debug/flight serves live data" "$tmp/feddrive1.out"
sleep 0.5  # let the follower ship the sealed prefix
kill -9 "$fpid"
wait "$fpid" 2>/dev/null || true
i=0
until grep -q "promoted to term 2" "$tmp/fedfollow.out" 2>/dev/null; do
    i=$((i+1))
    if [ "$i" -gt 100 ]; then echo "follower never promoted after leader kill -9" >&2; cat "$tmp/fedfollow.err" >&2; exit 1; fi
    sleep 0.1
done
waddr=$(sed -n 's/^edgerepd: serving on //p' "$tmp/fedfollow.out")
"$tmp/edgerepd" drive -count 500 "$waddr" > "$tmp/feddrive2.out"
grep -q "drive ok: /metrics serves" "$tmp/feddrive2.out"
grep -q "drive ok: /slo serves live data" "$tmp/feddrive2.out"
grep -q "drive ok: /debug/flight serves live data" "$tmp/feddrive2.out"
kill -TERM "$wpid"
wait "$wpid"
grep -q "drained at term 2" "$tmp/fedfollow.err"
[ -s "$tmp/fedpromo-wal/flight-snapshot.json" ] || {
    echo "the promoted follower's SIGTERM drain left no flight-snapshot.json next to its journal" >&2; exit 1; }
grep -q '"entries"' "$tmp/fedpromo-wal/flight-snapshot.json"

echo "== docs link check (files referenced from the operator docs exist)"
for doc in README.md ARCHITECTURE.md OPERATIONS.md EXPERIMENTS.md DESIGN.md \
           examples/streaming-admission/README.md; do
    base=$(dirname "$doc")
    for tgt in $(grep -o ']([^)]*)' "$doc" | sed 's/^](//; s/)$//'); do
        case "$tgt" in
            http://*|https://*|\#*) continue ;;
        esac
        path=${tgt%%#*}
        [ -n "$path" ] || continue
        if [ ! -e "$base/$path" ]; then
            echo "$doc links to missing file: $tgt" >&2
            exit 1
        fi
    done
done

echo "== docs mode-and-flag check (every documented \`edgerepd <mode> -flag ...\` line names a real mode and only flags that mode defines)"
modes=$("$tmp/edgerepd" 2>&1 | sed -n 's/^  \([a-z]*\) .*/\1/p')
for m in $modes; do
    "$tmp/edgerepd" "$m" -h 2>&1 | sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' > "$tmp/edgerepd.flags.$m"
done
# A command line is "edgerepd", a mode, then a flag (so `go build -o edgerepd
# ./cmd/edgerepd` is not one, and the retired flat form `edgerepd -flag` is
# one with no mode), with backslash continuations joined, up to the first
# comment, pipe, redirect or closing backtick.
check_doc_flags() {
    awk '
    {
        line = $0
        while (line ~ /\\$/ && (getline nxt) > 0) { sub(/\\$/, "", line); line = line " " nxt }
        while (match(line, /edgerepd[ \t]+(-|[a-z]+[ \t]+-)/)) {
            line = substr(line, RSTART + 8)
            cmd = line
            sub(/[`|#;>].*/, "", cmd)
            n = split(cmd, tok, /[ \t]+/)
            mode = ""
            for (i = 1; i <= n; i++) {
                if (mode == "" && tok[i] ~ /^[a-z]/) { mode = tok[i]; continue }
                if (tok[i] !~ /^-[a-z]/) continue
                if (mode == "") mode = "(none)"
                f = tok[i]; sub(/^-+/, "", f); sub(/=.*/, "", f); print mode, f
            }
        }
    }' "$1" | sort -u | while read -r mode fl; do
        [ -f "$tmp/edgerepd.flags.$mode" ] || {
            echo "$1 documents an edgerepd command line (flag -$fl) whose mode is $mode; the modes are:" $modes >&2
            exit 1
        }
        grep -qx -- "$fl" "$tmp/edgerepd.flags.$mode" || {
            echo "$1 documents edgerepd $mode -$fl, which edgerepd $mode -h does not list" >&2
            exit 1
        }
    done
}
for doc in README.md OPERATIONS.md ARCHITECTURE.md EXPERIMENTS.md \
           examples/streaming-admission/README.md .claude/skills/verify/SKILL.md; do
    check_doc_flags "$doc" || exit 1
done
# Negative control: the check must refuse a deleted flag and the flat form.
for bad in 'edgerepd serve -resume' 'edgerepd -selfdrive -count 5' 'edgerepd resume -journal wal/'; do
    echo "$bad" > "$tmp/bad.md"
    if check_doc_flags "$tmp/bad.md" 2> /dev/null; then
        echo "docs mode-and-flag check accepted: $bad" >&2
        exit 1
    fi
done

echo "== example smoke (streaming-admission daemon walkthrough)"
go run ./examples/streaming-admission > /dev/null

echo "== bench smoke"
go test -run '^$' -bench 'BenchmarkAlgorithmsHeadToHead' -benchtime 1x .
go test -run '^$' -bench 'BenchmarkTraceEmissionInactive' -benchtime 1x ./internal/instrument
go test -run '^$' -bench 'BenchmarkApproGTraceInactive' -benchtime 1x ./internal/core
# Times 4096 admits per repeat itself (best of 3) and fails if an admit on a
# 32k history costs more than 2x one on a 1k history.
go test -run '^$' -bench 'BenchmarkSolutionAdmit' -benchtime 3x ./internal/placement
# The cold-start kernels on the bench's 500-node instance; each fails if it
# allocates more than its pinned count (4 objects a Dijkstra run; the table
# build its tables and nothing per candidate).
go test -run '^$' -bench '^BenchmarkDijkstra$/v500' -benchtime 533x ./internal/graph
go test -run '^$' -bench '^BenchmarkFastPathBuild$/v500' -benchtime 5x ./internal/online
# One Appro-G solve of the same instance; fails above its pinned objects and
# bytes (the candidate lists and little else).
go test -run '^$' -bench '^BenchmarkApproG$/v500' -benchtime 5x ./internal/core

echo "ci.sh: all green"
