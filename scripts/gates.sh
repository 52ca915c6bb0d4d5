#!/usr/bin/env bash
# The repository's gates, so they run wherever the tests run and
# .github/workflows/ci.yml only calls them, one gate per step. Source
# gates: `surface` (scripts/surface.sh: every `pub` fn, method, const,
# static or trait no code outside its library uses, and every `pub` field
# of a Default struct no code sets, must have a `path item — reason` line
# in scripts/surface.allow, and every line there an entry; make the item
# private, delete it, or add its line), greps that keep fixed mistakes
# from creeping back, and the tracked-lines count ROADMAP quotes — plain
# bash over the working tree, no build. Two build gates: release_stats runs the stats suite in a
# release build, and docs builds the workspace's rustdoc. Replay gates (live_smoke, chaos_live, fleet_smoke): `loadgen`
# replays through real `edgeperf` processes on loopback ports 4620-4631,
# which leave their reports under replay-reports/. Repro gates
# (repro_results, repro_streaming, study_resume): `repro all` must rewrite
# results/ and print the stdout kept there byte for byte within 17 MiB
# resident, its streaming job every study file, fig7.json the exact one,
# the same bytes twice, and within 14 MiB at full scale, and a study killed mid-run
# must resume from its checkpoint
# to an uninterrupted run's fig6.json; they work in a temp dir they
# remove. Replay and repro gates need the release binaries
# (`cargo build --release -p edgeperf -p edgeperf-bench`). No downloads
# anywhere.
#
#   scripts/gates.sh          run every gate, report each, exit 1 if any failed
#   scripts/gates.sh NAME     run one (names: `scripts/gates.sh list`)
set -u
cd "$(dirname "$0")/.."

# A gate passes when its grep finds nothing; what it finds is printed. A
# gate of several clauses runs every one (`|| failed=1`), so each prints
# what it finds, and fails if any failed: `a && b` would stop at the first
# failing clause and hide the rest.
banned() { ! grep -rn "$@"; }

# The typed-error API (edgeperf_core::EdgeperfError) replaced the
# stringly-typed results in the ingest and analysis layers. (Command-line
# flag parsing — src/lib.rs `flag_value`, src/bin/ — reports usage
# messages as `String`s and is not one of those layers.)
stringly_errors() {
    banned "Result<.*String>" src/ingest.rs src/serve.rs crates/analysis --include="*.rs"
}

# NaN-unsafe float comparators panic (or worse, silently misorder) the
# moment a NaN slips into a sample; `f64::total_cmp` is total.
nan_unsafe_sorts() { banned "sort.*partial_cmp(" src crates examples tests --include="*.rs"; }

# Window indices are computed from f64 timestamps; a saturating `as u32`
# silently collapsed far-future records into one never-closing window
# (fixed via u64 + checked conversion with a typed WindowOverflow reject).
saturating_u32_casts() { banned "as u32" crates/live --include="*.rs"; }

# Every durable write of the live, fleet and world tiers (segments,
# manifests, the study checkpoint) goes through
# edgeperf_analysis::segment::{StagedFile, atomic_write}, so a crash can
# never leave a torn file behind; a raw fs::write or File::create would
# bypass that discipline (`\b`: `StagedFile::create` is the discipline).
raw_durable_writes() {
    banned -E "fs::write|\bFile::create" crates/live crates/fleet crates/world --include="*.rs"
}

# A `cells` row becomes bytes in protocol::write_row and comes
# back through protocol::read_row, nowhere else: a loop of
# serde_json::to_string / from_str per row (a Value tree and a dozen
# Strings each) is what made a reply the server's memory peak.
# protocol.rs itself may name them — its tests pin the hand-written codec
# against the serde derive.
per_row_serde() {
    ! grep -rnE "to_string\(cell|from_str\(&line|from_str\(&row" crates/live/src crates/fleet/src \
        --include="*.rs" | grep -v "^crates/live/src/protocol.rs:"
}

# The live tier's bit-identity claims have one proof kit
# (edgeperf_live::{serial_cells, first_difference},
# LiveClient::wait_processed) and one `verdict()` per report. The
# hand-written copies it replaced — serial oracles, row comparators,
# control servers, `--expect-clean` predicates, the `digest` verb — stay
# gone, and nothing but the client polls `snapshot` for settlement.
# (protocol.rs's private `render_rows` and frame.rs's `LiveRecord` test
# helper `assert_bit_identical` are other things; `benchmark/` is outside
# these paths.)
proof_kit_copies() {
    local failed=0
    banned -E "fn (offline_cells|serial_windows|cells_bit_identical|opt_bits|rows_json|run_control|assert_exact|percentile|check_clean)\\b|digest_query|Request::Digest|DigestHeader|RowsHeader" \
        crates src tests examples --include="*.rs" || failed=1
    ! grep -rnE "fn (render_rows|assert_bit_identical)\\b" crates src tests examples \
        --include="*.rs" | grep -v "^crates/live/src/\(protocol\|frame\).rs:" || failed=1
    ! grep -rnE "fn wait_processed|accepted \\+ .*rejected >=" crates src tests examples \
        --include="*.rs" | grep -v "^crates/live/src/client.rs:" || failed=1
    return "$failed"
}

# `serve` counts each fact it reports once: the stat cells, worker state
# and StoreStats behind `snapshot`, `stats` and `store`. The metrics
# registry mirrors them through server/stats.rs's `publish` when it is
# read, so no other live-tier file names a mirrored metric — a second
# writer is how `live.accepted` came to count late records twice.
double_counts() {
    ! grep -rnE '"[^"]*(live\.accepted|ingest\.reject\.|worker\.lost_records|live\.windows\.closed|live\.events\.|live\.episodes\.|live\.worker\.|store\.spill_errors|store\.degraded|store\.compactions|store\.query_)' \
        crates/live/src --include="*.rs" | grep -v "^crates/live/src/server/stats.rs:"
}

# A `cells` reply merges the runs the workers and the store hand over,
# each already in canonical order; it never sorts. A sort on the reply
# path — outside reply.rs's tests, whose reference answer is a sort — is
# the 24-byte-a-row index that used to be the query phase's memory peak
# coming back.
reply_sorts() {
    awk '/^#\[cfg\(test\)\]/ { nextfile }
        /\.sort|sort_cells/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit found }' crates/live/src/reply.rs crates/live/src/server/query.rs
}

# The online detector reads its baselines from the packed windows its
# worker retains anyway. A per-group deque of summaries beside them was a
# second copy of every retained preferred-route cell: ~1 KB a group at
# `--retention 8`, and 88 B a group for each further retained window.
detector_copies() {
    banned "VecDeque<CellSummary>" crates/live/src crates/fleet/src
}

# A `cells` reply streams the store's rows: `SegmentStore::query` hands
# over a cursor a segment, each holding one row group, and the reply
# merges them. The store's answer collected into one vector of rows — 72 B
# a matching row, 2.4 MB for a four-window range at the wide shape, what
# the history workload's query phase peaked on — stays gone: outside
# tests, reply.rs and server/query.rs name no `Vec<WindowCell>`, and
# store.rs neither exposes one as a field nor returns one.
store_rows() {
    awk '/^#\[cfg\(test\)\]/ { nextfile }
        FILENAME ~ /store\.rs$/ && !/pub[^:]*: *Vec<WindowCell>|->.*Vec<WindowCell>/ { next }
        /Vec<WindowCell>/ { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit found }' crates/live/src/reply.rs crates/live/src/server/query.rs \
        crates/live/src/store.rs
}

# outside_tests PATTERN FILE...: passes when no line before a FILE's first
# `#[cfg(test)]` matches the awk regex PATTERN; prints each that does.
outside_tests() {
    awk -v pattern="$1" '/^#\[cfg\(test\)\]/ { nextfile }
        $0 ~ pattern { print FILENAME ":" FNR ": " $0; found = 1 }
        END { exit found }' "${@:2}"
}

# A closed cell is read in one form, the packed `WindowCell` row: by the
# analyses, by both offline sinks' grids and by the live detector. A
# `CellSummary` is what a summarizer hands over and `WindowCell::new`
# packs. The detector once unpacked every retained row back into one to
# call the analyses, and the analyses each knew its `Option` fields; that
# unpack, and a grid of summaries beside the rows, stay gone outside tests.
cell_unpack() {
    local failed=0
    outside_tests CellSummary crates/analysis/src/{compare,degradation,opportunity,figures,tables}.rs \
        crates/live/src/detect.rs || failed=1
    outside_tests 'GroupData<CellSummary>' $(find crates -name '*.rs') || failed=1
    outside_tests 'fn summary[(]&self[)] -> CellSummary' crates/analysis/src/segment.rs || failed=1
    return "$failed"
}

# `loadgen` sends records one way: every replay — plain, chaos, fleet —
# is exactly-once sessions advanced together through one chunk loop
# (`loadgen::replay_in_chunks`). The plain mode once had a sender of its
# own (raw sockets, a thread barrier, a leader polling `snapshot`), so no
# raw socket, barrier or binary preamble comes back under
# crates/bench/src, and the session client is called from one place.
replay_paths() {
    local calls
    banned -E "TcpStream|Barrier|preamble[(]" crates/bench/src --include="*.rs" || return 1
    calls=$(grep -rho "replay_with_resume(" crates/bench/src --include="*.rs" | wc -l)
    [ "$calls" -eq 1 ] || { echo "replay_with_resume( is called $calls times in crates/bench/src, not once" >&2; return 1; }
}

# Public surface nobody outside its library uses, against its reasoned
# allowlist (what counts and how to add a line: scripts/surface.sh).
surface() { scripts/surface.sh check; }

# Names that went and that `surface` cannot see come back: wrappers a
# binary would call again, types (it lists no types), and names a live
# item shares.
# - The live tier has one way in of each kind: a `LiveConfig` literal, a
#   `LiveClient` (the fleet's included) and one resumable data
#   connection. A study is described once, by the world crate's
#   `WorldConfig` and `StudyConfig`, and a checkpoint fingerprints both;
#   the study builder that repeated those fields, and the `meta` pairs it
#   added to a fingerprint, stay gone.
# - A study has one account, its `StudyReport`: a per-worker tally of the
#   same totals and its CLI table stay gone, and so does the analysis
#   config a study's data once carried, which was always the default.
# - A study resumes by rerunning `repro --checkpoint-dir` with the same
#   flags, so the fingerprint reader goes with the builder's
#   resume-from-directory; the world ranks the routes of an exact prefix,
#   so the prefix containment tests stay gone (by path: `OpFault::covers`
#   shares the name).
# - A study record's MinRTT is a `u32` of nanoseconds, so the exact sink
#   keeps one form of it: the `f64` fallback, the check that chose it, the
#   decoder that rebuilt it and the accessor that named the form stay gone.
# - Both offline sinks close their cells in one shard type, a work item
#   a shard sealed once: the streaming sink's prefix-wide grid of open
#   digest cells, its sealed groups and the decoding of a sealed shard's
#   runs back to raw ones stay gone.
# - `repro` generates one world and runs one study, in study.rs: no other
#   file of the bench library generates a world or runs a study of its
#   own (the detector scores the main study's cells; Figure 5's scenario
#   is a literal PoP and two literal clusters).
gone_names() {
    local failed=0
    banned "ServeBuilder\|ResumeInput\|connect_resume\|StudyBuilder\|fn checkpoint_meta\|builder_seed" \
        crates src tests examples || failed=1
    banned -E "StudyStats|WorkerCounters|fn render_stats\b" crates src tests examples --include="*.rs" || failed=1
    banned "pub cfg: AnalysisConfig" crates/bench/src/study.rs || failed=1
    banned -E "fn checkpoint_fingerprint\b" crates src tests examples --include="*.rs" || failed=1
    banned -E "fn (contains|covers)\b" crates/routing/src/types.rs || failed=1
    banned -E "Kept::Plain|nanos_of|min_rtt_in_nanos|fn decoded\b" crates src tests examples \
        --include="*.rs" || failed=1
    banned -E "SealedGroup|GroupSlots<StreamingCell>|fn unseal\b" crates src tests examples \
        --include="*.rs" || failed=1
    banned -E "World::generate|run_study_into|run_study\(" crates/bench/src --include="*.rs" \
        --exclude=study.rs || failed=1
    return "$failed"
}

# The stats suite in a release build as well: an optimised build may
# return either zero from `f64::min`/`max`, so the t-digest's extremes
# disagreed on ±0.0 in release only, which no debug run could catch.
release_stats() { cargo test --release -q -p edgeperf-stats; }

# Rustdoc builds without a warning. A public doc that links to a private
# item, an unresolved link (a bare `[20]` citation, a renamed function)
# or an ambiguous one (`median_ci`, both a function and a module) is a
# warning rustdoc prints and nobody reads; write such names as plain
# code text, or link the public item.
docs() { RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q; }

# --- Replay gates -----------------------------------------------------

bin=target/release
reports=replay-reports

# The release binaries the replays and the repro gates drive, and a place
# for the replays' reports.
built() {
    for b in edgeperf loadgen repro; do
        if [ ! -x "$bin/$b" ]; then
            echo "gates.sh: $bin/$b is missing: cargo build --release -p edgeperf -p edgeperf-bench" >&2
            return 1
        fi
    done
    mkdir -p "$reports"
}

# with_server PORT SNAPSHOT EDGEPERF_ARGS... -- COMMAND...
# Start `edgeperf EDGEPERF_ARGS` with its stdout (the final snapshot) in
# SNAPSHOT, wait until PORT accepts, run COMMAND — which must end by
# shutting the server down — then wait for the server and require that
# it reported a clean drain.
with_server() {
    local port=$1 snapshot=$2 args=() pid status
    shift 2
    while [ "$1" != -- ]; do args+=("$1"); shift; done
    shift
    "$bin/edgeperf" "${args[@]}" > "$snapshot" &
    pid=$!
    for _ in $(seq 1 50); do
        (exec 3<> "/dev/tcp/127.0.0.1/$port") 2> /dev/null && break
        sleep 0.2
    done
    "$@"
    status=$?
    if [ "$status" -ne 0 ]; then
        kill "$pid" 2> /dev/null
        wait "$pid" 2> /dev/null
        return "$status"
    fi
    wait "$pid" && grep -q '"drained": *true' "$snapshot"
}

# Live smoke: 50k workload sessions into `edgeperf serve`, once per wire,
# then through a spilling server with a historical range query; every run
# must pass `--expect-clean` (LoadReport::verdict) and drain cleanly.
live_smoke() {
    built || return 1
    local wire port=4620 spill="$reports/spill" geometry returned
    for wire in jsonl binary; do
        with_server "$port" "$reports/serve_${wire}_snapshot.json" \
            serve --addr "127.0.0.1:$port" --workers 4 -- \
            "$bin/loadgen" --addr "127.0.0.1:$port" --sessions 50000 --connections 4 \
            --wire "$wire" --shutdown --expect-clean --json "$reports/replay_live_$wire.json" \
            > /dev/null || return 1
        port=$((port + 1))
    done
    # A tiny RAM retention and a spill directory, a replay long enough
    # that most windows land on disk, then a historical query that must
    # hit spilled segments (`--expect-clean` fails on zero rows) before
    # the drain; afterwards a manifest, at least one segment and no
    # leftover staging file.
    rm -rf "$spill"
    mkdir -p "$spill"
    geometry="--window-ms 60000 --lateness-ms 5000"
    # shellcheck disable=SC2086
    with_server 4622 "$reports/serve_spill_snapshot.json" \
        serve --addr 127.0.0.1:4622 --workers 4 $geometry --retention 4 --spill-dir "$spill" -- \
        "$bin/loadgen" --addr 127.0.0.1:4622 --sessions 50000 --connections 1 --windows 48 \
        $geometry --query-from 0 --query-until 24 --shutdown --expect-clean \
        --json "$reports/replay_live_spill.json" \
        > /dev/null 2> "$reports/loadgen_spill.err" || { cat "$reports/loadgen_spill.err" >&2; return 1; }
    test -f "$spill/manifest.json" && ls "$spill"/seg-*.seg > /dev/null || return 1
    if ls "$spill"/*.tmp 2> /dev/null; then
        echo "staging files survived the run" >&2
        return 1
    fi
    # Reopen: a second server over the same directory re-reads every
    # footer and rebuilds its index. A four-window replay (it stays in
    # RAM, and its cells dedupe against their spilled copies) satisfies
    # --expect-clean; the same historical query must then return no
    # fewer cells than the first server did.
    # shellcheck disable=SC2086
    with_server 4622 "$reports/serve_respill_snapshot.json" \
        serve --addr 127.0.0.1:4622 --workers 4 $geometry --retention 4 --spill-dir "$spill" -- \
        "$bin/loadgen" --addr 127.0.0.1:4622 --sessions 2000 --connections 1 --windows 4 \
        $geometry --query-from 0 --query-until 24 --shutdown --expect-clean \
        > /dev/null 2> "$reports/loadgen_respill.err" || { cat "$reports/loadgen_respill.err" >&2; return 1; }
    returned() { sed -n 's/.*returned \([0-9]*\) cells.*/\1/p' "$1"; }
    test "$(returned "$reports/loadgen_respill.err")" -ge "$(returned "$reports/loadgen_spill.err")"
}

# One field of a replay report, by name.
reported() { grep -q "\"$2\": *$3\b" "$1" || { echo "$1: $2 is not $3" >&2; return 1; }; }

# Chaos over the live tier: a fixed fault plan (wire cuts, torn
# records, a slow-loris stall, worker panics, injected ENOSPC on spill)
# against the reconnect-and-resume client, once per wire.
# `--expect-clean` is ChaosReport::verdict: every record acked and
# applied exactly once, nothing rejected, lost or shed, and the settled
# horizon — windows 0..=10 of these replays' 12, every window their
# watermark closes — bit-identical to the serial oracle. A third pass
# drives a real `edgeperf serve --chaos` to prove the server-side flags
# and the standalone binaries compose.
chaos_live() {
    built || return 1
    local faults="disconnect:500;torn:1200;stall:2500@400;panic:0@800;panic:1@2000"
    # chaos_replay WIRE PLAN [LOADGEN_ARGS...]
    chaos_replay() {
        local wire=$1 plan=$2 report="$reports/replay_chaos_$1.json"
        shift 2
        "$bin/loadgen" --chaos "$plan" --wire "$wire" --sessions 20000 --windows 12 --workers 4 \
            --idle-timeout-ms 200 --seed 42 "$@" --expect-clean --json "$report" > /dev/null &&
            reported "$report" bit_identical_to_serial true &&
            reported "$report" settled_until 10 &&
            reported "$report" rejected 0 &&
            reported "$report" acked 20000
    }
    rm -rf "$reports/spill-chaos"
    mkdir -p "$reports/spill-chaos"
    chaos_replay jsonl "$faults;spillfail:0@3" \
        --retention 2 --spill-dir "$reports/spill-chaos" || return 1
    chaos_replay binary "$faults" || return 1
    with_server 4630 "$reports/serve_chaos_snapshot.json" \
        serve --addr 127.0.0.1:4630 --workers 4 --chaos "panic:0@800;panic:2@5000" \
        --idle-timeout-ms 5000 --max-conns 64 -- \
        "$bin/loadgen" --addr 127.0.0.1:4630 --sessions 20000 --connections 4 --wire jsonl \
        --shutdown --expect-clean --json "$reports/replay_chaos_serve.json" > /dev/null
}

# Multi-PoP fleet: a real `edgeperf fleet` process (coordinator + 2 PoP
# servers), a catchment-partitioned replay through the coordinator's
# `home` routing, one PoP killed mid-run with the survivors inheriting
# its groups. `--expect-clean` is FleetReport::verdict: every record
# acked and accepted exactly once fleet-wide, nothing rejected or late,
# the planned kill fired and re-homed a group, a clean drain, and the
# merged `fleet cells` of the settled horizon — windows 0..=4 of 8, the
# lateness being two windows — bit-identical to the serial oracle. The
# kill at record 1000 is event time 24 s, inside the failover budget
# (lateness/2 = 60 s).
fleet_smoke() {
    built || return 1
    local report="$reports/replay_fleet.json" geometry="--window-ms 60000 --lateness-ms 120000"
    # shellcheck disable=SC2086
    with_server 4631 "$reports/fleet_snapshot.json" \
        fleet --addr 127.0.0.1:4631 --pops 2 --workers 2 $geometry -- \
        "$bin/loadgen" --fleet 127.0.0.1:4631 --sessions 20000 --windows 8 $geometry \
        --workers 2 --fleet-chaos "kill:1@1000" --expect-clean --json "$report" \
        > /dev/null &&
        reported "$report" kills 1 &&
        reported "$report" bit_identical_to_serial true &&
        reported "$report" settled_until 4 &&
        reported "$report" rejected 0 &&
        reported "$report" late 0 &&
        reported "$report" acked 20000
}

# --- Repro gates ------------------------------------------------------

# repro_tree DIR ARGS...: `repro all ARGS --json DIR/tree`, its stdout in
# DIR/stdout and its peak resident set (VmHWM, kB, polled every 10 ms) in
# DIR/vmhwm_kb; its stderr is shown only when it fails.
repro_tree() {
    local dir=$1 pid kb hwm=0
    shift
    mkdir -p "$dir"
    "$bin/repro" all "$@" --json "$dir/tree" > "$dir/stdout" 2> "$dir/stderr" &
    pid=$!
    while kill -0 "$pid" 2> /dev/null; do
        kb=$(awk '/^VmHWM:/ { print $2 }' "/proc/$pid/status" 2> /dev/null)
        [ -n "$kb" ] && hwm=$kb
        sleep 0.01
    done
    echo "$hwm" > "$dir/vmhwm_kb"
    wait "$pid" || { tail -n 5 "$dir/stderr" >&2; return 1; }
}

# peaked_within DIR WHAT MIB: print the peak repro_tree recorded in DIR,
# and fail when it is above MIB MiB.
peaked_within() {
    local hwm
    hwm=$(cat "$1/vmhwm_kb" 2> /dev/null || echo 0)
    echo "$2 peaked at $((hwm / 1024)) MiB resident (VmHWM $hwm kB)"
    if [ "$hwm" -gt $(($3 * 1024)) ]; then
        echo "$2 peaked above $3 MiB" >&2
        return 1
    fi
}

# The checked-in results/ are compared, not just regenerated: the exact
# job at the default seed and full scale (~15 s; `--scale 1` overrides an
# ambient EDGEPERF_SCALE) must rewrite every JSON file of results/ byte
# for byte, and print results/repro_all.stdout byte for byte — what a
# reader sees, whatever order the experiments ran in. The exact sink keeps
# a summary a cell (a 64-byte row), an HDratio tally and, for the
# preferred route only, each group's MinRTTs in one sorted run coded as
# Rice gaps when its prefix is sealed (~1.2 B a row), the group named once
# beside its run; its workers close each cell when its window ends, so a
# prefix's raw rows never reach the merge; Figure 6 reads its ranks in
# three walks with a few 32 KiB histograms; every experiment that never
# reads the study (Figures 1-5, validation, grouping, cc, ablations,
# naive) runs before it; and the detector scores the study's own cells
# after Figure 7, once the MinRTT runs are dropped, on the world the study
# ran over, with no world or study of its own. So the job must also peak at no more
# than 17 MiB resident (it reads ~15.8, under Figure 6; with a coded
# run a cell in one study-wide buffer, indexed by 8 B a kept cell, it read
# 18.8, with a 24 B key and a u32 end a kept cell, in vectors grown by
# doubling, and 72-byte rows 20.9-21.1, with each prefix's raw rows held
# until the merge 24.4-24.7, with a 4 B MinRTT row ~32, and with a 6 B
# HDratio-and-MinRTT row, Figures 1-3 run on top of the freed rows, ~43).
repro_results() {
    built || return 1
    local out status
    out=$(mktemp -d) || return 1
    repro_tree "$out" --scale 1 && diff -r -x repro_all.stdout "$out/tree" results &&
        cmp "$out/stdout" results/repro_all.stdout
    status=$?
    peaked_within "$out" "repro all --scale 1" 17 || status=1
    rm -rf "$out"
    return "$status"
}

# Every analysis reads per-cell summaries either sink can produce, so the
# streaming job writes Figures 8-10 and both tables too, and both sinks
# keep the same HDratio tally, so it writes Figure 7 (the joint MinRTT x
# HDratio distribution, which no cell holds) and the detector's score of
# its digest cells, and skips nothing: its
# full-scale fig7.json must be results/fig7.json byte for byte (same seed
# and scale). Shards merge in prefix order, so a second run must write
# the same bytes, fig6.json included (its digest merge order used to
# follow the scheduler). At full scale the job holds the grid (a 64-byte
# row a cell), one rollup digest a group and the tally, and its workers
# close each cell when its window ends, so its peak is bounded below the
# exact job's: no more than 14 MiB resident (it reads ~12.6; with each
# prefix's digest cells held open until the prefix was done ~15.7, with
# the detector's own study run after it, not before, ~15.9, and with
# 72-byte rows 16.6). The benchmark's offline memory is the larger of
# the two jobs.
repro_streaming() {
    built || return 1
    local out status f
    out=$(mktemp -d) || return 1
    repro_tree "$out/a" --streaming --scale 0.1 && repro_tree "$out/b" --streaming --scale 0.1 &&
        diff -r "$out/a/tree" "$out/b/tree"
    status=$?
    repro_tree "$out/full" --streaming --scale 1 || status=1
    peaked_within "$out/full" "repro all --streaming --scale 1" 14 || status=1
    for f in fig6 fig7 fig8 fig9 fig10 table1 table2 detector; do
        test -f "$out/a/tree/$f.json" || { echo "streaming repro wrote no $f.json" >&2; status=1; }
    done
    cmp "$out/full/tree/fig7.json" results/fig7.json || status=1
    if grep -q 'skipped' "$out/a/stdout"; then
        echo "streaming repro skipped an experiment" >&2
        status=1
    fi
    rm -rf "$out"
    return "$status"
}

# Kill-and-resume: the injected `crash:8` takes the study down (exit 3)
# right after its eighth merge is journalled, exactly like a SIGKILL
# there, and must leave the checkpoint behind; the rerun on the same
# directory must resume from it (`"resumed_at": 9`), not start over, and
# write the fig6.json an uninterrupted run writes, byte for byte. The
# resumed run's StudyReport is kept as $reports/study_resume_report.json.
study_resume() {
    built || return 1
    local out status
    out=$(mktemp -d) || return 1
    fig6() { "$bin/repro" fig6 --quick "$@" > /dev/null 2> "$out/stderr"; }
    (
        fig6 --checkpoint-dir "$out/ck" --fault-plan crash:8 --json "$out/first"
        status=$?
        [ "$status" -eq 3 ] || { echo "the crashed study exited $status, not 3" >&2; exit 1; }
        test -f "$out/ck/checkpoint.json" || { echo "the crash left no checkpoint.json" >&2; exit 1; }
        fig6 --checkpoint-dir "$out/ck" --json "$out/resumed" || { tail -n 5 "$out/stderr" >&2; exit 1; }
        cp "$out/ck/study_report.json" "$reports/study_resume_report.json"
        reported "$out/ck/study_report.json" resumed_at 9 &&
            fig6 --json "$out/whole" && cmp "$out/resumed/fig6.json" "$out/whole/fig6.json"
    )
    status=$?
    rm -rf "$out"
    return "$status"
}

# The line count ROADMAP tracks, with the split it quotes: test = files
# under tests/, benches/ or examples/, and everything from a file's first
# `#[cfg(test)]` on; then the non-test lines of each crate (`crates/*`,
# `benchmark`, and `.` for the root package's src/), largest first; then
# the five largest files, so the next 2,000-line one is visible the week
# it appears; then the public surface kept with a reason, the lines of
# scripts/surface.allow. Reports; never fails.
tracked_lines() {
    git ls-files '*.rs' | xargs wc -l | tail -1
    git ls-files '*.rs' | xargs awk '
        FNR == 1 {
            in_test = (FILENAME ~ /(^|\/)(tests|benches|examples)\//)
            split(FILENAME, part, "/")
            crate = part[1] == "crates" ? part[1] "/" part[2] : part[1] == "benchmark" ? "benchmark" : "."
        }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else { code++; per[crate]++ } }
        END {
            printf "%d non-test, %d test\n", code, test
            for (c in per) printf "%7d non-test  %s\n", per[c], c | "sort -rn"
        }'
    git ls-files '*.rs' | xargs wc -l | sort -rn | sed -n '2,6p'
    echo "$(wc -l < scripts/surface.allow) surface.allow entries"
}

gates="surface stringly_errors nan_unsafe_sorts saturating_u32_casts raw_durable_writes per_row_serde
proof_kit_copies double_counts reply_sorts detector_copies store_rows cell_unpack replay_paths gone_names
release_stats docs live_smoke chaos_live fleet_smoke repro_results repro_streaming study_resume tracked_lines"

case "${1:-all}" in
list) echo $gates ;;
all)
    failed=0
    for gate in $gates; do
        if "$gate"; then echo "ok    $gate"; else echo "FAIL  $gate"; failed=1; fi
    done
    exit "$failed"
    ;;
*)
    case " $(echo $gates) " in
    *" $1 "*) "$1" ;;
    *) echo "gates.sh: no gate named $1 (have: $(echo $gates))" >&2; exit 2 ;;
    esac
    ;;
esac
