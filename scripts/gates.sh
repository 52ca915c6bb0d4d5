#!/usr/bin/env bash
# The repository's source gates: greps that keep fixed mistakes from
# creeping back, and the tracked-lines count ROADMAP quotes. Plain bash
# over the working tree, no build and no downloads, so it runs wherever
# the tests run; .github/workflows/ci.yml calls it one gate per step.
#
#   scripts/gates.sh          run every gate, report each, exit 1 if any failed
#   scripts/gates.sh NAME     run one (names: `scripts/gates.sh list`)
set -u
cd "$(dirname "$0")/.."

# A gate passes when its grep finds nothing; what it finds is printed.
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

# A `cells`/`digest` row becomes bytes in protocol::write_row and comes
# back through protocol::read_row, nowhere else: a loop of
# serde_json::to_string / from_str per row (a Value tree and a dozen
# Strings each) is what made a reply the server's memory peak.
# protocol.rs itself may name them — its tests pin the hand-written codec
# against the serde derive.
per_row_serde() {
    ! grep -rnE "to_string\(cell|from_str\(&line|from_str\(&row" crates/live/src crates/fleet/src \
        --include="*.rs" | grep -v "^crates/live/src/protocol.rs:"
}

# The live tier has one way in of each kind: a `LiveConfig` literal, a
# `LiveClient` (the fleet's included) and one resumable data connection.
# The wrappers that used to stand in front of them stay gone.
front_door_wrappers() {
    banned "ServeBuilder\|ResumeInput\|connect_resume" crates src tests examples
}

# The line count ROADMAP tracks, with the split it quotes: test = files
# under tests/, benches/ or examples/, and everything from a file's first
# `#[cfg(test)]` on; then the five largest files, so the next 2,000-line
# one is visible the week it appears. Reports; never fails.
tracked_lines() {
    git ls-files '*.rs' | xargs wc -l | tail -1
    git ls-files '*.rs' | xargs awk '
        FNR == 1 { in_test = (FILENAME ~ /(^|\/)(tests|benches|examples)\//) }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        { if (in_test) test++; else code++ }
        END { printf "%d non-test, %d test\n", code, test }'
    git ls-files '*.rs' | xargs wc -l | sort -rn | sed -n '2,6p'
}

gates="stringly_errors nan_unsafe_sorts saturating_u32_casts raw_durable_writes per_row_serde
front_door_wrappers tracked_lines"

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
