#!/bin/sh
# Bench regression gate: re-run the table benches and compare every
# numeric field against the checked-in baselines/ JSON, exactly.
#
#   scripts/bench_compare.sh
#
# The cycle model is deterministic, so a table moves only when code
# changes the model, and a refactor must move none of it. Any difference
# in any cell of Table I, II or III fails. A deliberate model change
# refreshes baselines/ in the same change and records each moved cell
# (old -> new, and why) in CHANGES.md. Refresh with:
#
#   for t in table1 table2 table3; do \
#     ./target/release/$t --json > baselines/$t.json; done
#
# Requires: ./target/release/{table1,table2,table3,iss_bench}
# (cargo build --release --workspace; iss_bench feeds the MIPS-floor gate).
set -eu
cd "$(dirname "$0")/.."

STATUS=0

# Flatten machine-generated JSON to "key value" lines, one per numeric
# field, in document order. Booleans and strings are skipped (they are
# compared implicitly: a changed key sequence is a structure mismatch).
# The table binaries emit modelled cycles only, so every numeric field is
# compared; host wall-clock throughput is gated separately below, against
# baselines/iss.json.
flatten() {
    tr ',{}[]' '\n' <"$1" \
        | sed -n 's/^[[:space:]]*"\([a-z_0-9]*\)": \(-\{0,1\}[0-9][0-9.]*\)$/\1 \2/p'
}

# Fail loudly on a missing, empty, or malformed JSON file instead of
# silently flattening it to zero fields (which would then report a
# confusing "field count changed" or, worse, compare nothing).
check_json() {
    file="$1"
    if [ ! -f "$file" ]; then
        echo "bench-compare: missing $file — regenerate it (see the header of this script)" >&2
        return 1
    fi
    if [ ! -s "$file" ]; then
        echo "bench-compare: $file is empty — regenerate it (see the header of this script)" >&2
        return 1
    fi
    case "$(head -c1 "$file")" in
        "{") ;;
        *)
            echo "bench-compare: $file is not a JSON object (malformed baseline?)" >&2
            return 1
            ;;
    esac
    if [ "$(flatten "$file" | wc -l)" -eq 0 ]; then
        echo "bench-compare: $file contains no numeric fields (malformed baseline?)" >&2
        return 1
    fi
    return 0
}

compare() {
    bin="$1"
    table_ok=1
    baseline="baselines/$bin.json"
    if ! check_json "$baseline"; then
        STATUS=1
        return 0
    fi
    current=$(mktemp)
    base_flat=$(mktemp)
    cur_flat=$(mktemp)
    "./target/release/$bin" --json >"$current"
    flatten "$baseline" >"$base_flat"
    flatten "$current" >"$cur_flat"
    if [ "$(wc -l <"$base_flat")" != "$(wc -l <"$cur_flat")" ]; then
        echo "bench-compare: $bin field count changed ($(wc -l <"$base_flat") -> $(wc -l <"$cur_flat")); refresh $baseline" >&2
        STATUS=1
        table_ok=0
    else
        if ! paste "$base_flat" "$cur_flat" | awk -v bin="$bin" '
            {
                bk = $1; bv = $2; ck = $3; cv = $4
                if (bk != ck) {
                    printf "bench-compare: %s structure changed at field %d: %s -> %s\n", bin, NR, bk, ck
                    fail = 1
                    exit 1
                }
                # Compared as text: the model is deterministic, so any
                # difference, even in the last printed digit, is a change.
                if (bv "" != cv "") {
                    printf "bench-compare: %s changed \"%s\" (field %d): %s -> %s\n", bin, bk, NR, bv, cv
                    fail = 1
                }
            }
            END { exit fail }
        ' >&2; then
            STATUS=1
            table_ok=0
        fi
    fi
    rm -f "$current" "$base_flat" "$cur_flat"
    if [ "$table_ok" = 1 ]; then
        echo "bench-compare: $bin OK (exact)"
    fi
    return 0
}

compare table1
compare table2
compare table3

# ISS throughput floor: the superblock interpreter's wall-clock MIPS
# (iss_bench's "mips_fast") must stay above the recorded floor. This is a
# host-dependent figure (unlike the cycle tables), so the floor is set
# well below the reference host's steady-state and only catches gross
# regressions — e.g. the fast path silently degenerating to
# single-instruction dispatch.
if [ -f baselines/iss.json ] && [ -s baselines/iss.json ]; then
    ISS_FLOOR=$(sed -n 's/.*"mips_floor": \([0-9.]*\).*/\1/p' baselines/iss.json)
    ISS_MIPS=$(./target/release/iss_bench --json --iters 500 \
        | sed -n 's/.*"mips_fast": \([0-9.]*\).*/\1/p')
    if [ -z "$ISS_FLOOR" ]; then
        echo "bench-compare: baselines/iss.json has no \"mips_floor\" field (malformed baseline?)" >&2
        STATUS=1
    elif [ -z "$ISS_MIPS" ]; then
        echo "bench-compare: iss_bench --json printed no \"mips_fast\" field" >&2
        STATUS=1
    elif awk -v m="$ISS_MIPS" -v f="$ISS_FLOOR" 'BEGIN { exit !(m + 0 >= f + 0) }'; then
        echo "bench-compare: iss OK ($ISS_MIPS MIPS >= floor $ISS_FLOOR)"
    else
        echo "bench-compare: iss regression: $ISS_MIPS MIPS < floor $ISS_FLOOR" >&2
        STATUS=1
    fi
else
    echo "bench-compare: missing or empty baselines/iss.json — regenerate it (see the header of this script)" >&2
    STATUS=1
fi

if [ "$STATUS" != 0 ]; then
    echo "bench-compare: FAILED" >&2
    exit 1
fi
echo "bench-compare: all tables match baselines/ exactly"
