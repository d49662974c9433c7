#!/bin/sh
# Tier-1 verification — the CI entry point for this workspace.
#
# The workspace is hermetic by design (zero external dependencies; see
# DESIGN.md), so everything here runs with --offline: a clean checkout on a
# machine with no network and no crates.io cache must pass.
#
# Usage: scripts/verify.sh [--quick]
#
# --quick runs the CI-iteration subset — fmt, build, unit tests (the
# workspace's, the benchmark package's, and a release-mode run of
# lac-sha256's, lac-ring's, lac's, lac-hw's, the charge fixture and the
# KATs), rustdoc with warnings as errors, an exact compare of the three
# tables with baselines/, the E4/E5 examples and a few smokes — and skips
# the serving gates and every wall-clock floor.
# Full mode (no flags) remains the tier-1 gate. After the steps both
# modes share, it runs every exact gate (digests, counts, modelled
# scaling), then every wall-clock gate (speedup floors, the ISS MIPS
# floor, shedding, reactor scaling). Each gate runs whatever an earlier
# one read; the script prints every gate's result and exits non-zero at
# the end, naming each gate that failed.
set -eu

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *)
            echo "usage: scripts/verify.sh [--quick]" >&2
            exit 2
            ;;
    esac
done

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo
echo "== cargo build --release --offline --locked --workspace =="
# --workspace: the acceptance gates below run member binaries
# (iss_bench, table*) straight from target/release. --locked: a manifest
# edit that would rewrite Cargo.lock fails here instead of silently.
cargo build --release --offline --locked --workspace

echo
echo "== cargo test -q --offline --workspace =="
cargo test -q --offline --workspace

echo
echo "== cargo test --release --offline --locked (perfbench) =="
# The benchmark is a package of its own, outside the workspace, that
# drives the system through lac-serve's public API (Server, Client,
# ServePool). Building and testing it here makes an API change that
# breaks the benchmark fail tier-1, in both modes. --locked: a
# [dependencies] edit in any crate it builds would rewrite
# perfbench/Cargo.lock, so it fails here instead.
cargo test --release --offline --locked -q --manifest-path perfbench/Cargo.toml

echo
echo "== cargo test --release --offline --locked (SHA-256, ring, lac, hw, cycle_model, kat) =="
# Both modes. The workspace tests above run in the debug profile; these
# run lac-sha256's unsafe SHA-extension body, lac-ring's unsafe AVX2
# product body, the MUL TER unit built on it and lac's closed-form loop
# charges as release builds compile them (optimised, no overflow checks),
# against the crates' own tests, the charge fixture and the KATs.
cargo test --release --offline --locked -q -p lac-sha256 -p lac-ring -p lac -p lac-hw
cargo test --release --offline --locked -q --test cycle_model --test kat

echo
echo "== smoke: self-modifying unlink digest parity =="
# A hot loop patches an already-chained block mid-run: iss_bench exits
# non-zero if any engine's digest diverges, or if a JIT-capable host
# never severed a chain link (the unlink path went untested). Captured
# (not piped to grep -q) so iss_bench's exit code is honoured. Both modes
# run it: full mode's ISS gates never pass --smc.
SMC=$(cargo run -q --release --offline -p lac-bench --bin iss_bench -- --smc --json)
printf '%s' "$SMC" | grep -q '"digests_match": true' || {
    echo "smc smoke: digests_match missing or false" >&2
    echo "$SMC" >&2
    exit 1
}
echo "  self-modifying unlink parity OK"

echo
echo "== outputs no table compares equal baselines/*.txt =="
# failure_rate takes its error statistics from seeded encrypt/decrypt
# transcripts through the ring product, and ablation_unit_len is the one
# caller of MUL TER at unit lengths 256 and 1024; ablation_keccak prints
# the hash-unit ablation. Their stdout is deterministic, so any change to
# a product, a transcript or a modelled cycle they print fails here. The
# three runs take under two seconds together.
for bin in failure_rate ablation_unit_len ablation_keccak; do
    cargo run -q --release --offline -p lac-bench --bin "$bin" \
        | cmp -s - "baselines/$bin.txt" || {
        echo "$bin output differs from baselines/$bin.txt" >&2
        exit 1
    }
    echo "  $bin equals baselines/$bin.txt"
done

echo
echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace --offline =="
# Both modes: a doc link to a deleted or private item is an error, not a
# warning, so removing a public name that docs still link to fails here.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline
echo "  rustdoc clean"

echo
echo "== tables equal baselines/ (--json) =="
# The cycle model is deterministic, so a change that moves one modelled
# cycle fails here, in both modes, before any wall-clock gate runs. All
# three tables take well under a second.
for bin in table1 table2 table3; do
    cargo run -q --release --offline -p lac-bench --bin "$bin" -- --json \
        | cmp -s - "baselines/$bin.json" || {
        echo "$bin --json differs from baselines/$bin.json" >&2
        exit 1
    }
    echo "  $bin equals baselines/$bin.json"
done

echo
echo "== smoke: jit digest parity (engine compare) =="
# One tiny program through the full engine compare: exits non-zero (and
# digests_match goes false) if the JIT — or its superblock fallback on
# unsupported hosts — diverges from the classic oracle. Both modes run
# it; the speedup floors live in full mode's wall-clock phase.
cargo run -q --release --offline -p lac-bench --bin iss_bench -- \
    --json --iters 8 | grep -q '"digests_match": true'
echo "  jit digest parity OK (engine compare)"

if [ "$QUICK" = 1 ]; then
    echo
    echo "== smoke: the E4/E5 examples (quick mode) =="
    # timing_leak asserts that the submission decoder's cost moves with
    # the error count and the Walters decoder's does not; riscv_accel
    # checks each pq.* result, pq.mul_chien included, against native
    # code. Each runs in tens of milliseconds.
    for ex in timing_leak riscv_accel; do
        cargo run -q --release --offline --example "$ex" > /dev/null
        echo "  $ex OK"
    done
    echo
    echo "== smoke: session handshake round trip (quick mode) =="
    # One session through the full lifecycle: SESSION_OPEN handshake, one
    # sealed chat, close — zero errors, all sessions reaped.
    SESS=$(./target/release/lac-suite bench-serve --sessions 1 --session-chats 1 \
        --workers 2 --seed 1 --json)
    printf '%s' "$SESS" | grep -q '"opened": 1' || {
        echo "session smoke: handshake did not complete" >&2
        echo "$SESS" >&2
        exit 1
    }
    printf '%s' "$SESS" | grep -q '"errors": 0' || {
        echo "session smoke: errors reported" >&2
        echo "$SESS" >&2
        exit 1
    }
    echo "  session handshake OK"
    echo
    echo "== smoke: 2-reactor front-end (quick mode) =="
    # The sharded front-end must serve the same session mix with zero
    # errors on 2 reactor shards. No scaling floor here — that gate (and
    # the 1-vs-4 digest compare) lives in full mode.
    SHARD=$(./target/release/lac-suite bench-serve --sessions 2 --session-chats 2 \
        --conns 2 --workers 2 --reactors 2 --seed 1 --json)
    for NEEDLE in '"reactors": 2' '"opened": 2' '"errors": 0'; do
        printf '%s' "$SHARD" | grep -q "$NEEDLE" || {
            echo "2-reactor smoke: missing $NEEDLE" >&2
            echo "$SHARD" >&2
            exit 1
        }
    done
    echo "  2-reactor session mix OK"
    echo
    echo "verify: quick checks passed (full mode remains the tier-1 gate)"
    exit 0
fi

echo
echo "== cargo clippy --offline --workspace --all-targets -- -D warnings =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings
echo "  clippy clean"

echo
echo "== smoke: table1/table2/table3 (text) =="
# Their --json output was compared with baselines/ above.
for bin in table1 table2 table3; do
    cargo run -q --release --offline -p lac-bench --bin "$bin" > /dev/null
    echo "  $bin OK"
done

echo
echo "== smoke: every example runs to a zero exit =="
# The examples assert their own results (riscv_accel checks each pq.*
# instruction against the native code; timing_leak and riscv_accel
# regenerate DESIGN.md's E4/E5), so a failing one is a failing check.
for src in examples/*.rs; do
    ex=$(basename "$src" .rs)
    cargo run -q --release --offline --example "$ex" > /dev/null
    echo "  $ex OK"
done

# Every gate below runs whatever an earlier one read. `gate NAME CMD...`
# runs one gate and records its result; the summary at the end prints
# them all and the exit status is non-zero if any failed. A gate's
# function returns 1 on failure instead of exiting (set -e does not
# apply inside a command tested by `if`, so every check in a gate
# returns explicitly).
RESULTS=""
FAILED=""
gate() {
    GATE_NAME=$1
    shift
    if "$@"; then
        RESULTS="$RESULTS
  pass  $GATE_NAME"
    else
        echo "  FAILED: $GATE_NAME"
        RESULTS="$RESULTS
  FAIL  $GATE_NAME"
        FAILED="$FAILED
  - $GATE_NAME"
    fi
}

# retry CMD...: a wall-clock gate gets one retry before it counts as a
# regression.
retry() {
    "$@" || { echo "  (wall-clock noise suspected; retrying once)"; "$@"; }
}

json_field() {
    # json_field JSON KEY -> first top-level integer value for "KEY": N.
    printf '%s' "$1" | grep -o "\"$2\": [0-9]*" | head -1 | awk '{print $2}'
}

json_float() {
    printf '%s' "$1" | grep -o "\"$2\": [0-9.]*" | head -1 | awk '{print $2}'
}

json_digest() {
    printf '%s' "$1" | sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p'
}

echo
echo "######## exact gates: digests, counts, modelled scaling ########"

echo
echo "== smoke: serve / bench-serve / serve-ctl =="
# A live 2-reactor server: closed and paced loads must produce the same
# response digest, and STATS must count them and render both shards.
serve_checks() {
    ./target/release/lac-suite serve-ctl ping --addr "$ADDR" > /dev/null || return 1
    CLASSIC=$(./target/release/lac-suite bench-serve --addr "$ADDR" --conns 2 --requests 8 \
        --op encaps --seed 1 --json) || return 1
    # The same load paced (pipelined frames on each connection) must
    # produce the same response digest.
    PIPELINED=$(./target/release/lac-suite bench-serve --addr "$ADDR" --conns 2 --requests 8 \
        --op encaps --seed 1 --target-qps 200 --json) || return 1
    CLASSIC_DIGEST=$(json_digest "$CLASSIC")
    PIPELINED_DIGEST=$(json_digest "$PIPELINED")
    if [ -z "$CLASSIC_DIGEST" ] || [ "$CLASSIC_DIGEST" != "$PIPELINED_DIGEST" ]; then
        echo "serve smoke: pipelined digest '$PIPELINED_DIGEST' != classic '$CLASSIC_DIGEST'" >&2
        return 1
    fi
    # Raw snapshot via --json; aggregated text and the per-shard breakdown
    # must render the 2-reactor shape.
    ./target/release/lac-suite serve-ctl stats --addr "$ADDR" --json | grep -q '"encaps": 16' || {
        echo "serve smoke: STATS --json does not count 16 encaps" >&2
        return 1
    }
    ./target/release/lac-suite serve-ctl stats --addr "$ADDR" | grep -q '2 reactors' || {
        echo "serve smoke: STATS text lacks '2 reactors'" >&2
        return 1
    }
    ./target/release/lac-suite serve-ctl stats --addr "$ADDR" --per-shard | grep -q 'shard 1:' || {
        echo "serve smoke: STATS --per-shard lacks shard 1" >&2
        return 1
    }
    ./target/release/lac-suite serve-ctl sessions --addr "$ADDR" --json --per-shard \
        | grep -q '"per_shard": \[{"shard": 0' || {
        echo "serve smoke: sessions --per-shard lacks shard 0" >&2
        return 1
    }
}
serve_smoke() {
    SERVE_LOG=$(mktemp)
    ./target/release/lac-suite serve --addr 127.0.0.1:0 --workers 2 --reactors 2 --seed 1 \
        > "$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    # The server prints "lac-serve listening on HOST:PORT (...)" before blocking.
    ADDR=""
    for _ in $(seq 1 50); do
        ADDR=$(sed -n 's/^lac-serve listening on \([0-9.:]*\) .*/\1/p' "$SERVE_LOG")
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "serve smoke: server never reported its address" >&2
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
        cat "$SERVE_LOG" >&2
        rm -f "$SERVE_LOG"
        return 1
    fi
    SERVE_OK=0
    serve_checks || SERVE_OK=1
    # Shut the server down whatever the checks read.
    ./target/release/lac-suite serve-ctl shutdown --addr "$ADDR" > /dev/null || {
        SERVE_OK=1
        kill "$SERVE_PID" 2>/dev/null || true
    }
    if ! wait "$SERVE_PID"; then
        echo "serve smoke: server exited non-zero" >&2
        cat "$SERVE_LOG" >&2
        SERVE_OK=1
    fi
    grep -q "server shut down" "$SERVE_LOG" || SERVE_OK=1
    rm -f "$SERVE_LOG"
    [ "$SERVE_OK" = 0 ] || return 1
    echo "  serve smoke OK ($ADDR)"
}
gate "serve smoke (closed == paced digest, STATS)" serve_smoke

echo
echo "== acceptance: worker scaling and determinism (bench-serve --sweep) =="
scaling_gate() {
    SWEEP=$(./target/release/lac-suite bench-serve --sweep 1,4 --conns 2 --requests 16 \
        --op encaps --params lac128 --backend hw --seed 1 --json) || return 1
    echo "$SWEEP" | grep -q '"deterministic": true' || {
        echo "serve acceptance: digests differ across worker counts" >&2
        echo "$SWEEP" >&2
        return 1
    }
    echo "$SWEEP" | awk '
        /"scaling":/ {
            gsub(/[",]/, "")
            for (i = 1; i <= NF; i++) if ($i == "scaling:") v = $(i + 1)
        }
        END {
            if (v + 0 < 2.0) { print "serve acceptance: modelled scaling " v " < 2.0x" ; exit 1 }
            print "  scaling 1 -> 4 workers: " v "x, deterministic: yes"
        }
    '
}
gate "worker scaling >= 2.0x (modelled) and determinism" scaling_gate

echo
echo "== smoke: open-loop tail-latency bench (bench-serve --target-qps) =="
# Gentle fixed-rate run against an in-process server (90 requests at
# 300/s): the report must be well-formed (interpolated p50/p99/p999) with
# no transport errors, and the arrival rule must not change the replies —
# the paced digest equals the closed-loop digest of the same script.
open_loop_smoke() {
    OPEN=$(./target/release/lac-suite bench-serve --target-qps 300 --requests 90 \
        --conns 2 --workers 2 --op encaps --params lac128 --seed 1 --json) || return 1
    CLOSED=$(./target/release/lac-suite bench-serve --requests 90 \
        --conns 2 --workers 2 --op encaps --params lac128 --seed 1 --json) || return 1
    printf '%s' "$OPEN" | grep -q '"bench": "serve-open-loop"' || {
        echo "open-loop smoke: missing report header" >&2
        echo "$OPEN" >&2
        return 1
    }
    printf '%s' "$OPEN" | grep -q '"p999_us"' || {
        echo "open-loop smoke: report lacks p999 tail quantile" >&2
        echo "$OPEN" >&2
        return 1
    }
    OPEN_COMP=$(json_field "$OPEN" completions)
    OPEN_ERRS=$(json_field "$OPEN" errors)
    if [ "${OPEN_COMP:-0}" -eq 0 ] || [ "${OPEN_ERRS:-1}" -ne 0 ]; then
        echo "open-loop smoke: completions=$OPEN_COMP errors=$OPEN_ERRS" >&2
        echo "$OPEN" >&2
        return 1
    fi
    OPEN_DIGEST=$(json_digest "$OPEN")
    CLOSED_DIGEST=$(json_digest "$CLOSED")
    if [ -z "$OPEN_DIGEST" ] || [ "$OPEN_DIGEST" != "$CLOSED_DIGEST" ]; then
        echo "open-loop smoke: paced digest '$OPEN_DIGEST' != closed '$CLOSED_DIGEST'" >&2
        return 1
    fi
    echo "  open-loop report OK ($OPEN_COMP completions, p50/p99/p999 present, digest == closed loop)"
}
gate "open-loop smoke (paced == closed digest)" open_loop_smoke

echo
echo "== acceptance: session soak (open/chat/rekey/close, digest parity) =="
# The full session lifecycle mix on 1 and 4 workers with the same seed:
# per-job DRBG forks must make the client-visible crypto transcript
# identical, every session must be opened, rekeyed once and reaped, and
# a clean run has zero transport errors and zero sheds.
session_mix() {
    ./target/release/lac-suite bench-serve --sessions 24 --session-chats 4 \
        --session-rekey-every 3 --conns 8 --workers "$1" --session-capacity 64 \
        --params lac128 --backend ct --seed 1 --json
}
session_soak() {
    SESS_ONE=$(session_mix 1) || return 1
    SESS_FOUR=$(session_mix 4) || return 1
    DIG_ONE=$(json_digest "$SESS_ONE")
    DIG_FOUR=$(json_digest "$SESS_FOUR")
    if [ -z "$DIG_ONE" ] || [ "$DIG_ONE" != "$DIG_FOUR" ]; then
        echo "session soak: digest '$DIG_FOUR' (4 workers) != '$DIG_ONE' (1 worker)" >&2
        return 1
    fi
    for RUN in "$SESS_ONE" "$SESS_FOUR"; do
        S_OPENED=$(json_field "$RUN" opened)
        S_REKEYS=$(json_field "$RUN" rekeys)
        S_CLOSES=$(json_field "$RUN" closes)
        S_BUSY=$(json_field "$RUN" busy)
        S_ERRS=$(json_field "$RUN" errors)
        S_LEFT=$(json_field "$RUN" open)
        if [ "${S_OPENED:-0}" -ne 24 ] || [ "${S_REKEYS:-0}" -ne 24 ] || \
           [ "${S_CLOSES:-0}" -ne 24 ] || [ "${S_BUSY:-1}" -ne 0 ] || \
           [ "${S_ERRS:-1}" -ne 0 ] || [ "${S_LEFT:-1}" -ne 0 ]; then
            echo "session soak: opened=$S_OPENED rekeys=$S_REKEYS closes=$S_CLOSES" \
                 "busy=$S_BUSY errors=$S_ERRS open_at_end=$S_LEFT" >&2
            echo "$RUN" >&2
            return 1
        fi
    done
    echo "  24 sessions x (open + 4 chats + rekey + close): digests match 1 vs 4 workers, all reaped"
}
SESS_FOUR=""
gate "session soak (1 vs 4 workers digest, counts)" session_soak

# The same mix paced at ~2x its unpaced completion rate: saturation shows
# up as scheduled-time latency, never as transport errors or leaked
# sessions.
paced_soak() {
    SESS_RATE=$(json_field "$SESS_FOUR" achieved_qps)
    SOAK_RATE=$(awk "BEGIN { r = int(2 * ${SESS_RATE:-100}); if (r < 50) r = 50; print r }")
    SOAK=$(./target/release/lac-suite bench-serve --sessions 24 --session-chats 4 \
        --session-rekey-every 3 --conns 8 --workers 2 --session-capacity 64 \
        --target-qps "$SOAK_RATE" --params lac128 --backend ct --seed 1 --json) || return 1
    SOAK_ERRS=$(json_field "$SOAK" errors)
    SOAK_BUSY=$(json_field "$SOAK" busy)
    SOAK_LEFT=$(json_field "$SOAK" open)
    if [ "${SOAK_ERRS:-1}" -ne 0 ] || [ "${SOAK_BUSY:-1}" -ne 0 ] || [ "${SOAK_LEFT:-1}" -ne 0 ]; then
        echo "session soak: at ${SOAK_RATE}/s errors=$SOAK_ERRS busy=$SOAK_BUSY open_at_end=$SOAK_LEFT" >&2
        echo "$SOAK" >&2
        return 1
    fi
    echo "  at ${SOAK_RATE}/s (~2x saturation): 0 errors, 0 sheds, clean drain"
}
gate "paced session soak (0 errors, 0 sheds, clean drain)" paced_soak

echo
echo "== acceptance: bounded session table (LRU eviction under hold) =="
# 48 held-open sessions against a 32-slot table: the oldest 16 must be
# LRU-evicted, the table must sit exactly at capacity, and nothing may
# error.
lru_hold() {
    HOLD=$(./target/release/lac-suite bench-serve --sessions 48 --session-chats 0 \
        --session-hold --session-capacity 32 --conns 8 --workers 2 \
        --params lac128 --backend ct --seed 1 --json) || return 1
    HOLD_OPEN=$(json_field "$HOLD" open)
    HOLD_EVICTED=$(json_field "$HOLD" evicted)
    HOLD_ERRS=$(json_field "$HOLD" errors)
    if [ "${HOLD_OPEN:-0}" -ne 32 ] || [ "${HOLD_EVICTED:-0}" -ne 16 ] || [ "${HOLD_ERRS:-1}" -ne 0 ]; then
        echo "session hold: open=$HOLD_OPEN evicted=$HOLD_EVICTED errors=$HOLD_ERRS" >&2
        echo "$HOLD" >&2
        return 1
    fi
    echo "  48 sessions into 32 slots: 32 open, 16 evicted, 0 errors"
}
gate "LRU hold (48 into 32: 32 open, 16 evicted)" lru_hold

echo
echo "######## wall-clock gates: speedup floors, MIPS floor, shedding ########"

echo
echo "== acceptance: ISS superblock speedup and digest parity =="
# iss_bench exits non-zero if any engine's architectural digest diverges
# from the classic oracle; the speedup floor (superblock vs classic) is
# wall-clock, so allow one retry before declaring a regression.
iss_gate() {
    ISS_JSON=$(./target/release/iss_bench --json --iters 1000) || {
        echo "iss smoke: engine digests diverged" >&2
        echo "$ISS_JSON" >&2
        return 1
    }
    echo "$ISS_JSON" | awk '
        /"speedup":/ {
            gsub(/[",]/, "")
            for (i = 1; i <= NF; i++) if ($i == "speedup:") v = $(i + 1)
        }
        END {
            if (v + 0 < 3.0) { print "iss smoke: superblock speedup " v " < 3.0x"; exit 1 }
            print "  superblock engine: " v "x over decode-every-step, digests match"
        }
    '
}
gate "superblock >= 3.0x over classic" retry iss_gate

echo
echo "== acceptance: JIT engine digest parity, superblock and chaining speedups =="
# The iss_bench engine compare (which includes a chaining-disabled JIT
# run) already exits non-zero on any digest divergence; on hosts with a
# JIT backend the chained code must also beat the superblock interpreter
# by >= 3x wall-clock AND beat its own unchained self by >= 1.3x — the
# block-chaining win measured in isolation. Elsewhere both floors are
# skipped explicitly — the graceful-fallback path is covered by unit
# tests (tests/riscv_jit.rs).
jit_gate() {
    JIT_JSON=$(./target/release/iss_bench --json --iters 1000) || {
        echo "jit gate: engine digests diverged" >&2
        echo "$JIT_JSON" >&2
        return 1
    }
    if printf '%s' "$JIT_JSON" | grep -q '"jit_supported": false'; then
        echo "  [skip: arch] no JIT backend on this host; fallback covered by unit tests"
        return 0
    fi
    echo "$JIT_JSON" | awk '
        /"jit_over_superblock":/ {
            gsub(/[",]/, "")
            for (i = 1; i <= NF; i++) if ($i == "jit_over_superblock:") sb = $(i + 1)
        }
        /"jit_chain_over_jit":/ {
            gsub(/[",]/, "")
            for (i = 1; i <= NF; i++) if ($i == "jit_chain_over_jit:") ch = $(i + 1)
        }
        END {
            if (sb + 0 < 3.0) { print "jit gate: jit " sb "x < 3.0x over superblock"; exit 1 }
            if (ch + 0 < 1.3) { print "jit gate: chained jit " ch "x < 1.3x over unchained"; exit 1 }
            print "  jit engine: " sb "x over superblock, chaining " ch "x over unchained, digests match"
        }
    '
}
gate "jit >= 3.0x over superblock, chaining >= 1.3x" retry jit_gate

echo
echo "== bench regression gate (baselines/) =="
# The exact table compares again, then the 220-MIPS ISS floor against
# baselines/iss.json (no retry, as before).
gate "ISS floor and table compares (bench_compare.sh)" scripts/bench_compare.sh

echo
echo "== acceptance: overload shedding at ~2x saturation =="
# A deliberately tiny server (1 worker, queue 2) is first hammered far past
# its service rate to measure its completion throughput (the saturation
# point), then driven open-loop at ~2x that rate: it must shed BUSY (not
# stall, not error) while still completing work, and drain cleanly on
# shutdown (run exits zero only after a graceful SHUTDOWN round-trip).
# Each schedule is a fixed request count: 300 ms of 50,000/s, then 400 ms
# of the 2x rate.
overload_gate() {
    CAL=$(./target/release/lac-suite bench-serve --target-qps 50000 --requests 15000 \
        --conns 4 --workers 1 --queue 2 --op keygen --params lac128 --seed 1 --json) || return 1
    CAL_COMP=$(json_field "$CAL" completions)
    CAL_WALL=$(json_field "$CAL" wall_us)
    if [ "${CAL_COMP:-0}" -eq 0 ] || [ "${CAL_WALL:-0}" -eq 0 ]; then
        echo "overload gate: calibration run produced no completions" >&2
        echo "$CAL" >&2
        return 1
    fi
    RATE=$(awk "BEGIN { r = int(2 * $CAL_COMP * 1000000 / $CAL_WALL); if (r < 200) r = 200; print r }")
    OVER=$(./target/release/lac-suite bench-serve --target-qps "$RATE" \
        --requests $(((RATE * 400 + 999) / 1000)) \
        --conns 4 --workers 1 --queue 2 --op keygen --params lac128 --seed 1 --json) || return 1
    OVER_COMP=$(json_field "$OVER" completions)
    OVER_BUSY=$(json_field "$OVER" busy)
    OVER_ERRS=$(json_field "$OVER" errors)
    if [ "${OVER_BUSY:-0}" -eq 0 ] || [ "${OVER_COMP:-0}" -eq 0 ] || [ "${OVER_ERRS:-1}" -ne 0 ]; then
        echo "overload gate: at ${RATE}/s completions=$OVER_COMP busy=$OVER_BUSY errors=$OVER_ERRS" >&2
        echo "$OVER" >&2
        return 1
    fi
    echo "  at ${RATE}/s (~2x saturation): $OVER_COMP completed, $OVER_BUSY shed BUSY, 0 errors"
}
gate "overload shedding at ~2x saturation" retry overload_gate

echo
echo "== acceptance: reactor scaling (sharded front-end, 1 vs 4 shards) =="
# A front-end-bound session-chat mix (session crypto runs inline on the
# reactor threads; 16 closed-loop lanes keep every shard fed) on 1 and 4
# reactors. The client-visible transcript must be byte-identical with
# zero errors and zero sheds, and front-end completions/s — flushed
# reply frames per busiest-shard CPU-second, the I/O-plane analogue of
# the modelled worker makespan — must scale >= 1.8x. Per-thread CPU time
# is scheduler-independent, so the floor holds on single-core CI hosts.
reactor_mix() {
    ./target/release/lac-suite bench-serve --sessions 16 --session-chats 48 \
        --conns 16 --workers 2 --reactors "$1" --session-capacity 64 \
        --params lac128 --backend ct --seed 5 --json
}
reactor_gate() {
    R_ONE=$(reactor_mix 1) || return 1
    R_FOUR=$(reactor_mix 4) || return 1
    for RUN in "$R_ONE" "$R_FOUR"; do
        R_ERRS=$(json_field "$RUN" errors)
        R_BUSY=$(json_field "$RUN" busy)
        if [ "${R_ERRS:-1}" -ne 0 ] || [ "${R_BUSY:-1}" -ne 0 ]; then
            echo "reactor gate: errors=$R_ERRS busy=$R_BUSY" >&2
            echo "$RUN" >&2
            return 1
        fi
    done
    RDIG_ONE=$(json_digest "$R_ONE")
    RDIG_FOUR=$(json_digest "$R_FOUR")
    if [ -z "$RDIG_ONE" ] || [ "$RDIG_ONE" != "$RDIG_FOUR" ]; then
        echo "reactor gate: digest '$RDIG_FOUR' (4 reactors) != '$RDIG_ONE' (1 reactor)" >&2
        return 1
    fi
    FPBS_ONE=$(json_float "$R_ONE" frames_per_busy_sec)
    FPBS_FOUR=$(json_float "$R_FOUR" frames_per_busy_sec)
    if [ -z "$FPBS_ONE" ] || [ "$(awk "BEGIN { print ($FPBS_ONE == 0) }")" = "1" ]; then
        echo "  reactor scaling [skip: arch] (no per-thread CPU clock; digests still match)"
        return 0
    fi
    awk "BEGIN {
        r = $FPBS_FOUR / $FPBS_ONE
        if (r < 1.8) { printf \"reactor gate: frames/busy-s scaling %.2fx < 1.8x\n\", r; exit 1 }
        printf \"  frames/busy-s 1 -> 4 reactors: %.2fx, digests match, 0 errors\n\", r
    }"
}
gate "reactor scaling >= 1.8x (1 vs 4 shards, digests)" retry reactor_gate

# Overload semantics must hold per shard: the tiny-queue server from the
# overload gate, now sharded 4 ways, still sheds BUSY instead of
# stalling and still drains cleanly on SHUTDOWN (the run exits zero only
# after every shard empties). 400 ms of 50,000/s: 20,000 requests.
shard_overload_gate() {
    SOVER=$(./target/release/lac-suite bench-serve --target-qps 50000 --requests 20000 \
        --conns 8 --workers 1 --reactors 4 --queue 2 --op keygen --params lac128 \
        --seed 1 --json) || return 1
    SOVER_COMP=$(json_field "$SOVER" completions)
    SOVER_BUSY=$(json_field "$SOVER" busy)
    SOVER_ERRS=$(json_field "$SOVER" errors)
    if [ "${SOVER_BUSY:-0}" -eq 0 ] || [ "${SOVER_COMP:-0}" -eq 0 ] || [ "${SOVER_ERRS:-1}" -ne 0 ]; then
        echo "shard overload gate: completions=$SOVER_COMP busy=$SOVER_BUSY errors=$SOVER_ERRS" >&2
        echo "$SOVER" >&2
        return 1
    fi
    echo "  4-shard overload: $SOVER_COMP completed, $SOVER_BUSY shed BUSY, 0 errors, clean drain"
}
gate "4-shard overload sheds BUSY" retry shard_overload_gate

echo
echo "== gate results =="
printf '%s\n' "$RESULTS"
if [ -n "$FAILED" ]; then
    echo
    echo "verify: FAILED — these gates did not pass:$FAILED" >&2
    exit 1
fi
echo
echo "verify: all checks passed"
