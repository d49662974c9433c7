//! `lac-suite` — a command-line tool over the LAC KEM.
//!
//! File-based one-shot operations:
//!
//! ```text
//! lac-suite info    --params lac256
//! lac-suite keygen  --params lac128 --pk pk.bin --sk sk.bin
//! lac-suite encaps  --params lac128 --pk pk.bin --ct ct.bin --key k1.bin [--cycles]
//! lac-suite decaps  --params lac128 --sk sk.bin --ct ct.bin --key k2.bin [--cycles]
//! ```
//!
//! Serving (see `crates/serve` and the README "Serving" section):
//!
//! ```text
//! lac-suite serve       --addr 127.0.0.1:0 --workers 4 --seed 1
//! lac-suite bench-serve --workers 4 --conns 4 --requests 64 [--json]
//! lac-suite bench-serve --target-qps 500 --requests 500 --conns 4
//! lac-suite bench-serve --sessions 64 --session-chats 4 --session-rekey-every 3
//! lac-suite serve-ctl   stats    --addr 127.0.0.1:PORT
//! lac-suite serve-ctl   sessions --addr 127.0.0.1:PORT
//! lac-suite serve-ctl   shutdown --addr 127.0.0.1:PORT
//! ```
//!
//! The paper tables and the ISS throughput probe have their own binaries
//! in `crates/bench` (`table1`, `table2`, `table3`, `iss_bench`).
//!
//! `--backend` selects `ref` (software, submission BCH), `ct` (software,
//! constant-time BCH — default), `hw` (the PQ-ALU models) or `hw-keccak`
//! (the §VI Keccak-hash variant); `--cycles` prints the modelled RISCY
//! cycle ledger of the operation.

use lac::{BackendKind, Ciphertext, Kem, KemPublicKey, KemSecretKey};
use lac_meter::{report, CycleLedger, Meter, NullMeter};
use lac_rand::{Rng, Sha256CtrRng};
use lac_serve::bench::{self, json_u64, Script};
use lac_serve::client::Client;
use lac_serve::params_parse;
use lac_serve::pool::ServeConfig;
use lac_serve::server::Server;
use std::collections::HashMap;
use std::fs;
use std::io::Write;

/// Reword a `Server::bind` sizing error (`queue_capacity is 0; …`) by the
/// flag that sets the field: `--` and the field with `-` for `_`, except
/// `--queue` for `queue_capacity`. Any other error passes through as is.
fn name_flag(bind_err: &str) -> String {
    match bind_err.split_once(" is ") {
        Some(("queue_capacity", rest)) => format!("--queue is {rest}"),
        Some((field, rest)) if field.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') => {
            format!("--{} is {rest}", field.replace('_', "-"))
        }
        _ => bind_err.to_string(),
    }
}

struct Options {
    flags: HashMap<String, String>,
    cycles: bool,
    json: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut cycles = false;
        let mut json = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--cycles" {
                cycles = true;
            } else if arg == "--json" {
                json = true;
            } else if arg == "--session-hold" {
                flags.insert("session-hold".to_string(), "true".to_string());
            } else if arg == "--per-shard" {
                flags.insert("per-shard".to_string(), "true".to_string());
            } else if let Some(name) = arg.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), value.clone());
            } else {
                return Err(format!("unexpected argument '{arg}'"));
            }
        }
        Ok(Self {
            flags,
            cycles,
            json,
        })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required --{name}"))
    }

    fn get_or(&self, name: &str, default: &'static str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Refuse any given flag `command` does not read: a flag the run
    /// would ignore is a mistake, not a no-op.
    fn only(&self, command: &str, reads: &[&str]) -> Result<(), String> {
        let mut given: Vec<&str> = self.flags.keys().map(String::as_str).collect();
        given.extend(self.cycles.then_some("cycles"));
        given.extend(self.json.then_some("json"));
        given.sort_unstable();
        match given.into_iter().find(|flag| !reads.contains(flag)) {
            Some(flag) => Err(format!("{command} does not read --{flag}")),
            None => Ok(()),
        }
    }
}

/// The flags each command reads (`bench-serve` checks its own, per run
/// shape, in [`unread_flag`]).
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "info" => &["params"],
        "keygen" => &["params", "backend", "seed", "cycles", "pk", "sk"],
        "encaps" => &["params", "backend", "seed", "cycles", "pk", "ct", "key"],
        "decaps" => &["params", "backend", "cycles", "sk", "ct", "key"],
        "serve" => &[
            "addr",
            "workers",
            "reactors",
            "queue",
            "seed",
            "max-conns",
            "accept-rps",
            "idle-timeout-ms",
            "read-timeout-ms",
            "write-timeout-ms",
            "max-write-buffer",
            "drain-ms",
            "session-capacity",
            "session-rekey-after",
        ],
        "serve-ctl" => &["addr", "timeout-ms", "json", "per-shard"],
        _ => return None,
    })
}

fn read_file(path: &str) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write_file(path: &str, data: &[u8]) -> Result<(), String> {
    fs::write(path, data).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Parse an optional flag with a default.
fn parse_or<T: std::str::FromStr>(opts: &Options, name: &str, default: T) -> Result<T, String> {
    match opts.flags.get(name) {
        Some(value) => value.parse().map_err(|_| format!("bad --{name} '{value}'")),
        None => Ok(default),
    }
}

/// `lac-suite serve`: bind, print the bound address (scripts parse it),
/// then block until a SHUTDOWN frame arrives.
fn cmd_serve(opts: &Options) -> Result<String, String> {
    let addr = opts.get_or("addr", "127.0.0.1:0");
    let workers = parse_or(opts, "workers", 4)?;
    let reactors = parse_or(opts, "reactors", 1)?;
    let queue_capacity = parse_or(opts, "queue", 64)?;
    let seed = match opts.flags.get("seed") {
        Some(value) => {
            let value: u64 = value.parse().map_err(|_| format!("bad --seed '{value}'"))?;
            bench::pool_seed(value)
        }
        None => {
            let mut seed = [0u8; 32];
            Sha256CtrRng::from_os_entropy().fill_bytes(&mut seed);
            seed
        }
    };
    let defaults = ServeConfig::default();
    let server = Server::bind(
        &addr,
        ServeConfig {
            workers,
            reactors,
            queue_capacity,
            seed,
            max_conns: parse_or(opts, "max-conns", defaults.max_conns)?,
            accept_rps: parse_or(opts, "accept-rps", defaults.accept_rps)?,
            idle_timeout_ms: parse_or(opts, "idle-timeout-ms", defaults.idle_timeout_ms)?,
            read_timeout_ms: parse_or(opts, "read-timeout-ms", defaults.read_timeout_ms)?,
            write_timeout_ms: parse_or(opts, "write-timeout-ms", defaults.write_timeout_ms)?,
            max_write_buffer: parse_or(opts, "max-write-buffer", defaults.max_write_buffer)?,
            drain_ms: parse_or(opts, "drain-ms", defaults.drain_ms)?,
            session_capacity: parse_or(opts, "session-capacity", defaults.session_capacity)?,
            session_rekey_after: parse_or(
                opts,
                "session-rekey-after",
                defaults.session_rekey_after,
            )?,
        },
    )
    .map_err(|e| format!("cannot bind {addr}: {}", name_flag(&e.to_string())))?;
    let local = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    println!(
        "lac-serve listening on {local} ({workers} workers, {reactors} reactors, queue {queue_capacity})"
    );
    std::io::stdout().flush().ok();
    let snapshot = server.run();
    Ok(format!("server shut down\n{}", snapshot.to_text()))
}

/// Why `bench-serve` would not read `--flag` in a run of this shape, if it
/// would not: a flag the run ignores is a mistake, not a no-op.
fn unread_flag(flag: &str, sessions: bool, paced: bool, external: bool) -> Option<String> {
    const SERVER_SIDE: [&str; 6] = [
        "workers",
        "reactors",
        "queue",
        "session-capacity",
        "session-rekey-after",
        "sweep",
    ];
    match flag {
        "params" | "backend" | "seed" | "conns" | "target-qps" | "addr" | "timeout-ms" => None,
        _ if external && SERVER_SIDE.contains(&flag) => Some(format!(
            "--{flag} shapes the in-process server; it cannot apply to --addr"
        )),
        "sweep" if sessions || paced => {
            Some("--sweep is mutually exclusive with --sessions and --target-qps".into())
        }
        "op" | "requests" if sessions => Some(format!("--{flag} drives KEM runs, not --sessions")),
        "workers" | "reactors" | "queue" | "sweep" | "op" | "requests" | "sessions" => None,
        _ if flag.starts_with("session-") && !sessions => {
            Some(format!("--{flag} needs --sessions"))
        }
        "session-chats"
        | "session-rekey-every"
        | "session-hold"
        | "session-capacity"
        | "session-rekey-after" => None,
        _ => Some(format!("unknown bench-serve flag --{flag}")),
    }
}

/// `lac-suite bench-serve`: one load script — KEM requests or session
/// lifecycles, closed-loop or paced at `--target-qps` — against an
/// in-process or external server; `--sweep` repeats it per worker count.
fn cmd_bench_serve(opts: &Options) -> Result<String, String> {
    let sessions = opts.flags.contains_key("sessions");
    let paced = opts.flags.contains_key("target-qps");
    let external = opts.flags.contains_key("addr");
    let mut flags: Vec<&String> = opts.flags.keys().collect();
    flags.sort();
    if let Some(err) = flags
        .iter()
        .find_map(|flag| unread_flag(flag, sessions, paced, external))
    {
        return Err(err);
    }
    if opts.cycles {
        return Err("bench-serve does not read --cycles".into());
    }
    let defaults = bench::LoadConfig::default();
    let cfg = bench::LoadConfig {
        script: if sessions {
            Script::Sessions {
                sessions: parse_or(opts, "sessions", 16)?,
                chats: parse_or(opts, "session-chats", 4)?,
                rekey_every: parse_or(opts, "session-rekey-every", 0)?,
                hold: opts.flags.contains_key("session-hold"),
            }
        } else {
            Script::Kem {
                op: lac_serve::Op::parse(&opts.get_or("op", "encaps"))?,
                requests: parse_or(opts, "requests", 32)?,
            }
        },
        params: params_parse(&opts.get_or("params", "lac128"))?,
        backend: BackendKind::parse(&opts.get_or("backend", "ct"))?,
        conns: parse_or(opts, "conns", 4)?,
        target_qps: parse_or(opts, "target-qps", 0.0)?,
        seed: parse_or(opts, "seed", 1)?,
        addr: opts.flags.get("addr").cloned(),
        timeout_ms: parse_or(opts, "timeout-ms", 10_000)?,
        workers: parse_or(opts, "workers", defaults.workers)?,
        reactors: parse_or(opts, "reactors", defaults.reactors)?,
        queue_capacity: parse_or(opts, "queue", defaults.queue_capacity)?,
        session_capacity: parse_or(opts, "session-capacity", defaults.session_capacity)?,
        session_rekey_after: parse_or(opts, "session-rekey-after", defaults.session_rekey_after)?,
    };
    let render = |json: String, text: String| if opts.json { json + "\n" } else { text };
    // `bench::run` reports its in-process server's bind error as `bind: …`.
    let flagged = |err: String| match err.strip_prefix("bind: ") {
        Some(bind_err) => format!("bind: {}", name_flag(bind_err)),
        None => err,
    };
    match opts.flags.get("sweep") {
        Some(sweep) => {
            let counts: Vec<usize> = sweep
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("bad --sweep entry '{s}'"))
                })
                .collect::<Result<_, _>>()?;
            let report = bench::sweep_workers(&cfg, &counts).map_err(flagged)?;
            Ok(render(report.to_json(), report.to_text()))
        }
        None => {
            let report = bench::run(&cfg).map_err(flagged)?;
            Ok(render(report.to_json(), report.to_text()))
        }
    }
}

/// Split the `"shards": [...]` array of a stats snapshot into one JSON
/// chunk per shard row (each chunk starts with the shard's index digits).
fn shard_chunks(json: &str) -> Vec<&str> {
    match json.find("\"shards\": [") {
        None => Vec::new(),
        Some(start) => json[start..].split("{\"shard\": ").skip(1).collect(),
    }
}

/// `lac-suite serve-ctl <stats|ping|sessions|shutdown> --addr HOST:PORT`.
///
/// `stats` and `sessions` render an aggregated view by default (text, or
/// the raw snapshot with `--json`); `--per-shard` adds the per-reactor
/// breakdown rows.
fn cmd_serve_ctl(action: &str, opts: &Options) -> Result<String, String> {
    if action.is_empty() {
        return Err("serve-ctl needs an action (expected stats|ping|sessions|shutdown)".into());
    }
    if !matches!(action, "stats" | "ping" | "sessions" | "shutdown") {
        return Err(format!(
            "unknown serve-ctl action '{action}' (expected stats|ping|sessions|shutdown)"
        ));
    }
    let addr = opts.get("addr")?;
    let timeout_ms = parse_or(opts, "timeout-ms", 0)?;
    let mut client = Client::connect_with_timeout(addr, timeout_ms)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let per_shard = opts.flags.contains_key("per-shard");
    match action {
        "stats" => {
            let stats = client.stats()?;
            if opts.json {
                // The raw snapshot: aggregates first, the per-shard rows
                // in its trailing "shards" array.
                return Ok(format!("{stats}\n"));
            }
            // Aggregated text view. A flat first-match scan reads the
            // aggregate objects: shard keys carry a `shard_` prefix and
            // the shards array renders last.
            let field = |key: &str| json_u64(&stats, key).unwrap_or(0);
            let mut out = format!(
                "server at {addr}: {} workers, {} reactors\n  \
                 requests: keygen {}, encaps {}, decaps {}, errors {}\n  \
                 conns: open {} / accepted {} / rejected {}, shed(BUSY) {}\n  \
                 writes: {} frames in {} writev calls\n  \
                 sessions open {}, messages {}\n",
                field("workers"),
                field("reactors"),
                field("keygen"),
                field("encaps"),
                field("decaps"),
                field("errors"),
                field("conns_open"),
                field("conns_accepted"),
                field("conns_rejected"),
                field("shed_busy"),
                field("frames_flushed"),
                field("writev_calls"),
                field("open"),
                field("messages"),
            );
            if per_shard {
                for chunk in shard_chunks(&stats) {
                    let index: String = chunk.chars().take_while(char::is_ascii_digit).collect();
                    let f = |key: &str| json_u64(chunk, key).unwrap_or(0);
                    out.push_str(&format!(
                        "  shard {index}: conns open {} / accepted {}, \
                         completions {}, frames {} in {} writev, \
                         sessions {}, busy {:.1} ms, wakeups {}\n",
                        f("shard_conns_open"),
                        f("shard_conns_accepted"),
                        f("shard_completions"),
                        f("shard_frames_flushed"),
                        f("shard_writev_calls"),
                        f("shard_sessions_open"),
                        f("shard_busy_ns") as f64 / 1e6,
                        f("shard_wakeups"),
                    ));
                }
            }
            Ok(out)
        }
        "ping" => {
            client.ping()?;
            Ok("pong\n".to_string())
        }
        "sessions" => {
            // Same wire request as `stats`, rendered as a session-table
            // summary (the snapshot nests them under `"sessions"`).
            let stats = client.stats()?;
            let field = |key: &str| json_u64(&stats, key).unwrap_or(0);
            if opts.json {
                let mut out = format!(
                    "{{\"open\": {}, \"opened\": {}, \"closed\": {}, \
                     \"evicted\": {}, \"rekeys\": {}, \"replay_drops\": {}, \
                     \"tag_failures\": {}, \"messages\": {}",
                    field("open"),
                    field("opened"),
                    field("closed"),
                    field("evicted"),
                    field("rekeys"),
                    field("replay_drops"),
                    field("tag_failures"),
                    field("messages"),
                );
                if per_shard {
                    let rows: Vec<String> = shard_chunks(&stats)
                        .iter()
                        .map(|chunk| {
                            let index: String =
                                chunk.chars().take_while(char::is_ascii_digit).collect();
                            format!(
                                "{{\"shard\": {index}, \"sessions_open\": {}}}",
                                json_u64(chunk, "shard_sessions_open").unwrap_or(0)
                            )
                        })
                        .collect();
                    out.push_str(&format!(", \"per_shard\": [{}]", rows.join(", ")));
                }
                out.push_str("}\n");
                return Ok(out);
            }
            let mut out = format!(
                "session table at {addr}:\n  \
                 open {} (opened {}, closed {}, evicted {})\n  \
                 rekeys {}, replay drops {}, tag failures {}, messages {}\n",
                field("open"),
                field("opened"),
                field("closed"),
                field("evicted"),
                field("rekeys"),
                field("replay_drops"),
                field("tag_failures"),
                field("messages"),
            );
            if per_shard {
                for chunk in shard_chunks(&stats) {
                    let index: String = chunk.chars().take_while(char::is_ascii_digit).collect();
                    out.push_str(&format!(
                        "  shard {index}: sessions open {}\n",
                        json_u64(chunk, "shard_sessions_open").unwrap_or(0)
                    ));
                }
            }
            Ok(out)
        }
        "shutdown" => {
            client.shutdown()?;
            Ok(format!("server at {addr} acknowledged shutdown\n"))
        }
        other => Err(format!(
            "unknown serve-ctl action '{other}' (expected stats|ping|sessions|shutdown)"
        )),
    }
}

/// Run one CLI invocation; returns the text to print.
fn run(command: &str, opts: &Options) -> Result<String, String> {
    let name = command.split(' ').next().unwrap_or_default();
    if let Some(reads) = command_flags(name) {
        opts.only(name, reads)?;
    }
    // Serving commands manage their own backends/params per request.
    match command {
        "serve" => return cmd_serve(opts),
        "bench-serve" => return cmd_bench_serve(opts),
        _ => {
            if let Some(action) = command.strip_prefix("serve-ctl") {
                return cmd_serve_ctl(action.trim_start(), opts);
            }
        }
    }

    let params = params_parse(&opts.get_or("params", "lac128"))?;
    let kem = Kem::new(params);
    let mut backend = BackendKind::parse(&opts.get_or("backend", "ct"))?.build();
    let mut ledger = CycleLedger::new();
    let meter: &mut dyn Meter = if opts.cycles {
        &mut ledger
    } else {
        &mut NullMeter
    };
    let mut out = String::new();

    match command {
        "info" => {
            out.push_str(&format!(
                "{}: n = {}, weight = {}, BCH t = {}, D2 = {}\n",
                params.name(),
                params.n(),
                params.weight(),
                params.bch_t(),
                params.d2()
            ));
            out.push_str(&format!(
                "sizes: pk = {} B, kem sk = {} B, ct = {} B, shared secret = 32 B\n",
                params.public_key_bytes(),
                params.kem_secret_key_bytes(),
                params.ciphertext_bytes()
            ));
        }
        "keygen" => {
            let mut rng = make_rng(opts)?;
            let (pk, sk) = kem.keygen(&mut rng, backend.as_mut(), meter);
            write_file(opts.get("pk")?, &pk.to_bytes())?;
            write_file(opts.get("sk")?, &sk.to_bytes())?;
            out.push_str(&format!(
                "wrote {} ({} B) and {} ({} B)\n",
                opts.get("pk")?,
                params.public_key_bytes(),
                opts.get("sk")?,
                params.kem_secret_key_bytes()
            ));
        }
        "encaps" => {
            let mut rng = make_rng(opts)?;
            let pk_bytes = read_file(opts.get("pk")?)?;
            let pk = KemPublicKey::from_bytes(&params, &pk_bytes)
                .map_err(|e| format!("bad public key: {e}"))?;
            let (ct, key) = kem.encapsulate(&mut rng, &pk, backend.as_mut(), meter);
            write_file(opts.get("ct")?, &ct.to_bytes())?;
            write_file(opts.get("key")?, key.as_bytes())?;
            out.push_str(&format!(
                "wrote {} ({} B) and {} (32 B)\n",
                opts.get("ct")?,
                params.ciphertext_bytes(),
                opts.get("key")?
            ));
        }
        "decaps" => {
            let sk_bytes = read_file(opts.get("sk")?)?;
            let sk = KemSecretKey::from_bytes(&params, &sk_bytes)
                .map_err(|e| format!("bad secret key: {e}"))?;
            let ct_bytes = read_file(opts.get("ct")?)?;
            let ct = Ciphertext::from_bytes(&params, &ct_bytes)
                .map_err(|e| format!("bad ciphertext: {e}"))?;
            let key = kem.decapsulate(&sk, &ct, backend.as_mut(), meter);
            write_file(opts.get("key")?, key.as_bytes())?;
            out.push_str(&format!("wrote {} (32 B)\n", opts.get("key")?));
        }
        other => {
            return Err(format!(
                "unknown command '{other}' \
                 (expected info|keygen|encaps|decaps|serve|bench-serve|serve-ctl)"
            ));
        }
    }

    if opts.cycles {
        out.push_str("\nmodelled RISCY cycles:\n");
        out.push_str(&report::summary(&ledger));
    }
    Ok(out)
}

/// RNG: the SHA-256-CTR DRBG, seeded from `--seed <u64>` for reproducible
/// runs, else from OS entropy.
fn make_rng(opts: &Options) -> Result<Sha256CtrRng, String> {
    Ok(match opts.flags.get("seed") {
        Some(seed) => {
            let value: u64 = seed.parse().map_err(|_| format!("bad --seed '{seed}'"))?;
            Sha256CtrRng::seed_from_u64(value)
        }
        None => Sha256CtrRng::from_os_entropy(),
    })
}

const USAGE: &str = "usage: lac-suite <command> [flags]

  info [--params P]              print a parameter set's sizes
  keygen|encaps|decaps           one-shot file-based KEM operations
      [--params lac128|lac192|lac256] [--backend ref|ct|hw|hw-keccak]
      [--cycles] [--pk FILE] [--sk FILE] [--ct FILE] [--key FILE]
      keygen, encaps: [--seed N]
  serve                          run the TCP KEM server until shutdown
      [--addr HOST:PORT] [--workers N] [--reactors N] [--queue N] [--seed N]
      [--max-conns N] [--accept-rps N] [--idle-timeout-ms N]
      [--read-timeout-ms N] [--write-timeout-ms N]
      [--max-write-buffer BYTES] [--drain-ms N]
      [--session-capacity N] [--session-rekey-after N]
  bench-serve                    load driver: one script over --conns lanes
      [--params P] [--backend B] [--seed N] [--conns N] [--timeout-ms N]
      [--target-qps QPS] (pace action k to k/QPS s; default closed loop)
      [--addr HOST:PORT | --workers N --reactors N --queue N] [--json]
      KEM script: [--op keygen|encaps|decaps] [--requests N]
      closed loop only: [--sweep N,N,...]
      session script: --sessions N [--session-chats N] [--session-rekey-every N]
      [--session-hold] [--session-capacity N] [--session-rekey-after N]
  serve-ctl <stats|ping|sessions|shutdown> --addr HOST:PORT [--timeout-ms N]
      [--json] [--per-shard] (stats/sessions: aggregated view by default)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    // `serve-ctl` takes its action as a positional word; fold it into the
    // command so the flag parser sees only `--flag value` pairs.
    let mut command = command.clone();
    let mut rest = rest.to_vec();
    if command == "serve-ctl" {
        if let Some(action) = rest.first().filter(|a| !a.starts_with("--")).cloned() {
            rest.remove(0);
            command = format!("serve-ctl {action}");
        }
    }
    let result = Options::parse(&rest).and_then(|opts| run(&command, &opts));
    match result {
        Ok(text) => print!("{text}"),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("lac_suite_cli_{}_{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn opts(pairs: &[(&str, &str)], cycles: bool) -> Options {
        let mut flags = HashMap::new();
        for (k, v) in pairs {
            flags.insert(k.to_string(), v.to_string());
        }
        Options {
            flags,
            cycles,
            json: false,
        }
    }

    #[test]
    fn info_prints_sizes() {
        let out = run("info", &opts(&[("params", "lac256")], false)).expect("runs");
        assert!(out.contains("1424"));
        assert!(out.contains("LAC-256"));
    }

    #[test]
    fn full_protocol_through_files() {
        let (pk, sk, ct, k1, k2) = (temp("pk"), temp("sk"), temp("ct"), temp("k1"), temp("k2"));
        run(
            "keygen",
            &opts(
                &[
                    ("params", "lac128"),
                    ("seed", "7"),
                    ("pk", &pk),
                    ("sk", &sk),
                ],
                false,
            ),
        )
        .expect("keygen");
        run(
            "encaps",
            &opts(
                &[
                    ("params", "lac128"),
                    ("seed", "8"),
                    ("pk", &pk),
                    ("ct", &ct),
                    ("key", &k1),
                ],
                false,
            ),
        )
        .expect("encaps");
        let out = run(
            "decaps",
            &opts(
                &[
                    ("params", "lac128"),
                    ("backend", "hw"),
                    ("sk", &sk),
                    ("ct", &ct),
                    ("key", &k2),
                ],
                true,
            ),
        )
        .expect("decaps");
        assert!(out.contains("modelled RISCY cycles"));
        assert_eq!(
            fs::read(&k1).expect("k1"),
            fs::read(&k2).expect("k2"),
            "shared secrets must match across backends"
        );
        for f in [pk, sk, ct, k1, k2] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn commands_reject_flags_they_do_not_read() {
        for (command, flag) in [
            ("info", "param"),
            ("info", "backend"),
            ("keygen", "jsn"),
            ("decaps", "seed"),
            ("serve", "worker"),
            ("serve-ctl stats", "per-shards"),
        ] {
            let err = run(command, &opts(&[(flag, "1")], false)).unwrap_err();
            assert!(err.contains(&format!("--{flag}")), "{command}: {err}");
        }
        let err = run("info", &opts(&[], true)).unwrap_err();
        assert!(err.contains("--cycles"), "{err}");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(run("info", &opts(&[("params", "lac999")], false)).is_err());
        assert!(run("frobnicate", &opts(&[], false)).is_err());
        // The paper tables and the ISS probe live in `lac-bench` binaries.
        for retired in ["iss", "table1", "table2"] {
            let err = run(retired, &opts(&[], false)).unwrap_err();
            assert!(err.contains("unknown command"), "{err}");
        }
        assert!(run("keygen", &opts(&[("pk", "/nonexistent/x")], false)).is_err());
        // The CLI has one DRBG, SHA-256-CTR, and no flag that picks one.
        let flag = "rng";
        let err = run("keygen", &opts(&[(flag, "sha256")], false)).unwrap_err();
        assert!(
            err.contains(&format!("keygen does not read --{flag}")),
            "{err}"
        );
        assert!(run(
            "decaps",
            &opts(
                &[("sk", "/definitely/missing"), ("ct", "x"), ("key", "y")],
                false
            )
        )
        .is_err());
        // A size the server cannot run is refused by flag name before any
        // socket is bound; `server::tests::bind_refuses_sizes_it_cannot_run`
        // covers every field.
        let err = run("serve", &opts(&[("queue", "0")], false)).unwrap_err();
        assert!(err.contains("--queue is 0; it must be at least 1"), "{err}");
        assert_eq!(name_flag("max_conns is 0; it"), "--max-conns is 0; it");
        assert_eq!(name_flag("Address in use"), "Address in use");
    }

    #[test]
    fn hw_keccak_backend_round_trips_through_files() {
        let (pk, sk, ct, k1, k2) = (
            temp("kpk"),
            temp("ksk"),
            temp("kct"),
            temp("kk1"),
            temp("kk2"),
        );
        fn flags<'a>(extra: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
            let mut all = vec![("params", "lac128"), ("backend", "hw-keccak")];
            all.extend_from_slice(extra);
            all
        }
        run(
            "keygen",
            &opts(&flags(&[("seed", "7"), ("pk", &pk), ("sk", &sk)]), false),
        )
        .expect("keygen");
        run(
            "encaps",
            &opts(
                &flags(&[("seed", "8"), ("pk", &pk), ("ct", &ct), ("key", &k1)]),
                false,
            ),
        )
        .expect("encaps");
        run(
            "decaps",
            &opts(&flags(&[("sk", &sk), ("ct", &ct), ("key", &k2)]), false),
        )
        .expect("decaps");
        assert_eq!(fs::read(&k1).expect("k1"), fs::read(&k2).expect("k2"));
        for f in [pk, sk, ct, k1, k2] {
            let _ = fs::remove_file(f);
        }
    }

    #[test]
    fn bench_serve_runs_and_emits_json() {
        let mut options = opts(
            &[
                ("workers", "2"),
                ("conns", "2"),
                ("requests", "4"),
                ("op", "decaps"),
                ("backend", "hw"),
                ("seed", "5"),
            ],
            false,
        );
        options.json = true;
        let out = run("bench-serve", &options).expect("bench-serve");
        assert!(out.contains("\"op\": \"decaps\""), "{out}");
        assert!(out.contains("\"makespan_cycles\""), "{out}");
        assert!(out.contains("\"digest\""), "{out}");
    }

    #[test]
    fn bench_serve_open_loop_reports_tail() {
        let out = run(
            "bench-serve",
            &opts(
                &[
                    ("workers", "2"),
                    ("conns", "2"),
                    ("target-qps", "300"),
                    ("requests", "36"),
                    ("seed", "5"),
                ],
                false,
            ),
        )
        .expect("open loop");
        assert!(out.contains("open-loop"), "{out}");
        assert!(out.contains("p999"), "{out}");
        // Open loop and sweep are mutually exclusive.
        let err = run(
            "bench-serve",
            &opts(&[("target-qps", "300"), ("sweep", "1,2")], false),
        )
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn bench_serve_sweep_reports_determinism() {
        let out = run(
            "bench-serve",
            &opts(
                &[
                    ("conns", "2"),
                    ("requests", "4"),
                    ("seed", "5"),
                    ("sweep", "1,2"),
                ],
                false,
            ),
        )
        .expect("sweep");
        assert!(
            out.contains("digests identical across worker counts: true"),
            "{out}"
        );
    }

    #[test]
    fn bench_serve_sessions_reports_both_latency_axes() {
        let mut options = opts(
            &[
                ("workers", "2"),
                ("conns", "2"),
                ("sessions", "3"),
                ("session-chats", "2"),
                ("session-rekey-every", "1"),
                ("seed", "5"),
            ],
            false,
        );
        let out = run("bench-serve", &options).expect("sessions text");
        assert!(out.contains("handshake latency"), "{out}");
        assert!(out.contains("message   latency"), "{out}");
        assert!(out.contains("errors 0"), "{out}");
        options.json = true;
        let out = run("bench-serve", &options).expect("sessions json");
        assert!(out.contains("\"bench\": \"serve-sessions\""), "{out}");
        assert!(out.contains("\"rekeys\": 3"), "{out}");
        // Sessions and sweep are mutually exclusive.
        let err = run(
            "bench-serve",
            &opts(&[("sessions", "2"), ("sweep", "1,2")], false),
        )
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    fn bench_serve_err(pairs: &[(&str, &str)]) -> String {
        run("bench-serve", &opts(pairs, false)).unwrap_err()
    }

    #[test]
    fn bench_serve_rejects_unknown_flags() {
        let err = bench_serve_err(&[("reactor", "4")]);
        assert!(err.contains("unknown bench-serve flag --reactor"), "{err}");
        // The retired length, client-count and framing flags are unknown too.
        let err = bench_serve_err(&[("duration-ms", "300"), ("target-qps", "300")]);
        assert!(err.contains("--duration-ms"), "{err}");
        let err = bench_serve_err(&[("clients", "2")]);
        assert!(err.contains("--clients"), "{err}");
        let err = bench_serve_err(&[("batch", "4")]);
        assert!(err.contains("unknown bench-serve flag --batch"), "{err}");
    }

    #[test]
    fn bench_serve_rejects_degenerate_sizes() {
        for flag in ["workers", "reactors", "queue", "conns"] {
            let err = bench_serve_err(&[(flag, "0")]);
            assert!(err.contains(&format!("--{flag} is 0")), "{err}");
        }
        // Fewer session slots than reactor shards would evict a session the
        // run never asked to lose.
        let err = bench_serve_err(&[("sessions", "2"), ("session-capacity", "0")]);
        assert!(err.contains("--session-capacity is 0"), "{err}");
    }

    #[test]
    fn bench_serve_rejects_session_flags_without_sessions() {
        for flag in ["session-chats", "session-hold", "session-capacity"] {
            let err = bench_serve_err(&[(flag, "1")]);
            assert!(err.contains(&format!("--{flag} needs --sessions")), "{err}");
        }
    }

    #[test]
    fn bench_serve_rejects_server_flags_with_addr() {
        for flag in ["workers", "reactors", "queue", "sweep"] {
            let err = bench_serve_err(&[(flag, "2"), ("addr", "127.0.0.1:1")]);
            assert!(err.contains(&format!("--{flag}")), "{err}");
            assert!(err.contains("--addr"), "{err}");
        }
        // Every script honours --addr: nothing listens on port 1, so a
        // session run fails to connect instead of binding its own server.
        let err = bench_serve_err(&[
            ("sessions", "1"),
            ("session-chats", "1"),
            ("addr", "127.0.0.1:1"),
        ]);
        assert!(err.contains("connect"), "{err}");
    }

    #[test]
    fn serve_ctl_needs_action_and_addr() {
        let err = run("serve-ctl", &opts(&[], false)).unwrap_err();
        assert!(err.contains("needs an action"), "{err}");
        let err = run("serve-ctl stats", &opts(&[], false)).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err = run("serve-ctl reboot", &opts(&[("addr", "127.0.0.1:1")], false)).unwrap_err();
        assert!(err.contains("reboot"), "{err}");
        let err = run("serve-ctl sessions", &opts(&[], false)).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
    }

    #[test]
    fn json_u64_matches_exact_keys_only() {
        let json = "{\"conns_open\": 9, \"sessions\": {\"open\": 3, \"opened\": 10}}";
        assert_eq!(json_u64(json, "open"), Some(3));
        assert_eq!(json_u64(json, "opened"), Some(10));
        assert_eq!(json_u64(json, "missing"), None);
    }

    #[test]
    fn bad_backend_rejected() {
        let err = run("info", &opts(&[("backend", "fpga")], false));
        // info doesn't build a backend... ensure parse order still catches it
        // via an operation that does:
        let _ = err;
        let e = run(
            "keygen",
            &opts(&[("backend", "fpga"), ("pk", "a"), ("sk", "b")], false),
        )
        .unwrap_err();
        assert!(e.contains("fpga"));
    }
}
