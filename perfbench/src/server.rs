//! The in-process server the serving workloads drive.

use crate::kem;
use crate::script::SplitMix;
use lac_serve::client::Client;
use lac_serve::metrics::MetricsSnapshot;
use lac_serve::server::Server;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// The DRBG root the in-process server forks job randomness from.
pub fn server_seed(seed: u64) -> [u8; 32] {
    SplitMix::new(seed, "server").seed32()
}

/// A server running on its own thread.
pub struct Running {
    addr: String,
    handle: JoinHandle<MetricsSnapshot>,
}

impl Running {
    /// The server's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Shut the server down and return its final metrics snapshot.
    pub fn stop(self) -> MetricsSnapshot {
        let mut client = Client::connect(&self.addr).expect("server accepts a connection");
        client.shutdown().expect("server acknowledges the shutdown");
        self.handle.join().expect("server thread panicked")
    }
}

/// `Server::bind` on an ephemeral port with `lanes` workers and one
/// reactor, then run it on its own thread. Returns the server, the bind
/// time in seconds, and the JIT translations the workers' ISS warm
/// probes compiled or adopted from the shared cache.
///
/// # Errors
///
/// A failed bind or thread spawn.
pub fn spawn(lanes: usize, seed: [u8; 32]) -> Result<(Running, f64, u64), String> {
    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", kem::serve_config(lanes, seed))
        .map_err(|e| format!("bind: {e}"))?;
    let bind_s = t0.elapsed().as_secs_f64();
    let warm_jit_compiles = server.warm_report().map_or(0, |w| {
        w.probes
            .iter()
            .map(|p| p.jit_compiles + p.jit_shared_installs)
            .sum()
    });
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let handle = thread::Builder::new()
        .name("perfbench-server".into())
        .spawn(move || server.run())
        .map_err(|e| e.to_string())?;
    Ok((Running { addr, handle }, bind_s, warm_jit_compiles))
}
