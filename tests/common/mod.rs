//! Fixtures shared by the serving suites (`daemon_serving`,
//! `obs_end_to_end`, `session_serving`). Each suite uses its own subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::thread;

use txmm::daemon::{Daemon, ListenAddr, PoolConfig, SessionPool};
use txmm::protocol::Request;

/// The standard generated corpus (`txmm::corpus::generate`, the same
/// 50 tests `txmm gen` writes to disk and the CI smoke jobs serve), as
/// `(file, source)` pairs.
pub fn corpus() -> Vec<(String, String)> {
    txmm::corpus::generate(3)
        .into_iter()
        .map(|(name, src)| (format!("{name}.litmus"), src))
        .collect()
}

/// Send one request and read its response frame (lines up to the blank
/// terminator).
pub fn roundtrip<S: Read + Write>(stream: &mut BufReader<S>, req: &Request) -> Vec<String> {
    stream
        .get_mut()
        .write_all(format!("{}\n", req.to_line()).as_bytes())
        .expect("send request");
    let mut lines = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        let n = stream.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed mid-frame (got {lines:?})");
        let l = line.trim_end_matches('\n');
        if l.is_empty() {
            return lines;
        }
        lines.push(l.to_string());
    }
}

/// A daemon of `shards` shards on an ephemeral local TCP port: its
/// address and the thread that runs it until `shutdown`.
pub fn start_daemon(shards: usize) -> (String, thread::JoinHandle<()>) {
    let pool = SessionPool::new(&PoolConfig {
        shards,
        ..PoolConfig::default()
    })
    .expect("pool builds");
    let daemon = Daemon::bind(&ListenAddr::Tcp("127.0.0.1:0".into()), pool).expect("binds");
    let addr = daemon.local_addr().to_string();
    let server = thread::spawn(move || daemon.run().expect("daemon runs"));
    (addr, server)
}
