//! `repro serve` answers `POST /admin/drain` before it exits: the client
//! gets the drain's 200, then the process exits 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

/// A `repro serve` child, killed if its round fails before it exits.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `repro serve` on an ephemeral port and read the address it
/// announces on stdout.
fn spawn_serve() -> (Serve, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("repro serve starts");
    let stdout = child.stdout.take().expect("stdout was piped");
    let serve = Serve(child);
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve announces its address")
            .expect("serve's stdout reads");
        if let Some(rest) = line.trim().strip_prefix("serve: listening on http://") {
            let mut addrs = rest.to_socket_addrs().expect("the address parses");
            break addrs.next().expect("one address");
        }
    };
    // Keep reading, so the server's last line never meets a closed pipe.
    std::thread::spawn(move || lines.for_each(drop));
    (serve, addr)
}

/// One `Connection: close` exchange: the whole response, or what arrived
/// of it before the connection closed or reset.
fn exchange(addr: SocketAddr, method: &str, path: &str) -> String {
    let mut response = String::new();
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );
        if stream.write_all(request.as_bytes()).is_ok() {
            let _ = stream.read_to_string(&mut response);
        }
    }
    response
}

/// `GET /health`, then `POST /admin/drain`, then wait for the exit.
fn drain_round(mut serve: Serve, addr: SocketAddr) -> Result<(), String> {
    let health = exchange(addr, "GET", "/health");
    if !health.starts_with("HTTP/1.1 200") {
        return Err(format!("/health answered {health:?}"));
    }
    let drain = exchange(addr, "POST", "/admin/drain");
    if !(drain.starts_with("HTTP/1.1 200") && drain.contains(r#""status":"drained""#)) {
        return Err(format!("the drain was answered {drain:?}"));
    }
    match serve.0.wait() {
        Ok(status) if status.code() == Some(0) => Ok(()),
        other => Err(format!("serve exited {other:?}")),
    }
}

/// Sets the flag that stops the spinners when dropped, so a panicking
/// round does not leave them running.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn drain_is_answered_before_serve_exits() {
    // Every CPU but one spins, yielding, while the rounds run. A CPU
    // that never goes idle lets the server's main thread wake at once
    // when the drained flag rises, as on a busy machine; that is when
    // an exit on the flag beats the drain's own answer out.
    let spinners = std::thread::available_parallelism().map_or(1, |n| n.get() - 1);
    let stop = AtomicBool::new(false);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        for _ in 0..spinners {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        (0..20)
            .filter_map(|round| {
                let (serve, addr) = spawn_serve();
                drain_round(serve, addr)
                    .err()
                    .map(|e| format!("round {round}: {e}"))
            })
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} of 20 rounds failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
