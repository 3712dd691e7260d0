//! `lasmq-loadgen` against an in-process daemon: ack latency is timed
//! from each submission's scheduled send instant, so time the sender
//! spends behind schedule shows up in the ack percentiles instead of
//! being dropped (coordinated omission).
#![cfg(unix)]

use std::process::{Command, Stdio};
use std::thread;
use std::time::Duration;

use lasmq_serve::{Daemon, Pacing, ServeConfig};

/// The `field` figure (`p99`, `max`), in µs, of the report line starting
/// with `prefix`.
fn figure_us(report: &str, prefix: &str, field: &str) -> f64 {
    let line = report
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no '{prefix}' line in:\n{report}"));
    let value = line
        .split(&format!("{field} "))
        .nth(1)
        .unwrap_or_else(|| panic!("no {field} in '{line}'"));
    value
        .split("µs")
        .next()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("unparseable {field} in '{line}'"))
}

fn signal(pid: u32, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill {sig} {pid} failed");
}

#[test]
fn ack_latency_covers_the_senders_lag_behind_schedule() {
    let handle = Daemon::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        pacing: Pacing::Manual,
        ..ServeConfig::default()
    })
    .unwrap();
    // A 2 s schedule the sender cannot meet: it is stopped for a second
    // partway through, then sends everything that came due meanwhile in
    // a burst the daemon answers quickly.
    let loadgen = Command::new(env!("CARGO_BIN_EXE_lasmq-loadgen"))
        .args(["--addr", &handle.addr().to_string()])
        .args(["--jobs", "4000", "--rate", "2000"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("loadgen runs");
    thread::sleep(Duration::from_millis(500));
    signal(loadgen.id(), "-STOP");
    thread::sleep(Duration::from_secs(1));
    signal(loadgen.id(), "-CONT");
    let out = loadgen.wait_with_output().unwrap();
    handle.request_stop();
    handle.join().unwrap();

    let report = String::from_utf8(out.stdout).expect("report is utf-8");
    assert!(out.status.success(), "loadgen failed:\n{report}");
    assert!(
        report.contains("(4000 accepted, 0 deferred, 0 errors)"),
        "{report}"
    );
    let lag_line = "sender lag behind schedule:";
    assert!(
        figure_us(&report, lag_line, "p99") > 0.0,
        "the sender fell behind:\n{report}"
    );
    // Each ack is read after its write, so timed from the due instant it
    // is at least the lag that write already had — and so is every
    // percentile of the acks at least the same percentile of the lags.
    for field in ["p99", "max"] {
        let ack = figure_us(&report, "client ack latency", field);
        let lag = figure_us(&report, lag_line, field);
        assert!(
            ack >= lag,
            "ack {field} {ack}µs < lag {field} {lag}µs:\n{report}"
        );
    }
}
