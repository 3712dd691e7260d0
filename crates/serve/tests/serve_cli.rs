//! CLI surface checks for the `lasmq-serve` and `lasmq-loadgen`
//! binaries, mirroring the `repro_cli` pattern: `--help` must exit 0 and
//! document every flag, and flag misuse must fail with a pointer to the
//! usage. Also drives `lasmq-serve --resume` on a snapshot file whose
//! state is inconsistent.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use lasmq_simulator::{JobSpec, SimDuration, StageKind, StageSpec, TaskSpec};

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn serve_help_documents_every_flag() {
    let out = run(env!("CARGO_BIN_EXE_lasmq-serve"), &["--help"]);
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8(out.stdout).expect("usage is utf-8");
    for needle in [
        "--listen",
        "--scheduler",
        "--nodes",
        "--containers",
        "--quantum-ms",
        "--admission-cap",
        "--queue-cap",
        "--compression",
        "--manual-pacing",
        "--snapshot-path",
        "--snapshot-every-secs",
        "--resume",
        "--help",
        // The protocol verbs ship in the help text too.
        "\"op\":\"submit\"",
        "\"op\":\"shutdown\"",
    ] {
        assert!(
            text.contains(needle),
            "serve help must mention {needle}, got:\n{text}"
        );
    }
}

#[test]
fn loadgen_help_documents_every_flag() {
    let out = run(env!("CARGO_BIN_EXE_lasmq-loadgen"), &["--help"]);
    assert!(out.status.success(), "--help must exit 0");
    let text = String::from_utf8(out.stdout).expect("usage is utf-8");
    for needle in [
        "--addr",
        "--jobs",
        "--skip",
        "--seed",
        "--compression",
        "--rate",
        "--drain-timeout-secs",
        "--shutdown",
        "--emit",
        "--help",
    ] {
        assert!(
            text.contains(needle),
            "loadgen help must mention {needle}, got:\n{text}"
        );
    }
}

#[test]
fn serve_rejects_bad_flags_with_usage() {
    for args in [
        &["--frobnicate"][..],
        &["--compression", "0"][..],
        &["--compression", "soon"][..],
        &["--resume"][..], // requires --snapshot-path
    ] {
        let out = run(env!("CARGO_BIN_EXE_lasmq-serve"), args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let text = String::from_utf8(out.stderr).expect("error is utf-8");
        assert!(
            text.contains("USAGE"),
            "{args:?} error must show usage:\n{text}"
        );
    }
}

#[test]
fn loadgen_rejects_bad_flags_with_usage() {
    for args in [&["--frobnicate"][..], &["--jobs", "many"][..], &[][..]] {
        let out = run(env!("CARGO_BIN_EXE_lasmq-loadgen"), args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let text = String::from_utf8(out.stderr).expect("error is utf-8");
        assert!(
            text.contains("USAGE"),
            "{args:?} error must show usage:\n{text}"
        );
    }
}

/// Starts `lasmq-serve` with manual pacing on an ephemeral port and
/// connects to it.
fn serve(extra: &[&str]) -> (Child, BufReader<TcpStream>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lasmq-serve"))
        .args(["--listen", "127.0.0.1:0", "--manual-pacing"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lasmq-serve starts");
    let mut banner = String::new();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    stdout.read_line(&mut banner).unwrap();
    // Hand the pipe back: the daemon prints its shutdown summary there.
    child.stdout = Some(stdout.into_inner());
    let addr = banner
        .trim()
        .strip_prefix("lasmq-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"));
    (child, BufReader::new(TcpStream::connect(addr).unwrap()))
}

fn request(conn: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(conn.get_mut(), "{line}").unwrap();
    let mut response = String::new();
    conn.read_line(&mut response).unwrap();
    response
}

#[test]
fn serve_resume_reports_an_inconsistent_snapshot_and_starts_fresh() {
    let dir = std::env::temp_dir().join(format!("lasmq-serve-cli-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.json");
    let path_arg = path.to_str().unwrap();

    // A genuine snapshot with two admitted jobs mid-run.
    let (child, mut conn) = serve(&["--snapshot-path", path_arg]);
    let job = JobSpec::builder()
        .stage(StageSpec::uniform(
            StageKind::Map,
            4,
            TaskSpec::new(SimDuration::from_secs(30)),
        ))
        .build();
    let submit = format!(
        r#"{{"op":"submit","job":{}}}"#,
        serde_json::to_string(&job).unwrap()
    );
    for _ in 0..2 {
        assert!(request(&mut conn, &submit).contains(r#""ok":true"#));
    }
    request(&mut conn, r#"{"op":"advance","to_ms":1000}"#);
    request(&mut conn, r#"{"op":"shutdown"}"#);
    assert!(child.wait_with_output().unwrap().status.success());
    let genuine = std::fs::read_to_string(&path).unwrap();

    // Parseable JSON whose cross-references point past the cluster's
    // nodes or the workload's jobs.
    for (key, hostile) in [
        (r#""free_per_node":["#, r#""free_per_node":[0,"#),
        (r#""admitted":["#, r#""admitted":[4000000,"#),
    ] {
        let edited = genuine.replacen(key, hostile, 1);
        assert_ne!(edited, genuine, "{key} not found to edit");
        std::fs::write(&path, edited).unwrap();

        let (child, mut conn) = serve(&["--snapshot-path", path_arg, "--resume"]);
        let status = request(&mut conn, r#"{"op":"status"}"#);
        assert!(
            status.contains(r#""jobs":0"#),
            "{key}: not a fresh start: {status}"
        );
        request(&mut conn, r#"{"op":"shutdown"}"#);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{key}: daemon failed:\n{stderr}");
        assert!(
            stderr.contains("snapshot invalid") && stderr.contains("starting fresh"),
            "{key}: refusal not reported:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
