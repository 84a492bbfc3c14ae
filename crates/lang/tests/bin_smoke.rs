//! Smoke tests for the `tsq` shell binary: `--help`, a tiny generate +
//! query session, rejection of unknown arguments, thread-count clamping
//! in `.batch`, and the `.serve` / `--serve` service modes.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_tsq");

/// Streams a child's stdout line-by-line through a channel so a test can
/// react to output (e.g. the announced server address) while the shell
/// is still running.
fn stdout_lines(child: &mut Child) -> mpsc::Receiver<String> {
    let stdout = child.stdout.take().expect("child stdout");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let reader = BufReader::new(stdout);
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    rx
}

/// Waits for the line announcing the serving address and extracts it.
fn wait_for_addr(rx: &mpsc::Receiver<String>) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        let line = rx.recv_timeout(left).expect("server never announced");
        if let Some(at) = line.find("serving on ") {
            let rest = &line[at + "serving on ".len()..];
            return rest.split_whitespace().next().unwrap().to_string();
        }
    }
}

#[test]
fn help_prints_grammar() {
    let out = Command::new(BIN).arg("--help").output().expect("run tsq");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("meta-commands"),
        "missing help text: {stdout}"
    );
    assert!(
        stdout.contains("FIND SIMILAR TO"),
        "missing grammar: {stdout}"
    );
}

#[test]
fn unknown_argument_is_rejected() {
    let out = Command::new(BIN).arg("--bogus").output().expect("run tsq");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown argument"), "stderr: {stderr}");
}

#[test]
fn snapshot_flag_restores_a_saved_catalog() {
    let dir = std::env::temp_dir().join(format!("tsq-bin-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("session.tsq");
    let path_str = path.to_str().unwrap();

    // Session 1: generate, query, snapshot.
    let mut child = Command::new(BIN)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsq");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            format!(".gen w rw 8 16 1\nFIND 2 NEAREST TO w.s0 IN w\n.save {path_str}\n.quit\n")
                .as_bytes(),
        )
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait tsq");
    assert!(out.status.success());
    let first = String::from_utf8(out.stdout).unwrap();
    assert!(first.contains("snapshot: 1 relation(s)"), "{first}");

    // Session 2: a fresh process restores the snapshot via the flag and
    // answers the same query identically.
    let mut child = Command::new(BIN)
        .arg("--snapshot")
        .arg(path_str)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsq --snapshot");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"FIND 2 NEAREST TO w.s0 IN w\n.rel\n.quit\n")
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait tsq");
    assert!(out.status.success());
    let second = String::from_utf8(out.stdout).unwrap();
    assert!(second.contains("restored 1 relation(s)"), "{second}");
    assert!(second.contains("w: 8 series of length 16"), "{second}");
    let rows = |s: &str| -> Vec<String> {
        s.lines()
            .map(|l| l.trim_start_matches("tsq> ").to_string())
            .filter(|l| l.contains("D = "))
            .collect()
    };
    assert_eq!(
        rows(&first),
        rows(&second),
        "answers must survive the restart"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_flag_rejects_a_missing_file() {
    let out = Command::new(BIN)
        .arg("--snapshot")
        .arg("/nonexistent/nope.tsq")
        .output()
        .expect("run tsq");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("cannot restore snapshot"),
        "stderr: {stderr}"
    );

    // And the flag without a path is a usage error.
    let out = Command::new(BIN)
        .arg("--snapshot")
        .output()
        .expect("run tsq");
    assert!(!out.status.success());
}

#[test]
fn batch_thread_counts_are_clamped_not_obeyed() {
    // Regression: `.batch <file> 1000000` used to hand the request
    // straight to the worker pool, which would try to spawn a million OS
    // threads. The executor now clamps, and the shell says so.
    let dir = std::env::temp_dir().join(format!("tsq-batch-clamp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let batch_path = dir.join("queries.txt");
    std::fs::write(
        &batch_path,
        "FIND 2 NEAREST TO w.s0 IN w\nFIND 2 NEAREST TO w.s1 IN w\n",
    )
    .expect("write batch file");

    let mut child = Command::new(BIN)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsq");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            format!(
                ".gen w rw 8 16 1\n.batch {} 1000000\n.quit\n",
                batch_path.to_str().unwrap()
            )
            .as_bytes(),
        )
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait tsq");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("note: clamped 1000000 thread(s) to"),
        "clamp note missing: {stdout}"
    );
    assert!(
        stdout.contains("2 queries on") && stdout.contains("0 error(s)"),
        "batch summary missing: {stdout}"
    );
    // The summary reports the clamped count, never the request.
    assert!(
        !stdout.contains("1000000 thread(s),"),
        "summary still reports the unclamped count: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_meta_command_serves_queries_and_stops_on_enter() {
    let mut child = Command::new(BIN)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsq");
    let mut stdin = child.stdin.take().expect("child stdin");
    stdin
        .write_all(b".gen w rw 8 16 1\n.serve 127.0.0.1:0\n")
        .expect("write stdin");
    stdin.flush().ok();

    let rx = stdout_lines(&mut child);
    let addr = wait_for_addr(&rx);
    let mut client = tsq_service::Client::connect(&addr).expect("connect to .serve");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client.ping().expect("ping");
    let reply = client.query("FIND 2 NEAREST TO w.s0 IN w").expect("query");
    assert_eq!(reply.rows.len(), 2);
    assert_eq!(reply.rows[0].a, "s0");
    drop(client);

    // Enter stops the server; the catalog survives for the next command.
    stdin
        .write_all(b"\nFIND 2 NEAREST TO w.s0 IN w\n.quit\n")
        .expect("write stdin");
    stdin.flush().ok();
    drop(stdin);
    let status = child.wait().expect("wait tsq");
    assert!(status.success());
    let rest: Vec<String> = rx.iter().collect();
    let joined = rest.join("\n");
    assert!(joined.contains("server drained"), "{joined}");
    assert!(
        joined.contains("D = "),
        "catalog lost after .serve: {joined}"
    );
}

#[test]
fn serve_flag_runs_headless_until_remote_shutdown() {
    let mut child = Command::new(BIN)
        .arg("--serve")
        .arg("127.0.0.1:0")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsq --serve");
    let rx = stdout_lines(&mut child);
    let addr = wait_for_addr(&rx);

    let mut client = tsq_service::Client::connect(&addr).expect("connect");
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    client.ping().expect("ping");
    // An empty catalog still answers typed errors, not hangs.
    match client.query("FIND 1 NEAREST TO w.s0 IN w") {
        Err(tsq_service::ClientError::Remote(e)) => {
            assert_eq!(e.code, tsq_service::ErrorCode::BadQuery)
        }
        other => panic!("expected typed BadQuery, got {other:?}"),
    }
    client.shutdown().expect("remote shutdown");

    let status = child.wait().expect("wait tsq");
    assert!(status.success());
    let joined = rx.iter().collect::<Vec<_>>().join("\n");
    assert!(joined.contains("server drained"), "{joined}");
}

#[test]
fn append_and_ingest_keep_the_session_alive() {
    let dir = std::env::temp_dir().join(format!("tsq-append-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let csv = dir.join("tail.csv");
    // Catch-up rows for the three series the first APPEND left behind.
    std::fs::write(
        &csv,
        "s1, 1.0, 2.0\ns2, 0.5, -0.5\n# comment\ns3, 3.25, 4\n",
    )
    .unwrap();
    // A non-finite value on line 4 refuses the whole file.
    let bad = dir.join("nan.csv");
    std::fs::write(&bad, "# header\n\ns1, 1.0\ns2, 1, nan\n").unwrap();

    let mut child = Command::new(BIN)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsq");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            format!(
                ".gen w rw 4 16 1\n\
                 APPEND w s0 VALUES (1.5, 2.5)\n\
                 .rel\n\
                 .ingest w {}\n\
                 .ingest w {}\n\
                 .rel\n\
                 FIND 2 NEAREST TO w.s0 IN w\n\
                 APPEND w s0 VALUES ()\n\
                 APPEND nowhere s0 VALUES (1)\n\
                 FIND 2 NEAREST TO w.s1 IN w\n\
                 .quit\n",
                bad.to_str().unwrap(),
                csv.to_str().unwrap()
            )
            .as_bytes(),
        )
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait tsq");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The single-series APPEND answers with the new length.
    assert!(stdout.contains("s0 @ 18   D = 2.0000"), "{stdout}");
    assert!(stdout.contains("plan Append"), "{stdout}");
    // Mid-ingest the relation is honestly reported as ragged ...
    assert!(
        stdout.contains("w: 4 series of lengths 16..18 (ragged mid-ingest)"),
        "{stdout}"
    );
    // A refused file names the line and the value, and applies nothing ...
    assert!(
        stdout.contains(&format!(
            "error: {}: line 4: \"nan\" is not a finite number",
            bad.display()
        )),
        "{stdout}"
    );
    // ... and `.ingest` catches the others up: uniform again.
    assert!(
        stdout.contains("appended 6 point(s) across 3 series to w"),
        "{stdout}"
    );
    assert!(stdout.contains("w: 4 series of length 18"), "{stdout}");
    // Malformed and unresolvable APPENDs are errors, not session deaths:
    // the final query still answers.
    assert!(stdout.contains("error:"), "{stdout}");
    assert!(stdout.matches("D = ").count() >= 4, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paged_catalog_rejects_append_in_the_shell() {
    let dir = std::env::temp_dir().join(format!("tsq-paged-append-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("paged.tsq");
    let snap_str = snap.to_str().unwrap();

    let mut child = Command::new(BIN)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsq");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(format!(".gen w rw 4 16 1\n.save {snap_str}\n.quit\n").as_bytes())
        .expect("write stdin");
    assert!(child.wait_with_output().expect("wait tsq").status.success());

    let mut child = Command::new(BIN)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsq");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            format!(
                ".open {snap_str} --paged 8\n\
                 APPEND w s0 VALUES (1.0)\n\
                 FIND 2 NEAREST TO w.s0 IN w\n\
                 .quit\n"
            )
            .as_bytes(),
        )
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait tsq");
    assert!(out.status.success(), "shell must survive the rejection");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // A typed error naming the cause — and the session keeps answering.
    assert!(
        stdout.contains("error:") && stdout.contains("paged"),
        "{stdout}"
    );
    assert!(stdout.contains("D = "), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tiny_session_generates_and_queries() {
    let mut child = Command::new(BIN)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tsq");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b".gen w rw 8 16 1\n\
              FIND 2 NEAREST TO w.s0 IN w\n\
              .rel\n\
              .quit\n",
        )
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait tsq");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("registered w (8 series)"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("D = "), "query produced no rows: {stdout}");
    assert!(
        stdout.contains("w: 8 series of length 16"),
        ".rel listing missing: {stdout}"
    );
}
