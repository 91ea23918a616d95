//! End-to-end tests of `nanobound serve`: the service's responses must
//! be **byte-identical** to the stdout of the equivalent one-shot CLI
//! invocations — across request order, repetition, cold/warm cache and
//! worker count — and the stdio and TCP transports must speak the same
//! protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nanobound::service::proto::read_response;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nanobound"))
}

/// Spawns `nanobound serve --listen 127.0.0.1:0 <extra>` and waits for
/// the bound address it announces on stderr.
fn spawn_tcp_serve(extra: &[&str]) -> (Child, String) {
    let mut child = bin()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("stderr readable") > 0,
            "serve exited before announcing its address"
        );
        if let Some(rest) = line
            .trim_end()
            .strip_prefix("nanobound serve: listening on ")
        {
            break rest.to_owned();
        }
    };
    // Keep draining stderr until the child exits: dropping the pipe
    // would make the service's own diagnostics fail to write.
    std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    (child, addr)
}

/// Waits for `child` to exit cleanly, killing it (and failing) if it
/// is still running after 60 seconds.
fn assert_exits_cleanly(child: &mut Child, context: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("child pollable") {
            assert!(status.success(), "{context}: serve exited nonzero");
            return;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{context}: serve kept running");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Runs a one-shot CLI invocation that must succeed; returns stdout.
fn one_shot(args: &[&str]) -> Vec<u8> {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "one-shot {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Runs a one-shot CLI invocation that must fail; returns stderr.
fn one_shot_failure(args: &[&str]) -> Vec<u8> {
    let out = bin().args(args).output().expect("binary runs");
    assert!(!out.status.success(), "one-shot {args:?} unexpectedly ok");
    out.stderr
}

/// Pipes a scripted session into `nanobound serve <extra>` and returns
/// the parsed responses plus the raw stdout stream.
#[allow(clippy::type_complexity)]
fn serve_session(extra: &[&str], script: &str) -> (Vec<(String, bool, Vec<u8>)>, Vec<u8>) {
    let mut child = bin()
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "serve exited nonzero");
    let mut reader = BufReader::new(out.stdout.as_slice());
    let mut responses = Vec::new();
    while let Some(response) = read_response(&mut reader).expect("well-framed response stream") {
        responses.push(response);
    }
    (responses, out.stdout)
}

/// A scratch dir holding a small netlist for `profile` requests.
fn scratch_netlist(name: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("nanobound_serve_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("xor2.bench");
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
    (dir, path.to_str().unwrap().to_owned())
}

const BOUND_ARGS: [&str; 10] = [
    "--size",
    "21",
    "--sensitivity",
    "10",
    "--activity",
    "0.5",
    "--fanin",
    "3",
    "--eps",
    "0.01",
];

fn json_args(args: &[&str]) -> String {
    let quoted: Vec<String> = args.iter().map(|a| format!("\"{a}\"")).collect();
    quoted.join(",")
}

#[test]
fn serve_responses_equal_one_shot_cli_output_byte_for_byte() {
    let (dir, netlist) = scratch_netlist("equiv");
    let profile_args = [netlist.as_str(), "--eps", "0.05", "--patterns", "2000"];
    let script = format!(
        "{{\"id\":\"b\",\"workload\":\"bound\",\"args\":[{}]}}\n\
         {{\"id\":\"f\",\"workload\":\"figure\",\"args\":[\"fig2\"]}}\n\
         {{\"id\":\"p\",\"workload\":\"profile\",\"args\":[{}]}}\n\
         {{\"id\":\"p2\",\"workload\":\"profile\",\"args\":[{}]}}\n\
         {{\"id\":\"bad\",\"workload\":\"profile\",\"args\":[\"/nope/missing.bench\"]}}\n",
        json_args(&BOUND_ARGS),
        json_args(&profile_args),
        json_args(&profile_args),
    );
    let (responses, _) = serve_session(&[], &script);
    assert_eq!(responses.len(), 5);

    let bounds_expected = one_shot(&[&["bounds"][..], &BOUND_ARGS[..]].concat());
    let figure_expected = one_shot(&["figures", "--only", "fig2", "--stdout"]);
    let profile_expected = one_shot(&[&["profile"][..], &profile_args[..]].concat());
    let failure_expected = one_shot_failure(&["profile", "/nope/missing.bench"]);

    let (id, ok, payload) = &responses[0];
    assert_eq!((id.as_str(), *ok), ("b", true));
    assert_eq!(
        payload, &bounds_expected,
        "bound payload != `nanobound bounds` stdout"
    );
    let (id, ok, payload) = &responses[1];
    assert_eq!((id.as_str(), *ok), ("f", true));
    assert_eq!(
        payload, &figure_expected,
        "figure payload != `figures --only fig2 --stdout` stdout"
    );
    for index in [2, 3] {
        let (id, ok, payload) = &responses[index];
        assert!(id.starts_with('p'));
        assert!(*ok);
        assert_eq!(
            payload, &profile_expected,
            "profile payload (request {index}) != one-shot stdout"
        );
    }
    let (id, ok, payload) = &responses[4];
    assert_eq!((id.as_str(), *ok), ("bad", false));
    assert_eq!(
        payload, &failure_expected,
        "error payload != one-shot stderr"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cold_warm_cache_and_worker_count_leave_the_stream_identical() {
    let (dir, netlist) = scratch_netlist("warm");
    let cache = dir.join("cache").to_str().unwrap().to_owned();
    let profile = format!(
        "{{\"id\":\"2\",\"workload\":\"profile\",\"args\":[{}]}}\n",
        json_args(&[netlist.as_str(), "--eps", "0.01", "--patterns", "2000"]),
    );
    // Mixed-order script touching every deterministic workload,
    // including a replay of an earlier request.
    let script = format!(
        "{{\"id\":\"1\",\"workload\":\"figure\",\"args\":[\"fig4\"]}}\n\
         {profile}\
         {{\"id\":\"3\",\"workload\":\"bound\",\"args\":[{}]}}\n\
         {{\"id\":\"4\",\"workload\":\"figure\",\"args\":[\"fig2\"]}}\n\
         {{\"id\":\"5\",\"workload\":\"figure\",\"args\":[\"fig4\"]}}\n",
        json_args(&BOUND_ARGS),
    );
    let (_, cold_stream) = serve_session(&["--cache-dir", &cache, "--jobs", "1"], &script);
    let (_, warm_stream) = serve_session(&["--cache-dir", &cache, "--jobs", "5"], &script);
    let (_, plain_stream) = serve_session(&["--jobs", "3"], &script);
    assert_eq!(
        cold_stream, warm_stream,
        "warm-cache --jobs 5 stream != cold-cache --jobs 1 stream"
    );
    assert_eq!(
        cold_stream, plain_stream,
        "uncached stream != cached stream"
    );

    // The warm run above must actually have been served from the
    // cache: a fresh session over the same store measures nothing for a
    // replayed profile.
    let stats_script = format!("{profile}{{\"id\":\"s\",\"workload\":\"stats\"}}\n");
    let (responses, _) = serve_session(&["--cache-dir", &cache], &stats_script);
    let stats = String::from_utf8(responses[1].2.clone()).unwrap();
    let profiles = stats
        .lines()
        .find(|line| line.starts_with("cache profiles: "))
        .unwrap_or_else(|| panic!("no profile line in stats: {stats}"));
    assert!(
        profiles.ends_with("1 activity reused (0 measured), 1 sensitivity reused (0 measured)"),
        "warm profile request re-measured: {stats}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn validate_over_serve_matches_the_one_shot_cli() {
    let script = "{\"id\":\"v\",\"workload\":\"validate\"}\n";
    let (responses, _) = serve_session(&[], script);
    let (id, ok, payload) = &responses[0];
    assert_eq!((id.as_str(), *ok), ("v", true));
    let expected = one_shot(&["validate", "--stdout"]);
    assert_eq!(
        payload, &expected,
        "validate payload != `validate --stdout`"
    );
}

#[test]
fn tcp_transport_speaks_the_same_protocol() {
    let (mut child, addr) = spawn_tcp_serve(&[]);
    let stream = TcpStream::connect(&addr).expect("connect to serve");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(
            b"{\"id\":\"t1\",\"workload\":\"ping\"}\n\
              {\"id\":\"t2\",\"workload\":\"figure\",\"args\":[\"fig2\"]}\n\
              {\"id\":\"t3\",\"workload\":\"shutdown\"}\n",
        )
        .expect("requests written");
    let mut reader = BufReader::new(stream);
    let (id, ok, payload) = read_response(&mut reader).unwrap().expect("ping response");
    assert_eq!(
        (id.as_str(), ok, &payload[..]),
        ("t1", true, &b"pong\n"[..])
    );
    let (id, ok, payload) = read_response(&mut reader)
        .unwrap()
        .expect("figure response");
    assert_eq!((id.as_str(), ok), ("t2", true));
    assert_eq!(
        payload,
        one_shot(&["figures", "--only", "fig2", "--stdout"]),
        "TCP figure payload != one-shot stdout"
    );
    let (id, ok, payload) = read_response(&mut reader)
        .unwrap()
        .expect("shutdown response");
    assert_eq!((id.as_str(), ok, &payload[..]), ("t3", true, &b"bye\n"[..]));
    // Shutdown ends the whole service.
    let status = child.wait().expect("serve exits after shutdown");
    assert!(status.success());
}

#[test]
fn serve_lint_payloads_equal_one_shot_stdout_byte_for_byte() {
    let dirty = format!(
        "{}/tests/fixtures/lint_dirty.bench",
        env!("CARGO_MANIFEST_DIR")
    );
    let script = format!(
        "{{\"id\":\"clean\",\"workload\":\"lint\",\"args\":[{}]}}\n\
         {{\"id\":\"dirty\",\"workload\":\"lint\",\"args\":[{}]}}\n\
         {{\"id\":\"json\",\"workload\":\"lint\",\"args\":[{}]}}\n\
         {{\"id\":\"bad\",\"workload\":\"lint\",\"args\":[\"/nope/missing.bench\"]}}\n",
        json_args(&["--suite", "--deny", "warnings"]),
        json_args(&[dirty.as_str(), "--deny", "warnings"]),
        json_args(&[dirty.as_str(), "--format", "json"]),
    );
    let (responses, _) = serve_session(&[], &script);
    assert_eq!(responses.len(), 4);

    let clean_expected = one_shot(&["lint", "--suite", "--deny", "warnings"]);
    // The denied run exits nonzero one-shot but still prints the full
    // report; the serve frame carries the same bytes with ok=false.
    let denied = bin()
        .args(["lint", dirty.as_str(), "--deny", "warnings"])
        .output()
        .expect("binary runs");
    assert!(!denied.status.success());
    let json_expected = one_shot(&["lint", dirty.as_str(), "--format", "json"]);
    let failure_expected = one_shot_failure(&["lint", "/nope/missing.bench"]);

    let (id, ok, payload) = &responses[0];
    assert_eq!((id.as_str(), *ok), ("clean", true));
    assert_eq!(
        payload, &clean_expected,
        "serve lint payload != one-shot stdout"
    );

    let (id, ok, payload) = &responses[1];
    assert_eq!(
        (id.as_str(), *ok),
        ("dirty", false),
        "denied warnings must flip the ok flag"
    );
    assert_eq!(
        payload, &denied.stdout,
        "denied lint payload != one-shot stdout"
    );

    let (id, ok, payload) = &responses[2];
    assert_eq!((id.as_str(), *ok), ("json", true));
    assert_eq!(payload, &json_expected, "json lint payload != one-shot");

    let (id, ok, payload) = &responses[3];
    assert_eq!((id.as_str(), *ok), ("bad", false));
    assert_eq!(
        payload, &failure_expected,
        "lint failure payload != one-shot stderr"
    );
}

#[test]
fn concurrent_session_with_mid_flight_gc_matches_the_serial_stream() {
    // The tentpole contract: a session dispatched across 4 workers —
    // with a gc sweeping the cache mid-flight and per-request worker
    // overrides in the mix — produces the byte-identical response
    // stream of a serial cold session. Separate fresh cache dirs keep
    // the two runs independent.
    let (dir, netlist) = scratch_netlist("concurrent");
    let serial_cache = dir.join("serial").to_str().unwrap().to_owned();
    let concurrent_cache = dir.join("concurrent").to_str().unwrap().to_owned();
    let profile_args = [netlist.as_str(), "--eps", "0.05", "--patterns", "2000"];
    let script = format!(
        "{{\"id\":\"1\",\"workload\":\"bound\",\"args\":[{}]}}\n\
         {{\"id\":\"2\",\"workload\":\"profile\",\"args\":[{}]}}\n\
         {{\"id\":\"3\",\"workload\":\"figure\",\"args\":[\"fig2\"]}}\n\
         {{\"id\":\"4\",\"workload\":\"gc\",\"args\":[\"--bytes\",\"0\"]}}\n\
         this line is hostile\n\
         {{\"id\":\"5\",\"workload\":\"profile\",\"args\":[{}]}}\n\
         {{\"id\":\"6\",\"workload\":\"figure\",\"args\":[\"fig4\",\"--request-jobs\",\"2\"]}}\n\
         {{\"id\":\"7\",\"workload\":\"bound\",\"args\":[\"--request-jobs\",\"3\",{}]}}\n",
        json_args(&BOUND_ARGS),
        json_args(&profile_args),
        json_args(&profile_args),
        json_args(&BOUND_ARGS),
    );
    let (_, serial_stream) = serve_session(&["--cache-dir", &serial_cache, "--jobs", "1"], &script);
    let (responses, concurrent_stream) = serve_session(
        &[
            "--cache-dir",
            &concurrent_cache,
            "--jobs",
            "1",
            "--concurrency",
            "4",
            "--queue",
            "64",
        ],
        &script,
    );
    assert_eq!(
        concurrent_stream, serial_stream,
        "--concurrency 4 stream != serial stream"
    );
    // And the gc ran against a live cache, in order, with its pinned
    // deterministic payload.
    let (id, ok, payload) = &responses[3];
    assert_eq!((id.as_str(), *ok), ("4", true));
    assert_eq!(&payload[..], &b"gc: swept\n"[..]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn overload_and_duplicate_ids_answer_in_band_and_in_order() {
    // One worker, one queue slot, and a slow head request: the burst
    // of pings behind it must each get a frame — `pong` if a slot
    // freed up, `error: overloaded` otherwise — in request order,
    // never a dropped frame. A ping reusing the slow request's id is
    // refused in-band while that id is still unanswered.
    let mut script = String::from("{\"id\":\"x\",\"workload\":\"validate\"}\n");
    script.push_str("{\"id\":\"x\",\"workload\":\"ping\"}\n");
    for i in 0..40 {
        script.push_str(&format!("{{\"id\":\"p{i}\",\"workload\":\"ping\"}}\n"));
    }
    script.push_str("{\"id\":\"s\",\"workload\":\"shutdown\"}\n");
    let (responses, _) = serve_session(&["--concurrency", "1", "--queue", "1"], &script);
    assert_eq!(responses.len(), 43, "one frame per request, none dropped");

    let (id, ok, payload) = &responses[0];
    assert_eq!((id.as_str(), *ok), ("x", true));
    assert_eq!(payload, &one_shot(&["validate", "--stdout"]));

    let (id, ok, payload) = &responses[1];
    assert_eq!((id.as_str(), *ok), ("x", false), "duplicate id refused");
    assert_eq!(&payload[..], &b"error: id `x` is already in flight\n"[..]);

    let mut overloaded = 0;
    for (i, (id, ok, payload)) in responses[2..42].iter().enumerate() {
        assert_eq!(id, &format!("p{i}"), "frames stay in request order");
        match &payload[..] {
            b"pong\n" => assert!(ok),
            b"error: overloaded\n" => {
                assert!(!ok);
                overloaded += 1;
            }
            other => panic!(
                "p{i}: unexpected payload {:?}",
                String::from_utf8_lossy(other)
            ),
        }
    }
    assert!(overloaded > 0, "the burst never hit the queue bound");
    assert_eq!(
        (
            responses[42].0.as_str(),
            responses[42].1,
            &responses[42].2[..]
        ),
        ("s", true, &b"bye\n"[..])
    );
}

#[test]
fn shutdown_from_a_vanishing_client_still_stops_the_service() {
    // The regression (satellite of the concurrency work): a client
    // that sends `shutdown` and disconnects before reading `bye`
    // makes the session end in an I/O error — which used to swallow
    // the shutdown and leave the accept loop serving forever.
    let (mut child, addr) = spawn_tcp_serve(&[]);
    {
        let mut stream = TcpStream::connect(&addr).expect("connect to serve");
        stream
            .write_all(b"{\"id\":\"s\",\"workload\":\"shutdown\"}\n")
            .expect("shutdown written");
        // Vanish without reading the response.
    }
    assert_exits_cleanly(&mut child, "shutdown from vanished client");
}

#[test]
fn a_client_vanishing_mid_response_leaves_the_service_serving() {
    let (mut child, addr) = spawn_tcp_serve(&[]);
    {
        let mut stream = TcpStream::connect(&addr).expect("connect to serve");
        stream
            .write_all(b"{\"id\":\"gone\",\"workload\":\"figure\",\"args\":[\"fig2\"]}\n")
            .expect("request written");
        // Vanish while the figure is still being computed/written.
    }
    // The next connection must be served as if nothing happened.
    let stream = TcpStream::connect(&addr).expect("reconnect to serve");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(
            b"{\"id\":\"alive\",\"workload\":\"ping\"}\n\
              {\"id\":\"s\",\"workload\":\"shutdown\"}\n",
        )
        .expect("requests written");
    let mut reader = BufReader::new(stream);
    let (id, ok, payload) = read_response(&mut reader).unwrap().expect("ping response");
    assert_eq!(
        (id.as_str(), ok, &payload[..]),
        ("alive", true, &b"pong\n"[..])
    );
    let (id, ok, payload) = read_response(&mut reader)
        .unwrap()
        .expect("shutdown response");
    assert_eq!((id.as_str(), ok, &payload[..]), ("s", true, &b"bye\n"[..]));
    assert_exits_cleanly(&mut child, "shutdown after vanished client");
}

#[test]
fn a_stalling_client_is_timed_out_in_band_and_the_next_client_is_served() {
    // The regression: the TCP accept loop is sequential and the reader
    // blocks forever on a client that connects and goes silent, so one
    // stalled (or half-dead) client used to wedge the whole service.
    // With `--idle-timeout` the session is closed with an in-band
    // reserved-id error frame and the accept loop moves on.
    let (mut child, addr) = spawn_tcp_serve(&["--idle-timeout", "0.5"]);
    {
        let stream = TcpStream::connect(&addr).expect("connect to serve");
        let mut writer = stream.try_clone().expect("clone stream");
        writer
            .write_all(b"{\"id\":\"warm\",\"workload\":\"ping\"}\n")
            .expect("ping written");
        // ... and stall: never send the newline-terminated next request.
        writer
            .write_all(b"{\"id\":\"half")
            .expect("half request written");
        let mut reader = BufReader::new(stream);
        let (id, ok, payload) = read_response(&mut reader).unwrap().expect("ping response");
        assert_eq!(
            (id.as_str(), ok, &payload[..]),
            ("warm", true, &b"pong\n"[..])
        );
        let (id, ok, payload) = read_response(&mut reader)
            .unwrap()
            .expect("idle-timeout frame");
        assert_eq!((id.as_str(), ok), ("?", false), "reserved-id close frame");
        assert!(
            payload.windows(12).any(|w| w == b"idle timeout"),
            "close frame names the timeout: {:?}",
            String::from_utf8_lossy(&payload)
        );
        assert!(
            read_response(&mut reader).unwrap().is_none(),
            "the session ends after the close frame"
        );
    }
    // The accept loop is free again: a fresh client is served in full.
    let stream = TcpStream::connect(&addr).expect("reconnect to serve");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(
            b"{\"id\":\"next\",\"workload\":\"ping\"}\n\
              {\"id\":\"s\",\"workload\":\"shutdown\"}\n",
        )
        .expect("requests written");
    let mut reader = BufReader::new(stream);
    let (id, ok, payload) = read_response(&mut reader).unwrap().expect("ping response");
    assert_eq!(
        (id.as_str(), ok, &payload[..]),
        ("next", true, &b"pong\n"[..])
    );
    let (id, ok, payload) = read_response(&mut reader)
        .unwrap()
        .expect("shutdown response");
    assert_eq!((id.as_str(), ok, &payload[..]), ("s", true, &b"bye\n"[..]));
    assert_exits_cleanly(&mut child, "shutdown after stalled client");
}

#[test]
fn hostile_tcp_lines_answer_in_band_and_frames_stay_readable() {
    // A megabyte of junk on one line, an id full of escapes, and the
    // reserved id: each answers with a well-formed frame the strict
    // `read_response` parser (which also guards against hostile byte
    // counts) accepts, and the session survives all of them.
    let (mut child, addr) = spawn_tcp_serve(&[]);
    let stream = TcpStream::connect(&addr).expect("connect to serve");
    let mut writer = stream.try_clone().expect("clone stream");
    let junk = "x".repeat(1 << 20);
    writer.write_all(junk.as_bytes()).expect("junk written");
    writer
        .write_all(
            b"\n\
              {\"id\":\"q\\\"uote\\ttab\",\"workload\":\"ping\"}\n\
              {\"id\":\"?\",\"workload\":\"ping\"}\n\
              {\"id\":\"s\",\"workload\":\"shutdown\"}\n",
        )
        .expect("requests written");
    let mut reader = BufReader::new(stream);
    let (id, ok, payload) = read_response(&mut reader).unwrap().expect("junk answered");
    assert_eq!((id.as_str(), ok), ("?", false));
    assert!(payload.starts_with(b"error: "), "junk answer is in-band");
    let (id, ok, payload) = read_response(&mut reader).unwrap().expect("escaped id");
    assert_eq!(
        (id.as_str(), ok, &payload[..]),
        ("q\"uote\ttab", true, &b"pong\n"[..])
    );
    let (id, ok, payload) = read_response(&mut reader)
        .unwrap()
        .expect("reserved id refused");
    assert_eq!((id.as_str(), ok), ("?", false));
    assert!(
        payload.windows(8).any(|w| w == b"reserved"),
        "reserved-id answer names the reservation: {:?}",
        String::from_utf8_lossy(&payload)
    );
    let (id, ok, payload) = read_response(&mut reader)
        .unwrap()
        .expect("shutdown response");
    assert_eq!((id.as_str(), ok, &payload[..]), ("s", true, &b"bye\n"[..]));
    assert_exits_cleanly(&mut child, "shutdown after hostile lines");
}
