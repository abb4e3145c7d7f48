//! End-to-end parity between the `ndl-serve` daemon and the one-shot
//! CLI: every daemon response must carry the **exact** stdout, stderr
//! and exit code of the equivalent `ndl` invocation — sequentially, from
//! concurrent client threads, and under per-request engine configs.
//!
//! This is the PR's contract test for the shared-evaluation design: the
//! CLI binary (`CARGO_BIN_EXE_ndl`) is the oracle, so any drift between
//! the daemon's rendering and the CLI's — a second flag grammar, a
//! different error string, a cached artifact leaking stale state —
//! fails here byte by byte.

use nested_deps::serve::client::Client;
use nested_deps::serve::proto::{Request, RequestConfig};
use nested_deps::serve::server::{serve, Endpoint, ServeOptions, ServerSummary};
use std::path::PathBuf;
use std::process::Command;
use std::thread::JoinHandle;

fn example(name: &str) -> String {
    format!(
        "{}/examples/programs/{name}.ndl",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Boots a daemon on a fresh temp socket; returns the socket path, the
/// join handle (yields the final [`ServerSummary`]) and a connected
/// client. Callers shut it down with a `shutdown` request.
fn boot(tag: &str, budget: Option<usize>) -> (PathBuf, JoinHandle<ServerSummary>, Client) {
    let sock = std::env::temp_dir().join(format!("ndl-parity-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let opts = ServeOptions {
        endpoint: Endpoint::Unix(sock.clone()),
        workers: 3,
        queue: 8,
        cache_bytes: 8 << 20,
        budget,
        telemetry: None,
    };
    let handle = std::thread::spawn(move || serve(opts).expect("daemon runs"));
    let client = Client::connect_unix_retry(&sock, std::time::Duration::from_secs(10))
        .expect("daemon comes up");
    (sock, handle, client)
}

fn shutdown(mut client: Client, handle: JoinHandle<ServerSummary>) -> ServerSummary {
    client
        .call(&Request {
            op: "shutdown".into(),
            ..Request::default()
        })
        .expect("shutdown acknowledged");
    handle.join().expect("daemon thread")
}

/// Runs the real CLI; returns (stdout, stderr, exit).
fn cli(args: &[&str], envs: &[(&str, &str)]) -> (String, String, u8) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ndl"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("ndl runs");
    (
        String::from_utf8(out.stdout).expect("stdout utf-8"),
        String::from_utf8(out.stderr).expect("stderr utf-8"),
        out.status.code().expect("exit code") as u8,
    )
}

fn file_request(op: &str, file: &str, args: &[&str]) -> Request {
    Request {
        op: op.into(),
        path: file.into(),
        program: Some(std::fs::read_to_string(file).expect("program file")),
        args: args.iter().map(|s| s.to_string()).collect(),
        ..Request::default()
    }
}

/// The mixed template set shared by the sequential and concurrent tests:
/// (CLI argv, request builder).
fn templates() -> Vec<(Vec<String>, Request)> {
    let mut out = Vec::new();
    let mut file_op = |op: &str, name: &str, args: &[&str]| {
        let f = example(name);
        let mut argv = vec![op.to_string(), f.clone()];
        argv.extend(args.iter().map(|s| s.to_string()));
        out.push((argv, file_request(op, &f, args)));
    };
    file_op("lint", "pipeline", &["--json"]);
    file_op("lint", "running", &[]);
    file_op("analyze", "running", &[]);
    file_op("analyze", "pipeline", &["--json"]);
    file_op("analyze", "recursive", &["--schedule", "--json"]);
    file_op("analyze", "running", &["--dataflow", "--json"]);
    file_op("chase", "running", &[]);
    file_op("chase", "running", &["--stats", "--no-timings"]);
    file_op(
        "chase",
        "pipeline",
        &["--stats", "--no-timings", "--no-delta"],
    );
    file_op("chase", "recursive", &["--budget", "40"]);
    for (op, args) in [
        (
            "implies",
            vec![
                "--premise",
                "forall x,y (E(x,y) -> exists z (R(x,z) & S(z,y)))",
                "--conclusion",
                "forall x,y (E(x,y) -> exists z R(x,z))",
            ],
        ),
        (
            "equiv",
            vec![
                "--left",
                "forall x,y (E(x,y) -> exists z R(x,z))",
                "--right",
                "forall a,b (E(a,b) -> exists w R(a,w))",
            ],
        ),
        (
            "classify",
            vec!["--tgd", "forall x (P(x) -> exists y Q(x,y))"],
        ),
        (
            "chase",
            vec![
                "--tgd",
                "forall x,y (E(x,y) -> exists z R(x,z))",
                "--fact",
                "E(a,b)",
                "--core",
            ],
        ),
    ] {
        let mut argv = vec![op.to_string()];
        argv.extend(args.iter().map(|s| s.to_string()));
        out.push((
            argv,
            Request {
                op: op.into(),
                args: args.iter().map(|s| s.to_string()).collect(),
                ..Request::default()
            },
        ));
    }
    out
}

#[test]
fn daemon_responses_are_byte_identical_to_the_cli() {
    let (_sock, handle, mut client) = boot("seq", None);
    for (argv, req) in templates() {
        let argv_ref: Vec<&str> = argv.iter().map(|s| s.as_str()).collect();
        let (stdout, stderr, exit) = cli(&argv_ref, &[]);
        let resp = client.call(&req).expect("daemon response");
        assert!(resp.ok, "{argv:?}: daemon errored: {:?}", resp.error);
        assert_eq!(resp.output, stdout, "stdout drift on {argv:?}");
        assert_eq!(resp.stderr, stderr, "stderr drift on {argv:?}");
        assert_eq!(resp.exit, exit, "exit drift on {argv:?}");
    }
    // Error paths are parity too: a missing-flag usage error surfaces the
    // same message the CLI prints after "error: ", with exit 101.
    let (_, cli_err, code) = cli(&["implies", "--premise", "forall x (P(x) -> Q(x))"], &[]);
    assert_eq!(code, 101);
    let resp = client
        .call(&Request {
            op: "implies".into(),
            args: vec!["--premise".into(), "forall x (P(x) -> Q(x))".into()],
            ..Request::default()
        })
        .expect("daemon response");
    assert!(!resp.ok);
    assert_eq!(resp.exit, 101);
    let msg = resp.error.expect("error message");
    assert!(
        cli_err.contains(&format!("error: {msg}")),
        "daemon error {msg:?} not in CLI stderr {cli_err:?}"
    );
    shutdown(client, handle);
}

#[test]
fn concurrent_clients_get_bit_identical_responses() {
    let tpls = templates();
    // Oracle once per template, up front.
    let expected: Vec<(String, String, u8)> = tpls
        .iter()
        .map(|(argv, _)| {
            let argv_ref: Vec<&str> = argv.iter().map(|s| s.as_str()).collect();
            cli(&argv_ref, &[])
        })
        .collect();

    let (sock, handle, control) = boot("mt", None);
    std::thread::scope(|s| {
        for t in 0..6 {
            let tpls = &tpls;
            let expected = &expected;
            let sock = &sock;
            s.spawn(move || {
                let mut client =
                    Client::connect_unix_retry(sock, std::time::Duration::from_secs(10))
                        .expect("client connects");
                for i in 0..3 * tpls.len() {
                    let k = (t * 5 + i) % tpls.len();
                    let mut req = tpls[k].1.clone();
                    req.id = (t * 1000 + i) as u64;
                    req.tenant = format!("tenant-{}", t % 3);
                    let resp = client.call(&req).expect("daemon response");
                    let (stdout, stderr, exit) = &expected[k];
                    assert_eq!(resp.id, req.id, "response routed to wrong request");
                    assert_eq!(&resp.output, stdout, "stdout drift under concurrency");
                    assert_eq!(&resp.stderr, stderr, "stderr drift under concurrency");
                    assert_eq!(&resp.exit, exit, "exit drift under concurrency");
                }
            });
        }
    });
    let summary = shutdown(control, handle);
    assert_eq!(summary.requests, 6 * 3 * tpls.len() as u64 + 1);
    assert!(
        summary.cache_hits > 0,
        "repeated programs must hit the cache"
    );
}

/// Server-side face of the PR 9 config fix: two requests on the same
/// daemon with different engine settings both take effect (no
/// process-wide freeze), and each matches the CLI run with the same
/// settings.
#[test]
fn per_request_configs_both_take_effect_in_one_daemon() {
    let f = example("running");
    let (_sock, handle, mut client) = boot("cfg", None);
    let mut outputs = Vec::new();
    for (delta, env) in [(false, "0"), (true, "1")] {
        let (stdout, _, exit) = cli(
            &["chase", &f, "--stats", "--no-timings"],
            &[("NDL_CHASE_DELTA", env)],
        );
        assert_eq!(exit, 0);
        let mut req = file_request("chase", &f, &["--stats", "--no-timings"]);
        req.config = Some(RequestConfig {
            delta: Some(delta),
            ..RequestConfig::default()
        });
        let resp = client.call(&req).expect("daemon response");
        assert!(resp.ok);
        assert_eq!(
            resp.output, stdout,
            "per-request delta={delta} must match the CLI with NDL_CHASE_DELTA={env}"
        );
        outputs.push(stdout);
    }
    // The naive engine reports no delta frontiers; the delta engine does.
    assert_ne!(outputs[0], outputs[1], "both requests ran the same engine");
    shutdown(client, handle);
}

/// The knobs of the removed parallel engines are accepted and ignored:
/// `--parallel` and the request config's `threads`, `shards` and
/// `sequential_cutoff` leave stdout as it is without them, and each adds
/// one warning line to that response's stderr — the `--parallel` one
/// byte-equal to the CLI's.
#[test]
fn retired_parallel_knobs_are_ignored_with_one_warning() {
    let f = example("running");
    let (_sock, handle, mut client) = boot("retired", None);
    let (plain, quiet, exit) = cli(&["chase", &f], &[]);
    assert_eq!((quiet.as_str(), exit), ("", 0));

    let (stdout, stderr, exit) = cli(&["chase", "--parallel", &f], &[]);
    assert_eq!(exit, 0);
    assert_eq!(stdout, plain);
    assert_eq!(stderr.lines().count(), 1, "{stderr:?}");
    let resp = client
        .call(&file_request("chase", &f, &["--parallel"]))
        .expect("daemon response");
    assert!(resp.ok);
    assert_eq!(
        (resp.output.as_str(), resp.stderr.as_str()),
        (plain.as_str(), stderr.as_str())
    );

    let mut req = file_request("chase", &f, &[]);
    req.config = Some(RequestConfig {
        retired: ["threads", "shards", "sequential_cutoff"]
            .map(String::from)
            .to_vec(),
        ..RequestConfig::default()
    });
    let resp = client.call(&req).expect("daemon response");
    assert!(resp.ok);
    assert_eq!(resp.output, plain);
    assert_eq!(
        resp.stderr,
        "warning: ignoring request config \"threads\", \"shards\", \"sequential_cutoff\": \
         the parallel chase engines were removed, so it has no effect\n"
    );
    shutdown(client, handle);
}

/// Tenant budget ceilings: an over-ceiling request is clamped to the
/// ceiling (byte-identical to the CLI run at the ceiling), counted as a
/// refusal for that tenant, and reported by the `stats` op.
#[test]
fn tenant_budget_ceiling_clamps_and_accounts() {
    let f = example("recursive");
    let (_sock, handle, mut client) = boot("budget", Some(40));
    let (stdout, _, exit) = cli(&["chase", &f, "--budget", "40"], &[]);
    assert_eq!(exit, 0);
    assert!(stdout.contains("budget exhausted"));

    let mut req = file_request("chase", &f, &["--budget", "999999"]);
    req.tenant = "greedy".into();
    let resp = client.call(&req).expect("daemon response");
    assert!(resp.ok);
    assert_eq!(
        resp.output, stdout,
        "clamped run must be byte-identical to the CLI at the ceiling"
    );

    // A request under the ceiling is not a refusal.
    let mut req = file_request("chase", &f, &["--budget", "10"]);
    req.tenant = "frugal".into();
    let resp = client.call(&req).expect("daemon response");
    assert!(resp.ok);
    let (stdout10, _, _) = cli(&["chase", &f, "--budget", "10"], &[]);
    assert_eq!(resp.output, stdout10);

    let stats = client
        .call(&Request {
            op: "stats".into(),
            ..Request::default()
        })
        .expect("stats response");
    assert!(
        stats.output.contains(
            "\"greedy\":{\"requests\":1,\"errors\":0,\"budget_refusals\":1,\"budget_exhausted\":1"
        ),
        "stats must report the refusal: {}",
        stats.output
    );
    assert!(
        stats.output.contains(
            "\"frugal\":{\"requests\":1,\"errors\":0,\"budget_refusals\":0,\"budget_exhausted\":1"
        ),
        "under-ceiling budgets are not refusals: {}",
        stats.output
    );

    let summary = shutdown(client, handle);
    let greedy = &summary.tenants["greedy"];
    assert_eq!(greedy.budget_refusals, 1);
    assert_eq!(greedy.budget_exhausted, 1);
    assert_eq!(summary.tenants["frugal"].budget_refusals, 0);
}

/// Configuration warnings must surface **per request**, not once per
/// process: the process-wide `warn_once` dedup would tell only the first
/// tenant that its retired `NDL_HOM_THREADS` is being ignored. The daemon runs as
/// a subprocess here so the misconfigured environment is its own, not the
/// test harness's (`set_var` is unsafe under the threaded test runner).
#[test]
fn warnings_surface_per_request_not_per_process() {
    let sock = std::env::temp_dir().join(format!("ndl-parity-warn-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ndl"))
        .args(["serve", "--socket", sock.to_str().expect("utf-8 path")])
        .env("NDL_HOM_THREADS", "lots")
        .spawn()
        .expect("daemon subprocess starts");
    let mut client = Client::connect_unix_retry(&sock, std::time::Duration::from_secs(10))
        .expect("daemon comes up");

    // Oracle: the CLI under the same environment. The inline chase with
    // --core reaches the hom engine, which reports the retired setting.
    let args = [
        "--tgd",
        "forall x,y (E(x,y) -> exists z R(x,z))",
        "--fact",
        "E(a,b)",
        "--core",
    ];
    let mut argv = vec!["chase"];
    argv.extend(args);
    let (stdout, stderr, exit) = cli(&argv, &[("NDL_HOM_THREADS", "lots")]);
    assert_eq!(exit, 0);
    assert_eq!(
        stdout,
        cli(&argv, &[]).0,
        "the retired setting leaves stdout as it is"
    );
    assert!(
        stderr.contains(
            "warning: ignoring NDL_HOM_THREADS=\"lots\": the core engine's worker threads \
             were removed, so it has no effect"
        ),
        "CLI oracle must warn: {stderr:?}"
    );

    // *Both* tenants — in particular the second one, which the process-
    // wide dedup used to silence — get the warning in their response.
    for tenant in ["first", "second"] {
        let resp = client
            .call(&Request {
                op: "chase".into(),
                tenant: tenant.into(),
                args: args.iter().map(|s| s.to_string()).collect(),
                ..Request::default()
            })
            .expect("daemon response");
        assert!(resp.ok, "{tenant}: {:?}", resp.error);
        assert_eq!(resp.output, stdout, "stdout drift for tenant {tenant}");
        assert_eq!(
            resp.stderr, stderr,
            "tenant {tenant} must see the config warning in its own response"
        );
    }

    client
        .call(&Request {
            op: "shutdown".into(),
            ..Request::default()
        })
        .expect("shutdown acknowledged");
    let status = child.wait().expect("daemon subprocess exits");
    assert!(status.success(), "daemon exit: {status:?}");
}

/// The daemon's own environment warnings reach its stderr when it starts
/// listening, before it answers anything — not after it exits. Retired
/// settings of the chase and of the hom engine each warn once.
#[test]
fn daemon_environment_warnings_print_before_the_first_response() {
    use std::io::BufRead;
    let sock = std::env::temp_dir().join(format!("ndl-parity-boot-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ndl"))
        .args(["serve", "--socket", sock.to_str().expect("utf-8 path")])
        .env("NDL_CHASE_THREADS", "3")
        .env("NDL_HOM_THREADS", "2")
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon subprocess starts");
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in std::io::BufReader::new(stderr).lines() {
            if tx.send(line.expect("stderr line")).is_err() {
                break;
            }
        }
    });
    let wanted = [
        "warning: ignoring NDL_CHASE_THREADS=\"3\": the parallel chase engines were removed, \
         so it has no effect",
        "warning: ignoring NDL_HOM_THREADS=\"2\": the core engine's worker threads were \
         removed, so it has no effect",
    ];
    let mut seen = Vec::new();
    while !wanted.iter().all(|w| seen.iter().any(|l: &String| l == w)) {
        let line = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("no startup warnings before any request: {seen:?}"));
        seen.push(line);
    }
    let mut client = Client::connect_unix_retry(&sock, std::time::Duration::from_secs(10))
        .expect("daemon comes up");
    let pong = client
        .call(&Request {
            op: "ping".into(),
            ..Request::default()
        })
        .expect("ping response");
    assert_eq!((pong.output.as_str(), pong.stderr.as_str()), ("pong\n", ""));
    client
        .call(&Request {
            op: "shutdown".into(),
            ..Request::default()
        })
        .expect("shutdown acknowledged");
    assert!(child.wait().expect("daemon exits").success());
    reader.join().expect("stderr reader");
    seen.extend(rx.try_iter());
    let warnings = seen.iter().filter(|l| l.starts_with("warning: ")).count();
    assert_eq!(warnings, 2, "each retired setting warns once: {seen:?}");
}

/// The incremental-session ops: `incr-edit` output is byte-identical to
/// the one-shot `ndl incr` replay of the same script, `incr-query`
/// responses are cached **epoch-correctly** (an edit that bumps an input
/// invalidates them; a repeat without edits hits), and the `stats` op
/// reports the cache generation and per-tenant invalidation counts.
#[test]
fn incr_sessions_edit_query_and_invalidate_the_response_cache() {
    let f = example("running");
    let script = concat!(
        "{\"op\":\"query\",\"q\":\"chase\"}\n",
        "{\"op\":\"insert\",\"fact\":\"S1(z)\"}\n",
        "{\"op\":\"query\",\"q\":\"chase\"}\n",
        "{\"op\":\"query\",\"q\":\"core\"}\n",
    );
    let script_path = std::env::temp_dir().join(format!(
        "ndl-parity-incr-{}.edits.jsonl",
        std::process::id()
    ));
    std::fs::write(&script_path, script).expect("write edit script");
    let (cli_stdout, _, exit) = cli(
        &[
            "incr",
            &f,
            "--edits",
            script_path.to_str().expect("utf-8 path"),
        ],
        &[],
    );
    assert_eq!(exit, 0);

    let (_sock, handle, mut client) = boot("incr", None);
    let incr = |op: &str, tenant: &str, program: Option<String>, args: &[&str]| Request {
        op: op.into(),
        tenant: tenant.into(),
        path: f.clone(),
        program,
        args: args.iter().map(|s| s.to_string()).collect(),
        ..Request::default()
    };
    let program = std::fs::read_to_string(&f).expect("program file");

    // No session yet: querying is an error, not a panic or an empty hit.
    let resp = client
        .call(&incr("incr-query", "bob", None, &["chase"]))
        .expect("response");
    assert!(!resp.ok);
    assert!(
        resp.error
            .as_deref()
            .unwrap_or("")
            .contains("no open incr session"),
        "{:?}",
        resp.error
    );

    let resp = client
        .call(&incr("incr-open", "alice", Some(program.clone()), &[]))
        .expect("response");
    assert!(resp.ok, "{:?}", resp.error);
    assert!(
        resp.output.starts_with(&format!("incr: {f}: ")),
        "{:?}",
        resp.output
    );

    // Replaying the script through the session renders exactly what the
    // one-shot CLI replay printed.
    let resp = client
        .call(&incr("incr-edit", "alice", Some(script.to_string()), &[]))
        .expect("response");
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.output, cli_stdout, "incr-edit drift vs `ndl incr`");

    // Same-epoch repeat: first query misses the response cache, the
    // repeat hits, bytes identical.
    let q1 = client
        .call(&incr("incr-query", "alice", None, &["chase"]))
        .expect("response");
    assert!(q1.ok, "{:?}", q1.error);
    assert_eq!(q1.cache, "miss");
    let q2 = client
        .call(&incr("incr-query", "alice", None, &["chase"]))
        .expect("response");
    assert_eq!(q2.cache, "hit");
    assert_eq!(q2.output, q1.output);

    // An edit that changes an input cell advances the cache epoch: the
    // cached response must not be replayed.
    let resp = client
        .call(&incr(
            "incr-edit",
            "alice",
            Some("{\"op\":\"insert\",\"fact\":\"S1(w)\"}\n".to_string()),
            &[],
        ))
        .expect("response");
    assert!(resp.ok, "{:?}", resp.error);
    let q3 = client
        .call(&incr("incr-query", "alice", None, &["chase"]))
        .expect("response");
    assert_eq!(q3.cache, "miss", "stale response replayed across an edit");
    assert!(q3.output.contains("S1(w)"), "{:?}", q3.output);
    assert_ne!(q3.output, q1.output);

    let stats = client
        .call(&Request {
            op: "stats".into(),
            ..Request::default()
        })
        .expect("stats response");
    assert!(
        stats.output.contains("\"generation\":"),
        "stats must report the cache generation: {}",
        stats.output
    );
    assert!(
        stats.output.contains("\"invalidations\":"),
        "stats must report per-tenant invalidations: {}",
        stats.output
    );

    let resp = client
        .call(&incr("incr-close", "alice", None, &[]))
        .expect("response");
    assert!(resp.ok, "{:?}", resp.error);
    let resp = client
        .call(&incr("incr-close", "alice", None, &[]))
        .expect("response");
    assert!(!resp.ok, "closing a closed session must error");

    let summary = shutdown(client, handle);
    assert!(
        summary.tenants["alice"].invalidations > 0,
        "edits that mark memos red must be accounted to the tenant: {:?}",
        summary.tenants["alice"]
    );
    let _ = std::fs::remove_file(&script_path);
}

/// A fact whose relation an earlier statement uses at another arity is a
/// chase error with one message across `ndl chase`, `ndl incr` and the
/// daemon's `chase` and `incr-edit` ops — not a worker panic — and the
/// daemon keeps serving afterwards.
#[test]
fn arity_clashes_are_errors_across_cli_daemon_and_incr() {
    let dir = std::env::temp_dir().join(format!("ndl-parity-arity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (_sock, handle, mut client) = boot("arity", None);
    for (name, src, stmt) in [
        ("facts.ndl", "fact: R(a)\nfact: R(a,b)\n", 2),
        ("tgd.ndl", "S(x) -> R(x)\nfact: S(a)\nfact: R(a,b)\n", 3),
    ] {
        let f = dir.join(name);
        std::fs::write(&f, src).expect("write program");
        let f = f.to_str().expect("utf-8 path");
        let (stdout, cli_err, code) = cli(&["chase", f], &[]);
        assert_eq!((stdout.as_str(), code), ("", 101), "{cli_err}");
        let want = format!(
            "{f} statement {stmt}: this R fact has arity 2, but an earlier statement uses R \
             with arity 1"
        );
        assert!(cli_err.contains(&format!("error: {want}\n")), "{cli_err}");
        assert!(!cli_err.contains("panicked"), "{cli_err}");
        let resp = client
            .call(&file_request("chase", f, &[]))
            .expect("daemon response");
        assert!(!resp.ok);
        assert_eq!(resp.exit, 101);
        assert_eq!(resp.error.as_deref(), Some(want.as_str()));
    }

    // An insert that clashes with the statements' arity: the session's
    // chase query reports it, as `ndl incr` on the same script does.
    let f = dir.join("session.ndl");
    std::fs::write(&f, "S(x) -> R(x)\nfact: S(a)\n").expect("write program");
    let f = f.to_str().expect("utf-8 path").to_string();
    let script = "{\"op\":\"insert\",\"fact\":\"R(a,b)\"}\n{\"op\":\"query\",\"q\":\"chase\"}\n";
    let script_path = dir.join("session.edits.jsonl");
    std::fs::write(&script_path, script).expect("write edit script");
    let (cli_stdout, cli_err, code) = cli(
        &["incr", &f, "--edits", script_path.to_str().expect("utf-8")],
        &[],
    );
    assert_eq!(code, 0, "{cli_err}");
    let want = format!(
        "== chase\nerror: {f} statement 2: this R fact has arity 2, but an earlier statement \
         uses R with arity 1\n"
    );
    assert_eq!(cli_stdout, want);
    let session = |op: &str, program: Option<String>| Request {
        op: op.into(),
        tenant: "carol".into(),
        path: f.clone(),
        program,
        ..Request::default()
    };
    let program = std::fs::read_to_string(&f).expect("program file");
    let resp = client
        .call(&session("incr-open", Some(program)))
        .expect("response");
    assert!(resp.ok, "{:?}", resp.error);
    let resp = client
        .call(&session("incr-edit", Some(script.to_string())))
        .expect("response");
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.output, cli_stdout);

    // The daemon still serves.
    let f = example("running");
    let (stdout, _, _) = cli(&["chase", &f], &[]);
    let resp = client
        .call(&file_request("chase", &f, &[]))
        .expect("daemon response");
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.output, stdout);
    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tgd refused for its arities is the same error from `ndl chase`, the
/// daemon's `chase`, `ndl incr` and the daemon's incremental session —
/// never a chase that leaves the tgd out.
#[test]
fn tgd_arity_clashes_are_errors_across_cli_daemon_and_incr() {
    let dir = std::env::temp_dir().join(format!("ndl-parity-tgd-arity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (_sock, handle, mut client) = boot("tgd-arity", None);
    for (name, src, want) in [
        (
            "after_facts.ndl",
            "fact: R(a,b)\nfact: S(a)\nS(x) -> R(x)\n",
            "statement 3: this tgd uses R with arity 1, but an earlier statement uses R with \
             arity 2",
        ),
        (
            "two_tgds.ndl",
            "S(x) -> R(x)\nT(x) -> R(x,x)\nfact: S(a)\n",
            "statement 2: this tgd uses R with arity 2, but an earlier statement uses R with \
             arity 1",
        ),
        (
            "within.ndl",
            "fact: S(a)\nS(x) & S(x,y) -> R(x)\n",
            "statement 2: this tgd uses S with arity 1 and with arity 2",
        ),
    ] {
        let f = dir.join(name);
        std::fs::write(&f, src).expect("write program");
        let f = f.to_str().expect("utf-8 path");
        let want = format!("{f} {want}");
        let (stdout, cli_err, code) = cli(&["chase", f], &[]);
        assert_eq!((stdout.as_str(), code), ("", 101), "{cli_err}");
        assert_eq!(cli_err, format!("error: {want}\n"));
        let resp = client
            .call(&file_request("chase", f, &[]))
            .expect("daemon response");
        assert!(!resp.ok);
        assert_eq!(resp.exit, 101);
        assert_eq!(resp.error.as_deref(), Some(want.as_str()));
    }

    // The incremental session renders its statements before its facts,
    // so there a tgd clashes with an earlier tgd.
    let f = dir.join("two_tgds.ndl");
    let f = f.to_str().expect("utf-8 path").to_string();
    let script = "{\"op\":\"query\",\"q\":\"chase\"}\n";
    let script_path = dir.join("session.edits.jsonl");
    std::fs::write(&script_path, script).expect("write edit script");
    let (cli_stdout, cli_err, code) = cli(
        &["incr", &f, "--edits", script_path.to_str().expect("utf-8")],
        &[],
    );
    assert_eq!(code, 0, "{cli_err}");
    let want = format!(
        "== chase\nerror: {f} statement 2: this tgd uses R with arity 2, but an earlier \
         statement uses R with arity 1\n"
    );
    assert_eq!(cli_stdout, want);
    let session = |op: &str, program: Option<String>| Request {
        op: op.into(),
        tenant: "dave".into(),
        path: f.clone(),
        program,
        ..Request::default()
    };
    let program = std::fs::read_to_string(&f).expect("program file");
    let resp = client
        .call(&session("incr-open", Some(program)))
        .expect("response");
    assert!(resp.ok, "{:?}", resp.error);
    let resp = client
        .call(&session("incr-edit", Some(script.to_string())))
        .expect("response");
    assert!(resp.ok, "{:?}", resp.error);
    assert_eq!(resp.output, cli_stdout);
    shutdown(client, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
