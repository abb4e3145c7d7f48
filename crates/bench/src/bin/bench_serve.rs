//! Stress-drives the `ndl-serve` daemon and asserts **byte-identity**
//! with the one-shot CLI on every response. The daemon is booted
//! in-process on a temp Unix socket with a deliberately small queue (so
//! backpressure is exercised, not just configured); a fleet of client
//! threads then replays thousands of concurrent requests mixed across
//! every served op — lint, analyze (plain/JSON/schedule/dataflow), chase
//! (file, inline, budget-clamped, per-request engine config), implies,
//! equiv and classify — under four tenants.
//!
//! The oracle for each request template is the real `ndl` binary (found
//! next to this executable, or via `NDL_BIN`), invoked once per template
//! with the *effective* arguments: for the budget-clamped template the
//! daemon clamps `--budget 100000` to its ceiling of 64, so the oracle
//! runs with `--budget 64`; for the per-request-config template the
//! oracle runs with the matching `NDL_CHASE_*` environment. Every one of
//! the ~1000+ responses must match its oracle's stdout, stderr and exit
//! code byte for byte, or the run fails.
//!
//! The results land in `BENCH_serve.json` (committed under
//! `experiments/`; see `docs/serve.md`): per-template identity, total
//! throughput, the daemon's cache hit rate, and per-tenant budget
//! refusals (which are also asserted against the driver's own count).
//!
//! `--smoke` runs a reduced fleet (still mixed, still byte-compared) for
//! CI; pass an output directory as the first positional argument to
//! write elsewhere (default `target/experiments`).

use ndl_bench::ExperimentRecord;
use ndl_serve::client::Client;
use ndl_serve::proto::{Request, RequestConfig};
use ndl_serve::server::{serve, Endpoint, ServeOptions};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

const EXAMPLES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");

/// The daemon's per-tenant step-budget ceiling for this run. Requests
/// asking for more are clamped (and counted as refusals).
const CEILING: usize = 64;

/// One request template: what the clients send, and how to invoke the
/// CLI oracle for the byte-identical expectation.
struct Template {
    name: &'static str,
    op: &'static str,
    /// Program file (absolute), for ops that take one.
    file: Option<String>,
    /// Args the daemon request carries.
    request_args: Vec<String>,
    /// Args the oracle CLI runs with (differs only for the clamped
    /// budget template).
    oracle_args: Vec<String>,
    /// Environment for the oracle (per-request config equivalents).
    oracle_env: Vec<(&'static str, &'static str)>,
    /// Per-request engine config sent with the daemon request.
    config: Option<RequestConfig>,
    /// Does the daemon clamp this request's budget (a refusal)?
    clamped: bool,
}

struct Expected {
    stdout: String,
    stderr: String,
    exit: u8,
}

fn svec(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn templates() -> Vec<Template> {
    let path = |name: &str| format!("{EXAMPLES}/{name}.ndl");
    let plain = |name: &'static str, op: &'static str, file: &str, args: &[&str]| Template {
        name,
        op,
        file: Some(path(file)),
        request_args: svec(args),
        oracle_args: svec(args),
        oracle_env: Vec::new(),
        config: None,
        clamped: false,
    };
    let inline = |name: &'static str, op: &'static str, args: &[&str]| Template {
        name,
        op,
        file: None,
        request_args: svec(args),
        oracle_args: svec(args),
        oracle_env: Vec::new(),
        config: None,
        clamped: false,
    };
    vec![
        plain("lint/pipeline.json", "lint", "pipeline", &["--json"]),
        plain("lint/running", "lint", "running", &[]),
        plain("analyze/running", "analyze", "running", &[]),
        plain("analyze/pipeline.json", "analyze", "pipeline", &["--json"]),
        plain(
            "analyze/recursive.schedule",
            "analyze",
            "recursive",
            &["--schedule", "--json"],
        ),
        plain(
            "analyze/running.dataflow",
            "analyze",
            "running",
            &["--dataflow", "--json"],
        ),
        plain("chase/running", "chase", "running", &[]),
        plain(
            "chase/running.stats",
            "chase",
            "running",
            &["--stats", "--no-timings"],
        ),
        plain(
            "chase/pipeline.naive",
            "chase",
            "pipeline",
            &["--stats", "--no-timings", "--no-delta"],
        ),
        // The daemon clamps the requested budget to its ceiling; the
        // oracle runs with the effective (clamped) budget.
        Template {
            name: "chase/recursive.clamped",
            op: "chase",
            file: Some(path("recursive")),
            request_args: svec(&["--budget", "100000"]),
            oracle_args: svec(&["--budget", "64"]),
            oracle_env: Vec::new(),
            config: None,
            clamped: true,
        },
        // Per-request engine config (the PR 9 config fix, server-side):
        // this request runs the naive engine while its neighbors run the
        // delta default, in the same process.
        Template {
            name: "chase/running.naive-cfg",
            op: "chase",
            file: Some(path("running")),
            request_args: svec(&["--stats", "--no-timings"]),
            oracle_args: svec(&["--stats", "--no-timings"]),
            oracle_env: vec![("NDL_CHASE_DELTA", "0")],
            config: Some(RequestConfig {
                delta: Some(false),
                retired: Vec::new(),
            }),
            clamped: false,
        },
        inline(
            "chase/inline.core",
            "chase",
            &[
                "--tgd",
                "forall x,y (E(x,y) -> exists z (R(x,z)))",
                "--fact",
                "E(a,b)",
                "--fact",
                "E(b,c)",
                "--core",
            ],
        ),
        inline(
            "implies/self",
            "implies",
            &[
                "--premise",
                "forall x,y (E(x,y) -> exists z (R(x,z) & S(z,y)))",
                "--conclusion",
                "forall x,y (E(x,y) -> exists z R(x,z))",
            ],
        ),
        inline(
            "equiv/renamed",
            "equiv",
            &[
                "--left",
                "forall x,y (E(x,y) -> exists z R(x,z))",
                "--right",
                "forall a,b (E(a,b) -> exists w R(a,w))",
            ],
        ),
        inline(
            "classify/nested",
            "classify",
            &[
                "--tgd",
                "forall x (P(x) -> exists y (Q(x,y) & forall z (R(x,z) -> Q(z,y))))",
            ],
        ),
    ]
}

/// Locates the real `ndl` binary: `NDL_BIN`, or the sibling of this
/// executable (both live in the same cargo target profile dir).
fn ndl_bin() -> PathBuf {
    if let Ok(p) = std::env::var("NDL_BIN") {
        return p.into();
    }
    let exe = std::env::current_exe().expect("current_exe");
    let sibling = exe.parent().expect("target dir").join("ndl");
    assert!(
        sibling.exists(),
        "ndl binary not found at {} — build the `ndl` bin first or set NDL_BIN",
        sibling.display()
    );
    sibling
}

/// Runs the one-shot CLI oracle for a template.
fn oracle(bin: &PathBuf, t: &Template) -> Expected {
    let mut cmd = Command::new(bin);
    cmd.arg(t.op);
    if let Some(f) = &t.file {
        cmd.arg(f);
    }
    cmd.args(&t.oracle_args);
    for (k, v) in &t.oracle_env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("oracle ndl run");
    Expected {
        stdout: String::from_utf8(out.stdout).expect("oracle stdout is UTF-8"),
        stderr: String::from_utf8(out.stderr).expect("oracle stderr is UTF-8"),
        exit: out.status.code().expect("oracle exit code") as u8,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| ExperimentRecord::default_dir().display().to_string());

    let (clients, per_client) = if smoke { (8, 12) } else { (32, 40) };
    let tenants = ["alpha", "beta", "gamma", "default"];
    let tpls = templates();
    let bin = ndl_bin();

    println!(
        "bench_serve: {} clients x {} requests over {} templates{}",
        clients,
        per_client,
        tpls.len(),
        if smoke { " (smoke)" } else { "" }
    );

    // Phase 1: oracle runs — one per template, before the daemon starts.
    let expected: Vec<Expected> = tpls.iter().map(|t| oracle(&bin, t)).collect();
    let programs: Vec<Option<String>> = tpls
        .iter()
        .map(|t| {
            t.file
                .as_ref()
                .map(|f| std::fs::read_to_string(f).expect("program file"))
        })
        .collect();

    // Phase 2: boot the daemon on a temp socket. Queue is deliberately
    // smaller than the client fleet so backpressure is exercised.
    let sock = std::env::temp_dir().join(format!("ndl-bench-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let opts = ServeOptions {
        endpoint: Endpoint::Unix(sock.clone()),
        workers: 4,
        queue: 16,
        cache_bytes: 16 << 20,
        budget: Some(CEILING),
        telemetry: None,
    };
    let server = std::thread::spawn(move || serve(opts).expect("daemon run"));

    // Phase 3: the storm. Each client thread owns one connection and a
    // fixed tenant, cycling through the templates at its own offset.
    let total = clients * per_client;
    let mismatches: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let mut expected_refusals: BTreeMap<&str, u64> = BTreeMap::new();
    for c in 0..clients {
        for i in 0..per_client {
            if tpls[(c * 7 + i) % tpls.len()].clamped {
                *expected_refusals
                    .entry(tenants[c % tenants.len()])
                    .or_default() += 1;
            }
        }
    }
    let started = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let tpls = &tpls;
            let expected = &expected;
            let programs = &programs;
            let mismatches = &mismatches;
            let sock = &sock;
            let tenant = tenants[c % tenants.len()];
            s.spawn(move || {
                let mut client =
                    Client::connect_unix_retry(sock, std::time::Duration::from_secs(10))
                        .expect("client connect");
                for i in 0..per_client {
                    let k = (c * 7 + i) % tpls.len();
                    let t = &tpls[k];
                    let req = Request {
                        id: (c * 100_000 + i) as u64,
                        tenant: tenant.to_string(),
                        op: t.op.to_string(),
                        path: t.file.clone().unwrap_or_else(|| "<request>".to_string()),
                        program: programs[k].clone(),
                        args: t.request_args.clone(),
                        config: t.config.clone(),
                    };
                    let resp = client.call(&req).expect("daemon response");
                    let e = &expected[k];
                    if resp.output != e.stdout
                        || resp.stderr != e.stderr
                        || resp.exit != e.exit
                        || !resp.ok
                    {
                        mismatches.lock().unwrap().push(format!(
                            "{}: exit {} vs {}, output {} vs {} bytes",
                            t.name,
                            resp.exit,
                            e.exit,
                            resp.output.len(),
                            e.stdout.len()
                        ));
                    }
                }
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();

    // Phase 4: shut the daemon down and collect its own accounting.
    let mut control = Client::connect_unix(&sock).expect("control connect");
    control
        .call(&Request {
            op: "shutdown".to_string(),
            tenant: "control".to_string(),
            ..Request::default()
        })
        .expect("shutdown acknowledged");
    let summary = server.join().expect("daemon thread");

    let mismatches = mismatches.into_inner().unwrap();
    let mut all_ok = mismatches.is_empty();
    for m in mismatches.iter().take(10) {
        println!("MISMATCH {m}");
    }

    // The daemon's refusal accounting must agree with the driver's own
    // count of clamped requests, tenant by tenant.
    for (tenant, want) in &expected_refusals {
        let got = summary
            .tenants
            .get(*tenant)
            .map_or(0, |t| t.budget_refusals);
        if got != *want {
            println!("MISMATCH refusals[{tenant}]: daemon {got} vs driver {want}");
            all_ok = false;
        }
    }

    let served: u64 = summary.tenants.values().map(|t| t.requests).sum::<u64>() - 1; // minus the control shutdown
    if served != total as u64 {
        println!("MISMATCH served {served} vs sent {total}");
        all_ok = false;
    }

    let hits = summary.cache_hits;
    let misses = summary.cache_misses;
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let refusals: u64 = summary.tenants.values().map(|t| t.budget_refusals).sum();
    let exhausted: u64 = summary.tenants.values().map(|t| t.budget_exhausted).sum();

    let mut record = ExperimentRecord::new(
        "BENCH_serve",
        "ndl-serve daemon under a concurrent mixed-request storm, every response byte-compared to the one-shot CLI",
        "daemon responses are byte-identical to the CLI; the queue is bounded (16 slots for up to 32 clients) and per-tenant budget ceilings clamp and account refusals",
    );
    for (k, t) in tpls.iter().enumerate() {
        let count = (0..clients)
            .map(|c| {
                (0..per_client)
                    .filter(|i| (c * 7 + i) % tpls.len() == k)
                    .count()
            })
            .sum::<usize>();
        record.row(&[
            ("template", t.name.to_string()),
            ("op", t.op.to_string()),
            ("requests", count.to_string()),
            ("oracle_exit", expected[k].exit.to_string()),
            ("oracle_bytes", expected[k].stdout.len().to_string()),
            ("clamped", t.clamped.to_string()),
        ]);
    }
    record.row(&[
        ("total_requests", total.to_string()),
        ("clients", clients.to_string()),
        ("workers", "4".to_string()),
        ("queue", "16".to_string()),
        ("budget_ceiling", CEILING.to_string()),
        ("wall_s", format!("{wall:.3}")),
        ("req_per_s", format!("{:.0}", total as f64 / wall)),
        ("cache_hits", hits.to_string()),
        ("cache_misses", misses.to_string()),
        ("cache_evictions", summary.cache_evictions.to_string()),
        ("cache_hit_rate", format!("{hit_rate:.4}")),
        ("budget_refusals", refusals.to_string()),
        ("budget_exhausted", exhausted.to_string()),
        ("mismatches", mismatches.len().to_string()),
        ("smoke", smoke.to_string()),
    ]);
    record.passed = all_ok;

    println!(
        "\n=> {total} requests in {wall:.2}s ({:.0} req/s), cache hit rate {:.1}%, {refusals} budget refusals; byte-identity: {}",
        total as f64 / wall,
        hit_rate * 100.0,
        if all_ok { "pass" } else { "FAIL" }
    );
    let path = record
        .write_to(std::path::Path::new(&out_dir))
        .expect("record written");
    println!("record: {}", path.display());
    if !all_ok {
        std::process::exit(1);
    }
}
