//! The serving workload: an in-process `bumpd` (one scheduler worker,
//! in-memory journal) behind an in-process `bumpr` (result cache) on
//! loopback, driven by one client thread in a closed loop over two
//! connections — one to the router, one straight to the daemon.
//!
//! Jobs go through `client::submit_batch_with` exactly as `bumpc`
//! sends them, and the benchmark sets no socket option, so whatever
//! the wire does to a job (today one or two ~40 ms Nagle/delayed-ACK
//! stalls per job) is in the measured latency.

use crate::check;
use crate::{derive_seed, median, ms, percentile, Outcome};
use bump_serve::client::{self, JobOutcome};
use bump_serve::cluster::Router;
use bump_serve::daemon::Daemon;
use bump_serve::journal::Journal;
use bump_serve::proto::{Frame, SubmitBatch, SubmitSpec};
use bump_serve::trace::{Span, SpanId, TraceContext, TraceId};
use bump_sim::{Engine, Preset, RunOptions};
use bump_workloads::Workload;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cells of one job: every preset × every workload.
const GRID: u64 = 42;
/// Jobs per round on each path: routed cache hits, daemon journal
/// hits, then one fresh seed through the router. A round is ~1.5 s
/// with the wire stalls, so a run makes well over 100 routed hits —
/// enough for a p90 — and more once the stalls are gone.
const ROUTED_HITS: usize = 8;
const DAEMON_HITS: usize = 4;
/// Stacks brought up per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Router cache rows: room for every fresh job a run can make.
const CACHE_ROWS: usize = 8192;

/// The three paths, in cost order, with the end-to-end tier each
/// path's median latency is reported under; indexed by the constants
/// below.
const PATHS: [(&str, &str); 3] = [
    ("routed_hit", "light"),
    ("daemon_hit", "medium"),
    ("routed_miss", "heavy"),
];
const ROUTED_HIT: usize = 0;
const DAEMON_HIT: usize = 1;
const ROUTED_MISS: usize = 2;

/// A tiny cell: one core, the 512 KB LLC, a few thousand instructions.
fn options(seed: u64) -> RunOptions {
    RunOptions {
        cores: 1,
        warmup_instructions: 2_000,
        measure_instructions: 2_000,
        max_cycles: 2_000_000,
        seed,
        small_llc: true,
        engine: Engine::Event,
    }
}

fn job_spec(seed: u64) -> SubmitSpec {
    let mut spec = SubmitSpec::new(
        Preset::all().to_vec(),
        Workload::all().to_vec(),
        options(seed),
    );
    spec.resume = true;
    spec
}

/// The reference CSV of `spec` from the in-process `bumpc --local`
/// path, one preset at a time so each preset's simulation is timed.
/// Grid order is presets outer, so the slices concatenate to the
/// whole grid's CSV.
struct Reference {
    csv: String,
    /// Host seconds of each preset's six cells, in `Preset::all` order.
    seconds: Vec<f64>,
}

fn reference(spec: &SubmitSpec) -> Reference {
    let mut csv = String::new();
    let mut seconds = Vec::new();
    for preset in Preset::all() {
        let slice = SubmitSpec {
            presets: vec![preset],
            ..spec.clone()
        };
        let t0 = Instant::now();
        let part = client::local_csv(&slice, 1);
        seconds.push(t0.elapsed().as_secs_f64());
        let (header, rows) = part.split_once('\n').unwrap_or((&part, ""));
        if csv.is_empty() {
            csv.push_str(header);
            csv.push('\n');
        }
        csv.push_str(rows);
    }
    Reference { csv, seconds }
}

/// Client-observed times of one job, from writing `submit`.
#[derive(Default)]
struct JobTimes {
    accepted: f64,
    first_cell: f64,
    stream: f64,
    done: f64,
}

fn submit(
    stream: &mut TcpStream,
    spec: &SubmitSpec,
    trace: bool,
) -> Result<(JobTimes, JobOutcome, Option<SpanId>), String> {
    let mut batch: SubmitBatch = spec.clone().into();
    let parent = trace.then(SpanId::generate);
    batch.trace = parent.map(|parent| TraceContext {
        trace: TraceId::generate(),
        parent,
    });
    let t0 = Instant::now();
    let mut times = JobTimes::default();
    let mut last = 0.0;
    let outcome = client::submit_batch_with(stream, &batch, &mut |frame| {
        let t = ms(t0.elapsed());
        match frame {
            Frame::JobAccepted { .. } => times.accepted = t,
            Frame::CellResult(_) => {
                if times.first_cell == 0.0 {
                    times.first_cell = t;
                }
                last = t;
            }
            _ => {}
        }
    })?;
    times.done = ms(t0.elapsed());
    times.stream = last - times.first_cell;
    Ok((times, outcome, parent))
}

/// One in-process daemon + router pair and the client's connections.
struct Stack {
    router: Arc<Router>,
    routed: TcpStream,
    direct: TcpStream,
}

fn bring_up(spec: &SubmitSpec, want: &str) -> Result<Stack, String> {
    let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"));
    let addr = |l: &TcpListener| {
        l.local_addr()
            .map(|a| a.to_string())
            .map_err(|e| format!("local addr: {e}"))
    };
    let daemon_listener = bind()?;
    let daemon_addr = addr(&daemon_listener)?;
    Daemon::new(1, Journal::in_memory()).spawn(daemon_listener);
    let router_listener = bind()?;
    let router_addr = addr(&router_listener)?;
    let router = Router::new(vec![daemon_addr.clone()], CACHE_ROWS);
    router.spawn(router_listener);
    let connect = |a: &str| {
        client::connect_retry(a, Duration::from_secs(10)).map_err(|e| format!("connect {a}: {e}"))
    };
    let mut routed = connect(&router_addr)?;
    let direct = connect(&daemon_addr)?;
    // The first submission through the router simulates the grid,
    // journals it in the daemon and fills the router's cache: every
    // later repeat is a hit on one of the two.
    let (_, primed, _) = submit(&mut routed, spec, false)?;
    check::same_bytes("priming job", want, &primed.to_csv())?;
    Ok(Stack {
        router,
        routed,
        direct,
    })
}

/// Samples of one path across the run.
#[derive(Default)]
struct Path {
    times: Vec<JobTimes>,
    /// Client-observed time minus the root server span, ms.
    unaccounted: Vec<f64>,
    /// Per-job summed span durations by `service.name`, ms.
    spans: Vec<Vec<(String, f64)>>,
}

fn span_ms(s: &Span) -> f64 {
    s.end_us.saturating_sub(s.start_us) as f64 / 1e3
}

/// Runs the closed loop for `budget` in whole rounds.
pub fn run(seed: u64, budget: Duration, trace: bool, out: &mut Outcome) {
    let repeat = job_spec(derive_seed(seed, 0));
    let first_ref = reference(&repeat);
    let mut preset_seconds: Vec<Vec<f64>> = first_ref.seconds.iter().map(|&s| vec![s]).collect();
    out.check(check::same_bytes(
        "per-preset reference vs whole-grid bumpc --local",
        &client::local_csv(&repeat, 1),
        &first_ref.csv,
    ));
    let want = first_ref.csv;

    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        match bring_up(&repeat, &want) {
            Ok(s) => {
                setups.push(t0.elapsed().as_secs_f64());
                stack = Some(s);
            }
            Err(e) => out.errors.push(format!("bring-up: {e}")),
        }
    }
    let Some(mut stack) = stack else { return };
    let before = stack.router.stats();

    let mut paths: [Path; 3] = Default::default();
    let mut round = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        round += 1;
        let fresh = job_spec(derive_seed(seed, round));
        let plan = std::iter::repeat_n(ROUTED_HIT, ROUTED_HITS)
            .chain(std::iter::repeat_n(DAEMON_HIT, DAEMON_HITS))
            .chain([ROUTED_MISS]);
        let mut fresh_csv = None;
        for path in plan {
            out.attempted += 1;
            let what = PATHS[path].0;
            let (spec, expect_dispatch) = match path {
                ROUTED_MISS => (&fresh, GRID),
                _ => (&repeat, 0),
            };
            let stats = stack.router.stats();
            let conn = match path {
                DAEMON_HIT => &mut stack.direct,
                _ => &mut stack.routed,
            };
            let (times, outcome, parent) = match submit(conn, spec, trace) {
                Ok(done) => done,
                Err(e) => {
                    out.failed += 1;
                    eprintln!("perfbench: {what} job failed: {e}");
                    continue;
                }
            };
            if path == DAEMON_HIT {
                let journaled = outcome.cached() as u64;
                out.check(check::exact_count(
                    &format!("{what} journal hits"),
                    journaled,
                    GRID,
                ));
            } else {
                let dispatched = stack.router.stats().dispatched_cells - stats.dispatched_cells;
                out.check(check::exact_count(
                    &format!("{what} dispatched"),
                    dispatched,
                    expect_dispatch,
                ));
            }
            if path == ROUTED_MISS {
                fresh_csv = Some(outcome.to_csv());
            } else {
                out.check(check::same_bytes(what, &want, &outcome.to_csv()));
            }
            let p = &mut paths[path];
            if let Some(parent) = parent {
                let root = outcome
                    .spans
                    .iter()
                    .find(|s| s.parent == Some(parent))
                    .map(span_ms);
                match root {
                    Some(root) => p.unaccounted.push(times.done - root),
                    None => out
                        .errors
                        .push(format!("{what}: traced job has no root span")),
                }
                let mut sums: Vec<(String, f64)> = Vec::new();
                for s in &outcome.spans {
                    let key = format!("{}.{}", s.service, s.name);
                    match sums.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, v)) => *v += span_ms(s),
                        None => sums.push((key, span_ms(s))),
                    }
                }
                p.spans.push(sums);
            }
            p.times.push(times);
        }
        // References are built after the timed jobs, so they never
        // compete with them for the host. Rebuilding the repeat job's
        // reference each round doubles the local-path timing samples
        // and checks that the local path repeats itself.
        let fresh_ref = reference(&fresh);
        let repeat_ref = reference(&repeat);
        out.check(check::same_bytes(
            "bumpc --local repeat",
            &want,
            &repeat_ref.csv,
        ));
        for r in [&fresh_ref, &repeat_ref] {
            for (samples, s) in preset_seconds.iter_mut().zip(&r.seconds) {
                samples.push(*s);
            }
        }
        if let Some(got) = fresh_csv {
            out.check(check::same_bytes("routed_miss", &fresh_ref.csv, &got));
        }
    }
    let after = stack.router.stats();

    if !trace {
        out.metric("setup_s", median(&setups), "s");
        let opts = options(0);
        let instr = ((opts.warmup_instructions + opts.measure_instructions)
            * Workload::all().len() as u64) as f64;
        for (preset, key, _) in crate::sim::CELLS {
            let i = Preset::all().iter().position(|&p| p == preset).unwrap_or(0);
            out.metric(
                format!("sim_minstr_per_s.{key}"),
                instr / crate::fastest(&preset_seconds[i]) / 1e6,
                "Minstr/s",
            );
        }
        for (p, (_, tier)) in paths.iter().zip(PATHS) {
            let done: Vec<f64> = p.times.iter().map(|t| t.done).collect();
            out.metric(format!("{tier}_op_ms"), median(&done), "ms");
        }
        return;
    }

    for (p, (path, _)) in paths.iter().zip(PATHS) {
        let col = |f: fn(&JobTimes) -> f64| p.times.iter().map(f).collect::<Vec<f64>>();
        out.metric(
            format!("client.accepted_ms.{path}"),
            median(&col(|t| t.accepted)),
            "ms",
        );
        out.metric(
            format!("client.first_cell_ms.{path}"),
            median(&col(|t| t.first_cell)),
            "ms",
        );
        out.metric(
            format!("client.stream_ms.{path}"),
            median(&col(|t| t.stream)),
            "ms",
        );
        out.metric(
            format!("client.done_ms.{path}"),
            median(&col(|t| t.done)),
            "ms",
        );
        out.metric(
            format!("wire.unaccounted_ms.{path}"),
            median(&p.unaccounted),
            "ms",
        );
        if path == "routed_hit" {
            out.metric(
                "client.done_ms.routed_hit.p90",
                percentile(&col(|t| t.done), 0.9),
                "ms",
            );
        }
        for (service, span) in SERVER_SPANS {
            if !span_on_path(service, span, path) {
                continue;
            }
            let key = format!("{service}.{span}");
            let per_job: Vec<f64> = p
                .spans
                .iter()
                .map(|sums| {
                    sums.iter()
                        .find(|(k, _)| *k == key)
                        .map_or(0.0, |(_, v)| *v)
                })
                .collect();
            out.metric(
                format!("{service}.{span}_ms.{path}"),
                median(&per_job),
                "ms",
            );
        }
    }
    out.metric(
        "bumpr.cache_hit_cells",
        (after.cache_hit_cells - before.cache_hit_cells) as f64,
        "count",
    );
    out.metric(
        "bumpr.dispatched_cells",
        (after.dispatched_cells - before.dispatched_cells) as f64,
        "count",
    );
}

/// The server spans the traced run reads, by service.
const SERVER_SPANS: [(&str, &str); 9] = [
    ("bumpr", "route_job"),
    ("bumpr", "cache_lookup"),
    ("bumpr", "dispatch"),
    ("bumpr", "reorder_merge"),
    ("bumpd", "run_job"),
    ("bumpd", "journal_lookup"),
    ("bumpd", "queue_wait"),
    ("bumpd", "cell_execute"),
    ("bumpd", "journal_append"),
];

/// Whether `service.span` occurs on `path`: a router cache hit never
/// reaches the daemon, a daemon hit never passes the router, and only
/// a miss dispatches, merges and simulates.
fn span_on_path(service: &str, span: &str, path: &str) -> bool {
    match path {
        "routed_hit" => service == "bumpr" && matches!(span, "route_job" | "cache_lookup"),
        "daemon_hit" => service == "bumpd" && matches!(span, "run_job" | "journal_lookup"),
        _ => true,
    }
}

/// The per-layer metric names (and units) this module reports.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (path, _) in PATHS {
        for m in ["accepted", "first_cell", "stream", "done"] {
            names.push((format!("client.{m}_ms.{path}"), "ms"));
        }
        names.push((format!("wire.unaccounted_ms.{path}"), "ms"));
        if path == "routed_hit" {
            names.push(("client.done_ms.routed_hit.p90".to_string(), "ms"));
        }
        for (service, span) in SERVER_SPANS {
            if span_on_path(service, span, path) {
                names.push((format!("{service}.{span}_ms.{path}"), "ms"));
            }
        }
    }
    names.push(("bumpr.cache_hit_cells".into(), "count"));
    names.push(("bumpr.dispatched_cells".into(), "count"));
    names
}
