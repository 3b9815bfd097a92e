//! `loadbench`: the repository benchmark.
//!
//! Runs one workload against the real serving stack in closed loop, checks
//! every request's result, and prints one JSON line of metrics:
//!
//! ```text
//! loadbench --workload <offload-tcp|quant-tcp|cluster-inproc> --seed <n>
//!           --seconds <n> --trace <0|1> [--server-bin <path to loadpart>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` the per-layer
//! ones, measured by wrapping the public `PartitionPolicy` and
//! `FrameChannel` traits and reading `/proc` and the telemetry registry.
//! See `README.md` beside this crate for the metric definitions.

mod client;
mod inputs;
mod metrics;
mod procfs;
mod samplelog;
mod servers;
mod stats;
mod trace;
mod workloads;

use client::{Cmd, Phase, PhaseStats, Reply, Worker, CLIENT_THREAD_PREFIX};
use loadpart::Telemetry;
use lp_graph::ComputationGraph;
use lp_json::Json;
use metrics::{end_to_end, per_layer, ratio, Metric, Pooled};
use procfs::Usage;
use samplelog::SampleLog;
use servers::{ServeProcess, Servers};
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{StageTotals, Tracer};
use workloads::{Material, Workload};

/// Set-ups per run, each measured for an equal share of the run.
const SETUPS: usize = 20;
/// Host steal share (CPU time the hypervisor gave to other guests while
/// this one wanted it) above which a set-up's measurement is repeated on
/// a fresh set-up. Undisturbed measurements see well under 1 %.
const STEAL_LIMIT: f64 = 0.02;
/// Most extra set-ups a run measures because of steal; the run then keeps
/// the `SETUPS` least disturbed ones.
const MAX_REMEASURED: usize = 10;
/// Client sessions (threads, and sockets on the TCP workloads), capped at
/// the core count.
const MAX_SESSIONS: usize = 2;
/// Spans kept per session, about two seconds of traced requests; later
/// spans are counted as dropped, and the stage totals stay exact.
const SPANS_PER_SESSION: usize = 50_000;
/// Largest first-half/second-half throughput difference of a steady run:
/// the `throughput_rps` bound of `BENCHMARK.json`.
const STEADY_BOUND: f64 = 0.25;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = "target/release/loadpart".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(num(value)?),
            "--seconds" => seconds = Some(num(value)?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--server-bin" => server_bin = value.to_string(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(2..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 2..=600, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        server_bin,
    })
}

// ---------------------------------------------------------------------
// The run

/// What one measured phase saw.
struct PhaseOutcome {
    tag: u8,
    stats: Vec<PhaseStats>,
    start: Instant,
    mid: Instant,
    wall: Duration,
    own: Usage,
    serve: Usage,
    server_side: Usage,
    pool: (u64, u64),
    copied: u64,
    /// Host CPU ticks `(total, idle, steal)` over the phase.
    host: (u64, u64, u64),
    telemetry: Option<Telemetry>,
    stages: StageTotals,
}

impl PhaseOutcome {
    fn sum(&self, f: impl Fn(&PhaseStats) -> u64) -> u64 {
        self.stats.iter().map(f).sum()
    }

    fn completed(&self) -> u64 {
        self.sum(|s| s.attempted)
    }

    /// Throughput in the first and second half of the phase.
    fn halves(&self) -> (f64, f64) {
        let first = self.sum(|s| s.first_half);
        let half = (self.mid - self.start).as_secs_f64();
        let second_wall = self.wall.as_secs_f64() - half;
        (
            first as f64 / half,
            (self.completed() - first) as f64 / second_wall,
        )
    }
}

struct Run<'a> {
    args: &'a Args,
    sessions: usize,
    cmd: Vec<Sender<Cmd>>,
    replies: Receiver<(usize, Reply)>,
    tracers: Vec<Arc<Tracer>>,
}

impl Run<'_> {
    fn broadcast(&self, mut make: impl FnMut(usize) -> Cmd) -> Result<Vec<Reply>, String> {
        for (i, tx) in self.cmd.iter().enumerate() {
            tx.send(make(i))
                .map_err(|_| "client thread exited".to_string())?;
        }
        let mut out: Vec<Option<Reply>> = (0..self.sessions).map(|_| None).collect();
        for _ in 0..self.sessions {
            let (i, r) = self
                .replies
                .recv()
                .map_err(|_| "client thread exited".to_string())?;
            out[i] = Some(r);
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("one reply each"))
            .collect())
    }

    fn setup(&self, graph: &Arc<ComputationGraph>) -> Result<(Servers, Duration), String> {
        let t0 = Instant::now();
        let (user, edge) =
            loadpart::system::trained_models(workloads::MODEL_SAMPLES, workloads::MODEL_SEED);
        let servers = Servers::start(self.args, graph, &edge)?;
        let mut materials = Vec::with_capacity(self.sessions);
        for i in 0..self.sessions {
            materials.push(Some(Box::new(Material {
                workload: self.args.workload,
                graph: Arc::clone(graph),
                user: user.clone(),
                edge: edge.clone(),
                seed: self.args.seed,
                session: i as u64,
                conn: servers.connect()?,
            })));
        }
        for r in self.broadcast(|i| Cmd::Setup(materials[i].take().expect("one each")))? {
            if let Reply::Ready(Err(e)) = r {
                return Err(e);
            }
        }
        Ok((servers, t0.elapsed()))
    }

    fn offloads(replies: Vec<Reply>) -> u64 {
        replies
            .into_iter()
            .map(|r| match r {
                Reply::Retired { offloads } => offloads,
                _ => unreachable!("retire answers Retired"),
            })
            .sum()
    }

    fn measure(
        &self,
        servers: &Servers,
        tag: u8,
        secs: f64,
        traced: bool,
    ) -> Result<PhaseOutcome, String> {
        let me = std::process::id();
        let own0 = procfs::process_usage(me)?;
        let serve0 = servers.pid().map(procfs::process_usage).transpose()?;
        let side0 = servers.usage()?;
        let pool0 = loadpart::pool::stats();
        let copied0 = loadpart::framing_bytes_copied();
        let host0 = procfs::host_cpu()?;
        let telemetry = traced.then(Telemetry::enabled);
        let stages0 = self.stage_totals();
        for t in &self.tracers {
            t.set_enabled(traced);
        }
        let start = Instant::now();
        let mid = start + Duration::from_secs_f64(secs / 2.0);
        let end = start + Duration::from_secs_f64(secs);
        let stats: Vec<PhaseStats> = self
            .broadcast(|_| {
                Cmd::Measure(Phase {
                    tag,
                    mid,
                    end,
                    telemetry: telemetry.clone(),
                })
            })?
            .into_iter()
            .map(|r| match r {
                Reply::Measured(s) => s,
                _ => unreachable!("measure answers Measured"),
            })
            .collect();
        for t in &self.tracers {
            t.set_enabled(false);
        }
        let last = stats.iter().filter_map(|s| s.finish).max().unwrap_or(end);
        let own = procfs::process_usage(me)?.since(&own0);
        let serve = match (servers.pid(), serve0) {
            (Some(pid), Some(before)) => procfs::process_usage(pid)?.since(&before),
            _ => Usage::default(),
        };
        let server_side = servers.usage()?.since(&side0);
        let pool1 = loadpart::pool::stats();
        let host1 = procfs::host_cpu()?;
        let stages = self.stage_totals().since(&stages0);
        Ok(PhaseOutcome {
            tag,
            stats,
            start,
            mid,
            wall: last - start,
            own,
            serve,
            server_side,
            pool: (pool1.0 - pool0.0, pool1.1 - pool0.1),
            copied: loadpart::framing_bytes_copied() - copied0,
            host: (host1.0 - host0.0, host1.1 - host0.1, host1.2 - host0.2),
            telemetry,
            stages,
        })
    }

    fn stage_totals(&self) -> StageTotals {
        let mut t = StageTotals::default();
        for tr in &self.tracers {
            t.add(&tr.totals());
        }
        t
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    report: Vec<(String, Json)>,
    text: String,
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn environment(args: &Args, sessions: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let serve = if args.workload.uses_serve_process() {
        ServeProcess::command_line(&args.server_bin, args.workload.model()).join(" ")
    } else {
        "none (three in-process servers)".to_string()
    };
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("kernel".into(), Json::Str(kernel)),
        (
            "rustc".into(),
            Json::Str(command_output("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Json::Str(command_output(
                "git",
                &["--git-dir=.git", "rev-parse", "HEAD"],
            )),
        ),
        (
            "transport".into(),
            Json::Str(args.workload.transport().into()),
        ),
        ("serve".into(), Json::Str(serve)),
        ("model".into(), Json::Str(args.workload.model().into())),
        ("sessions".into(), Json::Num(sessions as f64)),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
    ])
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sessions = MAX_SESSIONS.min(nproc);
    let graph = Arc::new(
        lp_models::by_name(args.workload.model(), 1)
            .ok_or_else(|| format!("model {} missing from the zoo", args.workload.model()))?,
    );
    let epoch = Instant::now();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let tracers: Vec<Arc<Tracer>> = if args.trace {
        (0..sessions)
            .map(|_| Tracer::new(epoch, SPANS_PER_SESSION))
            .collect()
    } else {
        Vec::new()
    };
    let (reply_tx, replies) = channel();
    std::thread::scope(|scope| -> Result<Outcome, String> {
        let mut cmd = Vec::with_capacity(sessions);
        for index in 0..sessions {
            let (tx, rx) = channel::<Cmd>();
            cmd.push(tx);
            let tracer = tracers.get(index).cloned();
            let log_path = out_dir().join(format!("samples-{}-{index}.bin", std::process::id()));
            let log = SampleLog::create(log_path.clone())
                .map_err(|e| format!("{}: {e}", log_path.display()))?;
            let reply_tx = reply_tx.clone();
            std::thread::Builder::new()
                .name(format!("{CLIENT_THREAD_PREFIX}{index}"))
                .spawn_scoped(scope, move || {
                    // Built on its own thread: sessions over in-process
                    // channels are not `Send`.
                    Worker::new(index, tracer, log).run(&rx, &reply_tx);
                })
                .map_err(|e| format!("cannot spawn a client thread: {e}"))?;
        }
        let run = Run {
            args,
            sessions,
            cmd,
            replies,
            tracers: tracers.clone(),
        };
        // Dropping `run` closes the command channels, which ends the
        // client threads; the scope then joins them.
        measure_workload(&run, &graph)
    })
}

fn measure_workload(run: &Run<'_>, graph: &Arc<ComputationGraph>) -> Result<Outcome, String> {
    let args = run.args;
    let tcp = args.workload.uses_serve_process();
    let mut server_errors = Vec::new();
    // Each set-up is measured for an equal share of the run: a server
    // process settles into one of several speeds for its lifetime, and
    // many set-ups per run steady the result.
    let share = args.seconds as f64 / SETUPS as f64;
    // One entry per set-up: host steal share, set-up time, measurements.
    let mut measured: Vec<(f64, f64, Vec<PhaseOutcome>)> = Vec::new();
    let mut rss_kib = 0;
    let mut tag = 0;
    let mut finished = Vec::new();
    loop {
        let (servers, took) = run.setup(graph)?;
        let mut segments = Vec::with_capacity(2);
        if args.trace {
            segments.push(run.measure(&servers, tag + 1, share / 2.0, false)?);
            segments.push(run.measure(&servers, tag + 2, share / 2.0, true)?);
            tag += 2;
        } else {
            segments.push(run.measure(&servers, tag + 1, share, false)?);
            tag += 1;
        }
        let mut kib = procfs::peak_rss_kib(std::process::id())?;
        if let Some(pid) = servers.pid() {
            kib += procfs::peak_rss_kib(pid)?;
        }
        rss_kib = rss_kib.max(kib);
        let (host, stolen) = segments
            .iter()
            .fold((0, 0), |(t, st), p| (t + p.host.0, st + p.host.2));
        let steal = ratio(stolen as f64, host as f64);
        let calm = measured.iter().filter(|m| m.0 <= STEAL_LIMIT).count()
            + usize::from(steal <= STEAL_LIMIT);
        let last = calm == SETUPS || measured.len() + 1 == SETUPS + MAX_REMEASURED;
        let shutdown = |i: usize| tcp && i == 0;
        let sent = if last {
            finished = run
                .broadcast(|i| Cmd::Finish {
                    shutdown: shutdown(i),
                })?
                .into_iter()
                .map(|r| match r {
                    Reply::Finished(f) => *f,
                    _ => unreachable!("finish answers Finished"),
                })
                .collect();
            finished.iter().map(|f| f.offloads).sum()
        } else {
            Run::offloads(run.broadcast(|i| Cmd::Retire {
                shutdown: shutdown(i),
            })?)
        };
        if let Err(e) = servers.finish(sent) {
            server_errors.push(e);
        }
        measured.push((steal, took.as_secs_f64(), segments));
        if last {
            break;
        }
    }
    // The metrics come from the SETUPS least disturbed set-ups; the others
    // still count in `attempted`, `failed` and `success_ratio`.
    let mut order: Vec<usize> = (0..measured.len()).collect();
    order.sort_by(|&a, &b| measured[a].0.total_cmp(&measured[b].0));
    let mut kept = vec![false; measured.len()];
    for &i in order.iter().take(SETUPS) {
        kept[i] = true;
    }
    let remeasured = measured.len() - SETUPS.min(measured.len());
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut untraced = Vec::with_capacity(SETUPS);
    let mut traced = Vec::with_capacity(SETUPS);
    let mut disturbed = Vec::new();
    for ((_, took, segments), keep) in measured.into_iter().zip(kept) {
        if keep {
            setup_times.push(took);
            let mut segments = segments.into_iter();
            untraced.extend(segments.next());
            traced.extend(segments.next());
        } else {
            disturbed.extend(segments);
        }
    }
    let gate_errors: u64 =
        finished.iter().map(|f| f.gate_errors).sum::<u64>() + server_errors.len() as u64;
    let mut quoted: Vec<String> = finished.iter().flat_map(|f| f.quoted.clone()).collect();
    quoted.extend(server_errors);

    let untraced = Pooled(&untraced);
    let traced = Pooled(&traced);
    let disturbed = Pooled(&disturbed);
    let attempted = untraced.completed() + traced.completed() + disturbed.completed();
    let failed =
        untraced.sum(|s| s.failed) + traced.sum(|s| s.failed) + disturbed.sum(|s| s.failed);

    let mut report = vec![
        (
            "workload".to_string(),
            Json::Str(args.workload.name().into()),
        ),
        ("env".to_string(), environment(args, run.sessions)),
        (
            "setup_s".to_string(),
            Json::Arr(setup_times.iter().map(|&t| Json::Num(t)).collect()),
        ),
        (
            "remeasured_setups".to_string(),
            Json::Num(remeasured as f64),
        ),
        ("gate_errors".to_string(), Json::Num(gate_errors as f64)),
        (
            "gate_quoted".to_string(),
            Json::Arr(quoted.iter().map(|q| Json::Str(q.clone())).collect()),
        ),
    ];
    // A warm-up that is too short shows as the same drift in every
    // segment, so the check takes the median drift over segments.
    let mut halves = Vec::new();
    let mut drifts = Vec::new();
    for seg in untraced.0 {
        let (first, second) = seg.halves();
        drifts.push(second / first - 1.0);
        halves.push(Json::Arr(vec![Json::Num(first), Json::Num(second)]));
    }
    let drift = stats::median(&drifts).expect("at least one segment");
    let steady = drift.abs() <= STEADY_BOUND;
    if !steady {
        eprintln!(
            "warning: throughput moved by {:+.1} % between the halves of the median measured \
             segment; warm-up was too short",
            drift * 100.0
        );
    }
    report.push((
        "steady_state".to_string(),
        Json::Obj(vec![
            ("halves_rps".into(), Json::Arr(halves)),
            ("median_drift".into(), Json::Num(drift)),
            ("steady".into(), Json::Bool(steady)),
        ]),
    ));
    let host = untraced.total(|p| p.host.0);
    report.push((
        "host_cpu".to_string(),
        Json::Obj(vec![
            (
                "idle_share".into(),
                Json::Num(ratio(untraced.total(|p| p.host.1), host)),
            ),
            (
                "steal_share".into(),
                Json::Num(ratio(untraced.total(|p| p.host.2), host)),
            ),
        ]),
    ));

    let mut text = String::new();
    let metrics = if args.trace {
        let (metrics, table) = per_layer(&untraced, &traced);
        text = table;
        write_spans(args, &run.tracers)?;
        report.push((
            "spans_dropped".to_string(),
            Json::Num(run.tracers.iter().map(|t| t.dropped()).sum::<u64>() as f64),
        ));
        metrics
    } else {
        let ok = untraced.sum(|s| s.ok) + disturbed.sum(|s| s.ok);
        let success = ok as f64 / (untraced.completed() + disturbed.completed()) as f64;
        let (metrics, samples) = end_to_end(&untraced, success, &finished, &setup_times, rss_kib)?;
        report.push(("latency_samples".to_string(), Json::Num(samples as f64)));
        metrics
    };
    Ok(Outcome {
        correct: gate_errors == 0,
        attempted,
        failed,
        metrics,
        report,
        text,
    })
}

/// Where the run writes its sample logs and span dumps, relative to the
/// repository root it runs from.
fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("loadbench/out")
}

/// Writes every session's spans to the output directory.
fn write_spans(args: &Args, tracers: &[Arc<Tracer>]) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join(format!("spans-{}.jsonl", args.workload.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (i, t) in tracers.iter().enumerate() {
        t.dump(i, &mut out)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.flush()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: loadbench --workload <offload-tcp|quant-tcp|cluster-inproc> --seed <n> \
                 --seconds <n> --trace <0|1> [--server-bin <path>]"
            );
            return ExitCode::FAILURE;
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    let mut stdout = std::io::stdout().lock();
    let printed = write!(stdout, "{}", outcome.text)
        .and_then(|()| writeln!(stdout, "{}", Json::Obj(outcome.report).to_string_compact()))
        .and_then(|()| writeln!(stdout, "{}", result.to_string_compact()));
    if printed.is_err() || !outcome.correct {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
