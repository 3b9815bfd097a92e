//! The reported metrics, computed from the measured phases.

use crate::client::{Finished, PhaseStats};
use crate::procfs::Usage;
use crate::stats;
use crate::trace::StageTotals;
use crate::PhaseOutcome;
use loadpart::Telemetry;

/// Name, value and unit of one metric.
pub type Metric = (&'static str, f64, &'static str);

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Measured segments of one kind (untraced or traced), pooled.
pub struct Pooled<'a>(pub &'a [PhaseOutcome]);

impl Pooled<'_> {
    pub fn total(&self, f: impl Fn(&PhaseOutcome) -> u64) -> f64 {
        self.0.iter().map(f).sum::<u64>() as f64
    }

    pub fn sum(&self, f: impl Fn(&PhaseStats) -> u64 + Copy) -> u64 {
        self.0.iter().map(|p| p.sum(f)).sum()
    }

    pub fn completed(&self) -> u64 {
        self.0.iter().map(PhaseOutcome::completed).sum()
    }

    pub fn rps(&self) -> f64 {
        let wall: f64 = self.0.iter().map(|p| p.wall.as_secs_f64()).sum();
        ratio(self.completed() as f64, wall)
    }

    pub fn usage(&self, f: impl Fn(&PhaseOutcome) -> &Usage) -> Usage {
        self.0
            .iter()
            .map(f)
            .fold(Usage::default(), |acc, u| acc.plus(u))
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter_map(|p| p.telemetry.as_ref().and_then(Telemetry::snapshot))
            .map(|snap| snap.counter(name))
            .sum::<u64>() as f64
    }

    pub fn stages(&self) -> StageTotals {
        let mut t = StageTotals::default();
        for p in self.0 {
            t.add(&p.stages);
        }
        t
    }
}

/// The end-to-end metrics. Each set-up draws one of the serving stack's
/// speeds for its lifetime, so throughput, CPU per request and the median
/// latency pool every set-up; the p99 is the median over set-ups of each
/// set-up's p99, which one set-up disturbed by a noisy neighbour does not
/// move.
pub fn end_to_end(
    phases: &Pooled<'_>,
    success: f64,
    finished: &[Finished],
    setup_times: &[f64],
    rss_kib: u64,
) -> Result<(Vec<Metric>, usize), String> {
    let mut all = Vec::new();
    let mut p99 = Vec::new();
    for p in phases.0 {
        let mut lat: Vec<u64> = finished
            .iter()
            .flat_map(|f| f.latencies.get(usize::from(p.tag)).into_iter().flatten())
            .copied()
            .collect();
        lat.sort_unstable();
        p99.push(stats::percentile(&lat, 0.99)? as f64 / 1e6);
        all.extend(lat);
    }
    all.sort_unstable();
    let p50 = stats::percentile(&all, 0.50)? as f64 / 1e6;
    let median = |v: &[f64]| stats::median(v).expect("at least one set-up");
    let completed = phases.completed() as f64;
    let cpu = phases.usage(|p| &p.own).cpu_us() + phases.usage(|p| &p.serve).cpu_us();
    let metrics = vec![
        ("throughput_rps", phases.rps(), "req/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p99_ms", median(&p99), "ms"),
        ("cpu_us_per_req", cpu / completed, "us"),
        ("success_ratio", success, "ratio"),
        ("setup_s", median(setup_times), "s"),
        ("rss_peak_mb", rss_kib as f64 / 1024.0, "MiB"),
    ];
    Ok((metrics, all.len()))
}

/// The per-layer metrics of the traced phases `b`, with the tracing
/// overhead against the untraced phases, and the stage table.
pub fn per_layer(untraced: &Pooled<'_>, b: &Pooled<'_>) -> (Vec<Metric>, String) {
    let st = b.stages();
    let reqs = st.requests as f64;
    let completed = b.completed() as f64;
    let us = |ns: u64| ratio(ns as f64 / 1e3, reqs);
    let requests_total = b.counter("engine.requests_total");
    let srv = b.usage(|p| &p.server_side);
    let metrics = vec![
        ("policy.decide_us", us(st.decide_ns), "us"),
        (
            "policy.decide_calls_per_req",
            ratio(st.decide_calls as f64, reqs),
            "count",
        ),
        (
            "policy.decide_share",
            ratio(st.decide_ns as f64, st.request_ns as f64),
            "ratio",
        ),
        (
            "policy.modeled_latency_ms",
            ratio(
                b.0.iter()
                    .flat_map(|p| &p.stats)
                    .map(|s| s.predicted_ns)
                    .sum::<u128>() as f64
                    / 1e6,
                completed,
            ),
            "ms",
        ),
        ("engine.self_us", us(st.engine_self_ns()), "us"),
        ("transport.send_us", us(st.send_ns), "us"),
        ("transport.recv_wait_us", us(st.recv_ns), "us"),
        (
            "transport.frames_per_req",
            ratio(st.frames_out as f64, reqs),
            "count",
        ),
        (
            "transport.bytes_out_per_req",
            ratio(st.bytes_out as f64, reqs),
            "B",
        ),
        (
            "server.cpu_us_per_req",
            ratio(srv.cpu_us(), completed),
            "us",
        ),
        (
            "server.sys_share",
            ratio(srv.stime as f64, (srv.utime + srv.stime) as f64),
            "ratio",
        ),
        (
            "server.minflt_per_req",
            ratio(srv.minflt as f64, completed),
            "count",
        ),
        (
            "server.ctxsw_per_req",
            ratio(srv.ctxsw as f64, completed),
            "count",
        ),
        ("server.threads", srv.threads as f64, "count"),
        (
            "pool.miss_ratio",
            ratio(b.total(|p| p.pool.1), b.total(|p| p.pool.0 + p.pool.1)),
            "ratio",
        ),
        (
            "protocol.bytes_copied_per_req",
            ratio(b.total(|p| p.copied), completed),
            "B",
        ),
        (
            "engine.memo_hit_ratio",
            ratio(b.counter("engine.decision_memo_hits_total"), requests_total),
            "ratio",
        ),
        (
            "quant.sent_over_raw",
            ratio(
                b.counter("engine.upload_bytes_sent_total"),
                b.counter("engine.upload_bytes_raw_total"),
            ),
            "ratio",
        ),
        (
            "cluster.attempts_per_req",
            ratio(b.sum(|s| s.attempts) as f64, completed),
            "count",
        ),
        (
            "threaded.rejected_ratio",
            ratio(b.counter("engine.rejected_total"), requests_total),
            "ratio",
        ),
        (
            "trace.overhead_pct",
            (ratio(untraced.rps(), b.rps()) - 1.0) * 100.0,
            "%",
        ),
    ];
    let mut table = String::from("stage          us/req   share\n");
    for (name, ns) in [
        ("decide", st.decide_ns),
        ("send", st.send_ns),
        ("recv wait", st.recv_ns),
        ("engine self", st.engine_self_ns()),
        ("request", st.request_ns),
    ] {
        table.push_str(&format!(
            "{name:<12} {:>8.2} {:>7.3}\n",
            us(ns),
            ratio(ns as f64, st.request_ns as f64)
        ));
    }
    table.push_str(&format!(
        "tracing overhead: {:.0} req/s untraced, {:.0} req/s traced\n",
        untraced.rps(),
        b.rps()
    ));
    (metrics, table)
}
