//! The three workloads: their sessions (one closed-loop client each), the
//! connection material the harness hands a session, and the reference
//! decision every completed request is checked against.

use crate::inputs::BandwidthTrace;
use crate::trace::{TimingChannel, TimingPolicy, Tracer};
use loadpart::policy::MemoPolicy;
use loadpart::{
    ClientConn, ClusterEngine, ClusterLink, EngineConfig, FrameChannel, InferenceRecord,
    PartitionPolicy, PartitionSolver, Policy, PolicyContext, Precision, QuantPolicy, ServerSpec,
    TcpFrameChannel, Telemetry, ThreadedClient, DEFAULT_ACCURACY_BUDGET,
};
use lp_graph::ComputationGraph;
use lp_hardware::DeviceModel;
use lp_profiler::PredictionModels;
use lp_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// Offline-profiler sample count and seed: the `loadpart serve` defaults,
/// so client and server train identical prediction models.
pub const MODEL_SAMPLES: usize = 120;
/// See [`MODEL_SAMPLES`].
pub const MODEL_SEED: u64 = 42;
/// Accuracy budget of the `quant-tcp` policy (top-1 fraction).
pub const QUANT_BUDGET: f64 = 0.02;
/// Logical time between two requests of one `cluster-inproc` session.
const CLUSTER_PERIOD: SimDuration = SimDuration::from_secs(1);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fp32 LoADPart with memo over loopback TCP to a `serve` process.
    OffloadTcp,
    /// `QuantPolicy` at 2 Mbps over loopback TCP to a `serve` process.
    QuantTcp,
    /// `ClusterEngine` over three in-process servers, bandwidth redrawn
    /// per request.
    ClusterInproc,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::OffloadTcp, Self::QuantTcp, Self::ClusterInproc];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Self::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {name:?}; expected one of {}",
                    names.join(", ")
                )
            })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::OffloadTcp => "offload-tcp",
            Self::QuantTcp => "quant-tcp",
            Self::ClusterInproc => "cluster-inproc",
        }
    }

    /// The DNN served.
    pub fn model(self) -> &'static str {
        match self {
            Self::OffloadTcp | Self::QuantTcp => "alexnet",
            Self::ClusterInproc => "resnet152",
        }
    }

    /// How the sessions reach the server.
    pub fn transport(self) -> &'static str {
        match self {
            Self::OffloadTcp | Self::QuantTcp => "tcp-loopback",
            Self::ClusterInproc => "in-process",
        }
    }

    /// Whether the server runs as a separate `loadpart serve` process.
    pub fn uses_serve_process(self) -> bool {
        self != Self::ClusterInproc
    }

    /// The fixed bandwidth estimate of the TCP workloads (Mbps).
    fn tcp_mbps(self) -> f64 {
        match self {
            Self::OffloadTcp => 8.0,
            Self::QuantTcp => 2.0,
            Self::ClusterInproc => unreachable!("the cluster workload draws its bandwidth"),
        }
    }

    /// A fresh instance of the policy the workload's sessions run.
    fn policy(self, graph: &ComputationGraph) -> Box<dyn PartitionPolicy> {
        match self {
            Self::OffloadTcp => Box::new(MemoPolicy::new(Policy::LoadPart.build())),
            Self::QuantTcp => Box::new(QuantPolicy::for_graph(graph, QUANT_BUDGET)),
            Self::ClusterInproc => Box::new(QuantPolicy::for_graph(graph, DEFAULT_ACCURACY_BUDGET)),
        }
    }
}

/// What the harness keeps of one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The engine's request id.
    pub request_id: u64,
    /// Bandwidth estimate and load factor the decision used.
    pub bandwidth: f64,
    pub k: f64,
    /// Bytes uploaded (0 when the request ran locally).
    pub uploaded: u64,
    /// Partition point and upload precision chosen.
    pub p: u32,
    pub precision: Precision,
    /// Completed on the intended path: no error, no local fallback, no
    /// rejection, no failover.
    pub ok: bool,
    /// Served by a server, on the intended path or not: what the server
    /// counts as an offload served.
    pub remote: bool,
}

/// Per-request facts the harness sums but does not keep.
#[derive(Debug, Clone, Copy)]
pub struct Extra {
    /// Latency the policy predicted, in ns.
    pub predicted_ns: u64,
    /// Endpoints consulted (always 1 on the single-server path).
    pub attempts: u32,
    /// Why the request left its intended path, if it did.
    pub failure: Option<&'static str>,
}

fn failure(r: &InferenceRecord, failovers: u32) -> Option<&'static str> {
    if r.fallback_local {
        Some("fell back to local execution")
    } else if r.rejected {
        Some("rejected by admission control")
    } else if failovers > 0 {
        Some("failed over to another server")
    } else {
        None
    }
}

impl Sample {
    fn from_record(r: &InferenceRecord, failovers: u32) -> Self {
        Self {
            request_id: r.request_id,
            bandwidth: r.bandwidth_est_mbps,
            k: r.k_used,
            uploaded: r.uploaded_bytes,
            p: u32::try_from(r.p).expect("partition point fits u32"),
            precision: r.precision,
            ok: failure(r, failovers).is_none(),
            remote: r.offloaded() && !r.fallback_local && !r.rejected,
        }
    }
}

/// One closed-loop client.
pub trait Session {
    /// Runs one inference request.
    fn infer(&mut self) -> Result<(Sample, Extra), String>;
    /// Installs a telemetry handle on the session's engine.
    fn set_telemetry(&mut self, telemetry: Telemetry);
    /// Sends `Shutdown` to the session's server, if it is a remote one.
    fn shutdown_server(&mut self) -> Result<(), String>;
}

/// What a session is built from; sent from the harness thread to the
/// client thread that owns the session.
pub struct Material {
    /// Workload the session runs.
    pub workload: Workload,
    /// The served DNN.
    pub graph: Arc<ComputationGraph>,
    /// Device- and server-side prediction models.
    pub user: PredictionModels,
    pub edge: PredictionModels,
    /// Engine seed.
    pub seed: u64,
    /// Session index (0-based).
    pub session: u64,
    /// The connection(s).
    pub conn: Conn,
}

/// A session's connection(s).
pub enum Conn {
    /// One loopback TCP connection to `serve`.
    Tcp(TcpFrameChannel),
    /// One in-process connection per cluster server, in spec order.
    Cluster(Vec<ClientConn>),
}

impl Material {
    /// Builds the session; with a tracer, the policy and every channel
    /// are wrapped in timing wrappers that record into it.
    pub fn build(self, tracer: Option<&Arc<Tracer>>) -> Result<Box<dyn Session>, String> {
        let config = EngineConfig {
            seed: self.seed ^ self.session.wrapping_mul(0x9E37_79B9),
            ..EngineConfig::default()
        };
        let mut policy = self.workload.policy(&self.graph);
        if let Some(t) = tracer {
            policy = Box::new(TimingPolicy::new(policy, Arc::clone(t)));
        }
        match self.conn {
            Conn::Tcp(chan) => {
                let chan: Box<dyn FrameChannel + Send> = match tracer {
                    Some(t) => Box::new(TimingChannel::new(chan, Arc::clone(t))),
                    None => Box::new(chan),
                };
                let client =
                    ThreadedClient::with_policy(self.graph, policy, &self.user, &self.edge, config)
                        .map_err(|e| e.to_string())?;
                Ok(Box::new(TcpSession {
                    client,
                    chan,
                    mbps: self.workload.tcp_mbps(),
                }))
            }
            Conn::Cluster(conns) => {
                let specs = ServerSpec::heterogeneous_trio();
                if conns.len() != specs.len() {
                    return Err(format!(
                        "{} connections for {} servers",
                        conns.len(),
                        specs.len()
                    ));
                }
                let links = specs
                    .into_iter()
                    .zip(conns)
                    .map(|(spec, conn)| ClusterLink {
                        name: spec.name,
                        bandwidth_mbps: spec.bandwidth_mbps,
                        conn: match tracer {
                            Some(t) => Box::new(TimingChannel::new(conn, Arc::clone(t))),
                            None => Box::new(conn),
                        },
                    })
                    .collect();
                let engine = ClusterEngine::new(
                    self.graph,
                    policy,
                    &self.user,
                    &self.edge,
                    DeviceModel::default(),
                    usize::try_from(self.session).expect("session index fits usize"),
                    config,
                    links,
                )
                .map_err(|e| e.to_string())?;
                Ok(Box::new(ClusterSession {
                    engine,
                    now: SimTime::ZERO,
                    trace: BandwidthTrace::new(self.seed, self.session),
                }))
            }
        }
    }
}

struct TcpSession {
    client: ThreadedClient,
    chan: Box<dyn FrameChannel + Send>,
    mbps: f64,
}

impl Session for TcpSession {
    fn infer(&mut self) -> Result<(Sample, Extra), String> {
        let r = self
            .client
            .infer(&*self.chan, self.mbps)
            .map_err(|e| e.to_string())?;
        let extra = Extra {
            predicted_ns: r.predicted.as_nanos(),
            attempts: 1,
            failure: failure(&r, 0),
        };
        Ok((Sample::from_record(&r, 0), extra))
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.client.set_telemetry(telemetry);
    }

    fn shutdown_server(&mut self) -> Result<(), String> {
        let frame = loadpart::Message::Shutdown
            .encode()
            .map_err(|e| e.to_string())?;
        self.chan
            .send(frame)
            .map_err(|e| format!("cannot send Shutdown: {e}"))
    }
}

struct ClusterSession {
    engine: ClusterEngine,
    now: SimTime,
    trace: BandwidthTrace,
}

impl Session for ClusterSession {
    fn infer(&mut self) -> Result<(Sample, Extra), String> {
        self.now += CLUSTER_PERIOD;
        for s in 0..self.engine.engine().endpoint_count() {
            let mbps = self.trace.next_mbps();
            self.engine
                .engine_mut()
                .profile_of_mut(s)
                .inject_bandwidth(mbps);
        }
        let (r, route) = self.engine.infer(self.now).map_err(|e| e.to_string())?;
        let mut sample = Sample::from_record(&r, route.failovers);
        sample.remote = route.server.is_some();
        let extra = Extra {
            predicted_ns: r.predicted.as_nanos(),
            attempts: route.attempts,
            failure: failure(&r, route.failovers),
        };
        Ok((sample, extra))
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.engine.engine_mut().set_telemetry(telemetry);
    }

    fn shutdown_server(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Partition point, precision and upload bytes of a decision.
type Expected = (u32, Precision, u64);

/// The decision a request must have been given, recomputed through the
/// public solver and a fresh policy from the request's own
/// `(bandwidth, k)`, with the upload size taken from the graph's
/// transmission series.
pub struct Reference {
    solver: PartitionSolver,
    policy: Box<dyn PartitionPolicy>,
    n: usize,
    /// Upload bytes per cut: fp32 from the solver, narrow precisions from
    /// the graph's packed series.
    series: Vec<(Precision, Vec<u64>)>,
    last: Option<((u64, u64), Expected)>,
}

impl Reference {
    /// The reference for `workload` on `graph`.
    pub fn new(
        workload: Workload,
        graph: &ComputationGraph,
        user: &PredictionModels,
        edge: &PredictionModels,
    ) -> Self {
        let solver = PartitionSolver::new(graph, user, edge);
        let mut series = vec![(Precision::Fp32, solver.transmission().to_vec())];
        for prec in Precision::NARROW {
            series.push((prec, loadpart::quantized_transmission_series(graph, prec)));
        }
        Self {
            solver,
            policy: workload.policy(graph),
            n: graph.len(),
            series,
            last: None,
        }
    }

    fn expected(&mut self, bandwidth: f64, k: f64) -> Expected {
        let key = (bandwidth.to_bits(), k.to_bits());
        if let Some((cached, e)) = self.last {
            if cached == key {
                return e;
            }
        }
        let d = self.policy.decide(&PolicyContext {
            solver: &self.solver,
            bandwidth_mbps: bandwidth,
            k,
            now: SimTime::ZERO,
        });
        let bytes = if d.p >= self.n {
            0
        } else {
            self.series
                .iter()
                .find(|(prec, _)| *prec == d.precision)
                .map_or(u64::MAX, |(_, s)| s[d.p])
        };
        let e = (
            u32::try_from(d.p).expect("partition point fits u32"),
            d.precision,
            bytes,
        );
        self.last = Some((key, e));
        e
    }

    /// Checks one request that completed on its intended path.
    pub fn check(&mut self, s: &Sample) -> Result<(), String> {
        let (p, precision, bytes) = self.expected(s.bandwidth, s.k);
        if (s.p, s.precision, s.uploaded) != (p, precision, bytes) {
            return Err(format!(
                "request {} at {} Mbps, k = {}: got p = {} {:?} {} B, reference p = {p} \
                 {precision:?} {bytes} B",
                s.request_id, s.bandwidth, s.k, s.p, s.precision, s.uploaded
            ));
        }
        Ok(())
    }
}
