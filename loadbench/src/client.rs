//! The client threads: each owns one session, runs its warm-up and its
//! closed loop, logs every request and checks the log against the
//! reference decisions when the run ends.

use crate::samplelog::{Entry, SampleLog};
use crate::trace::Tracer;
use crate::workloads::{Extra, Material, Reference, Sample, Session};
use loadpart::Telemetry;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Warm-up requests per session and set-up: enough to fill the partition
/// cache, the payload pool and the decision memo.
const WARMUP: u64 = 500;
/// Prefix of the client threads' names, which the in-process server
/// accounting leaves out.
pub const CLIENT_THREAD_PREFIX: &str = "lb-client-";
/// Gate violations and failed requests quoted in the report (all are
/// counted).
const MAX_QUOTED_ERRORS: usize = 5;

/// A command from the harness thread to a client thread.
pub enum Cmd {
    /// Build a session from this material and warm it up.
    Setup(Box<Material>),
    /// Drop the current session; the first session first sends its server
    /// `Shutdown`.
    Retire { shutdown: bool },
    /// Run the closed loop until `end`.
    Measure(Phase),
    /// Like `Retire`, then check every logged request and hand back the
    /// latencies.
    Finish { shutdown: bool },
}

/// One measured phase: run until `end`, noting completions before `mid`.
pub struct Phase {
    /// Tag of the phase in the sample log (warm-up is 0).
    pub tag: u8,
    pub mid: Instant,
    pub end: Instant,
    pub telemetry: Option<Telemetry>,
}

/// What one client thread saw in one measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Completions before the phase's midpoint.
    pub first_half: u64,
    /// When the last request of the phase completed.
    pub finish: Option<Instant>,
    pub predicted_ns: u128,
    pub attempts: u64,
}

/// A client thread's results once the run is over.
pub struct Finished {
    /// Latencies (ns) of every request, indexed by phase tag.
    pub latencies: Vec<Vec<u64>>,
    /// Remote offloads of the current set-up, for the served-count check.
    pub offloads: u64,
    pub gate_errors: u64,
    pub quoted: Vec<String>,
}

/// A client thread's answer to one [`Cmd`].
pub enum Reply {
    Ready(Result<(), String>),
    Retired { offloads: u64 },
    Measured(PhaseStats),
    Finished(Box<Finished>),
}

/// One request as the client thread saw it.
struct Step {
    result: Option<(Sample, Extra)>,
    start: Instant,
    end: Instant,
}

/// The state of one client thread.
pub struct Worker {
    index: usize,
    tracer: Option<Arc<Tracer>>,
    /// Created before the first warm-up; holds one record per request.
    log: Option<SampleLog>,
    session: Option<Box<dyn Session>>,
    reference: Option<Reference>,
    next_id: u64,
    offloads: u64,
    gate_errors: u64,
    quoted: Vec<String>,
}

impl Worker {
    /// Client thread `index`, logging to `log` and tracing into `tracer`.
    pub fn new(index: usize, tracer: Option<Arc<Tracer>>, log: SampleLog) -> Self {
        Self {
            index,
            tracer,
            log: Some(log),
            session: None,
            reference: None,
            next_id: 0,
            offloads: 0,
            gate_errors: 0,
            quoted: Vec::new(),
        }
    }

    fn gate_error(&mut self, msg: String) {
        self.gate_errors += 1;
        self.quote(msg);
    }

    fn quote(&mut self, msg: String) {
        if self.quoted.len() < MAX_QUOTED_ERRORS {
            self.quoted.push(format!("session {}: {msg}", self.index));
        }
    }

    fn session(&mut self) -> &mut dyn Session {
        self.session.as_deref_mut().expect("a session is set up")
    }

    /// One timed request, logged. Request ids must run contiguously from 0
    /// within a session.
    fn request(&mut self, phase: u8) -> Step {
        let start = Instant::now();
        let result = self.session().infer();
        let end = Instant::now();
        let result = match result {
            Ok((s, extra)) => {
                if s.request_id != self.next_id {
                    self.gate_error(format!(
                        "request id {} completed where {} was next (ids must be contiguous \
                         and FIFO)",
                        s.request_id, self.next_id
                    ));
                }
                self.next_id = s.request_id + 1;
                if s.remote {
                    self.offloads += 1;
                }
                Some((s, extra))
            }
            Err(e) => {
                self.gate_error(format!("request failed: {e}"));
                None
            }
        };
        let entry = Entry {
            sample: result.map(|(s, _)| s),
            phase,
            latency_ns: u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX),
        };
        let logged = self
            .log
            .as_mut()
            .expect("log open until finish")
            .push(&entry);
        if let Err(e) = logged {
            self.gate_error(format!("cannot log a request: {e}"));
        }
        Step { result, start, end }
    }

    fn setup(&mut self, m: Material) -> Result<(), String> {
        if self.reference.is_none() {
            self.reference = Some(Reference::new(m.workload, &m.graph, &m.user, &m.edge));
        }
        let session = m.build(self.tracer.as_ref())?;
        self.session = Some(session);
        self.next_id = 0;
        self.offloads = 0;
        for _ in 0..WARMUP {
            if let Some((s, extra)) = self.request(0).result {
                if let Some(why) = extra.failure {
                    self.gate_error(format!("warm-up request {}: {why}", s.request_id));
                }
            }
        }
        Ok(())
    }

    fn retire(&mut self, shutdown: bool) -> u64 {
        if shutdown {
            if let Err(e) = self.session().shutdown_server() {
                self.gate_error(e);
            }
        }
        // Dropping the session closes its connections.
        self.session = None;
        self.offloads
    }

    fn measure(&mut self, phase: Phase) -> PhaseStats {
        if let Some(t) = phase.telemetry {
            self.session().set_telemetry(t);
        }
        let tracer = self.tracer.clone().filter(|t| t.enabled());
        let mut st = PhaseStats::default();
        let mut now = Instant::now();
        while now < phase.end {
            if let Some(t) = &tracer {
                t.begin_request(self.next_id);
            }
            let step = self.request(phase.tag);
            now = step.end;
            if let Some(t) = &tracer {
                t.end_request(step.start, step.end);
            }
            st.attempted += 1;
            match step.result {
                Some((s, extra)) => {
                    if let Some(why) = extra.failure {
                        st.failed += 1;
                        self.quote(format!("request {}: {why}", s.request_id));
                    } else {
                        st.ok += 1;
                    }
                    st.predicted_ns += u128::from(extra.predicted_ns);
                    st.attempts += u64::from(extra.attempts);
                }
                None => st.failed += 1,
            }
            if now < phase.mid {
                st.first_half = st.attempted;
            }
        }
        st.finish = Some(now);
        st
    }

    fn finish(&mut self, shutdown: bool) -> Finished {
        let offloads = self.retire(shutdown);
        let mut latencies: Vec<Vec<u64>> = Vec::new();
        let entries = match self.log.take().expect("finished once").read_back() {
            Ok(entries) => entries,
            Err(e) => {
                self.gate_error(format!("cannot read the sample log back: {e}"));
                Vec::new()
            }
        };
        // Every request that stayed on its intended path must carry the
        // reference decision for its own (bandwidth, k).
        let mut reference = self.reference.take().expect("set up before finishing");
        for e in &entries {
            let tag = usize::from(e.phase);
            if latencies.len() <= tag {
                latencies.resize_with(tag + 1, Vec::new);
            }
            latencies[tag].push(e.latency_ns);
            if let Some(s) = e.sample.filter(|s| s.ok) {
                if let Err(msg) = reference.check(&s) {
                    self.gate_error(msg);
                }
            }
        }
        Finished {
            latencies,
            offloads,
            gate_errors: self.gate_errors,
            quoted: std::mem::take(&mut self.quoted),
        }
    }

    /// Serves commands until the harness drops its end of `rx`.
    pub fn run(mut self, rx: &Receiver<Cmd>, tx: &Sender<(usize, Reply)>) {
        for cmd in rx {
            let reply = match cmd {
                Cmd::Setup(m) => Reply::Ready(self.setup(*m)),
                Cmd::Retire { shutdown } => Reply::Retired {
                    offloads: self.retire(shutdown),
                },
                Cmd::Measure(phase) => Reply::Measured(self.measure(phase)),
                Cmd::Finish { shutdown } => Reply::Finished(Box::new(self.finish(shutdown))),
            };
            if tx.send((self.index, reply)).is_err() {
                return;
            }
        }
    }
}
