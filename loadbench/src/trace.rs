//! Tracing from outside the program: wrappers around the public
//! [`PartitionPolicy`] and [`FrameChannel`] traits that time every call
//! into the decision and transport layers, plus the per-session span
//! store they write to.
//!
//! A session's spans live in memory, in a buffer allocated before warm-up,
//! and are written out when the run ends.

use bytes::Bytes;
use loadpart::{
    Decision, Frame, FrameChannel, InferenceRecord, PartitionPolicy, PolicyContext, ProtocolError,
};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Harness request sequence number, shared by every span of a request
    /// (equal to the engine's request id when the correctness gate holds).
    pub request: u64,
    /// Layer boundary: `request`, `decide`, `send` or `recv_wait`.
    pub name: &'static str,
    /// Enclosing span (`request` for every layer span).
    pub parent: Option<&'static str>,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Totals of one session's traced calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTotals {
    /// Requests traced.
    pub requests: u64,
    /// Wall time of those requests.
    pub request_ns: u64,
    /// `PartitionPolicy::decide` calls and their time.
    pub decide_calls: u64,
    pub decide_ns: u64,
    /// Frames sent, their bytes and the time inside the send calls.
    pub frames_out: u64,
    pub bytes_out: u64,
    pub send_ns: u64,
    /// Time spent waiting inside receive calls.
    pub recv_ns: u64,
}

impl StageTotals {
    /// Adds another session's totals.
    pub fn add(&mut self, o: &StageTotals) {
        self.requests += o.requests;
        self.request_ns += o.request_ns;
        self.decide_calls += o.decide_calls;
        self.decide_ns += o.decide_ns;
        self.frames_out += o.frames_out;
        self.bytes_out += o.bytes_out;
        self.send_ns += o.send_ns;
        self.recv_ns += o.recv_ns;
    }

    /// The growth from `earlier` to `self`.
    pub fn since(&self, earlier: &StageTotals) -> StageTotals {
        StageTotals {
            requests: self.requests - earlier.requests,
            request_ns: self.request_ns - earlier.request_ns,
            decide_calls: self.decide_calls - earlier.decide_calls,
            decide_ns: self.decide_ns - earlier.decide_ns,
            frames_out: self.frames_out - earlier.frames_out,
            bytes_out: self.bytes_out - earlier.bytes_out,
            send_ns: self.send_ns - earlier.send_ns,
            recv_ns: self.recv_ns - earlier.recv_ns,
        }
    }

    /// Request time not spent in decide, send or receive: the engine's own
    /// work (and, in process, the server's work done on the caller's time).
    pub fn engine_self_ns(&self) -> u64 {
        self.request_ns
            .saturating_sub(self.decide_ns + self.send_ns + self.recv_ns)
    }
}

#[derive(Debug)]
struct State {
    spans: Vec<Span>,
    dropped: u64,
    totals: StageTotals,
}

/// One session's span store. The wrappers skip all timing while it is
/// disabled, so an untraced phase pays one relaxed load per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    request: AtomicU64,
    state: Mutex<State>,
}

impl Tracer {
    /// A disabled tracer with room for `capacity` spans.
    pub fn new(epoch: Instant, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch,
            enabled: AtomicBool::new(false),
            request: AtomicU64::new(0),
            state: Mutex::new(State {
                spans: Vec::with_capacity(capacity),
                dropped: 0,
                totals: StageTotals::default(),
            }),
        })
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether calls are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Marks the start of request `seq`; layer spans recorded until
    /// [`Tracer::end_request`] belong to it.
    pub fn begin_request(&self, seq: u64) {
        self.request.store(seq, Ordering::Relaxed);
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, state: &mut State, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            request: self.request.load(Ordering::Relaxed),
            name,
            parent: (name != "request").then_some("request"),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        if state.spans.len() < state.spans.capacity() {
            state.spans.push(span);
        } else {
            state.dropped += 1;
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no tracer user panics while holding the lock")
    }

    /// Closes the request span opened at `start`.
    pub fn end_request(&self, start: Instant, end: Instant) {
        let mut s = self.lock();
        s.totals.requests += 1;
        s.totals.request_ns += (end - start).as_nanos() as u64;
        self.push(&mut s, "request", start, end);
    }

    fn decide(&self, start: Instant, end: Instant) {
        let mut s = self.lock();
        s.totals.decide_calls += 1;
        s.totals.decide_ns += (end - start).as_nanos() as u64;
        self.push(&mut s, "decide", start, end);
    }

    fn send(&self, start: Instant, end: Instant, bytes: usize) {
        let mut s = self.lock();
        s.totals.frames_out += 1;
        s.totals.bytes_out += bytes as u64;
        s.totals.send_ns += (end - start).as_nanos() as u64;
        self.push(&mut s, "send", start, end);
    }

    fn recv(&self, start: Instant, end: Instant) {
        let mut s = self.lock();
        s.totals.recv_ns += (end - start).as_nanos() as u64;
        self.push(&mut s, "recv_wait", start, end);
    }

    /// The totals so far.
    pub fn totals(&self) -> StageTotals {
        self.lock().totals
    }

    /// Spans that did not fit in the buffer.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Writes every span as one JSON line tagged with `session`.
    pub fn dump(&self, session: usize, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.lock().spans {
            writeln!(
                out,
                "{{\"session\":{session},\"request\":{},\"name\":\"{}\",\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Times every [`PartitionPolicy::decide`] of the wrapped policy and
/// forwards everything else unchanged.
#[derive(Debug)]
pub struct TimingPolicy {
    inner: Box<dyn PartitionPolicy>,
    tracer: Arc<Tracer>,
}

impl TimingPolicy {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn PartitionPolicy>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl PartitionPolicy for TimingPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &PolicyContext<'_>) -> Decision {
        if !self.tracer.enabled() {
            return self.inner.decide(ctx);
        }
        let start = Instant::now();
        let d = self.inner.decide(ctx);
        self.tracer.decide(start, Instant::now());
        d
    }

    fn observe(&mut self, record: &InferenceRecord) {
        self.inner.observe(record);
    }

    fn memo_hits(&self) -> u64 {
        self.inner.memo_hits()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// Times and counts every frame through the wrapped channel, keeping the
/// zero-copy split paths split.
#[derive(Debug)]
pub struct TimingChannel<C> {
    inner: C,
    tracer: Arc<Tracer>,
}

impl<C> TimingChannel<C> {
    /// Wraps `inner`.
    pub fn new(inner: C, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl<C: FrameChannel> FrameChannel for TimingChannel<C> {
    fn send(&self, frame: Bytes) -> Result<(), ProtocolError> {
        if !self.tracer.enabled() {
            return self.inner.send(frame);
        }
        let len = frame.len();
        let start = Instant::now();
        let r = self.inner.send(frame);
        self.tracer.send(start, Instant::now(), len);
        r
    }

    fn recv_deadline(&self, deadline: Instant) -> Result<Bytes, ProtocolError> {
        if !self.tracer.enabled() {
            return self.inner.recv_deadline(deadline);
        }
        let start = Instant::now();
        let r = self.inner.recv_deadline(deadline);
        self.tracer.recv(start, Instant::now());
        r
    }

    fn send_split(&self, frame: Frame) -> Result<(), ProtocolError> {
        if !self.tracer.enabled() {
            return self.inner.send_split(frame);
        }
        let len = frame.len();
        let start = Instant::now();
        let r = self.inner.send_split(frame);
        self.tracer.send(start, Instant::now(), len);
        r
    }

    fn recv_split_deadline(&self, deadline: Instant) -> Result<Frame, ProtocolError> {
        if !self.tracer.enabled() {
            return self.inner.recv_split_deadline(deadline);
        }
        let start = Instant::now();
        let r = self.inner.recv_split_deadline(deadline);
        self.tracer.recv(start, Instant::now());
        r
    }
}
