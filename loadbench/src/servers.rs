//! The servers of one set-up: a `loadpart serve` child process, or three
//! in-process servers.

use crate::client::CLIENT_THREAD_PREFIX;
use crate::procfs::{self, Usage};
use crate::workloads::Conn;
use crate::Args;
use loadpart::{
    spawn_server_tuned, LoadEnv, ServerFaultSpec, ServerHandle, ServerSpec, ServerTuning,
    TcpFrameChannel, Telemetry,
};
use lp_graph::ComputationGraph;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;

/// A `loadpart serve` child process.
pub struct ServeProcess {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    addr: String,
    pid: u32,
}

impl ServeProcess {
    pub fn command_line(bin: &str, model: &str) -> Vec<String> {
        vec![
            bin.to_string(),
            "serve".into(),
            "--model".into(),
            model.into(),
        ]
    }

    pub fn spawn(bin: &str, model: &str) -> Result<Self, String> {
        let argv = Self::command_line(bin, model);
        let mut child = Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", argv.join(" ")))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut me = Self {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: String::new(),
            pid,
        };
        let mut line = String::new();
        me.stdout
            .read_line(&mut line)
            .map_err(|e| format!("serve: {e}"))?;
        me.addr = line
            .split_once(" listening on ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .ok_or_else(|| format!("serve did not report its address: {line:?}"))?
            .to_string();
        Ok(me)
    }

    pub fn connect(&self) -> Result<TcpFrameChannel, String> {
        TcpFrameChannel::connect(self.addr.as_str())
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// Waits for the process to exit after `Shutdown` and checks it exited
    /// cleanly having served exactly `sent` offloads.
    pub fn finish(mut self, sent: u64) -> Result<(), String> {
        let mut rest = String::new();
        let mut line = String::new();
        while self
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            > 0
        {
            rest.push_str(&line);
            line.clear();
        }
        let status = self
            .child
            .take()
            .expect("not yet waited")
            .wait()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("serve exited with {status}: {rest}"));
        }
        let served: u64 = rest
            .split_once("after serving ")
            .and_then(|(_, r)| r.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("serve did not report its served count: {rest:?}"))?;
        if served != sent {
            return Err(format!(
                "serve served {served} offload(s); the sessions sent {sent}"
            ));
        }
        Ok(())
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The servers of one set-up.
pub enum Servers {
    Serve(ServeProcess),
    InProc(Vec<ServerHandle>),
}

impl Servers {
    pub fn start(
        args: &Args,
        graph: &Arc<ComputationGraph>,
        edge: &lp_profiler::PredictionModels,
    ) -> Result<Self, String> {
        if args.workload.uses_serve_process() {
            return ServeProcess::spawn(&args.server_bin, args.workload.model()).map(Self::Serve);
        }
        // The trio's load factors and links, without its admission budget:
        // two closed-loop clients occasionally push a k = 3 server's
        // logical backlog past the budget, and a shed request fails over,
        // which this workload counts as a failure. It measures deciding
        // and routing; the chaos soaks cover shedding.
        let handles = ServerSpec::heterogeneous_trio()
            .into_iter()
            .map(|spec| {
                spawn_server_tuned(
                    Arc::clone(graph),
                    edge.clone(),
                    LoadEnv::new(spec.base_k),
                    ServerFaultSpec::default(),
                    None,
                    &Telemetry::disabled(),
                    ServerTuning {
                        suffix_cost: spec.suffix_cost,
                        ..ServerTuning::default()
                    },
                )
            })
            .collect();
        Ok(Self::InProc(handles))
    }

    pub fn connect(&self) -> Result<Conn, String> {
        match self {
            Self::Serve(p) => p.connect().map(Conn::Tcp),
            Self::InProc(hs) => Ok(Conn::Cluster(
                hs.iter().map(ServerHandle::connect).collect(),
            )),
        }
    }

    /// Process id of a separate server process.
    pub fn pid(&self) -> Option<u32> {
        match self {
            Self::Serve(p) => Some(p.pid),
            Self::InProc(_) => None,
        }
    }

    /// CPU, faults, context switches and threads of the server side.
    pub fn usage(&self) -> Result<Usage, String> {
        match self {
            Self::Serve(p) => procfs::tasks_usage(p.pid, |_, _| true),
            Self::InProc(_) => {
                let me = std::process::id();
                procfs::tasks_usage(me, |tid, comm| {
                    tid != me && !comm.starts_with(CLIENT_THREAD_PREFIX)
                })
            }
        }
    }

    /// Shuts the servers down (the `serve` process got `Shutdown` from a
    /// session) and checks they served exactly `sent` offloads.
    pub fn finish(self, sent: u64) -> Result<(), String> {
        match self {
            Self::Serve(p) => p.finish(sent),
            Self::InProc(hs) => {
                let mut served = 0;
                for h in hs {
                    served += h
                        .shutdown()
                        .map_err(|e| format!("in-process server: {e}"))?;
                }
                if served != sent {
                    return Err(format!(
                        "in-process servers served {served} offload(s); the sessions sent {sent}"
                    ));
                }
                Ok(())
            }
        }
    }
}
