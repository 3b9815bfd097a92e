//! Per-request records streamed to a file during the run.
//!
//! Keeping one record per request in memory would grow the harness's
//! resident set with throughput, and `rss_peak_mb` counts the harness (it
//! hosts the engines, and the servers of the in-process workload). The log
//! instead writes fixed-size binary records through one buffer allocated
//! before warm-up, and is read back only after the measured phases.

use crate::workloads::Sample;
use lp_graph::Precision;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::PathBuf;

/// Bytes per record.
const RECORD: usize = 48;
/// Write buffer size.
const BUFFER: usize = 64 * 1024;

const OK: u8 = 1;
const REMOTE: u8 = 2;
const ERROR: u8 = 4;

/// One logged request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// The request; `None` when `infer` returned an error.
    pub sample: Option<Sample>,
    /// Phase tag: 0 for warm-up, then one per measured phase.
    pub phase: u8,
    /// Wall time of the `infer` call, in ns.
    pub latency_ns: u64,
}

/// An append-only file of [`Entry`] records, removed when read back.
#[derive(Debug)]
pub struct SampleLog {
    path: PathBuf,
    out: BufWriter<File>,
}

impl SampleLog {
    /// Creates (truncating) the log at `path`.
    pub fn create(path: PathBuf) -> io::Result<Self> {
        let file = File::create(&path)?;
        Ok(Self {
            path,
            out: BufWriter::with_capacity(BUFFER, file),
        })
    }

    /// Appends one entry.
    pub fn push(&mut self, e: &Entry) -> io::Result<()> {
        self.out.write_all(&encode(e))
    }

    /// Flushes, reads every entry back and removes the file.
    pub fn read_back(mut self) -> io::Result<Vec<Entry>> {
        self.out.flush()?;
        let mut bytes = Vec::new();
        File::open(&self.path)?.read_to_end(&mut bytes)?;
        std::fs::remove_file(&self.path)?;
        if bytes.len() % RECORD != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "torn sample log",
            ));
        }
        bytes
            .chunks_exact(RECORD)
            .map(|c| {
                decode(c.try_into().expect("exact chunk"))
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad precision"))
            })
            .collect()
    }
}

fn encode(e: &Entry) -> [u8; RECORD] {
    let mut b = [0u8; RECORD];
    let s = e.sample.unwrap_or(Sample {
        request_id: 0,
        bandwidth: 0.0,
        k: 0.0,
        uploaded: 0,
        p: 0,
        precision: Precision::Fp32,
        ok: false,
        remote: false,
    });
    b[0..8].copy_from_slice(&s.request_id.to_le_bytes());
    b[8..16].copy_from_slice(&s.bandwidth.to_bits().to_le_bytes());
    b[16..24].copy_from_slice(&s.k.to_bits().to_le_bytes());
    b[24..32].copy_from_slice(&s.uploaded.to_le_bytes());
    b[32..40].copy_from_slice(&e.latency_ns.to_le_bytes());
    b[40..44].copy_from_slice(&s.p.to_le_bytes());
    b[44] = s.precision.wire();
    b[45] = match e.sample {
        None => ERROR,
        Some(s) => (if s.ok { OK } else { 0 }) | (if s.remote { REMOTE } else { 0 }),
    };
    b[46] = e.phase;
    b
}

fn decode(b: &[u8; RECORD]) -> Option<Entry> {
    let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
    let precision = Precision::from_wire(b[44])?;
    let flags = b[45];
    let sample = (flags & ERROR == 0).then(|| Sample {
        request_id: u64_at(0),
        bandwidth: f64::from_bits(u64_at(8)),
        k: f64::from_bits(u64_at(16)),
        uploaded: u64_at(24),
        p: u32::from_le_bytes(b[40..44].try_into().expect("4 bytes")),
        precision,
        ok: flags & OK != 0,
        remote: flags & REMOTE != 0,
    });
    Some(Entry {
        sample,
        phase: b[46],
        latency_ns: u64_at(32),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64) -> Sample {
        Sample {
            request_id: id,
            bandwidth: 0.1 + id as f64 / 3.0,
            k: 2.5,
            uploaded: 23_332,
            p: 4,
            precision: Precision::Int4,
            ok: id.is_multiple_of(2),
            remote: id.is_multiple_of(3),
        }
    }

    #[test]
    fn entries_round_trip_through_the_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("loadbench-log-test-{}", std::process::id()));
        let mut log = SampleLog::create(path.clone()).expect("create");
        let entries: Vec<Entry> = (0..5000)
            .map(|i| Entry {
                sample: (i % 7 != 0).then(|| sample(i)),
                phase: (i % 3) as u8,
                latency_ns: i * 1000 + 17,
            })
            .collect();
        for e in &entries {
            log.push(e).expect("push");
        }
        assert_eq!(log.read_back().expect("read back"), entries);
        assert!(!path.exists(), "the log removes its file");
    }
}
