//! Seeded workload inputs.

/// Lowest bandwidth the `cluster-inproc` trace draws (Mbps).
pub const MIN_MBPS: f64 = 0.5;
/// Highest bandwidth the `cluster-inproc` trace draws (Mbps).
pub const MAX_MBPS: f64 = 64.0;

/// A deterministic stream of log-uniform link bandwidths in
/// [`MIN_MBPS`, `MAX_MBPS`): equal seeds give equal streams.
#[derive(Debug, Clone)]
pub struct BandwidthTrace {
    state: u64,
}

impl BandwidthTrace {
    /// The trace of one session: the run seed mixed with the session index,
    /// so sessions draw different streams.
    pub fn new(seed: u64, session: u64) -> Self {
        Self {
            state: seed ^ session.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        }
    }

    /// SplitMix64: a full-period generator whose every output depends on
    /// all 64 state bits.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next bandwidth, in Mbps.
    pub fn next_mbps(&mut self) -> f64 {
        // 53 random bits give a uniform u in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        MIN_MBPS * (MAX_MBPS / MIN_MBPS).powf(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, session: u64, n: usize) -> Vec<f64> {
        let mut t = BandwidthTrace::new(seed, session);
        (0..n).map(|_| t.next_mbps()).collect()
    }

    #[test]
    fn same_seed_same_trace() {
        assert_eq!(take(7, 0, 1000), take(7, 0, 1000));
    }

    #[test]
    fn seeds_and_sessions_differ() {
        assert_ne!(take(7, 0, 16), take(8, 0, 16));
        assert_ne!(take(7, 0, 16), take(7, 1, 16));
    }

    #[test]
    fn draws_stay_in_range_and_spread_log_uniformly() {
        let v = take(3, 0, 20_000);
        assert!(v.iter().all(|&b| (MIN_MBPS..MAX_MBPS).contains(&b)));
        // Log-uniform over 0.5..64 puts the geometric midpoint, 5.66 Mbps,
        // at the median: half the draws on each side.
        let mid = (MIN_MBPS * MAX_MBPS).sqrt();
        let below = v.iter().filter(|&&b| b < mid).count() as f64 / v.len() as f64;
        assert!((below - 0.5).abs() < 0.02, "{below}");
        // No two consecutive draws repeat, so a decision memo never hits.
        assert!(v.windows(2).all(|w| w[0] != w[1]));
    }
}
