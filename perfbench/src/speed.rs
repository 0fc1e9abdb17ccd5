//! Host speed reference for the single-client (embedded) workloads.
//!
//! On a shared virtual machine the vCPU's speed drifts, by up to 2× over
//! tens of seconds, which swamps the difference between two versions of
//! the engine. `cold_scan` and `warm_session` therefore report each time
//! divided by the host's current slowdown factor: the time a fixed
//! integer-parsing kernel takes, over its nominal time, as the median of
//! the last five runs. The kernel runs just before each operation, while
//! the engine is idle, and shares no code with it, so no change to the
//! engine can move the factor.
//!
//! `live_logs` reports raw times: there the other connection keeps
//! running during the kernel, and its wire class mostly waits on sockets,
//! which does not scale with CPU speed.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's time at factor 1. Any fixed value works: it only scales
/// the reported times, and it must stay the same across versions.
const NOMINAL_NS: f64 = 250_000.0;

/// Runs of the kernel the factor is the median of.
const WINDOW: usize = 5;

/// 64 KiB of comma-separated decimal integers (fits in L2).
fn input() -> &'static [u8] {
    static BUF: OnceLock<Vec<u8>> = OnceLock::new();
    BUF.get_or_init(|| {
        let mut s = String::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        while s.len() < 64 * 1024 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s.push_str(&(x % 1_000_000_000).to_string());
            s.push(',');
        }
        s.into_bytes()
    })
}

/// Nanoseconds for four passes of parsing and summing the input.
fn kernel_ns() -> f64 {
    let buf = black_box(input());
    let t = Instant::now();
    let (mut sum, mut cur) = (0u64, 0u64);
    for _ in 0..4 {
        for &b in buf {
            if b == b',' {
                sum = sum.wrapping_add(cur);
                cur = 0;
            } else {
                cur = cur * 10 + u64::from(b - b'0');
            }
        }
    }
    black_box(sum);
    t.elapsed().as_nanos() as f64
}

/// Rolling host slowdown factor.
#[derive(Debug, Default)]
pub struct Speed {
    recent: VecDeque<f64>,
}

impl Speed {
    /// Run the kernel once and return the current factor (above 1 when
    /// the host is slower than nominal).
    pub fn factor(&mut self) -> f64 {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(kernel_ns());
        let v: Vec<f64> = self.recent.iter().copied().collect();
        crate::report::percentile(&v, 0.5) / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_finite() {
        let mut s = Speed::default();
        for _ in 0..WINDOW + 2 {
            let f = s.factor();
            assert!(f.is_finite() && f > 0.0, "{f}");
        }
        assert_eq!(s.recent.len(), WINDOW);
    }
}
