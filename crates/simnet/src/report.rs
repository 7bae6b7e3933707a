//! Bandwidth conventions and sweep containers used by the figure harness.
//!
//! The paper's figures plot "BW (MBytes/s)" against message size. We adopt
//! the aggregate conventions consistent with the magnitudes reported:
//!
//! * **broadcast** — `(N-1) * S / t`: payload delivered to all receivers per
//!   unit time (Figures 2, 6, 8);
//! * **allgather** — `N * (N-1) * S / t`: every rank receives `N-1` blocks
//!   of `S` bytes (Figure 7);
//! * **point-to-point** — `S / t`.

use serde::{Deserialize, Serialize};

/// Bytes per MB in the figures' "MBytes/s" unit.
pub const MB: f64 = 1.0e6;

/// Broadcast aggregate bandwidth in MBytes/s.
pub fn bw_bcast(num_ranks: usize, msg_bytes: usize, seconds: f64) -> f64 {
    (num_ranks.saturating_sub(1) as f64) * msg_bytes as f64 / seconds / MB
}

/// Allgather aggregate bandwidth in MBytes/s.
pub fn bw_allgather(num_ranks: usize, block_bytes: usize, seconds: f64) -> f64 {
    (num_ranks as f64) * (num_ranks.saturating_sub(1) as f64) * block_bytes as f64 / seconds / MB
}

/// One `(message size, bandwidth)` sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Message size in bytes.
    pub msg_bytes: usize,
    /// Bandwidth in MBytes/s.
    pub bw_mbs: f64,
    /// Raw completion time in seconds.
    pub seconds: f64,
}

/// A named series of sweep points (one curve of a figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Curve label (e.g. `"KNEMColl_crosssocket"`).
    pub label: String,
    /// Samples in increasing message size.
    pub points: Vec<SweepPoint>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Bandwidth at the given size, if sampled.
    pub fn bw_at(&self, msg_bytes: usize) -> Option<f64> {
        self.points.iter().find(|p| p.msg_bytes == msg_bytes).map(|p| p.bw_mbs)
    }

    /// Peak bandwidth over the sweep.
    pub fn peak_bw(&self) -> f64 {
        self.points.iter().map(|p| p.bw_mbs).fold(0.0, f64::max)
    }
}

/// The standard IMB-style size sweep `512 B .. 8 MB` used by Figures 2, 6, 7.
pub fn imb_sizes() -> Vec<usize> {
    (9..=23).map(|p| 1usize << p).collect()
}

/// The large-message sweep `32 KB .. 8 MB` of Figure 8.
pub fn large_sizes() -> Vec<usize> {
    (15..=23).map(|p| 1usize << p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conventions() {
        assert_eq!(bw_bcast(48, 1_000_000, 1.0), 47.0);
        assert_eq!(bw_allgather(48, 1_000_000, 1.0), 48.0 * 47.0);
        // Degenerate single-rank cases don't divide by negative counts.
        assert_eq!(bw_bcast(1, 1_000_000, 1.0), 0.0);
    }

    #[test]
    fn sweeps_match_figures() {
        let s = imb_sizes();
        assert_eq!(s.first(), Some(&512));
        assert_eq!(s.last(), Some(&(8 << 20)));
        assert_eq!(s.len(), 15, "512B, 1K .. 8M");
        let l = large_sizes();
        assert_eq!(l.first(), Some(&(32 << 10)));
        assert_eq!(l.last(), Some(&(8 << 20)));
    }

    #[test]
    fn series_helpers() {
        let mut s = Series::new("x");
        s.points.push(SweepPoint { msg_bytes: 512, bw_mbs: 10.0, seconds: 1.0 });
        s.points.push(SweepPoint { msg_bytes: 1024, bw_mbs: 20.0, seconds: 1.0 });
        assert_eq!(s.bw_at(512), Some(10.0));
        assert_eq!(s.bw_at(2048), None);
        assert_eq!(s.peak_bw(), 20.0);
    }
}
