//! Order statistics over timing samples, and the digest of simulated
//! outputs.

/// Tail percentiles are reported only with at least this many samples
/// beyond them.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count), or
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (in `(0, 1)`), or `None` unless at least
/// [`TAIL_SAMPLES`] samples lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let rank = (q * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() - rank >= TAIL_SAMPLES).then(|| v[rank - 1])
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, or `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// FNV-1a over the simulated outputs of a run. Timing never enters it,
/// so a change that only makes the simulator faster leaves it unchanged.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Hashes a value's `Debug` text. `{:?}` prints every `f64` in its
    /// shortest round-trip form, so equal text means bit-equal floats.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.9), None, "99 samples leave 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.9), Some(90.0));
        assert_eq!(tail(&xs, 0.95), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::default();
        a.u64(7);
        a.f64(0.5);
        a.debug(&"clone");
        // Pinned, so digests stay comparable across builds of the benchmark.
        assert_eq!(a.value(), 0x34d6_82b9_848c_bc06);
        let mut b = Digest::default();
        b.f64(0.5);
        b.u64(7);
        b.debug(&"clone");
        assert_ne!(a.value(), b.value());
    }
}
