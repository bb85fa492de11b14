//! Machine-speed calibration.
//!
//! The host is a shared VM whose speed drifts and switches between
//! regimes for tens of seconds at a time, so the same op's time moves by
//! 10–45% between minutes. A fixed reference computation, owned by the
//! benchmark and timed right after every op, drifts with it: over 15
//! minutes, the 30-second medians of the clone, design and cache ops
//! spread by 12% (quartile distance over median) and correlated at
//! 0.89–0.95 with this reference's, while the op-to-reference ratios
//! spread by 0.5–1.2%. Op and set-up times are therefore reported scaled
//! to the reference's nominal time. A change to the program cannot move the
//! reference, so it moves scaled times as it moves raw ones.

use std::time::Instant;

/// The reference's median time on the machine the bounds were set on
/// (2-vCPU Xeon VM at 2.0 GHz). Scaled times read as seconds on it.
pub const NOMINAL_S: f64 = 0.00127;

/// Times one pass of the reference: an LCG with a data-dependent branch,
/// in registers, so the op before it leaves no cache state that could
/// change its time. Of the candidates tried (random read-modify-write
/// over 4 MiB, cold or warmed; a branchy walk over 64 KiB; this loop), it
/// tracked the ops' drift best.
pub fn reference() -> f64 {
    let t = Instant::now();
    let (mut x, mut acc) = (1u64, 0u64);
    for i in 0..1_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        if x >> 63 == 1 {
            acc = acc.wrapping_add(x >> 7);
        } else {
            acc ^= x.rotate_left(13);
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// One op's wall time and the reference's time measured right after it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub secs: f64,
    pub reference: f64,
}

impl Sample {
    /// Times `op`, then the reference.
    pub fn time<T>(op: impl FnOnce() -> T) -> (T, Sample) {
        let t = Instant::now();
        let out = op();
        let secs = t.elapsed().as_secs_f64();
        (out, Sample { secs, reference: reference() })
    }

    /// The op's time at the nominal machine speed.
    pub fn scaled(&self) -> f64 {
        self.secs * NOMINAL_S / self.reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        let nominal = Sample { secs: 0.010, reference: NOMINAL_S };
        let slowed = Sample { secs: 0.012, reference: NOMINAL_S * 1.2 };
        assert!((nominal.scaled() - slowed.scaled()).abs() < 1e-15);
        let (out, s) = Sample::time(|| 7);
        assert_eq!(out, 7);
        assert!(s.secs >= 0.0 && s.reference > 0.0);
    }
}
