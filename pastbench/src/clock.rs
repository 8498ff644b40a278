//! Wall-clock time: what the benchmark measures, and what the simulated
//! system must never read. Every timing in the benchmark goes through
//! this module.

use std::time::Instant;

/// A running wall clock.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Seconds since the clock started.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
