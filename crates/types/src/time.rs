//! Simulation clock.
//!
//! The tracing system samples OS-level metrics every 30 seconds; the
//! simulator therefore advances in 30-second [`Tick`]s. The full trace
//! window is eight days (23,040 ticks).

use std::ops::{Add, AddAssign, Sub};

/// Seconds per tick (the trace's OS-level sampling interval).
pub const TICK_SECONDS: u64 = 30;
/// Ticks per minute.
pub const TICKS_PER_MINUTE: u64 = 60 / TICK_SECONDS;
/// Ticks per hour.
pub const TICKS_PER_HOUR: u64 = 60 * TICKS_PER_MINUTE;
/// Ticks per day.
pub const TICKS_PER_DAY: u64 = 24 * TICKS_PER_HOUR;

/// A point in simulated time, counted in 30-second ticks from the start
/// of the trace window.
///
/// # Examples
///
/// ```
/// use optum_types::{Tick, TICKS_PER_DAY};
///
/// let t = Tick::from_days(1) + Tick::from_minutes(10);
/// assert_eq!(t.0, TICKS_PER_DAY + 20);
/// assert_eq!(t.as_seconds(), 86_400 + 600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tick(pub u64);

impl Tick {
    /// The start of the trace window.
    pub const ZERO: Tick = Tick(0);

    /// Constructs a tick count from whole minutes.
    pub const fn from_minutes(minutes: u64) -> Tick {
        Tick(minutes * TICKS_PER_MINUTE)
    }

    /// Constructs a tick count from whole hours.
    pub const fn from_hours(hours: u64) -> Tick {
        Tick(hours * TICKS_PER_HOUR)
    }

    /// Constructs a tick count from whole days.
    pub const fn from_days(days: u64) -> Tick {
        Tick(days * TICKS_PER_DAY)
    }

    /// Elapsed simulated seconds since the window start.
    pub fn as_seconds(&self) -> u64 {
        self.0 * TICK_SECONDS
    }

    /// Elapsed simulated time in fractional hours.
    pub fn as_hours_f64(&self) -> f64 {
        self.0 as f64 / TICKS_PER_HOUR as f64
    }

    /// Time of day in fractional hours, in `[0, 24)` — the phase input
    /// of the diurnal QPS model.
    pub fn hour_of_day(&self) -> f64 {
        let day_ticks = self.0 % TICKS_PER_DAY;
        day_ticks as f64 / TICKS_PER_HOUR as f64
    }

    /// Index of the simulated day this tick falls in.
    pub fn day(&self) -> u64 {
        self.0 / TICKS_PER_DAY
    }

    /// Index of the minute this tick falls in (Fig. 7 bins arrivals by
    /// minute).
    pub fn minute(&self) -> u64 {
        self.0 / TICKS_PER_MINUTE
    }

    /// Next tick.
    pub fn next(&self) -> Tick {
        Tick(self.0 + 1)
    }

    /// Saturating difference in ticks.
    pub fn saturating_since(&self, earlier: Tick) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add for Tick {
    type Output = Tick;

    fn add(self, rhs: Tick) -> Tick {
        Tick(self.0 + rhs.0)
    }
}

impl AddAssign for Tick {
    fn add_assign(&mut self, rhs: Tick) {
        self.0 += rhs.0;
    }
}

impl Sub for Tick {
    type Output = Tick;

    fn sub(self, rhs: Tick) -> Tick {
        Tick(self.0 - rhs.0)
    }
}

impl std::fmt::Display for Tick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(TICKS_PER_MINUTE, 2);
        assert_eq!(TICKS_PER_HOUR, 120);
        assert_eq!(TICKS_PER_DAY, 2880);
        assert_eq!(Tick::from_days(8).0, 23_040);
    }

    #[test]
    fn hour_of_day_wraps() {
        let t = Tick::from_days(2) + Tick::from_hours(13);
        assert!((t.hour_of_day() - 13.0).abs() < 1e-12);
        assert_eq!(t.day(), 2);
    }

    #[test]
    fn minute_binning() {
        assert_eq!(Tick(0).minute(), 0);
        assert_eq!(Tick(1).minute(), 0);
        assert_eq!(Tick(2).minute(), 1);
    }

    #[test]
    fn saturating_since_never_underflows() {
        assert_eq!(Tick(5).saturating_since(Tick(10)), 0);
        assert_eq!(Tick(10).saturating_since(Tick(5)), 5);
    }
}
