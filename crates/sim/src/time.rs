//! Virtual time: picosecond-resolution instants, durations, and CPU
//! frequency / cycle conversions.
//!
//! The paper mixes units freely — nanoseconds for NVMe command writes
//! (77.16 ns), CPU cycles at 2.8 GHz for SMU-internal steps (1/1/5/97/2
//! cycles), and microseconds for device times (2.1–10.9 µs). Picoseconds in
//! a `u64` give exact representation for all of them with ~213 days of
//! simulated range, far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// A span of virtual time with picosecond resolution.
///
/// `Duration` is a thin newtype over `u64` picoseconds. All arithmetic is
/// checked in debug builds via standard integer overflow semantics.
///
/// ```
/// use hwdp_sim::time::Duration;
/// let d = Duration::from_nanos(77) + Duration::from_ps(160);
/// assert_eq!(d.as_ps(), 77_160);
/// assert!((d.as_nanos_f64() - 77.16).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from raw picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns * PS_PER_NS)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * PS_PER_US)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * PS_PER_MS)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * PS_PER_S)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the
    /// nearest picosecond. Negative or non-finite inputs clamp to zero.
    pub fn from_nanos_f64(ns: f64) -> Self {
        if !ns.is_finite() || ns <= 0.0 {
            return Duration::ZERO;
        }
        Duration((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Fractional nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Returns `true` if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is larger.
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales by a non-negative float, rounding to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `k` is negative or non-finite.
    pub fn scale(self, k: f64) -> Duration {
        debug_assert!(k.is_finite() && k >= 0.0, "scale factor must be finite and >= 0");
        Duration((self.0 as f64 * k).round() as u64)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if ps >= PS_PER_NS {
            write!(f, "{:.2}ns", self.as_nanos_f64())
        } else {
            write!(f, "{ps}ps")
        }
    }
}

/// An instant of virtual time (picoseconds since simulation start).
///
/// ```
/// use hwdp_sim::time::{Duration, Time};
/// let t = Time::ZERO + Duration::from_micros(3);
/// assert_eq!(t - Time::ZERO, Duration::from_micros(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// Raw picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration elapsed since simulation start.
    pub const fn since_start(self) -> Duration {
        Duration(self.0)
    }

    /// Saturating difference: `self - earlier`, or zero if `earlier` is
    /// later than `self`.
    pub const fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

/// A CPU clock frequency, used to convert cycle counts to durations.
///
/// The paper's testbed runs a Xeon E5-2640v3 at 2.8 GHz (Table II), which is
/// available as [`Freq::XEON_2640V3`].
///
/// ```
/// use hwdp_sim::time::Freq;
/// let f = Freq::XEON_2640V3;
/// // 97 cycles for three LLC read-modify-writes (Fig. 11(b)).
/// assert!((f.cycles(97).as_nanos_f64() - 34.64).abs() < 0.01);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Freq {
    hz: u64,
}

impl Freq {
    /// The paper's evaluation CPU: Intel Xeon E5-2640v3 at 2.8 GHz.
    pub const XEON_2640V3: Freq = Freq::from_mhz(2_800);

    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero (a zero-frequency clock cannot convert
    /// cycles to time).
    pub const fn from_mhz(mhz: u64) -> Freq {
        assert!(mhz > 0, "frequency must be nonzero");
        Freq { hz: mhz * 1_000_000 }
    }

    /// Creates a frequency from gigahertz (whole GHz only).
    pub const fn from_ghz(ghz: u64) -> Freq {
        Freq::from_mhz(ghz * 1_000)
    }

    /// Frequency in hertz.
    pub const fn hz(self) -> u64 {
        self.hz
    }

    /// Frequency in gigahertz.
    pub fn ghz(self) -> f64 {
        self.hz as f64 / 1e9
    }

    /// Duration of `n` clock cycles, rounded to the nearest picosecond.
    pub fn cycles(self, n: u64) -> Duration {
        // ps = n * 1e12 / hz, in u64 when the product fits (exactly the
        // u128 result), else in u128 so a large n cannot overflow.
        let ps = match n.checked_mul(PS_PER_S) {
            Some(p) => p / self.hz,
            None => ((n as u128 * PS_PER_S as u128) / self.hz as u128) as u64,
        };
        Duration(ps)
    }

    /// Duration of one clock cycle.
    pub fn cycle(self) -> Duration {
        self.cycles(1)
    }

    /// Number of whole cycles in `d` (truncating).
    pub fn cycles_in(self, d: Duration) -> u64 {
        match d.as_ps().checked_mul(self.hz) {
            Some(p) => p / PS_PER_S,
            None => ((d.as_ps() as u128 * self.hz as u128) / PS_PER_S as u128) as u64,
        }
    }

    /// Time to retire `instructions` at a given IPC on this clock.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ipc` is not strictly positive.
    pub fn retire(self, instructions: u64, ipc: f64) -> Duration {
        debug_assert!(ipc > 0.0, "IPC must be positive");
        let cycles = instructions as f64 / ipc;
        Duration(((cycles * PS_PER_S as f64) / self.hz as f64).round() as u64)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GHz", self.ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_nanos(1), Duration::from_ps(1_000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = Duration::from_nanos_f64(77.16);
        assert_eq!(d.as_ps(), 77_160);
        assert!((d.as_nanos_f64() - 77.16).abs() < 1e-9);
    }

    #[test]
    fn duration_float_clamps_bad_input() {
        assert_eq!(Duration::from_nanos_f64(-5.0), Duration::ZERO);
        assert_eq!(Duration::from_nanos_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_nanos_f64(f64::INFINITY), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_nanos(10);
        let b = Duration::from_nanos(4);
        assert_eq!(a + b, Duration::from_nanos(14));
        assert_eq!(a - b, Duration::from_nanos(6));
        assert_eq!(a * 3, Duration::from_nanos(30));
        assert_eq!(a / 2, Duration::from_nanos(5));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_nanos).sum();
        assert_eq!(total, Duration::from_nanos(10));
    }

    #[test]
    fn duration_scale() {
        assert_eq!(Duration::from_nanos(100).scale(0.5), Duration::from_nanos(50));
        assert_eq!(Duration::from_nanos(100).scale(0.0), Duration::ZERO);
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(format!("{}", Duration::from_ps(500)), "500ps");
        assert_eq!(format!("{}", Duration::from_nanos(77)), "77.00ns");
        assert_eq!(format!("{}", Duration::from_micros(11)), "11.000us");
        assert_eq!(format!("{}", Duration::from_millis(4)), "4.000ms");
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::ZERO + Duration::from_micros(5);
        assert_eq!(t - Time::ZERO, Duration::from_micros(5));
        assert_eq!(t.saturating_since(t + Duration::from_nanos(1)), Duration::ZERO);
        assert_eq!(t.max(Time::ZERO), t);
        assert_eq!(t.min(Time::ZERO), Time::ZERO);
    }

    #[test]
    fn freq_cycles_at_2_8ghz() {
        let f = Freq::XEON_2640V3;
        // One cycle at 2.8 GHz is ~357.14 ps.
        assert_eq!(f.cycle().as_ps(), 357);
        // 97 cycles ≈ 34.64 ns (Fig. 11(b) PTE/PMD/PUD update cost).
        assert!((f.cycles(97).as_nanos_f64() - 34.64).abs() < 0.01);
    }

    #[test]
    fn freq_cycles_in_roundtrip() {
        let f = Freq::from_ghz(1);
        assert_eq!(f.cycles_in(Duration::from_nanos(100)), 100);
        assert_eq!(f.cycles_in(f.cycles(12345)), 12345);
    }

    #[test]
    fn freq_retire() {
        let f = Freq::from_ghz(1); // 1 cycle = 1 ns
        assert_eq!(f.retire(1000, 2.0), Duration::from_nanos(500));
        assert_eq!(f.retire(1000, 0.5), Duration::from_micros(2));
    }

    #[test]
    fn freq_display() {
        assert_eq!(format!("{}", Freq::XEON_2640V3), "2.80GHz");
    }
}
