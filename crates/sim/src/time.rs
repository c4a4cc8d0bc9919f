//! Simulation time in integer picoseconds.
//!
//! Replay experiments compare packet exit times for *exact* equality
//! (`o'(p) ≤ o(p)`), so simulation time must be free of floating-point
//! rounding. One picosecond resolves every rate used in the paper exactly:
//! one bit at 1 Gbps is 1000 ps, one byte at 10 Gbps is 800 ps.
//!
//! [`Time`] is an absolute instant (ps since simulation start), [`Dur`] is a
//! non-negative span, and slack values — which go negative when a packet is
//! overdue — are plain `i64` picoseconds (see `ups-net`'s slack header).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An absolute simulation instant, in picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A non-negative span of simulation time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * PS_PER_SEC)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * PS_PER_MS)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * PS_PER_US)
    }
    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns * PS_PER_NS)
    }
    /// Construct from fractional seconds (workload-generation convenience;
    /// never used on the replay comparison path).
    pub fn from_secs_f64(s: f64) -> Time {
        debug_assert!(s >= 0.0 && s.is_finite());
        Time((s * PS_PER_SEC as f64).round() as u64)
    }

    /// Picoseconds since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Convert to fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// Convert to fractional microseconds (for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// `self − earlier`, panicking in debug builds if `earlier` is later.
    pub fn since(self, earlier: Time) -> Dur {
        debug_assert!(
            self >= earlier,
            "Time::since would underflow: {self:?} < {earlier:?}"
        );
        Dur(self.0 - earlier.0)
    }

    /// Signed difference `self − other` in picoseconds (slack arithmetic).
    pub fn signed_since(self, other: Time) -> i64 {
        self.0 as i64 - other.0 as i64
    }

    /// Saturating conversion of a signed picosecond offset into an instant.
    pub fn offset(self, ps: i64) -> Time {
        if ps >= 0 {
            Time(self.0.saturating_add(ps as u64))
        } else {
            Time(self.0.saturating_sub(ps.unsigned_abs()))
        }
    }
}

impl Dur {
    /// A zero-length span.
    pub const ZERO: Dur = Dur(0);
    /// The largest representable span.
    pub const MAX: Dur = Dur(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * PS_PER_SEC)
    }
    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * PS_PER_MS)
    }
    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * PS_PER_US)
    }
    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns * PS_PER_NS)
    }
    /// Construct from fractional seconds (workload generation only).
    pub fn from_secs_f64(s: f64) -> Dur {
        debug_assert!(s >= 0.0 && s.is_finite());
        Dur((s * PS_PER_SEC as f64).round() as u64)
    }

    /// Picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Convert to fractional seconds (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// Convert to fractional microseconds (reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Signed picoseconds (slack arithmetic).
    pub const fn as_i64(self) -> i64 {
        self.0 as i64
    }

    /// Integer multiply, checked in debug builds.
    pub fn times(self, n: u64) -> Dur {
        Dur(self.0.checked_mul(n).expect("Dur::times overflow"))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.checked_add(rhs.0).expect("Time + Dur overflow"))
    }
}
impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}
impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("Time - Dur underflow"))
    }
}
impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        self.since(rhs)
    }
}
impl Add<Dur> for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_add(rhs.0).expect("Dur + Dur overflow"))
    }
}
impl AddAssign<Dur> for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}
impl Sub<Dur> for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.checked_sub(rhs.0).expect("Dur - Dur underflow"))
    }
}
impl SubAssign<Dur> for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        self.times(rhs)
    }
}
impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < PS_PER_US {
            write!(f, "{}ns", self.0 as f64 / PS_PER_NS as f64)
        } else if self.0 < PS_PER_SEC {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

/// Link bandwidth in bits per second.
///
/// Transmission times are computed with integer arithmetic (u128
/// intermediate) and rounded *up*, so a byte never transmits in zero time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// An idealized infinite-rate link: serialization takes zero time.
    ///
    /// Used by the theory module's unit networks, where uncongested hops
    /// must be *exactly* free so that contention decisions land on the
    /// appendix tables' integer time grid. Never use for links that are
    /// meant to model real capacity.
    pub const INFINITE: Bandwidth = Bandwidth(u64::MAX);

    /// Construct from bits per second.
    pub const fn bps(b: u64) -> Bandwidth {
        Bandwidth(b)
    }
    /// Construct from megabits per second.
    pub const fn mbps(m: u64) -> Bandwidth {
        Bandwidth(m * 1_000_000)
    }
    /// Construct from gigabits per second.
    pub const fn gbps(g: u64) -> Bandwidth {
        Bandwidth(g * 1_000_000_000)
    }

    /// Bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` onto this link (ceiling division);
    /// zero for [`Bandwidth::INFINITE`].
    pub fn tx_time(self, bytes: u32) -> Dur {
        debug_assert!(self.0 > 0, "zero bandwidth");
        if self.0 == u64::MAX {
            return Dur::ZERO;
        }
        let bits = bytes as u128 * 8;
        let ps = (bits * PS_PER_SEC as u128).div_ceil(self.0 as u128);
        Dur(ps as u64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{}Gbps", self.0 as f64 / 1e9)
        } else {
            write!(f, "{}Mbps", self.0 as f64 / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_is_exact_for_paper_rates() {
        // 1500 B at 1 Gbps = 12 us (the paper's T for the bottleneck link).
        assert_eq!(Bandwidth::gbps(1).tx_time(1500), Dur::from_micros(12));
        // 1500 B at 10 Gbps = 1.2 us.
        assert_eq!(Bandwidth::gbps(10).tx_time(1500), Dur::from_nanos(1200));
        // 1 B at 10 Gbps = 800 ps exactly.
        assert_eq!(Bandwidth::gbps(10).tx_time(1), Dur(800));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps: 8 bits / 3 bps = 2.666..s -> ceil.
        let d = Bandwidth::bps(3).tx_time(1);
        assert_eq!(d.0, (8 * PS_PER_SEC as u128).div_ceil(3) as u64);
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_micros(5);
        let d = Dur::from_nanos(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.signed_since(t + d), -(d.as_i64()));
    }

    #[test]
    fn offset_handles_signs() {
        let t = Time::from_nanos(10);
        assert_eq!(t.offset(-5_000), Time::from_nanos(5));
        assert_eq!(t.offset(5_000), Time::from_nanos(15));
        assert_eq!(Time::ZERO.offset(-1), Time::ZERO); // saturates
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Dur::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Bandwidth::gbps(10)), "10Gbps");
    }
}
