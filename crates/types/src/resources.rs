//! Normalized multi-dimensional resource vectors.
//!
//! The tracing system in the paper normalizes CPU and memory to host
//! capacity, so a [`Resources`] value is a pair of dimensionless
//! fractions. The scheduler treats the pair as a 2-vector: the alignment
//! score of §3.2.1 is the inner product between a pod's request vector
//! and a host's availability vector.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// The resource dimensions tracked by the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Normalized CPU cores.
    Cpu,
    /// Normalized memory bytes.
    Memory,
}

impl ResourceKind {
    /// All tracked dimensions, in canonical order.
    pub const ALL: [ResourceKind; 2] = [ResourceKind::Cpu, ResourceKind::Memory];
}

/// A normalized (CPU, memory) resource vector.
///
/// Values are fractions of a standard host's capacity; they are *not*
/// clamped to `[0, 1]` because over-commitment deliberately drives sums
/// past capacity.
///
/// # Examples
///
/// ```
/// use optum_types::Resources;
///
/// let req = Resources::new(0.03, 0.01);
/// let host_free = Resources::new(0.5, 0.8);
/// assert!(req.fits_within(&host_free));
/// assert_eq!(req + req, Resources::new(0.06, 0.02));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// Normalized CPU cores.
    pub cpu: f64,
    /// Normalized memory.
    pub mem: f64,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources { cpu: 0.0, mem: 0.0 };

    /// The capacity of a standard (normalized) host.
    pub const UNIT: Resources = Resources { cpu: 1.0, mem: 1.0 };

    /// Creates a resource vector from normalized CPU and memory.
    pub const fn new(cpu: f64, mem: f64) -> Self {
        Resources { cpu, mem }
    }

    /// Returns the value of one dimension.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Cpu => self.cpu,
            ResourceKind::Memory => self.mem,
        }
    }

    /// Sets the value of one dimension.
    pub fn set(&mut self, kind: ResourceKind, value: f64) {
        match kind {
            ResourceKind::Cpu => self.cpu = value,
            ResourceKind::Memory => self.mem = value,
        }
    }

    /// Component-wise inner product (the alignment score of §3.2.1).
    pub fn dot(&self, other: &Resources) -> f64 {
        self.cpu * other.cpu + self.mem * other.mem
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &Resources) -> Resources {
        Resources::new(self.cpu.max(other.cpu), self.mem.max(other.mem))
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &Resources) -> Resources {
        Resources::new(self.cpu.min(other.cpu), self.mem.min(other.mem))
    }

    /// Subtraction clamped at zero in each dimension.
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources::new(
            (self.cpu - other.cpu).max(0.0),
            (self.mem - other.mem).max(0.0),
        )
    }

    /// Component-wise scaling.
    pub fn scale(&self, factor: f64) -> Resources {
        Resources::new(self.cpu * factor, self.mem * factor)
    }

    /// Component-wise division; dimensions where `capacity` is zero
    /// yield zero, so utilization of an empty capacity is well-defined.
    pub fn div(&self, capacity: &Resources) -> Resources {
        let safe = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        Resources::new(safe(self.cpu, capacity.cpu), safe(self.mem, capacity.mem))
    }

    /// True when every dimension of `self` is at most the matching
    /// dimension of `other` (with a tiny epsilon for float round-off).
    pub fn fits_within(&self, other: &Resources) -> bool {
        const EPS: f64 = 1e-12;
        self.cpu <= other.cpu + EPS && self.mem <= other.mem + EPS
    }

    /// True when any dimension exceeds the matching dimension of
    /// `capacity` — i.e. the host is in violation.
    pub fn exceeds(&self, capacity: &Resources) -> bool {
        !self.fits_within(capacity)
    }

    /// True when both dimensions are finite and non-negative.
    pub fn is_valid(&self) -> bool {
        self.cpu.is_finite() && self.mem.is_finite() && self.cpu >= 0.0 && self.mem >= 0.0
    }

    /// Component-wise clamp into `[0, hi]`.
    pub fn clamp_to(&self, hi: &Resources) -> Resources {
        Resources::new(self.cpu.clamp(0.0, hi.cpu), self.mem.clamp(0.0, hi.mem))
    }

    /// The product of the two utilization dimensions, the joint
    /// utilization objective `Utiᶜ · Utiᴹ` from Eq. (6) of the paper.
    pub fn joint_product(&self) -> f64 {
        self.cpu * self.mem
    }
}

impl Add for Resources {
    type Output = Resources;

    fn add(self, rhs: Resources) -> Resources {
        Resources::new(self.cpu + rhs.cpu, self.mem + rhs.mem)
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        self.cpu += rhs.cpu;
        self.mem += rhs.mem;
    }
}

impl Sub for Resources {
    type Output = Resources;

    fn sub(self, rhs: Resources) -> Resources {
        Resources::new(self.cpu - rhs.cpu, self.mem - rhs.mem)
    }
}

impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        self.cpu -= rhs.cpu;
        self.mem -= rhs.mem;
    }
}

impl Mul<f64> for Resources {
    type Output = Resources;

    fn mul(self, rhs: f64) -> Resources {
        self.scale(rhs)
    }
}

impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |acc, r| acc + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_component_wise() {
        let a = Resources::new(0.2, 0.4);
        let b = Resources::new(0.1, 0.5);
        assert_eq!(a + b, Resources::new(0.30000000000000004, 0.9));
        assert_eq!((a - b).cpu, 0.1);
        assert_eq!(a.max(&b), Resources::new(0.2, 0.5));
        assert_eq!(a.min(&b), Resources::new(0.1, 0.4));
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = Resources::new(0.1, 0.9);
        let b = Resources::new(0.5, 0.2);
        let d = a.saturating_sub(&b);
        assert_eq!(d, Resources::new(0.0, 0.7));
    }

    #[test]
    fn dot_matches_alignment_score() {
        let req = Resources::new(0.03, 0.02);
        let avail = Resources::new(0.5, 0.25);
        assert!((req.dot(&avail) - (0.03 * 0.5 + 0.02 * 0.25)).abs() < 1e-15);
    }

    #[test]
    fn fits_within_allows_equal_with_epsilon() {
        let cap = Resources::UNIT;
        assert!(Resources::new(1.0, 1.0).fits_within(&cap));
        assert!(!Resources::new(1.0 + 1e-6, 0.2).fits_within(&cap));
        assert!(Resources::new(1.0 + 1e-13, 0.2).fits_within(&cap));
    }

    #[test]
    fn div_handles_zero_capacity() {
        let used = Resources::new(0.5, 0.5);
        let util = used.div(&Resources::new(0.0, 2.0));
        assert_eq!(util, Resources::new(0.0, 0.25));
    }

    #[test]
    fn sum_of_iter() {
        let total: Resources = (0..4).map(|_| Resources::new(0.25, 0.1)).sum();
        assert!((total.cpu - 1.0).abs() < 1e-12);
        assert!((total.mem - 0.4).abs() < 1e-12);
    }

    #[test]
    fn get_set_round_trip() {
        let mut r = Resources::ZERO;
        for kind in ResourceKind::ALL {
            r.set(kind, 0.7);
            assert_eq!(r.get(kind), 0.7);
        }
    }

    #[test]
    fn validity() {
        assert!(Resources::new(0.0, 0.0).is_valid());
        assert!(!Resources::new(-0.1, 0.0).is_valid());
        assert!(!Resources::new(f64::NAN, 0.0).is_valid());
    }
}
