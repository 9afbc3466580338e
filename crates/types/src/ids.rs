//! Strongly-typed identifiers for pods, applications and nodes.
//!
//! The trace identifies every entity by an opaque numeric id; newtypes
//! keep the ids from being mixed up at compile time while staying
//! `Copy`-cheap for use as map keys throughout the scheduler hot path.

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index value.
            pub fn index(&self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v as u32)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a pod (one task of one application).
    PodId
);
define_id!(
    /// Identifier of an application; pods sharing an `AppId` provide the
    /// same service and behave consistently (§3.3.1).
    AppId
);
define_id!(
    /// Identifier of a physical host.
    NodeId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_usize() {
        let p = PodId::from(42usize);
        assert_eq!(p.index(), 42);
        assert_eq!(p, PodId(42));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(NodeId(7).to_string(), "NodeId(7)");
        assert_eq!(AppId(3).to_string(), "AppId(3)");
    }

    #[test]
    fn ids_are_ordered() {
        assert!(PodId(1) < PodId(2));
    }
}
