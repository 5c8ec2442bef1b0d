//! Service ports.
//!
//! A *port* is the address of a service.  In Amoeba a port is a 48-bit sparse value:
//! knowing a service's (private) get-port is what entitles a process to act as that
//! service.  Clients only ever see the corresponding public put-port.  This
//! reproduction keeps the 48-bit width and the get-port → put-port derivation, because
//! the file service uses distinct ports per server replica and the locking machinery
//! of the paper stores ports inside lock fields ("locks are made of ports", §5.3).

use std::fmt;

use crate::one_way;

/// A 48-bit Amoeba service port.
///
/// Stored in the low 48 bits of a `u64`; the top 16 bits are always zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(u64);

/// Mask selecting the 48 significant bits of a port.
pub const PORT_MASK: u64 = (1 << 48) - 1;

impl Port {
    /// The null port.  Used to mean "no lock holder" in the file-service lock fields.
    pub const NULL: Port = Port(0);

    /// Creates a port from a raw 48-bit value.  The upper 16 bits are discarded.
    pub fn from_raw(raw: u64) -> Self {
        Port(raw & PORT_MASK)
    }

    /// Returns the raw 48-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Generates a fresh random (private get-) port.
    pub fn random() -> Self {
        Port(rand::random::<u64>() & PORT_MASK).ensure_non_null()
    }

    /// Derives the public put-port that clients use to address the service that
    /// listens on this (private) get-port.
    pub fn put_port(self) -> Port {
        Port(one_way(self.0, 0x50) & PORT_MASK).ensure_non_null()
    }

    /// Returns true if this is the null port.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    fn ensure_non_null(self) -> Self {
        if self.0 == 0 {
            Port(1)
        } else {
            self
        }
    }
}

impl fmt::Debug for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Port({:012x})", self.0)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:012x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_raw_masks_to_48_bits() {
        let p = Port::from_raw(u64::MAX);
        assert_eq!(p.raw(), PORT_MASK);
    }

    #[test]
    fn null_port_is_null() {
        assert!(Port::NULL.is_null());
        assert!(!Port::random().is_null());
    }

    #[test]
    fn put_port_differs_from_get_port() {
        let get = Port::random();
        let put = get.put_port();
        assert_ne!(get, put);
        // Deriving twice gives the same put-port.
        assert_eq!(put, get.put_port());
    }

    #[test]
    fn random_ports_are_distinct() {
        let a = Port::random();
        let b = Port::random();
        assert_ne!(
            a, b,
            "two random 48-bit ports collided; astronomically unlikely"
        );
    }

    #[test]
    fn display_is_twelve_hex_digits() {
        let p = Port::from_raw(0xabc);
        assert_eq!(format!("{p}"), "000000000abc");
    }
}
