//! Read/write burst requests submitted to the memory system.

use crate::address::PhysicalAddress;

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read one burst.
    Read,
    /// Write one burst.
    Write,
}

/// A single burst-granular memory request.
///
/// Requests are the unit of work handed to the [`MemorySystem`]; data payloads
/// are not modelled because only timing matters for the bandwidth study.
///
/// [`MemorySystem`]: crate::MemorySystem
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Whether the request reads or writes.
    pub kind: RequestKind,
    /// Target physical address.
    pub address: PhysicalAddress,
}

impl Request {
    /// Creates a read request.
    #[must_use]
    pub fn read(address: PhysicalAddress) -> Self {
        Self {
            kind: RequestKind::Read,
            address,
        }
    }

    /// Creates a write request.
    #[must_use]
    pub fn write(address: PhysicalAddress) -> Self {
        Self {
            kind: RequestKind::Write,
            address,
        }
    }

    /// Whether this is a write request.
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.kind == RequestKind::Write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let a = PhysicalAddress::new(0, 0, 7, 3);
        assert!(Request::write(a).is_write());
        assert!(!Request::read(a).is_write());
        assert_eq!(Request::read(a).address, a);
    }
}
