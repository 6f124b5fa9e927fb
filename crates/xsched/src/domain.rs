//! Domain (virtual machine) identity and metadata.

use std::fmt;

/// Identifies a domain (VM). `DomId(0)` is Dom0, the privileged controller
/// domain, by convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomId(pub u32);

impl DomId {
    /// The privileged controller domain.
    pub const DOM0: DomId = DomId(0);

    /// `true` for Dom0.
    pub fn is_dom0(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Static metadata for a domain: its name, scheduling weight and cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    id: DomId,
    name: String,
    weight: u32,
    cap_percent: u32,
    nvcpus: u32,
}

impl Domain {
    pub(crate) fn new(id: DomId, name: &str, weight: u32, nvcpus: u32) -> Self {
        Domain {
            id,
            name: name.to_owned(),
            weight: weight.clamp(1, 65_535),
            cap_percent: 0,
            nvcpus,
        }
    }

    /// The domain's identifier.
    pub fn id(&self) -> DomId {
        self.id
    }

    /// Human-readable name ("web", "db", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current scheduling weight (1..=65535, default 256).
    pub fn weight(&self) -> u32 {
        self.weight
    }

    pub(crate) fn set_weight(&mut self, weight: u32) {
        self.weight = weight.clamp(1, 65_535);
    }

    /// CPU cap as a percentage of one pCPU (0 = uncapped).
    pub fn cap_percent(&self) -> u32 {
        self.cap_percent
    }

    pub(crate) fn set_cap_percent(&mut self, cap: u32) {
        self.cap_percent = cap;
    }

    /// Number of virtual CPUs.
    pub fn nvcpus(&self) -> u32 {
        self.nvcpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom0_identity() {
        assert!(DomId::DOM0.is_dom0());
        assert!(!DomId(3).is_dom0());
        assert_eq!(DomId(2).to_string(), "dom2");
    }

    #[test]
    fn weight_clamped() {
        let mut d = Domain::new(DomId(1), "web", 0, 1);
        assert_eq!(d.weight(), 1);
        d.set_weight(100_000);
        assert_eq!(d.weight(), 65_535);
        d.set_weight(512);
        assert_eq!(d.weight(), 512);
    }

    #[test]
    fn metadata() {
        let d = Domain::new(DomId(4), "db", 256, 2);
        assert_eq!(d.id(), DomId(4));
        assert_eq!(d.name(), "db");
        assert_eq!(d.nvcpus(), 2);
        assert_eq!(d.cap_percent(), 0);
    }
}
