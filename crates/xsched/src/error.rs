//! Error type for the scheduling island.

use crate::DomId;
use std::error::Error;
use std::fmt;

/// Errors returned by [`CreditScheduler`](crate::CreditScheduler) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedError {
    /// The referenced domain does not exist.
    UnknownDomain(DomId),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::UnknownDomain(d) => write!(f, "unknown domain {d}"),
        }
    }
}

impl Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            SchedError::UnknownDomain(DomId(7)).to_string(),
            "unknown domain dom7"
        );
    }
}
