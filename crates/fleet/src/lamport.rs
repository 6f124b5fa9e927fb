//! Lamport logical clocks and the `(lamport, source)` total order.
//!
//! Cross-node coordination messages cannot be ordered by wall-clock
//! arrival: bus lanes have skewed latency, drop frames, and retransmit,
//! so two nodes can observe the same set of messages in different
//! orders. Following the event-sourcing treatment in the Actyx SDK
//! (SNIPPETS.md snippet 2), every envelope carries a Lamport timestamp
//! and its source node id; sorting by `(lamport, source)` is then a
//! *total* order every observer agrees on, because a single node never
//! reuses a timestamp (its clock strictly increases) and ties between
//! nodes break by the id.

use coord::CoordMsg;

/// A fleet node identifier (shard, rack aggregator, or fleet root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

/// A Lamport logical clock: ticks on every local event, and jumps past
/// any remote timestamp it observes, so causality (`a` happened-before
/// `b`) always implies `lamport(a) < lamport(b)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LamportClock {
    time: u64,
}

impl LamportClock {
    /// A clock at time zero (no events witnessed yet).
    pub fn new() -> Self {
        LamportClock { time: 0 }
    }

    /// Advances for a local event and returns the new timestamp.
    pub fn tick(&mut self) -> u64 {
        self.time += 1;
        self.time
    }

    /// Folds in a remote timestamp (message receipt) and returns the new
    /// local time, which is strictly greater than both inputs.
    pub fn observe(&mut self, remote: u64) -> u64 {
        self.time = self.time.max(remote) + 1;
        self.time
    }

    /// The current timestamp (last returned by [`Self::tick`] /
    /// [`Self::observe`]).
    pub fn now(&self) -> u64 {
        self.time
    }
}

/// A coordination message stamped for cross-node transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Lamport timestamp assigned by the sender's clock.
    pub lamport: u64,
    /// The sending node (total-order tie-breaker).
    pub source: NodeId,
    /// The coordination verb itself.
    pub msg: CoordMsg,
}

impl Envelope {
    /// The envelope's position in the fleet-wide total order.
    pub fn key(&self) -> (u64, u16) {
        (self.lamport, self.source.0)
    }
}

/// Sorts envelopes into the `(lamport, source)` total order in place.
pub fn sort_envelopes(envs: &mut [Envelope]) {
    envs.sort_by_key(Envelope::key);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ticks_and_observes() {
        let mut c = LamportClock::new();
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        // Observing a remote time jumps strictly past it.
        assert_eq!(c.observe(10), 11);
        // Observing the past still advances.
        assert_eq!(c.observe(3), 12);
        assert_eq!(c.now(), 12);
    }
}
