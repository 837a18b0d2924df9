//! The end-to-end reference selector of the integration suites.

use l2q_core::{CollectiveState, L2qSelector, Query, QuerySelector, SelectionInput};

/// An L2Q selector restarted before every step: each selection runs on a
/// fresh selector that gets the previous context Φ through
/// `restore_collective`, as a restored session's selector does. So every
/// build starts from an empty candidate table and every walk starts
/// cold. Under `L2qConfig::with_prune(false)` it is the reference the
/// default path (table carried, walks warm-started, context solve
/// pruned) must match.
pub struct Restarted {
    make: fn() -> L2qSelector,
    inner: L2qSelector,
}

impl Restarted {
    pub fn new(make: fn() -> L2qSelector) -> Self {
        Self {
            make,
            inner: make(),
        }
    }
}

impl QuerySelector for Restarted {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn select(&mut self, input: &SelectionInput<'_>) -> Option<Query> {
        let phi = self.inner.collective_state();
        self.inner = (self.make)();
        if let Some(phi) = phi {
            self.inner.restore_collective(phi);
        }
        self.inner.select(input)
    }

    fn collective_state(&self) -> Option<CollectiveState> {
        self.inner.collective_state()
    }

    fn restore_collective(&mut self, state: CollectiveState) {
        self.inner.restore_collective(state)
    }
}
