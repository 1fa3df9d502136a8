//! Accountability bookkeeping for the crawl pool.
//!
//! Whatever happens to a worker, the pool keeps two promises, and the rules
//! for both live here:
//!
//! - every site is delivered exactly once ([`DeliveryBoard`]), with a
//!   quarantined placeholder gap-filled in index order for any site nobody
//!   delivered (worker lost outside the panic guard);
//! - a site whose crawl panics is retried exactly once, elsewhere, and
//!   quarantined on the second panic ([`PanicLedger`]).

use parking_lot::Mutex;

/// Tracks which site indices have been handed to the `deliver` sink.
pub(crate) struct DeliveryBoard {
    delivered: Mutex<Vec<bool>>,
}

impl DeliveryBoard {
    pub(crate) fn new(sites: usize) -> DeliveryBoard {
        DeliveryBoard {
            delivered: Mutex::new(vec![false; sites]),
        }
    }

    pub(crate) fn mark(&self, index: usize) {
        let mut board = self.delivered.lock();
        if let Some(slot) = board.get_mut(index) {
            *slot = true;
        }
    }

    /// Call `fill` for every undelivered index, in index order. Runs after
    /// the pool drains, so no site is silently dropped.
    pub(crate) fn fill_gaps(self, mut fill: impl FnMut(usize)) {
        for (index, seen) in self.delivered.into_inner().into_iter().enumerate() {
            if !seen {
                fill(index);
            }
        }
    }
}

/// Panic-retry policy: one retry per site, then quarantine. The ledger
/// records which sites already burned their retry; the pool consults it
/// through [`PanicLedger::first_panic`].
pub(crate) struct PanicLedger {
    retried: Mutex<Vec<bool>>,
}

impl PanicLedger {
    pub(crate) fn new(sites: usize) -> PanicLedger {
        PanicLedger {
            retried: Mutex::new(vec![false; sites]),
        }
    }

    /// Returns `true` when the site still has its retry available (and
    /// consumes it); `false` means this is a repeat panic — quarantine.
    pub(crate) fn first_panic(&self, index: usize) -> bool {
        let mut retried = self.retried.lock();
        match retried.get_mut(index) {
            Some(slot) if !*slot => {
                *slot = true;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_gap_fills_only_unmarked_indices_in_order() {
        let board = DeliveryBoard::new(4);
        board.mark(1);
        board.mark(3);
        board.mark(99); // out of range: ignored
        let mut gaps = Vec::new();
        board.fill_gaps(|i| gaps.push(i));
        assert_eq!(gaps, vec![0, 2]);
    }

    #[test]
    fn ledger_allows_exactly_one_retry_per_site() {
        let ledger = PanicLedger::new(2);
        assert!(ledger.first_panic(0));
        assert!(!ledger.first_panic(0));
        assert!(!ledger.first_panic(0));
        assert!(ledger.first_panic(1));
        assert!(!ledger.first_panic(5)); // out of range: no retry
    }
}
