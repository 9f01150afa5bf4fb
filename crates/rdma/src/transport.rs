//! Unsignaled-send bookkeeping.
//!
//! The paper's framework posts *unsignaled* sends (no CQE; a known
//! optimization, §2.4) with the mandatory periodic signaled request
//! that keeps the send queue reapable.

/// How often an unsignaled stream must still signal to reap the send
/// queue (every N posts).
pub const SIGNAL_INTERVAL: u64 = 64;

/// Tracks the unsignaled-send bookkeeping of one send queue: which posts
/// the periodic rule forces to signal so the queue never overflows.
#[derive(Debug, Clone, Default)]
pub struct SignalTracker {
    posts: u64,
}

impl SignalTracker {
    /// Creates a tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an unsignaled post; returns whether the periodic rule
    /// forces this post to be signaled.
    pub fn on_post(&mut self) -> bool {
        self.posts += 1;
        self.posts.is_multiple_of(SIGNAL_INTERVAL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsignaled_signals_periodically() {
        let mut t = SignalTracker::new();
        let mut signaled = 0;
        for _ in 0..SIGNAL_INTERVAL * 3 {
            if t.on_post() {
                signaled += 1;
            }
        }
        assert_eq!(signaled, 3, "one forced signal per interval");
    }
}
