//! Small discrete-event scheduling primitives.
//!
//! The architecture simulations walk task graphs in dependency order and
//! book work onto *servers* — FIFO resources with one or more lanes.
//! Virtual time is `u64` nanoseconds.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A FIFO resource with `k` identical lanes (k = 1 models a pipeline
/// stage thread or a serialized device engine; k > 1 models a worker
/// pool).
#[derive(Clone, Debug)]
pub struct Server {
    lanes: BinaryHeap<Reverse<u64>>,
}

impl Server {
    /// A server with `k` lanes, all free at t = 0.
    pub fn new(k: usize) -> Server {
        assert!(k >= 1);
        Server {
            lanes: (0..k).map(|_| Reverse(0u64)).collect(),
        }
    }

    /// Books a task that becomes ready at `ready` and runs for `dur`.
    /// Returns `(start, end)`.
    pub fn book(&mut self, ready: u64, dur: u64) -> (u64, u64) {
        let Reverse(free) = self.lanes.pop().expect("server has lanes");
        let start = ready.max(free);
        let end = start + dur;
        self.lanes.push(Reverse(end));
        (start, end)
    }

    /// Latest lane-busy horizon (when the whole server drains).
    pub fn drained(&self) -> u64 {
        self.lanes.iter().map(|Reverse(t)| *t).max().unwrap_or(0)
    }
}

/// A pool of fungible tokens that become available at recorded times
/// (models the fixed device-buffer pool: acquisition blocks until the
/// earliest release).
#[derive(Clone, Debug)]
pub struct TokenPool {
    tokens: BinaryHeap<Reverse<u64>>,
}

impl TokenPool {
    /// `k` tokens, all available at t = 0.
    pub fn new(k: usize) -> TokenPool {
        TokenPool {
            tokens: (0..k).map(|_| Reverse(0u64)).collect(),
        }
    }

    /// Takes the earliest-available token; the acquisition completes at
    /// `max(ready, token_time)`. Panics if the pool is structurally
    /// exhausted (the real system would deadlock).
    pub fn acquire(&mut self, ready: u64) -> u64 {
        let Reverse(avail) = self
            .tokens
            .pop()
            .expect("token pool exhausted: pool smaller than the traversal's live set");
        ready.max(avail)
    }

    /// Returns a token at time `at`.
    pub fn release(&mut self, at: u64) {
        self.tokens.push(Reverse(at));
    }

    /// Tokens currently tracked (acquired ones are absent).
    pub fn available(&self) -> usize {
        self.tokens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_serializes() {
        let mut s = Server::new(1);
        assert_eq!(s.book(0, 10), (0, 10));
        assert_eq!(s.book(0, 5), (10, 15));
        assert_eq!(s.book(20, 5), (20, 25));
        assert_eq!(s.drained(), 25);
    }

    #[test]
    fn multi_lane_overlaps() {
        let mut s = Server::new(2);
        assert_eq!(s.book(0, 10), (0, 10));
        assert_eq!(s.book(0, 10), (0, 10));
        assert_eq!(s.book(0, 10), (10, 20));
        assert_eq!(s.book(0, 0), (10, 10), "the first lane frees at 10");
    }

    #[test]
    fn token_pool_gates() {
        let mut p = TokenPool::new(2);
        assert_eq!(p.acquire(5), 5);
        assert_eq!(p.acquire(5), 5);
        p.release(30);
        assert_eq!(p.acquire(10), 30, "third acquisition waits for release");
    }

    #[test]
    #[should_panic]
    fn exhausted_pool_panics() {
        let mut p = TokenPool::new(1);
        p.acquire(0);
        p.acquire(0);
    }
}
