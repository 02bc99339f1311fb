//! The crate's one blocking queue: an unbounded multi-producer,
//! multi-consumer FIFO that can be closed. It feeds the request threads
//! ([`crate::pool`]), the CPU lane of [`crate::Scheduler::run_chain`] and the
//! store writer ([`crate::StoreLayer`]).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

pub(crate) struct Fifo<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Fifo<T> {
    pub(crate) const fn new() -> Self {
        Self {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `item` and wakes one waiting consumer; `false` (and `item`
    /// dropped) once the queue is closed.
    pub(crate) fn push(&self, item: T) -> bool {
        self.push_all([item])
    }

    /// Appends `items` in order with no other push between them, and wakes
    /// one waiting consumer per item; `false` (and `items` dropped) once the
    /// queue is closed.
    pub(crate) fn push_all(&self, items: impl IntoIterator<Item = T>) -> bool {
        let mut state = self.lock();
        if state.closed {
            return false;
        }
        let before = state.items.len();
        state.items.extend(items);
        let pushed = state.items.len() - before;
        drop(state);
        for _ in 0..pushed {
            self.ready.notify_one();
        }
        true
    }

    /// Blocks for the oldest item; `None` once the queue is closed and
    /// drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refuses further pushes; consumers drain what is queued, then see
    /// `None`.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}
