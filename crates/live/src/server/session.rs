//! Resume sessions: the cumulative consumed-record ack per session id
//! (DESIGN.md §15). Called from reader threads only; owns
//! `Shared::resume`, and nothing but `begin`/`end`/`ack` reaches in.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long `hello`/`resume` wait for the previous epoch's connection
/// to retire before giving up with `SessionBusy`.
const SESSION_HANDOFF_DEADLINE: Duration = Duration::from_secs(10);

/// One resume session: the ack is the cumulative number of records the
/// server has *consumed* (applied or rejected) across all connections, and is
/// only advanced after the owning reader synced its lanes — so a client
/// resending from the ack can never double-count.
#[derive(Default)]
struct SessionEntry {
    /// Cumulative consumed records, published when the owner hands back.
    acked: u64,
    /// A connection currently owns this session.
    active: bool,
}

type Table = HashMap<u64, SessionEntry>;

/// The session table and the condvar its hand-offs wait on.
pub(super) struct Sessions {
    table: Mutex<Table>,
    /// Signalled when a session's owning connection hands it back,
    /// releasing `begin`/`ack` waiters.
    handed_back: Condvar,
    handoff_deadline: Duration,
}

impl Sessions {
    pub(super) fn new() -> Sessions {
        Sessions::with_deadline(SESSION_HANDOFF_DEADLINE)
    }

    fn with_deadline(handoff_deadline: Duration) -> Sessions {
        Sessions { table: Mutex::default(), handed_back: Condvar::new(), handoff_deadline }
    }

    /// The locked table once no connection owns `id`, so its ack is
    /// final; `None` if the owner did not hand back within the deadline.
    fn unowned(&self, id: u64) -> Option<MutexGuard<'_, Table>> {
        let deadline = Instant::now() + self.handoff_deadline;
        let mut table = self.table.lock().expect("sessions");
        while table.get(&id).is_some_and(|entry| entry.active) {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            table = self.handed_back.wait_timeout(table, deadline - now).expect("sessions wait").0;
        }
        Some(table)
    }

    /// Claim session `id` for the calling connection, waiting (bounded)
    /// for a previous owner to hand it back. Returns the cumulative ack
    /// to resume from; `None` if the hand-off timed out.
    pub(super) fn begin(&self, id: u64) -> Option<u64> {
        let mut table = self.unowned(id)?;
        let entry = table.entry(id).or_default();
        entry.active = true;
        Some(entry.acked)
    }

    /// Hand session `id` back, folding this connection's consumed count
    /// into the cumulative ack. The caller has synced its lanes, so
    /// every acked record is applied.
    pub(super) fn end(&self, id: u64, consumed: u64) {
        if let Some(entry) = self.table.lock().expect("sessions").get_mut(&id) {
            entry.acked += consumed;
            entry.active = false;
        }
        self.handed_back.notify_all();
    }

    /// The final ack for `id`, waiting (bounded) for an active owner to
    /// hand it back first. Unknown sessions ack 0. `None` on timeout.
    pub(super) fn ack(&self, id: u64) -> Option<u64> {
        Some(self.unowned(id)?.get(&id).map_or(0, |entry| entry.acked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn a_second_begin_waits_for_end_and_resumes_from_the_cumulative_ack() {
        let sessions = Sessions::with_deadline(Duration::from_secs(60));
        assert_eq!(sessions.begin(7), Some(0));
        std::thread::scope(|scope| {
            let (started_tx, started_rx) = channel();
            let (claimed_tx, claimed_rx) = channel();
            let sessions = &sessions;
            scope.spawn(move || {
                started_tx.send(()).expect("main is listening");
                claimed_tx.send(sessions.begin(7)).expect("main is listening");
            });
            started_rx.recv().expect("the second connection runs");
            // The owner is still attached: the second claim cannot have
            // gone through, however long it has been running.
            assert!(claimed_rx.try_recv().is_err());
            sessions.end(7, 40);
            assert_eq!(claimed_rx.recv().expect("second begin returns"), Some(40));
        });
        sessions.end(7, 2);
        assert_eq!(sessions.ack(7), Some(42), "acks are cumulative across epochs");
    }

    #[test]
    fn an_unknown_session_acks_zero_and_ending_it_is_a_no_op() {
        let sessions = Sessions::new();
        assert_eq!(sessions.ack(99), Some(0));
        sessions.end(99, 5);
        assert_eq!(sessions.ack(99), Some(0));
    }

    #[test]
    fn begin_and_ack_give_up_once_the_hand_off_deadline_passed() {
        let sessions = Sessions::with_deadline(Duration::ZERO);
        assert_eq!(sessions.begin(7), Some(0), "an unowned session needs no wait");
        assert_eq!(sessions.begin(7), None);
        assert_eq!(sessions.ack(7), None);
        sessions.end(7, 3);
        assert_eq!(sessions.begin(7), Some(3));
    }
}
