//! Viewstamped replica-set membership: who is in, who is resyncing, and the
//! current epoch.
//!
//! The quorum write path of [`crate::ReplicatedBlockStore`] needs an answer to
//! one question — *which replicas count towards a majority right now?* — and
//! that answer must change atomically when a replica fails or rejoins, or two
//! coordinators could ack against incompatible denominators.  This module
//! keeps the answer in a single [`MembershipView`]: a vector of per-replica
//! statuses plus an **epoch** counter that is bumped on every membership
//! change, in the style of viewstamped replication (each epoch names one
//! stable configuration of the set).
//!
//! The rules, each enforced by one transition method:
//!
//! * a replica is **In** while it serves reads and counts towards write
//!   quorums;
//! * [`MembershipView::depose`] takes a replica **Out** (crash, partition,
//!   rejected write) and bumps the epoch — the quorum denominator shrinks
//!   immediately, which is what lets a 2-of-3 set keep committing;
//! * [`MembershipView::begin_resync`] moves Out → **Resyncing** *without* an
//!   epoch bump: a resyncing replica is still not a member — it may not ack
//!   quorum writes and may not serve reads until it has caught up;
//! * [`MembershipView::complete_resync`] moves Resyncing → In and bumps the
//!   epoch: the join is a membership change like any other, and the new epoch
//!   is what a caught-up replica serves under;
//! * [`MembershipView::abort_resync`] returns a failed resync to Out, no bump
//!   (the set's configuration never actually changed).
//!
//! Epochs are strictly monotonic and every transition happens under one lock
//! ([`Membership`] wraps the view in a mutex), so "the current epoch's replica
//! set" is always a well-defined thing to take a majority of.  Every entry of
//! a replica set's log is stamped with the epoch it was appended under (see
//! `replica.rs`), which is how resync can show *which* configuration a missed
//! write was acknowledged in.

use parking_lot::{Mutex, MutexGuard};

/// A membership epoch: bumped on every replica join or leave.  Epoch `1` is
/// the birth configuration of the set.
pub type Epoch = u64;

/// The membership status of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStatus {
    /// A full member: serves reads, counts towards (and must ack) quorums.
    In,
    /// Out of the set: deposed by a crash, partition or rejected write.
    /// Writes it misses stay in its log suffix, its intentions list.
    Out,
    /// Replaying its intentions list; barred from quorums *and* reads until
    /// [`MembershipView::complete_resync`] readmits it under a new epoch.
    Resyncing,
}

/// One consistent snapshot of the replica set: the epoch and every replica's
/// status.  All transitions are `&mut` methods so a snapshot can also serve as
/// the live state behind [`Membership`]'s lock.
#[derive(Debug, Clone)]
pub struct MembershipView {
    epoch: Epoch,
    status: Vec<ReplicaStatus>,
}

impl MembershipView {
    /// A birth view: every replica In, epoch 1.
    pub fn new(replicas: usize) -> Self {
        MembershipView {
            epoch: 1,
            status: vec![ReplicaStatus::In; replicas],
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// The status of replica `idx`.
    pub fn status(&self, idx: usize) -> ReplicaStatus {
        self.status[idx]
    }

    /// Indices of the In replicas — the set a quorum is a majority *of*.
    pub fn members(&self) -> Vec<usize> {
        (0..self.status.len())
            .filter(|&i| self.status[i] == ReplicaStatus::In)
            .collect()
    }

    /// Number of In replicas.
    pub fn in_count(&self) -> usize {
        self.status
            .iter()
            .filter(|s| **s == ReplicaStatus::In)
            .count()
    }

    /// Total number of replicas, any status.
    pub fn len(&self) -> usize {
        self.status.len()
    }

    /// True when the set has no replicas (never the case in practice; present
    /// for `len`/`is_empty` hygiene).
    pub fn is_empty(&self) -> bool {
        self.status.is_empty()
    }

    /// Takes replica `idx` out of the set and bumps the epoch.  Returns the
    /// new epoch, or `None` when the replica was already Out (deposing is
    /// idempotent and a second depose is *not* a membership change).
    pub fn depose(&mut self, idx: usize) -> Option<Epoch> {
        if self.status[idx] == ReplicaStatus::Out {
            return None;
        }
        self.status[idx] = ReplicaStatus::Out;
        self.epoch += 1;
        Some(self.epoch)
    }

    /// Moves an Out replica to Resyncing.  No epoch bump: the replica is still
    /// not a member.  Returns false when the replica was not Out.
    pub fn begin_resync(&mut self, idx: usize) -> bool {
        if self.status[idx] != ReplicaStatus::Out {
            return false;
        }
        self.status[idx] = ReplicaStatus::Resyncing;
        true
    }

    /// Readmits a caught-up Resyncing replica and bumps the epoch.  Returns
    /// the new epoch, or `None` when the replica was not Resyncing (e.g. it
    /// was deposed again mid-resync).
    pub fn complete_resync(&mut self, idx: usize) -> Option<Epoch> {
        if self.status[idx] != ReplicaStatus::Resyncing {
            return None;
        }
        self.status[idx] = ReplicaStatus::In;
        self.epoch += 1;
        Some(self.epoch)
    }

    /// Returns a failed resync to Out.  No epoch bump.
    pub fn abort_resync(&mut self, idx: usize) {
        if self.status[idx] == ReplicaStatus::Resyncing {
            self.status[idx] = ReplicaStatus::Out;
        }
    }
}

/// The live membership state of a replica set: a [`MembershipView`] behind one
/// lock, so every status read and every transition is a consistent snapshot.
pub struct Membership {
    view: Mutex<MembershipView>,
}

impl Membership {
    /// A birth membership: every replica In, epoch 1.
    pub fn new(replicas: usize) -> Self {
        Membership {
            view: Mutex::new(MembershipView::new(replicas)),
        }
    }

    /// Locks and returns the live view, for multi-step transitions that must
    /// be atomic with other state (the replica layer composes this with its
    /// log lock; lock order is the log first).
    pub fn lock(&self) -> MutexGuard<'_, MembershipView> {
        self.view.lock()
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.view.lock().epoch()
    }

    /// The status of replica `idx`.
    pub fn status(&self, idx: usize) -> ReplicaStatus {
        self.view.lock().status(idx)
    }

    /// Number of In replicas.
    pub fn in_count(&self) -> usize {
        self.view.lock().in_count()
    }

    /// Indices of the In replicas.
    pub fn members(&self) -> Vec<usize> {
        self.view.lock().members()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::majority;

    #[test]
    fn epochs_are_strictly_monotonic_across_membership_changes() {
        let mut view = MembershipView::new(3);
        let mut last = view.epoch();
        assert_eq!(last, 1);
        let e = view.depose(1).expect("first depose is a change");
        assert!(e > last);
        last = e;
        assert!(view.depose(1).is_none(), "re-deposing is not a change");
        assert_eq!(view.epoch(), last);
        assert!(view.begin_resync(1));
        assert_eq!(view.epoch(), last, "starting a resync is not a join yet");
        let e = view.complete_resync(1).expect("rejoin bumps");
        assert!(e > last);
    }

    #[test]
    fn resyncing_replicas_are_not_members() {
        let mut view = MembershipView::new(3);
        view.depose(2);
        assert_eq!(view.members(), vec![0, 1]);
        view.begin_resync(2);
        assert_eq!(
            view.members(),
            vec![0, 1],
            "a resyncing replica may not ack quorums or serve reads"
        );
        assert_eq!(view.status(2), ReplicaStatus::Resyncing);
        view.complete_resync(2);
        assert_eq!(view.members(), vec![0, 1, 2]);
    }

    #[test]
    fn a_depose_mid_resync_wins_over_the_rejoin() {
        let mut view = MembershipView::new(2);
        view.depose(0);
        view.begin_resync(0);
        view.depose(0).expect("a resyncing replica can be deposed");
        assert_eq!(view.status(0), ReplicaStatus::Out);
        assert!(
            view.complete_resync(0).is_none(),
            "the stale resync must not readmit a deposed replica"
        );
        assert_eq!(view.members(), vec![1]);
    }

    #[test]
    fn abort_resync_returns_to_out_without_an_epoch_bump() {
        let mut view = MembershipView::new(2);
        view.depose(1);
        let epoch = view.epoch();
        view.begin_resync(1);
        view.abort_resync(1);
        assert_eq!(view.status(1), ReplicaStatus::Out);
        assert_eq!(view.epoch(), epoch);
    }

    /// View-change safety, by exhaustive enumeration: for every set size and
    /// every single-replica depose or rejoin, any majority of the old view's
    /// members and any majority of the new view's members intersect.  This is
    /// the property that lets an epoch change never lose an acknowledged
    /// write: the next quorum always contains at least one replica that
    /// holds (or has queued) the old quorum's writes.
    #[test]
    fn quorums_across_a_single_view_change_intersect() {
        for n in 2..=7usize {
            // Old view: all n replicas In.  New view: one deposed.
            let old_members: Vec<usize> = (0..n).collect();
            let mut view = MembershipView::new(n);
            view.depose(n - 1);
            let new_members = view.members();
            assert_overlapping_majorities(&old_members, &new_members);

            // And the reverse change: a rejoin growing n-1 back to n.
            assert_overlapping_majorities(&new_members, &old_members);
        }
    }

    fn assert_overlapping_majorities(a: &[usize], b: &[usize]) {
        let need_a = majority(a.len());
        let need_b = majority(b.len());
        // Enumerate every subset of each member list by bitmask.
        for ma in 0u32..(1 << a.len()) {
            if (ma.count_ones() as usize) < need_a {
                continue;
            }
            for mb in 0u32..(1 << b.len()) {
                if (mb.count_ones() as usize) < need_b {
                    continue;
                }
                let qa: Vec<usize> = (0..a.len())
                    .filter(|i| ma & (1 << i) != 0)
                    .map(|i| a[i])
                    .collect();
                let qb: Vec<usize> = (0..b.len())
                    .filter(|i| mb & (1 << i) != 0)
                    .map(|i| b[i])
                    .collect();
                assert!(
                    qa.iter().any(|x| qb.contains(x)),
                    "majorities {qa:?} of {a:?} and {qb:?} of {b:?} must intersect"
                );
            }
        }
    }
}
