//! N-way replicated block storage: the generalisation of [`crate::CompanionPair`].
//!
//! The paper's stable storage duplicates every block on two servers so that "no
//! single failure can destroy information".  [`ReplicatedBlockStore`] keeps that
//! guarantee but generalises the topology from the fixed two-server pair to a
//! replica *set* of N independent disks, which is what each shard of the sharded
//! file service runs on:
//!
//! * **quorum writes** — a write (or batch of writes) is submitted to every
//!   member of the current epoch's replica set and acknowledged once a
//!   **majority** of them has durably applied it ([`crate::majority`]).  Each
//!   replica applies its stream through a dedicated worker in strict
//!   submission order, so the slowest replica never gates commit latency:
//!   stragglers finish in the background, and a straggler that fails is
//!   deposed and queues the missed batch as an intention;
//! * **epoch-managed membership** — who is In, who is Out, and who is
//!   Resyncing lives in a viewstamped [`Membership`] view whose epoch bumps on
//!   every join or leave.  The quorum denominator is always the *current*
//!   epoch's In members, which is how a 2-replica set keeps committing with
//!   one replica down (majority of the survivor set is 1) and how two
//!   majorities can never ack conflicting histories (see [`crate::quorum`]);
//! * **batched puts** — [`BlockStore::write_batch`] ships a whole commit
//!   flush's dirty pages to each replica as a single scatter-gather call, one
//!   call per replica instead of one per block;
//! * **read-one with read-repair** — a read is served by the first In replica,
//!   failing over past crashed, corrupted or missing copies; when the fail-over
//!   succeeds, every replica whose copy was detectably stale (missing or
//!   corrupted) gets the fresh block re-put in the background.  Resyncing
//!   replicas serve no reads: a straggler may not answer until it has caught
//!   up to the current epoch;
//! * **epoch-stamped intention recording** — writes an absent replica misses
//!   are queued on its *intentions list* (§4's "the survivor keeps a list of
//!   blocks that have been modified"), each stamped with the global submission
//!   sequence number and the epoch it was acknowledged under.  Missed batches
//!   are queued at *batch granularity*: a replica that dies mid-batch holds an
//!   unknown prefix, so the whole batch is queued and resync re-puts every
//!   entry idempotently;
//! * **resync on recovery** — a recovering replica "compares notes": it moves
//!   Out → Resyncing (still barred from quorums and reads), drains its worker
//!   queue behind a barrier, replays its intentions in sequence order under
//!   the drain lock, and only when the list is empty is it readmitted —
//!   bumping the epoch, like any other membership change.  Resync is
//!   idempotent and safe to race with live commits: writes submitted during
//!   the drain keep landing on the intentions list and are replayed before
//!   the flip.
//!
//! An allocate collision (two clients racing the same block number onto
//! different replicas) is detected while mirroring the allocation and rolled
//! back, exactly as in the two-server protocol.  Allocation and free remain
//! all-member metadata operations (they are not charged by the latency model
//! and carry no payload); only put traffic is quorum-acknowledged.
//!
//! The store implements [`BlockStore`], so a whole `FileService` — one shard of
//! the sharded deployment — runs over a replica set by handing
//! `BlockServer::new` an `Arc<ReplicatedBlockStore>`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use bytes::Bytes;
use parking_lot::Mutex;

use crate::membership::{Epoch, Membership, ReplicaStatus};
use crate::quorum::majority;
use crate::store::{BlockStore, StoreStats};
use crate::{BlockError, BlockNr, Result};

/// One queued operation an absent replica missed.
#[derive(Debug, Clone)]
enum Intent {
    /// Ensure the block is allocated and holds `data`.
    Put { nr: BlockNr, data: Bytes },
    /// Ensure every `(block, data)` pair of a missed `write_batch` is applied.
    /// Queued at batch granularity: a replica that crashed *mid*-batch may hold
    /// an arbitrary prefix of the entries, so resync replays the whole batch
    /// (puts are idempotent) rather than trying to guess where it was cut off.
    PutMany { writes: Vec<(BlockNr, Bytes)> },
    /// Ensure the block is allocated (contents unchanged / empty).
    Allocate { nr: BlockNr },
    /// Ensure the block is freed.
    Free { nr: BlockNr },
}

impl Intent {
    fn for_writes(writes: &[(BlockNr, Bytes)]) -> Intent {
        if writes.len() == 1 {
            Intent::Put {
                nr: writes[0].0,
                data: writes[0].1.clone(),
            }
        } else {
            Intent::PutMany {
                writes: writes.to_vec(),
            }
        }
    }

    fn ops(&self) -> u64 {
        match self {
            Intent::PutMany { writes } => writes.len() as u64,
            _ => 1,
        }
    }
}

/// An [`Intent`] on a replica's list, stamped with the global submission
/// sequence number (replay order) and the epoch it was queued under (the
/// configuration the write was acknowledged in — what "epoch-stamped resync"
/// replays).
#[derive(Debug, Clone)]
struct QueuedIntent {
    seq: u64,
    epoch: Epoch,
    intent: Intent,
}

#[derive(Debug, Default)]
struct ReplicaState {
    /// Missed operations in submission-sequence order.
    intentions: Vec<QueuedIntent>,
}

struct Replica {
    store: Arc<dyn BlockStore>,
    state: Mutex<ReplicaState>,
    /// Serialises concurrent [`ReplicatedBlockStore::resync`] calls on this
    /// replica (the satellite "idempotent-and-safe" rule: a second resync
    /// waits, then finds the replica In and returns 0).
    resync_lock: Mutex<()>,
}

/// Counters describing degraded-mode and fail-over activity of a replica set.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplicaSetStats {
    /// Writes acknowledged while at least one replica was absent or died.
    pub degraded_writes: u64,
    /// Operations queued on intentions lists for absent replicas.
    pub intentions_recorded: u64,
    /// Reads that had to fail over past the first In replica.
    pub failover_reads: u64,
    /// Intentions applied by [`ReplicatedBlockStore::resync`] over the set's lifetime.
    pub resyncs_applied: u64,
    /// Replicas deposed automatically because an operation observed them crashed
    /// or failing.
    pub auto_downed: u64,
    /// Writes acknowledged at quorum while at least one straggler was still
    /// applying in the background (the latency the quorum rule saves).
    pub quorum_short_acks: u64,
    /// Stale copies re-put by read-repair after a fail-over read.
    pub read_repairs: u64,
}

/// The work stream of one replica: every mutation the coordinator submits
/// flows through here in global submission order, so per-replica apply order
/// equals submission order even when the coordinator acks at quorum and moves
/// on.
enum Job {
    /// Apply a put batch (or queue it as an intention when the replica is not
    /// In), reporting the outcome to the coordinator.
    Put {
        seq: u64,
        epoch: Epoch,
        writes: Arc<Vec<(BlockNr, Bytes)>>,
        done: mpsc::Sender<PutOutcome>,
    },
    /// Free a block (or queue the free), reporting the outcome.
    Free {
        seq: u64,
        epoch: Epoch,
        nr: BlockNr,
        done: mpsc::Sender<FreeOutcome>,
    },
    /// Serve a read from this replica's disk.  Routed through the worker so a
    /// read submitted after an acknowledged write always sees it (the read
    /// queues behind the write on the same stream).
    Read {
        nr: BlockNr,
        done: mpsc::Sender<Result<Bytes>>,
    },
    /// Re-put a block whose copy here was detectably stale on a fail-over
    /// read.  Applied only if the copy is *still* stale when the job runs, so
    /// a repair can never clobber a newer write that raced it.
    Repair { nr: BlockNr, data: Bytes },
    /// Fence: replies once every job submitted before it has been processed.
    Barrier { done: mpsc::Sender<()> },
}

enum PutOutcome {
    /// The replica durably holds the whole batch.
    Wrote,
    /// The replica was not In; the batch was queued as an intention.
    Queued,
    /// The disk died mid-batch: it may hold an arbitrary prefix.  Deposed,
    /// batch queued.
    Died,
    /// A live disk rejected the batch.  Deposed, batch queued.
    Failed(BlockError),
}

enum FreeOutcome {
    Freed,
    /// The replica never saw the allocation (healed corruption, partial
    /// collision rollback): nothing to free, not a failure.
    NothingToFree,
    Queued,
    Died,
    Failed(BlockError),
}

/// Counters and state shared between the coordinator and the replica workers.
struct Shared {
    membership: Membership,
    replicas: Vec<Replica>,
    next_seq: AtomicU64,
    degraded_writes: AtomicU64,
    intentions_recorded: AtomicU64,
    failover_reads: AtomicU64,
    resyncs_applied: AtomicU64,
    auto_downed: AtomicU64,
    quorum_short_acks: AtomicU64,
    read_repairs: AtomicU64,
}

impl Shared {
    /// Appends an intention in sequence order.  Both the coordinator (replica
    /// absent at submission) and a worker (apply failed) append through here;
    /// the sorted insert keeps replay order equal to submission order no
    /// matter which side got there first.
    fn queue_intention(&self, idx: usize, seq: u64, epoch: Epoch, intent: Intent) {
        let ops = intent.ops();
        let mut state = self.replicas[idx].state.lock();
        let pos = state.intentions.partition_point(|q| q.seq <= seq);
        state
            .intentions
            .insert(pos, QueuedIntent { seq, epoch, intent });
        self.intentions_recorded.fetch_add(ops, Ordering::Relaxed);
    }

    /// Removes the intention queued under `seq` from every replica — the undo
    /// half of an operation that turned out to have happened nowhere (such an
    /// operation must never resurface at resync).
    fn retract_seq(&self, seq: u64) {
        for replica in &self.replicas {
            replica.state.lock().intentions.retain(|q| q.seq != seq);
        }
    }

    /// Takes a replica out of the membership (bumping the epoch) and
    /// propagates the new epoch to every replica store.  Idempotent.
    fn depose(&self, idx: usize, auto: bool) {
        let bumped = self.membership.lock().depose(idx);
        if let Some(epoch) = bumped {
            if auto {
                self.auto_downed.fetch_add(1, Ordering::Relaxed);
            }
            self.propagate_epoch(epoch);
        }
    }

    /// Tells every replica store the current epoch, so epoch-carrying RPCs
    /// (`amoeba_rpc::block`) let a stale server reject a stale coordinator.
    fn propagate_epoch(&self, epoch: Epoch) {
        for replica in &self.replicas {
            replica.store.set_epoch(epoch);
        }
    }

    /// The **resync** put: repairs a missing allocation (a recovering disk may
    /// have lost it) before writing.  Not used on the live fan-out path —
    /// there the replicated `allocate` has already landed the allocation on
    /// every live replica, and the extra `is_allocated` probe would cost one
    /// RPC per block per replica over remote disks, re-paying exactly the
    /// round trips the batch eliminates.
    fn apply_put(store: &Arc<dyn BlockStore>, nr: BlockNr, data: Bytes) -> Result<()> {
        if !store.is_allocated(nr) {
            store.allocate_at(nr)?;
        }
        store.write(nr, data)
    }

    /// The **resync** batch put: repairs missing allocations, then ships the
    /// batch as one `write_batch` call.  See [`Self::apply_put`] for why the
    /// live fan-out does not use this.
    fn apply_puts(store: &Arc<dyn BlockStore>, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        for (nr, _) in writes {
            if !store.is_allocated(*nr) {
                store.allocate_at(*nr)?;
            }
        }
        store.write_batch(writes)
    }

    fn apply_intent(&self, idx: usize, intent: &Intent) -> Result<()> {
        let store = &self.replicas[idx].store;
        match intent {
            Intent::Put { nr, data } => Self::apply_put(store, *nr, data.clone()),
            Intent::PutMany { writes } => Self::apply_puts(store, writes),
            Intent::Allocate { nr } => {
                if store.is_allocated(*nr) {
                    Ok(())
                } else {
                    store.allocate_at(*nr)
                }
            }
            Intent::Free { nr } => {
                if store.is_allocated(*nr) {
                    store.free(*nr)
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// The per-replica worker: drains the replica's job stream in FIFO order.
/// The worker is the only code that applies put traffic to its disk, which is
/// what keeps "version page strictly last" true per replica even though the
/// coordinator acks at quorum and stops waiting.
fn worker_loop(shared: Arc<Shared>, idx: usize, jobs: mpsc::Receiver<Job>) {
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Put {
                seq,
                epoch,
                writes,
                done,
            } => {
                if shared.membership.status(idx) != ReplicaStatus::In {
                    // Deposed between submission and processing: the stream
                    // position is preserved by queueing under the job's seq.
                    shared.queue_intention(idx, seq, epoch, Intent::for_writes(&writes));
                    let _ = done.send(PutOutcome::Queued);
                    continue;
                }
                match shared.replicas[idx].store.write_batch(&writes) {
                    Ok(()) => {
                        let _ = done.send(PutOutcome::Wrote);
                    }
                    Err(e) => {
                        shared.depose(idx, true);
                        shared.queue_intention(idx, seq, epoch, Intent::for_writes(&writes));
                        let _ = done.send(match e {
                            BlockError::Crashed => PutOutcome::Died,
                            other => PutOutcome::Failed(other),
                        });
                    }
                }
            }
            Job::Free {
                seq,
                epoch,
                nr,
                done,
            } => {
                if shared.membership.status(idx) != ReplicaStatus::In {
                    shared.queue_intention(idx, seq, epoch, Intent::Free { nr });
                    let _ = done.send(FreeOutcome::Queued);
                    continue;
                }
                match shared.replicas[idx].store.free(nr) {
                    Ok(()) => {
                        let _ = done.send(FreeOutcome::Freed);
                    }
                    Err(BlockError::NoSuchBlock(_)) => {
                        let _ = done.send(FreeOutcome::NothingToFree);
                    }
                    Err(BlockError::Crashed) => {
                        shared.depose(idx, true);
                        shared.queue_intention(idx, seq, epoch, Intent::Free { nr });
                        let _ = done.send(FreeOutcome::Died);
                    }
                    Err(e) => {
                        let _ = done.send(FreeOutcome::Failed(e));
                    }
                }
            }
            Job::Read { nr, done } => {
                let result = if shared.membership.status(idx) != ReplicaStatus::In {
                    Err(BlockError::Crashed)
                } else {
                    match shared.replicas[idx].store.read(nr) {
                        Err(BlockError::Crashed) => {
                            // The disk below crashed without going through
                            // crash(): depose it so writes queue intentions.
                            shared.depose(idx, true);
                            Err(BlockError::Crashed)
                        }
                        other => other,
                    }
                };
                let _ = done.send(result);
            }
            Job::Repair { nr, data } => {
                // Apply only if the copy is still detectably stale: a write
                // acknowledged after the triggering read may have queued
                // behind this job's submission and must not be clobbered.
                if shared.membership.status(idx) == ReplicaStatus::In
                    && matches!(
                        shared.replicas[idx].store.read(nr),
                        Err(BlockError::NoSuchBlock(_)) | Err(BlockError::Corrupted(_))
                    )
                    && Shared::apply_put(&shared.replicas[idx].store, nr, data).is_ok()
                {
                    shared.read_repairs.fetch_add(1, Ordering::Relaxed);
                }
            }
            Job::Barrier { done } => {
                let _ = done.send(());
            }
        }
    }
}

/// The submission side of the worker streams.  Sends happen under this lock,
/// so channel order equals sequence order on every replica.
struct SubmitState {
    senders: Vec<mpsc::Sender<Job>>,
}

/// A set of N replica disks behind one [`BlockStore`] interface, with
/// majority-quorum writes over epoch-managed membership, read-one reads with
/// read-repair, epoch-stamped intention recording and recovery resync.
pub struct ReplicatedBlockStore {
    shared: Arc<Shared>,
    submit: Mutex<SubmitState>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ReplicatedBlockStore {
    /// Creates a replica set over the given disks.  At least one replica is
    /// required; two or more are needed for any fault tolerance.
    pub fn new(stores: Vec<Arc<dyn BlockStore>>) -> Arc<Self> {
        assert!(!stores.is_empty(), "a replica set needs at least one disk");
        let n = stores.len();
        let shared = Arc::new(Shared {
            membership: Membership::new(n),
            replicas: stores
                .into_iter()
                .map(|store| Replica {
                    store,
                    state: Mutex::new(ReplicaState::default()),
                    resync_lock: Mutex::new(()),
                })
                .collect(),
            next_seq: AtomicU64::new(1),
            degraded_writes: AtomicU64::new(0),
            intentions_recorded: AtomicU64::new(0),
            failover_reads: AtomicU64::new(0),
            resyncs_applied: AtomicU64::new(0),
            auto_downed: AtomicU64::new(0),
            quorum_short_acks: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
        });
        let mut senders = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for idx in 0..n {
            let (tx, rx) = mpsc::channel();
            let worker_shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("replica-worker-{idx}"))
                    .spawn(move || worker_loop(worker_shared, idx, rx))
                    .expect("spawn replica worker"),
            );
            senders.push(tx);
        }
        Arc::new(ReplicatedBlockStore {
            shared,
            submit: Mutex::new(SubmitState { senders }),
            workers: Mutex::new(workers),
        })
    }

    /// Creates a replica set of `replicas` in-memory disks (the common test and
    /// benchmark topology).
    pub fn in_memory(replicas: usize) -> Arc<Self> {
        Self::new(
            (0..replicas)
                .map(|_| Arc::new(crate::MemStore::new()) as Arc<dyn BlockStore>)
                .collect(),
        )
    }

    /// Number of replicas in the set (any status).
    pub fn replica_count(&self) -> usize {
        self.shared.replicas.len()
    }

    /// Number of replicas currently In (serving reads and acking quorums).
    pub fn live_count(&self) -> usize {
        self.shared.membership.in_count()
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> Epoch {
        self.shared.membership.epoch()
    }

    /// The membership status of replica `idx`.
    pub fn replica_status(&self, idx: usize) -> ReplicaStatus {
        self.shared.membership.status(idx)
    }

    /// Direct access to a replica's disk, for test assertions and fault injection.
    pub fn replica(&self, idx: usize) -> &Arc<dyn BlockStore> {
        &self.shared.replicas[idx].store
    }

    /// The epochs the intentions queued for replica `idx` were acknowledged
    /// under, in replay order — test introspection for the epoch-stamped
    /// resync rule.
    pub fn intention_epochs(&self, idx: usize) -> Vec<Epoch> {
        self.shared.replicas[idx]
            .state
            .lock()
            .intentions
            .iter()
            .map(|q| q.epoch)
            .collect()
    }

    /// Accumulated degraded-mode / fail-over statistics.  (Named distinctly from
    /// [`BlockStore::stats`], which reports the first In disk's I/O counters.)
    pub fn replica_stats(&self) -> ReplicaSetStats {
        let s = &self.shared;
        ReplicaSetStats {
            degraded_writes: s.degraded_writes.load(Ordering::Relaxed),
            intentions_recorded: s.intentions_recorded.load(Ordering::Relaxed),
            failover_reads: s.failover_reads.load(Ordering::Relaxed),
            resyncs_applied: s.resyncs_applied.load(Ordering::Relaxed),
            auto_downed: s.auto_downed.load(Ordering::Relaxed),
            quorum_short_acks: s.quorum_short_acks.load(Ordering::Relaxed),
            read_repairs: s.read_repairs.load(Ordering::Relaxed),
        }
    }

    /// Deposes replica `idx` (epoch bump): it stops serving reads and counting
    /// towards quorums, and every write it misses is queued on its intentions
    /// list until [`ReplicatedBlockStore::resync`] readmits it.
    pub fn crash(&self, idx: usize) {
        self.shared.depose(idx, false);
    }

    /// True if replica `idx` is currently absent (Out or Resyncing).
    pub fn is_down(&self, idx: usize) -> bool {
        self.shared.membership.status(idx) != ReplicaStatus::In
    }

    /// Waits until every replica worker has drained all jobs submitted so far
    /// — including background stragglers of quorum-acknowledged writes.  Test
    /// and audit fencing; never needed for correctness of the write path.
    pub fn quiesce(&self) {
        let (tx, rx) = mpsc::channel();
        let count = {
            let submit = self.submit.lock();
            for sender in &submit.senders {
                let _ = sender.send(Job::Barrier { done: tx.clone() });
            }
            submit.senders.len()
        };
        drop(tx);
        for _ in 0..count {
            if rx.recv().is_err() {
                break;
            }
        }
    }

    /// Fences a single replica's worker stream.
    fn barrier_one(&self, idx: usize) {
        let (tx, rx) = mpsc::channel();
        {
            let submit = self.submit.lock();
            let _ = submit.senders[idx].send(Job::Barrier { done: tx });
        }
        let _ = rx.recv();
    }

    /// Recovers replica `idx`: moves it Out → Resyncing (still barred from
    /// quorums and reads), fences its worker stream, replays its epoch-stamped
    /// intentions in submission order, and readmits it under a new epoch once
    /// the list drains empty.  Returns the number of operations applied.
    ///
    /// Idempotent and safe against live traffic: calling it on an In replica
    /// returns `Ok(0)`; concurrent calls serialise on a per-replica lock; and
    /// writes racing the drain keep landing on the intentions list (the
    /// replica is not In, so the coordinator queues for it) and are replayed
    /// before the flip — the replica is only readmitted while the membership
    /// and intention locks are both held *and* the list is empty.
    ///
    /// The caller must first restore the underlying disk itself (e.g.
    /// [`crate::FaultyStore::recover`]) if the crash was injected below this
    /// layer; a replay failure leaves the replica Out with the unapplied
    /// intentions requeued.
    pub fn resync(&self, idx: usize) -> Result<usize> {
        let shared = &self.shared;
        let replica = &shared.replicas[idx];
        let _serialise = replica.resync_lock.lock();
        {
            let mut view = shared.membership.lock();
            match view.status(idx) {
                ReplicaStatus::In => return Ok(0),
                ReplicaStatus::Out => {
                    view.begin_resync(idx);
                }
                // Unreachable while the resync lock is held (resync always
                // leaves In or Out), but harmless to proceed.
                ReplicaStatus::Resyncing => {}
            }
        }
        // Fence the worker: any job still in flight from when the replica was
        // In lands on the intentions list (in sequence order) before we drain.
        self.barrier_one(idx);
        let mut applied = 0usize;
        let readmitted = loop {
            let batch: Vec<QueuedIntent> = {
                let mut view = shared.membership.lock();
                let mut state = replica.state.lock();
                if state.intentions.is_empty() {
                    // Both locks held and the list is empty: no write can slip
                    // between the final drain and the flip.  `None` means the
                    // replica was deposed again mid-resync and stays Out.
                    break view.complete_resync(idx);
                }
                std::mem::take(&mut state.intentions)
            };
            for (pos, queued) in batch.iter().enumerate() {
                if let Err(e) = shared.apply_intent(idx, &queued.intent) {
                    // Requeue what we could not apply (including the failed
                    // one) and go back Out; the operator retries resync after
                    // fixing the disk.
                    let mut view = shared.membership.lock();
                    let mut state = replica.state.lock();
                    let mut rest: Vec<QueuedIntent> = batch[pos..].to_vec();
                    rest.append(&mut state.intentions);
                    rest.sort_by_key(|q| q.seq);
                    state.intentions = rest;
                    view.abort_resync(idx);
                    drop(state);
                    drop(view);
                    shared
                        .resyncs_applied
                        .fetch_add(applied as u64, Ordering::Relaxed);
                    return Err(e);
                }
                applied += queued.intent.ops() as usize;
            }
        };
        if let Some(epoch) = readmitted {
            shared.propagate_epoch(epoch);
        }
        shared
            .resyncs_applied
            .fetch_add(applied as u64, Ordering::Relaxed);
        Ok(applied)
    }

    /// The shared write path of [`BlockStore::write`] and
    /// [`BlockStore::write_batch`]: submit the put batch to every member of
    /// the current epoch's replica set (queueing an epoch-stamped intention
    /// for every absent replica), then wait for outcomes until a strict
    /// majority of the *current* membership has applied it.
    ///
    /// Stragglers keep applying in the background in stream order, and a
    /// straggler that fails is deposed by its worker with the batch queued.
    /// The threshold is re-evaluated against the current membership on every
    /// outcome, so a member that dies mid-write shrinks the denominator (with
    /// an epoch bump) instead of wedging the ack.
    ///
    /// Nothing stays queued unless some part of the batch may exist on some
    /// disk — a batch that exists nowhere must never be replayed by resync.
    /// A batch rejected by a live disk fails the call even if others applied
    /// it (the rejection is evidence of a real fault, and the promise that an
    /// error means "not every live replica holds this" is worth keeping), with
    /// the rejecting replica deposed and converged forward via resync.
    fn fan_out_puts(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        // Validate sizes once, up front: a size error must fail the call before
        // any replica applies a partial batch, or the live replicas' native
        // validate-then-apply batches could diverge from looping wrappers.
        let max = self.block_size();
        for (_, data) in writes {
            if data.len() > max {
                return Err(BlockError::TooLarge {
                    got: data.len(),
                    max,
                });
            }
        }

        let payload = Arc::new(writes.to_vec());
        let (tx, rx) = mpsc::channel();
        let (members, seq, mut degraded) = {
            let submit = self.submit.lock();
            let view = self.shared.membership.lock();
            let members = view.members();
            if members.is_empty() {
                // The whole set is absent: refuse with nothing queued.
                return Err(BlockError::Crashed);
            }
            let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
            let epoch = view.epoch();
            let mut degraded = false;
            for idx in 0..view.len() {
                if view.status(idx) != ReplicaStatus::In {
                    self.shared
                        .queue_intention(idx, seq, epoch, Intent::for_writes(&payload));
                    degraded = true;
                }
            }
            for &idx in &members {
                let _ = submit.senders[idx].send(Job::Put {
                    seq,
                    epoch,
                    writes: Arc::clone(&payload),
                    done: tx.clone(),
                });
            }
            (members, seq, degraded)
        };
        drop(tx);

        // The quorum denominator starts as the members the batch was submitted
        // to and shrinks as outcomes prove members gone (died, deposed by a
        // concurrent operation, rejected).  Deriving it from *received*
        // outcomes rather than the live membership keeps the decision
        // deterministic: a worker deposes its replica before reporting, so
        // reading the live count could see the shrunken denominator while the
        // explaining outcome (say, a rejection that must fail the call) is
        // still in flight.
        let total = members.len();
        let mut denom = total;
        let mut received = 0usize;
        let mut successes = 0usize;
        let mut wrote_any = false;
        let mut died_any = false;
        let mut first_error: Option<BlockError> = None;
        while received < total {
            let Ok(outcome) = rx.recv() else {
                break; // A worker vanished; settle with what we have.
            };
            received += 1;
            match outcome {
                PutOutcome::Wrote => {
                    successes += 1;
                    wrote_any = true;
                }
                PutOutcome::Queued => {
                    // Deposed by a concurrent operation between submission and
                    // processing; the batch is queued on its intentions list.
                    denom -= 1;
                    degraded = true;
                }
                PutOutcome::Died => {
                    denom -= 1;
                    died_any = true;
                }
                PutOutcome::Failed(e) => {
                    denom -= 1;
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
            if first_error.is_none() && successes >= majority(denom) {
                if received < total {
                    self.shared
                        .quorum_short_acks
                        .fetch_add(1, Ordering::Relaxed);
                }
                if degraded || died_any {
                    self.shared.degraded_writes.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(());
            }
        }
        // Every member reported and no quorum ack was granted along the way.
        if !wrote_any && !died_any {
            // No replica holds any of the batch (absent replicas never
            // attempted it, rejecting disks applied nothing): report the
            // failure with nothing queued, so a batch that exists nowhere can
            // never resurface at resync.
            self.shared.retract_seq(seq);
            return Err(first_error.unwrap_or(BlockError::Crashed));
        }
        // Some replica holds the batch — or a mid-crash prefix of it — and
        // that state cannot be un-happened.  The only way back to agreement is
        // forward: the workers have already deposed every replica that failed,
        // with the full batch queued, so resync converges the set instead of
        // leaving silent divergence behind.
        if let Some(e) = first_error {
            return Err(e);
        }
        Err(BlockError::Crashed)
    }

    /// Compares all replicas block by block and returns the numbers where any
    /// two replicas disagree on allocation or contents.  Empty means the set
    /// is in agreement (the §4 invariant the divergence tests assert after
    /// crash/partition + resync).  Quiesces the worker streams first, so
    /// background stragglers of quorum-acknowledged writes are not reported
    /// as divergence.
    pub fn divergent_blocks(&self) -> Vec<BlockNr> {
        self.quiesce();
        let mut blocks: Vec<BlockNr> = self
            .shared
            .replicas
            .iter()
            .flat_map(|r| r.store.allocated_blocks())
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
            .into_iter()
            .filter(|&nr| {
                let mut contents: Option<Option<Bytes>> = None;
                for replica in &self.shared.replicas {
                    let this = if replica.store.is_allocated(nr) {
                        replica.store.read(nr).ok()
                    } else {
                        None
                    };
                    match &contents {
                        None => contents = Some(this),
                        Some(first) if *first != this => return true,
                        Some(_) => {}
                    }
                }
                false
            })
            .collect()
    }
}

impl Drop for ReplicatedBlockStore {
    fn drop(&mut self) {
        // Close the job streams, then wait for the workers to drain and exit.
        self.submit.get_mut().senders.clear();
        for handle in self.workers.get_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

impl BlockStore for ReplicatedBlockStore {
    fn block_size(&self) -> usize {
        self.shared.replicas[0].store.block_size()
    }

    fn allocate(&self) -> Result<BlockNr> {
        // Choose an In leader to pick the block number, failing over past
        // disks that turn out to be crashed below the replica layer (otherwise
        // a dead leader would brick allocation for the whole set while healthy
        // replicas exist).
        let shared = &self.shared;
        let mut chosen = None;
        for idx in 0..shared.replicas.len() {
            if shared.membership.status(idx) != ReplicaStatus::In {
                continue;
            }
            match shared.replicas[idx].store.allocate() {
                Ok(nr) => {
                    chosen = Some((idx, nr));
                    break;
                }
                Err(BlockError::Crashed) => shared.depose(idx, true),
                Err(e) => return Err(e),
            }
        }
        let Some((leader, nr)) = chosen else {
            return Err(BlockError::Crashed);
        };
        let seq = shared.next_seq.fetch_add(1, Ordering::Relaxed);
        let epoch = shared.membership.epoch();
        let mut mirrored = vec![leader];
        for idx in 0..shared.replicas.len() {
            if idx == leader {
                continue;
            }
            if shared.membership.status(idx) != ReplicaStatus::In {
                shared.queue_intention(idx, seq, epoch, Intent::Allocate { nr });
                continue;
            }
            match shared.replicas[idx].store.allocate_at(nr) {
                Ok(()) => mirrored.push(idx),
                Err(BlockError::Crashed) => {
                    shared.depose(idx, true);
                    shared.queue_intention(idx, seq, epoch, Intent::Allocate { nr });
                }
                Err(e) => {
                    // Allocate collision (or disk failure): roll every mirror
                    // back — including intentions already queued for absent
                    // replicas, which would otherwise replay a rolled-back
                    // allocation at resync — and let the client retry.
                    for &done in &mirrored {
                        let _ = shared.replicas[done].store.free(nr);
                    }
                    shared.retract_seq(seq);
                    return Err(e);
                }
            }
        }
        Ok(nr)
    }

    fn allocate_at(&self, nr: BlockNr) -> Result<()> {
        let shared = &self.shared;
        if shared.membership.in_count() == 0 {
            return Err(BlockError::Crashed);
        }
        let seq = shared.next_seq.fetch_add(1, Ordering::Relaxed);
        let epoch = shared.membership.epoch();
        let mut mirrored: Vec<usize> = Vec::new();
        for idx in 0..shared.replicas.len() {
            if shared.membership.status(idx) != ReplicaStatus::In {
                shared.queue_intention(idx, seq, epoch, Intent::Allocate { nr });
                continue;
            }
            match shared.replicas[idx].store.allocate_at(nr) {
                Ok(()) => mirrored.push(idx),
                Err(BlockError::Crashed) => {
                    shared.depose(idx, true);
                    shared.queue_intention(idx, seq, epoch, Intent::Allocate { nr });
                }
                Err(e) => {
                    for &done in &mirrored {
                        let _ = shared.replicas[done].store.free(nr);
                    }
                    shared.retract_seq(seq);
                    return Err(e);
                }
            }
        }
        if mirrored.is_empty() {
            // No live replica applied the allocation: report the failure and
            // retract the queued intentions, which describe an allocation that
            // never happened anywhere.
            shared.retract_seq(seq);
            return Err(BlockError::Crashed);
        }
        Ok(())
    }

    fn free(&self, nr: BlockNr) -> Result<()> {
        // Frees flow through the worker streams like puts, so a free never
        // overtakes a still-queued write to the same block on a straggler
        // (which would strand a stale re-allocation at resync).  All member
        // outcomes are awaited: frees are uncharged metadata, and collision
        // rollback wants a definite answer.
        let (tx, rx) = mpsc::channel();
        let (members, seq) = {
            let submit = self.submit.lock();
            let view = self.shared.membership.lock();
            let members = view.members();
            if members.is_empty() {
                return Err(BlockError::Crashed);
            }
            let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
            let epoch = view.epoch();
            for idx in 0..view.len() {
                if view.status(idx) != ReplicaStatus::In {
                    self.shared
                        .queue_intention(idx, seq, epoch, Intent::Free { nr });
                }
            }
            for &idx in &members {
                let _ = submit.senders[idx].send(Job::Free {
                    seq,
                    epoch,
                    nr,
                    done: tx.clone(),
                });
            }
            (members, seq)
        };
        drop(tx);
        let mut freed_any = false;
        let mut first_error: Option<BlockError> = None;
        for _ in 0..members.len() {
            match rx.recv() {
                Ok(FreeOutcome::Freed) => freed_any = true,
                Ok(FreeOutcome::NothingToFree | FreeOutcome::Queued | FreeOutcome::Died) => {}
                Ok(FreeOutcome::Failed(e)) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
                Err(_) => break,
            }
        }
        if let Some(e) = first_error {
            // The free is being reported failed: retract the queued
            // intentions so resync never replays it.
            self.shared.retract_seq(seq);
            return Err(e);
        }
        if freed_any {
            Ok(())
        } else {
            // Nothing was freed anywhere: undo the queued intentions so resync
            // does not replay a free the caller was told failed.
            self.shared.retract_seq(seq);
            Err(BlockError::NoSuchBlock(nr))
        }
    }

    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        // Read-one with fail-over, through the worker stream: the read queues
        // behind every previously acknowledged write on the serving replica,
        // so a quorum ack is immediately readable even from a straggler.
        // Resyncing replicas are skipped entirely — a straggler may not serve
        // reads until it has caught up to the current epoch.
        let members = self.shared.membership.members();
        let mut last = BlockError::Crashed;
        let mut attempts = 0u64;
        let mut repairable: Vec<usize> = Vec::new();
        for &idx in &members {
            attempts += 1;
            let (tx, rx) = mpsc::channel();
            {
                let submit = self.submit.lock();
                let _ = submit.senders[idx].send(Job::Read { nr, done: tx });
            }
            match rx.recv() {
                Ok(Ok(data)) => {
                    if attempts > 1 {
                        self.shared
                            .failover_reads
                            .fetch_add(attempts - 1, Ordering::Relaxed);
                    }
                    if !repairable.is_empty() {
                        // Read-repair: re-put the fresh block on every replica
                        // whose copy was detectably stale (missing or
                        // corrupted), in the background via its worker.
                        let submit = self.submit.lock();
                        for &stale in &repairable {
                            let _ = submit.senders[stale].send(Job::Repair {
                                nr,
                                data: data.clone(),
                            });
                        }
                    }
                    return Ok(data);
                }
                Ok(Err(e)) => {
                    if matches!(e, BlockError::NoSuchBlock(_) | BlockError::Corrupted(_)) {
                        repairable.push(idx);
                    }
                    last = e;
                }
                Err(_) => last = BlockError::Crashed,
            }
        }
        Err(last)
    }

    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
        self.fan_out_puts(&[(nr, data)])
    }

    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        self.fan_out_puts(writes)
    }

    fn is_allocated(&self, nr: BlockNr) -> bool {
        self.shared
            .membership
            .members()
            .iter()
            .any(|&idx| self.shared.replicas[idx].store.is_allocated(nr))
    }

    fn allocated_count(&self) -> usize {
        match self.shared.membership.members().first() {
            Some(&idx) => self.shared.replicas[idx].store.allocated_count(),
            None => 0,
        }
    }

    fn stats(&self) -> StoreStats {
        match self.shared.membership.members().first() {
            Some(&idx) => self.shared.replicas[idx].store.stats(),
            None => StoreStats::default(),
        }
    }

    fn allocated_blocks(&self) -> Vec<BlockNr> {
        match self.shared.membership.members().first() {
            Some(&idx) => self.shared.replicas[idx].store.allocated_blocks(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayStore, FaultyStore, MemStore};
    use std::time::{Duration, Instant};

    fn set(n: usize) -> Arc<ReplicatedBlockStore> {
        ReplicatedBlockStore::in_memory(n)
    }

    fn faulty_set(n: usize) -> (Vec<Arc<FaultyStore<MemStore>>>, Arc<ReplicatedBlockStore>) {
        let disks: Vec<Arc<FaultyStore<MemStore>>> = (0..n)
            .map(|_| Arc::new(FaultyStore::new(MemStore::new())))
            .collect();
        let replicas = ReplicatedBlockStore::new(
            disks
                .iter()
                .map(|d| Arc::clone(d) as Arc<dyn BlockStore>)
                .collect(),
        );
        (disks, replicas)
    }

    #[test]
    fn writes_land_on_every_replica() {
        let replicas = set(3);
        let nr = replicas.allocate().unwrap();
        replicas
            .write(nr, Bytes::from_static(b"everywhere"))
            .unwrap();
        // The ack needs only a majority; quiesce drains the straggler before
        // asserting all three copies.
        replicas.quiesce();
        for idx in 0..3 {
            assert_eq!(
                replicas.replica(idx).read(nr).unwrap(),
                Bytes::from_static(b"everywhere")
            );
        }
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn write_batch_lands_on_every_replica_as_one_call() {
        let replicas = set(3);
        let blocks: Vec<BlockNr> = (0..6).map(|_| replicas.allocate().unwrap()).collect();
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from(vec![nr as u8; 32])))
            .collect();
        replicas.write_batch(&writes).unwrap();
        replicas.quiesce();
        for idx in 0..3 {
            for &nr in &blocks {
                assert_eq!(
                    replicas.replica(idx).read(nr).unwrap(),
                    Bytes::from(vec![nr as u8; 32])
                );
            }
            let s = replicas.replica(idx).stats();
            assert_eq!(s.writes, 6, "replica {idx} wrote every block");
            assert_eq!(
                s.write_calls, 1,
                "replica {idx} served the batch in one call"
            );
        }
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn down_replica_gets_the_whole_batch_queued_and_resynced() {
        let replicas = set(3);
        let blocks: Vec<BlockNr> = (0..5).map(|_| replicas.allocate().unwrap()).collect();
        replicas.crash(2);
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from(vec![0xAB; 16])))
            .collect();
        replicas.write_batch(&writes).unwrap();
        assert_eq!(replicas.replica_stats().intentions_recorded, 5);
        assert!(!replicas.divergent_blocks().is_empty());
        let applied = replicas.resync(2).unwrap();
        assert_eq!(applied, 5, "the whole batch is replayed");
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn replica_killed_mid_batch_gets_the_whole_batch_replayed() {
        let (disks, replicas) = faulty_set(3);
        let blocks: Vec<BlockNr> = (0..6).map(|_| replicas.allocate().unwrap()).collect();
        // Replica 1's disk dies after accepting 3 of the 6 batch entries: the
        // batch is cut off mid-stream with an arbitrary prefix applied.
        disks[1].crash_after_writes(3);
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from(vec![nr as u8 + 1; 24])))
            .collect();
        replicas.write_batch(&writes).unwrap();
        // The ack comes from the surviving majority; quiesce so the corpse's
        // worker has definitely reported before asserting.
        replicas.quiesce();
        assert!(replicas.is_down(1), "the mid-batch crash was auto-detected");
        // The survivors hold the full batch; the corpse holds a prefix.
        assert!(!replicas.divergent_blocks().is_empty());

        // Resync must replay the *whole* batch, not just the missing suffix.
        disks[1].recover();
        let applied = replicas.resync(1).unwrap();
        assert_eq!(
            applied, 6,
            "batch-granularity intention replays every entry"
        );
        assert!(
            replicas.divergent_blocks().is_empty(),
            "agreement restored after a mid-batch crash"
        );
        for &nr in &blocks {
            assert_eq!(
                replicas.replica(1).read(nr).unwrap(),
                Bytes::from(vec![nr as u8 + 1; 24])
            );
        }
    }

    #[test]
    fn rejected_batch_queues_nothing() {
        let replicas = set(2);
        let a = replicas.allocate().unwrap();
        replicas.write(a, Bytes::from_static(b"keep")).unwrap();
        replicas.crash(1);
        let oversized = vec![
            (a, Bytes::from_static(b"fits")),
            (a, Bytes::from(vec![0u8; replicas.block_size() + 1])),
        ];
        assert!(matches!(
            replicas.write_batch(&oversized),
            Err(BlockError::TooLarge { .. })
        ));
        // The rejected batch must not poison the intentions list — and the
        // up-front validation means not even its valid prefix was applied.
        assert_eq!(replicas.resync(1).unwrap(), 0);
        assert_eq!(replicas.read(a).unwrap(), Bytes::from_static(b"keep"));
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn live_replica_rejecting_an_applied_batch_is_downed_and_converged() {
        // Replica 1's disk rejects every write with a transient I/O error
        // while replica 0 applies the batch: the data exists, so the call must
        // fail *and* queue the batch for replica 1 — otherwise the set stays
        // silently divergent with both replicas live.
        let (disks, replicas) = faulty_set(2);
        let blocks: Vec<BlockNr> = (0..3).map(|_| replicas.allocate().unwrap()).collect();
        disks[1].set_plan(crate::FaultPlan {
            write_failure_prob: 1.0,
            read_failure_prob: 0.0,
            seed: 1,
        });
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from_static(b"half-landed")))
            .collect();
        assert!(matches!(
            replicas.write_batch(&writes),
            Err(BlockError::Io(_))
        ));
        assert!(
            replicas.is_down(1),
            "the rejecting replica must be taken out of the set"
        );
        // Resync after the disk heals: the set converges to the applied state.
        disks[1].set_plan(crate::FaultPlan::default());
        replicas.resync(1).unwrap();
        assert!(
            replicas.divergent_blocks().is_empty(),
            "a rejected-but-applied batch must not leave silent divergence"
        );
        for &nr in &blocks {
            assert_eq!(
                replicas.replica(1).read(nr).unwrap(),
                Bytes::from_static(b"half-landed")
            );
        }
    }

    #[test]
    fn unacknowledged_batch_with_a_mid_crash_prefix_still_converges() {
        // The nastiest corner: NO replica fully applied the batch, but replica
        // 0 died mid-way holding a prefix while replica 1's disk rejected it.
        // The prefix cannot be un-happened, so both replicas must be taken
        // down with the batch queued — resync then settles the whole set on
        // one outcome instead of leaving a half-written prefix live.
        let (disks, replicas) = faulty_set(2);
        let blocks: Vec<BlockNr> = (0..4).map(|_| replicas.allocate().unwrap()).collect();
        disks[0].crash_after_writes(2);
        disks[1].set_plan(crate::FaultPlan {
            write_failure_prob: 1.0,
            read_failure_prob: 0.0,
            seed: 7,
        });
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from_static(b"prefix-only")))
            .collect();
        assert!(replicas.write_batch(&writes).is_err(), "not acknowledged");
        assert!(replicas.is_down(0) && replicas.is_down(1));

        disks[0].recover();
        disks[1].set_plan(crate::FaultPlan::default());
        replicas.resync(0).unwrap();
        replicas.resync(1).unwrap();
        assert!(
            replicas.divergent_blocks().is_empty(),
            "the set must settle on one outcome after an unacknowledged \
             batch left a prefix behind"
        );
    }

    #[test]
    fn concurrent_batches_keep_replicas_in_agreement() {
        let replicas = set(3);
        let blocks: Vec<BlockNr> = (0..16).map(|_| replicas.allocate().unwrap()).collect();
        let blocks = Arc::new(blocks);
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let replicas = Arc::clone(&replicas);
                let blocks = Arc::clone(&blocks);
                scope.spawn(move || {
                    // Each thread owns a disjoint block slice, batch-writing it
                    // repeatedly while the other threads fan out concurrently.
                    let mine = &blocks[(t as usize * 4)..(t as usize * 4 + 4)];
                    for round in 0..25u8 {
                        let writes: Vec<(BlockNr, Bytes)> = mine
                            .iter()
                            .map(|&nr| (nr, Bytes::from(vec![t.wrapping_mul(31) ^ round; 16])))
                            .collect();
                        replicas.write_batch(&writes).unwrap();
                    }
                });
            }
        });
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn reads_fail_over_past_a_corrupted_copy_and_repair_it() {
        let (disks, replicas) = faulty_set(3);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"safe")).unwrap();
        replicas.quiesce();
        disks[0].corrupt(nr);
        assert_eq!(replicas.read(nr).unwrap(), Bytes::from_static(b"safe"));
        assert_eq!(replicas.replica_stats().failover_reads, 1);
        // Read-repair re-put the fresh block on the corrupted copy in the
        // background: after the streams drain, replica 0 serves it again.
        replicas.quiesce();
        assert_eq!(
            replicas.replica(0).read(nr).unwrap(),
            Bytes::from_static(b"safe")
        );
        assert_eq!(replicas.replica_stats().read_repairs, 1);
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn crashed_replica_accumulates_intentions_and_resyncs() {
        let replicas = set(3);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"before")).unwrap();

        replicas.crash(1);
        replicas.write(nr, Bytes::from_static(b"during")).unwrap();
        let nr2 = replicas.allocate().unwrap();
        replicas.write(nr2, Bytes::from_static(b"new")).unwrap();
        assert!(replicas.replica_stats().degraded_writes >= 2);
        // The down replica is stale and divergent until resync.
        replicas.quiesce();
        assert_eq!(
            replicas.replica(1).read(nr).unwrap(),
            Bytes::from_static(b"before")
        );
        assert!(!replicas.divergent_blocks().is_empty());

        let applied = replicas.resync(1).unwrap();
        assert!(
            applied >= 3,
            "write + allocate + write replayed, got {applied}"
        );
        assert_eq!(
            replicas.replica(1).read(nr).unwrap(),
            Bytes::from_static(b"during")
        );
        assert_eq!(
            replicas.replica(1).read(nr2).unwrap(),
            Bytes::from_static(b"new")
        );
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn a_crash_below_the_replica_layer_is_detected_on_write() {
        let (disks, replicas) = faulty_set(2);
        let nr = replicas.allocate().unwrap();
        // Kill replica 0's disk directly, as a mid-commit media crash would.
        disks[0].crash();
        replicas.write(nr, Bytes::from_static(b"survives")).unwrap();
        assert!(replicas.is_down(0), "the crashed disk was auto-detected");
        assert_eq!(replicas.replica_stats().auto_downed, 1);
        assert_eq!(replicas.read(nr).unwrap(), Bytes::from_static(b"survives"));

        // Recover the disk below, then resync the replica above.
        disks[0].recover();
        replicas.resync(0).unwrap();
        assert_eq!(
            replicas.replica(0).read(nr).unwrap(),
            Bytes::from_static(b"survives")
        );
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn frees_reach_recovering_replicas_too() {
        let replicas = set(2);
        let nr = replicas.allocate().unwrap();
        replicas.crash(1);
        replicas.free(nr).unwrap();
        assert!(replicas.replica(1).is_allocated(nr));
        replicas.resync(1).unwrap();
        assert!(!replicas.replica(1).is_allocated(nr));
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn allocate_collision_rolls_back_all_mirrors() {
        let replicas = set(3);
        // Pre-allocate the number the leader will choose on replica 2 only, as a
        // racing client through another path would.
        replicas.replica(2).allocate_at(0).unwrap();
        let err = replicas.allocate().unwrap_err();
        assert_eq!(err, BlockError::AlreadyAllocated(0));
        assert!(!replicas.replica(0).is_allocated(0));
        assert!(!replicas.replica(1).is_allocated(0));
        // A retry picks a fresh number and succeeds on every replica.
        let nr = replicas.allocate().unwrap();
        assert_ne!(nr, 0);
        replicas.write(nr, Bytes::from_static(b"retry")).unwrap();
        replicas.quiesce();
        for idx in 0..3 {
            assert_eq!(
                replicas.replica(idx).read(nr).unwrap(),
                Bytes::from_static(b"retry")
            );
        }
    }

    #[test]
    fn allocation_fails_over_past_a_crashed_leader_disk() {
        let (disks, replicas) = faulty_set(2);
        // The would-be leader's disk dies below the replica layer: allocation
        // must fail over to the healthy replica instead of bricking the set.
        disks[0].crash();
        let nr = replicas.allocate().expect("fail over to the live replica");
        replicas.write(nr, Bytes::from_static(b"alive")).unwrap();
        assert!(replicas.is_down(0), "the dead leader was auto-detected");
        assert_eq!(replicas.read(nr).unwrap(), Bytes::from_static(b"alive"));

        // Recovery replays what the dead disk missed.
        disks[0].recover();
        replicas.resync(0).unwrap();
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn collision_rollback_retracts_intentions_queued_for_down_replicas() {
        let replicas = set(3);
        replicas.crash(1);
        // Replica 2 already holds the number the leader will choose: the
        // allocation collides and rolls back everywhere — including the
        // intention just queued for the down replica 1.
        replicas.replica(2).allocate_at(0).unwrap();
        let err = replicas.allocate().unwrap_err();
        assert_eq!(err, BlockError::AlreadyAllocated(0));
        let applied = replicas.resync(1).unwrap();
        assert_eq!(
            applied, 0,
            "the rolled-back allocation must not be replayed at resync"
        );
        assert!(!replicas.replica(1).is_allocated(0));
    }

    #[test]
    fn allocate_at_with_no_live_taker_is_an_error_and_queues_nothing() {
        let (disks, replicas) = faulty_set(2);
        // Both disks crash below the layer (membership still shows them In).
        disks[0].crash();
        disks[1].crash();
        assert_eq!(
            BlockStore::allocate_at(&*replicas, 7),
            Err(BlockError::Crashed),
            "an allocation applied nowhere must not be acknowledged"
        );
        disks[0].recover();
        disks[1].recover();
        assert_eq!(replicas.resync(0).unwrap(), 0);
        assert_eq!(replicas.resync(1).unwrap(), 0);
        assert!(!replicas.replica(0).is_allocated(7));
        assert!(!replicas.replica(1).is_allocated(7));
    }

    #[test]
    fn rejected_write_never_poisons_the_intentions_list() {
        let replicas = set(2);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"good")).unwrap();
        replicas.crash(0);
        // An oversized write is rejected by the live replica; the intent queued
        // for the down replica must be retracted, or every future resync would
        // replay (and fail on) it forever.
        let oversized = Bytes::from(vec![0u8; replicas.block_size() + 1]);
        assert!(matches!(
            replicas.write(nr, oversized),
            Err(BlockError::TooLarge { .. })
        ));
        assert_eq!(replicas.resync(0).unwrap(), 0);
        assert!(!replicas.is_down(0));
        assert!(replicas.divergent_blocks().is_empty());
        assert_eq!(replicas.read(nr).unwrap(), Bytes::from_static(b"good"));
    }

    #[test]
    fn whole_set_down_is_an_error() {
        let replicas = set(2);
        let nr = replicas.allocate().unwrap();
        replicas.crash(0);
        replicas.crash(1);
        assert_eq!(replicas.read(nr), Err(BlockError::Crashed));
        assert_eq!(
            replicas.write(nr, Bytes::from_static(b"nope")),
            Err(BlockError::Crashed)
        );
        assert_eq!(replicas.live_count(), 0);
    }

    #[test]
    fn single_replica_set_degenerates_to_its_disk() {
        let replicas = set(1);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"solo")).unwrap();
        assert_eq!(replicas.read(nr).unwrap(), Bytes::from_static(b"solo"));
        assert_eq!(replicas.allocated_count(), 1);
    }

    // ---- quorum / epoch behaviour -------------------------------------------

    #[test]
    fn quorum_ack_is_not_gated_by_one_slow_replica() {
        // Two instantaneous disks plus one slow disk: under the quorum rule a
        // write is acknowledged by the fast majority while the straggler
        // applies in the background, so the ack latency must be far below the
        // straggler's service time.
        let slow = Duration::from_millis(120);
        let stores: Vec<Arc<dyn BlockStore>> = vec![
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(DelayStore::new(MemStore::new(), slow)),
        ];
        let replicas = ReplicatedBlockStore::new(stores);
        let nr = replicas.allocate().unwrap();
        let start = Instant::now();
        replicas.write(nr, Bytes::from_static(b"fast")).unwrap();
        let acked = start.elapsed();
        assert!(
            acked < slow / 2,
            "quorum ack took {acked:?}, gated by the {slow:?} straggler"
        );
        assert!(replicas.replica_stats().quorum_short_acks >= 1);
        // The straggler still applies everything, in order.
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn epochs_bump_on_depose_and_rejoin_and_stamp_intentions() {
        let replicas = set(3);
        assert_eq!(replicas.epoch(), 1);
        let nr = replicas.allocate().unwrap();

        replicas.crash(1);
        assert_eq!(replicas.epoch(), 2, "a depose is a membership change");
        replicas.write(nr, Bytes::from_static(b"ep2")).unwrap();
        assert_eq!(
            replicas.intention_epochs(1),
            vec![2],
            "the missed write is stamped with the epoch it was acked under"
        );

        replicas.resync(1).unwrap();
        assert_eq!(replicas.epoch(), 3, "a rejoin is a membership change too");
        assert!(replicas.intention_epochs(1).is_empty());
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn partitioned_replica_is_deposed_and_rejoins_via_resync() {
        // Partition (do not crash) one replica: its store stays alive and
        // keeps its data, but every call errors for the duration.  The quorum
        // keeps committing; the partitioned replica is deposed with the missed
        // writes queued, and heals back in through the epoch-stamped resync.
        let (disks, replicas) = faulty_set(3);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"pre")).unwrap();
        replicas.quiesce();

        disks[2].partition();
        replicas.write(nr, Bytes::from_static(b"during")).unwrap();
        replicas.quiesce();
        assert!(replicas.is_down(2), "the partitioned replica was deposed");
        assert!(disks[2].rejected_while_partitioned() >= 1);
        assert_eq!(
            disks[2].inner().read(nr).unwrap(),
            Bytes::from_static(b"pre"),
            "a partitioned disk keeps its (stale) data, unlike a crashed one"
        );

        disks[2].heal();
        let applied = replicas.resync(2).unwrap();
        assert!(applied >= 1);
        assert!(replicas.divergent_blocks().is_empty());
        assert_eq!(
            replicas.replica(2).read(nr).unwrap(),
            Bytes::from_static(b"during")
        );
    }

    #[test]
    fn an_acknowledged_write_is_never_lost_across_epoch_churn() {
        // Epoch-change safety, end to end: acknowledged writes survive any
        // sequence of deposals and rejoins — intentions stamped with an old
        // epoch are replayed or superseded, never dropped.
        let replicas = set(3);
        let blocks: Vec<BlockNr> = (0..6).map(|_| replicas.allocate().unwrap()).collect();
        let mut acked: Vec<(BlockNr, Vec<u8>)> = Vec::new();
        for round in 0..12u8 {
            let victim = (round % 3) as usize;
            replicas.crash(victim);
            for (i, &nr) in blocks.iter().enumerate() {
                let value = vec![round.wrapping_mul(7) ^ i as u8; 16];
                replicas.write(nr, Bytes::from(value.clone())).unwrap();
                acked.push((nr, value));
            }
            replicas.resync(victim).unwrap();
        }
        assert!(replicas.epoch() > 2 * 12, "24 membership changes");
        assert!(replicas.divergent_blocks().is_empty());
        // The final acked value of every block is readable from every replica.
        let mut last: std::collections::HashMap<BlockNr, Vec<u8>> = Default::default();
        for (nr, v) in acked {
            last.insert(nr, v);
        }
        for idx in 0..3 {
            for (&nr, v) in &last {
                assert_eq!(
                    replicas.replica(idx).read(nr).unwrap(),
                    Bytes::from(v.clone()),
                    "replica {idx} lost an acknowledged write to block {nr}"
                );
            }
        }
    }

    #[test]
    fn resync_is_idempotent_and_races_a_live_commit_stream_safely() {
        let replicas = set(3);
        assert_eq!(replicas.resync(0).unwrap(), 0, "resync of an In replica");
        let blocks: Vec<BlockNr> = (0..8).map(|_| replicas.allocate().unwrap()).collect();
        let blocks = Arc::new(blocks);
        std::thread::scope(|scope| {
            // Four writers hammer disjoint slices...
            for t in 0..4u8 {
                let replicas = Arc::clone(&replicas);
                let blocks = Arc::clone(&blocks);
                scope.spawn(move || {
                    let mine = &blocks[(t as usize * 2)..(t as usize * 2 + 2)];
                    for round in 0..30u8 {
                        let writes: Vec<(BlockNr, Bytes)> = mine
                            .iter()
                            .map(|&nr| (nr, Bytes::from(vec![t ^ round; 16])))
                            .collect();
                        replicas.write_batch(&writes).unwrap();
                    }
                });
            }
            // ...while replica 1 is repeatedly deposed and resynced, with two
            // racing resync callers.
            for _ in 0..2 {
                let replicas = Arc::clone(&replicas);
                scope.spawn(move || {
                    for _ in 0..10 {
                        replicas.crash(1);
                        std::thread::yield_now();
                        // One of the racers may find the other already
                        // readmitted the replica: Ok(0), not an error.
                        replicas.resync(1).unwrap();
                    }
                });
            }
        });
        // Settle: the final resync drains anything the last depose queued.
        replicas.resync(1).unwrap();
        assert!(
            replicas.divergent_blocks().is_empty(),
            "resync racing a live commit stream must converge the set"
        );
    }
}
