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
//! * **read-one with read-repair** — a read runs on the caller's thread.  It
//!   goes first to the In replica with the shortest put backlog (the lowest
//!   index among equals, so an idle set reads replica 0), waits for that
//!   replica's put lane to finish every job submitted before the read, and
//!   fails over serially past crashed, corrupted or missing copies; when the
//!   fail-over succeeds, every replica whose copy was detectably stale
//!   (missing or corrupted) gets the fresh block re-put in the background.
//!   Resyncing replicas serve no reads: a straggler may not answer until it
//!   has caught up to the current epoch;
//! * **epoch-stamped intention recording** — writes an absent replica misses
//!   are queued on its *intentions list* (§4's "the survivor keeps a list of
//!   blocks that have been modified"), each stamped with the global submission
//!   sequence number and the epoch it was acknowledged under.  Missed batches
//!   are queued at *batch granularity*: a replica that dies mid-batch holds an
//!   unknown prefix, so the whole batch is queued and resync re-puts every
//!   entry idempotently;
//! * **resync on recovery** — a recovering replica "compares notes": it moves
//!   Out → Resyncing (still barred from quorums and reads), drains its worker
//!   queues behind a barrier, replays its intentions in sequence order under
//!   the drain lock, and only when the list is empty is it readmitted —
//!   bumping the epoch, like any other membership change.  Resync is
//!   idempotent and safe to race with live commits: writes submitted during
//!   the drain keep landing on the intentions list and are replayed before
//!   the flip.
//!
//! **The coordinator owns the block numbers.**  A replica set has exactly one
//! coordinator, so it is the allocator for the set: [`BlockStore::allocate`]
//! and [`BlockStore::allocate_at`] are local next-fit decisions over a number
//! table seeded from the replicas at construction, with no round trip.  A
//! number reaches the disks with its first put, because every replica's
//! `write_batch` allocates the entries it does not hold yet (write-allocate:
//! the paper's §4 allocate-and-write, folded into the batch write).  Reads of
//! a number nobody has written yet are answered from the table.
//!
//! **Frees leave the caller's thread.**  [`BlockStore::free`] returns once the
//! free is queued on each member's *free lane*: a queue beside the put lane,
//! drained by one worker with a helper that joins while the queue is deep.
//! A free is applied only after every job submitted before it on the put
//! lane, so a free never overtakes the put it undoes, and a backlog of frees
//! never delays a commit's puts.  A failed free deposes its replica and
//! queues an intention, exactly like a put.  A freed number is reissued only
//! after every member has applied the free or queued it as an intention, so a
//! late free can never destroy the number's next owner.
//!
//! The store implements [`BlockStore`], so a whole `FileService` — one shard of
//! the sharded deployment — runs over a replica set by handing
//! `BlockServer::new` an `Arc<ReplicatedBlockStore>`.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::membership::{Epoch, Membership, ReplicaStatus};
use crate::quorum::majority;
use crate::store::{BlockStore, StoreStats};
use crate::{BlockError, BlockNr, Result, MAX_BLOCK_NR};

/// One put batch, shared between the replica jobs and the intentions lists.
type Writes = Arc<Vec<(BlockNr, Bytes)>>;

/// One queued operation an absent replica missed.
#[derive(Debug, Clone)]
enum Intent {
    /// Ensure every `(block, data)` pair of a missed put batch is applied.
    /// Queued at batch granularity: a replica that crashed *mid*-batch may hold
    /// an arbitrary prefix of the entries, so resync replays the whole batch
    /// (puts are idempotent) rather than trying to guess where it was cut off.
    Puts(Writes),
    /// Ensure the block is freed.
    Free(BlockNr),
}

impl Intent {
    fn ops(&self) -> u64 {
        match self {
            Intent::Puts(writes) => writes.len() as u64,
            Intent::Free(_) => 1,
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
    /// Jobs the put lane has finished; a free or a read waits here for the
    /// put-lane jobs submitted before it.
    puts_done: Progress,
    /// Frees the free lane has finished; a free-lane fence waits here for
    /// the frees submitted before it.
    frees_done: Progress,
}

/// How many jobs of one lane have finished, for waiters that need every job
/// up to a mark done.
#[derive(Default)]
struct Progress {
    done: Mutex<u64>,
    advanced: Condvar,
}

impl Progress {
    fn advance(&self) {
        *self.done.lock() += 1;
        self.advanced.notify_all();
    }

    /// How many jobs have finished so far.
    fn finished(&self) -> u64 {
        *self.done.lock()
    }

    /// Returns once at least `mark` jobs have finished.
    fn wait_for(&self, mark: u64) {
        let mut done = self.done.lock();
        while *done < mark {
            self.advanced.wait(&mut done);
        }
    }
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

/// A job on a replica's put lane: every put the coordinator submits flows
/// through here in global submission order, so per-replica apply order equals
/// submission order even when the coordinator acks at quorum and moves on.
/// Reads and frees do not ride the lane; they wait on its progress mark
/// ([`Replica::puts_done`]) for the jobs submitted before them.
enum Job {
    /// Apply a put batch (or queue it as an intention when the replica is not
    /// In), reporting the outcome to the coordinator.
    Put {
        seq: u64,
        epoch: Epoch,
        writes: Writes,
        done: mpsc::Sender<PutOutcome>,
    },
    /// Re-put a block whose copy here was detectably stale on a fail-over
    /// read.  Applied only if the copy is *still* stale when the job runs, so
    /// a repair can never clobber a newer write that raced it.
    Repair { nr: BlockNr, data: Bytes },
    /// Fence: replies once every job submitted before it has been processed.
    Barrier { done: mpsc::Sender<()> },
}

/// A job on a replica's free lane.
enum FreeJob {
    /// Free a block (or queue the free) once the put lane has finished its
    /// first `after` jobs, then release the number.
    Free {
        seq: u64,
        epoch: Epoch,
        nr: BlockNr,
        after: u64,
    },
    /// Fence: replies once the free lane has finished its first `after`
    /// frees, i.e. every free submitted before the fence.
    Barrier { after: u64, done: mpsc::Sender<()> },
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

/// The coordinator's table of the set's block numbers.
#[derive(Debug, Default)]
struct Numbers {
    /// Every number handed out and not freed.
    allocated: BTreeSet<BlockNr>,
    /// The allocated numbers no put has been submitted for: no replica holds
    /// them, so reading one returns empty contents and freeing one is local.
    unwritten: HashSet<BlockNr>,
    /// Freed numbers whose free is still on its way to some member, with the
    /// count of members yet to apply or queue it.  Not reissued until zero.
    releasing: HashMap<BlockNr, usize>,
    /// The next-fit cursor.
    next: BlockNr,
}

impl Numbers {
    fn seeded(blocks: impl IntoIterator<Item = BlockNr>) -> Numbers {
        let allocated: BTreeSet<BlockNr> = blocks.into_iter().collect();
        let next = match allocated.last() {
            Some(&last) if last < MAX_BLOCK_NR => last + 1,
            _ => 0,
        };
        Numbers {
            allocated,
            next,
            ..Numbers::default()
        }
    }

    /// Next-fit, like `MemStore`: the first number at or after the cursor
    /// that is neither allocated nor still being released, wrapping once.
    fn next_free(&mut self) -> Result<BlockNr> {
        let start = self.next;
        let mut nr = start;
        while self.allocated.contains(&nr) || self.releasing.contains_key(&nr) {
            nr = if nr == MAX_BLOCK_NR { 0 } else { nr + 1 };
            if nr == start {
                return Err(BlockError::Full);
            }
        }
        self.next = if nr == MAX_BLOCK_NR { 0 } else { nr + 1 };
        Ok(nr)
    }
}

/// Counters and state shared between the coordinator and the replica workers.
struct Shared {
    membership: Membership,
    replicas: Vec<Replica>,
    numbers: Mutex<Numbers>,
    /// Signalled whenever a number leaves `Numbers::releasing`.
    released: Condvar,
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

    /// Frees a block on one replica's disk; a block the disk never held
    /// (its put was healed away, or never landed) is already free.
    fn apply_free(store: &Arc<dyn BlockStore>, nr: BlockNr) -> Result<()> {
        match store.free(nr) {
            Err(BlockError::NoSuchBlock(_)) => Ok(()),
            other => other,
        }
    }

    fn apply_intent(&self, idx: usize, intent: &Intent) -> Result<()> {
        let store = &self.replicas[idx].store;
        match intent {
            // One call; `write_batch` allocates every entry the replica does
            // not hold yet, so no per-block `is_allocated` probe (one RPC per
            // block over a remote disk) is needed first.
            Intent::Puts(writes) => store.write_batch(writes),
            Intent::Free(nr) => Self::apply_free(store, *nr),
        }
    }

    /// Reads `nr` from replica `idx` on the caller's thread, once its put
    /// lane has finished its first `after` jobs.
    fn read_one(&self, idx: usize, nr: BlockNr, after: u64) -> Result<Bytes> {
        let replica = &self.replicas[idx];
        replica.puts_done.wait_for(after);
        if self.membership.status(idx) != ReplicaStatus::In {
            return Err(BlockError::Crashed);
        }
        match replica.store.read(nr) {
            Err(BlockError::Crashed) => {
                // The disk below crashed without going through crash():
                // depose it so writes queue intentions.
                self.depose(idx, true);
                Err(BlockError::Crashed)
            }
            other => other,
        }
    }

    /// One member has applied or queued the free of `nr`; the last one
    /// makes the number reissuable.
    fn release(&self, nr: BlockNr) {
        let mut numbers = self.numbers.lock();
        if let Some(left) = numbers.releasing.get_mut(&nr) {
            *left -= 1;
            if *left == 0 {
                numbers.releasing.remove(&nr);
                self.released.notify_all();
            }
        }
    }

    /// Locks the number table once none of `nrs` is still being released.
    fn settled_numbers(
        &self,
        nrs: impl Iterator<Item = BlockNr> + Clone,
    ) -> MutexGuard<'_, Numbers> {
        let mut numbers = self.numbers.lock();
        while nrs.clone().any(|nr| numbers.releasing.contains_key(&nr)) {
            self.released.wait(&mut numbers);
        }
        numbers
    }
}

/// The put-lane worker: drains the replica's job stream in FIFO order.  It is
/// the only code that applies put traffic to its disk, which is what keeps
/// "version page strictly last" true per replica even though the coordinator
/// acks at quorum and stops waiting.
///
/// A job's progress mark advances *before* its outcome is reported, so a
/// replica that helped a write reach quorum already shows no backlog for it
/// when the next read picks a replica.
fn put_lane(shared: Arc<Shared>, idx: usize, jobs: mpsc::Receiver<Job>) {
    let replica = &shared.replicas[idx];
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Put {
                seq,
                epoch,
                writes,
                done,
            } => {
                let outcome = if shared.membership.status(idx) != ReplicaStatus::In {
                    // Deposed between submission and processing: the stream
                    // position is preserved by queueing under the job's seq.
                    shared.queue_intention(idx, seq, epoch, Intent::Puts(writes));
                    PutOutcome::Queued
                } else {
                    match replica.store.write_batch(&writes) {
                        Ok(()) => PutOutcome::Wrote,
                        Err(e) => {
                            shared.depose(idx, true);
                            shared.queue_intention(idx, seq, epoch, Intent::Puts(writes));
                            match e {
                                BlockError::Crashed => PutOutcome::Died,
                                other => PutOutcome::Failed(other),
                            }
                        }
                    }
                };
                replica.puts_done.advance();
                let _ = done.send(outcome);
            }
            Job::Repair { nr, data } => {
                // Apply only if the copy is still detectably stale: a write
                // acknowledged after the triggering read may have queued
                // behind this job's submission and must not be clobbered.
                if shared.membership.status(idx) == ReplicaStatus::In
                    && matches!(
                        replica.store.read(nr),
                        Err(BlockError::NoSuchBlock(_)) | Err(BlockError::Corrupted(_))
                    )
                    && replica.store.write_batch(&[(nr, data)]).is_ok()
                {
                    shared.read_repairs.fetch_add(1, Ordering::Relaxed);
                }
                replica.puts_done.advance();
            }
            Job::Barrier { done } => {
                replica.puts_done.advance();
                let _ = done.send(());
            }
        }
    }
}

/// Queue depth at which a free lane's helper joins its worker.  One worker,
/// one free in flight, keeps up with most traffic and spreads a burst of
/// frees thinly between the commits' own RPCs.  It drains slower than a
/// stream of 32-page commits queues frees, though, and an unbounded backlog
/// then swings between empty and tens of thousands over tens of seconds,
/// with commit throughput swinging against it.  The helper caps the backlog
/// near this depth, a few hundred milliseconds of frees.
const HELPER_DEPTH: usize = 2048;

/// A replica's free lane: frees and fences in submission order, drained by
/// one worker, with a helper that takes jobs only while at least
/// [`HELPER_DEPTH`] are queued.
#[derive(Default)]
struct FreeLane {
    state: Mutex<FreeLaneState>,
    /// Signalled when a job is queued or the lane closes.
    queued: Condvar,
    /// Signalled when the queue reaches the helper's depth or the lane closes.
    deep: Condvar,
}

#[derive(Default)]
struct FreeLaneState {
    jobs: VecDeque<FreeJob>,
    closed: bool,
}

impl FreeLane {
    fn push(&self, job: FreeJob) {
        let mut state = self.state.lock();
        state.jobs.push_back(job);
        let depth = state.jobs.len();
        drop(state);
        self.queued.notify_one();
        if depth == HELPER_DEPTH {
            self.deep.notify_one();
        }
    }

    /// Wakes both workers to drain what is queued and exit.
    fn close(&self) {
        self.state.lock().closed = true;
        self.queued.notify_all();
        self.deep.notify_all();
    }

    /// The worker's next job; `None` once the lane is closed and drained.
    fn next(&self) -> Option<FreeJob> {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            self.queued.wait(&mut state);
        }
    }

    /// The helper's next job, once the queue is deep; `None` once the lane
    /// is closed (the worker drains the rest).
    fn next_if_deep(&self) -> Option<FreeJob> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return None;
            }
            if state.jobs.len() >= HELPER_DEPTH {
                return state.jobs.pop_front();
            }
            self.deep.wait(&mut state);
        }
    }
}

/// A free-lane worker (or, with `helper`, the lane's helper): applies each
/// free after the put-lane jobs submitted before it, so it can never
/// overtake a still-queued put of the same block on a straggler (which would
/// resurrect the block).  Frees of distinct numbers commute, so only fences
/// care which of the two finishes first.
fn free_lane(shared: Arc<Shared>, idx: usize, lane: Arc<FreeLane>, helper: bool) {
    let replica = &shared.replicas[idx];
    loop {
        let next = if helper {
            lane.next_if_deep()
        } else {
            lane.next()
        };
        let Some(job) = next else { break };
        match job {
            FreeJob::Free {
                seq,
                epoch,
                nr,
                after,
            } => {
                replica.puts_done.wait_for(after);
                let applied = shared.membership.status(idx) == ReplicaStatus::In
                    && match Shared::apply_free(&replica.store, nr) {
                        Ok(()) => true,
                        Err(_) => {
                            shared.depose(idx, true);
                            false
                        }
                    };
                if !applied {
                    shared.queue_intention(idx, seq, epoch, Intent::Free(nr));
                }
                shared.release(nr);
                replica.frees_done.advance();
            }
            FreeJob::Barrier { after, done } => {
                // The other thread may still be applying an earlier free.
                replica.frees_done.wait_for(after);
                let _ = done.send(());
            }
        }
    }
}

fn spawn_worker(name: String, body: impl FnOnce() + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn replica worker")
}

/// The submission side of the worker lanes.  Sends happen under this lock,
/// so lane order equals sequence order on every replica.
struct SubmitState {
    puts: Vec<mpsc::Sender<Job>>,
    frees: Vec<Arc<FreeLane>>,
    /// Jobs sent down each put lane so far: the `after` mark of a free or a
    /// read.
    put_jobs_sent: Vec<u64>,
    /// Frees sent down each free lane so far: the `after` mark of a fence.
    frees_sent: Vec<u64>,
}

impl SubmitState {
    fn put(&mut self, idx: usize, job: Job) {
        self.put_jobs_sent[idx] += 1;
        let _ = self.puts[idx].send(job);
    }

    /// Queues the free of `nr` on replica `idx`'s free lane, behind every
    /// put-lane job sent so far.
    fn free(&mut self, idx: usize, seq: u64, epoch: Epoch, nr: BlockNr) {
        self.frees_sent[idx] += 1;
        let after = self.put_jobs_sent[idx];
        self.frees[idx].push(FreeJob::Free {
            seq,
            epoch,
            nr,
            after,
        });
    }

    /// Sends a barrier down both lanes of replica `idx`.
    fn fence(&mut self, idx: usize, done: &mpsc::Sender<()>) {
        self.put(idx, Job::Barrier { done: done.clone() });
        self.frees[idx].push(FreeJob::Barrier {
            after: self.frees_sent[idx],
            done: done.clone(),
        });
    }
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
    /// required; two or more are needed for any fault tolerance.  The number
    /// table starts as the union of what the disks already hold.
    pub fn new(stores: Vec<Arc<dyn BlockStore>>) -> Arc<Self> {
        assert!(!stores.is_empty(), "a replica set needs at least one disk");
        let n = stores.len();
        let numbers = Numbers::seeded(stores.iter().flat_map(|s| s.allocated_blocks()));
        let shared = Arc::new(Shared {
            membership: Membership::new(n),
            replicas: stores
                .into_iter()
                .map(|store| Replica {
                    store,
                    state: Mutex::new(ReplicaState::default()),
                    resync_lock: Mutex::new(()),
                    puts_done: Progress::default(),
                    frees_done: Progress::default(),
                })
                .collect(),
            numbers: Mutex::new(numbers),
            released: Condvar::new(),
            next_seq: AtomicU64::new(1),
            degraded_writes: AtomicU64::new(0),
            intentions_recorded: AtomicU64::new(0),
            failover_reads: AtomicU64::new(0),
            resyncs_applied: AtomicU64::new(0),
            auto_downed: AtomicU64::new(0),
            quorum_short_acks: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
        });
        let mut submit = SubmitState {
            puts: Vec::with_capacity(n),
            frees: Vec::with_capacity(n),
            put_jobs_sent: vec![0; n],
            frees_sent: vec![0; n],
        };
        let mut workers = Vec::with_capacity(3 * n);
        for idx in 0..n {
            let (tx, rx) = mpsc::channel();
            let lane_shared = Arc::clone(&shared);
            workers.push(spawn_worker(format!("replica-puts-{idx}"), move || {
                put_lane(lane_shared, idx, rx)
            }));
            submit.puts.push(tx);
            let lane = Arc::new(FreeLane::default());
            for helper in [false, true] {
                let lane_shared = Arc::clone(&shared);
                let lane = Arc::clone(&lane);
                workers.push(spawn_worker(format!("replica-frees-{idx}"), move || {
                    free_lane(lane_shared, idx, lane, helper)
                }));
            }
            submit.frees.push(lane);
        }
        Arc::new(ReplicatedBlockStore {
            shared,
            submit: Mutex::new(submit),
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

    /// Waits until both lanes of every replica have drained all jobs
    /// submitted so far — including background stragglers of
    /// quorum-acknowledged writes and queued frees.  Test and audit fencing;
    /// never needed for correctness of the write path.
    pub fn quiesce(&self) {
        self.fence(0..self.shared.replicas.len());
    }

    /// Fences both lanes of a single replica.
    fn barrier_one(&self, idx: usize) {
        self.fence(idx..idx + 1);
    }

    fn fence(&self, replicas: std::ops::Range<usize>) {
        let (tx, rx) = mpsc::channel();
        let count = {
            let mut submit = self.submit.lock();
            for idx in replicas.clone() {
                submit.fence(idx, &tx);
            }
            2 * replicas.len()
        };
        drop(tx);
        for _ in 0..count {
            if rx.recv().is_err() {
                break;
            }
        }
    }

    /// Recovers replica `idx`: moves it Out → Resyncing (still barred from
    /// quorums and reads), fences its worker lanes, replays its epoch-stamped
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
        // Fence both lanes: any job still in flight from when the replica was
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

    /// The shared write path of [`BlockStore::write`] (`allocate == false`:
    /// every entry must already be allocated) and [`BlockStore::write_batch`]
    /// (`allocate == true`: an entry naming a free number allocates it).
    /// Submits the put batch to every member of the current epoch's replica
    /// set (queueing an epoch-stamped intention for every absent replica),
    /// then waits for outcomes until a strict majority of the *current*
    /// membership has applied it.
    ///
    /// Stragglers keep applying in the background in stream order, and a
    /// straggler that fails is deposed by its worker with the batch queued.
    /// The threshold is re-evaluated against the current membership on every
    /// outcome, so a member that dies mid-write shrinks the denominator (with
    /// an epoch bump) instead of wedging the ack.
    ///
    /// Nothing stays queued unless some part of the batch may exist on some
    /// disk — a batch that exists nowhere must never be replayed by resync,
    /// and the numbers it write-allocated go back to the table.  A batch
    /// rejected by a live disk fails the call even if others applied it (the
    /// rejection is evidence of a real fault, and the promise that an error
    /// means "not every live replica holds this" is worth keeping), with the
    /// rejecting replica deposed and converged forward via resync.
    fn fan_out_puts(&self, writes: &[(BlockNr, Bytes)], allocate: bool) -> Result<()> {
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
        let nrs = writes.iter().map(|(nr, _)| *nr);
        if allocate {
            // A number whose free is still in flight is not ours to reuse yet.
            drop(self.shared.settled_numbers(nrs.clone()));
        }

        let payload: Writes = Arc::new(writes.to_vec());
        let (tx, rx) = mpsc::channel();
        let (members, seq, mut degraded, fresh, first_puts) = {
            let mut submit = self.submit.lock();
            let view = self.shared.membership.lock();
            let members = view.members();
            if members.is_empty() {
                // The whole set is absent: refuse with nothing queued.
                return Err(BlockError::Crashed);
            }
            let mut numbers = self.shared.numbers.lock();
            for nr in nrs.clone() {
                if !numbers.allocated.contains(&nr) {
                    if !allocate || nr > MAX_BLOCK_NR {
                        return Err(BlockError::NoSuchBlock(nr));
                    }
                    if numbers.releasing.contains_key(&nr) {
                        // Freed and released again since the wait: another
                        // caller is racing us for the number.
                        return Err(BlockError::AlreadyAllocated(nr));
                    }
                }
            }
            let mut fresh = Vec::new();
            let mut first_puts = Vec::new();
            for nr in nrs {
                if numbers.allocated.insert(nr) {
                    fresh.push(nr);
                } else if numbers.unwritten.remove(&nr) {
                    first_puts.push(nr);
                }
            }
            drop(numbers);
            let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
            let epoch = view.epoch();
            let mut degraded = false;
            for idx in 0..view.len() {
                if view.status(idx) != ReplicaStatus::In {
                    self.shared.queue_intention(
                        idx,
                        seq,
                        epoch,
                        Intent::Puts(Arc::clone(&payload)),
                    );
                    degraded = true;
                }
            }
            for &idx in &members {
                submit.put(
                    idx,
                    Job::Put {
                        seq,
                        epoch,
                        writes: Arc::clone(&payload),
                        done: tx.clone(),
                    },
                );
            }
            (members, seq, degraded, fresh, first_puts)
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
            // never resurface at resync, and hand its numbers back.
            self.shared.retract_seq(seq);
            let mut numbers = self.shared.numbers.lock();
            for nr in fresh {
                numbers.allocated.remove(&nr);
            }
            for nr in first_puts {
                if numbers.allocated.contains(&nr) {
                    numbers.unwritten.insert(nr);
                }
            }
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
    /// crash/partition + resync).  Quiesces the worker lanes first, so
    /// background stragglers of quorum-acknowledged writes and queued frees
    /// are not reported as divergence.
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
        // Close the lanes, then wait for the workers to drain and exit.
        let submit = self.submit.get_mut();
        submit.puts.clear();
        for lane in submit.frees.drain(..) {
            lane.close();
        }
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
        // The number is the coordinator's to choose: no disk hears of it
        // until its first put.  A set with no live member takes no new work.
        if self.shared.membership.in_count() == 0 {
            return Err(BlockError::Crashed);
        }
        let mut numbers = self.shared.numbers.lock();
        let nr = numbers.next_free()?;
        numbers.allocated.insert(nr);
        numbers.unwritten.insert(nr);
        Ok(nr)
    }

    fn allocate_at(&self, nr: BlockNr) -> Result<()> {
        if nr > MAX_BLOCK_NR {
            return Err(BlockError::NoSuchBlock(nr));
        }
        if self.shared.membership.in_count() == 0 {
            return Err(BlockError::Crashed);
        }
        let mut numbers = self.shared.settled_numbers(std::iter::once(nr));
        if !numbers.allocated.insert(nr) {
            return Err(BlockError::AlreadyAllocated(nr));
        }
        numbers.unwritten.insert(nr);
        Ok(())
    }

    fn free(&self, nr: BlockNr) -> Result<()> {
        // Taken under the submit lock, so the free's place on each free lane
        // is fixed after every put already submitted for the block.
        let mut submit = self.submit.lock();
        let view = self.shared.membership.lock();
        let members = view.members();
        {
            let mut numbers = self.shared.numbers.lock();
            if !numbers.allocated.contains(&nr) {
                return Err(BlockError::NoSuchBlock(nr));
            }
            if numbers.unwritten.remove(&nr) {
                // No replica ever heard of it.
                numbers.allocated.remove(&nr);
                return Ok(());
            }
            if members.is_empty() {
                return Err(BlockError::Crashed);
            }
            numbers.allocated.remove(&nr);
            numbers.releasing.insert(nr, members.len());
        }
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        let epoch = view.epoch();
        for idx in 0..view.len() {
            if view.status(idx) != ReplicaStatus::In {
                self.shared
                    .queue_intention(idx, seq, epoch, Intent::Free(nr));
            }
        }
        for &idx in &members {
            submit.free(idx, seq, epoch, nr);
        }
        Ok(())
    }

    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        {
            let numbers = self.shared.numbers.lock();
            if !numbers.allocated.contains(&nr) {
                return Err(BlockError::NoSuchBlock(nr));
            }
            if numbers.unwritten.contains(&nr) {
                return Ok(Bytes::new());
            }
        }
        // Read-one with fail-over, on the caller's thread: a replica serves
        // the read only after its put lane has finished every job submitted
        // before it, so a quorum ack is immediately readable even from a
        // straggler.  Members are tried shortest backlog first, so a
        // caught-up replica answers without waiting.  Resyncing replicas are
        // skipped entirely — a straggler may not serve reads until it has
        // caught up to the current epoch.
        let mut order: Vec<(u64, usize, u64)> = {
            let submit = self.submit.lock();
            self.shared
                .membership
                .members()
                .into_iter()
                .map(|idx| {
                    let sent = submit.put_jobs_sent[idx];
                    let backlog = sent - self.shared.replicas[idx].puts_done.finished();
                    (backlog, idx, sent)
                })
                .collect()
        };
        order.sort_unstable();
        let mut last = BlockError::Crashed;
        let mut repairable: Vec<usize> = Vec::new();
        for (failed_over, &(_, idx, sent)) in order.iter().enumerate() {
            match self.shared.read_one(idx, nr, sent) {
                Ok(data) => {
                    if failed_over > 0 {
                        self.shared
                            .failover_reads
                            .fetch_add(failed_over as u64, Ordering::Relaxed);
                    }
                    if !repairable.is_empty() {
                        // Read-repair: re-put the fresh block on every replica
                        // whose copy was detectably stale (missing or
                        // corrupted), in the background via its worker.
                        let mut submit = self.submit.lock();
                        for &stale in &repairable {
                            submit.put(
                                stale,
                                Job::Repair {
                                    nr,
                                    data: data.clone(),
                                },
                            );
                        }
                    }
                    return Ok(data);
                }
                Err(e) => {
                    if matches!(e, BlockError::NoSuchBlock(_) | BlockError::Corrupted(_)) {
                        repairable.push(idx);
                    }
                    last = e;
                }
            }
        }
        Err(last)
    }

    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
        self.fan_out_puts(&[(nr, data)], false)
    }

    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        self.fan_out_puts(writes, true)
    }

    fn is_allocated(&self, nr: BlockNr) -> bool {
        self.shared.numbers.lock().allocated.contains(&nr)
    }

    fn allocated_count(&self) -> usize {
        self.shared.numbers.lock().allocated.len()
    }

    fn stats(&self) -> StoreStats {
        match self.shared.membership.members().first() {
            Some(&idx) => self.shared.replicas[idx].store.stats(),
            None => StoreStats::default(),
        }
    }

    fn allocated_blocks(&self) -> Vec<BlockNr> {
        self.shared
            .numbers
            .lock()
            .allocated
            .iter()
            .copied()
            .collect()
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
        // Allocation is the coordinator's own business: nothing is queued
        // for the down replica until the block's first put.
        assert_eq!(replicas.replica_stats().intentions_recorded, 1);
        replicas.write(nr2, Bytes::from_static(b"new")).unwrap();
        assert_eq!(replicas.replica_stats().degraded_writes, 2);
        // The down replica is stale and divergent until resync.
        replicas.quiesce();
        assert_eq!(
            replicas.replica(1).read(nr).unwrap(),
            Bytes::from_static(b"before")
        );
        assert!(!replicas.replica(1).is_allocated(nr2));
        assert!(!replicas.divergent_blocks().is_empty());

        let applied = replicas.resync(1).unwrap();
        assert_eq!(applied, 2, "two writes replayed, no allocation among them");
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
        replicas.write(nr, Bytes::from_static(b"doomed")).unwrap();
        replicas.quiesce();
        replicas.crash(1);
        // The free returns once queued; the set forgets the number at once.
        replicas.free(nr).unwrap();
        assert!(!replicas.is_allocated(nr));
        replicas.quiesce();
        assert!(!replicas.replica(0).is_allocated(nr));
        assert!(replicas.replica(1).is_allocated(nr));
        assert_eq!(replicas.resync(1).unwrap(), 1, "the free was an intention");
        assert!(!replicas.replica(1).is_allocated(nr));
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn allocate_collision_rolls_back_all_mirrors() {
        // A collision needs two allocators; a replica set has one.  A block a
        // disk already held before the set was formed is in the seeded
        // number table, so the coordinator never hands it out, and there is
        // nothing to roll back on any replica.
        let stores: Vec<Arc<dyn BlockStore>> =
            (0..3).map(|_| Arc::new(MemStore::new()) as _).collect();
        stores[2].allocate_at(0).unwrap();
        stores[2].write(0, Bytes::from_static(b"theirs")).unwrap();
        let replicas = ReplicatedBlockStore::new(stores);
        assert!(replicas.is_allocated(0));
        let nr = replicas.allocate().unwrap();
        assert_ne!(nr, 0);
        assert_eq!(
            BlockStore::allocate_at(&*replicas, 0),
            Err(BlockError::AlreadyAllocated(0))
        );
        replicas.write(nr, Bytes::from_static(b"mine")).unwrap();
        replicas.quiesce();
        for idx in 0..3 {
            assert_eq!(
                replicas.replica(idx).read(nr).unwrap(),
                Bytes::from_static(b"mine")
            );
        }
        assert!(!replicas.replica(0).is_allocated(0));
        assert!(!replicas.replica(1).is_allocated(0));
        assert_eq!(
            replicas.replica(2).read(0).unwrap(),
            Bytes::from_static(b"theirs")
        );
    }

    #[test]
    fn allocation_fails_over_past_a_crashed_leader_disk() {
        let (disks, replicas) = faulty_set(2);
        // Replica 0's disk dies below the replica layer.  Allocation asks no
        // disk, so it cannot be bricked by a dead one; the first put detects
        // the corpse and the healthy replica carries on.
        disks[0].crash();
        let nr = replicas
            .allocate()
            .expect("allocation is the coordinator's");
        replicas.write(nr, Bytes::from_static(b"alive")).unwrap();
        assert!(replicas.is_down(0), "the dead disk was auto-detected");
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
        // An allocation queues nothing for a down replica, and freeing a
        // number before its first put is local: nothing is ever queued that
        // would need retracting.
        let nr = replicas.allocate().unwrap();
        BlockStore::allocate_at(&*replicas, nr + 1).unwrap();
        assert!(replicas.intention_epochs(1).is_empty());
        replicas.free(nr).unwrap();
        replicas.free(nr + 1).unwrap();
        assert!(replicas.intention_epochs(1).is_empty());
        assert_eq!(replicas.replica_stats().intentions_recorded, 0);
        assert_eq!(replicas.resync(1).unwrap(), 0);
        for idx in 0..3 {
            assert_eq!(replicas.replica(idx).allocated_count(), 0);
        }
        assert_eq!(replicas.allocated_count(), 0);
    }

    #[test]
    fn allocate_at_with_no_live_taker_is_an_error_and_queues_nothing() {
        let replicas = set(2);
        // The whole membership is Out: no member could ever take the block.
        replicas.crash(0);
        replicas.crash(1);
        assert_eq!(
            BlockStore::allocate_at(&*replicas, 7),
            Err(BlockError::Crashed),
            "an allocation no member can take must not be acknowledged"
        );
        assert_eq!(replicas.allocate(), Err(BlockError::Crashed));
        assert!(!replicas.is_allocated(7));
        assert_eq!(replicas.resync(0).unwrap(), 0);
        assert_eq!(replicas.resync(1).unwrap(), 0);
        assert!(!replicas.replica(0).is_allocated(7));
        assert!(!replicas.replica(1).is_allocated(7));
        // Back in service, the number is free to take.
        BlockStore::allocate_at(&*replicas, 7).unwrap();
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
        replicas.write(nr, Bytes::from_static(b"held")).unwrap();
        replicas.crash(0);
        replicas.crash(1);
        assert_eq!(replicas.read(nr), Err(BlockError::Crashed));
        assert_eq!(
            replicas.write(nr, Bytes::from_static(b"nope")),
            Err(BlockError::Crashed)
        );
        assert_eq!(replicas.allocate(), Err(BlockError::Crashed));
        assert_eq!(replicas.free(nr), Err(BlockError::Crashed));
        assert!(replicas.is_allocated(nr), "a refused free keeps the number");
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
    fn a_read_waits_only_for_the_puts_submitted_before_it() {
        // Replica 0, the one an idle set reads first, is the straggler.
        let slow = Duration::from_millis(120);
        let stores: Vec<Arc<dyn BlockStore>> = vec![
            Arc::new(DelayStore::new(MemStore::new(), slow)),
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        ];
        let replicas = ReplicatedBlockStore::new(stores);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"old")).unwrap();
        replicas.quiesce();
        let reads_before: Vec<u64> = (0..3).map(|i| replicas.replica(i).stats().reads).collect();
        let start = Instant::now();
        replicas.write(nr, Bytes::from_static(b"new")).unwrap();
        // Acked by replicas 1 and 2 while replica 0 is still applying: the
        // read skips the straggler's backlog instead of queueing behind it.
        assert_eq!(replicas.read(nr).unwrap(), Bytes::from_static(b"new"));
        let elapsed = start.elapsed();
        assert!(
            elapsed < slow / 2,
            "write + read took {elapsed:?}, waiting on the {slow:?} straggler"
        );
        let served: Vec<u64> = (0..3)
            .map(|i| replicas.replica(i).stats().reads - reads_before[i])
            .collect();
        assert_eq!(served, vec![0, 1, 0], "the first caught-up replica serves");
        assert_eq!(replicas.replica_stats().failover_reads, 0);
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn a_read_from_a_lagging_member_waits_for_its_backlog() {
        let lagging = Arc::new(HeldDisk::default());
        let replicas = ReplicatedBlockStore::new(vec![
            Arc::clone(&lagging) as Arc<dyn BlockStore>,
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        ]);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"old")).unwrap();
        replicas.quiesce();
        lagging.hold_puts();
        replicas.write(nr, Bytes::from_static(b"acked")).unwrap();
        // Only the lagging replica is left, with the acked put held in its
        // lane.
        replicas.crash(1);
        replicas.crash(2);
        assert_eq!(replicas.live_count(), 1);
        std::thread::scope(|scope| {
            let read = scope.spawn(|| replicas.read(nr));
            // The pause only gives a read that does not wait time to show it.
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                !read.is_finished(),
                "the read returned while the put before it was held"
            );
            lagging.release_puts();
            assert_eq!(read.join().unwrap().unwrap(), Bytes::from_static(b"acked"));
        });
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

    // ---- coordinator-owned numbers, write-allocate, the free lane ----------

    #[test]
    fn a_write_allocated_block_reaches_a_replica_that_was_down() {
        let replicas = set(3);
        replicas.crash(2);
        // One number from `allocate`, one write-allocated by the batch itself.
        let nr = replicas.allocate().unwrap();
        let fresh = nr + 10;
        assert!(!replicas.is_allocated(fresh));
        replicas
            .write_batch(&[
                (nr, Bytes::from_static(b"allocated")),
                (fresh, Bytes::from_static(b"write-allocated")),
            ])
            .unwrap();
        assert!(replicas.is_allocated(fresh));
        assert_eq!(
            replicas.read(fresh).unwrap(),
            Bytes::from_static(b"write-allocated")
        );
        replicas.quiesce();
        assert!(!replicas.replica(2).is_allocated(fresh));

        assert_eq!(replicas.resync(2).unwrap(), 2);
        assert_eq!(
            replicas.replica(2).read(fresh).unwrap(),
            Bytes::from_static(b"write-allocated")
        );
        assert_eq!(replicas.divergent_blocks(), Vec::<BlockNr>::new());
    }

    #[test]
    fn unwritten_numbers_are_answered_without_touching_a_disk() {
        let (disks, replicas) = faulty_set(2);
        let nr = replicas.allocate().unwrap();
        // Every disk is dead below the layer, yet the table answers.
        disks[0].crash();
        disks[1].crash();
        assert!(replicas.is_allocated(nr));
        assert_eq!(replicas.read(nr).unwrap(), Bytes::new());
        assert_eq!(replicas.read(nr + 1), Err(BlockError::NoSuchBlock(nr + 1)));
        assert_eq!(
            replicas.write(nr + 1, Bytes::from_static(b"strict")),
            Err(BlockError::NoSuchBlock(nr + 1)),
            "a single write never allocates"
        );
        replicas.free(nr).unwrap();
        assert!(!replicas.is_down(0) && !replicas.is_down(1));
        assert_eq!(replicas.allocated_count(), 0);
    }

    #[test]
    fn a_free_never_overtakes_a_straggling_put_and_holds_its_number_until_applied() {
        let slow = Duration::from_millis(120);
        let stores: Vec<Arc<dyn BlockStore>> = vec![
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
            Arc::new(DelayStore::new(MemStore::new(), slow)),
        ];
        let replicas = ReplicatedBlockStore::new(stores);
        let nr = replicas.allocate().unwrap();
        let start = Instant::now();
        replicas
            .write(nr, Bytes::from_static(b"short-lived"))
            .unwrap();
        // Acked by the fast majority; the straggler is still applying.
        replicas.free(nr).unwrap();
        let queued = start.elapsed();
        assert!(
            queued < slow / 2,
            "write + free took {queued:?}, waiting on the {slow:?} straggler"
        );
        // The number comes back only once every member has applied the free,
        // which on the straggler waits for its put to land first.
        BlockStore::allocate_at(&*replicas, nr).unwrap();
        assert!(start.elapsed() >= slow);
        replicas.quiesce();
        for idx in 0..3 {
            assert!(
                !replicas.replica(idx).is_allocated(nr),
                "replica {idx} kept a block the set freed"
            );
        }
        assert!(replicas.divergent_blocks().is_empty());
    }

    /// A disk whose frees of the held blocks, and whose put batches while
    /// puts are held, each wait until the test releases them (or a generous
    /// timeout passes), noting which held frees have begun and counting the
    /// other frees it applies.
    #[derive(Default)]
    struct HeldDisk {
        inner: MemStore,
        gate: Mutex<Gate>,
        changed: Condvar,
    }

    #[derive(Default)]
    struct Gate {
        held: HashSet<BlockNr>,
        begun: HashSet<BlockNr>,
        others_freed: usize,
        puts_held: bool,
    }

    impl HeldDisk {
        fn hold(&self, nr: BlockNr) {
            self.gate.lock().held.insert(nr);
        }

        fn release(&self, nr: BlockNr) {
            self.gate.lock().held.remove(&nr);
            self.changed.notify_all();
        }

        fn hold_puts(&self) {
            self.gate.lock().puts_held = true;
        }

        fn release_puts(&self) {
            self.gate.lock().puts_held = false;
            self.changed.notify_all();
        }

        /// Waits until `ready` holds of the gate; false after ten seconds.
        fn wait_until(&self, ready: impl Fn(&Gate) -> bool) -> bool {
            self.wait_up_to(Duration::from_secs(10), ready)
        }

        fn wait_up_to(&self, timeout: Duration, ready: impl Fn(&Gate) -> bool) -> bool {
            let deadline = Instant::now() + timeout;
            let mut gate = self.gate.lock();
            while !ready(&gate) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return false;
                }
                self.changed.wait_for(&mut gate, left);
            }
            true
        }
    }

    impl BlockStore for HeldDisk {
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn allocate(&self) -> Result<BlockNr> {
            self.inner.allocate()
        }
        fn allocate_at(&self, nr: BlockNr) -> Result<()> {
            self.inner.allocate_at(nr)
        }
        fn free(&self, nr: BlockNr) -> Result<()> {
            let held = {
                let mut gate = self.gate.lock();
                gate.held.contains(&nr) && gate.begun.insert(nr)
            };
            if held {
                self.changed.notify_all();
                // Outlasts the test's own waits, so a stuck lane fails an
                // assertion before its held free gives up.
                self.wait_up_to(Duration::from_secs(60), |gate| !gate.held.contains(&nr));
                return self.inner.free(nr);
            }
            self.inner.free(nr)?;
            self.gate.lock().others_freed += 1;
            self.changed.notify_all();
            Ok(())
        }
        fn read(&self, nr: BlockNr) -> Result<Bytes> {
            self.inner.read(nr)
        }
        fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
            self.inner.write(nr, data)
        }
        fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
            self.wait_up_to(Duration::from_secs(60), |gate| !gate.puts_held);
            self.inner.write_batch(writes)
        }
        fn is_allocated(&self, nr: BlockNr) -> bool {
            self.inner.is_allocated(nr)
        }
        fn allocated_count(&self) -> usize {
            self.inner.allocated_count()
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
        fn allocated_blocks(&self) -> Vec<BlockNr> {
            self.inner.allocated_blocks()
        }
    }

    #[test]
    fn a_deep_free_lane_gets_a_helper_and_its_fences_wait_for_both() {
        let disk = Arc::new(HeldDisk::default());
        let replicas = ReplicatedBlockStore::new(vec![Arc::clone(&disk) as Arc<dyn BlockStore>]);
        let blocks: Vec<BlockNr> = (0..=HELPER_DEPTH)
            .map(|_| replicas.allocate().unwrap())
            .collect();
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from_static(b"garbage")))
            .collect();
        replicas.write_batch(&writes).unwrap();
        let (first, second) = (blocks[0], blocks[1]);
        disk.hold(first);
        disk.hold(second);
        // The worker blocks on the first held free; the rest queue behind
        // it, the lane is HELPER_DEPTH deep, so the helper joins and blocks
        // on the second.
        replicas.free(first).unwrap();
        assert!(disk.wait_until(|gate| gate.begun.contains(&first)));
        for &nr in &blocks[1..] {
            replicas.free(nr).unwrap();
        }
        assert!(
            disk.wait_until(|gate| gate.begun.contains(&second)),
            "no helper joined a lane {HELPER_DEPTH} frees deep"
        );
        std::thread::scope(|scope| {
            let fence = scope.spawn(|| replicas.quiesce());
            // Released, the worker drains every other free up to the fence...
            disk.release(first);
            assert!(disk.wait_until(|gate| gate.others_freed == HELPER_DEPTH - 1));
            // ...where it must wait for the free the helper still holds.  (The
            // pause only gives a fence that does not wait time to show it.)
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                !fence.is_finished(),
                "the fence returned while a free queued before it was still held"
            );
            disk.release(second);
            fence.join().unwrap();
        });
        assert_eq!(disk.allocated_count(), 0);
        assert_eq!(replicas.allocated_count(), 0);
    }
}
