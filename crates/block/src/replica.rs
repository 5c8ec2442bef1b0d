//! N-way replicated block storage: the stable storage of §4, generalised from a pair.
//!
//! The paper's stable storage duplicates every block on two servers so that "no
//! single failure can destroy information".  [`ReplicatedBlockStore`] keeps that
//! guarantee but generalises the topology from the fixed two-server pair to a
//! replica *set* of N independent disks, which is what each shard of the sharded
//! file service runs on.
//!
//! **One log.**  The coordinator appends every replicated operation — a put
//! batch, a free, or a read-repair aimed at one member — to one in-memory,
//! index-numbered log, under one lock, stamped with the membership epoch it
//! was appended under.  Each member has two positions in the log:
//!
//! * its **put position**: every put before it has been applied there.  It
//!   skips over frees;
//! * its **free position**: every entry before it has been applied there.  It
//!   never passes the put position, so a free never overtakes an earlier put.
//!
//! Two workers per member are the only code that applies entries to its
//! disk: the *put worker* applies the puts in log order, and frees while no
//! put is waiting; the *free worker* applies only frees.  Any free below the
//! put position may go, in any order: frees of distinct numbers commute, and
//! one number is freed twice only with the put of its reissue between.  (One
//! worker is not enough: a large commit frees about as many blocks as it
//! writes, one RPC each, and a single thread per member carrying those and
//! the puts falls behind.)  While a member is In, its put worker applies the
//! next put whatever frees are queued before it, so a backlog of frees never
//! delays a commit.  That is safe because a freed number is reissued only
//! after every In member has applied its free: no later put an In member
//! applies can name it.  A member that is not In applies nothing, and its
//! unapplied suffix *is* its intentions list (§4's "the survivor keeps a list
//! of blocks that have been modified").  While it is Resyncing, it replays in
//! strict log order from the lower of its two positions — a put waits for
//! every free before it — because an Out member's suffix can hold a free
//! followed by the put of the same number reissued to a new owner.  The log
//! is trimmed below the lowest position of any member.
//!
//! On top of the log:
//!
//! * **quorum writes** — a put batch is acknowledged once a **majority** of
//!   the members In at its append has applied it ([`crate::majority`]), so
//!   the slowest replica never gates commit latency.  A straggler that fails
//!   is deposed and keeps the batch in its suffix.  A batch that reached no
//!   disk is voided in place, so resync never replays it;
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
//!   goes first to the In member with the furthest put position (the lowest
//!   index among equals, so an idle set reads replica 0), waits until that
//!   member has applied every put appended before the read, and fails over
//!   serially past crashed, corrupted or missing copies.  When the fail-over
//!   succeeds, every member whose copy was detectably stale (missing or
//!   corrupted) gets the fresh block re-put through the log, if the block is
//!   still allocated.  Resyncing members serve no reads;
//! * **resync on recovery** — a recovering member "compares notes": it moves
//!   Out → Resyncing (still barred from quorums and reads), its workers replay
//!   its suffix, and it is readmitted — bumping the epoch, like any other
//!   membership change — once its position reaches the log end, checked with
//!   the log and membership locks both held, so no append slips between the
//!   last replay and the flip.
//!
//! **The coordinator owns the block numbers.**  A replica set has exactly one
//! coordinator, so it is the allocator for the set: [`BlockStore::allocate`]
//! and [`BlockStore::allocate_at`] are local next-fit decisions over a number
//! table seeded from the replicas at construction, with no round trip.  A
//! number reaches the disks with its first put, because every replica's
//! `write_batch` allocates the entries it does not hold yet (write-allocate:
//! the paper's §4 allocate-and-write, folded into the batch write).  Reads of
//! a number nobody has written yet are answered from the table.
//! [`BlockStore::free`] returns once the free is appended and no In member
//! has more than a fixed number of entries before it left to apply, so a
//! member that falls behind on its frees holds a bounded backlog.
//!
//! The store implements [`BlockStore`], so a whole `FileService` — one shard of
//! the sharded deployment — runs over a replica set by handing
//! `BlockServer::new` an `Arc<ReplicatedBlockStore>`.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::membership::{Epoch, Membership, MembershipView, ReplicaStatus};
use crate::quorum::majority;
use crate::store::{BlockStore, StoreStats};
use crate::{BlockError, BlockNr, Result, MAX_BLOCK_NR};

/// One put batch, shared between the log and its caller.
type Writes = Arc<Vec<(BlockNr, Bytes)>>;

/// How many log entries an In member may have left unapplied before a free
/// it has not reached yet: [`BlockStore::free`] waits while any In member is
/// further behind.  A member that also serves every read falls behind on its
/// frees under a commit stream that retires as much as it writes, and every
/// free it has not applied keeps a block allocated on its disk and the
/// number out of reuse.  This keeps that to about 64 MiB of 4 KiB blocks
/// per member.
const FREE_BACKLOG: u64 = 16384;

/// One replicated operation.
#[derive(Clone)]
enum Op {
    /// Ensure every `(block, data)` pair of a put batch is applied.  A member
    /// that dies mid-batch may hold any prefix of it, so a replay re-puts the
    /// whole batch (puts are idempotent).
    Puts(Writes),
    /// Ensure the block is freed.
    Free(BlockNr),
    /// Re-put a block on member `idx`, whose copy was detectably stale on a
    /// fail-over read.  Applied only if the copy is *still* stale, so a
    /// repair never clobbers a newer write that raced it.
    Repair {
        idx: usize,
        nr: BlockNr,
        data: Bytes,
    },
    /// Nothing to apply: a batch that reached no disk, or one every member
    /// has applied (only its place in the log is left).
    Void,
}

impl Op {
    /// True if the op waits at member `idx`'s put position.
    fn is_put_for(&self, idx: usize) -> bool {
        matches!(self, Op::Puts(_)) || matches!(self, Op::Repair { idx: to, .. } if *to == idx)
    }

    /// The block operations it stands for on an intentions list.
    fn ops(&self) -> u64 {
        match self {
            Op::Puts(writes) => writes.len() as u64,
            Op::Free(_) => 1,
            Op::Repair { .. } | Op::Void => 0,
        }
    }
}

struct Entry {
    /// The epoch the entry was appended under (the configuration a missed
    /// write was acknowledged in — what "epoch-stamped resync" replays).
    epoch: Epoch,
    op: Op,
}

/// A member's place in the log.
#[derive(Default)]
struct Position {
    /// Every put before this index has been applied on the member.
    puts: u64,
    /// Every entry before this index has been applied; never past `puts`.
    frees: u64,
    /// The next free a worker may take: every free before it is applied or
    /// being applied.  Never past `puts`.
    claimed: u64,
    /// The frees being applied now.
    applying: Vec<u64>,
    /// The last put that failed on the member while it was In, with why.
    failed: Option<(u64, BlockError)>,
    /// Block operations replayed since the current resync began.
    replayed: u64,
    /// The error that ended the current resync's replay.
    replay_failed: Option<BlockError>,
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

/// The coordinator's table of the set's block numbers.
#[derive(Debug, Default)]
struct Numbers {
    /// Every number handed out and not freed.
    allocated: BTreeSet<BlockNr>,
    /// The allocated numbers no put has been submitted for: no replica holds
    /// them, so reading one returns empty contents and freeing one is local.
    unwritten: HashSet<BlockNr>,
    /// Freed numbers and the log index of their free.  A number is not
    /// reissued while some In member has yet to apply its free.
    freed_at: HashMap<BlockNr, u64>,
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

    /// True while the free of `nr` is at or past `settled`, the lowest free
    /// position of the In members.
    fn releasing(&self, nr: BlockNr, settled: u64) -> bool {
        self.freed_at.get(&nr).is_some_and(|&at| at >= settled)
    }

    /// Next-fit, like `MemStore`: the first number at or after the cursor
    /// that is neither allocated nor still being released, wrapping once.
    fn next_free(&mut self, settled: u64) -> Result<BlockNr> {
        let start = self.next;
        let mut nr = start;
        while self.allocated.contains(&nr) || self.releasing(nr, settled) {
            nr = if nr == MAX_BLOCK_NR { 0 } else { nr + 1 };
            if nr == start {
                return Err(BlockError::Full);
            }
        }
        self.next = if nr == MAX_BLOCK_NR { 0 } else { nr + 1 };
        Ok(nr)
    }
}

/// The set's log, every member's position in it and the number table, under
/// one lock.  Lock order: the log, then the membership.
struct Log {
    /// The index of `entries[0]`; every member has applied everything before.
    base: u64,
    entries: VecDeque<Entry>,
    positions: Vec<Position>,
    numbers: Numbers,
    /// Set when the store is dropped: each worker exits once it has nothing
    /// left to apply.
    closed: bool,
}

impl Log {
    fn end(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    fn entry(&mut self, at: u64) -> &mut Entry {
        &mut self.entries[(at - self.base) as usize]
    }

    fn append(&mut self, epoch: Epoch, op: Op) -> u64 {
        self.entries.push_back(Entry { epoch, op });
        self.end() - 1
    }

    /// Moves member `idx`'s positions past the entries that need no work
    /// there, and returns them as `(puts, frees)`: the put position skips
    /// frees, voided entries and other members' repairs; the free position
    /// rests on the first free not yet applied, or on the put position.
    fn position(&mut self, idx: usize) -> (u64, u64) {
        let end = self.end();
        let (mut puts, mut claimed) = (self.positions[idx].puts, self.positions[idx].claimed);
        while puts < end && !self.entry(puts).op.is_put_for(idx) {
            puts += 1;
        }
        while claimed < puts && !matches!(self.entry(claimed).op, Op::Free(_)) {
            claimed += 1;
        }
        let pos = &mut self.positions[idx];
        pos.frees = pos.applying.iter().copied().min().unwrap_or(claimed);
        (pos.puts, pos.claimed) = (puts, claimed);
        (puts, pos.frees)
    }

    /// The entry a worker of member `idx` applies next.  Any worker takes
    /// the next free below the put position; the put worker (`puts`) takes
    /// the next put first while the member is In, whatever frees are queued
    /// before it, and while it resyncs only once every free before the put
    /// is applied, so the replay keeps log order.
    fn next(&mut self, idx: usize, status: ReplicaStatus, puts: bool) -> Option<(u64, Op)> {
        let (put_at, free_at) = self.position(idx);
        let end = self.end();
        let pos = &mut self.positions[idx];
        let at = match status {
            ReplicaStatus::Out => return None,
            ReplicaStatus::In if puts && put_at < end => put_at,
            ReplicaStatus::Resyncing if puts && put_at < end && free_at == put_at => put_at,
            _ if pos.claimed < put_at => {
                pos.applying.push(pos.claimed);
                pos.claimed += 1;
                pos.claimed - 1
            }
            _ => return None,
        };
        Some((at, self.entry(at).op.clone()))
    }

    /// Records that member `idx` applied the entry at `at` (or, unless
    /// `ok`, failed to), then trims.
    fn applied(&mut self, idx: usize, at: u64, put: bool, ok: bool) {
        let pos = &mut self.positions[idx];
        if !put {
            pos.applying.retain(|&a| a != at);
            if !ok {
                pos.claimed = pos.claimed.min(at);
            }
        } else if ok {
            pos.puts = at + 1;
            if self.positions.iter().all(|p| p.puts > at) {
                // Applied everywhere: no replay needs the data again.
                self.entry(at).op = Op::Void;
            }
        }
        for idx in 0..self.positions.len() {
            self.position(idx);
        }
        let low = self.positions.iter().map(|p| p.frees).min();
        while self.base < low.unwrap_or(self.base) {
            if let Some(Entry {
                op: Op::Free(nr), ..
            }) = self.entries.pop_front()
            {
                if self.numbers.freed_at.get(&nr) == Some(&self.base) {
                    self.numbers.freed_at.remove(&nr);
                }
            }
            self.base += 1;
        }
    }

    /// The lowest free position of the In members: every free below it has
    /// been applied by every member a reissued number could reach.
    fn settled(&mut self, view: &MembershipView) -> u64 {
        let end = self.end();
        let frees = view.members().into_iter().map(|idx| self.position(idx).1);
        frees.min().unwrap_or(end)
    }

    /// The puts and frees member `idx` has not applied: its intentions list
    /// while it is not In.
    fn suffix(&mut self, idx: usize) -> impl Iterator<Item = &Entry> + '_ {
        let (puts, frees) = self.position(idx);
        self.entries
            .iter()
            .zip(self.base..)
            .skip((frees - self.base) as usize)
            .filter(move |(entry, at)| match &entry.op {
                Op::Puts(_) => *at >= puts,
                op => matches!(op, Op::Free(_)),
            })
            .map(|(entry, _)| entry)
    }
}

struct Replica {
    store: Arc<dyn BlockStore>,
    /// Serialises concurrent [`ReplicatedBlockStore::resync`] calls on this
    /// replica (the satellite "idempotent-and-safe" rule: a second resync
    /// waits, then finds the replica In and returns 0).
    resync_lock: Mutex<()>,
}

/// State shared between the coordinator and the replica workers.
struct Shared {
    membership: Membership,
    replicas: Vec<Replica>,
    log: Mutex<Log>,
    /// One per worker, signalled when there may be work for it: `2 * idx`
    /// for member `idx`'s put worker, `2 * idx + 1` for its free worker.
    wake: Vec<Condvar>,
    /// Signalled when a position moves or a member leaves: what writers,
    /// readers, fences, number waiters and resyncs wait for.
    progressed: Condvar,
    degraded_writes: AtomicU64,
    intentions_recorded: AtomicU64,
    failover_reads: AtomicU64,
    resyncs_applied: AtomicU64,
    auto_downed: AtomicU64,
    quorum_short_acks: AtomicU64,
    read_repairs: AtomicU64,
}

impl Shared {
    /// Takes a replica out of the membership (bumping the epoch) and
    /// propagates the new epoch to every replica store.  Idempotent.  What an
    /// In replica had not applied becomes its intentions list.
    fn depose(&self, log: &mut Log, idx: usize, auto: bool) {
        let mut view = self.membership.lock();
        if view.status(idx) == ReplicaStatus::In {
            let ops: u64 = log.suffix(idx).map(|entry| entry.op.ops()).sum();
            self.intentions_recorded.fetch_add(ops, Ordering::Relaxed);
        }
        if let Some(epoch) = view.depose(idx) {
            if auto {
                self.auto_downed.fetch_add(1, Ordering::Relaxed);
            }
            self.propagate_epoch(epoch);
        }
        self.progressed.notify_all();
    }

    /// Wakes member `idx`'s put worker (`puts`) or its free worker.
    fn wake(&self, idx: usize, puts: bool) {
        self.wake[2 * idx + usize::from(!puts)].notify_one();
    }

    /// Wakes every member's put workers (`puts`) or free workers.
    fn wake_all(&self, puts: bool) {
        (0..self.replicas.len()).for_each(|idx| self.wake(idx, puts));
    }

    /// Tells every replica store the current epoch, so epoch-carrying RPCs
    /// (`amoeba_rpc::block`) let a stale server reject a stale coordinator.
    fn propagate_epoch(&self, epoch: Epoch) {
        for replica in &self.replicas {
            replica.store.set_epoch(epoch);
        }
    }

    /// Applies one entry to replica `idx`'s disk.
    fn apply(&self, idx: usize, op: &Op) -> Result<()> {
        let store = &self.replicas[idx].store;
        match op {
            // One call; `write_batch` allocates every entry the replica does
            // not hold yet, so no per-block `is_allocated` probe (one RPC per
            // block over a remote disk) is needed first.
            Op::Puts(writes) => store.write_batch(writes),
            // A block the disk never held (its put never landed) is already
            // free.
            Op::Free(nr) => match store.free(*nr) {
                Err(BlockError::NoSuchBlock(_)) => Ok(()),
                other => other,
            },
            Op::Repair { nr, data, .. } => {
                if matches!(
                    store.read(*nr),
                    Err(BlockError::NoSuchBlock(_)) | Err(BlockError::Corrupted(_))
                ) && store.write_batch(&[(*nr, data.clone())]).is_ok()
                {
                    self.read_repairs.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            }
            Op::Void => Ok(()),
        }
    }

    /// Reads `nr` from replica `idx` on the caller's thread, once it has
    /// applied every put before log index `mark`.
    fn read_one(&self, idx: usize, nr: BlockNr, mark: u64) -> Result<Bytes> {
        let mut log = self.log.lock();
        while log.position(idx).0 < mark && self.membership.status(idx) == ReplicaStatus::In {
            self.progressed.wait(&mut log);
        }
        drop(log);
        if self.membership.status(idx) != ReplicaStatus::In {
            return Err(BlockError::Crashed);
        }
        match self.replicas[idx].store.read(nr) {
            Err(BlockError::Crashed) => {
                // The disk below crashed without going through crash():
                // depose it so its missed writes are kept for it.
                self.depose(&mut self.log.lock(), idx, true);
                Err(BlockError::Crashed)
            }
            other => other,
        }
    }

    /// Locks the log once none of `nrs` that is not allocated is still being
    /// released.
    fn settled_log(&self, nrs: impl Iterator<Item = BlockNr> + Clone) -> MutexGuard<'_, Log> {
        let mut log = self.log.lock();
        loop {
            let settled = log.settled(&self.membership.lock());
            if !nrs.clone().any(|nr| log.numbers.releasing(nr, settled)) {
                return log;
            }
            self.progressed.wait(&mut log);
        }
    }
}

/// One of replica `idx`'s two workers — its put worker with `puts`, else
/// its free worker: applies the log to its disk, one entry at a time, in the
/// order [`Log::next`] picks.  The put worker being the only code that puts
/// there, one whole batch at a time, is what keeps a commit batch's order
/// (its commit reference last) true per replica even though the coordinator
/// acks at quorum and stops waiting.
fn worker(shared: Arc<Shared>, idx: usize, puts: bool) {
    loop {
        let mut log = shared.log.lock();
        let (status, at, op) = loop {
            let status = shared.membership.status(idx);
            if let Some((at, op)) = log.next(idx, status, puts) {
                break (status, at, op);
            }
            if log.closed {
                return;
            }
            shared.wake[2 * idx + usize::from(!puts)].wait(&mut log);
        };
        drop(log);
        let result = shared.apply(idx, &op);
        let mut log = shared.log.lock();
        let put = op.is_put_for(idx);
        log.applied(idx, at, put, result.is_ok());
        match result {
            Ok(()) if status == ReplicaStatus::Resyncing => {
                log.positions[idx].replayed += op.ops();
            }
            Ok(()) => {}
            Err(e) if status == ReplicaStatus::In => {
                if put {
                    log.positions[idx].failed = Some((at, e));
                }
                shared.depose(&mut log, idx, true);
            }
            Err(e) => {
                // The operator retries resync after fixing the disk.
                log.positions[idx].replay_failed = Some(e);
                shared.membership.lock().abort_resync(idx);
            }
        }
        // A put may uncover frees; a resync's next put may wait for a free.
        let pos = &log.positions[idx];
        let sibling = (put && pos.claimed < pos.puts) || (!put && status != ReplicaStatus::In);
        drop(log);
        if sibling {
            shared.wake(idx, !put);
        }
        shared.progressed.notify_all();
    }
}

/// A set of N replica disks behind one [`BlockStore`] interface, with
/// majority-quorum writes over epoch-managed membership, read-one reads with
/// read-repair, epoch-stamped intention recording and recovery resync.
pub struct ReplicatedBlockStore {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
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
                    resync_lock: Mutex::new(()),
                })
                .collect(),
            log: Mutex::new(Log {
                base: 0,
                entries: VecDeque::new(),
                positions: (0..n).map(|_| Position::default()).collect(),
                numbers,
                closed: false,
            }),
            wake: (0..2 * n).map(|_| Condvar::new()).collect(),
            progressed: Condvar::new(),
            degraded_writes: AtomicU64::new(0),
            intentions_recorded: AtomicU64::new(0),
            failover_reads: AtomicU64::new(0),
            resyncs_applied: AtomicU64::new(0),
            auto_downed: AtomicU64::new(0),
            quorum_short_acks: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
        });
        let workers = (0..2 * n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let (idx, puts) = (i / 2, i % 2 == 0);
                let lane = if puts { "puts" } else { "frees" };
                std::thread::Builder::new()
                    .name(format!("replica-{lane}-{idx}"))
                    .spawn(move || worker(shared, idx, puts))
                    .expect("spawn replica worker")
            })
            .collect();
        Arc::new(ReplicatedBlockStore { shared, workers })
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

    /// Direct access to a replica's disk, for test assertions and fault injection.
    pub fn replica(&self, idx: usize) -> &Arc<dyn BlockStore> {
        &self.shared.replicas[idx].store
    }

    /// The epochs the intentions kept for replica `idx` were acknowledged
    /// under, in replay order — test introspection for the epoch-stamped
    /// resync rule.  An In replica has none.
    pub fn intention_epochs(&self, idx: usize) -> Vec<Epoch> {
        let mut log = self.shared.log.lock();
        if self.shared.membership.status(idx) == ReplicaStatus::In {
            return Vec::new();
        }
        log.suffix(idx).map(|entry| entry.epoch).collect()
    }

    /// Accumulated degraded-mode / fail-over statistics.  (Named distinctly from
    /// [`BlockStore::stats`], which sums the I/O counters of every member's
    /// disk.)
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
    /// towards quorums, and every write it misses is kept on its intentions
    /// list until [`ReplicatedBlockStore::resync`] readmits it.
    pub fn crash(&self, idx: usize) {
        self.shared.depose(&mut self.shared.log.lock(), idx, false);
    }

    /// True if replica `idx` is currently absent (Out or Resyncing).
    pub fn is_down(&self, idx: usize) -> bool {
        self.shared.membership.status(idx) != ReplicaStatus::In
    }

    /// Waits until every In replica has applied every entry appended so far —
    /// including background stragglers of quorum-acknowledged writes and
    /// queued frees.  Test and audit fencing; never needed for correctness of
    /// the write path.
    pub fn quiesce(&self) {
        let shared = &self.shared;
        let mut log = shared.log.lock();
        let mark = log.end();
        while !shared
            .membership
            .members()
            .into_iter()
            .all(|idx| log.position(idx).1 >= mark)
        {
            shared.progressed.wait(&mut log);
        }
    }

    /// Recovers replica `idx`: moves it Out → Resyncing (still barred from
    /// quorums and reads), lets its workers replay its epoch-stamped
    /// intentions in log order, and readmits it under a new epoch once it has
    /// applied the whole log.  Returns the number of operations applied.
    ///
    /// Idempotent and safe against live traffic: calling it on an In replica
    /// returns `Ok(0)`; concurrent calls serialise on a per-replica lock; and
    /// writes racing the replay land in the log (the replica is not In, so
    /// nothing waits for it) and are replayed before the flip — the replica
    /// is only readmitted while the log and membership locks are both held
    /// *and* it has applied every entry.  A depose mid-resync leaves it Out.
    ///
    /// The caller must first restore the underlying disk itself (e.g.
    /// [`crate::FaultyStore::recover`]) if the crash was injected below this
    /// layer; a replay failure leaves the replica Out with the unapplied
    /// intentions kept.
    pub fn resync(&self, idx: usize) -> Result<usize> {
        let shared = &self.shared;
        let _serialise = shared.replicas[idx].resync_lock.lock();
        let mut log = shared.log.lock();
        if !shared.membership.lock().begin_resync(idx) {
            // In, since resync always leaves In or Out.
            return Ok(0);
        }
        log.positions[idx].replayed = 0;
        log.positions[idx].replay_failed = None;
        shared.wake(idx, true);
        shared.wake(idx, false);
        let readmitted = loop {
            let caught_up = log.position(idx).1 == log.end();
            let mut view = shared.membership.lock();
            if view.status(idx) != ReplicaStatus::Resyncing {
                // The replay failed, or the replica was deposed again.
                break None;
            }
            if caught_up {
                break view.complete_resync(idx);
            }
            drop(view);
            shared.progressed.wait(&mut log);
        };
        if let Some(epoch) = readmitted {
            shared.propagate_epoch(epoch);
        }
        let pos = &mut log.positions[idx];
        shared
            .resyncs_applied
            .fetch_add(pos.replayed, Ordering::Relaxed);
        pos.replay_failed
            .take()
            .map_or(Ok(pos.replayed as usize), Err)
    }

    /// The shared write path of [`BlockStore::write`] (`allocate == false`:
    /// every entry must already be allocated) and [`BlockStore::write_batch`]
    /// (`allocate == true`: an entry naming a free number allocates it).
    /// Appends the put batch to the log, then waits until a strict majority
    /// of the members In at the append has applied it.
    ///
    /// Stragglers keep applying in the background in log order, and a
    /// straggler that fails is deposed by its worker with the batch kept.
    /// The threshold is re-evaluated on every change, so a member that dies
    /// mid-write shrinks the denominator (with an epoch bump) instead of
    /// wedging the ack.
    ///
    /// Nothing is kept unless some part of the batch may exist on some disk —
    /// a batch that exists nowhere must never be replayed by resync, and the
    /// numbers it write-allocated go back to the table.  A batch rejected by
    /// a live disk fails the call even if others applied it (the rejection is
    /// evidence of a real fault, and the promise that an error means "not
    /// every live replica holds this" is worth keeping), with the rejecting
    /// replica deposed and converged forward via resync.
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
        let shared = &self.shared;
        let nrs = writes.iter().map(|(nr, _)| *nr);
        let mut log = if allocate {
            // A number whose free is still in flight is not ours to reuse yet.
            shared.settled_log(nrs.clone())
        } else {
            shared.log.lock()
        };
        let view = shared.membership.lock();
        let members = view.members();
        if members.is_empty() {
            // The whole set is absent: refuse with nothing kept.
            return Err(BlockError::Crashed);
        }
        let numbers = &mut log.numbers;
        if let Some(nr) = nrs
            .clone()
            .find(|nr| !numbers.allocated.contains(nr) && (!allocate || *nr > MAX_BLOCK_NR))
        {
            return Err(BlockError::NoSuchBlock(nr));
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
        let absent = view.len() - members.len();
        shared
            .intentions_recorded
            .fetch_add((absent * writes.len()) as u64, Ordering::Relaxed);
        let at = log.append(view.epoch(), Op::Puts(Arc::new(writes.to_vec())));
        drop(view);
        drop(log);
        shared.wake_all(true);
        let mut log = shared.log.lock();

        // The quorum denominator starts as the members the batch was appended
        // for and shrinks as members prove gone (died, deposed by a
        // concurrent operation, rejected).  A worker records its failure
        // before deposing its replica, under the log lock, so a rejection
        // that must fail the call is always seen with the shrunken
        // denominator.
        let (died, error) = loop {
            let view = shared.membership.lock();
            let (mut wrote, mut gone, mut pending, mut died) = (0, 0, 0, false);
            let mut error = None;
            for &idx in &members {
                let pos = &log.positions[idx];
                match &pos.failed {
                    _ if pos.puts > at => wrote += 1,
                    Some((failed_at, e)) if *failed_at == at => {
                        gone += 1;
                        if *e == BlockError::Crashed {
                            died = true;
                        } else {
                            error.get_or_insert_with(|| e.clone());
                        }
                    }
                    _ if view.status(idx) != ReplicaStatus::In => gone += 1,
                    _ => pending += 1,
                }
            }
            drop(view);
            if error.is_none() && wrote >= majority(members.len() - gone) {
                if pending > 0 {
                    shared.quorum_short_acks.fetch_add(1, Ordering::Relaxed);
                }
                if absent > 0 || gone > 0 {
                    shared.degraded_writes.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(());
            }
            if pending == 0 {
                break (died, error);
            }
            shared.progressed.wait(&mut log);
        };
        // Every member settled and no quorum ack was granted along the way.
        if !died && log.positions.iter().all(|pos| pos.puts <= at) {
            // No replica holds any of the batch (absent replicas never
            // attempted it, rejecting disks applied nothing): void it, so a
            // batch that exists nowhere can never resurface at resync, and
            // hand its numbers back.
            log.entry(at).op = Op::Void;
            let numbers = &mut log.numbers;
            for nr in fresh {
                numbers.allocated.remove(&nr);
            }
            for nr in first_puts {
                if numbers.allocated.contains(&nr) {
                    numbers.unwritten.insert(nr);
                }
            }
        }
        // Otherwise some replica holds the batch — or a mid-crash prefix of
        // it — and that cannot be un-happened.  The only way back to
        // agreement is forward: every replica that failed is deposed with the
        // batch kept, so resync converges the set instead of leaving silent
        // divergence behind.
        Err(error.unwrap_or(BlockError::Crashed))
    }

    /// Read-repair: re-puts `data` through the log on every replica whose
    /// copy of `nr` was detectably stale (missing or corrupted).  Only while
    /// `nr` is still written and allocated, checked under the log lock: a
    /// block freed since the read began must not be resurrected, and the log
    /// orders the repair before any later free.
    fn repair(&self, nr: BlockNr, data: &Bytes, stale: &[usize]) {
        let mut log = self.shared.log.lock();
        if !log.numbers.allocated.contains(&nr) || log.numbers.unwritten.contains(&nr) {
            return;
        }
        let epoch = self.shared.membership.epoch();
        for &idx in stale {
            let data = data.clone();
            log.append(epoch, Op::Repair { idx, nr, data });
            self.shared.wake(idx, true);
        }
    }

    /// Compares all replicas block by block and returns the numbers where any
    /// two replicas disagree on allocation or contents.  Empty means the set
    /// is in agreement (the §4 invariant the divergence tests assert after
    /// crash/partition + resync).  Quiesces first, so background stragglers
    /// of quorum-acknowledged writes and queued frees are not reported as
    /// divergence.
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
        // Close the log, then wait for the workers to drain and exit.
        self.shared.log.lock().closed = true;
        self.shared.wake_all(true);
        self.shared.wake_all(false);
        for handle in self.workers.drain(..) {
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
        let mut log = self.shared.log.lock();
        let view = self.shared.membership.lock();
        if view.in_count() == 0 {
            return Err(BlockError::Crashed);
        }
        let settled = log.settled(&view);
        drop(view);
        let numbers = &mut log.numbers;
        let nr = numbers.next_free(settled)?;
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
        let mut log = self.shared.settled_log(std::iter::once(nr));
        if !log.numbers.allocated.insert(nr) {
            return Err(BlockError::AlreadyAllocated(nr));
        }
        log.numbers.unwritten.insert(nr);
        Ok(())
    }

    fn free(&self, nr: BlockNr) -> Result<()> {
        let mut log = self.shared.log.lock();
        let view = self.shared.membership.lock();
        let numbers = &mut log.numbers;
        if !numbers.allocated.contains(&nr) {
            return Err(BlockError::NoSuchBlock(nr));
        }
        if numbers.unwritten.remove(&nr) {
            // No replica ever heard of it.
            numbers.allocated.remove(&nr);
            return Ok(());
        }
        let members = view.in_count();
        if members == 0 {
            return Err(BlockError::Crashed);
        }
        numbers.allocated.remove(&nr);
        let at = log.append(view.epoch(), Op::Free(nr));
        log.numbers.freed_at.insert(nr, at);
        self.shared
            .intentions_recorded
            .fetch_add((view.len() - members) as u64, Ordering::Relaxed);
        drop(view);
        // Bound the backlog of the In members only: one that is Out or
        // Resyncing keeps its whole suffix, and never delays a commit.
        let backlogged = |log: &mut Log| {
            let members = self.shared.membership.members();
            members
                .into_iter()
                .any(|idx| log.position(idx).1 + FREE_BACKLOG < at)
        };
        if !backlogged(&mut log) {
            drop(log);
            self.shared.wake_all(false);
            return Ok(());
        }
        self.shared.wake_all(false);
        while backlogged(&mut log) {
            self.shared.progressed.wait(&mut log);
        }
        Ok(())
    }

    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        // Read-one with fail-over, on the caller's thread: a replica serves
        // the read only after it has applied every put appended before it,
        // so a quorum ack is immediately readable even from a straggler.
        // Members are tried furthest put position first, so a caught-up
        // replica answers without waiting.  Resyncing replicas are skipped
        // entirely — a straggler may not serve reads until it has caught up
        // to the current epoch.
        let (mark, mut order) = {
            let mut log = self.shared.log.lock();
            if !log.numbers.allocated.contains(&nr) {
                return Err(BlockError::NoSuchBlock(nr));
            }
            if log.numbers.unwritten.contains(&nr) {
                return Ok(Bytes::new());
            }
            let order: Vec<(u64, usize)> = self
                .shared
                .membership
                .members()
                .into_iter()
                .map(|idx| (log.position(idx).0, idx))
                .collect();
            (log.end(), order)
        };
        order.sort_unstable_by_key(|&(puts, idx)| (std::cmp::Reverse(puts), idx));
        let mut last = BlockError::Crashed;
        let mut repairable: Vec<usize> = Vec::new();
        for (failed_over, &(_, idx)) in order.iter().enumerate() {
            match self.shared.read_one(idx, nr, mark) {
                Ok(data) => {
                    if failed_over > 0 {
                        self.shared
                            .failover_reads
                            .fetch_add(failed_over as u64, Ordering::Relaxed);
                    }
                    if !repairable.is_empty() {
                        self.repair(nr, &data, &repairable);
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
        self.shared.log.lock().numbers.allocated.contains(&nr)
    }

    fn allocated_count(&self) -> usize {
        self.shared.log.lock().numbers.allocated.len()
    }

    /// The field-wise sum over every member's disk, whatever its status: the
    /// sum only grows, so [`StoreStats::since`] holds across a depose.
    fn stats(&self) -> StoreStats {
        let disks = self.shared.replicas.iter().map(|r| r.store.stats());
        disks.fold(StoreStats::default(), |sum, disk| StoreStats {
            allocations: sum.allocations + disk.allocations,
            frees: sum.frees + disk.frees,
            reads: sum.reads + disk.reads,
            writes: sum.writes + disk.writes,
            write_calls: sum.write_calls + disk.write_calls,
            bytes_written: sum.bytes_written + disk.bytes_written,
            bytes_read: sum.bytes_read + disk.bytes_read,
        })
    }

    fn allocated_blocks(&self) -> Vec<BlockNr> {
        let log = self.shared.log.lock();
        log.numbers.allocated.iter().copied().collect()
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
    fn set_stats_sum_every_disk_and_never_shrink_across_a_depose() {
        let replicas = set(2);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"x")).unwrap();
        for _ in 0..5 {
            replicas.read(nr).unwrap();
        }
        replicas.quiesce();
        let before = replicas.stats();
        // Member 0 served every read; deposing it must not make the
        // set's counters go backwards.
        replicas.crash(0);
        assert_eq!(replicas.stats().since(&before), StoreStats::default());
        // Both disks' copies of the write count.
        assert_eq!((before.writes, before.reads), (2, 5), "{before:?}");
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
        // The write acks on a majority: let the straggler apply it too, so
        // the only intentions are the writes made while replica 1 is down.
        replicas.quiesce();

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

    /// A disk whose frees of the held blocks, whose put batches while puts
    /// are held and whose read replies while reads are held each wait until
    /// the test releases them (or a generous timeout passes), noting which
    /// held frees have begun and how many reads are parked.
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
        puts_held: bool,
        reads_held: bool,
        reads_parked: usize,
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

        fn hold_reads(&self) {
            self.gate.lock().reads_held = true;
        }

        fn release_reads(&self) {
            self.gate.lock().reads_held = false;
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
                // Outlasts the test's own waits, so a stuck worker fails an
                // assertion before its held free gives up.
                self.wait_up_to(Duration::from_secs(60), |gate| !gate.held.contains(&nr));
            }
            self.inner.free(nr)
        }
        fn read(&self, nr: BlockNr) -> Result<Bytes> {
            // The reply, not the disk access, is what parks.
            let read = self.inner.read(nr);
            let parked = {
                let mut gate = self.gate.lock();
                gate.reads_parked += usize::from(gate.reads_held);
                gate.reads_held
            };
            if parked {
                self.changed.notify_all();
                self.wait_up_to(Duration::from_secs(60), |gate| !gate.reads_held);
            }
            read
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

    /// A set whose member 0 is a [`HeldDisk`] and whose other two are
    /// in-memory disks, so the other two ack every write on their own.
    fn held_set() -> (Arc<HeldDisk>, Arc<ReplicatedBlockStore>) {
        let held = Arc::new(HeldDisk::default());
        let replicas = ReplicatedBlockStore::new(vec![
            Arc::clone(&held) as Arc<dyn BlockStore>,
            Arc::new(MemStore::new()),
            Arc::new(MemStore::new()),
        ]);
        (held, replicas)
    }

    #[test]
    fn a_held_free_delays_no_later_put_and_a_fence_waits_for_it() {
        let (held, replicas) = held_set();
        let doomed = replicas.allocate().unwrap();
        let kept = replicas.allocate().unwrap();
        replicas
            .write_batch(&[
                (doomed, Bytes::from_static(b"garbage")),
                (kept, Bytes::from_static(b"old")),
            ])
            .unwrap();
        replicas.quiesce();
        held.hold(doomed);
        replicas.free(doomed).unwrap();
        assert!(held.wait_until(|gate| gate.begun.contains(&doomed)));
        // Member 0's worker is stuck in the free; the write after it is
        // acknowledged by the other two and readable at once.
        replicas.write(kept, Bytes::from_static(b"new")).unwrap();
        assert_eq!(replicas.read(kept).unwrap(), Bytes::from_static(b"new"));
        std::thread::scope(|scope| {
            let fence = scope.spawn(|| replicas.quiesce());
            // The pause only gives a fence that does not wait time to show it.
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                !fence.is_finished(),
                "the fence returned while a free before it was still held"
            );
            held.release(doomed);
            fence.join().unwrap();
        });
        assert!(!held.is_allocated(doomed));
        assert_eq!(held.read(kept).unwrap(), Bytes::from_static(b"new"));
        assert!(replicas.divergent_blocks().is_empty());
    }

    /// A held set with `n` written blocks, applied everywhere.
    fn held_set_with_blocks(n: usize) -> (Arc<HeldDisk>, Arc<ReplicatedBlockStore>, Vec<BlockNr>) {
        let (held, replicas) = held_set();
        let blocks: Vec<BlockNr> = (0..n).map(|_| replicas.allocate().unwrap()).collect();
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from_static(b"retired")))
            .collect();
        replicas.write_batch(&writes).unwrap();
        replicas.quiesce();
        (held, replicas, blocks)
    }

    #[test]
    fn a_free_past_the_backlog_bound_waits_for_an_in_member_to_catch_up() {
        let bound = FREE_BACKLOG as usize;
        let (held, replicas, blocks) = held_set_with_blocks(bound + 2);
        held.hold(blocks[0]);
        replicas.free(blocks[0]).unwrap();
        assert!(held.wait_until(|gate| gate.begun.contains(&blocks[0])));
        // Member 0's free position rests on the held free, so the next
        // `bound` frees are within the bound and return at once.
        for &nr in &blocks[1..=bound] {
            replicas.free(nr).unwrap();
        }
        std::thread::scope(|scope| {
            let past = scope.spawn(|| replicas.free(blocks[bound + 1]));
            // The pause only gives a free that does not wait time to show it.
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                !past.is_finished(),
                "a free returned with an In member {} entries behind it",
                bound + 1
            );
            held.release(blocks[0]);
            past.join().unwrap().unwrap();
        });
        assert!(!replicas.is_down(0));
        assert_eq!(replicas.allocated_count(), 0);
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn a_deposed_member_never_holds_back_a_free() {
        let bound = FREE_BACKLOG as usize;
        let (held, replicas, blocks) = held_set_with_blocks(bound + 2);
        held.hold(blocks[0]);
        replicas.free(blocks[0]).unwrap();
        assert!(held.wait_until(|gate| gate.begun.contains(&blocks[0])));
        replicas.crash(0);
        // Off the caller's thread, so a free that waits on the deposed
        // member fails the test instead of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        let frees = Arc::clone(&replicas);
        let rest = blocks[1..].to_vec();
        let freeing = std::thread::spawn(move || {
            for nr in rest {
                frees.free(nr).unwrap();
            }
            done.send(()).unwrap();
        });
        let returned = finished.recv_timeout(Duration::from_secs(10)).is_ok();
        held.release(blocks[0]);
        assert!(returned, "a free waited on a member that is Out");
        freeing.join().unwrap();
        replicas.resync(0).unwrap();
        assert_eq!(replicas.allocated_count(), 0);
        assert!(replicas.divergent_blocks().is_empty());
    }

    #[test]
    fn a_read_repair_never_resurrects_a_block_freed_during_the_read() {
        let corrupted = Arc::new(FaultyStore::new(MemStore::new()));
        let parking = Arc::new(HeldDisk::default());
        let replicas = ReplicatedBlockStore::new(vec![
            Arc::clone(&corrupted) as Arc<dyn BlockStore>,
            Arc::clone(&parking) as Arc<dyn BlockStore>,
            Arc::new(MemStore::new()),
        ]);
        let nr = replicas.allocate().unwrap();
        replicas.write(nr, Bytes::from_static(b"doomed")).unwrap();
        replicas.quiesce();
        corrupted.corrupt(nr);
        parking.hold_reads();
        std::thread::scope(|scope| {
            // Member 0's copy is corrupted, so the read fails over to member
            // 1 and parks there.
            let read = scope.spawn(|| replicas.read(nr));
            assert!(parking.wait_until(|gate| gate.reads_parked == 1));
            replicas.free(nr).unwrap();
            replicas.quiesce();
            assert!(!corrupted.is_allocated(nr));
            parking.release_reads();
            assert_eq!(read.join().unwrap().unwrap(), Bytes::from_static(b"doomed"));
        });
        replicas.quiesce();
        assert!(
            !replicas.replica(0).is_allocated(nr),
            "read-repair resurrected a freed block"
        );
        assert_eq!(replicas.divergent_blocks(), Vec::<BlockNr>::new());
        assert_eq!(replicas.replica_stats().read_repairs, 0);
    }

    #[test]
    fn a_resync_replays_a_free_before_the_put_of_its_reissued_number() {
        let replicas = set(3);
        replicas.crash(2);
        let nr = replicas.allocate().unwrap();
        replicas
            .write(nr, Bytes::from_static(b"old owner"))
            .unwrap();
        replicas.free(nr).unwrap();
        // Members 0 and 1 have applied the free, so the number may be
        // reissued while member 2 still has the free ahead of it.
        replicas
            .write_batch(&[(nr, Bytes::from_static(b"new owner"))])
            .unwrap();
        assert_eq!(replicas.intention_epochs(2).len(), 3);
        assert_eq!(replicas.resync(2).unwrap(), 3);
        assert_eq!(
            replicas.replica(2).read(nr).unwrap(),
            Bytes::from_static(b"new owner")
        );
        assert_eq!(replicas.divergent_blocks(), Vec::<BlockNr>::new());
    }

    impl ReplicatedBlockStore {
        fn log_len(&self) -> usize {
            self.shared.log.lock().entries.len()
        }
    }

    #[test]
    fn the_log_is_trimmed_while_every_member_is_in() {
        let replicas = set(3);
        for i in 0..10_000u32 {
            let nr = replicas.allocate().unwrap();
            replicas
                .write(nr, Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
            replicas.free(nr).unwrap();
        }
        replicas.quiesce();
        assert_eq!(replicas.log_len(), 0);
        assert_eq!(replicas.allocated_count(), 0);
    }

    // ---- seeded sweep against a model of acknowledged values ---------------

    /// xorshift64: a small deterministic generator for the sweep.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Names the member count and seed of a failing sweep run while its
    /// panic unwinds.
    struct Seed(usize, u64);

    impl Drop for Seed {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "replica sweep of {} members failed at seed {}",
                    self.0, self.1
                );
            }
        }
    }

    #[test]
    fn a_seeded_sweep_reads_every_acked_value_and_converges() {
        for members in [2, 3] {
            for seed in 1..=32 {
                let _seed = Seed(members, seed);
                sweep(members, seed, 200);
            }
        }
    }

    /// Random writes, batches, allocations, frees, crashes, partitions,
    /// heals and resyncs over `n` faulty disks, checked against the last
    /// acknowledged value of every allocated number (empty while unwritten).
    /// At least one member stays In on a healthy disk, so every call must
    /// succeed.
    fn sweep(n: usize, seed: u64, steps: usize) {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let (disks, replicas) = faulty_set(n);
        let mut acked: std::collections::BTreeMap<BlockNr, Bytes> = Default::default();
        let mut freed: Vec<BlockNr> = Vec::new();
        let healthy = |i: usize| !replicas.is_down(i) && !disks[i].is_partitioned();
        for step in 0..steps {
            let held: Vec<BlockNr> = acked.keys().copied().collect();
            let victim = rng.below(n);
            match rng.below(10) {
                0 => {
                    acked.insert(replicas.allocate().unwrap(), Bytes::new());
                }
                1 | 2 => {
                    // Held numbers, freed numbers reissued, and fresh ones.
                    let batch: Vec<(BlockNr, Bytes)> = (0..=rng.below(3))
                        .map(|k| {
                            let nr = match rng.below(3) {
                                0 if !freed.is_empty() => freed[rng.below(freed.len())],
                                1 if !held.is_empty() => held[rng.below(held.len())],
                                _ => rng.below(64) as BlockNr,
                            };
                            (nr, Bytes::from(format!("{seed}/{step}/{k}")))
                        })
                        .collect();
                    replicas.write_batch(&batch).unwrap();
                    for (nr, data) in batch {
                        freed.retain(|&f| f != nr);
                        acked.insert(nr, data);
                    }
                }
                3 if !held.is_empty() => {
                    let nr = held[rng.below(held.len())];
                    let data = Bytes::from(format!("{seed}/{step}"));
                    replicas.write(nr, data.clone()).unwrap();
                    acked.insert(nr, data);
                }
                4 if !held.is_empty() => {
                    let nr = held[rng.below(held.len())];
                    replicas.free(nr).unwrap();
                    acked.remove(&nr);
                    freed.push(nr);
                }
                5 if (0..n).filter(|&i| healthy(i)).count() >= 2 => replicas.crash(victim),
                6 if (0..n).filter(|&i| healthy(i)).count() >= 2 => disks[victim].partition(),
                7 => disks[victim].heal(),
                8 if !disks[victim].is_partitioned() => {
                    replicas.resync(victim).unwrap();
                }
                _ => {
                    for (nr, data) in &acked {
                        assert_eq!(&replicas.read(*nr).unwrap(), data, "block {nr}");
                    }
                }
            }
        }
        for disk in &disks {
            disk.heal();
        }
        // A worker still failing on a partition it met before the heal
        // deposes its member before the fence returns.
        replicas.quiesce();
        for idx in 0..n {
            replicas.resync(idx).unwrap();
        }
        // Write what is unwritten, so every member should hold the table.
        for (nr, data) in acked.iter_mut().filter(|(_, data)| data.is_empty()) {
            *data = Bytes::from_static(b"last");
            replicas.write(*nr, data.clone()).unwrap();
        }
        for (nr, data) in &acked {
            assert_eq!(&replicas.read(*nr).unwrap(), data, "block {nr}");
        }
        assert_eq!(replicas.divergent_blocks(), Vec::<BlockNr>::new());
        let table = replicas.allocated_blocks();
        assert_eq!(table, acked.keys().copied().collect::<Vec<_>>());
        for idx in 0..n {
            let mut blocks = replicas.replica(idx).allocated_blocks();
            blocks.sort_unstable();
            assert_eq!(blocks, table, "member {idx} holds what the table holds");
        }
    }
}
