//! The block *server*: protection, accounts, per-block locks and recovery (§4).
//!
//! A [`BlockServer`] wraps a raw [`BlockStore`] and adds everything the paper requires
//! of the block service beyond raw I/O:
//!
//! * **Protection** — every block is owned by an *account*; clients present an account
//!   capability with every request, and "a block allocated by user A cannot be
//!   accessed by user B without A's permission".
//! * **A simple locking facility** — the file service's commit critical section is
//!   "lock and read a block, examine and modify it, then write and unlock the block".
//!   [`BlockServer::update_block`] packages exactly that sequence.
//!   [`BlockServer::with_lock`] is the lock alone, for a client that keeps the
//!   block's contents itself: the file service runs version commit's
//!   test-and-set (§5.2) under it on its cached copy of the page.
//! * **Recovery** — given an account, [`BlockServer::recover`] returns the list of
//!   blocks owned by that account so a file server can rebuild its file system from
//!   the redundancy information it keeps inside its pages.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use amoeba_capability::{CapError, Capability, Minter, Port, Rights};

use crate::store::{BlockStore, StoreStats};
use crate::{BlockError, BlockNr, Result};

/// Identifies an account at a block server.
pub type AccountId = u64;

#[derive(Debug, Default)]
struct Accounts {
    /// Blocks owned by each account.
    owned: HashMap<AccountId, HashSet<BlockNr>>,
    /// Owner of each block.
    owner: HashMap<BlockNr, AccountId>,
}

#[derive(Debug, Default)]
struct Locks {
    held: HashSet<BlockNr>,
}

/// A block server: a [`BlockStore`] plus accounts, capabilities and locks.
pub struct BlockServer {
    store: Arc<dyn BlockStore>,
    minter: Mutex<Minter>,
    accounts: Mutex<Accounts>,
    locks: Mutex<Locks>,
    lock_released: Condvar,
    next_account: AtomicU64,
    /// The newest replica-membership epoch any request has carried (see
    /// `crate::membership`); 0 until the first epoch-stamped request arrives.
    epoch: AtomicU64,
}

impl std::fmt::Debug for BlockServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockServer")
            .field("accounts", &self.accounts.lock().owned.len())
            .field("blocks", &self.store.allocated_count())
            .finish()
    }
}

fn cap_err(e: CapError) -> BlockError {
    match e {
        CapError::InsufficientRights
        | CapError::BadCheckField
        | CapError::NoSuchObject
        | CapError::WrongPort => BlockError::PermissionDenied,
    }
}

impl BlockServer {
    /// Creates a block server over the given store, listening on a fresh random port.
    pub fn new(store: Arc<dyn BlockStore>) -> Self {
        Self::with_port(store, Port::random())
    }

    /// Creates a block server with an explicit service port (useful for tests).
    pub fn with_port(store: Arc<dyn BlockStore>, port: Port) -> Self {
        BlockServer {
            store,
            minter: Mutex::new(Minter::new(port)),
            accounts: Mutex::new(Accounts::default()),
            locks: Mutex::new(Locks::default()),
            lock_released: Condvar::new(),
            next_account: AtomicU64::new(1),
            epoch: AtomicU64::new(0),
        }
    }

    /// The newest membership epoch this server has seen (0 before any
    /// epoch-stamped request).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Admits a request stamped with membership epoch `sent`: adopts it when it
    /// is the newest seen so far, rejects it with a retriable
    /// [`BlockError::EpochMismatch`] when this server has already served a
    /// newer configuration — a coordinator holding a stale view of the replica
    /// set must refresh before its writes are honoured.  `sent == 0` means
    /// unstamped (a single-replica or legacy client) and is always admitted.
    fn admit_epoch(&self, sent: u64) -> Result<()> {
        if sent == 0 {
            return Ok(());
        }
        let seen = self.epoch.fetch_max(sent, Ordering::SeqCst);
        if sent < seen {
            return Err(BlockError::EpochMismatch {
                sent,
                current: seen,
            });
        }
        Ok(())
    }

    /// The maximum block payload size of the underlying store.
    pub fn block_size(&self) -> usize {
        self.store.block_size()
    }

    /// Accumulated I/O statistics of the underlying store.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Direct access to the underlying store (used by experiments to count physical
    /// I/O; not part of the client-facing API).
    pub fn store(&self) -> &Arc<dyn BlockStore> {
        &self.store
    }

    /// Creates a new account and returns its owner capability.
    pub fn create_account(&self) -> Capability {
        let id = self.next_account.fetch_add(1, Ordering::Relaxed);
        self.accounts.lock().owned.insert(id, HashSet::new());
        self.minter.lock().mint(id, Rights::ALL)
    }

    fn check(&self, cap: &Capability, required: Rights) -> Result<AccountId> {
        self.minter.lock().verify(cap, required).map_err(cap_err)?;
        let accounts = self.accounts.lock();
        if accounts.owned.contains_key(&cap.object) {
            Ok(cap.object)
        } else {
            Err(BlockError::PermissionDenied)
        }
    }

    fn check_owned(&self, account: AccountId, nr: BlockNr) -> Result<()> {
        let accounts = self.accounts.lock();
        match accounts.owner.get(&nr) {
            Some(owner) if *owner == account => Ok(()),
            Some(_) => Err(BlockError::PermissionDenied),
            None => Err(BlockError::NoSuchBlock(nr)),
        }
    }

    /// Allocates a block owned by the account of `cap`.
    pub fn allocate(&self, cap: &Capability) -> Result<BlockNr> {
        let account = self.check(cap, Rights::CREATE)?;
        let nr = self.store.allocate()?;
        let mut accounts = self.accounts.lock();
        accounts.owner.insert(nr, account);
        accounts.owned.entry(account).or_default().insert(nr);
        Ok(nr)
    }

    /// Allocates a *specific* block number owned by the account of `cap`, for a
    /// caller that chooses numbers itself (see [`BlockStore::allocate_at`]).
    pub fn allocate_at(&self, cap: &Capability, nr: BlockNr) -> Result<()> {
        let account = self.check(cap, Rights::CREATE)?;
        self.store.allocate_at(nr)?;
        let mut accounts = self.accounts.lock();
        accounts.owner.insert(nr, account);
        accounts.owned.entry(account).or_default().insert(nr);
        Ok(())
    }

    /// Allocates a block and writes its first contents in one call (§4's
    /// allocate-and-write); the block is freed again if the write fails.
    pub fn allocate_and_write(&self, cap: &Capability, data: Bytes) -> Result<BlockNr> {
        let nr = self.allocate(cap)?;
        match self.write(cap, nr, data) {
            Ok(()) => Ok(nr),
            Err(e) => {
                let _ = self.free(cap, nr);
                Err(e)
            }
        }
    }

    /// Reads a block owned by the account of `cap`.
    pub fn read(&self, cap: &Capability, nr: BlockNr) -> Result<Bytes> {
        let account = self.check(cap, Rights::READ)?;
        self.check_owned(account, nr)?;
        self.store.read(nr)
    }

    /// Atomically writes a block owned by the account of `cap`.
    pub fn write(&self, cap: &Capability, nr: BlockNr, data: Bytes) -> Result<()> {
        let account = self.check(cap, Rights::WRITE)?;
        self.check_owned(account, nr)?;
        self.store.write(nr, data)
    }

    /// Writes a batch of blocks for the account of `cap` in one scatter-gather
    /// call (entries applied in order; see [`BlockServer::write_batch_epoch`]).
    pub fn write_batch(&self, cap: &Capability, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        self.write_batch_epoch(cap, 0, writes)
    }

    /// Writes a batch of blocks for the account of `cap`, stamped with the
    /// sender's membership epoch, in one scatter-gather call (entries applied
    /// in order; see [`BlockStore::write_batch`]).
    ///
    /// Every check runs *before* any entry is applied, so a refused batch
    /// never leaves a partial batch behind:
    ///
    /// * the epoch gate first, so a stale coordinator's batch is rejected
    ///   whole with [`BlockError::EpochMismatch`];
    /// * then the capability, which must carry `WRITE`;
    /// * then ownership per entry.  An entry owned by another account fails
    ///   the batch with [`BlockError::PermissionDenied`].  An entry nobody
    ///   owns is *write-allocated* for the caller, which needs `CREATE` for
    ///   it — this is how a replica set's coordinator places a block it
    ///   numbered itself.
    ///
    /// A write-allocated entry is recorded as the caller's only when the
    /// store applied it: if the store fails mid-batch, the entries it did not
    /// take stay unowned.
    pub fn write_batch_epoch(
        &self,
        cap: &Capability,
        epoch: u64,
        writes: &[(BlockNr, Bytes)],
    ) -> Result<()> {
        self.admit_epoch(epoch)?;
        let account = self.check(cap, Rights::WRITE)?;
        let may_create = self.minter.lock().verify(cap, Rights::CREATE).is_ok();
        // Checked and claimed under one lock, so two accounts racing to
        // write-allocate one number cannot both win.
        let fresh: Vec<BlockNr> = {
            let mut accounts = self.accounts.lock();
            let mut fresh = Vec::new();
            for (nr, _) in writes {
                match accounts.owner.get(nr) {
                    Some(&owner) if owner == account => {}
                    None if may_create => fresh.push(*nr),
                    _ => return Err(BlockError::PermissionDenied),
                }
            }
            fresh.sort_unstable();
            fresh.dedup();
            for &nr in &fresh {
                accounts.owner.insert(nr, account);
                accounts.owned.entry(account).or_default().insert(nr);
            }
            fresh
        };
        let result = self.store.write_batch(writes);
        if result.is_err() {
            let unapplied: Vec<BlockNr> = fresh
                .into_iter()
                .filter(|&nr| !self.store.is_allocated(nr))
                .collect();
            let mut accounts = self.accounts.lock();
            for nr in unapplied {
                accounts.owner.remove(&nr);
                if let Some(set) = accounts.owned.get_mut(&account) {
                    set.remove(&nr);
                }
            }
        }
        result
    }

    /// Frees a block owned by the account of `cap` (unstamped; see
    /// [`BlockServer::free_epoch`]).
    pub fn free(&self, cap: &Capability, nr: BlockNr) -> Result<()> {
        self.free_epoch(cap, 0, nr)
    }

    /// Frees a block owned by the account of `cap`, stamped with the sender's
    /// membership epoch: the epoch gate runs first, as for
    /// [`BlockServer::write_batch_epoch`], so a stale coordinator frees
    /// nothing.
    pub fn free_epoch(&self, cap: &Capability, epoch: u64, nr: BlockNr) -> Result<()> {
        self.admit_epoch(epoch)?;
        let account = self.check(cap, Rights::DESTROY)?;
        self.check_owned(account, nr)?;
        self.store.free(nr)?;
        let mut accounts = self.accounts.lock();
        accounts.owner.remove(&nr);
        if let Some(set) = accounts.owned.get_mut(&account) {
            set.remove(&nr);
        }
        Ok(())
    }

    /// The recovery operation of §4: returns all blocks owned by the account, so a
    /// file server can rebuild its structures after a severe crash.
    pub fn recover(&self, cap: &Capability) -> Result<Vec<BlockNr>> {
        let account = self.check(cap, Rights::READ)?;
        let accounts = self.accounts.lock();
        let mut blocks: Vec<BlockNr> = accounts
            .owned
            .get(&account)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        blocks.sort_unstable();
        Ok(blocks)
    }

    /// Tries to take the per-block lock; fails immediately with
    /// [`BlockError::Locked`] if it is already held.
    pub fn try_lock(&self, cap: &Capability, nr: BlockNr) -> Result<()> {
        let account = self.check(cap, Rights::LOCK)?;
        self.check_owned(account, nr)?;
        let mut locks = self.locks.lock();
        if locks.held.contains(&nr) {
            return Err(BlockError::Locked(nr));
        }
        locks.held.insert(nr);
        Ok(())
    }

    /// Takes the per-block lock, waiting until it becomes free.
    pub fn lock(&self, cap: &Capability, nr: BlockNr) -> Result<()> {
        let account = self.check(cap, Rights::LOCK)?;
        self.check_owned(account, nr)?;
        let mut locks = self.locks.lock();
        while locks.held.contains(&nr) {
            self.lock_released.wait(&mut locks);
        }
        locks.held.insert(nr);
        Ok(())
    }

    /// Releases a per-block lock.
    pub fn unlock(&self, cap: &Capability, nr: BlockNr) -> Result<()> {
        let account = self.check(cap, Rights::LOCK)?;
        self.check_owned(account, nr)?;
        self.release(nr)
    }

    /// Releases a per-block lock without checking ownership.
    fn release(&self, nr: BlockNr) -> Result<()> {
        let mut locks = self.locks.lock();
        if !locks.held.remove(&nr) {
            return Err(BlockError::NoSuchBlock(nr));
        }
        drop(locks);
        self.lock_released.notify_all();
        Ok(())
    }

    /// Returns true if the block is currently locked by somebody.
    pub fn is_locked(&self, nr: BlockNr) -> bool {
        self.locks.lock().held.contains(&nr)
    }

    /// The commit primitive of §5.2: lock the block, read it, let `f` examine and
    /// possibly modify it, write it back if `f` returned new contents, and unlock.
    ///
    /// `f` returning `Ok(Some(bytes))` rewrites the block; `Ok(None)` leaves it
    /// untouched.  Either way the closure's auxiliary value `R` is returned to the
    /// caller.  The whole sequence is indivisible with respect to other callers of
    /// `update_block`, `lock` and `try_lock` on the same block — this is what makes
    /// "test and set the commit reference" the only critical section in version
    /// commit.
    pub fn update_block<R>(
        &self,
        cap: &Capability,
        nr: BlockNr,
        f: impl FnOnce(Bytes) -> Result<(Option<Bytes>, R)>,
    ) -> Result<R> {
        self.with_lock(cap, nr, || {
            let (new_contents, value) = f(self.store.read(nr)?)?;
            if let Some(data) = new_contents {
                self.store.write(nr, data)?;
            }
            Ok(value)
        })
    }

    /// Runs `f` holding the per-block lock of `nr`, and releases the lock
    /// whatever `f` returns.  The lock alone, without the read and write of
    /// [`BlockServer::update_block`]: for a client that keeps the block's
    /// contents itself and does its own I/O inside the critical section.
    pub fn with_lock<R, E: From<BlockError>>(
        &self,
        cap: &Capability,
        nr: BlockNr,
        f: impl FnOnce() -> std::result::Result<R, E>,
    ) -> std::result::Result<R, E> {
        self.lock(cap, nr).map_err(E::from)?;
        let result = f();
        // Always release the lock, even if `f` failed.  Ownership is not
        // checked: the block may have been freed while it was locked, and its
        // number must not stay locked for whoever it is reissued to.
        let _ = self.release(nr);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use std::time::Duration;

    fn server() -> (Arc<BlockServer>, Capability) {
        let server = Arc::new(BlockServer::new(Arc::new(MemStore::new())));
        let cap = server.create_account();
        (server, cap)
    }

    #[test]
    fn account_isolation_is_enforced() {
        let (server, alice) = server();
        let bob = server.create_account();
        let nr = server.allocate(&alice).unwrap();
        server
            .write(&alice, nr, Bytes::from_static(b"secret"))
            .unwrap();
        assert_eq!(server.read(&bob, nr), Err(BlockError::PermissionDenied));
        assert_eq!(
            server.write(&bob, nr, Bytes::from_static(b"overwrite")),
            Err(BlockError::PermissionDenied)
        );
        assert_eq!(server.free(&bob, nr), Err(BlockError::PermissionDenied));
    }

    #[test]
    fn write_batch_checks_ownership_of_every_block_first() {
        let (server, alice) = server();
        let bob = server.create_account();
        let mine = server.allocate(&alice).unwrap();
        server
            .write(&alice, mine, Bytes::from_static(b"old"))
            .unwrap();
        let theirs = server.allocate(&bob).unwrap();
        let batch = vec![
            (mine, Bytes::from_static(b"new")),
            (theirs, Bytes::from_static(b"stolen")),
        ];
        assert_eq!(
            server.write_batch(&alice, &batch),
            Err(BlockError::PermissionDenied)
        );
        // The permission failure left the owned prefix untouched too.
        assert_eq!(
            server.read(&alice, mine).unwrap(),
            Bytes::from_static(b"old")
        );
        // An all-owned batch goes through as one store call.
        let ok = vec![(mine, Bytes::from_static(b"new"))];
        server.write_batch(&alice, &ok).unwrap();
        assert_eq!(
            server.read(&alice, mine).unwrap(),
            Bytes::from_static(b"new")
        );
    }

    #[test]
    fn write_allocation_needs_create_and_a_free_number() {
        let (server, alice) = server();
        let bob = server.create_account();
        let mine = server.allocate(&alice).unwrap();
        server
            .write(&alice, mine, Bytes::from_static(b"old"))
            .unwrap();
        let theirs = server.allocate(&bob).unwrap();
        let fresh = theirs + 100;
        let store = Arc::clone(server.store());
        let untouched = |server: &BlockServer| {
            assert_eq!(
                server.read(&alice, mine).unwrap(),
                Bytes::from_static(b"old")
            );
            assert!(!store.is_allocated(fresh));
            assert_eq!(server.recover(&alice).unwrap(), vec![mine]);
        };

        // Without CREATE, a batch naming an unowned number is refused whole.
        let write_only = server
            .minter
            .lock()
            .restrict(&alice, Rights::WRITE)
            .unwrap();
        let batch = vec![
            (mine, Bytes::from_static(b"new")),
            (fresh, Bytes::from_static(b"fresh")),
        ];
        assert_eq!(
            server.write_batch(&write_only, &batch),
            Err(BlockError::PermissionDenied)
        );
        untouched(&server);

        // With CREATE, write-allocating into another account's block is
        // refused whole too.
        let batch = vec![
            (fresh, Bytes::from_static(b"fresh")),
            (theirs, Bytes::from_static(b"stolen")),
        ];
        assert_eq!(
            server.write_batch(&alice, &batch),
            Err(BlockError::PermissionDenied)
        );
        untouched(&server);
        assert_eq!(server.read(&bob, theirs).unwrap(), Bytes::new());

        // Under WRITE and CREATE, the batch takes the fresh number for its account.
        server
            .write_batch(&alice, &[(fresh, Bytes::from_static(b"fresh"))])
            .unwrap();
        assert_eq!(server.recover(&alice).unwrap(), vec![mine, fresh]);
        assert_eq!(
            server.read(&alice, fresh).unwrap(),
            Bytes::from_static(b"fresh")
        );
        assert_eq!(server.read(&bob, fresh), Err(BlockError::PermissionDenied));
    }

    #[test]
    fn a_write_allocation_the_store_refuses_stays_unowned() {
        let server = BlockServer::new(Arc::new(MemStore::with_block_size(4)));
        let alice = server.create_account();
        let batch = vec![(9, Bytes::from_static(b"too large"))];
        assert!(matches!(
            server.write_batch(&alice, &batch),
            Err(BlockError::TooLarge { .. })
        ));
        assert!(server.recover(&alice).unwrap().is_empty());
    }

    #[test]
    fn forged_capability_is_rejected() {
        let (server, alice) = server();
        let mut forged = alice;
        forged.check ^= 0x1;
        assert_eq!(server.allocate(&forged), Err(BlockError::PermissionDenied));
    }

    #[test]
    fn read_only_capability_cannot_write() {
        let (server, alice) = server();
        let nr = server.allocate(&alice).unwrap();
        let ro = {
            let mut minter = server.minter.lock();
            minter.restrict(&alice, Rights::READ).unwrap()
        };
        assert!(server.read(&ro, nr).is_ok());
        assert_eq!(
            server.write(&ro, nr, Bytes::from_static(b"no")),
            Err(BlockError::PermissionDenied)
        );
    }

    #[test]
    fn recover_lists_owned_blocks() {
        let (server, alice) = server();
        let bob = server.create_account();
        let a1 = server.allocate(&alice).unwrap();
        let a2 = server.allocate(&alice).unwrap();
        let _b1 = server.allocate(&bob).unwrap();
        let mut recovered = server.recover(&alice).unwrap();
        recovered.sort_unstable();
        let mut expect = vec![a1, a2];
        expect.sort_unstable();
        assert_eq!(recovered, expect);
    }

    #[test]
    fn free_removes_block_from_account() {
        let (server, alice) = server();
        let nr = server.allocate(&alice).unwrap();
        server.free(&alice, nr).unwrap();
        assert!(server.recover(&alice).unwrap().is_empty());
        assert_eq!(server.read(&alice, nr), Err(BlockError::NoSuchBlock(nr)));
    }

    #[test]
    fn try_lock_conflicts_are_reported() {
        let (server, alice) = server();
        let nr = server.allocate(&alice).unwrap();
        server.try_lock(&alice, nr).unwrap();
        assert_eq!(server.try_lock(&alice, nr), Err(BlockError::Locked(nr)));
        server.unlock(&alice, nr).unwrap();
        server.try_lock(&alice, nr).unwrap();
    }

    #[test]
    fn stale_epoch_batches_are_rejected_and_newer_ones_adopted() {
        let (server, alice) = server();
        let nr = server.allocate(&alice).unwrap();
        let batch = vec![(nr, Bytes::from_static(b"v1"))];
        assert_eq!(server.epoch(), 0);
        // Unstamped requests are always admitted (single-replica clients).
        server.write_batch(&alice, &batch).unwrap();
        // The first stamped request is adopted...
        server.write_batch_epoch(&alice, 3, &batch).unwrap();
        assert_eq!(server.epoch(), 3);
        // ...a newer one advances the watermark...
        server.write_batch_epoch(&alice, 5, &batch).unwrap();
        assert_eq!(server.epoch(), 5);
        // ...and a stale coordinator is turned away before anything applies.
        let stale = vec![(nr, Bytes::from_static(b"stale"))];
        assert_eq!(
            server.write_batch_epoch(&alice, 4, &stale),
            Err(BlockError::EpochMismatch {
                sent: 4,
                current: 5
            })
        );
        assert_eq!(server.read(&alice, nr).unwrap(), Bytes::from_static(b"v1"));
        // Unstamped requests still work after the set has an epoch.
        server.write_batch(&alice, &batch).unwrap();
    }

    #[test]
    fn update_block_is_mutually_exclusive() {
        let (server, alice) = server();
        let nr = server.allocate(&alice).unwrap();
        server.write(&alice, nr, Bytes::from(vec![0u8; 8])).unwrap();

        // Hammer the same counter block from several threads; with a correct critical
        // section no increment is lost.
        let threads = 4;
        let per_thread = 250;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let server = Arc::clone(&server);
            let cap = alice;
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    server
                        .update_block(&cap, nr, |old| {
                            let mut counter = u64::from_le_bytes(old[..8].try_into().unwrap());
                            counter += 1;
                            Ok((Some(Bytes::from(counter.to_le_bytes().to_vec())), ()))
                        })
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_value =
            u64::from_le_bytes(server.read(&alice, nr).unwrap()[..8].try_into().unwrap());
        assert_eq!(final_value, (threads * per_thread) as u64);
    }

    #[test]
    fn update_block_releases_lock_on_error() {
        let (server, alice) = server();
        let nr = server.allocate(&alice).unwrap();
        let result: Result<()> =
            server.update_block(&alice, nr, |_| Err(BlockError::Io("closure failed".into())));
        assert!(result.is_err());
        assert!(!server.is_locked(nr));
    }

    #[test]
    fn with_lock_holds_the_block_lock_and_releases_it_on_error() {
        let (server, alice) = server();
        let nr = server.allocate(&alice).unwrap();
        let held = server
            .with_lock::<_, BlockError>(&alice, nr, || Ok(server.is_locked(nr)))
            .unwrap();
        assert!(held);
        assert!(!server.is_locked(nr));
        let result: Result<()> =
            server.with_lock(&alice, nr, || Err(BlockError::Io("closure failed".into())));
        assert!(result.is_err());
        assert!(!server.is_locked(nr));
        // The lock checks ownership like `lock` does.
        let bob = server.create_account();
        let denied: Result<()> = server.with_lock(&bob, nr, || Ok(()));
        assert_eq!(denied, Err(BlockError::PermissionDenied));
    }

    #[test]
    fn a_block_freed_while_locked_is_unlocked_for_its_next_owner() {
        let (server, alice) = server();
        let nr = server.allocate(&alice).unwrap();
        // The block is freed inside another caller's critical section.
        let result: Result<()> = server.update_block(&alice, nr, |_| {
            server.free(&alice, nr).unwrap();
            Ok((Some(Bytes::from_static(b"late")), ()))
        });
        assert!(result.is_err());
        assert!(!server.is_locked(nr));
        // Reissued, the number locks again at once.
        server.allocate_at(&alice, nr).unwrap();
        server.try_lock(&alice, nr).unwrap();
    }

    #[test]
    fn blocking_lock_waits_for_release() {
        let (server, alice) = server();
        let nr = server.allocate(&alice).unwrap();
        server.lock(&alice, nr).unwrap();

        let server2 = Arc::clone(&server);
        let cap = alice;
        let waiter = std::thread::spawn(move || {
            server2.lock(&cap, nr).unwrap();
            server2.unlock(&cap, nr).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !waiter.is_finished(),
            "waiter should be blocked on the lock"
        );
        server.unlock(&alice, nr).unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn allocate_and_write_rolls_back_on_oversized_data() {
        let store = Arc::new(MemStore::with_block_size(4));
        let server = BlockServer::new(store);
        let cap = server.create_account();
        let before = server.recover(&cap).unwrap().len();
        assert!(server
            .allocate_and_write(&cap, Bytes::from(vec![0u8; 100]))
            .is_err());
        assert_eq!(server.recover(&cap).unwrap().len(), before);
    }
}
