//! The quorum arithmetic of the replicated write path, kept separate so its
//! invariants are testable as pure functions.
//!
//! A write through [`crate::ReplicatedBlockStore`] is acknowledged once a
//! strict **majority** of the current epoch's In members has durably applied
//! it.  The slowest replica therefore never gates commit latency, and any two
//! acknowledged writes share at least one replica (the intersection property
//! proven below), so no later quorum can miss an earlier ack.
//!
//! The majority is taken of the **current** membership, not the membership at
//! submission time: when a member is deposed mid-write the denominator shrinks
//! with the epoch bump, which is exactly how a 2-replica set keeps
//! acknowledging with one replica down (majority of {survivor} = 1).

/// Majority of `n` members: the smallest quorum size such that any two
/// quorums of an `n`-member set intersect.  Never less than 1, even for an
/// empty set: an acknowledged write must exist somewhere.
pub fn majority(n: usize) -> usize {
    n / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_table() {
        for (n, m) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (7, 4)] {
            assert_eq!(majority(n), m, "majority({n})");
        }
    }

    /// An ack from every member always reaches the threshold, and the
    /// threshold is a strict majority and never less: a pair still needs both
    /// replicas, and an empty set still needs one ack.
    #[test]
    fn write_all_needs_every_member_and_quorum_needs_a_majority() {
        for n in 1..=10usize {
            assert!(majority(n) <= n, "every member of {n} is enough");
            assert!(2 * majority(n) > n, "majority({n}) is more than half");
            assert!(
                2 * (majority(n) - 1) <= n,
                "majority({n}) is the least such"
            );
        }
        assert_eq!(majority(3), 2);
        assert_eq!(majority(2), 2, "a pair still needs both");
        assert_eq!(majority(1), 1);
        // Degenerate empty member set: the threshold stays at least one, so an
        // ack can never be granted with no members (the write path refuses
        // earlier anyway).
        assert_eq!(majority(0), 1);
    }

    /// The intersection property, by exhaustive bitmask enumeration: any two
    /// subsets of an `n`-replica set that each reach `majority(n)` share at
    /// least one replica.  This is what makes a quorum ack durable across
    /// coordinator hand-offs — there is no pair of disjoint quorums that
    /// could ack conflicting histories.
    #[test]
    fn any_two_majorities_of_one_replica_set_intersect() {
        for n in 1..=10usize {
            let need = majority(n);
            for a in 0u32..(1 << n) {
                if (a.count_ones() as usize) < need {
                    continue;
                }
                for b in 0u32..(1 << n) {
                    if (b.count_ones() as usize) < need {
                        continue;
                    }
                    assert!(
                        a & b != 0,
                        "majorities {a:#b} and {b:#b} of an {n}-set must intersect"
                    );
                }
            }
        }
    }

    /// The threshold is tight: for every set of 2 or more, two *sub*-majority
    /// subsets exist that are disjoint — so acking below a majority really
    /// does allow split-brain histories.
    #[test]
    fn sub_majorities_can_be_disjoint() {
        for n in 2..=10usize {
            let k = majority(n) - 1;
            let a: u32 = (1 << k) - 1; // replicas 0..k
            let b: u32 = ((1 << k) - 1) << (n - k); // the top k replicas
            assert_eq!(
                a & b,
                0,
                "two {k}-subsets of an {n}-set should be constructible disjoint"
            );
        }
    }
}
