//! The experiment harness: regenerates every figure/claim of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run -p afs-bench --release --bin experiments -- all
//! cargo run -p afs-bench --release --bin experiments -- e1 e4 e7
//! cargo run -p afs-bench --release --bin experiments -- quick   # small parameters
//! ```
//!
//! Each experiment prints its rows; the `afs_sim::experiments` module docs list
//! which paper claim each id regenerates.

use afs_sim::experiments as exp;
use afs_sim::experiments::print_rows;

fn run(id: &str, quick: bool) {
    let scale = if quick { 1 } else { 4 };
    match id {
        "e1" => print_rows(
            "E1: OCC vs 2PL vs timestamps (throughput, abort rate)",
            &exp::e1_occ_vs_locking(&[1, 2, 4 * scale], &[1, 4, 16], 50 * scale, 256),
        ),
        "e2" => print_rows(
            "E2: serialisability-test cost vs overlap and file size",
            &exp::e2_serialise_cost(&[64, 512, 4096], 16, &[0, 1, 4, 8, 16]),
        ),
        "e3" => print_rows(
            "E3: cache validation (Amoeba) vs callbacks (XDFS)",
            &exp::e3_cache_validation(64, 16 * scale),
        ),
        "e4" => print_rows(
            "E4: crash recovery work (no rollback / no lock clearing for OCC)",
            &exp::e4_crash_recovery(64),
        ),
        "e5" => print_rows(
            "E5: commit scaling (the critical section is one test-and-set)",
            &exp::e5_commit_scaling(&[1, 2, 4, 8], 100 * scale),
        ),
        "e6" => print_rows(
            "E6: super-file reorganisation — top/inner locking vs pure OCC",
            &exp::e6_superfile_locking(4, 50 * scale),
        ),
        "e7" => print_rows(
            "E7: stable storage — single disk vs Lampson-Sturgis vs companion pair",
            &exp::e7_stable_storage(256 * scale),
        ),
        "e8" => print_rows(
            "E8: copy-on-write cost vs tree depth and fan-out",
            &exp::e8_cow_overhead(&[(1, 8), (2, 8), (3, 8), (2, 32)]),
        ),
        "e9" => print_rows(
            "E9: one-page temporary files pay no concurrency-control cost",
            &exp::e9_one_page_files(16, 50 * scale),
        ),
        "e10" => print_rows(
            "E10: garbage collector running in parallel with foreground traffic",
            &exp::e10_gc_interference(4, 50 * scale),
        ),
        "e11" | "e12" => print_rows(
            "E11/E12: starvation of large updates and the soft-lock remedy",
            &exp::e11_starvation(4, 100 * scale, 200),
        ),
        "e13" => print_rows(
            "E13: caching the flag bits avoids disk reads during validation",
            &exp::e13_flag_cache(50 * scale),
        ),
        "e14" => print_rows(
            "E14: write-once (optical) media suitability",
            &exp::e14_write_once(20 * scale),
        ),
        other => eprintln!("unknown experiment id: {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let all_ids = [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e13", "e14",
    ];
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all" || a == "quick")
    {
        all_ids.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in selected {
        run(id, quick);
    }
}
