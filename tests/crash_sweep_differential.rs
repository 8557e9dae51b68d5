//! The exhaustive crash sweep against its per-cycle reference.
//!
//! `CrashChecker::check_all_images` replays the persist trace once and
//! carries the oracle state from one crash image to the next. This suite
//! pins it to the path it replaced: `check_at` at every persist cycle in
//! order, each rebuilding its image from cycle 0 and running recovery on
//! the whole image. The two must agree on every trace — a clean verdict,
//! or the same first `(cycle, CheckFailure)` — covering:
//!
//! * the standard suite on all five configurations and two seeds, so the
//!   SU/U violations are compared as well as the clean B/IQ/WB verdicts;
//! * redo logging, through `recover_redo`;
//! * the inject campaign's media faults, through
//!   `check_all_images_mutated`, and its memory-system faults;
//! * generated transactional programs (the inject and explore crash
//!   probe's `tx_case_program`).
//!
//! The reference is quadratic in trace length, so by default the suite
//! runs reduced sizes. `EDE_SWEEP_FULL=1` runs the standard suite at the
//! `crash_consistency` sizes (ops 90, ops_per_tx 30); CI does that in
//! release mode.

use ede_check::inject::{media_mutate, tx_case_program};
use ede_isa::ArchConfig;
use ede_mem::{FaultInjection, PersistTrace};
use ede_nvm::redo::{recover_redo, redo_update_kernel};
use ede_nvm::{CheckFailure, CrashChecker};
use ede_sim::{run_program, run_workload, SimConfig};
use ede_workloads::{standard_suite, WorkloadParams};

const SEEDS: [u64; 2] = [42, 7];

fn full() -> bool {
    std::env::var("EDE_SWEEP_FULL").is_ok_and(|v| v == "1")
}

/// `check_at` at every persist cycle, in order, up to the first failure.
fn reference(checker: &CrashChecker, trace: &PersistTrace) -> Result<(), (u64, CheckFailure)> {
    trace
        .persist_cycles()
        .into_iter()
        .try_for_each(|c| checker.check_at(trace, c).map(|_| ()).map_err(|e| (c, e)))
}

/// Asserts the sweep equals the reference; returns whether it was clean.
fn same_verdict(checker: &CrashChecker, trace: &PersistTrace, what: &str) -> bool {
    let sweep = checker.check_all_images(trace);
    assert_eq!(sweep, reference(checker, trace), "{what}");
    sweep.is_ok()
}

#[test]
fn sweep_equals_reference_on_the_standard_suite() {
    let (ops, ops_per_tx, array_elems, prepopulate) = if full() {
        (90, 30, 16 * 1024, 300)
    } else {
        (24, 8, 2048, 30)
    };
    let sim = SimConfig::a72();
    let mut violations = 0;
    for seed in SEEDS {
        let params = WorkloadParams {
            seed,
            ops,
            ops_per_tx,
            array_elems,
            prepopulate,
            ..WorkloadParams::default()
        };
        for w in standard_suite() {
            for arch in ArchConfig::ALL {
                let r = run_workload(w.as_ref(), &params, arch, &sim).unwrap();
                let what = format!("{} on {arch}, seed {seed}", w.name());
                let clean = same_verdict(&CrashChecker::new(&r.output), &r.trace, &what);
                assert!(
                    clean || !arch.is_crash_safe(),
                    "{what}: crash-safe config failed"
                );
                violations += usize::from(!clean);
            }
        }
    }
    // The comparison must cover failing verdicts, not just clean ones.
    assert!(violations > 0, "no SU/U cell violated");
}

#[test]
fn sweep_equals_reference_on_redo_logging() {
    let (ops, ops_per_tx, slots) = if full() {
        (90, 30, 16 * 1024)
    } else {
        (30, 10, 1024)
    };
    let sim = SimConfig::a72();
    let mut violations = 0;
    for seed in SEEDS {
        for arch in ArchConfig::ALL {
            let out = redo_update_kernel(arch, ops, ops_per_tx, slots, seed);
            let r = run_program("redo", out, arch, &sim).expect("redo run completes");
            let checker = CrashChecker::with_recovery(&r.output, recover_redo);
            let what = format!("redo on {arch}, seed {seed}");
            violations += usize::from(!same_verdict(&checker, &r.trace, &what));
        }
    }
    assert!(violations > 0, "no SU/U redo cell violated");
}

#[test]
fn sweep_equals_reference_on_generated_tx_programs() {
    let sim = SimConfig::a72();
    for seed in 0..20 {
        for arch in ArchConfig::ALL {
            let r = run_program("tx", tx_case_program(seed, arch), arch, &sim).unwrap();
            let what = format!("tx case {seed} on {arch}");
            same_verdict(&CrashChecker::new(&r.output), &r.trace, &what);
        }
    }
}

#[test]
fn mutated_sweep_equals_reference_under_every_fault() {
    let safe = [
        ArchConfig::Baseline,
        ArchConfig::IssueQueue,
        ArchConfig::WriteBuffer,
    ];
    let mut detected = 0;
    for fault in FaultInjection::ALL {
        for seed in 0..4 {
            for arch in safe {
                let mut sim = SimConfig::a72();
                sim.max_cycles = 2_000_000;
                sim.cpu.watchdog_cycles = 50_000;
                if !fault.is_media() {
                    sim.cpu.fault = Some(fault);
                    sim.mem.fault = Some(fault);
                }
                let out = tx_case_program(seed, arch);
                let Ok(r) = run_program("inject-crash", out, arch, &sim) else {
                    continue;
                };
                let layout = r.output.layout;
                let checker = CrashChecker::new(&r.output);
                let what = format!("{} case {seed} on {arch}", fault.label());
                let mutated = checker.check_all_images_mutated(&r.trace, &|_, image| {
                    media_mutate(fault, seed, &layout, image);
                });
                let per_cycle = r.trace.persist_cycles().into_iter().try_for_each(|c| {
                    checker
                        .check_at_mutated(&r.trace, c, &|image| {
                            media_mutate(fault, seed, &layout, image)
                        })
                        .map(|_| ())
                        .map_err(|e| (c, e))
                });
                assert_eq!(mutated, per_cycle, "{what}");
                if fault.is_media() {
                    detected += usize::from(mutated.is_err());
                } else {
                    // Memory-system faults reach the unmutated sweep.
                    let clean = same_verdict(&checker, &r.trace, &what);
                    assert_eq!(clean, mutated.is_ok(), "{what}");
                    detected += usize::from(!clean);
                }
            }
        }
    }
    assert!(detected > 0, "no fault produced a violation");
}
