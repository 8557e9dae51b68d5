//! `crash_sweep`: `CrashChecker::check_all_images` at every persist point
//! of the six `standard_suite` applications on B, IQ and WB, at the
//! tier-1 crash-consistency sizes. Simulation is a small share; the time
//! goes to rebuilding crash images, undo recovery and the oracle.

use crate::instr::run_timed;
use crate::{
    excluded, geomean_ratio, heap, median, per_job_at_reference, per_job_measured, round_robin,
    secs, EndToEnd, Gate, Layers, Probe, Report, Sample, SimCounts, Sizes,
};
use ede_isa::ArchConfig;
use ede_mem::trace::nvm_image_at;
use ede_mem::PersistTrace;
use ede_nvm::recovery::{recover, NvmImage, RecoveryResult};
use ede_nvm::{CrashChecker, Layout};
use ede_sim::{run_program, run_workload, SimConfig};
use ede_workloads::{standard_suite, Workload, WorkloadParams};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// How many times each cell is set up (generated, simulated, checker
/// built) per pass; the cell's set-up time is the median.
const SETUP_REPEATS: usize = 5;

/// The crash-safe configurations the sweep must find clean.
const SAFE: [ArchConfig; 3] = [
    ArchConfig::Baseline,
    ArchConfig::IssueQueue,
    ArchConfig::WriteBuffer,
];

/// One timed cell: median set-up and simulation seconds, and the
/// exhaustive check's seconds.
struct CellSample {
    setup_s: f64,
    sim_s: f64,
    check_s: f64,
}

/// Runs `crash_sweep`; see [`crate::run`].
pub fn run(seed: u64, budget: Duration, trace: bool, sizes: &Sizes, probe: &mut Probe) -> Report {
    let params = WorkloadParams {
        seed,
        ..sizes.sweep
    };
    let sim = SimConfig::a72();
    let suite = standard_suite();
    let cells: Vec<(usize, ArchConfig)> = (0..suite.len())
        .flat_map(|wi| SAFE.into_iter().map(move |a| (wi, a)))
        .collect();
    let mut report = Report::default();
    let gate = &mut report.gate;

    unsafe_config_fails(&suite, &params, &sim, gate);

    // One job per cell: set it up (generate, simulate, build the checker)
    // several times, then check every crash image once.
    let mut first: Vec<Option<SimCounts>> = vec![None; cells.len()];
    let mut images = vec![0u64; cells.len()];
    let mut insts = 0;
    let budget = if trace { Duration::ZERO } else { budget };
    let samples = round_robin(cells.len(), budget, probe, |i, pass| {
        let (wi, arch) = cells[i];
        let w = suite[wi].as_ref();
        let (mut setup_s, mut sim_s) = (Vec::new(), Vec::new());
        let mut prepared = None;
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            let out = w.generate(&params, arch);
            if pass == 0 && prepared.is_none() {
                insts += out.program.len() as u64;
            }
            let t_sim = Instant::now();
            let r = run_program(w.name(), out, arch, &sim);
            sim_s.push(secs(t_sim));
            let Ok(run) = r else {
                gate.check(false, || format!("{}/{arch}: simulation failed", w.name()));
                return None;
            };
            let checker = CrashChecker::new(&run.output);
            setup_s.push(secs(t));
            let c = SimCounts::of(&run);
            let f = *first[i].get_or_insert(c);
            gate.check(f == c, || {
                format!("{}/{arch}: counts changed between set-ups", w.name())
            });
            prepared = Some((run, checker));
        }
        let (run, checker) = prepared?;
        let t = Instant::now();
        let verdict = checker.check_all_images(&run.trace);
        let check_s = secs(t);
        gate.check(verdict.is_ok(), || {
            let (c, e) = verdict.as_ref().expect_err("failed verdict");
            format!("{}/{arch}: crash at cycle {c} unrecoverable: {e}", w.name())
        });
        images[i] = run.trace.persist_cycles().len() as u64;
        Some(CellSample {
            setup_s: median(&setup_s),
            sim_s: median(&sim_s),
            check_s,
        })
    });
    let peak_heap_mb = heap::peak_mb();

    for (c, n) in first.iter().zip(&images) {
        c.unwrap_or_default().fold(&mut report.digest);
        report.digest.u64(*n);
    }
    let counts: Vec<SimCounts> = first.iter().flatten().copied().collect();
    let complete = counts.len() == cells.len();
    let tx = |arch: usize| -> Vec<u64> {
        if complete {
            (0..suite.len())
                .map(|wi| counts[wi * 3 + arch].tx_cycles)
                .collect()
        } else {
            Vec::new()
        }
    };
    let (b, iq, wb) = (tx(0), tx(1), tx(2));
    // A cell whose set-up failed has no sample; the gate already failed.
    let samples: Vec<Vec<Sample<CellSample>>> = samples
        .into_iter()
        .map(|s| {
            s.into_iter()
                .filter_map(|x| {
                    x.value.map(|value| Sample {
                        value,
                        slowdown: x.slowdown,
                    })
                })
                .collect()
        })
        .collect();
    let retired = counts.iter().map(|c| c.retired).sum::<u64>() as f64;
    let total_images: u64 = images.iter().sum();
    let setup = |s: &CellSample| s.setup_s;
    let simulate = |s: &CellSample| s.sim_s;
    let total = |s: &CellSample| s.setup_s + s.check_s;
    report.e2e = EndToEnd {
        wall_s: per_job_at_reference(&samples, total),
        peak_heap_mb,
        setup_s: per_job_at_reference(&samples, setup),
        sim_kips: retired / per_job_at_reference(&samples, simulate) / 1e3,
        exec_time_norm_iq: geomean_ratio(&iq, &b),
        exec_time_norm_wb: geomean_ratio(&wb, &b),
        measured: [
            per_job_measured(&samples, total),
            per_job_measured(&samples, setup),
            retired / per_job_measured(&samples, simulate) / 1e3,
        ],
    };
    report.notes.push(format!(
        "crash_sweep: {} cells, {total_images} crash images, {} pass(es), {:.0} images/s",
        cells.len(),
        samples[0].len(),
        total_images as f64 / per_job_measured(&samples, |s| s.check_s),
    ));

    if trace {
        let untraced_wall_s = samples
            .iter()
            .flat_map(|s| s.first())
            .map(|s| total(&s.value))
            .sum();
        report.layers = Some(traced_pass(
            &suite,
            &cells,
            &params,
            &sim,
            &first,
            untraced_wall_s,
            insts,
            gate,
        ));
    }
    report
}

/// Checks that the unsafe configuration U loses data at some crash point
/// of some application, so the oracle is shown to matter. Stops at the
/// first violation found.
fn unsafe_config_fails(
    suite: &[Box<dyn Workload>],
    params: &WorkloadParams,
    sim: &SimConfig,
    gate: &mut Gate,
) {
    let found = suite.iter().any(|w| {
        run_workload(w.as_ref(), params, ArchConfig::Unsafe, sim).is_ok_and(|r| {
            let checker = CrashChecker::new(&r.output);
            r.trace
                .persist_cycles()
                .into_iter()
                .any(|c| checker.check_at(&r.trace, c).is_err())
        })
    });
    gate.check(found, || {
        "U survived every crash point of every application".to_string()
    });
}

thread_local! {
    static RECOVER_NS: Cell<u64> = const { Cell::new(0) };
}

/// Undo recovery, timed.
fn timed_recover(image: &mut NvmImage, layout: &Layout) -> RecoveryResult {
    let t = Instant::now();
    let r = recover(image, layout);
    RECOVER_NS.with(|ns| ns.set(ns.get() + t.elapsed().as_nanos() as u64));
    r
}

/// Checks every crash image of `trace` the way `check_all_images` does,
/// timing image rebuild, recovery and the rest of the oracle apart.
fn check_split(checker: &CrashChecker, trace: &PersistTrace, l: &mut Layers) -> bool {
    let mut clean = true;
    for c in trace.persist_cycles() {
        let t = Instant::now();
        let image: NvmImage = nvm_image_at(trace, c, 64);
        l.crash_rebuild_s += secs(t);
        let before = RECOVER_NS.with(Cell::get);
        let t = Instant::now();
        clean &= checker.check_image(image).is_ok();
        let recover_s = (RECOVER_NS.with(Cell::get) - before) as f64 * 1e-9;
        l.crash_recover_s += recover_s;
        l.crash_oracle_s += secs(t) - recover_s;
        l.crash_images += 1;
    }
    clean
}

/// One traced pass over the sweep, checked against the untraced counts;
/// the comparison is left out of `traced_wall_s`.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    suite: &[Box<dyn Workload>],
    cells: &[(usize, ArchConfig)],
    params: &WorkloadParams,
    sim: &SimConfig,
    counts: &[Option<SimCounts>],
    untraced_wall_s: f64,
    insts: u64,
    gate: &mut Gate,
) -> Layers {
    let mut l = Layers {
        untraced_wall_s,
        insts,
        ..Layers::default()
    };
    let mut own_s = 0.0;
    let start = Instant::now();
    for (i, &(wi, arch)) in cells.iter().enumerate() {
        let w = suite[wi].as_ref();
        let t = Instant::now();
        let out = w.generate(params, arch);
        l.generate_s += secs(t);
        let (r, split) = match run_timed(w.name(), out, arch, sim, None) {
            Ok(x) => x,
            Err(e) => {
                excluded(&mut own_s, || {
                    SimCounts::default().fold(&mut l.digest);
                    l.digest.u64(0);
                    gate.check(false, || {
                        format!("{}/{arch}: traced run failed: {e}", w.name())
                    })
                });
                continue;
            }
        };
        l.sim.add(&split);
        l.cycles += r.cycles;
        l.retired += r.retired;
        excluded(&mut own_s, || {
            let c = SimCounts::of(&r);
            c.fold(&mut l.digest);
            gate.check(counts.get(i) == Some(&Some(c)), || {
                format!("{}/{arch}: traced and untraced counts differ", w.name())
            });
        });
        let checker = CrashChecker::with_recovery(&r.output, timed_recover);
        let images = l.crash_images;
        let clean = check_split(&checker, &r.trace, &mut l);
        l.digest.u64(l.crash_images - images);
        gate.check(clean, || {
            format!("{}/{arch}: traced crash check failed", w.name())
        });
    }
    l.traced_wall_s = secs(start) - own_s;
    l
}
