//! `paper_grid`: the Fig. 9 grid — the six `standard_suite` applications
//! on all five configurations at the paper's sizes, run sequentially.
//! Its host time goes to program generation (`ede-workloads`) and to
//! simulation (`ede-cpu` and `ede-mem`); the crash layer never runs.

use crate::instr::run_timed;
use crate::{
    excluded, geomean_ratio, heap, per_job_at_reference, per_job_measured, round_robin, secs,
    EndToEnd, Gate, Layers, Probe, Report, SimCounts, Sizes,
};
use ede_isa::ArchConfig;
use ede_sim::experiment::{fig9, ExperimentConfig};
use ede_sim::{run_program, run_workload, RunResult, SimConfig};
use ede_workloads::{standard_suite, Workload, WorkloadParams};
use std::time::{Duration, Instant};

/// The applications the fast-forward differential runs on: one kernel
/// and one tree, so both code shapes are covered.
const REFERENCE_APPS: [&str; 2] = ["update", "btree"];

/// One timed cell: generation and simulation seconds.
struct CellSample {
    gen_s: f64,
    sim_s: f64,
    insts: u64,
}

/// Runs `paper_grid`; see [`crate::run`].
pub fn run(seed: u64, budget: Duration, trace: bool, sizes: &Sizes, probe: &mut Probe) -> Report {
    let params = WorkloadParams { seed, ..sizes.grid };
    let sim = SimConfig::a72();
    let suite = standard_suite();
    let cells: Vec<(usize, ArchConfig)> = (0..suite.len())
        .flat_map(|wi| ArchConfig::ALL.into_iter().map(move |a| (wi, a)))
        .collect();
    let mut report = Report::default();
    let gate = &mut report.gate;

    // The reference figure and the fast-forward differential come first.
    let cfg = ExperimentConfig {
        params,
        sim: sim.clone(),
        jobs: 1,
    };
    let reference = fig9(&cfg);
    gate.check(reference.is_ok(), || {
        format!("fig9 failed: {:?}", reference.as_ref().err())
    });
    fast_forward_differential(
        &suite,
        &WorkloadParams {
            seed,
            ..sizes.grid_reference
        },
        gate,
    );

    let mut first: Vec<Option<SimCounts>> = vec![None; cells.len()];
    let mut cell = |i: usize, gate: &mut Gate| -> CellSample {
        let (wi, arch) = cells[i];
        let w = suite[wi].as_ref();
        let t = Instant::now();
        let out = w.generate(&params, arch);
        let gen_s = secs(t);
        let insts = out.program.len() as u64;
        let t = Instant::now();
        let r = run_program(w.name(), out, arch, &sim);
        let sim_s = secs(t);
        let counts = check_cell(w, arch, r, first[i].is_none(), gate);
        if let (Some(c), None) = (counts, first[i]) {
            first[i] = Some(c);
        }
        gate.check(counts.is_some() && counts == first[i], || {
            format!("{}/{arch}: counts changed between passes", w.name())
        });
        CellSample {
            gen_s,
            sim_s,
            insts,
        }
    };

    let budget = if trace { Duration::ZERO } else { budget };
    let samples = round_robin(cells.len(), budget, probe, |i, _| cell(i, gate));
    let peak_heap_mb = heap::peak_mb();
    let counts: Vec<SimCounts> = first.iter().map(|c| c.unwrap_or_default()).collect();
    for c in &counts {
        c.fold(&mut report.digest);
    }

    // The grid's own normalisation must equal `fig9`'s bit for bit.
    let tx = |arch: usize| -> Vec<u64> {
        (0..suite.len())
            .map(|wi| counts[wi * 5 + arch].tx_cycles)
            .collect()
    };
    let (b, iq, wb) = (tx(0), tx(2), tx(3));
    let norm_iq = geomean_ratio(&iq, &b);
    let norm_wb = geomean_ratio(&wb, &b);
    if let Ok(fig) = &reference {
        gate.check(
            fig.geomean[2] == norm_iq && fig.geomean[3] == norm_wb,
            || {
                format!(
                    "normalised times {norm_iq}/{norm_wb} differ from fig9's {}/{}",
                    fig.geomean[2], fig.geomean[3]
                )
            },
        );
        for (wi, row) in fig.rows.iter().enumerate() {
            let mine: Vec<u64> = (0..5).map(|a| counts[wi * 5 + a].tx_cycles).collect();
            gate.check(row.cycles.as_slice() == mine.as_slice(), || {
                format!(
                    "{}: cycles {mine:?} differ from fig9's {:?}",
                    row.app, row.cycles
                )
            });
        }
    }

    let retired = counts.iter().map(|c| c.retired).sum::<u64>() as f64;
    let gen = |s: &CellSample| s.gen_s;
    let simulate = |s: &CellSample| s.sim_s;
    let total = |s: &CellSample| s.gen_s + s.sim_s;
    report.e2e = EndToEnd {
        wall_s: per_job_at_reference(&samples, total),
        peak_heap_mb,
        setup_s: per_job_at_reference(&samples, gen),
        sim_kips: retired / per_job_at_reference(&samples, simulate) / 1e3,
        exec_time_norm_iq: norm_iq,
        exec_time_norm_wb: norm_wb,
        measured: [
            per_job_measured(&samples, total),
            per_job_measured(&samples, gen),
            retired / per_job_measured(&samples, simulate) / 1e3,
        ],
    };
    report.notes.push(format!(
        "paper_grid: {} cells, {} pass(es); paper reference exec_time_norm IQ 0.85, WB 0.80 \
         (this model is not validated against hardware)",
        cells.len(),
        samples[0].len()
    ));

    if trace {
        let untraced_wall_s: f64 = samples.iter().map(|s| total(&s[0].value)).sum();
        let insts = samples.iter().map(|s| s[0].value.insts).sum();
        report.layers = Some(traced_pass(
            &suite,
            &cells,
            &params,
            &sim,
            &counts,
            untraced_wall_s,
            insts,
            gate,
        ));
    }
    report
}

/// Checks one simulated cell (execution dependences honoured on the
/// first pass) and returns its counts.
fn check_cell(
    w: &dyn Workload,
    arch: ArchConfig,
    r: Result<RunResult, ede_sim::SimError>,
    first_pass: bool,
    gate: &mut Gate,
) -> Option<SimCounts> {
    match r {
        Ok(r) => {
            if first_pass {
                let v = r.execution_violations();
                gate.check(v.is_empty(), || {
                    format!(
                        "{}/{arch}: {} execution-dependence violation(s)",
                        w.name(),
                        v.len()
                    )
                });
            }
            Some(SimCounts::of(&r))
        }
        Err(e) => {
            gate.check(false, || {
                format!("{}/{arch}: simulation failed: {e}", w.name())
            });
            None
        }
    }
}

/// Runs the reduced cells on the fast-forward and the reference path and
/// checks that the two give identical results.
fn fast_forward_differential(
    suite: &[Box<dyn Workload>],
    params: &WorkloadParams,
    gate: &mut Gate,
) {
    let fast = SimConfig::a72();
    let mut slow = fast.clone();
    slow.cpu.fast_forward = false;
    for w in suite.iter().filter(|w| REFERENCE_APPS.contains(&w.name())) {
        for arch in ArchConfig::ALL {
            let a = run_workload(w.as_ref(), params, arch, &fast);
            let b = run_workload(w.as_ref(), params, arch, &slow);
            let same = match (&a, &b) {
                (Ok(a), Ok(b)) => same_run(a, b),
                _ => false,
            };
            gate.check(same, || {
                format!(
                    "{}/{arch}: fast-forward and reference paths differ",
                    w.name()
                )
            });
        }
    }
}

/// Whether two runs report the same simulated behaviour in every
/// observable the runner returns.
fn same_run(a: &RunResult, b: &RunResult) -> bool {
    a.cycles == b.cycles
        && a.tx_cycles == b.tx_cycles
        && a.retired == b.retired
        && a.squashes == b.squashes
        && a.issue_hist == b.issue_hist
        && a.nvm_occupancy == b.nvm_occupancy
        && a.mem_stats == b.mem_stats
        && a.timings == b.timings
        && a.trace == b.trace
        && a.attribution == b.attribution
        && a.metrics.to_json() == b.metrics.to_json()
}

/// One traced pass over the grid, checked against the untraced counts;
/// the comparison is left out of `traced_wall_s`.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    suite: &[Box<dyn Workload>],
    cells: &[(usize, ArchConfig)],
    params: &WorkloadParams,
    sim: &SimConfig,
    counts: &[SimCounts],
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
        let run = run_timed(w.name(), out, arch, sim, None);
        excluded(&mut own_s, || match run {
            Ok((r, split)) => {
                l.sim.add(&split);
                l.cycles += r.cycles;
                l.retired += r.retired;
                let c = SimCounts::of(&r);
                c.fold(&mut l.digest);
                gate.check(c == counts[i], || {
                    format!("{}/{arch}: traced and untraced counts differ", w.name())
                });
            }
            Err(e) => {
                SimCounts::default().fold(&mut l.digest);
                gate.check(false, || {
                    format!("{}/{arch}: traced run failed: {e}", w.name())
                })
            }
        });
    }
    l.traced_wall_s = secs(start) - own_s;
    l
}
