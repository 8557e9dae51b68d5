//! `campaign_mix`: the fuzz, explore (`--tx` source), inject and corrupt
//! campaigns at fixed seeds, one worker each. The same layers as the
//! other workloads, used differently: thousands of tiny programs, so the
//! cost of building each core and memory system dominates rather than
//! busy cycles, and the crash oracle is reached through `check_image` on
//! model images and through triage on corrupted ones.
//!
//! The campaigns return verdicts, not per-layer times, so the fuzz cases
//! are also replayed here through the public `golden::run`,
//! `run_program_traced` and `check_run`: the replay checks every case,
//! gives the simulated counts and, traced, the split between the golden
//! model, simulation and the conformance checker.

use crate::instr::run_timed;
use crate::{
    excluded, geomean_ratio, heap, median, per_job_at_reference, per_job_measured, round_robin,
    secs, Digest, EndToEnd, Gate, Layers, Probe, Report, Sample, SimCounts, Sizes,
};
use ede_check::explore::{explore_campaign, ExploreOptions, Source};
use ede_check::fuzz::{fuzz_campaign, FuzzOptions};
use ede_check::gen::{cmds_strategy, concretize};
use ede_check::golden::{self, GoldenConfig};
use ede_check::inject::{inject_campaign, InjectOptions};
use ede_check::{check_run, corrupt_campaign, CorruptOptions};
use ede_cpu::ptrace::{PipeObserver, PipeRecorder};
use ede_isa::{ArchConfig, Program};
use ede_sim::{raw_output, run_program_traced, SimConfig};
use ede_util::check::Strategy;
use ede_util::rng::{mix64, SmallRng, SplitMix64};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Fuzz cases per `sim_kips` sample; the metric is the median sample.
const REPLAY_CHUNK: usize = 100;

/// How many times the gate replays the fuzz cases. Every pass must give
/// the same counts; `sim_kips` is the median over the chunks of all of
/// them, so that one burst of host load moves it less.
const REPLAY_PASSES: usize = 3;

/// How many times the fuzz programs are built before each fuzz campaign;
/// the set-up time is the median. One build takes about 16 ms.
const SETUP_REPEATS: usize = 5;

/// The four campaigns' options for one seed.
struct Campaigns {
    fuzz: FuzzOptions,
    explore: ExploreOptions,
    inject: InjectOptions,
    corrupt: CorruptOptions,
}

impl Campaigns {
    fn new(seed: u64, sizes: &Sizes) -> Campaigns {
        Campaigns {
            fuzz: FuzzOptions {
                seed,
                cases: sizes.fuzz_cases,
                jobs: 1,
                ..FuzzOptions::default()
            },
            explore: ExploreOptions {
                source: Source::Tx {
                    cases: sizes.explore_tx,
                },
                seed,
                jobs: 1,
                ..ExploreOptions::default()
            },
            inject: InjectOptions {
                seed,
                cases: sizes.inject_cases,
                jobs: 1,
                ..InjectOptions::default()
            },
            corrupt: CorruptOptions {
                seed,
                cases: sizes.corrupt_cases,
                jobs: 1,
                ..CorruptOptions::default()
            },
        }
    }

    /// Runs campaign `i` (fuzz, explore, inject, corrupt): whether its
    /// verdict is ok, its units of work, and the digest of its report.
    fn run(&self, i: usize) -> (bool, u64, String) {
        match i {
            0 => match fuzz_campaign(&self.fuzz) {
                Ok(r) => (
                    r.failure.is_none() && !r.interrupted && r.quarantined.is_empty(),
                    u64::from(r.cases_run),
                    format!("{r:?}"),
                ),
                Err(e) => (false, 0, e.to_string()),
            },
            1 => match explore_campaign(&self.explore) {
                Ok(r) => (
                    r.all_proved() && !r.interrupted && r.quarantined.is_empty(),
                    r.cells.iter().map(|c| c.states).sum(),
                    r.to_json(),
                ),
                Err(e) => (false, 0, e.to_string()),
            },
            2 => match inject_campaign(&self.inject) {
                Ok(r) => (
                    r.all_covered() && !r.interrupted && r.quarantined.is_empty(),
                    r.cells.len() as u64 * u64::from(r.cases),
                    r.to_json(),
                ),
                Err(e) => (false, 0, e.to_string()),
            },
            _ => match corrupt_campaign(&self.corrupt) {
                Ok(r) => (
                    r.contract_holds() && !r.interrupted && r.quarantined.is_empty(),
                    r.cells.len() as u64 * u64::from(r.cases),
                    r.to_json(),
                ),
                Err(e) => (false, 0, e.to_string()),
            },
        }
    }
}

const CAMPAIGNS: [&str; 4] = ["fuzz", "explore", "inject", "corrupt"];

/// One timed campaign: its seconds, and before the fuzz campaign the
/// median seconds spent building the fuzz programs (the set-up).
struct Timed {
    setup_s: f64,
    campaign_s: f64,
}

/// The fuzz campaign's simulation settings (the campaign's own are
/// private): the A72 machine with a two-million-cycle budget.
fn fuzz_sim() -> SimConfig {
    let mut sim = SimConfig::a72();
    sim.max_cycles = 2_000_000;
    sim
}

/// The programs the fuzz campaign checks, regenerated from its seed
/// stream.
fn fuzz_programs(opts: &FuzzOptions) -> Vec<Program> {
    let mut seeds = SplitMix64::new(mix64(opts.seed));
    let strat = cmds_strategy(opts.max_cmds);
    (0..opts.cases)
        .map(|_| {
            let mut rng = SmallRng::seed_from_u64(seeds.next_u64());
            concretize(&strat.generate(&mut rng).value)
        })
        .collect()
}

/// What replaying the fuzz programs found.
#[derive(Default)]
struct Replay {
    /// Conformance diffs and failures, one line each.
    problems: Vec<String>,
    /// Cycles per program on each of the campaign's architectures.
    cycles: Vec<Vec<u64>>,
    /// Per chunk of programs: retired instructions and simulation seconds.
    chunks: Vec<Sample<(u64, f64)>>,
    /// Seconds in the golden model, the simulator and the conformance
    /// checker: the replay without its probes and digest.
    work_s: f64,
    digest: Digest,
}

/// Replays every fuzz program on every architecture through the public
/// golden model, simulator and conformance checker, with a probe between
/// every two chunks.
fn replay(programs: &[Program], archs: &[ArchConfig], probe: &mut Probe) -> Replay {
    let sim = fuzz_sim();
    let mut out = Replay {
        cycles: vec![Vec::new(); archs.len()],
        ..Replay::default()
    };
    let mut before = probe.measure();
    for (chunk_i, chunk) in programs.chunks(REPLAY_CHUNK).enumerate() {
        let (mut retired, mut sim_s, mut own_s) = (0, 0.0, 0.0);
        let start = Instant::now();
        for (k, program) in chunk.iter().enumerate() {
            let case = chunk_i * REPLAY_CHUNK + k;
            for (ai, &arch) in archs.iter().enumerate() {
                let golden = match golden::run(program, &GoldenConfig::default()) {
                    Ok(g) => g,
                    Err(e) => {
                        out.problems
                            .push(format!("case {case}: golden model rejected it: {e}"));
                        continue;
                    }
                };
                let t = Instant::now();
                let run = run_program_traced("fuzz", raw_output(program.clone()), arch, &sim);
                sim_s += secs(t);
                match run {
                    Ok((r, rec)) => {
                        retired += r.retired;
                        out.cycles[ai].push(r.cycles);
                        excluded(&mut own_s, || SimCounts::of(&r).fold(&mut out.digest));
                        for d in check_run(&r, &rec, &golden) {
                            out.problems.push(format!("case {case} on {arch}: {d}"));
                        }
                    }
                    Err(e) => out.problems.push(format!("case {case} on {arch}: {e}")),
                }
            }
        }
        out.work_s += secs(start) - own_s;
        let after = probe.measure();
        out.chunks.push(Sample {
            value: (retired, sim_s),
            slowdown: (before + after) / 2.0,
        });
        before = after;
    }
    out
}

/// Runs `campaign_mix`; see [`crate::run`].
pub fn run(seed: u64, budget: Duration, trace: bool, sizes: &Sizes, probe: &mut Probe) -> Report {
    let campaigns = Campaigns::new(seed, sizes);
    let mut report = Report::default();
    let gate = &mut report.gate;

    // The gate: every replayed case conforms on every architecture.
    let archs = &campaigns.fuzz.archs;
    let programs = fuzz_programs(&campaigns.fuzz);
    let mut rep = replay(&programs, archs, probe);
    gate.check(rep.problems.is_empty(), || {
        format!(
            "fuzz replay: {} problem(s), first: {}",
            rep.problems.len(),
            rep.problems[0]
        )
    });
    let mut work_s = vec![rep.work_s];
    for _ in 1..REPLAY_PASSES {
        let again = replay(&programs, archs, probe);
        gate.check(
            again.problems.is_empty() && again.digest == rep.digest && again.cycles == rep.cycles,
            || "fuzz replay: a repeated replay differs".to_string(),
        );
        rep.chunks.extend(again.chunks);
        work_s.push(again.work_s);
    }
    rep.work_s = median(&work_s);
    // Not held while the timed campaigns' heap peak is measured.
    drop(programs);
    report.digest.u64(rep.digest.0);
    let arch_index = |a: ArchConfig| archs.iter().position(|&x| x == a);
    let norm = |a: ArchConfig| match (arch_index(ArchConfig::Baseline), arch_index(a)) {
        (Some(b), Some(x)) => geomean_ratio(&rep.cycles[x], &rep.cycles[b]),
        _ => 0.0,
    };

    // The timed jobs: the four campaigns, round-robin. Set-up is building
    // the fuzz programs, timed before each fuzz campaign.
    let mut first: Vec<Option<String>> = vec![None; CAMPAIGNS.len()];
    let mut work = [0u64; 4];
    let mut campaign = |i: usize, gate: &mut Gate| -> Timed {
        let mut setup_s = 0.0;
        if i == 0 {
            let builds: Vec<f64> = (0..SETUP_REPEATS)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(fuzz_programs(&campaigns.fuzz));
                    secs(t)
                })
                .collect();
            setup_s = median(&builds);
        }
        let t = Instant::now();
        let (ok, units, ledger) = campaigns.run(i);
        let s = secs(t);
        gate.check(ok, || {
            format!("{} campaign verdict not ok: {ledger}", CAMPAIGNS[i])
        });
        match &first[i] {
            None => {
                work[i] = units;
                first[i] = Some(ledger);
            }
            Some(f) => gate.check(*f == ledger, || {
                format!("{} campaign report changed between passes", CAMPAIGNS[i])
            }),
        }
        Timed {
            setup_s,
            campaign_s: s,
        }
    };
    let budget = if trace { Duration::ZERO } else { budget };
    let samples = round_robin(CAMPAIGNS.len(), budget, probe, |i, _| campaign(i, gate));
    let peak_heap_mb = heap::peak_mb();
    for ledger in first.iter().flatten() {
        report.digest.str(ledger);
    }
    // sim_kips is the median over replay chunks of each chunk's rate.
    let rate = |r: &(u64, f64)| r.0 as f64 / r.1 / 1e3;
    let chunk_rates = |scaled: bool| -> f64 {
        let rates: Vec<f64> = rep
            .chunks
            .iter()
            .map(|c| rate(&c.value) * if scaled { c.slowdown } else { 1.0 })
            .collect();
        median(&rates)
    };
    let campaign_s = |t: &Timed| t.campaign_s;
    let setup = |t: &Timed| t.setup_s;
    report.e2e = EndToEnd {
        wall_s: per_job_at_reference(&samples, campaign_s),
        peak_heap_mb,
        setup_s: per_job_at_reference(&samples[..1], setup),
        sim_kips: chunk_rates(true),
        exec_time_norm_iq: norm(ArchConfig::IssueQueue),
        exec_time_norm_wb: norm(ArchConfig::WriteBuffer),
        measured: [
            per_job_measured(&samples, campaign_s),
            per_job_measured(&samples[..1], setup),
            chunk_rates(false),
        ],
    };
    let per_s: Vec<String> = CAMPAIGNS
        .iter()
        .zip(work.iter().zip(&samples))
        .map(|(name, (&w, s))| {
            let m = per_job_measured(std::slice::from_ref(s), campaign_s);
            format!("{name} {w} in {m:.3} s")
        })
        .collect();
    report.notes.push(format!(
        "campaign_mix: {} pass(es); {}",
        samples[0].len(),
        per_s.join(", ")
    ));

    if trace {
        // The traced pass stands in for the fuzz campaign with the replay,
        // so it is compared with the same untraced work: building the fuzz
        // programs, the untraced replay and the other three campaigns.
        let untraced_wall_s = samples[0][0].value.setup_s
            + rep.work_s
            + samples[1..]
                .iter()
                .map(|s| s[0].value.campaign_s)
                .sum::<f64>();
        let mut l = Layers {
            untraced_wall_s,
            fuzz_campaign_s: samples[0][0].value.campaign_s,
            fuzz_cases: work[0],
            explore_states: work[1],
            inject_cases: work[2],
            corrupt_images: work[3],
            ..Layers::default()
        };
        let start = Instant::now();
        let t = Instant::now();
        let programs = fuzz_programs(&campaigns.fuzz);
        l.generate_s = secs(t);
        l.insts = programs.iter().map(|p| p.len() as u64).sum();
        let (replay_digest, mut own_s) = traced_replay(&programs, archs, &rep, &mut l, gate);
        // Folded as the report digest is; the fuzz campaign itself is not
        // run again, its replay stands for it.
        l.digest.u64(replay_digest.0);
        l.digest.str(first[0].as_deref().unwrap_or_default());
        for i in 1..CAMPAIGNS.len() {
            let t = Instant::now();
            let (ok, _, ledger) = campaigns.run(i);
            let s = secs(t);
            match i {
                1 => l.explore_s = s,
                2 => l.inject_s = s,
                _ => l.corrupt_s = s,
            }
            excluded(&mut own_s, || {
                gate.check(ok && first[i].as_ref() == Some(&ledger), || {
                    format!(
                        "{} campaign (traced): verdict not ok or report changed",
                        CAMPAIGNS[i]
                    )
                });
                l.digest.str(&ledger);
            });
        }
        l.traced_wall_s = secs(start) - own_s;
        report.layers = Some(l);
    }
    report
}

/// The fuzz replay with every layer timed, checked against the untraced
/// replay's digest. Returns the traced replay's digest and the seconds
/// spent computing it, which the caller leaves out of the traced wall.
fn traced_replay(
    programs: &[Program],
    archs: &[ArchConfig],
    untraced: &Replay,
    l: &mut Layers,
    gate: &mut Gate,
) -> (Digest, f64) {
    let sim = fuzz_sim();
    let mut digest = Digest::default();
    let mut own_s = 0.0;
    let mut clean = true;
    for program in programs {
        for &arch in archs {
            let t = Instant::now();
            let golden = golden::run(program, &GoldenConfig::default());
            l.fuzz_golden_s += secs(t);
            let rec = Rc::new(RefCell::new(PipeRecorder::new()));
            let sink = Rc::clone(&rec);
            let observer: PipeObserver = Box::new(move |ev| sink.borrow_mut().push(ev));
            let t = Instant::now();
            let run = run_timed(
                "fuzz",
                raw_output(program.clone()),
                arch,
                &sim,
                Some(observer),
            );
            l.fuzz_sim_s += secs(t);
            let (Ok(golden), Ok((r, split))) = (golden, run) else {
                clean = false;
                continue;
            };
            l.sim.add(&split);
            l.cycles += r.cycles;
            l.retired += r.retired;
            excluded(&mut own_s, || SimCounts::of(&r).fold(&mut digest));
            let t = Instant::now();
            clean &= check_run(&r, &rec.borrow(), &golden).is_empty();
            l.fuzz_conform_s += secs(t);
        }
    }
    gate.check(clean && digest == untraced.digest, || {
        "fuzz replay: traced and untraced runs differ".to_string()
    });
    (digest, own_s)
}
