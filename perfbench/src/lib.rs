//! The repository benchmark: three batch workloads over the EDE simulator
//! and its checking tools, each timed end to end with tracing off and,
//! in a separate traced run, split layer by layer by timers placed around
//! the public calls into each crate.
//!
//! * [`grid`] — `paper_grid`, the Fig. 9 grid at the paper's sizes;
//! * [`sweep`] — `crash_sweep`, the exhaustive crash check at every
//!   persist point;
//! * [`mix`] — `campaign_mix`, the fuzz, explore, inject and corrupt
//!   campaigns at fixed seeds.
//!
//! Every workload checks its outputs before it reports a number: each
//! check counts as one attempted operation, and a failed one makes the
//! run incorrect. See `README.md` beside this crate for the metric
//! definitions and the reasons behind each workload.

#![deny(unsafe_code)]

pub mod grid;
#[allow(unsafe_code)]
pub mod heap;
pub mod instr;
pub mod mix;
pub mod sweep;

use ede_sim::RunResult;
use ede_workloads::WorkloadParams;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// The end-to-end metrics, with their units, in output order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("pass_frac", "frac"),
    ("sim_kips", "kinst/s"),
    ("exec_time_norm_iq", "ratio"),
    ("exec_time_norm_wb", "ratio"),
];

/// The per-layer metrics of the traced run, with their units, in output
/// order. Times in seconds are kept for layers every workload exercises;
/// a layer only some workloads reach is given as a share of the traced
/// wall time, and reads 0 where it does not run.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "frac"),
    ("workloads.generate_s", "s"),
    ("workloads.insts", "count"),
    ("workloads.ns_per_inst", "ns"),
    ("cpu.self_s", "s"),
    ("cpu.cycles", "count"),
    ("cpu.retired", "count"),
    ("cpu.ff_skipped_frac", "frac"),
    ("cpu.ns_per_busy_cycle", "ns"),
    ("mem.call_s", "s"),
    ("mem.calls", "count"),
    ("mem.ns_per_call", "ns"),
    ("mem.drain_s", "s"),
    ("sim.build_s", "s"),
    ("crash.rebuild_frac", "frac"),
    ("crash.recover_frac", "frac"),
    ("crash.oracle_frac", "frac"),
    ("crash.images", "count"),
    ("crash.images_per_s", "1/s"),
    ("fuzz.golden_frac", "frac"),
    ("fuzz.sim_frac", "frac"),
    ("fuzz.conform_frac", "frac"),
    ("fuzz.cases_per_s", "1/s"),
    ("explore.states_per_s", "1/s"),
    ("inject.cases_per_s", "1/s"),
    ("corrupt.images_per_s", "1/s"),
    ("explore.campaign_frac", "frac"),
    ("inject.campaign_frac", "frac"),
    ("corrupt.campaign_frac", "frac"),
];

/// The seed kept out of every sizing and tuning run, so that a later
/// claim can be rechecked on inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// The three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The Fig. 9 grid at the paper's sizes.
    PaperGrid,
    /// The exhaustive crash check at every persist point.
    CrashSweep,
    /// The fuzz, explore, inject and corrupt campaigns.
    CampaignMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::CrashSweep,
        Workload::CampaignMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::CrashSweep => "crash_sweep",
            Workload::CampaignMix => "campaign_mix",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of every workload. [`Sizes::full`] is what the benchmark
/// measures; [`Sizes::tiny`] keeps the benchmark's own tests fast.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// `paper_grid` parameters (the seed is set per run).
    pub grid: WorkloadParams,
    /// The reduced cells `paper_grid` runs on both the fast-forward and
    /// the reference path.
    pub grid_reference: WorkloadParams,
    /// `crash_sweep` parameters.
    pub sweep: WorkloadParams,
    /// Fuzz cases in `campaign_mix`.
    pub fuzz_cases: u32,
    /// Transactional programs the explorer enumerates.
    pub explore_tx: u32,
    /// Inject cases per (fault, architecture) cell.
    pub inject_cases: u32,
    /// Corrupt cases per (kind, architecture) cell.
    pub corrupt_cases: u32,
}

impl Sizes {
    /// The measured sizes.
    pub fn full() -> Sizes {
        Sizes {
            // The paper's Fig. 9 setting: 1000 operations in transactions
            // of 100, 20000 pre-populated keys, 128 Ki array elements.
            grid: WorkloadParams::default(),
            grid_reference: WorkloadParams {
                ops: 100,
                prepopulate: 2000,
                ..WorkloadParams::default()
            },
            // The tier-1 crash-consistency test sizes.
            sweep: WorkloadParams {
                ops: 90,
                ops_per_tx: 30,
                array_elems: 16 * 1024,
                prepopulate: 300,
                ..WorkloadParams::default()
            },
            fuzz_cases: 3000,
            explore_tx: 30,
            inject_cases: 4,
            corrupt_cases: 6,
        }
    }

    /// Sizes small enough for a test to run every workload in seconds.
    pub fn tiny() -> Sizes {
        let small = WorkloadParams {
            ops: 20,
            ops_per_tx: 10,
            array_elems: 1024,
            prepopulate: 50,
            ..WorkloadParams::default()
        };
        Sizes {
            grid: small,
            grid_reference: small,
            sweep: small,
            fuzz_cases: 20,
            explore_tx: 2,
            inject_cases: 1,
            corrupt_cases: 1,
        }
    }
}

/// The correctness gate: every check is one attempted operation.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Gate {
    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Share of checks that passed.
    pub fn pass_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// FNV-1a digest over the simulated counts and verdicts of a run: equal
/// digests mean a change left every simulated number as it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a number into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a string into the digest.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The simulated counts of one run that every pass, and the traced run,
/// must reproduce exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Transaction-phase cycles.
    pub tx_cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Pipeline squashes.
    pub squashes: u64,
    /// Store events in the persist trace.
    pub stores: u64,
    /// Persist events in the persist trace.
    pub persists: u64,
    /// Digest of the run's full metrics registry (every cpu, mem and nvm
    /// counter).
    pub metrics: u64,
}

impl SimCounts {
    /// The counts of `r`.
    pub fn of(r: &RunResult) -> SimCounts {
        let mut d = Digest::default();
        d.str(&r.metrics.to_json());
        SimCounts {
            cycles: r.cycles,
            tx_cycles: r.tx_cycles,
            retired: r.retired,
            squashes: r.squashes,
            stores: r.trace.stores.len() as u64,
            persists: r.trace.persists.len() as u64,
            metrics: d.0,
        }
    }

    /// Folds the counts into `d`.
    pub fn fold(&self, d: &mut Digest) {
        for v in [
            self.cycles,
            self.tx_cycles,
            self.retired,
            self.squashes,
            self.stores,
            self.persists,
            self.metrics,
        ] {
            d.u64(v);
        }
    }
}

/// The end-to-end metrics of an untraced run; host times are at the
/// reference speed (see [`Probe`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    /// Host seconds for one pass over the workload's jobs, set-up
    /// included: the sum over jobs of each job's median time.
    pub wall_s: f64,
    /// Host seconds spent building the jobs' inputs (medians of repeats).
    pub setup_s: f64,
    /// Peak MiB held allocated while the timed jobs ran (see [`heap`]).
    pub peak_heap_mb: f64,
    /// Simulated kilo-instructions retired per host second of simulation.
    pub sim_kips: f64,
    /// Simulated execution time of IQ normalised to B, geometric mean
    /// over the workload's programs.
    pub exec_time_norm_iq: f64,
    /// The same for WB.
    pub exec_time_norm_wb: f64,
    /// `wall_s`, `setup_s` and `sim_kips` as measured, unscaled (context).
    pub measured: [f64; 3],
}

/// Host time and work per layer, from the traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// Wall seconds of the traced pass.
    pub traced_wall_s: f64,
    /// Wall seconds of the untraced pass made in the same process.
    pub untraced_wall_s: f64,
    /// Seconds building programs (`Workload::generate`, or the fuzz
    /// generator on `campaign_mix`).
    pub generate_s: f64,
    /// Instructions in the generated programs.
    pub insts: u64,
    /// Core and memory-system split of every traced simulation.
    pub sim: instr::SimSplit,
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Digest of the traced pass's outputs, folded as [`Report::digest`]
    /// folds the untraced ones: equal digests mean tracing changed no
    /// simulated count or verdict.
    pub digest: Digest,
    /// Seconds rebuilding crash images (`nvm_image_at`).
    pub crash_rebuild_s: f64,
    /// Seconds in undo recovery (`recovery::recover`).
    pub crash_recover_s: f64,
    /// Seconds in `check_image` outside recovery.
    pub crash_oracle_s: f64,
    /// Crash images checked.
    pub crash_images: u64,
    /// Seconds in the golden model (`golden::run`).
    pub fuzz_golden_s: f64,
    /// Seconds simulating fuzz programs (`run_program_traced`'s work).
    pub fuzz_sim_s: f64,
    /// Seconds in the conformance checker (`check_run`).
    pub fuzz_conform_s: f64,
    /// Fuzz cases the campaign checked.
    pub fuzz_cases: u64,
    /// Seconds in `fuzz_campaign` (untraced).
    pub fuzz_campaign_s: f64,
    /// Seconds in `explore_campaign`.
    pub explore_s: f64,
    /// Crash states the explorer visited.
    pub explore_states: u64,
    /// Seconds in `inject_campaign`.
    pub inject_s: f64,
    /// Inject cases run.
    pub inject_cases: u64,
    /// Seconds in `corrupt_campaign`.
    pub corrupt_s: f64,
    /// Corrupted images triaged.
    pub corrupt_images: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Seconds the timed layers account for.
    pub fn attributed_s(&self) -> f64 {
        self.generate_s
            + self.sim.run_s
            + self.sim.drain_s
            + self.sim.build_s
            + self.crash_rebuild_s
            + self.crash_recover_s
            + self.crash_oracle_s
            + self.fuzz_golden_s
            + self.fuzz_conform_s
            + self.explore_s
            + self.inject_s
            + self.corrupt_s
    }

    /// The [`PER_LAYER`] values, in order.
    pub fn values(&self) -> [f64; 31] {
        let wall = self.traced_wall_s;
        let busy_cycles = self.cycles.saturating_sub(self.sim.ff_skipped) as f64;
        [
            wall,
            wall - self.attributed_s(),
            ratio(wall, self.untraced_wall_s) - 1.0,
            self.generate_s,
            self.insts as f64,
            ratio(self.generate_s * 1e9, self.insts as f64),
            self.sim.cpu_self_s(),
            self.cycles as f64,
            self.retired as f64,
            ratio(self.sim.ff_skipped as f64, self.cycles as f64),
            ratio(self.sim.cpu_self_s() * 1e9, busy_cycles),
            self.sim.mem_call_s,
            self.sim.mem_calls as f64,
            ratio(self.sim.mem_call_s * 1e9, self.sim.mem_calls as f64),
            self.sim.drain_s,
            self.sim.build_s,
            ratio(self.crash_rebuild_s, wall),
            ratio(self.crash_recover_s, wall),
            ratio(self.crash_oracle_s, wall),
            self.crash_images as f64,
            ratio(
                self.crash_images as f64,
                self.crash_rebuild_s + self.crash_recover_s + self.crash_oracle_s,
            ),
            ratio(self.fuzz_golden_s, wall),
            ratio(self.fuzz_sim_s, wall),
            ratio(self.fuzz_conform_s, wall),
            ratio(self.fuzz_cases as f64, self.fuzz_campaign_s),
            ratio(self.explore_states as f64, self.explore_s),
            ratio(self.inject_cases as f64, self.inject_s),
            ratio(self.corrupt_images as f64, self.corrupt_s),
            ratio(self.explore_s, wall),
            ratio(self.inject_s, wall),
            ratio(self.corrupt_s, wall),
        ]
    }
}

/// What one run of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The correctness gate.
    pub gate: Gate,
    /// Digest of every simulated count and verdict.
    pub digest: Digest,
    /// End-to-end metrics (untraced run).
    pub e2e: EndToEnd,
    /// Per-layer metrics (traced run only).
    pub layers: Option<Layers>,
    /// The run's median [`Probe`] slowdown (context only: each job's
    /// time is scaled by the probes around it).
    pub slowdown: f64,
    /// Context lines printed before the result.
    pub notes: Vec<String>,
}

/// Runs `workload` once: the gate, then the measurement, for `budget` of
/// host time when untraced, or one untraced and one traced pass when
/// `trace` is set.
pub fn run(workload: Workload, seed: u64, budget: Duration, trace: bool, sizes: &Sizes) -> Report {
    let mut probe = Probe::default();
    let mut report = match workload {
        Workload::PaperGrid => grid::run(seed, budget, trace, sizes, &mut probe),
        Workload::CrashSweep => sweep::run(seed, budget, trace, sizes, &mut probe),
        Workload::CampaignMix => mix::run(seed, budget, trace, sizes, &mut probe),
    };
    report.slowdown = probe.median_slowdown();
    report
}

/// Median seconds one [`Probe::measure`] takes on the reference host: the
/// shared 2-core x86-64 VM the benchmark was sized on, in its faster
/// regime.
pub const PROBE_REFERENCE_S: f64 = 0.020;

/// A fixed calibration load, timed between the jobs of every run.
///
/// A shared host runs the same code at speeds that differ by a third or
/// more for minutes at a time (other tenants), which no median within
/// one run can remove. The end-to-end host times are therefore reported
/// at the reference host's speed: each timed job is bracketed by two
/// probes, and its time is divided by their mean over
/// [`PROBE_REFERENCE_S`] (rates are multiplied). The probe lives in the
/// benchmark, so a change to the program cannot move it, and it
/// allocates nothing while timed, so the program's heap state cannot
/// either.
#[derive(Clone, Debug)]
pub struct Probe {
    set: BTreeSet<u64>,
    map: HashMap<u64, u64>,
    queue: VecDeque<u64>,
    samples: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        let mut x = 11u64;
        let mut set = BTreeSet::new();
        let mut map = HashMap::new();
        for i in 0..16_384u64 {
            x = lcg(x);
            if i < 4096 {
                set.insert(x >> 40);
            }
            map.insert(i, x);
        }
        Probe {
            set,
            map,
            queue: VecDeque::with_capacity(128),
            samples: Vec::new(),
        }
    }
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

impl Probe {
    /// Times one round of hash-map updates, ordered-set range queries and
    /// queue traffic, the operations the simulator itself is made of, and
    /// returns the host's slowdown against the reference right now.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let (mut x, mut acc) = (5u64, 0u64);
        for i in 0..200_000u64 {
            x = lcg(x);
            if let Some(v) = self.map.get_mut(&(x % 16_384)) {
                *v = v.wrapping_add(i);
                acc ^= *v;
            }
            if let Some(&k) = self.set.range((x >> 40)..).next() {
                acc = acc.wrapping_add(k);
            }
            self.queue.push_back(x);
            if self.queue.len() > 64 {
                acc ^= self.queue.pop_front().unwrap_or(0);
            }
            if x & 1 == 0 {
                acc = acc.rotate_left(5);
            }
        }
        std::hint::black_box(acc);
        let s = secs(t);
        self.samples.push(s);
        s / PROBE_REFERENCE_S
    }

    /// The median slowdown over every probe so far (1 before any).
    pub fn median_slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            median(&self.samples) / PROBE_REFERENCE_S
        }
    }
}

/// One job's output and the host's slowdown while it ran: the mean of
/// the probes just before and just after it.
#[derive(Clone, Copy, Debug)]
pub struct Sample<T> {
    /// What the job returned.
    pub value: T,
    /// Host slowdown against the reference around this job.
    pub slowdown: f64,
}

/// Runs `n` jobs round-robin, every job at least once, starting no new
/// job after `budget` has elapsed, with a probe between every two jobs.
/// `job(i, pass)` returns one value; the result holds each job's samples
/// in pass order. The [`heap`] peak restarts here, so that after the call
/// it is the peak of the timed jobs.
pub fn round_robin<T>(
    n: usize,
    budget: Duration,
    probe: &mut Probe,
    mut job: impl FnMut(usize, usize) -> T,
) -> Vec<Vec<Sample<T>>> {
    heap::reset_peak();
    let start = Instant::now();
    let mut samples: Vec<Vec<Sample<T>>> = (0..n).map(|_| Vec::new()).collect();
    let mut before = probe.measure();
    for pass in 0.. {
        for (i, s) in samples.iter_mut().enumerate() {
            if pass > 0 && start.elapsed() >= budget {
                return samples;
            }
            let value = job(i, pass);
            let after = probe.measure();
            s.push(Sample {
                value,
                slowdown: (before + after) / 2.0,
            });
            before = after;
        }
        if n == 0 {
            break;
        }
    }
    samples
}

/// The sum over jobs of each job's median of `f(value) / slowdown`: one
/// pass's host time at the reference speed.
pub fn per_job_at_reference<T>(samples: &[Vec<Sample<T>>], f: impl Fn(&T) -> f64) -> f64 {
    samples
        .iter()
        .map(|s| {
            median(
                &s.iter()
                    .map(|x| f(&x.value) / x.slowdown)
                    .collect::<Vec<_>>(),
            )
        })
        .sum()
}

/// The same sum with times as measured.
pub fn per_job_measured<T>(samples: &[Vec<Sample<T>>], f: impl Fn(&T) -> f64) -> f64 {
    samples
        .iter()
        .map(|s| median(&s.iter().map(|x| f(&x.value)).collect::<Vec<_>>()))
        .sum()
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs the benchmark's own bookkeeping `f` (digests, comparisons)
/// inside a timed window, adding its seconds to `own_s` so that the
/// window can leave them out.
pub fn excluded<T>(own_s: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    *own_s += secs(t);
    r
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out at `root`: `.git/HEAD`, followed through a
/// loose or packed ref. `None` where `root` is not a git checkout.
pub fn commit_at(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref:") {
        None => head.to_string(),
        Some(name) => {
            let name = name.trim();
            match std::fs::read_to_string(git.join(name)) {
                Ok(h) => h.trim().to_string(),
                Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find_map(|l| {
                        l.strip_suffix(name)
                            .filter(|h| h.ends_with(' '))
                            .map(|h| h.trim().to_string())
                    })?,
            }
        }
    };
    let is_hash = hash.len() >= 40 && hash.bytes().all(|b| b.is_ascii_hexdigit());
    is_hash.then_some(hash)
}

/// FNV-1a digest of the source the benchmark measures: every file under
/// `crates/` and `perfbench/src/`, and the manifests and lock files, by
/// path and content. It names the measured code where no commit can be
/// read (a checkout without `.git`).
pub fn source_digest(root: &Path) -> Digest {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&path, files),
                Ok(t) if t.is_file() => files.push(path),
                _ => {}
            }
        }
    }
    let mut files: Vec<_> = [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ]
    .iter()
    .map(|f| root.join(f))
    .collect();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        d.str(&rel.to_string_lossy());
        d.bytes(&std::fs::read(f).unwrap_or_default());
    }
    d
}

/// The geometric mean of `num[i] / den[i]`, computed as `fig9` does; a
/// program that takes no cycles (an empty fuzz case) counts as ratio 1.
pub fn geomean_ratio(num: &[u64], den: &[u64]) -> f64 {
    let xs: Vec<f64> = num
        .iter()
        .zip(den)
        .map(|(&n, &d)| n.max(1) as f64 / d.max(1) as f64)
        .collect();
    ede_sim::geomean(&xs)
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` — the per-layer metrics for a traced report,
/// the end-to-end ones otherwise.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = match &report.layers {
        Some(layers) => PER_LAYER
            .iter()
            .zip(layers.values())
            .map(|(&(name, unit), v)| metric_json(name, v, unit))
            .collect(),
        None => {
            let e = &report.e2e;
            let values = [
                e.wall_s,
                e.setup_s,
                e.peak_heap_mb,
                report.gate.pass_frac(),
                e.sim_kips,
                e.exec_time_norm_iq,
                e.exec_time_norm_wb,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| metric_json(name, v, unit))
                .collect()
        }
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.gate.failed == 0,
        report.gate.attempted,
        report.gate.failed,
        metrics.join(", ")
    )
}
