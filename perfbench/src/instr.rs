//! The traced runner: the same simulation `ede_sim::run_program` performs,
//! assembled here from public crate items so that the benchmark can put a
//! timing [`MemPort`] between the core and the memory system. No span
//! lives inside the program; every timer is in this package.
//!
//! The runner must stay observably identical to `run_program`: the
//! workloads compare its simulated counts with the untraced path's and
//! fail the run on any difference.

use ede_cpu::ptrace::PipeObserver;
use ede_cpu::{Core, MemPort};
use ede_isa::ArchConfig;
use ede_mem::{MemResp, MemSystem, ReqId, ReqKind};
use ede_nvm::TxOutput;
use ede_sim::{RunResult, SimConfig, SimError};
use ede_util::obs::Registry;
use std::cell::Cell;
use std::time::Instant;

/// Host time of one simulation, split between the core and the memory
/// system it calls.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimSplit {
    /// Seconds in `Core::run`, memory-system calls included.
    pub run_s: f64,
    /// Seconds inside `MemSystem` calls made by the core.
    pub mem_call_s: f64,
    /// `MemSystem` calls made by the core.
    pub mem_calls: u64,
    /// Seconds draining in-flight media writes after the core finished.
    pub drain_s: f64,
    /// Seconds building the core and memory system and assembling the
    /// result: the whole call minus `run_s` and `drain_s`.
    pub build_s: f64,
    /// Cycles the fast-forward kernel skipped.
    pub ff_skipped: u64,
}

impl SimSplit {
    /// Adds another run's split to this one.
    pub fn add(&mut self, o: &SimSplit) {
        self.run_s += o.run_s;
        self.mem_call_s += o.mem_call_s;
        self.mem_calls += o.mem_calls;
        self.drain_s += o.drain_s;
        self.build_s += o.build_s;
        self.ff_skipped += o.ff_skipped;
    }

    /// Core self time: `Core::run` minus the memory calls it made.
    pub fn cpu_self_s(&self) -> f64 {
        self.run_s - self.mem_call_s
    }
}

/// Time and count of the calls made into the memory system.
#[derive(Default)]
struct CallClock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl CallClock {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }
}

/// A [`MemSystem`] that times every call the core makes into it.
struct TimedMem {
    inner: MemSystem,
    clock: CallClock,
}

impl MemPort for TimedMem {
    fn can_accept(&self) -> bool {
        self.clock.time(|| self.inner.can_accept())
    }

    fn try_access(&mut self, kind: ReqKind, addr: u64, now: u64) -> Option<ReqId> {
        self.clock.time(|| self.inner.try_access(kind, addr, now))
    }

    fn tick(&mut self, now: u64) -> Vec<MemResp> {
        self.clock.time(|| self.inner.tick(now))
    }

    fn next_event_cycle(&self) -> Option<u64> {
        self.clock.time(|| self.inner.next_event_cycle())
    }
}

/// Simulates `output` on `arch` like `ede_sim::run_program`, with the
/// core's memory calls timed and an optional pipeline observer attached.
///
/// # Errors
///
/// The [`SimError`] `run_program` would return for the same input.
pub fn run_timed(
    name: &str,
    output: TxOutput,
    arch: ArchConfig,
    sim: &SimConfig,
    observer: Option<PipeObserver>,
) -> Result<(RunResult, SimSplit), SimError> {
    let call = Instant::now();
    let mem = TimedMem {
        inner: MemSystem::new(sim.mem.clone()),
        clock: CallClock::default(),
    };
    let mut core = Core::new(sim.cpu_for(arch), output.program.clone(), mem);
    if let Some(obs) = observer {
        core.set_observer(obs);
    }
    let t = Instant::now();
    let stats = core.run(sim.max_cycles)?;
    let run_s = t.elapsed().as_secs_f64();
    let ff_skipped = core.fast_forward_skipped();
    let timed = core.into_mem();
    let mut split = SimSplit {
        run_s,
        mem_call_s: timed.clock.ns.get() as f64 * 1e-9,
        mem_calls: timed.clock.calls.get(),
        drain_s: 0.0,
        build_s: 0.0,
        ff_skipped,
    };
    let mut mem = timed.inner;
    let t = Instant::now();
    let mut now = stats.cycles;
    while !mem.idle() {
        now = if sim.cpu.fast_forward {
            mem.next_event_cycle().map_or(now + 1, |e| e.max(now + 1))
        } else {
            now + 1
        };
        mem.tick(now);
    }
    split.drain_s = t.elapsed().as_secs_f64();

    let mem_stats = *mem.stats();
    let nvm_occupancy = mem.persist_buffer().occupancy_histogram().to_vec();
    let mut metrics = Registry::new();
    stats.report(&mut metrics);
    mem.report(&mut metrics);
    output.report(&mut metrics);
    let mut result = RunResult {
        workload: name.to_string(),
        arch,
        cycles: stats.cycles,
        tx_cycles: 0,
        retired: stats.retired,
        squashes: stats.squashes,
        stalls: stats.stalls,
        issue_hist: stats.issue_hist,
        nvm_occupancy,
        mem_stats,
        timings: stats.timings,
        trace: mem.into_trace(),
        attribution: stats.attribution,
        metrics,
        output,
    };
    result.tx_cycles = result.cycles.saturating_sub(result.tx_phase_start_cycle());
    split.build_s = call.elapsed().as_secs_f64() - split.run_s - split.drain_s;
    Ok((result, split))
}
