//! The six workloads and the set-up / measure scaffolding they share.
//!
//! Every workload builds its inputs from the seed, sets up several times
//! (the median is `setup_s`), then runs whole operations until the time
//! budget is spent, timing only calls into the layers' public APIs and
//! checking every output before it counts.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use calloc::CallocConfig;
use calloc_eval::{Suite, SuiteProfile};
use calloc_sim::{BuildingId, CollectionConfig, ScenarioSet, ScenarioSpec};

use crate::loadgen::Tally;
use crate::trace::{self, timed};

pub mod serve;
pub mod sweep;
pub mod track;
mod train;

/// Set-up repetitions at least, and until this much set-up time has
/// accumulated (bounded), so a cheap set-up still yields a steady median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 200;

/// Failure messages kept per run; the count is always exact.
const MAX_FAILURES: usize = 8;

/// One benchmark run's inputs.
pub struct Ctx {
    /// Workload seed: collection, sweep, trajectory and request order.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Run-private directory for model caches and result stores.
    pub scratch: PathBuf,
    /// Committed digests for this seed (empty for other seeds).
    pub expected: BTreeMap<String, u64>,
}

/// A serving phase's requests, and the engine's batching while it ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Request accounting.
    pub tally: Tally,
    /// Queries the engine served during the phase (0 when not observed).
    pub served: u64,
    /// Batches the engine dispatched during the phase.
    pub batches: u64,
}

impl Phase {
    /// Served queries per dispatched batch, when batches were observed.
    pub fn mean_batch(&self) -> Option<f64> {
        (self.batches > 0).then(|| self.served as f64 / self.batches as f64)
    }
}

/// What a measurement collected.
#[derive(Debug, Default)]
pub struct Sink {
    /// Latency of each operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Throughput samples (work units per second), one per operation or
    /// per time window; their median is `work_per_s`, which a stall
    /// confined to one sample cannot move.
    pub rates: Vec<f64>,
    /// Per-window 90th percentiles of `op_ms`, for workloads with enough
    /// operations to fill windows; their median is then `op_p90_ms`.
    pub tails: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, correctness violations included.
    pub failed: u64,
    /// The first [`MAX_FAILURES`] failure messages.
    pub failures: Vec<String>,
    /// Output digests, by name.
    pub digests: BTreeMap<String, u64>,
    /// Serving phases, one per name.
    pub phases: Vec<Phase>,
    /// Open-loop generator lateness of every request, in milliseconds.
    pub late_ms: Vec<f64>,
    /// Further values for the result record, written once the
    /// measurement is over.
    pub side: BTreeMap<String, f64>,
}

impl Sink {
    /// Records one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURES {
            self.failures.push(message);
        }
    }

    /// Records an output digest: it must equal every earlier digest of
    /// the same output in this run and the committed one for this seed.
    pub fn digest(&mut self, key: &str, value: u64, expected: &BTreeMap<String, u64>) {
        if let Some(&prev) = self.digests.get(key) {
            if prev != value {
                self.fail(format!(
                    "{key}: {value:016x} differs from {prev:016x} earlier in this run"
                ));
            }
        }
        if let Some(&want) = expected.get(key) {
            if want != value {
                self.fail(format!(
                    "{key}: {value:016x} differs from committed {want:016x}"
                ));
            }
        }
        self.digests.insert(key.to_string(), value);
    }

    /// Adds a phase's counts to the phase of the same name.
    pub fn add_phase(&mut self, phase: Phase) {
        match self.phases.iter_mut().find(|p| p.name == phase.name) {
            Some(p) => {
                p.tally.absorb(&phase.tally);
                p.served += phase.served;
                p.batches += phase.batches;
            }
            None => self.phases.push(phase),
        }
    }

    /// Records one operation that completed `units` of work in `secs`.
    pub fn op(&mut self, units: f64, secs: f64) {
        self.op_ms.push(secs * 1e3);
        self.rates.push(units / secs);
    }

    /// Median throughput, when any was measured.
    pub fn work_per_s(&self) -> Option<f64> {
        (!self.rates.is_empty()).then(|| crate::stats::median(&self.rates))
    }

    /// The operations' 90th percentile: the median of the per-window
    /// tails where the workload windowed them, else over all operations.
    pub fn op_p90_ms(&self) -> Option<f64> {
        if !self.tails.is_empty() {
            return Some(crate::stats::median(&self.tails));
        }
        (!self.op_ms.is_empty())
            .then(|| crate::stats::nearest_rank(&crate::stats::sorted(&self.op_ms), 90.0))
    }

    /// Folds another measurement of the same workload into this one.
    fn merge(&mut self, other: Sink) {
        debug_assert!(other.side.is_empty(), "side values come after measuring");
        self.op_ms.extend(other.op_ms);
        self.rates.extend(other.rates);
        self.tails.extend(other.tails);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        // A traced half whose outputs differ from the untraced half's
        // fails like any other in-run disagreement.
        for (key, value) in other.digests {
            self.digest(&key, value, &BTreeMap::new());
        }
        for phase in other.phases {
            self.add_phase(phase);
        }
    }
}

/// The traced half of a traced run.
pub struct TraceWindow {
    /// Trace thread id of the measuring thread.
    pub tid: u32,
    /// Window start, trace nanoseconds.
    pub from_ns: u64,
    /// Window end, trace nanoseconds.
    pub to_ns: u64,
    /// Untraced median throughput over traced median throughput.
    pub overhead_ratio: f64,
}

/// A finished workload run.
pub struct Measured {
    /// Each set-up's duration, in seconds.
    pub setup_s: Vec<f64>,
    /// The measurement.
    pub sink: Sink,
    /// Present on traced runs.
    pub window: Option<TraceWindow>,
}

/// Builds the workload state repeatedly, tearing each previous one down
/// untimed, and returns the last state with every set-up's duration.
pub fn setup<S>(
    mut build: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut state = None;
    while times.len() < SETUP_MIN_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_TOTAL.as_secs_f64()
            && times.len() < SETUP_MAX_REPS)
    {
        if let Some(previous) = state.take() {
            teardown(previous);
        }
        let start = Instant::now();
        state = Some(build()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), times))
}

/// Runs `run(state, budget, sink)` once untraced; on a traced run, runs
/// it for half the budget untraced and half traced instead, so the two
/// halves give the tracing overhead.
pub fn measure<S>(
    ctx: &Ctx,
    state: &mut S,
    mut run: impl FnMut(&mut S, Duration, &mut Sink),
) -> (Sink, Option<TraceWindow>) {
    let mut sink = Sink::default();
    if !ctx.trace {
        run(state, ctx.budget, &mut sink);
        return (sink, None);
    }
    let half = ctx.budget / 2;
    run(state, half, &mut sink);
    let mut traced = Sink::default();
    trace::set_enabled(true);
    let from_ns = trace::now_ns();
    run(state, half, &mut traced);
    let to_ns = trace::now_ns();
    trace::set_enabled(false);
    let overhead_ratio = match (sink.work_per_s(), traced.work_per_s()) {
        (Some(untraced), Some(traced)) => untraced / traced,
        _ => f64::NAN,
    };
    sink.merge(traced);
    let window = TraceWindow {
        tid: trace::thread_id(),
        from_ns,
        to_ns,
        overhead_ratio,
    };
    (sink, Some(window))
}

/// Runs `op` repeatedly until `budget` has passed (at least once); `op`
/// gets the repetition index.
pub fn repeat_for(budget: Duration, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed() < budget {
        op(i);
        i += 1;
    }
}

/// Completions per second over fixed-width time windows, for workloads
/// whose operations are too short to rate one by one.
pub struct Windows {
    width: Duration,
    start: Instant,
    count: u64,
}

impl Windows {
    /// Starts the first window now.
    pub fn new(width: Duration) -> Windows {
        Windows {
            width,
            start: Instant::now(),
            count: 0,
        }
    }

    /// Counts one completion; closes the window into `sink` once it is
    /// `width` long.
    pub fn tick(&mut self, sink: &mut Sink) {
        self.count += 1;
        let elapsed = self.start.elapsed();
        if elapsed >= self.width {
            sink.rates.push(self.count as f64 / elapsed.as_secs_f64());
            self.start = Instant::now();
            self.count = 0;
        }
    }
}

/// Runs one workload by name.
pub fn run(name: &str, ctx: &Ctx) -> Result<Measured, String> {
    match name {
        "train_suite" => train::train_suite(ctx),
        "attack_sweep" => sweep::attack_sweep(ctx),
        "stored_sweep" => sweep::stored_sweep(ctx),
        "serve_lone" => serve::serve_lone(ctx),
        "serve_open" => serve::serve_open(ctx),
        "track_recal" => track::track_recal(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The collection seed of a workload seed, kept away from the small
/// seeds the figure binaries use.
pub fn collection_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x00c0_ffee
}

/// Paper-scale Building 1 under the paper protocol (5 train / 1 test
/// fingerprints per RP, six test devices), collected under `seed`.
pub fn paper_b1(seed: u64) -> ScenarioSet {
    let spec = ScenarioSpec::single(
        BuildingId::B1.spec(),
        0,
        CollectionConfig::paper(),
        collection_seed(seed),
    );
    timed("sim.scenario_generate_ms", || spec.generate())
}

/// Paper architectures (CALLOC, the SOTA members, the surrogate) on a
/// short schedule: the set-up of the workloads that use a trained suite
/// but do not measure training. Inference and crafting cost depend on the
/// architectures, not on how long they trained.
pub fn short_profile() -> SuiteProfile {
    SuiteProfile {
        calloc: CallocConfig {
            epochs_per_lesson: 3,
            ..CallocConfig::default()
        },
        lessons: 2,
        baseline_epochs: 8,
        ..SuiteProfile::paper()
    }
}

/// Digest of every trained parameter of a suite, members then surrogate.
pub fn suite_digest(suite: &Suite) -> Result<u64, String> {
    let mut bytes = Vec::new();
    for member in &suite.members {
        let state = member
            .model
            .state()
            .ok_or_else(|| format!("{} has no state encoding", member.name))?;
        bytes.extend_from_slice(&state);
    }
    let mut writer = calloc_nn::state::StateWriter::new();
    calloc_nn::state::write_sequential(&mut writer, &suite.surrogate);
    bytes.extend_from_slice(&writer.into_bytes());
    Ok(fnv1a(&bytes))
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::Outcome;

    fn half(answers: u64, digest: u64) -> Sink {
        let mut phase = Phase {
            name: "capacity",
            served: answers,
            batches: 2,
            ..Phase::default()
        };
        for i in 0..answers {
            phase.tally.record(Outcome::Correct {
                latency_ms: 1.0 + i as f64,
                degraded: false,
            });
        }
        let mut sink = Sink {
            attempted: answers,
            late_ms: vec![0.1; answers as usize],
            ..Sink::default()
        };
        sink.add_phase(phase);
        sink.digest("answers", digest, &BTreeMap::new());
        sink
    }

    #[test]
    fn the_halves_of_a_traced_run_merge_phase_by_phase() {
        let mut sink = half(2, 7);
        sink.merge(half(4, 7));
        assert_eq!(sink.phases.len(), 1, "one row per phase name");
        let phase = sink.phases[0];
        assert_eq!((phase.tally.sent, phase.tally.correct), (6, 6));
        // Latencies 1, 2 and 1, 2, 3, 4 ms: the 3 and 4 ms answers miss
        // the 2 ms SLO, counted against all six requests.
        assert_eq!(phase.tally.slo_miss_ratio(), 2.0 / 6.0);
        assert_eq!(phase.mean_batch(), Some(1.5));
        assert_eq!((sink.attempted, sink.late_ms.len(), sink.failed), (6, 6, 0));

        let mut differing = half(2, 7);
        differing.merge(half(2, 8));
        assert_eq!(differing.failed, 1, "the halves' outputs must agree");
    }
}
