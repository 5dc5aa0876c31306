//! `attack_sweep` and `stored_sweep`: the full threat-model grid over a
//! trained suite, in memory and through the checkpointed result store.
//! Both run identical cells, so they share digests, and the difference
//! between them is the store.

use std::time::Instant;

use calloc_eval::{ExecSpec, ResultStore, Suite, SweepSpec};
use calloc_sim::{Dataset, ScenarioSet};

use super::{fnv1a, measure, paper_b1, repeat_for, setup, short_profile, Ctx, Measured, Sink};
use crate::trace::timed;

/// The sweep both workloads run: every crafting algorithm × both MITM
/// variants × every targeting strategy over ε {0.1, 0.5} × ø {20, 100},
/// plus the clean cell — 73 cells per (member, device).
pub fn spec(seed: u64) -> SweepSpec {
    SweepSpec::full_grid(vec![0.1, 0.5], vec![20.0, 100.0])
        .with_epsilon_unit(calloc_bench::EPSILON_UNIT)
        .with_seed(seed)
}

struct State {
    set: ScenarioSet,
    suite: Suite,
}

/// One device's sweep: the table as CSV and the seconds the timed call
/// took, or `None` when it failed (already recorded in the sink).
type SweepOne<'a> =
    dyn FnMut(&State, &[(String, String, &Dataset)], &mut Sink) -> Option<(String, f64)> + 'a;

/// Collects paper-scale Building 1 and trains the suite on it, then runs
/// one operation per device — the whole grid for every member on that
/// device's test set, cycling through the six devices. Each device's
/// table must repeat exactly and match the committed digest.
fn run_sweeps(ctx: &Ctx, sweep_one: &mut SweepOne<'_>) -> Result<Measured, String> {
    let (mut state, setup_s) = setup(
        || {
            let set = paper_b1(ctx.seed);
            let suite = Suite::train(set.scenario(0), &short_profile());
            Ok(State { set, suite })
        },
        drop,
    )?;
    let cells_per_device = state.suite.members.len() * spec(ctx.seed).attack_cells().len();
    let (sink, window) = measure(ctx, &mut state, |state, budget, sink| {
        let datasets = Suite::scenario_datasets(state.set.scenario(0), "B1");
        repeat_for(budget, |i| {
            let one = &datasets[i % datasets.len()..][..1];
            let Some((csv, secs)) = sweep_one(state, one, sink) else {
                return;
            };
            let rows = csv.lines().count().saturating_sub(1);
            sink.op(rows as f64, secs);
            if rows != cells_per_device {
                sink.fail(format!("{rows} rows for {cells_per_device} cells"));
            }
            sink.digest(
                &format!("sweep.{}", one[0].1),
                fnv1a(csv.as_bytes()),
                &ctx.expected,
            );
        });
    });
    Ok(Measured {
        setup_s,
        sink,
        window,
    })
}

/// `attack_sweep`: `Suite::sweep` in memory.
pub fn attack_sweep(ctx: &Ctx) -> Result<Measured, String> {
    let spec = spec(ctx.seed);
    run_sweeps(ctx, &mut |state, one, sink| {
        sink.attempted += (state.suite.members.len() * spec.attack_cells().len()) as u64;
        let start = Instant::now();
        let table = timed("eval.suite_sweep", || state.suite.sweep(one, &spec));
        let secs = start.elapsed().as_secs_f64();
        Some((table.to_csv(), secs))
    })
}

/// `stored_sweep`: the same cells through `run_with_store` into a fresh
/// on-disk result store with the default checkpoint cadence. The store is
/// then reopened from disk and must hold the very table the run returned.
pub fn stored_sweep(ctx: &Ctx) -> Result<Measured, String> {
    let spec = spec(ctx.seed);
    run_sweeps(ctx, &mut |state, one, sink| {
        let path = ctx.scratch.join(format!("sweep-{}.bin", one[0].1));
        let plan = timed("eval.sweep_plan", || {
            let _ = std::fs::remove_file(&path);
            state.suite.sweep_plan(one, &spec)
        });
        sink.attempted += plan.len() as u64;
        let start = Instant::now();
        let report = timed("eval.sweep_with_store", || {
            let mut store = plan.open_store(&path)?;
            state
                .suite
                .sweep_with_store(&plan, one, &ExecSpec::default(), &mut store)
        });
        let secs = start.elapsed().as_secs_f64();
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                sink.fail(format!("stored sweep failed: {e}"));
                return None;
            }
        };
        timed("check.store_reopen", || {
            let csv = report.table.to_csv();
            for error in &report.errors {
                sink.fail(format!(
                    "cell {} quarantined: {}",
                    error.plan_index, error.payload
                ));
            }
            match ResultStore::open(&path, plan.full_len(), plan.fingerprint()) {
                Ok(reopened) if plan.table_from_store(&reopened).to_csv() == csv => {}
                Ok(_) => sink.fail(format!(
                    "{} does not hold the returned table",
                    path.display()
                )),
                Err(e) => sink.fail(format!("reopening {}: {e}", path.display())),
            }
            Some((csv, secs))
        })
    })
}
