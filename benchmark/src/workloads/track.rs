//! `track_recal`: the paper trajectory grid decoded by KNN and GPC through
//! the HMM filter and smoother, then online recalibration — every
//! building's GPC absorbs a fresh survey in batches, answering queries
//! after each batch.

use std::hint::black_box;
use std::time::Instant;

use calloc_baselines::{GpcLocalizer, KnnLocalizer};
use calloc_eval::Localizer;
use calloc_sim::{EnvLevel, Scenario, TrajectorySet, TrajectorySpec};
use calloc_tensor::Matrix;
use calloc_track::{
    emission_probs, run_trajectory_sweep, smooth, ForwardFilter, TrackConfig, TransitionModel,
};

use super::{collection_seed, fnv1a, measure, ms_since, repeat_for, setup, Ctx, Measured, Sink};
use crate::trace::{timed, timed_units};

/// Span of one absorbed batch; its units are the points absorbed.
const ABSORB_SPAN: &str = "baselines.gpc_absorb_ms_per_point";

/// Span of the queries after an absorbed batch; its units are the rows.
const PREDICT_SPAN: &str = "baselines.gpc_predict_us_per_row";

/// Trajectory seeds per grid cell: 5 buildings × 3 path lengths × 2
/// environment levels × 10 seeds = 300 trajectories, 21 000 ticks — a
/// pass of about 0.6 s, so each run's median rests on ten passes.
const TRAJECTORY_SEEDS: u64 = 10;

/// Survey points absorbed per GPC update.
const ABSORB_BATCH: usize = 8;

struct Building {
    knn: KnnLocalizer,
    gpc: GpcLocalizer,
    /// The fresh survey, in absorb batches.
    survey: Vec<(Matrix, Vec<usize>)>,
    /// Fingerprints classified after every absorbed batch.
    queries: Matrix,
}

struct State {
    set: TrajectorySet,
    buildings: Vec<Building>,
    ticks: usize,
}

fn build(seed: u64) -> State {
    let base_seed = collection_seed(seed);
    let spec = TrajectorySpec::paper()
        .with_environments(vec![EnvLevel::BASELINE, EnvLevel::uniform(2.0)])
        .with_seeds(
            (0..TRAJECTORY_SEEDS)
                .map(|k| base_seed.wrapping_add(k))
                .collect(),
        );
    let set = timed_units("sim.trajectory_generate_us_per_tick", || {
        let set = spec.generate();
        let ticks = set.trajectories().iter().map(|t| t.len() as u64).sum();
        (set, ticks)
    });
    let base = set.plan().spec().base.clone();
    let buildings = set
        .plan()
        .buildings()
        .iter()
        .map(|b| {
            let (knn, gpc) = calloc_bench::trajectory_members(b, &base, base_seed ^ 1);
            let fresh = Scenario::generate(b, &base, base_seed ^ 2);
            let indices: Vec<usize> = (0..fresh.train.len()).collect();
            let survey = indices
                .chunks(ABSORB_BATCH)
                .map(|chunk| {
                    let part = fresh.train.subset(chunk);
                    (part.x, part.labels)
                })
                .collect();
            Building {
                knn,
                gpc,
                survey,
                queries: fresh.test_per_device[0].1.x.clone(),
            }
        })
        .collect();
    let ticks = set.trajectories().iter().map(|t| t.len()).sum();
    State {
        set,
        buildings,
        ticks,
    }
}

/// Decoding the whole trajectory grid (throughput: ticks per second of
/// each pass) alternates with recalibrating one building (latency: one
/// absorbed batch plus the queries after it), so both spread over the
/// whole run. Rounds of five — every building once — repeat until the
/// budget is spent, so every run absorbs the same surveys.
pub fn track_recal(ctx: &Ctx) -> Result<Measured, String> {
    let (mut state, setup_s) = setup(|| Ok(build(ctx.seed)), drop)?;
    let (sink, window) = measure(ctx, &mut state, |state, budget, sink| {
        repeat_for(budget, |_| {
            let mut predictions = Vec::new();
            for building in &state.buildings {
                decode(ctx, state, sink);
                recalibrate(building, &mut predictions, sink);
            }
            let bytes: Vec<u8> = predictions.iter().flat_map(|c| c.to_le_bytes()).collect();
            sink.digest("track.absorb", fnv1a(&bytes), &ctx.expected);
        });
    });
    Ok(Measured {
        setup_s,
        sink,
        window,
    })
}

fn decode(ctx: &Ctx, state: &State, sink: &mut Sink) {
    let members: Vec<Vec<(&str, &dyn Localizer)>> = state
        .buildings
        .iter()
        .map(|b| {
            vec![
                ("KNN", &b.knn as &dyn Localizer),
                ("GPC", &b.gpc as &dyn Localizer),
            ]
        })
        .collect();
    let jobs = state.set.len() * 2;
    sink.attempted += jobs as u64;
    let start = Instant::now();
    let table = timed("track.run_trajectory_sweep", || {
        run_trajectory_sweep(&state.set, &members, &TrackConfig::paper())
    });
    sink.rates
        .push(state.ticks as f64 / start.elapsed().as_secs_f64());
    timed("check.trajectory_table", || {
        let finite = table
            .rows()
            .iter()
            .all(|r| r.mean_error_m.is_finite() && r.final_error_m.is_finite());
        if table.len() != jobs * 3 || !finite {
            sink.fail(format!(
                "{} rows (want {}), finite: {finite}",
                table.len(),
                jobs * 3
            ));
        }
        sink.digest(
            "track.table",
            fnv1a(table.to_csv().as_bytes()),
            &ctx.expected,
        );
    });
}

/// Absorbs one building's survey into a copy of its GPC, appending the
/// predictions made after each batch.
fn recalibrate(building: &Building, predictions: &mut Vec<u64>, sink: &mut Sink) {
    let mut gpc = timed("baselines.gpc_clone", || building.gpc.clone());
    for (x, y) in &building.survey {
        sink.attempted += 1;
        let start = Instant::now();
        let absorbed = timed_units(ABSORB_SPAN, || (gpc.absorb(x, y), x.rows() as u64));
        let classes = timed_units(PREDICT_SPAN, || {
            let rows = building.queries.rows() as u64;
            (gpc.predict_classes(&building.queries), rows)
        });
        let ms = ms_since(start);
        if let Err(e) = absorbed {
            sink.fail(format!("absorb: {e}"));
            continue;
        }
        sink.op_ms.push(ms);
        predictions.extend(classes.iter().map(|&c| c as u64));
    }
}

/// The tracking layers for the per-layer probe, on `track_recal`'s own
/// set-up: the first building's transition model, and emission, filter
/// and smoother over its trajectories with its GPC; KNN queries; and one
/// recalibration of that building unless the traced workload already ran
/// recalibrations.
pub fn probe(ctx: &Ctx, covered: &dyn Fn(&str) -> bool) -> Result<(), String> {
    let state = build(ctx.seed);
    let building = &state.buildings[0];
    let realization = &state.set.plan().buildings()[0];
    let motion = &state.set.plan().spec().motion;
    let track = TrackConfig::paper();
    let observations: Vec<&Matrix> = (0..state.set.len())
        .filter(|&i| state.set.cell(i).building == 0)
        .map(|i| &state.set.trajectory(i).observations)
        .collect();
    let ticks: u64 = observations.iter().map(|o| o.rows() as u64).sum();
    let num_rps = realization.num_rps();

    for _ in 0..5 {
        black_box(timed("track.transition_build_us", || {
            TransitionModel::from_building(realization, motion)
        }));
    }
    let transition = TransitionModel::from_building(realization, motion);
    let filter = ForwardFilter::new(&transition);
    for _ in 0..3 {
        let emissions: Vec<Matrix> = timed_units("track.emission_us_per_tick", || {
            let e = observations
                .iter()
                .map(|obs| emission_probs(&building.gpc, obs, num_rps, track.emission_floor))
                .collect();
            (e, ticks)
        });
        let posteriors: Vec<Matrix> = timed_units("track.filter_us_per_tick", || {
            (
                emissions.iter().map(|e| filter.posteriors(e)).collect(),
                ticks,
            )
        });
        black_box(timed_units("track.smooth_us_per_tick", || {
            let smoothed: Vec<Matrix> = posteriors
                .iter()
                .map(|p| smooth(p, track.smoothing_half_window))
                .collect();
            (smoothed, ticks)
        }));
    }
    let rows = building.queries.rows() as u64;
    for _ in 0..5 {
        black_box(timed_units("baselines.knn_predict_us_per_row", || {
            (building.knn.predict_classes(&building.queries), rows)
        }));
    }
    if !covered(ABSORB_SPAN) {
        let mut sink = Sink::default();
        recalibrate(building, &mut Vec::new(), &mut sink);
        if let Some(failure) = sink.failures.first() {
            return Err(format!("recalibration probe: {failure}"));
        }
    }
    Ok(())
}
