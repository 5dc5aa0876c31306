//! The per-layer probe of a traced run, and the per-layer metrics.
//!
//! Every per-layer metric is a span: the value is the median, over the
//! spans of the metric's name, of each span's time per unit of work.
//! Where the traced workload makes a call itself (`track_recal`'s GPC
//! absorb and predict, `serve_open`'s capacity slices), its own spans give
//! the metric. The probe makes the rest of the calls, which lie beneath
//! the workloads' calls or belong to other workloads, each layer's public
//! API alone at a fixed size on the run's seed, built with the workloads'
//! own builders. Every traced run reports every per-layer metric.

use std::collections::BTreeMap;
use std::hint::black_box;

use calloc_attack::{AttackConfig, AttackKind, MitmAttack};
use calloc_baselines::{DnnConfig, DnnLocalizer};
use calloc_eval::{run_sweep, DifferentiableModel, Localizer, ModelCache, ResultStore, Suite};
use calloc_tensor::{par, Matrix};

use crate::catalog::{Metric, PER_LAYER};
use crate::trace::{self, timed, timed_units, Record};
use crate::workloads::{paper_b1, serve, short_profile, sweep, track, Ctx};

/// Suite members trained and probed, in figure order.
const MEMBERS: [&str; 5] = ["CALLOC", "AdvLoc", "SANGRIA", "ANVIL", "WiDeep"];

/// Spans of the parallel speed-up pair.
const SERIAL_SPAN: &str = "par.sweep_1thread_ms";
const PARALLEL_SPAN: &str = "par.sweep_nthread_ms";

/// Makes every call of the per-layer catalog that the traced workload
/// did not make itself (`covered` tells which spans it recorded), each in
/// a span of its metric's name.
pub fn run(ctx: &Ctx, covered: &dyn Fn(&str) -> bool) -> Result<(), String> {
    let seed = ctx.seed;
    // Three collections, so the collection span's median rests on several.
    for _ in 0..2 {
        black_box(paper_b1(seed));
    }
    let set = paper_b1(seed);
    let scenario = set.scenario(0);
    let cell = set.cell_identity(0);
    let train = &scenario.train;

    // Each member alone, through the same cache path the suite trains by.
    let profile = short_profile();
    let mut cache =
        ModelCache::open(&ctx.scratch.join("probe-models.bin")).map_err(|e| e.to_string())?;
    let mut models: Vec<(&str, Box<dyn Localizer>)> = Vec::new();
    for name in MEMBERS {
        let span = if name == "CALLOC" {
            "core.calloc_fit_ms".to_string()
        } else {
            format!("baselines.fit_ms.{name}")
        };
        let model = timed(span, || {
            Suite::train_member_cached(scenario, &profile, name, &cell, &mut cache)
        })
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("the profile does not train {name}"))?;
        models.push((name, model));
    }
    let surrogate_config = DnnConfig {
        hidden: vec![64],
        epochs: profile.baseline_epochs,
        seed: profile.seed ^ 0xDEAD,
        ..DnnConfig::default()
    };
    let surrogate = timed("baselines.fit_ms.surrogate", || {
        DnnLocalizer::fit(
            &train.x,
            &train.labels,
            train.num_classes(),
            &surrogate_config,
        )
        .network()
        .clone()
    });
    for _ in 0..5 {
        timed("eval.cache_checkpoint_ms", || cache.checkpoint()).map_err(|e| e.to_string())?;
    }

    // The sweep workloads' grid on one device, one member at a time, then
    // the clean cell of every member on every device.
    let datasets = Suite::scenario_datasets(scenario, "B1");
    let device = &datasets[..1];
    let spec = sweep::spec(seed);
    let per_member = spec.attack_cells().len();
    let mut rows = Vec::new();
    for (i, (name, model)) in models.iter().enumerate() {
        let table = timed_units(format!("eval.cell_ms.{name}"), || {
            let table = run_sweep(&[(name, model.as_ref())], Some(&surrogate), device, &spec);
            let cells = table.len() as u64;
            (table, cells)
        });
        rows.extend(table.rows().iter().cloned().map(|mut row| {
            row.plan_index += i * per_member;
            row
        }));
    }
    let members: Vec<(&str, &dyn Localizer)> = models
        .iter()
        .map(|(n, model)| (*n, model.as_ref()))
        .collect();
    let clean = calloc_eval::SweepSpec::clean_only();
    timed_units("eval.clean_cell_ms", || {
        let table = run_sweep(&members, Some(&surrogate), &datasets, &clean);
        let cells = table.len() as u64;
        (table, cells)
    });

    // The member sweeps' rows, as the store of the whole plan holds them.
    let names: Vec<String> = MEMBERS.iter().map(|n| n.to_string()).collect();
    let labels: Vec<(String, String)> = device
        .iter()
        .map(|(b, d, _)| (b.clone(), d.clone()))
        .collect();
    let plan = spec.plan(&names, &labels);
    let mut store = ResultStore::open(
        &ctx.scratch.join("probe-store.bin"),
        plan.full_len(),
        plan.fingerprint(),
    )
    .map_err(|e| e.to_string())?;
    for row in rows {
        store.insert(row).map_err(|e| e.to_string())?;
    }
    for _ in 0..5 {
        timed("eval.store_checkpoint_ms", || store.checkpoint()).map_err(|e| e.to_string())?;
    }

    // Crafting and gradients, on CALLOC and the differentiable members.
    let calloc = models[0]
        .1
        .as_differentiable()
        .ok_or("CALLOC is differentiable")?;
    let test = &device[0].2;
    for kind in AttackKind::ALL {
        let attack = MitmAttack::manipulation(
            AttackConfig::standard(kind, 0.5 * calloc_bench::EPSILON_UNIT, 100.0).with_seed(seed),
        );
        let span = match kind {
            AttackKind::Fgsm => "attack.craft_ms.FGSM",
            AttackKind::Pgd => "attack.craft_ms.PGD",
            AttackKind::Mim => "attack.craft_ms.MIM",
        };
        for _ in 0..3 {
            black_box(timed(span, || attack.apply(calloc, &test.x, &test.labels)));
        }
    }
    let all_rows: Vec<&[f64]> = datasets
        .iter()
        .flat_map(|(_, _, d)| (0..d.x.rows()).map(move |r| d.x.row(r)))
        .collect();
    let xs = Matrix::from_fn(all_rows.len(), train.num_aps(), |r, c| all_rows[r][c]);
    let ys: Vec<usize> = datasets
        .iter()
        .flat_map(|(_, _, d)| d.labels.iter().copied())
        .collect();
    let batch = xs.rows() as u64;
    let mut gradients: Vec<(String, &dyn DifferentiableModel)> = models
        .iter()
        .filter_map(|(name, model)| Some((name.to_string(), model.as_differentiable()?)))
        .collect();
    gradients.push(("surrogate".to_string(), &surrogate));
    for (name, model) in gradients {
        let span = format!("nn.input_grad_us_per_row.{name}");
        for _ in 0..3 {
            black_box(timed_units(span.clone(), || {
                (model.loss_and_input_grad(&xs, &ys), batch)
            }));
        }
    }
    for _ in 0..5 {
        black_box(timed_units("nn.calloc_forward_us_per_row", || {
            (calloc.logits(&xs), batch)
        }));
    }

    // CALLOC's grid on one device on one thread and on the whole budget.
    let calloc_only = [(MEMBERS[0], models[0].1.as_ref())];
    {
        let _serial = par::ThreadGuard::new(1);
        timed(SERIAL_SPAN, || {
            run_sweep(&calloc_only, Some(&surrogate), device, &spec)
        });
    }
    timed(PARALLEL_SPAN, || {
        run_sweep(&calloc_only, Some(&surrogate), device, &spec)
    });

    serve::probe(ctx, &mut cache, covered)?;
    track::probe(ctx, covered)
}

/// Nanoseconds in one of a per-layer metric's units.
fn unit_ns(metric: &Metric) -> Option<f64> {
    match metric.unit {
        "ms" => Some(1e6),
        "us" => Some(1e3),
        _ => None,
    }
}

/// Every span-timed per-layer metric the records hold.
pub fn layer_metrics(records: &[Record]) -> BTreeMap<&'static str, f64> {
    PER_LAYER
        .iter()
        .filter_map(|m| Some((m.name, trace::per_unit_ns(records, m.name)? / unit_ns(m)?)))
        .collect()
}

/// The parallel speed-up of the probe sweep, or why it is not reported.
pub fn speedup(metrics: &BTreeMap<&str, f64>) -> Result<f64, String> {
    let available = crate::machine::available_parallelism();
    let threads = par::threads();
    if available == 1 || threads == 1 {
        return Err(format!(
            "not measurable: available_parallelism {available}, thread budget {threads}"
        ));
    }
    match (metrics.get(SERIAL_SPAN), metrics.get(PARALLEL_SPAN)) {
        (Some(one), Some(all)) => Ok(one / all),
        _ => Err("the probe sweeps did not run".to_string()),
    }
}
