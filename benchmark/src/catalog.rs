//! The benchmark's workloads and metrics. `BENCHMARK.json` at the
//! repository root declares the same lists; a test keeps the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and, for end-to-end metrics, the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit of its values.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only; 0 for per-layer ones).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The workloads, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "train_suite",
        "cold paper-profile suite training into an on-disk model cache: trainer and optimizer time, no attacks",
    ),
    (
        "attack_sweep",
        "full threat-model attack grid over a trained suite in memory: crafting and inference, no training, no store",
    ),
    (
        "stored_sweep",
        "the same attack grid through the checkpointed on-disk result store: store and checkpoint cost beside identical compute",
    ),
    (
        "serve_lone",
        "one TCP client in a closed loop: wire codec, session and batch window dominate, every batch has one query",
    ),
    (
        "serve_open",
        "open-loop engine load at a fixed rate, then a capacity phase: queueing, batching and batched kernels, no socket",
    ),
    (
        "track_recal",
        "trajectory sweep with the HMM filter, then online GPC recalibration: sequential inference and GPC writes",
    ),
];

/// Metrics of every untraced run (`--trace 0`).
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.2),
    e2e("op_p50_ms", "ms", Better::Lower, 0.2),
    e2e("op_p90_ms", "ms", Better::Lower, 0.25),
];

/// Metrics of every traced run (`--trace 1`), one layer each.
pub const PER_LAYER: [Metric; 42] = [
    layer("sim.scenario_generate_ms", "ms", Better::Lower),
    layer("sim.trajectory_generate_us_per_tick", "us", Better::Lower),
    layer("core.calloc_fit_ms", "ms", Better::Lower),
    layer("baselines.fit_ms.AdvLoc", "ms", Better::Lower),
    layer("baselines.fit_ms.SANGRIA", "ms", Better::Lower),
    layer("baselines.fit_ms.ANVIL", "ms", Better::Lower),
    layer("baselines.fit_ms.WiDeep", "ms", Better::Lower),
    layer("baselines.fit_ms.surrogate", "ms", Better::Lower),
    layer("eval.cache_checkpoint_ms", "ms", Better::Lower),
    layer("eval.cell_ms.CALLOC", "ms", Better::Lower),
    layer("eval.cell_ms.AdvLoc", "ms", Better::Lower),
    layer("eval.cell_ms.SANGRIA", "ms", Better::Lower),
    layer("eval.cell_ms.ANVIL", "ms", Better::Lower),
    layer("eval.cell_ms.WiDeep", "ms", Better::Lower),
    layer("eval.clean_cell_ms", "ms", Better::Lower),
    layer("eval.store_checkpoint_ms", "ms", Better::Lower),
    layer("attack.craft_ms.FGSM", "ms", Better::Lower),
    layer("attack.craft_ms.PGD", "ms", Better::Lower),
    layer("attack.craft_ms.MIM", "ms", Better::Lower),
    layer("nn.input_grad_us_per_row.CALLOC", "us", Better::Lower),
    layer("nn.input_grad_us_per_row.AdvLoc", "us", Better::Lower),
    layer("nn.input_grad_us_per_row.ANVIL", "us", Better::Lower),
    layer("nn.input_grad_us_per_row.WiDeep", "us", Better::Lower),
    layer("nn.input_grad_us_per_row.surrogate", "us", Better::Lower),
    layer("nn.calloc_forward_us_per_row", "us", Better::Lower),
    layer("par.sweep_1thread_ms", "ms", Better::Lower),
    layer("par.sweep_nthread_ms", "ms", Better::Lower),
    layer("serve.codec_us", "us", Better::Lower),
    layer("serve.infer_us.b1", "us", Better::Lower),
    layer("serve.infer_us.b8", "us", Better::Lower),
    layer("serve.infer_us.b32", "us", Better::Lower),
    layer("serve.fallback_infer_us.b32", "us", Better::Lower),
    layer("serve.engine_us_per_query", "us", Better::Lower),
    layer("track.transition_build_us", "us", Better::Lower),
    layer("track.emission_us_per_tick", "us", Better::Lower),
    layer("track.filter_us_per_tick", "us", Better::Lower),
    layer("track.smooth_us_per_tick", "us", Better::Lower),
    layer("baselines.knn_predict_us_per_row", "us", Better::Lower),
    layer("baselines.gpc_predict_us_per_row", "us", Better::Lower),
    layer("baselines.gpc_absorb_ms_per_point", "ms", Better::Lower),
    layer("trace.coverage", "ratio", Better::Higher),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut names = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && names.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_declares_this_catalog() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&String> = doc.as_obj().expect("object").keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key).to_vec();
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = list(key);
            assert_eq!(declared.len(), catalog.len(), "{key}");
            for (d, m) in declared.iter().zip(catalog) {
                assert_eq!(field(d, "name").as_deref(), Some(m.name));
                assert_eq!(field(d, "unit").as_deref(), Some(m.unit));
                assert_eq!(field(d, "better").as_deref(), Some(m.better.name()));
                if key == "end_to_end" {
                    assert_eq!(
                        d.get("bound").and_then(Value::as_f64),
                        Some(m.bound),
                        "{}",
                        m.name
                    );
                    assert_eq!(d.as_obj().unwrap().len(), 4, "{}", m.name);
                } else {
                    assert_eq!(d.as_obj().unwrap().len(), 3, "{}", m.name);
                }
            }
        }
    }
}
