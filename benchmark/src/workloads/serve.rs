//! `serve_lone` and `serve_open`: a paper-scale CALLOC model (KNN
//! fallback) served over loopback TCP to one closed-loop client, and
//! driven through the engine directly at a fixed open-loop rate followed
//! by a capacity phase. Every answer is checked bit for bit against
//! `ServeMember::locate_batch` of its fingerprint.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use calloc_baselines::KnnLocalizer;
use calloc_eval::{ModelCache, Suite};
use calloc_serve::{
    decode_frame, encode_frame, Client, Engine, HealthReport, Location, Registry, Request,
    Response, ServeConfig, ServeError, ServeMember, Server,
};
use calloc_tensor::{Matrix, Rng};

use super::{
    collection_seed, fnv1a, measure, ms_since, paper_b1, repeat_for, setup, short_profile, Ctx,
    Measured, Phase, Sink, Windows,
};
use crate::loadgen::{latency_from_due_ms, Outcome, Schedule, Tally};
use crate::stats;
use crate::trace::{self, timed, timed_units};

/// Registry name of the served model.
const MODEL: &str = "CALLOC";

/// Offered load of the open-loop phase, in requests per second — about a
/// third of the engine's capacity on the recorded 2-core host.
const OPEN_RATE: f64 = 32_000.0;

/// Open-loop / capacity slice pairs per run. Alternating the phases
/// spreads each over the whole run, so a contention episode of a few
/// seconds on the host cannot fall on one phase only.
const SLICES: u32 = 5;

/// Share of each slice spent in the open-loop phase; the rest measures
/// capacity.
const OPEN_SHARE: f64 = 0.5;

/// Open-loop answers per latency window: a quarter second at the offered
/// rate, so each window's p90 has 800 answers beyond it.
const OPEN_WINDOW: usize = 8000;

/// Closed-loop answers per latency window: about half a second.
const LONE_WINDOW: usize = 400;

/// Admission-queue bound of `serve_open`: room for a 100 ms host stall at
/// the open-loop rate, so a stall shows as latency instead of shed load.
const OPEN_QUEUE: usize = 4096;

/// The requests of a serving run and the answer each must get.
struct Requests {
    rows: Vec<Vec<f64>>,
    /// Request order: a seeded permutation of the rows, cycled.
    order: Vec<usize>,
    /// Per row: the primary model's and the fallback's answer.
    expected: Vec<(Location, Location)>,
}

impl Requests {
    fn row(&self, i: u64) -> (usize, Vec<f64>) {
        let idx = self.order[i as usize % self.order.len()];
        (idx, self.rows[idx].clone())
    }

    /// Classifies the answer to a request for row `idx`.
    fn outcome(&self, idx: usize, response: Option<Response>, latency_ms: f64) -> Outcome {
        match response {
            Some(Response::Located(got)) => {
                let (primary, fallback) = self.expected[idx];
                let want = if got.degraded { fallback } else { primary };
                let same = got.rp_class == want.rp_class
                    && got.x.to_bits() == want.x.to_bits()
                    && got.y.to_bits() == want.y.to_bits()
                    && got.degraded == want.degraded;
                if same {
                    Outcome::Correct {
                        latency_ms,
                        degraded: got.degraded,
                    }
                } else {
                    Outcome::Wrong
                }
            }
            Some(Response::Error(ServeError::Overloaded { .. } | ServeError::Draining)) => {
                Outcome::Refused
            }
            _ => Outcome::Failed,
        }
    }

    fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for (primary, fallback) in &self.expected {
            for loc in [primary, fallback] {
                bytes.extend_from_slice(&loc.rp_class.to_le_bytes());
                bytes.extend_from_slice(&loc.x.to_bits().to_le_bytes());
                bytes.extend_from_slice(&loc.y.to_bits().to_le_bytes());
            }
        }
        fnv1a(&bytes)
    }
}

/// Span of one capacity slice; its units are the queries answered.
const ENGINE_SPAN: &str = "serve.engine_us_per_query";

/// Trains the served CALLOC model on paper-scale Building 1 through
/// `cache`, pairs it with a KNN fallback, and computes every test
/// fingerprint's reference answer one row at a time.
fn registry(ctx: &Ctx, cache: &mut ModelCache) -> Result<(Registry, Requests), String> {
    let set = paper_b1(ctx.seed);
    let scenario = set.scenario(0);
    let calloc = Suite::train_member_cached(
        scenario,
        &short_profile(),
        MODEL,
        &set.cell_identity(0),
        cache,
    )
    .map_err(|e| format!("training {MODEL}: {e}"))?
    .ok_or("the profile trains CALLOC")?;
    let train = &scenario.train;
    let knn = KnnLocalizer::fit(
        train.x.clone(),
        train.labels.clone(),
        train.num_classes(),
        3,
    );
    let member = ServeMember::new(
        calloc,
        Some(Box::new(knn)),
        train.rp_positions.clone(),
        train.num_aps(),
    );
    let rows: Vec<Vec<f64>> = scenario
        .test_per_device
        .iter()
        .flat_map(|(_, d)| (0..d.x.rows()).map(move |r| d.x.row(r).to_vec()))
        .collect();
    let expected = rows
        .iter()
        .map(|row| {
            let x = Matrix::from_vec(1, row.len(), row.clone());
            (
                member.locate_batch(&x, false)[0],
                member.locate_batch(&x, true)[0],
            )
        })
        .collect();
    let order = Rng::new(collection_seed(ctx.seed) ^ 0x5e12_7e00).permutation(rows.len());
    let mut registry = Registry::new();
    registry.insert(MODEL, member);
    Ok((
        registry,
        Requests {
            rows,
            order,
            expected,
        },
    ))
}

/// Records a finished phase in the sink.
fn finish_phase(phase: Phase, sink: &mut Sink) {
    sink.attempted += phase.tally.sent;
    sink.add_phase(phase);
}

/// Adds the engine's work between two health snapshots to `phase`.
fn engine_work(phase: &mut Phase, before: &HealthReport, after: &HealthReport) {
    phase.served += after.served - before.served;
    phase.batches += after.batches - before.batches;
}

/// Accounts one answered request; a failed one is also a sink failure.
fn account(tally: &mut Tally, sink: &mut Sink, outcome: Outcome, idx: usize) {
    if !matches!(outcome, Outcome::Correct { .. }) {
        sink.fail(format!("request for row {idx}: {outcome:?}"));
    }
    tally.record(outcome);
}

struct Lone {
    requests: Requests,
    client: Client,
    server: JoinHandle<HealthReport>,
}

impl Lone {
    /// Drains the server through the client and joins it.
    fn shut_down(mut self) -> Option<HealthReport> {
        self.client.drain().ok()?;
        self.server.join().ok()
    }
}

/// `serve_lone`: one connection, one request in flight.
pub fn serve_lone(ctx: &Ctx) -> Result<Measured, String> {
    let (mut lone, setup_s) = setup(
        || {
            let (registry, requests) = registry(ctx, &mut ModelCache::in_memory())?;
            let server = Server::bind("127.0.0.1:0", registry, ServeConfig::default())
                .map_err(|e| format!("bind: {e}"))?;
            let addr = server
                .local_addr()
                .map_err(|e| format!("local addr: {e}"))?;
            // Connect before the accept loop starts, so a failure here
            // leaves no server thread behind.
            let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let server = std::thread::spawn(move || server.run());
            Ok(Lone {
                requests,
                client,
                server,
            })
        },
        |lone: Lone| {
            lone.shut_down();
        },
    )?;
    let answers = lone.requests.digest();
    let (mut sink, window) = measure(ctx, &mut lone, |lone, budget, sink| {
        let mut phase = Phase {
            name: "closed_loop",
            ..Phase::default()
        };
        let mut windows = Windows::new(Duration::from_millis(500));
        let mut latencies = Vec::new();
        repeat_for(budget, |i| {
            let (idx, row) = lone.requests.row(i as u64);
            let sent = Instant::now();
            let response = timed("serve.client_locate", || lone.client.locate(MODEL, row, 0));
            let latency = ms_since(sent);
            let outcome = lone.requests.outcome(idx, response.ok(), latency);
            if matches!(outcome, Outcome::Correct { .. }) {
                latencies.push(latency);
                windows.tick(sink);
            }
            account(&mut phase.tally, sink, outcome, idx);
        });
        sink.tails
            .extend(stats::window_p90s(&latencies, LONE_WINDOW));
        sink.op_ms.extend(latencies);
        finish_phase(phase, sink);
    });
    sink.digest("serve.answers", answers, &ctx.expected);
    // The server answered only the measured requests.
    match (lone.shut_down(), sink.phases.first_mut()) {
        (Some(health), Some(phase)) => {
            phase.served = health.served;
            phase.batches = health.batches;
        }
        _ => sink.fail("the server did not drain".into()),
    }
    Ok(Measured {
        setup_s,
        sink,
        window,
    })
}

struct Open {
    requests: Requests,
    engine: Engine,
    /// Requests sent so far; the request order continues across slices.
    sent: u64,
    /// Queries the capacity phase keeps in flight: one full batch.
    outstanding: usize,
}

impl Open {
    /// Starts `serve_open`'s engine over `registry`.
    fn start(registry: Registry, requests: Requests) -> Open {
        let config = ServeConfig {
            queue_capacity: OPEN_QUEUE,
            ..ServeConfig::default()
        };
        Open {
            requests,
            outstanding: config.max_batch,
            engine: Engine::start(registry, config),
            sent: 0,
        }
    }
}

/// `serve_open`: `Engine::submit` at a fixed rate from one generator
/// thread, answers collected on a second, alternating with a capacity
/// phase that keeps exactly `max_batch` queries outstanding.
pub fn serve_open(ctx: &Ctx) -> Result<Measured, String> {
    let (mut open, setup_s) = setup(
        || {
            let (registry, requests) = registry(ctx, &mut ModelCache::in_memory())?;
            Ok(Open::start(registry, requests))
        },
        drop,
    )?;
    let answers = open.requests.digest();
    let (mut sink, window) = measure(ctx, &mut open, |open, budget, sink| {
        let mut open_phase = Phase {
            name: "open_loop",
            ..Phase::default()
        };
        let mut capacity_phase = Phase {
            name: "capacity",
            ..Phase::default()
        };
        let slice = budget / SLICES;
        let open_budget = slice.mul_f64(OPEN_SHARE);
        for _ in 0..SLICES {
            timed("loadgen.open_loop", || {
                open_loop(open, open_budget, &mut open_phase, sink)
            });
            capacity(
                open,
                slice.saturating_sub(open_budget),
                &mut capacity_phase,
                sink,
            );
        }
        finish_phase(open_phase, sink);
        finish_phase(capacity_phase, sink);
    });
    sink.side.insert("open_loop.offered_rps".into(), OPEN_RATE);
    sink.side
        .insert("queue_peak".into(), open.engine.health().queue_peak as f64);
    sink.digest("serve.answers", answers, &ctx.expected);
    Ok(Measured {
        setup_s,
        sink,
        window,
    })
}

/// The engine's answer to a submission: the reply, or the refusal.
fn answer(admitted: Result<Receiver<Response>, ServeError>) -> Option<Response> {
    match admitted {
        Ok(reply) => reply.recv().ok(),
        Err(e) => Some(Response::Error(e)),
    }
}

/// One open-loop slice. Request `i` of the slice is due `i / OPEN_RATE`
/// seconds in, and its latency runs from that due time to its answer.
fn open_loop(open: &mut Open, budget: Duration, phase: &mut Phase, sink: &mut Sink) {
    let schedule = Schedule::new(OPEN_RATE);
    let before = open.engine.health();
    let (requests, engine, first) = (&open.requests, &open.engine, open.sent);
    type Sent = (usize, u64, Result<Receiver<Response>, ServeError>);
    let (tx, rx) = channel::<Sent>();
    let start = Instant::now();
    let ((tally, latencies, failures), sent) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            trace::name_thread("loadgen.collector");
            let mut tally = Tally::default();
            let mut latencies = Vec::new();
            let mut failures = Vec::new();
            for (idx, due_ns, admitted) in rx {
                let response = timed("serve.engine_reply", || answer(admitted));
                let latency = latency_from_due_ms(due_ns, start.elapsed().as_nanos() as u64);
                let outcome = requests.outcome(idx, response, latency);
                match outcome {
                    Outcome::Correct { .. } => latencies.push(latency),
                    _ => failures.push((idx, outcome)),
                }
                tally.record(outcome);
            }
            (tally, latencies, failures)
        });
        let mut i = 0u64;
        loop {
            let now = start.elapsed();
            if now >= budget {
                break;
            }
            let now_ns = now.as_nanos() as u64;
            while schedule.due_ns(i) <= now_ns {
                let (idx, row) = requests.row(first + i);
                let admitted = timed("serve.engine_submit", || engine.submit(MODEL, row, 0));
                let due_ns = schedule.due_ns(i);
                sink.late_ms.push(latency_from_due_ms(
                    due_ns,
                    start.elapsed().as_nanos() as u64,
                ));
                tx.send((idx, due_ns, admitted))
                    .expect("the collector outlives the generator");
                i += 1;
            }
            let next = Duration::from_nanos(schedule.due_ns(i));
            let now = start.elapsed();
            if next > now {
                timed("loadgen.wait", || std::thread::sleep(next - now));
            }
        }
        drop(tx);
        (collector.join().expect("collector thread"), i)
    });
    open.sent += sent;
    engine_work(phase, &before, &open.engine.health());
    phase.tally.absorb(&tally);
    for (idx, outcome) in failures {
        sink.fail(format!("request for row {idx}: {outcome:?}"));
    }
    sink.tails
        .extend(stats::window_p90s(&latencies, OPEN_WINDOW));
    sink.op_ms.extend(latencies);
}

/// One capacity slice: `max_batch` queries always in flight from one
/// thread; completions per 0.1 s window are the workload's throughput.
/// The slice is one [`ENGINE_SPAN`] span counting the queries answered.
fn capacity(open: &mut Open, budget: Duration, phase: &mut Phase, sink: &mut Sink) {
    timed_units(ENGINE_SPAN, || {
        let (before, answered) = (open.engine.health(), phase.tally.correct);
        let (requests, engine) = (&open.requests, &open.engine);
        let mut next = open.sent;
        let mut submit = || {
            let (idx, row) = requests.row(next);
            next += 1;
            (idx, Instant::now(), engine.submit(MODEL, row, 0))
        };
        let mut inflight: VecDeque<_> = (0..open.outstanding).map(|_| submit()).collect();
        let mut windows = Windows::new(Duration::from_millis(100));
        let start = Instant::now();
        while start.elapsed() < budget {
            let (idx, sent, admitted) = inflight.pop_front().expect("queries in flight");
            let outcome = requests.outcome(idx, answer(admitted), ms_since(sent));
            if matches!(outcome, Outcome::Correct { .. }) {
                windows.tick(sink);
            }
            account(&mut phase.tally, sink, outcome, idx);
            inflight.push_back(submit());
        }
        for (idx, sent, admitted) in inflight {
            let outcome = requests.outcome(idx, answer(admitted), ms_since(sent));
            account(&mut phase.tally, sink, outcome, idx);
        }
        open.sent = next;
        engine_work(phase, &before, &open.engine.health());
        ((), phase.tally.correct - answered)
    });
}

/// Frame round trips per codec span.
const CODEC_REPS: u64 = 400;

/// The serving layers for the per-layer probe, on the served model of the
/// serving workloads (trained through `cache`): the frame codec, batched
/// inference of the model and of its fallback, and one capacity slice of
/// `serve_open`'s engine unless the traced workload already ran some.
pub fn probe(
    ctx: &Ctx,
    cache: &mut ModelCache,
    covered: &dyn Fn(&str) -> bool,
) -> Result<(), String> {
    let (registry, requests) = registry(ctx, cache)?;
    let member = registry.get(MODEL).ok_or("the registry serves CALLOC")?;

    let request = Request::Locate {
        model: MODEL.into(),
        deadline_ms: 0,
        fingerprint: requests.rows[0].clone(),
    };
    let response = Response::Located(requests.expected[0].0);
    for _ in 0..5 {
        let decoded = timed_units("serve.codec_us", || {
            let mut ok = true;
            for _ in 0..CODEC_REPS {
                let frame = encode_frame(&request.encode());
                ok &= decode_frame(&frame)
                    .and_then(|p| Request::decode(&p))
                    .as_ref()
                    == Ok(&request);
                let frame = encode_frame(&response.encode());
                ok &= decode_frame(&frame)
                    .and_then(|p| Response::decode(&p))
                    .as_ref()
                    == Ok(&response);
            }
            (ok, CODEC_REPS)
        });
        if !decoded {
            return Err("a frame did not decode to what was encoded".into());
        }
    }

    for (batch, degraded, span) in [
        (1, false, "serve.infer_us.b1"),
        (8, false, "serve.infer_us.b8"),
        (32, false, "serve.infer_us.b32"),
        (32, true, "serve.fallback_infer_us.b32"),
    ] {
        let x = Matrix::from_fn(batch, member.num_aps(), |r, c| requests.rows[r][c]);
        for _ in 0..21 {
            black_box(timed(span, || member.locate_batch(&x, degraded)));
        }
    }

    if !covered(ENGINE_SPAN) {
        let mut open = Open::start(registry, requests);
        let mut phase = Phase::default();
        let mut sink = Sink::default();
        capacity(&mut open, Duration::from_millis(300), &mut phase, &mut sink);
        if let Some(failure) = sink.failures.first() {
            return Err(format!("engine probe: {failure}"));
        }
    }
    Ok(())
}
