//! The write path: encoded datagrams decoded by one feeding thread with
//! `Collector::feed` and replayed into the production pipeline as fast as
//! its bounded channel accepts them, with `ServePublisher` (and, for the
//! archive shape, `HistPublisher`) riding the engine thread as the hook —
//! the `ipd-tool serve --trace` deployment.
//!
//! The traced variant drives the same layers through `BucketDriver` on one
//! thread, where a wrapping `TickEngine` can time `ingest_batch` and `tick`
//! that the threaded pipeline hides.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use ipd::pipeline::{
    BucketClock, BucketDriver, IpdPipeline, PipelineConfig, PipelineHook, ShardedPipeline,
    TickEngine,
};
use ipd::{IpdEngine, LogicalIngress, ShardedEngine, Snapshot, TickReport};
use ipd_hist::{HistConfig, HistPublisher, HistStore, HistTelemetry};
use ipd_lpm::Prefix;
use ipd_netflow::{Collector, CollectorStats, FlowRecord};
use ipd_serve::{
    EpochSwap, HistoryProvider, LiveStore, ServePublisher, ServeServer, ServeTelemetry,
};
use ipd_telemetry::Telemetry;

use crate::input::{Input, BATCH};
use crate::trace::{span, Tracer};

/// Snapshot cadence of `ipd-tool serve` (one full snapshot every 5 ticks).
pub const SNAPSHOT_EVERY_TICKS: u32 = 5;

/// A served table as comparable rows, sorted by prefix.
pub type Rows = Vec<(Prefix, LogicalIngress)>;

/// The deployment shape a write workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Engine shards and live-store regions (`serve --shards`).
    pub shards: usize,
    /// Record every epoch into a history store (`serve --hist-dir`).
    pub hist: bool,
}

/// How much a round checks beyond its cheap invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Counts and epochs only.
    Counts,
    /// Also every decoded flow against the generated one (on the feeding
    /// thread), and, when history is recorded, the rows served at every
    /// epoch (captured in the hook, compared with history afterwards).
    Full,
}

/// What the publication hook saw, shared with the thread that owns the
/// pipeline (the hook itself is boxed into it).
#[derive(Default)]
struct HookLog {
    /// Per publication: last flow handed to the engine → map served.
    lags: Vec<Duration>,
    /// Served rows after each publication (full check with history only).
    epochs: Vec<Rows>,
    /// Live rows summed over publications: the rows each diff produced.
    snapshot_rows: u64,
    /// When the final publication returned, and the driver clock then.
    done: Option<(Instant, BucketClock)>,
    /// The history plane's latched append error.
    hist_error: Option<String>,
}

/// The pipeline hook: the production publishers plus the benchmark's
/// stamps and spans.
struct Hook {
    serve: ServePublisher,
    swap: EpochSwap<LiveStore>,
    hist: Option<HistPublisher>,
    tracer: Option<Arc<Tracer>>,
    capture: bool,
    last_flow: Instant,
    log: Arc<Mutex<HookLog>>,
}

impl Hook {
    fn publish(&mut self, engine: &IpdEngine, clock: BucketClock, close: bool) {
        let tracer = self.tracer.as_deref();
        span(tracer, "serve.publish", || {
            if close {
                self.serve.closed(engine, clock)
            } else {
                self.serve.bucket_crossed(engine, clock)
            }
        });
        let served = Instant::now();
        {
            let current = self.swap.load();
            let mut log = self.log.lock().expect("hook log poisoned");
            log.lags.push(served - self.last_flow);
            log.snapshot_rows += current.value.len() as u64;
            if self.capture {
                log.epochs.push(rows_of(&current.value));
            }
        }
        if let Some(hist) = &mut self.hist {
            span(tracer, "hist.append", || {
                if close {
                    hist.closed(engine, clock)
                } else {
                    hist.bucket_crossed(engine, clock)
                }
            });
        }
    }
}

impl PipelineHook for Hook {
    fn flows(&mut self, flows: &[FlowRecord]) {
        if flows.is_empty() {
            return;
        }
        self.last_flow = Instant::now();
        self.serve.flows(flows);
        if let Some(hist) = &mut self.hist {
            hist.flows(flows);
        }
    }

    fn bucket_crossed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.publish(engine, clock, false);
    }

    fn finished(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.serve.finished(engine, clock);
        if let Some(hist) = &mut self.hist {
            hist.finished(engine, clock);
        }
    }

    fn closed(&mut self, engine: &IpdEngine, clock: BucketClock) {
        self.publish(engine, clock, true);
        let mut log = self.log.lock().expect("hook log poisoned");
        log.done = Some((Instant::now(), clock));
        log.hist_error = self
            .hist
            .as_ref()
            .and_then(|h| h.error())
            .map(|e| e.to_string());
    }
}

/// The served table as sorted `(prefix, ingress)` rows.
pub fn rows_of(store: &LiveStore) -> Rows {
    store.rows().into_iter().map(|(p, i, _)| (p, i)).collect()
}

/// The reference table: the snapshot's own `LpmTrie`, as sorted rows.
pub fn reference_rows(snapshot: &Snapshot) -> Rows {
    let mut rows: Rows = snapshot
        .lpm_table()
        .iter()
        .map(|(p, i)| (p, i.clone()))
        .collect();
    rows.sort_by_key(|&(p, _)| p);
    rows
}

/// A `TickEngine` that times the calls the bucket driver makes into it.
pub struct Timed<E> {
    pub inner: E,
    pub tracer: Option<Arc<Tracer>>,
}

impl<E: TickEngine> TickEngine for Timed<E> {
    fn ingest(&mut self, flow: &FlowRecord) {
        self.inner.ingest(flow);
    }

    fn ingest_batch(&mut self, flows: &[FlowRecord]) {
        let inner = &mut self.inner;
        span(self.tracer.as_deref(), "core.ingest", || {
            inner.ingest_batch(flows)
        });
    }

    fn tick(&mut self, now: u64) -> TickReport {
        let inner = &mut self.inner;
        span(self.tracer.as_deref(), "core.tick", || inner.tick(now))
    }

    fn snapshot(&self, ts: u64) -> Snapshot {
        span(self.tracer.as_deref(), "core.snapshot", || {
            self.inner.snapshot(ts)
        })
    }

    fn t_secs(&self) -> u64 {
        self.inner.t_secs()
    }

    fn engine(&self) -> &IpdEngine {
        self.inner.engine()
    }
}

/// Everything one write round produced.
pub struct Round {
    pub flows: usize,
    /// First datagram fed → final publication returned.
    pub secs: f64,
    pub lags_ms: Vec<f64>,
    pub publications: u64,
    /// Rows each publication's diff produced, summed.
    pub snapshot_rows: u64,
    /// Served rows after each publication (full check only).
    pub epochs: Vec<Rows>,
    /// The final served store and its swap.
    pub swap: EpochSwap<LiveStore>,
    /// The engine after the final tick, and the driver clock then.
    pub engine: IpdEngine,
    pub clock: BucketClock,
    /// The history store, when the shape records one.
    pub hist: Option<Arc<HistStore>>,
    /// Serve-layer counters (live only when traced).
    pub serve_metrics: ServeTelemetry,
}

/// The publishers of one round, not yet boxed into a pipeline.
struct Planes {
    hook: Hook,
    log: Arc<Mutex<HookLog>>,
    swap: EpochSwap<LiveStore>,
    hist: Option<Arc<HistStore>>,
    serve_metrics: ServeTelemetry,
}

fn planes(
    shape: Shape,
    dir: &Path,
    check: Check,
    tracer: Option<Arc<Tracer>>,
) -> Result<Planes, String> {
    // A live registry only when traced: the counters are per-layer metrics.
    let serve_metrics = match tracer {
        Some(_) => ServeTelemetry::register(&Telemetry::new()),
        None => ServeTelemetry::default(),
    };
    let serve = ServePublisher::with_config(shape.shards, serve_metrics.clone());
    let swap = serve.swap();
    let hist = if shape.hist {
        let _ = std::fs::remove_dir_all(dir);
        let store = HistStore::open_with(dir, HistConfig::default(), HistTelemetry::default())
            .map_err(|e| format!("opening the history store: {e}"))?;
        Some(HistPublisher::new(store))
    } else {
        None
    };
    let log = Arc::new(Mutex::new(HookLog::default()));
    Ok(Planes {
        hist: hist.as_ref().map(|h| h.store()),
        hook: Hook {
            serve,
            swap: swap.clone(),
            hist,
            tracer,
            capture: check == Check::Full && shape.hist,
            last_flow: Instant::now(),
            log: Arc::clone(&log),
        },
        log,
        swap,
        serve_metrics,
    })
}

/// Decode every datagram in `BATCH`-flow chunks and hand each chunk to
/// `send`. Decode failures are counted in the returned statistics; with a
/// full check every decoded flow is compared with the generated one.
fn decode_all(
    input: &Input,
    check: Check,
    tracer: Option<&Tracer>,
    mut send: impl FnMut(Vec<FlowRecord>) -> Result<(), String>,
) -> Result<CollectorStats, String> {
    let mut collector = Collector::new();
    let datagrams = &input.datagrams;
    let mut next = 0;
    let mut decoded = 0;
    while next < datagrams.len() {
        let mut batch = Vec::with_capacity(BATCH + 64);
        span(tracer, "netflow.decode", || {
            while next < datagrams.len() && batch.len() < BATCH {
                let d = &datagrams[next];
                // Errors land in the collector's statistics, checked below.
                let _ = collector.feed(&d.bytes, d.router, &mut batch);
                next += 1;
            }
        });
        if check == Check::Full {
            let want = input.flows.get(decoded..decoded + batch.len());
            if want != Some(&batch[..]) {
                let i = (0..batch.len())
                    .find(|&i| input.flows.get(decoded + i) != Some(&batch[i]))
                    .unwrap_or(0);
                return Err(format!(
                    "flow {}: decoded {:?}, generated {:?}",
                    decoded + i,
                    batch[i],
                    input.flows.get(decoded + i)
                ));
            }
        }
        decoded += batch.len();
        send(batch)?;
    }
    Ok(collector.stats().clone())
}

fn send_to<'a>(
    tx: &'a Sender<Vec<FlowRecord>>,
    tracer: Option<&'a Tracer>,
) -> impl FnMut(Vec<FlowRecord>) -> Result<(), String> + 'a {
    move |batch| {
        span(tracer, "pipeline.send", || tx.send(batch))
            .map_err(|_| "pipeline input closed early".to_string())
    }
}

fn check_collector(stats: &CollectorStats, input: &Input) -> Result<(), String> {
    let want = (input.datagrams.len() as u64, input.flows.len() as u64, 0, 0);
    let got = (
        stats.datagrams,
        stats.records,
        stats.errors,
        stats.sequence_gap,
    );
    if got != want {
        return Err(format!(
            "collector decoded (datagrams, records, errors, sequence gaps) = {got:?}, want {want:?}"
        ));
    }
    Ok(())
}

/// One round through the threaded production pipeline: `IpdPipeline` at
/// one shard, `ShardedPipeline` above, with the query server bound beside
/// it as `serve` runs it. A round emits about a dozen tick reports and
/// snapshots, far below the output channel's capacity, so the outputs
/// wait for `finish_hooked` instead of a draining thread: one thread
/// fewer per round keeps the allocator's arenas, and so peak memory, the
/// same from round to round.
pub fn threaded_round(
    input: &Input,
    shape: Shape,
    dir: &Path,
    check: Check,
    tracer: Option<Arc<Tracer>>,
) -> Result<Round, String> {
    let Planes {
        hook,
        log,
        swap,
        hist,
        serve_metrics,
    } = planes(shape, dir, check, tracer.clone())?;
    let history = hist
        .as_ref()
        .map(|s| Arc::new(s.reader()) as Arc<dyn HistoryProvider>);
    let server = ServeServer::serve_with_history(
        "127.0.0.1:0",
        swap.clone(),
        ServeTelemetry::default(),
        history,
    )
    .map_err(|e| format!("binding the query server: {e}"))?;
    let config = PipelineConfig {
        params: input.params.clone(),
        shards: shape.shards,
        snapshot_every_ticks: SNAPSHOT_EVERY_TICKS,
        ..PipelineConfig::default()
    };
    let tracer = tracer.as_deref();
    let start = Instant::now();
    let (stats, engine) = if shape.shards == 1 {
        let pipeline = IpdPipeline::spawn_hooked(config, Box::new(hook))
            .map_err(|e| format!("spawning the pipeline: {e}"))?;
        let tx = pipeline.input();
        let stats = decode_all(input, check, tracer, send_to(&tx, tracer));
        drop(tx);
        let (engine, _, _) = pipeline.finish_hooked();
        (stats?, engine)
    } else {
        let pipeline = ShardedPipeline::spawn_hooked(config, Box::new(hook))
            .map_err(|e| format!("spawning the pipeline: {e}"))?;
        let tx = pipeline.input();
        let stats = decode_all(input, check, tracer, send_to(&tx, tracer));
        drop(tx);
        let (engine, _, _) = pipeline.finish_hooked();
        (stats?, engine.into_engine())
    };
    server.shutdown();
    check_collector(&stats, input)?;
    finish_round(input, log, start, swap, engine, hist, serve_metrics)
}

/// One round with the same layers driven by `BucketDriver` on this thread:
/// the pipeline thread's exact call sequence (hook, batched ingest, ticks,
/// final tick, close), with the engine wrapped so its calls can be timed.
pub fn driven_round(
    input: &Input,
    shape: Shape,
    dir: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Result<Round, String> {
    let Planes {
        mut hook,
        log,
        swap,
        hist,
        serve_metrics,
    } = planes(shape, dir, Check::Counts, tracer.clone())?;
    let params = input.params.clone();
    let t = tracer.as_deref();
    let start = Instant::now();
    let engine = if shape.shards == 1 {
        let mut engine = Timed {
            inner: IpdEngine::new(params).map_err(|e| e.to_string())?,
            tracer: tracer.clone(),
        };
        let stats = drive(input, &mut engine, &mut hook, t)?;
        check_collector(&stats, input)?;
        engine.inner
    } else {
        let mut engine = Timed {
            inner: ShardedEngine::new(params, shape.shards).map_err(|e| e.to_string())?,
            tracer: tracer.clone(),
        };
        let stats = drive(input, &mut engine, &mut hook, t)?;
        check_collector(&stats, input)?;
        engine.inner.into_engine()
    };
    drop(hook);
    finish_round(input, log, start, swap, engine, hist, serve_metrics)
}

fn drive<E: TickEngine>(
    input: &Input,
    engine: &mut E,
    hook: &mut Hook,
    tracer: Option<&Tracer>,
) -> Result<CollectorStats, String> {
    let mut driver = BucketDriver::new(engine.t_secs(), SNAPSHOT_EVERY_TICKS);
    span(tracer, "round", || {
        let stats = decode_all(input, Check::Counts, tracer, |batch| {
            span(tracer, "pipeline.drive", || {
                driver.ingest_batch_with(engine, &batch, &mut |_| {}, hook)
            });
            Ok(())
        });
        span(tracer, "pipeline.close", || {
            hook.finished(engine.engine(), driver.clock());
            driver.finish(engine, &mut |_| {});
            hook.closed(engine.engine(), driver.clock());
        });
        stats
    })
}

/// Buckets the stream spans: one publication each (every crossing plus the
/// close).
fn bucket_count(input: &Input) -> u64 {
    let t = input.params.t_secs;
    match (input.flows.first(), input.flows.last()) {
        (Some(a), Some(b)) => b.ts / t - a.ts / t + 1,
        _ => 0,
    }
}

#[allow(clippy::too_many_arguments)]
fn finish_round(
    input: &Input,
    log: Arc<Mutex<HookLog>>,
    start: Instant,
    swap: EpochSwap<LiveStore>,
    engine: IpdEngine,
    hist: Option<Arc<HistStore>>,
    serve_metrics: ServeTelemetry,
) -> Result<Round, String> {
    let log = std::mem::take(&mut *log.lock().expect("hook log poisoned"));
    let (done, clock) = log.done.ok_or("the pipeline never closed")?;
    if engine.stats().flows_ingested != input.flows.len() as u64 {
        return Err(format!(
            "engine ingested {} flows, {} generated",
            engine.stats().flows_ingested,
            input.flows.len()
        ));
    }
    let publications = log.lags.len() as u64;
    let epoch = swap.load().value.epoch();
    if publications != bucket_count(input) || epoch != publications {
        return Err(format!(
            "{publications} publications reaching epoch {epoch}, want one per bucket: {}",
            bucket_count(input)
        ));
    }
    if let Some(e) = log.hist_error {
        return Err(format!("history append failed: {e}"));
    }
    if let Some(store) = &hist {
        if store.last_epoch() != publications {
            return Err(format!(
                "history holds {} epochs, {publications} published",
                store.last_epoch()
            ));
        }
    }
    Ok(Round {
        flows: input.flows.len(),
        secs: (done - start).as_secs_f64(),
        lags_ms: log.lags.iter().map(|d| d.as_secs_f64() * 1e3).collect(),
        publications,
        snapshot_rows: log.snapshot_rows,
        epochs: log.epochs,
        swap,
        engine,
        clock,
        hist,
        serve_metrics,
    })
}
