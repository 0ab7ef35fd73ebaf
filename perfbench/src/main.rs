//! The repository's benchmark: three workloads driven through the layers
//! `ipd-tool serve` runs — `Collector` → `IpdPipeline`/`ShardedPipeline` →
//! `ServePublisher`/`LiveStore` → `ServeServer`, plus the `HistPublisher`
//! and `ipd-state` seams — printing every end-to-end metric, or with
//! `--trace 1` every per-layer metric, and a last line of JSON.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload backfill|archive|query --seed N --seconds N --trace 0|1 [--smoke]
//! ```
//!
//! See `perfbench/README.md` for what each workload and metric means.

mod input;
mod read;
mod trace;
mod write;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use input::{Input, Tier};
use read::Reads;
use trace::{layers, Layer, Tracer};
use write::{Check, Round, Shape};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Rounds that build query's map; its write metrics come from them.
const QUERY_ROUNDS: usize = 2;

/// Closed-loop cycles of the read tail that follows the write workloads
/// and of the traced read phase: 96,000 single lookups and 24,000 batches.
const TAIL_CYCLES: usize = 1500;

/// In-process lookup passes over the key set in the traced run.
const IN_PROCESS_PASSES: usize = 32;

/// Reconciliation tolerance: the layers' self times must cover at least
/// this share of the traced wall time.
const RECONCILE_TOLERANCE: f64 = 0.05;

const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Backfill,
    Archive,
    Query,
}

impl Workload {
    /// The write shape: the workload's own for backfill and archive, the
    /// map-building `serve --trace` shape for query.
    fn shape(self) -> Shape {
        match self {
            Workload::Archive => Shape {
                shards: 2,
                hist: true,
            },
            Workload::Backfill | Workload::Query => Shape {
                shards: 1,
                hist: false,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    tier: Tier,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut tier = Tier::Full;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            tier = Tier::Smoke;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "backfill" => Workload::Backfill,
                    "archive" => Workload::Archive,
                    "query" => Workload::Query,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        tier,
    })
}

/// The accuracy floor of the §5.1 check: below every value seen across
/// seeds on the tier's stream.
fn accuracy_floor(tier: Tier) -> f64 {
    match tier {
        Tier::Full => 0.40,
        Tier::Smoke => 0.70,
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("{name:<34} {value:>16.4} {unit}");
        self.metrics.push(Metric { name, value, unit });
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q` quantile of `ns` (nearest rank), in microseconds.
fn quantile_us(ns: &[u64], q: f64) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).map_or(f64::NAN, |&x| x as f64 / 1e3)
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The build directory: the run's temporary stores and its span file go
/// there, inside the checkout and out of version control.
fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
}

fn describe(input: &Input, tier: Tier, seed: u64) {
    let flows = input.flows.len();
    let records = flows * std::mem::size_of::<ipd_netflow::FlowRecord>();
    let datagrams =
        input.encoded_bytes + input.datagrams.len() * std::mem::size_of::<input::Datagram>();
    println!(
        "input: {tier:?} tier, seed {seed}, {} min: {flows} flows ({:.1}% IPv6) in {} datagrams \
         ({:.1} MiB encoded), {} churn events, {} query keys; resident: {:.1} MiB datagrams, \
         {:.1} MiB generated records",
        tier.minutes(),
        100.0 * input.v6_flows as f64 / flows.max(1) as f64,
        input.datagrams.len(),
        input.encoded_bytes as f64 / MIB,
        input.churn_events,
        input.keys.len(),
        datagrams as f64 / MIB,
        records as f64 / MIB,
    );
}

/// The checks after a fully checked round (its decoded flows were compared
/// while feeding): the final served rows against the reference `LpmTrie`,
/// every history epoch against the rows served live at that epoch, and
/// the accuracy floor.
fn check_full(input: &Input, round: &Round, tier: Tier) -> Result<(), String> {
    let current = round.swap.load();
    let served = write::rows_of(&current.value);
    let reference = write::reference_rows(&round.engine.classified_snapshot(0));
    if served != reference {
        return Err(format!(
            "final served table ({} rows) differs from the snapshot's LpmTrie ({} rows)",
            served.len(),
            reference.len()
        ));
    }
    if let Some(hist) = &round.hist {
        if round.epochs.last() != Some(&served) {
            return Err("the last captured epoch is not the final table".into());
        }
        let reader = hist.reader();
        for (i, live) in round.epochs.iter().enumerate() {
            let epoch = i as u64 + 1;
            let store = reader
                .store_at(epoch)
                .map_err(|e| format!("reading history epoch {epoch}: {e}"))?
                .ok_or(format!("history lacks epoch {epoch}"))?;
            let mut rows: write::Rows = store.iter().map(|(p, i, _)| (p, i.clone())).collect();
            rows.sort_by_key(|&(p, _)| p);
            if &rows != live {
                return Err(format!(
                    "history epoch {epoch} ({} rows) differs from the map served live ({} rows)",
                    rows.len(),
                    live.len()
                ));
            }
        }
    }
    let acc = read::accuracy(&current.value, &input.keys);
    println!(
        "check: {} flows decoded field by field, final table = reference ({} rows), {} epochs{}, accuracy {acc:.4}",
        input.flows.len(),
        served.len(),
        round.publications,
        if round.hist.is_some() { " = history" } else { "" },
    );
    if acc < accuracy_floor(tier) {
        return Err(format!(
            "accuracy {acc:.4} below the floor {}",
            accuracy_floor(tier)
        ));
    }
    Ok(())
}

/// The reference answer of every key, from the engine's own snapshot.
fn reference_answers(round: &Round, input: &Input) -> Vec<read::Expected> {
    let table = round.engine.classified_snapshot(0).lpm_table();
    input
        .keys
        .iter()
        .map(|k| read::expected(&table, k.addr))
        .collect()
}

/// The timing a measured write round leaves once its map is dropped.
struct Timing {
    flows_per_s: f64,
    lags_ms: Vec<f64>,
}

impl Timing {
    fn of(round: &Round) -> Timing {
        Timing {
            flows_per_s: round.flows as f64 / round.secs,
            lags_ms: round.lags_ms.clone(),
        }
    }
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let shape = args.workload.shape();
    let hist_dir = dir.join("hist");
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let input = if args.workload == Workload::Query {
        input::generate(args.tier, args.seed)
    } else {
        let mut input = None;
        for _ in 0..SETUPS {
            drop(input.take());
            let t = Instant::now();
            input = Some(input::generate(args.tier, args.seed));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        input.expect("at least one set-up")
    };
    describe(&input, args.tier, args.seed);
    if args.traced {
        traced(args, &input, shape, dir, &mut out)?;
        return Ok(out);
    }

    // Whole rounds: for --seconds in the write workloads, a fixed number
    // to build query's map. The first round of each run is fully checked.
    let run_for = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut timings = Vec::new();
    let mut last: Option<Round> = None;
    loop {
        let check = if last.is_none() {
            Check::Full
        } else {
            Check::Counts
        };
        let want_rows = last.as_ref().map(|r| r.swap.load().value.len());
        drop(last.take());
        let round = write::threaded_round(&input, shape, &hist_dir, check, None)?;
        out.attempted += input.datagrams.len() as u64;
        match want_rows {
            None => {
                check_full(&input, &round, args.tier)?;
            }
            Some(rows) if rows != round.swap.load().value.len() => {
                return Err("a repeated round served a different table".into());
            }
            Some(_) => {}
        }
        timings.push(Timing::of(&round));
        last = Some(round);
        let done = match args.workload {
            Workload::Query => timings.len() >= QUERY_ROUNDS,
            _ => start.elapsed() >= run_for,
        };
        if done {
            break;
        }
    }
    let last = last.expect("at least one round");
    let per_round: Vec<String> = timings
        .iter()
        .map(|t| format!("{:.0}", t.flows_per_s))
        .collect();
    println!(
        "write: {} rounds of {} flows, {} publications each; flows/s per round: {}",
        timings.len(),
        last.flows,
        last.publications,
        per_round.join(" ")
    );

    confine()?;
    let reads = if args.workload == Workload::Query {
        let want = reference_answers(&last, &input);
        let mut reopened = None;
        for _ in 0..SETUPS {
            drop(reopened.take());
            let r = read::reopen(
                &last.engine,
                last.clock,
                shape.shards,
                &dir.join("reopen"),
                false,
                None,
            )?;
            setup_s.push(r.secs);
            reopened = Some(r);
        }
        let reopened = reopened.expect("at least one set-up");
        let acc = read::accuracy(&reopened.swap.load().value, &input.keys);
        if acc < accuracy_floor(args.tier) {
            return Err(format!("reopened map accuracy {acc:.4} below the floor"));
        }
        drop(last);
        read::closed_loop(&reopened.server, &input.keys, &want, 1, run_for, 1, None)?
    } else {
        read_tail(&last, &input, None)?
    };
    out.attempted += reads.requests();
    println!(
        "read: {} lookups (round trip p50 {:.2} us, p99 {:.2} us), {} batches",
        reads.lookup_ns.len(),
        quantile_us(&reads.lookup_ns, 0.50),
        quantile_us(&reads.lookup_ns, 0.99),
        reads.batch_ns.len()
    );
    let flows_per_s: Vec<f64> = timings.iter().map(|t| t.flows_per_s).collect();
    let lags: Vec<f64> = timings.iter().flat_map(|t| t.lags_ms.clone()).collect();
    let batch_s = reads.batch_ns.iter().sum::<u64>() as f64 / 1e9;
    out.put("setup_s", median(&setup_s), "s");
    out.put("flows_per_s", median(&flows_per_s), "1/s");
    out.put("serve_lag_p50_ms", median(&lags), "ms");
    out.put("answers_per_s", reads.batch_answers as f64 / batch_s, "1/s");
    out.put("peak_rss_mb", peak_rss_mib(), "MiB");
    Ok(out)
}

/// Confine the read phase to one CPU: client and server threads then
/// hand each request over on one core instead of waking each other across
/// two, which holds round trips steady from run to run.
fn confine() -> Result<(), String> {
    let cpu = read::confine_to_one_cpu()?;
    println!("read phase: confined to CPU {cpu}");
    Ok(())
}

/// After the write rounds, the served map answers one client: `serve`
/// lingering after its stream. Call after `confine`, so the server threads
/// it starts inherit the confinement.
fn read_tail(round: &Round, input: &Input, tracer: Option<&Tracer>) -> Result<Reads, String> {
    let want = reference_answers(round, input);
    let server = ipd_serve::ServeServer::serve(
        "127.0.0.1:0",
        round.swap.clone(),
        ipd_serve::ServeTelemetry::default(),
    )
    .map_err(|e| format!("binding the query server: {e}"))?;
    let epoch = round.swap.load().value.epoch();
    let reads = read::closed_loop(
        &server,
        &input.keys,
        &want,
        epoch,
        Duration::ZERO,
        TAIL_CYCLES,
        tracer,
    );
    server.shutdown();
    reads
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The traced run: the write layers through the threaded pipeline (feeder
/// and hook spans) and through `BucketDriver` on one thread (every layer),
/// an untraced one-thread round for the tracing overhead, a traced
/// checkpoint/reopen, and a traced read phase.
fn traced(
    args: &Args,
    input: &Input,
    shape: Shape,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let hist_dir = dir.join("hist");
    let datagrams = input.datagrams.len() as u64;
    let flows = input.flows.len() as f64;
    let tracer = Arc::new(Tracer::new());

    let threaded_trace = tracer.begin_trace();
    let threaded =
        write::threaded_round(input, shape, &hist_dir, Check::Full, Some(tracer.clone()))?;
    check_full(input, &threaded, args.tier)?;
    let plain = write::driven_round(input, shape, &hist_dir, None)?;
    let driven_trace = tracer.begin_trace();
    let driven = write::driven_round(input, shape, &hist_dir, Some(tracer.clone()))?;
    out.attempted += 3 * datagrams;
    let untraced = plain.flows as f64 / plain.secs;
    let threaded_rate = threaded.flows as f64 / threaded.secs;
    drop((plain, threaded));

    // Query reads the map reopened from its checkpoint; the write
    // workloads read the map their own round served.
    confine()?;
    let reopen_trace = tracer.begin_trace();
    let reopened = read::reopen(
        &driven.engine,
        driven.clock,
        shape.shards,
        &dir.join("reopen"),
        true,
        Some(&tracer),
    )?;
    let read_trace = tracer.begin_trace();
    let store = match args.workload {
        Workload::Query => reopened.swap.load(),
        _ => driven.swap.load(),
    };
    read::in_process(&store, &input.keys, IN_PROCESS_PASSES, &tracer);
    let reads = match args.workload {
        Workload::Query => read::closed_loop(
            &reopened.server,
            &input.keys,
            &reference_answers(&driven, input),
            1,
            Duration::ZERO,
            TAIL_CYCLES,
            Some(&tracer),
        )?,
        _ => read_tail(&driven, input, Some(&tracer))?,
    };
    out.attempted += reads.requests();

    let threaded_layers = layers(&tracer.spans_of(threaded_trace));
    let driven_layers = layers(&tracer.spans_of(driven_trace));
    let reopen_layers = layers(&tracer.spans_of(reopen_trace));
    let read_layers = layers(&tracer.spans_of(read_trace));
    let get = |l: &std::collections::BTreeMap<&'static str, Layer>, name: &str| {
        l.get(name).cloned().unwrap_or_default()
    };
    let decode = get(&driven_layers, "netflow.decode");
    let ingest = get(&driven_layers, "core.ingest");
    let tick = get(&driven_layers, "core.tick");
    let publish = get(&driven_layers, "serve.publish");
    // Archive appends every epoch in its round; the other workloads only
    // append the reopened map, as `serve --from-checkpoint --hist-dir`.
    let hist = match shape.hist {
        true => get(&driven_layers, "hist.append"),
        false => get(&reopen_layers, "hist.append"),
    };
    let changed = driven.serve_metrics.changed.get();
    out.put(
        "netflow.decode_ns_per_record",
        decode.total_ns() as f64 / flows,
        "ns",
    );
    out.put(
        "core.ingest_ns_per_flow",
        ingest.total_ns() as f64 / flows,
        "ns",
    );
    out.put(
        "core.shard_batch_p50_us",
        ingest.p50_ns() as f64 / 1e3,
        "us",
    );
    out.put("core.tick_p50_ms", ms(tick.p50_ns()), "ms");
    out.put("core.tick_max_ms", ms(tick.max_ns()), "ms");
    out.put("core.tick_s", secs(tick.total_ns()), "s");
    out.put(
        "core.state_mb",
        driven.engine.state_bytes_estimate() as f64 / MIB,
        "MiB",
    );
    out.put(
        "pipeline.feed_blocked_s",
        secs(get(&threaded_layers, "pipeline.send").total_ns()),
        "s",
    );
    out.put("serve.publish_p50_ms", ms(publish.p50_ns()), "ms");
    out.put("serve.publish_s", secs(publish.total_ns()), "s");
    out.put("serve.changed_rows", changed as f64, "count");
    out.put(
        "serve.rotations",
        driven.serve_metrics.rebuilds.get() as f64,
        "count",
    );
    out.put(
        "serve.changed_per_snapshot_row",
        changed as f64 / driven.snapshot_rows.max(1) as f64,
        "ratio",
    );
    out.put(
        "serve.store_mb",
        store.value.memory_bytes() as f64 / MIB,
        "MiB",
    );
    out.put("hist.append_p50_ms", ms(hist.p50_ns()), "ms");
    out.put("hist.append_s", secs(hist.total_ns()), "s");
    out.put(
        "state.checkpoint_s",
        secs(get(&reopen_layers, "state.checkpoint").total_ns()),
        "s",
    );
    out.put(
        "state.restore_s",
        secs(get(&reopen_layers, "state.restore").total_ns()),
        "s",
    );
    out.put(
        "serve.lookup_ns",
        get(&read_layers, "serve.lookup").total_ns() as f64
            / (IN_PROCESS_PASSES * input.keys.len()) as f64,
        "ns",
    );
    out.put(
        "serve.batch_p50_us",
        get(&read_layers, "serve.batch_rt").p50_ns() as f64 / 1e3,
        "us",
    );
    out.put(
        "serve.lookup_rt_p50_us",
        quantile_us(&reads.lookup_ns, 0.50),
        "us",
    );
    out.put(
        "serve.lookup_rt_p99_us",
        quantile_us(&reads.lookup_ns, 0.99),
        "us",
    );

    // Reconciliation: in the one-thread round every layer's self time is
    // on the one thread, so they must add up to the round's wall time.
    let round = get(&driven_layers, "round");
    let wall = round.total_ns();
    println!("reconcile: self times of the one-thread traced round");
    for (name, layer) in &driven_layers {
        if *name != "round" {
            println!(
                "  {name:<18} {:>5} spans {:>9.3} s self ({:>5.1}%)",
                layer.count(),
                secs(layer.self_ns),
                100.0 * layer.self_ns as f64 / wall as f64
            );
        }
    }
    let covered = 1.0 - round.self_ns as f64 / wall as f64;
    println!(
        "reconcile: layers cover {:.3} s of {:.3} s traced wall ({:.1}%), tolerance {:.0}%: {}",
        secs(wall - round.self_ns),
        secs(wall),
        100.0 * covered,
        100.0 * RECONCILE_TOLERANCE,
        if covered >= 1.0 - RECONCILE_TOLERANCE {
            "ok"
        } else {
            "NOT MET"
        }
    );
    println!(
        "reconcile: read phase: in-process {:.3} s, lookup round trips {:.3} s, batch round trips {:.3} s",
        secs(get(&read_layers, "serve.lookup").total_ns()),
        secs(get(&read_layers, "serve.lookup_rt").total_ns()),
        secs(get(&read_layers, "serve.batch_rt").total_ns()),
    );
    let traced = driven.flows as f64 / driven.secs;
    println!(
        "tracing overhead: one-thread flows_per_s {untraced:.0} untraced, {traced:.0} traced ({:+.1}%); \
         threaded round with feeder and hook spans: {:.0}",
        100.0 * (traced / untraced - 1.0),
        threaded_rate,
    );
    let spans = build_dir()
        .join("perfbench-spans")
        .join(format!("{:?}-seed{}.tsv", args.workload, args.seed).to_lowercase());
    tracer
        .write_tsv(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    println!("spans: {}", spans.display());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload backfill|archive|query --seed N --seconds N --trace 0|1 [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let dir = build_dir()
        .join("perfbench-run")
        .join(std::process::id().to_string());
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (correct, out) = match result {
        Ok(out) => (true, out),
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            (false, Outcome::default())
        }
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
