//! The read path: the `serve --from-checkpoint` reopen (checkpoint the
//! engine with `ipd-state`, load it back with `latest_engine`, publish it,
//! bind the query server) and one client connection running a closed loop
//! of single `Lookup` and 256-address `Batch` requests against it.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipd::pipeline::BucketClock;
use ipd::{IpdEngine, LogicalIngress};
use ipd_hist::HistStore;
use ipd_lpm::{Addr, LpmTrie};
use ipd_serve::proto::{AnswerKind, WireAnswer};
use ipd_serve::{
    EpochSwap, IngressStore, LiveStore, ServeClient, ServePublisher, ServeServer, ServeTelemetry,
};
use ipd_state::{CheckpointState, CheckpointStore};

use crate::input::{Key, QUERY_BATCH};
use crate::trace::{span, Tracer};

/// Single lookups per closed-loop cycle.
const LOOKUPS_PER_CYCLE: usize = 64;

/// `Batch` requests per closed-loop cycle.
const BATCHES_PER_CYCLE: usize = 16;

/// A wire answer reduced to what the reference can predict: kind, matched
/// length, router, and interface (a bundle's lowest member).
pub type Expected = (AnswerKind, u8, u32, u16);

/// The answer the reference table gives for `addr`, flattened the way the
/// wire protocol documents it.
pub fn expected(table: &LpmTrie<LogicalIngress>, addr: Addr) -> Expected {
    match table.lookup(addr) {
        None => (AnswerKind::Unmapped, 0, 0, 0),
        Some((prefix, LogicalIngress::Link(p))) => {
            (AnswerKind::Link, prefix.len(), p.router, p.ifindex)
        }
        Some((prefix, LogicalIngress::Bundle(b))) => (
            AnswerKind::Bundle,
            prefix.len(),
            b.router,
            b.ifindexes.iter().copied().min().unwrap_or(0),
        ),
    }
}

fn reduce(a: &WireAnswer) -> Expected {
    (a.kind, a.prefix_len, a.router, a.ifindex)
}

/// Share of keys whose served answer names the ingress their own flow used
/// (the paper's §5.1 validation).
pub fn accuracy(store: &LiveStore, keys: &[Key]) -> f64 {
    let hits = keys
        .iter()
        .filter(|k| {
            store
                .lookup(k.addr)
                .is_some_and(|a| a.ingress.matches(k.truth))
        })
        .count();
    hits as f64 / keys.len().max(1) as f64
}

/// Confine this thread, and every thread it starts from now on, to one
/// CPU: the highest-numbered one the process may use. Returns that CPU.
pub fn confine_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..mask.len() * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(cpu)
}

/// A map reopened from its checkpoint and served.
pub struct Reopened {
    pub swap: EpochSwap<LiveStore>,
    pub server: ServeServer,
    pub secs: f64,
}

/// Checkpoint `engine`, reopen it the way `serve --from-checkpoint` does
/// and bind the query server on it. With `hist`, the reopened map is also
/// appended to a history store there, as `--hist-dir` does.
pub fn reopen(
    engine: &IpdEngine,
    clock: BucketClock,
    regions: usize,
    dir: &Path,
    hist: bool,
    tracer: Option<&Tracer>,
) -> Result<Reopened, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let store = span(tracer, "state.checkpoint", || {
        let store = CheckpointStore::open(dir.join("state"))?;
        let state = CheckpointState {
            dump: engine.dump_state(),
            clock,
        };
        store.save_checkpoint(1, &state).map(|()| store)
    })
    .map_err(|e| format!("checkpointing: {e}"))?;
    let (_, restored, clock) = span(tracer, "state.restore", || store.latest_engine())
        .map_err(|e| format!("restoring: {e}"))?
        .ok_or("no restorable checkpoint")?;
    let ts = clock
        .current_bucket
        .map_or(0, |b| b * restored.params().t_secs);
    let mut publisher = ServePublisher::with_config(regions, ServeTelemetry::default());
    let swap = publisher.swap();
    span(tracer, "serve.publish", || {
        publisher.publish_now(&restored, ts)
    });
    if hist {
        span(tracer, "hist.append", || {
            HistStore::open(dir.join("hist"))
                .and_then(|h| h.append_store(&IngressStore::from_engine(&restored, ts)))
        })
        .map_err(|e| format!("appending to history: {e}"))?;
    }
    let server = span(tracer, "serve.bind", || {
        ServeServer::serve("127.0.0.1:0", swap.clone(), ServeTelemetry::default())
    })
    .map_err(|e| format!("binding the query server: {e}"))?;
    Ok(Reopened {
        swap,
        server,
        secs: start.elapsed().as_secs_f64(),
    })
}

/// What a closed loop of requests measured.
#[derive(Default)]
pub struct Reads {
    /// Single `Lookup` round trips, nanoseconds.
    pub lookup_ns: Vec<u64>,
    /// `Batch` round trips, nanoseconds.
    pub batch_ns: Vec<u64>,
    /// Addresses answered by `Batch` requests.
    pub batch_answers: u64,
}

impl Reads {
    pub fn requests(&self) -> u64 {
        (self.lookup_ns.len() + self.batch_ns.len()) as u64
    }
}

/// Run whole cycles of `LOOKUPS_PER_CYCLE` single lookups then
/// `BATCHES_PER_CYCLE` batches over the keys, one connection, each request
/// sent when the previous answer arrived, until `run` has passed (at least
/// `min_cycles`). Every answer must equal `want` for its key and carry
/// epoch `epoch`.
pub fn closed_loop(
    server: &ServeServer,
    keys: &[Key],
    want: &[Expected],
    epoch: u64,
    run: Duration,
    min_cycles: usize,
    tracer: Option<&Tracer>,
) -> Result<Reads, String> {
    let mut client =
        ServeClient::connect(server.local_addr()).map_err(|e| format!("connecting: {e}"))?;
    let addrs: Vec<Addr> = keys.iter().map(|k| k.addr).collect();
    let n = addrs.len();
    if n < QUERY_BATCH {
        return Err(format!("{n} query keys, fewer than one batch"));
    }
    let mut reads = Reads::default();
    let mut single = 0usize;
    let mut batch_at = 0usize;
    let start = Instant::now();
    let mut cycles = 0;
    while cycles < min_cycles || start.elapsed() < run {
        for _ in 0..LOOKUPS_PER_CYCLE {
            let i = single % n;
            single += 1;
            let t = Instant::now();
            let (got_epoch, answer) = span(tracer, "serve.lookup_rt", || client.lookup(addrs[i]))
                .map_err(|e| format!("lookup: {e}"))?;
            reads.lookup_ns.push(t.elapsed().as_nanos() as u64);
            if got_epoch != epoch || reduce(&answer) != want[i] {
                return Err(format!(
                    "lookup {} at epoch {got_epoch}: {answer:?}, reference {:?} at epoch {epoch}",
                    addrs[i], want[i]
                ));
            }
        }
        for _ in 0..BATCHES_PER_CYCLE {
            if batch_at + QUERY_BATCH > n {
                batch_at = 0;
            }
            let range = batch_at..batch_at + QUERY_BATCH;
            batch_at += QUERY_BATCH;
            let t = Instant::now();
            let (got_epoch, answers) = span(tracer, "serve.batch_rt", || {
                client.batch(&addrs[range.clone()])
            })
            .map_err(|e| format!("batch: {e}"))?;
            reads.batch_ns.push(t.elapsed().as_nanos() as u64);
            reads.batch_answers += answers.len() as u64;
            if got_epoch != epoch {
                return Err(format!("batch answered at epoch {got_epoch}, want {epoch}"));
            }
            for (i, a) in range.zip(&answers) {
                if reduce(a) != want[i] {
                    return Err(format!(
                        "batch answer for {}: {a:?}, reference {:?}",
                        addrs[i], want[i]
                    ));
                }
            }
        }
        cycles += 1;
    }
    Ok(reads)
}

/// In-process `LiveStore::lookup` over the keys, `rounds` times, inside
/// one span. Returns the answers found (kept so the loop is not elided).
pub fn in_process(
    store: &Arc<ipd_serve::Versioned<LiveStore>>,
    keys: &[Key],
    rounds: usize,
    tracer: &Tracer,
) -> usize {
    tracer.span("serve.lookup", || {
        let mut found = 0usize;
        for _ in 0..rounds {
            for k in keys {
                found += std::hint::black_box(store.value.lookup(std::hint::black_box(k.addr)))
                    .is_some() as usize;
            }
        }
        found
    })
}
