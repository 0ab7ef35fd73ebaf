//! Input generation, run in set-up and never timed: the churned DFZ flow
//! stream, encoded the way its routers export it (NetFlow v5 for IPv4,
//! IPFIX for IPv6), plus the query key set. Decoding stays in the measured
//! path; encoding does not.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use ipd::IpdParams;
use ipd_lpm::{Addr, Af};
use ipd_netflow::ipfix::IpfixExporter;
use ipd_netflow::v5::V5Exporter;
use ipd_netflow::{FlowRecord, RouterId};
use ipd_topology::IngressPoint;
use ipd_traffic::{DfzConfig, DfzWorld};

/// Flows a feeding thread hands the pipeline per send, as `ipd-tool serve`
/// chunks its stream.
pub const BATCH: usize = 4096;

/// Addresses per `Batch` request, the batch size `ipd-tool spoof --server`
/// sends.
pub const QUERY_BATCH: usize = 256;

/// Sampling interval advertised in the v5 headers (informational only).
const SAMPLING_INTERVAL: u16 = 1000;

/// IPFIX messages between template refreshes.
const TEMPLATE_REFRESH: u32 = 16;

/// Query keys are sampled from the flows of this many final minutes.
const KEY_MINUTES: u64 = 2;

/// Upper bound on the query key set.
const MAX_KEYS: usize = 1 << 16;

/// Stream size: the measured tier or the seconds-long smoke tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `DfzConfig::tier_100k`: 100k IPv4 + 20k IPv6 prefixes, 200k
    /// flows/min.
    Full,
    /// `DfzConfig::smoke_10k` at a reduced rate: a broken workload fails in
    /// seconds.
    Smoke,
}

impl Tier {
    /// The substrate configuration for `seed`.
    pub fn config(self, seed: u64) -> DfzConfig {
        match self {
            Tier::Full => DfzConfig::tier_100k(seed),
            Tier::Smoke => DfzConfig {
                flows_per_minute: 12_000,
                ..DfzConfig::smoke_10k(seed)
            },
        }
    }

    /// Minutes of stream per round.
    pub fn minutes(self) -> u64 {
        match self {
            Tier::Full => 8,
            Tier::Smoke => 4,
        }
    }
}

/// One export datagram and the router it came from.
pub struct Datagram {
    pub router: RouterId,
    pub bytes: Bytes,
}

/// A query key: a sampled flow source with the ingress its flow used.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    pub addr: Addr,
    pub truth: IngressPoint,
}

/// Everything a workload consumes.
pub struct Input {
    /// Engine parameters, derived from the nominal flow rate like
    /// `ipd-tool run --scale`.
    pub params: IpdParams,
    /// Every flow in export order: exactly what decoding must yield.
    pub flows: Arc<Vec<FlowRecord>>,
    /// The encoded stream, in replay order.
    pub datagrams: Vec<Datagram>,
    /// Query keys from the final minutes.
    pub keys: Vec<Key>,
    /// IPv6 flows in `flows`.
    pub v6_flows: usize,
    /// Total encoded bytes.
    pub encoded_bytes: usize,
    /// Route-churn events in the stream's window.
    pub churn_events: usize,
}

/// Engine parameters for a stream of `flows_per_minute`.
pub fn params_for(flows_per_minute: u64) -> IpdParams {
    let rate = flows_per_minute as f64;
    IpdParams {
        ncidr_factor_v4: (64.0 / 32.0e6 * rate).max(1e-4),
        ncidr_factor_v6: (rate * 1.5e-11).max(1e-9),
        ..IpdParams::default()
    }
}

/// Per-router exporters: one v5 engine and one IPFIX domain each.
struct Exporters {
    v5: V5Exporter,
    ipfix: IpfixExporter,
}

/// Generate the stream for `seed`. Flows of one second are grouped per
/// router (IPv4 first, then IPv6) and each group is exported as that
/// router's datagrams stamped with the second, so timestamps stay
/// non-decreasing in replay order.
pub fn generate(tier: Tier, seed: u64) -> Input {
    let cfg = tier.config(seed);
    let minutes = tier.minutes();
    let world = DfzWorld::new(cfg);
    let mut exporters: HashMap<RouterId, Exporters> = HashMap::new();
    let mut flows = Vec::new();
    let mut datagrams = Vec::new();
    let mut second: Vec<FlowRecord> = Vec::new();
    let mut export = |second: &mut Vec<FlowRecord>| {
        // Stable: flows keep their stream order inside each group.
        second.sort_by_key(|f| (f.router, f.af() == Af::V6));
        for group in second.chunk_by(|a, b| a.router == b.router) {
            let router = group[0].router;
            let ts = group[0].ts;
            let ex = exporters.entry(router).or_insert_with(|| Exporters {
                v5: V5Exporter::new(router, 0, SAMPLING_INTERVAL, cfg.epoch - 3600),
                ipfix: IpfixExporter::new(router, TEMPLATE_REFRESH),
            });
            let split = group.partition_point(|f| f.af() == Af::V4);
            let (v4, v6) = group.split_at(split);
            if !v4.is_empty() {
                let encoded = ex.v5.encode(ts, v4).expect("IPv4-only v5 group");
                datagrams.extend(encoded.into_iter().map(|bytes| Datagram { router, bytes }));
            }
            if !v6.is_empty() {
                let encoded = ex.ipfix.encode(ts, v6);
                datagrams.extend(encoded.into_iter().map(|bytes| Datagram { router, bytes }));
            }
        }
        flows.extend_from_slice(second);
        second.clear();
    };
    for lf in world.flows(minutes) {
        if second.first().is_some_and(|f| f.ts != lf.flow.ts) {
            export(&mut second);
        }
        second.push(lf.flow);
    }
    export(&mut second);

    let end = cfg.epoch + minutes * 60;
    let tail_start = flows.partition_point(|f| f.ts < end - KEY_MINUTES * 60);
    let tail = &flows[tail_start..];
    let stride = tail.len().div_ceil(MAX_KEYS).max(1);
    let keys = tail
        .iter()
        .step_by(stride)
        .map(|f| Key {
            addr: f.src,
            truth: IngressPoint::new(f.router, f.input_if),
        })
        .collect();
    Input {
        params: params_for(cfg.flows_per_minute),
        v6_flows: flows.iter().filter(|f| f.af() == Af::V6).count(),
        encoded_bytes: datagrams.iter().map(|d| d.bytes.len()).sum(),
        churn_events: world.churn_events(cfg.epoch, end).count(),
        flows: Arc::new(flows),
        datagrams,
        keys,
    }
}
