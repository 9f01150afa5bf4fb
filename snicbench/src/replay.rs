//! Layer replays: each times one layer's public functions alone, sized
//! by the counts of the run being explained, and the ladder that adds the
//! replayed costs up against the run's 1-worker wall time.

use std::hint::black_box;
use std::time::Instant;

use memsys::{MemOp, MemSystem};
use nicsim::{Endpoint, Fabric, PathKind, RequestDesc, Verb};
use simnet::arrivals::{ArrivalGen, ArrivalProcess};
use simnet::engine::Engine;
use simnet::rng::SimRng;
use simnet::time::{Bandwidth, Nanos};
use snic_cluster::kv::{KV_INDEX_BASE, KV_VALUES_BASE};
use snic_cluster::{kv_home_server, KvStreamSpec, MsgKind, NetMsg, SwitchFabric};
use snic_farmem::{FmStreamSpec, PageAccessGen, SocPageCache};
use snic_kvstore::HashIndex;
use topology::ClusterSpec;

use crate::report::{median, ratio};

/// Timed repetitions of each replay; the median is reported.
const REPS: usize = 3;
/// Upper bound on the operations of one repetition.
const CAP: u64 = 200_000;
/// Operations of a replay of a layer the run did not use.
pub const NOMINAL: u64 = 10_000;

/// Operations a replay performs for a run that counted `count`.
pub fn sized(count: u64) -> u64 {
    if count == 0 {
        NOMINAL
    } else {
        count.min(CAP)
    }
}

/// Median over [`REPS`] of `rep`'s elapsed ns divided by `n`. Each
/// repetition builds its own state untimed and returns the timed part.
fn ns_per_op(n: u64, mut rep: impl FnMut() -> u64) -> f64 {
    let xs: Vec<f64> = (0..REPS).map(|_| rep() as f64 / n as f64).collect();
    median(&xs)
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Spreads weighted items over a cycle of about `slots` entries, keeping
/// at least the heaviest one.
pub fn expand<T: Copy>(weighted: &[(T, u64)], slots: u64) -> Vec<T> {
    let total: u64 = weighted.iter().map(|w| w.1).sum();
    let mut out = Vec::new();
    for &(item, w) in weighted {
        let k = (w as f64 * slots as f64 / total.max(1) as f64).round() as u64;
        out.extend(std::iter::repeat_n(item, k as usize));
    }
    if out.is_empty() {
        if let Some(&(item, _)) = weighted.iter().max_by_key(|w| w.1) {
            out.push(item);
        }
    }
    out
}

/// One request shape of a run's mix.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub path: PathKind,
    pub verb: Verb,
    pub payload: u64,
    pub range: u64,
    pub dpa: Option<u64>,
}

impl Req {
    /// Wire bytes of the request and of its response.
    pub fn wire(&self) -> (u64, u64) {
        match self.verb {
            Verb::Read => (0, self.payload),
            Verb::Write => (self.payload, 0),
            Verb::Send => (self.payload, self.payload),
        }
    }
}

/// One message shape: source shard, destination shard, wire bytes.
#[derive(Debug, Clone, Copy)]
pub struct Msg {
    pub src: usize,
    pub dst: usize,
    pub bytes: u64,
}

/// `SwitchFabric::route` per message, over `mix` departing `gap_ns`
/// apart on the rack's switch.
pub fn switch_route_ns(cluster: &ClusterSpec, mix: &[Msg], gap_ns: f64, n: u64) -> f64 {
    let bws: Vec<Bandwidth> = cluster
        .clients
        .iter()
        .chain(&cluster.servers)
        .map(|m| m.nic.nic().network_bw)
        .collect();
    ns_per_op(n, || {
        let mut sw = SwitchFabric::new(&cluster.wire, &bws);
        let msgs: Vec<NetMsg> = (0..n)
            .map(|i| {
                let m = mix[i as usize % mix.len()];
                NetMsg {
                    src: m.src,
                    dst: m.dst,
                    seq: i,
                    depart: Nanos::new((i as f64 * gap_ns) as u64),
                    bytes: m.bytes,
                    kind: MsgKind::Response {
                        stream: 0,
                        thread: 0,
                        posted: Nanos::ZERO,
                        xid: i,
                    },
                }
            })
            .collect();
        let t0 = Instant::now();
        for m in &msgs {
            black_box(sw.route(m));
        }
        elapsed_ns(t0)
    })
}

/// Engine `pop` + `schedule` per event with `depth` events in flight,
/// each rescheduled up to `2 * hold_ns` ahead.
pub fn engine_ns_per_event(depth: usize, hold_ns: u64, n: u64) -> f64 {
    ns_per_op(n, || {
        let mut rng = SimRng::seed(1);
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..depth.max(1) {
            eng.schedule(Nanos::new(rng.uniform_u64(hold_ns + 1)), i as u32)
                .expect("seeding at t >= 0");
        }
        let holds: Vec<Nanos> = (0..n)
            .map(|_| Nanos::new(1 + rng.uniform_u64(2 * hold_ns + 1)))
            .collect();
        let t0 = Instant::now();
        for &h in &holds {
            let (now, ev) = eng.pop().expect("every pop reschedules");
            eng.schedule(now + h, ev)
                .expect("rescheduling ahead of now");
        }
        elapsed_ns(t0)
    })
}

/// Cost of the machine models per request and per PCIe TLP.
pub struct MachineCost {
    pub ns_per_request: f64,
    pub tlps_per_request: f64,
    pub ns_per_tlp: f64,
}

/// `Fabric::execute` per request, over `mix` posted `gap_ns` apart on a
/// fresh fabric from `make`.
pub fn machine(make: impl Fn() -> Fabric, mix: &[Req], gap_ns: f64, n: u64) -> MachineCost {
    let mut tlps = 0u64;
    let ns = ns_per_op(n, || {
        let mut fabric = make();
        let clients = fabric.clients.len().max(1);
        let mut rng = SimRng::seed(3);
        let reqs: Vec<RequestDesc> = (0..n as usize)
            .map(|i| {
                let r = mix[i % mix.len()];
                let addr = rng.addr_in_range(0, r.range.max(64), 64);
                let d = RequestDesc::new(r.verb, r.path, r.payload, addr, i % clients);
                r.dpa.map_or(d, |resident| d.with_dpa(resident))
            })
            .collect();
        let t0 = Instant::now();
        for (i, d) in reqs.iter().enumerate() {
            black_box(fabric.execute(Nanos::new((i as f64 * gap_ns) as u64), *d));
        }
        let e = elapsed_ns(t0);
        tlps = fabric.server.counters().total_tlps();
        e
    });
    let tlps_per_request = tlps as f64 / n as f64;
    MachineCost {
        ns_per_request: ns,
        tlps_per_request,
        ns_per_tlp: ratio(ns, tlps_per_request),
    }
}

/// `MemSystem::dma_access` per access on the responder memory each
/// request of `mix` targets.
pub fn memsys_ns_per_access(mix: &[Req], gap_ns: f64, n: u64) -> f64 {
    ns_per_op(n, || {
        let mut host = MemSystem::host_like();
        let mut soc = MemSystem::soc_like();
        let mut rng = SimRng::seed(4);
        let ops: Vec<(bool, u64, u64, MemOp)> = (0..n as usize)
            .map(|i| {
                let r = mix[i % mix.len()];
                let op = if r.verb == Verb::Read {
                    MemOp::Read
                } else {
                    MemOp::Write
                };
                let soc_side = r.path.responder() == Endpoint::Soc;
                let addr = rng.addr_in_range(0, r.range.max(64), 64);
                (soc_side, addr, r.payload.max(64), op)
            })
            .collect();
        let t0 = Instant::now();
        for (i, &(soc_side, addr, bytes, op)) in ops.iter().enumerate() {
            let mem = if soc_side { &mut soc } else { &mut host };
            black_box(mem.dma_access(Nanos::new((i as f64 * gap_ns) as u64), addr, bytes, op));
        }
        elapsed_ns(t0)
    })
}

/// `HashIndex::lookup` on server 0's preloaded index.
pub fn kv_lookup_ns(spec: &KvStreamSpec, n_servers: usize, n: u64) -> f64 {
    let mut index = HashIndex::new(spec.index_buckets, KV_INDEX_BASE);
    let mut keys = Vec::new();
    for k in (0..spec.n_keys).filter(|&k| kv_home_server(k, n_servers) == 0) {
        let value_addr = KV_VALUES_BASE + keys.len() as u64 * u64::from(spec.value_size);
        index
            .insert(k, value_addr, spec.value_size)
            .expect("the service's own preload fits");
        keys.push(k);
    }
    ns_per_op(n, || {
        let mut rng = SimRng::seed(5);
        let probe: Vec<u64> = (0..n)
            .map(|_| keys[rng.uniform_u64(keys.len() as u64) as usize])
            .collect();
        let t0 = Instant::now();
        for &k in &probe {
            black_box(index.lookup(k).ok());
        }
        elapsed_ns(t0)
    })
}

/// `SocPageCache` get/put per operation on the stream's page pattern.
pub fn fm_cache_ns(spec: &FmStreamSpec, n: u64) -> f64 {
    ns_per_op(n, || {
        let mut cache = SocPageCache::new(spec.soc_cache_pages, spec.page_bytes);
        let mut gen = PageAccessGen::new(
            SimRng::seed(6),
            spec.n_pages,
            spec.working_set,
            spec.reuse,
            spec.theta,
            spec.write_fraction,
        );
        let accesses: Vec<_> = (0..n).map(|_| gen.next_access()).collect();
        let t0 = Instant::now();
        for (i, a) in accesses.iter().enumerate() {
            let now = Nanos::new(i as u64 * 500);
            if a.write {
                black_box(cache.serve_put(now, a.page, i as u64));
            } else {
                black_box(cache.serve_get(now, a.page));
            }
        }
        elapsed_ns(t0)
    })
}

/// `ArrivalGen::next_arrival` per arrival of a Poisson process.
pub fn arrival_ns(rate_per_sec: f64, users: u64, n: u64) -> f64 {
    ns_per_op(n, || {
        let mut gen = ArrivalGen::new(
            ArrivalProcess::Poisson { rate: rate_per_sec },
            users,
            SimRng::seed(7),
        );
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(gen.next_arrival());
        }
        elapsed_ns(t0)
    })
}

/// The layer ladder of one run: set-up plus each replayed layer's
/// estimate (ns/op × the run's count), and the residual that reconciles
/// them with the 1-worker wall time.
pub struct Ladder {
    pub wall_1w_s: f64,
    pub setup_s: f64,
    pub estimates: Vec<(&'static str, f64)>,
}

impl Ladder {
    /// Wall time no replay accounts for: the runtime's pending set,
    /// delivery and barrier, the shard handlers' own logic, and so on.
    pub fn residual_s(&self) -> f64 {
        self.wall_1w_s - self.setup_s - self.estimates.iter().map(|e| e.1).sum::<f64>()
    }

    /// A layer's estimated share of the 1-worker wall time.
    pub fn share(&self, layer: &str) -> f64 {
        let est = self
            .estimates
            .iter()
            .find(|e| e.0 == layer)
            .map_or(0.0, |e| e.1);
        ratio(est, self.wall_1w_s)
    }

    pub fn line(&self) -> String {
        let parts: Vec<String> = self
            .estimates
            .iter()
            .map(|(n, s)| format!("{n} {s:.4}"))
            .collect();
        format!(
            "ladder: setup {:.4} + {} + residual {:.4} = wall_1w {:.4} s",
            self.setup_s,
            parts.join(" + "),
            self.residual_s(),
            self.wall_1w_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_reconciles_with_the_1_worker_wall() {
        let l = Ladder {
            wall_1w_s: 1.0,
            setup_s: 0.1,
            estimates: vec![("switch", 0.2), ("engine", 0.25), ("machine", 0.3)],
        };
        assert!((l.residual_s() - 0.15).abs() < 1e-12);
        let sum = l.setup_s + l.estimates.iter().map(|e| e.1).sum::<f64>() + l.residual_s();
        assert!((sum - l.wall_1w_s).abs() < 1e-12);
        assert!((l.share("engine") - 0.25).abs() < 1e-12);
        assert_eq!(l.share("kv"), 0.0);
        // Estimates may overshoot the wall: the residual goes negative
        // rather than being clamped, so the sum still reconciles.
        let over = Ladder {
            wall_1w_s: 1.0,
            setup_s: 0.5,
            estimates: vec![("machine", 0.75)],
        };
        assert!((over.residual_s() + 0.25).abs() < 1e-12);
    }

    #[test]
    fn expand_keeps_proportions_and_the_heaviest_item() {
        let v = expand(&[('a', 3), ('b', 1)], 8);
        assert_eq!(v.iter().filter(|&&c| c == 'a').count(), 6);
        assert_eq!(v.iter().filter(|&&c| c == 'b').count(), 2);
        assert_eq!(expand(&[('a', 1), ('b', 1_000_000)], 4), vec!['b'; 4]);
        assert_eq!(expand(&[('a', 0)], 4), vec!['a']);
    }

    #[test]
    fn replays_time_real_work() {
        assert!(engine_ns_per_event(64, 2000, 2000) > 0.0);
        assert!(arrival_ns(1e6, 100, 1000) > 0.0);
        let mix = [Req {
            path: PathKind::Snic1,
            verb: Verb::Read,
            payload: 64,
            range: 1 << 20,
            dpa: None,
        }];
        let m = machine(|| Fabric::bluefield_testbed(2), &mix, 100.0, 200);
        assert!(m.ns_per_request > 0.0 && m.tlps_per_request > 0.0);
    }
}
