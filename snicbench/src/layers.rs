//! Per-layer metrics of a traced run: the run's own counts, plus layer
//! replays sized by them and added up into a [`Ladder`].

use std::collections::BTreeMap;

use nicsim::{Fabric, Verb};
use snic_cluster::{ClusterResult, ClusterStream};
use snic_core::harness::ServerKind;
use topology::ClusterSpec;

use crate::replay::{self, expand, sized, Ladder, Msg, Req};
use crate::report::{median, ratio};
use crate::trace::Tracer;
use crate::workload::{Call, Horizon, Output, Sim, Workload, DEFAULT_SEED};
use crate::Samples;

/// Per-layer counts and replays of a rack run; returns its ladder.
pub fn rack(
    call: &Call,
    r: &ClusterResult,
    s: &Samples,
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Option<Ladder> {
    let Sim::Cluster(sc, streams) = &call.sim else {
        return None;
    };
    let c = |name: &str| r.metrics.counter_value(name).unwrap_or(0);
    let n_clients = sc.cluster.clients.len();
    let n_servers = sc.cluster.servers.len();
    let responder = n_clients + sc.server;
    let dur_ns = sc.duration.as_nanos() as f64;

    // The run's request and message mix, weighted by completions.
    let (mut reqs, mut msgs) = (Vec::new(), Vec::new());
    let (mut inflight, mut hold, mut weights) = (0.0, 0.0, 0.0);
    for (st, res) in streams.iter().zip(&r.streams) {
        let weight = if st.open.is_some() {
            res.completed_total
        } else {
            res.completions
        };
        let req = match (&st.kv, &st.farmem) {
            (Some(kv), _) => Req {
                verb: Verb::Send,
                payload: u64::from(kv.value_size),
                range: 1 << 30,
                dpa: None,
                path: st.path,
            },
            (_, Some(fm)) => Req {
                verb: Verb::Read,
                payload: fm.page_bytes,
                range: 1 << 30,
                dpa: None,
                path: st.path,
            },
            _ => Req {
                path: st.path,
                verb: st.verb,
                payload: st.payload,
                range: st.addr_range,
                dpa: st.dpa.then_some(st.addr_range),
            },
        };
        reqs.push((req, weight));
        let (up, down) = req.wire();
        let per_client = weight / st.clients.len().max(1) as u64;
        let spread = st.kv.is_some() || st.farmem.is_some();
        for (k, &client) in st.clients.iter().enumerate() {
            let server = if spread {
                n_clients + k % n_servers
            } else {
                responder
            };
            msgs.push((
                Msg {
                    src: client,
                    dst: server,
                    bytes: up,
                },
                per_client,
            ));
            msgs.push((
                Msg {
                    src: server,
                    dst: client,
                    bytes: down,
                },
                per_client,
            ));
        }
        inflight += res.ops.as_per_sec() * res.latency.p50.as_secs_f64();
        hold += weight as f64 * res.latency.p50.as_nanos() as f64;
        weights += weight as f64;
    }
    let req_mix = expand(&reqs, 1000);
    let msg_mix = expand(&msgs, 1000);
    let requests = c("requests_posted");
    let depth = (inflight / (n_clients + n_servers) as f64).ceil() as usize;
    let hold_ns = ratio(hold, weights).max(1.0) as u64;

    let route_ns = t.span("replay.switch", |_| {
        replay::switch_route_ns(
            &sc.cluster,
            &msg_mix,
            ratio(dur_ns, r.messages as f64),
            sized(r.messages),
        )
    });
    let event_ns = t.span("replay.engine", |_| {
        replay::engine_ns_per_event(depth, hold_ns, sized(r.events))
    });
    let (server, wire) = (sc.cluster.servers[sc.server], sc.cluster.wire);
    let gap = ratio(dur_ns, requests as f64);
    let mc = t.span("replay.machine", |_| {
        replay::machine(
            || Fabric::new(server, n_clients, wire),
            &req_mix,
            gap,
            sized(requests),
        )
    });
    let mem_ns = t.span("replay.memsys", |_| {
        replay::memsys_ns_per_access(&req_mix, gap, sized(requests))
    });
    let kv_ops = c("kv_gets") + c("kv_puts");
    let pool_ops = c("fm_pool_gets") + c("fm_pool_puts");
    let generated: u64 = r.streams.iter().map(|x| x.generated).sum();
    let (lookup_ns, cache_ns, arrival_ns) =
        service_replays(streams, n_servers, [kv_ops, pool_ops, generated], t);

    let est = |ns: f64, count: u64| ns * count as f64 / 1e9;
    let ladder = Ladder {
        wall_1w_s: median(&s.w1),
        setup_s: median(&s.setup),
        estimates: vec![
            ("switch", est(route_ns, r.messages)),
            ("engine", est(event_ns, r.events)),
            ("machine", est(mc.ns_per_request, requests)),
            ("kv", est(lookup_ns, kv_ops)),
            ("fm", est(cache_ns, pool_ops)),
            ("arrivals", est(arrival_ns, generated)),
        ],
    };
    let epochs = r.epochs as f64;
    let (w1, w2) = (median(&s.w1), median(&s.w2));
    let fm_accesses = c("fm_accesses") as f64;
    let dropped: u64 = r.streams.iter().map(|x| x.dropped).sum();
    let dpa_served = c("dpa_served") as f64;
    for (k, v) in [
        ("runtime.epochs", epochs),
        ("runtime.events_per_epoch", ratio(r.events as f64, epochs)),
        ("runtime.msgs_per_epoch", ratio(r.messages as f64, epochs)),
        ("runtime.wall_2w_s", w2),
        ("runtime.speedup_2w", ratio(w1, w2)),
        (
            "runtime.par_overhead_ns_per_epoch",
            ratio((w2 - w1) * 1e9, epochs),
        ),
        (
            "runtime.driver_vol_ctx_per_epoch",
            ratio(median(&s.ctx), epochs),
        ),
        ("switch.msgs", r.messages as f64),
        ("switch.dropped", c("msgs_dropped") as f64),
        ("switch.route_ns_per_msg", route_ns),
        ("engine.events", r.events as f64),
        ("engine.ns_per_event", event_ns),
        ("machine.requests", requests as f64),
        ("machine.ns_per_request", mc.ns_per_request),
        ("pcie.tlps", mc.tlps_per_request * requests as f64),
        ("pcie.ns_per_tlp", mc.ns_per_tlp),
        ("memsys.ns_per_access", mem_ns),
        ("kv.ops", kv_ops as f64),
        ("kv.probe_trips", c("kv_probe_trips") as f64),
        ("kv.decisions", c("kv_decisions") as f64),
        ("kv.design_changes", c("kv_design_changes") as f64),
        ("kvstore.lookup_ns", lookup_ns),
        ("fm.accesses", fm_accesses),
        ("fm.promotes", c("fm_promotes") as f64),
        (
            "fm.host_hit_ratio",
            ratio(c("fm_host_hits") as f64, fm_accesses),
        ),
        (
            "fm.cache_hit_ratio",
            ratio(
                c("fm_cache_hits") as f64,
                (c("fm_cache_hits") + c("fm_cache_misses")) as f64,
            ),
        ),
        ("farmem.cache_ns_per_op", cache_ns),
        ("dpa.served", dpa_served),
        ("dpa.spill_ratio", ratio(c("dpa_spills") as f64, dpa_served)),
        ("arrivals.generated", generated as f64),
        (
            "arrivals.drop_ratio",
            ratio(dropped as f64, generated as f64),
        ),
        ("arrivals.excess_ns", c("openloop_excess_ns") as f64),
        ("arrivals.ns_per_arrival", arrival_ns),
        ("rc.retransmits", c("rc_retransmits") as f64),
        (
            "rc.retx_per_op",
            ratio(c("rc_retransmits") as f64, c("requests_completed") as f64),
        ),
    ] {
        m.insert(k, v);
    }
    Some(ladder)
}

/// Per-layer counts and per-point replays of the harness sweep; returns
/// its ladder. Each harness event posts one request (or, rarely, defers
/// one), so events stand in for the machine's request count.
pub fn harness(
    calls: &[Call],
    outputs: &[(usize, Output)],
    s: &Samples,
    t: &mut Tracer,
    m: &mut BTreeMap<&'static str, f64>,
) -> Ladder {
    let (mut events, mut completions, mut retx, mut tlps) = (0u64, 0u64, 0u64, 0u64);
    let (mut engine_s, mut machine_s, mut replay_ns, mut replay_tlps) = (0.0, 0.0, 0.0, 0.0);
    let (mut dpa_served, mut dpa_spills) = (0u64, 0u64);
    let mut mix = Vec::new();
    for (i, out) in outputs {
        let (Output::Harness(r, dpa), Sim::Harness(sc, specs)) = (out, &calls[*i].sim) else {
            continue;
        };
        let spec = &specs[0];
        let done: u64 = r.streams.iter().map(|x| x.latency.count).sum();
        events += r.events;
        completions += done;
        retx += r.streams.iter().map(|x| x.retransmits).sum::<u64>();
        tlps += r.counters.total_tlps();
        if let Some(d) = dpa {
            dpa_served += d.served;
            dpa_spills += d.spills;
        }
        let req = Req {
            path: spec.path,
            verb: spec.verb,
            payload: spec.payload,
            range: spec.addr_range,
            dpa: spec.dpa.then_some(spec.addr_range),
        };
        mix.push((req, r.events));
        let threads = if spec.path.is_remote() {
            spec.clients.len() * spec.threads_per_client
        } else {
            spec.threads_per_client
        };
        let hold = r.streams[0].latency.p50.as_nanos().max(1);
        let n = sized(r.events);
        let label = &calls[*i].label;
        let event_ns = t.span(&format!("replay.engine {label}"), |_| {
            replay::engine_ns_per_event(threads * spec.window, hold, n)
        });
        let server = sc.server;
        let n_clients = sc.n_clients;
        let make = move || match server {
            ServerKind::Bluefield => Fabric::bluefield_testbed(n_clients),
            ServerKind::Rnic => Fabric::rnic_testbed(n_clients),
            ServerKind::Custom(spec) => {
                Fabric::new(spec, n_clients, topology::cluster::WireSpec::sb7890())
            }
        };
        let gap = ratio(r.window.as_nanos() as f64, done as f64).max(1.0);
        let mc = t.span(&format!("replay.machine {label}"), |_| {
            replay::machine(make, &[req], gap, n)
        });
        engine_s += event_ns * r.events as f64 / 1e9;
        machine_s += mc.ns_per_request * r.events as f64 / 1e9;
        replay_ns += mc.ns_per_request * n as f64;
        replay_tlps += mc.tlps_per_request * n as f64;
    }
    let mem_mix = expand(&mix, 1000);
    let mem_ns = t.span("replay.memsys", |_| {
        replay::memsys_ns_per_access(&mem_mix, 100.0, sized(events))
    });
    // The sweep never crosses a switch or runs a service: time those
    // layers on the paper's rack at nominal counts (see service_replays).
    let rack = ClusterSpec::paper_testbed();
    let responder = rack.clients.len();
    let msgs: Vec<Msg> = (0..responder)
        .flat_map(|c| {
            let (src, dst) = (c, responder);
            [
                Msg {
                    src,
                    dst,
                    bytes: 64,
                },
                Msg {
                    src: dst,
                    dst: src,
                    bytes: 64,
                },
            ]
        })
        .collect();
    let route_ns = t.span("replay.switch", |_| {
        replay::switch_route_ns(&rack, &msgs, 100.0, sized(0))
    });
    let (lookup_ns, cache_ns, arrival_ns) = service_replays(&[], rack.servers.len(), [0; 3], t);
    // Its 2-worker figures come from splitting the calls over two
    // threads; an "epoch" there is one call.
    let calls_n = calls.len() as f64;
    let (off, on, w2) = (median(&s.w1), median(&s.metrics_on), median(&s.w2));
    for (k, v) in [
        ("runtime.epochs", calls_n),
        ("runtime.events_per_epoch", ratio(events as f64, calls_n)),
        ("runtime.wall_2w_s", w2),
        ("runtime.speedup_2w", ratio(off, w2)),
        (
            "runtime.par_overhead_ns_per_epoch",
            ratio((w2 - off) * 1e9, calls_n),
        ),
        (
            "runtime.driver_vol_ctx_per_epoch",
            ratio(median(&s.ctx), calls_n),
        ),
        ("switch.route_ns_per_msg", route_ns),
        ("kvstore.lookup_ns", lookup_ns),
        ("farmem.cache_ns_per_op", cache_ns),
        ("arrivals.ns_per_arrival", arrival_ns),
        ("engine.events", events as f64),
        ("engine.ns_per_event", ratio(engine_s * 1e9, events as f64)),
        ("machine.requests", events as f64),
        (
            "machine.ns_per_request",
            ratio(machine_s * 1e9, events as f64),
        ),
        ("pcie.tlps", tlps as f64),
        ("pcie.ns_per_tlp", ratio(replay_ns, replay_tlps)),
        ("memsys.ns_per_access", mem_ns),
        ("dpa.served", dpa_served as f64),
        (
            "dpa.spill_ratio",
            ratio(dpa_spills as f64, dpa_served as f64),
        ),
        ("rc.retransmits", retx as f64),
        ("rc.retx_per_op", ratio(retx as f64, completions as f64)),
        ("harness.attribution_overhead", ratio(on, off) - 1.0),
    ] {
        m.insert(k, v);
    }
    Ladder {
        wall_1w_s: off,
        setup_s: median(&s.setup),
        estimates: vec![("engine", engine_s), ("machine", machine_s)],
    }
}

/// Replays of the KV index, the SoC page cache and the arrival generator,
/// sized by `counts` (KV ops, pool ops, arrivals). A layer the streams do
/// not use is timed at rack_services' configuration and a nominal count,
/// so that every per-layer time is measured on every workload; its
/// estimate is 0 because its count is.
fn service_replays(
    streams: &[ClusterStream],
    n_servers: usize,
    counts: [u64; 3],
    t: &mut Tracer,
) -> (f64, f64, f64) {
    let services = Workload::RackServices.calls(DEFAULT_SEED, Horizon::Full);
    let Sim::Cluster(_, defaults) = &services[0].sim else {
        unreachable!("rack_services is a rack workload")
    };
    let kv = |ss: &[ClusterStream]| ss.iter().find_map(|s| s.kv);
    let fm = |ss: &[ClusterStream]| ss.iter().find_map(|s| s.farmem);
    let open = |ss: &[ClusterStream]| -> Option<(f64, u64)> {
        let open: Vec<_> = ss
            .iter()
            .filter_map(|s| s.open.as_ref().map(|o| (s.clients.len().max(1), o)))
            .collect();
        let rate: f64 = open.iter().map(|(_, o)| o.offered_per_sec()).sum();
        let generators: usize = open.iter().map(|(n, _)| n).sum();
        Some((rate / generators as f64, open.first()?.1.users))
    };
    let kv = kv(streams)
        .or(kv(defaults))
        .expect("rack_services runs the KV service");
    let fm = fm(streams)
        .or(fm(defaults))
        .expect("rack_services runs far memory");
    let (rate, users) = open(streams)
        .or(open(defaults))
        .expect("rack_services is open-loop");
    let [kv_ops, pool_ops, generated] = counts;
    (
        t.span("replay.kvstore", |_| {
            replay::kv_lookup_ns(&kv, n_servers, sized(kv_ops))
        }),
        t.span("replay.farmem", |_| {
            replay::fm_cache_ns(&fm, sized(pool_ops))
        }),
        t.span("replay.arrivals", |_| {
            replay::arrival_ns(rate, users, sized(generated))
        }),
    )
}
