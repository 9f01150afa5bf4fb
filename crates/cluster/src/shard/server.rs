//! The responder role: a server machine answering inbound requests and
//! running the path-3 streams that never leave it.

use memsys::MemOp;
use nicsim::client::{wire_bytes, wire_frames};
use nicsim::server::pipeline_out;
use nicsim::{Endpoint, Fabric, RequestDesc, ServerMachine, Verb};
use rdma_sim::transport::RecvQueue;
use simnet::arrivals::{Admission, AdmissionQueue};
use simnet::engine::Engine;
use simnet::faults::{drive_attempts, fault_key, RetryOutcome};
use simnet::resource::Dir;
use simnet::time::Nanos;
use snic_farmem::{FM_HOST_HIT, FM_REQ_BYTES};
use snic_kvstore::{Design, BUCKET_BYTES};

use super::{fm_host, next_id, Ev, Io, Issue};
use crate::fm::{fm_global_page, FmServer};
use crate::kv::{KvServer, KV_HOST_PROBE, KV_PUT_EXTRA, KV_SOC_PROBE, SOC_BANKS, SOC_BANK_HOLD};
use crate::msg::{FmRespKind, KvOp, KvRespKind, MsgKind, ShardId};

/// Receive-queue depth used by the responder's echo loop (the paper's
/// framework pre-stocks and auto-replenishes receives, §2.4).
const SERVER_RQ_DEPTH: usize = 512;

/// A server shard's machine and serving state.
pub(super) struct Server {
    pub(super) fabric: Fabric,
    recvq: RecvQueue,
    /// Per-stream admission queues for open-loop streams (None = closed
    /// loop, no admission control).
    pub(super) admission: Vec<Option<AdmissionQueue>>,
    /// KV serving state (index + placement).
    pub(super) kv: Option<KvServer>,
    /// Far-memory pool state (SoC page cache + serving cores).
    pub(super) fm: Option<FmServer>,
}

/// An inbound request past its RX prologue.
#[derive(Clone, Copy)]
struct Rx {
    /// When the request starts through the RX wire port (the NIC
    /// pipeline may pick it up from here).
    start: Nanos,
    /// When the whole transfer is in and drained through the port; no
    /// reply can leave earlier.
    ready: Nanos,
    /// The requester shard (replies route back to it).
    from: ShardId,
}

/// Runs one path-③ transfer through [`drive_attempts`]. Under
/// stochastic faults every attempt rolls one verdict per crossing
/// (`(wire, pcie1)`) keyed by this shard, `salt` and the attempt number,
/// and a failure burns a full timeout — the double-exposure mechanism of
/// a path whose legs both cross PCIe1. Without them the transfer runs
/// once. Retries and exhaustion are counted into the shard counters.
fn attempts<T>(
    fabric: &mut Fabric,
    io: &mut Io,
    start: Nanos,
    salt: &[u64],
    (wire, pcie1): (u64, u64),
    mut run: impl FnMut(&mut Fabric, Nanos) -> T,
) -> RetryOutcome<T> {
    let stochastic = fabric.faults().is_some_and(|p| p.has_stochastic_faults());
    let (timeout, budget) = if stochastic {
        io.retry.expect("server retry armed with stochastic faults")
    } else {
        (Nanos::ZERO, 0)
    };
    let n = salt.len() + 1;
    let mut key = [0; 5];
    key[0] = io.id as u64;
    key[1..n].copy_from_slice(salt);
    let o = drive_attempts(start, timeout, budget, |t, attempt| {
        let result = run(fabric, t);
        key[n] = u64::from(attempt);
        let failed = stochastic
            && fabric
                .faults()
                .is_some_and(|p| p.attempt_fails(fault_key(&key[..=n]), wire, pcie1));
        (result, failed)
    });
    io.counters.retransmits += u64::from(o.retries);
    io.counters.retry_exhausted += u64::from(o.exhausted);
    o
}

/// A one-sided READ of host memory: NIC pipeline plus a host DMA leg,
/// no CPU anywhere. Returns when the data is ready.
fn host_read(srv: &mut ServerMachine, arrival: Nanos, addr: u64, len: u64) -> Nanos {
    let at = pipeline_out(&srv.reserve_pu(arrival, Endpoint::Host));
    let leg = srv.dma(at, Endpoint::Host, MemOp::Read, addr, len, true);
    leg.data_ready
}

impl Server {
    pub(super) fn new(fabric: Fabric, n_streams: usize) -> Self {
        Server {
            fabric,
            recvq: RecvQueue::echo_server(SERVER_RQ_DEPTH),
            admission: (0..n_streams).map(|_| None).collect(),
            kv: None,
            fm: None,
        }
    }

    /// A requester thread on this machine posts one op of a local
    /// stream: a raw path-3 verb or a local far-memory access.
    pub(super) fn post(
        &mut self,
        io: &mut Io,
        eng: &mut Engine<Ev>,
        now: Nanos,
        stream: u16,
        thread: u16,
    ) {
        let Some(issue) = io.pace(eng, now, stream, thread) else {
            return;
        };
        if io.stream(stream).fm.is_some() {
            self.post_fm(io, eng, now, stream, thread, issue);
        } else {
            self.post_path3(io, eng, now, stream, thread, issue);
        }
    }

    /// A raw path-3 op: the whole round trip stays on this machine. An
    /// open-loop op passes admission synchronously. A closed-loop op
    /// rolls one TLP verdict per PCIe1 crossing on every attempt under
    /// stochastic faults; abandoned after the retry budget, it produces
    /// no completion and reposts once the budget's timeouts have burned,
    /// keeping the closed loop at its window.
    fn post_path3(
        &mut self,
        io: &mut Io,
        eng: &mut Engine<Ev>,
        now: Nanos,
        stream: u16,
        thread: u16,
        issue: Issue,
    ) {
        let si = stream as usize;
        let st = io.streams[si].as_mut().expect("checked by post");
        let addr = st.addr(thread, issue.user);
        let req = RequestDesc::new(st.verb, st.path, st.payload, addr, 0);
        if issue.user.is_some() {
            let q = self.admission[si]
                .as_mut()
                .expect("open path-3 stream has an admission queue");
            if matches!(q.offer(issue.start), Admission::Admit) {
                self.fabric.apply_fault_windows(issue.start);
                let c = self.fabric.execute(issue.start, req);
                q.commit(c.nic_start);
                io.retire(eng, now, stream, thread, now, c.completed);
            } else {
                io.drop_op(stream);
            }
            return;
        }
        let salt = [
            stream as u64,
            thread as u64,
            next_id(&mut st.threads[thread as usize].posts),
        ];
        let crossings = (st.path.wire_crossings(), st.path.pcie1_crossings());
        let o = attempts(&mut self.fabric, io, now, &salt, crossings, |f, t| {
            f.apply_fault_windows(t);
            f.execute(t, req)
        });
        if o.exhausted {
            let (timeout, retry_cnt) = io.retry.expect("exhaustion needs armed recovery");
            let burned = now + Nanos::new(timeout.as_nanos() * u64::from(retry_cnt + 1));
            eng.schedule(burned, Ev::Post { stream, thread })
                .expect("repost after retry exhaustion");
        } else {
            io.retire(eng, now, stream, thread, now, o.result.completed);
        }
    }

    /// One page access of a local (path ③) far-memory stream: a miss
    /// promotes the page entirely on this machine — the SoC pool serves
    /// it, then the DMA engine pulls it into host memory across PCIe1
    /// twice (served anyway on retry exhaustion: the host must get its
    /// page). The promotion install and the aged sweep share one
    /// demotion pass; dirty victims are pushed back over PCIe1 as posted
    /// writes that occupy the DMA engine and SoC DRAM but do not delay
    /// this access.
    fn post_fm(
        &mut self,
        io: &mut Io,
        eng: &mut Engine<Ev>,
        now: Nanos,
        stream: u16,
        thread: u16,
        issue: Issue,
    ) {
        let (host, soc) = (Endpoint::Host, Endpoint::Soc);
        let fms = self
            .fm
            .as_mut()
            .expect("local far memory needs the pool on this shard");
        let fmc = fm_host(&mut io.streams, stream);
        let access = fmc.gen.next_access();
        let hit = fmc.table.touch(issue.start, access.page, access.write);
        let page_bytes = fmc.spec.page_bytes;
        let completed = if hit {
            issue.start + FM_HOST_HIT
        } else {
            self.fabric.apply_fault_windows(issue.start);
            let res = fms.pool.reserve(issue.start, fms.svc);
            let g = fms
                .cache
                .serve_get(res.finish, fm_global_page(io.id, access.page));
            let (slot, host_addr) = (g.slot_addr, access.page.wrapping_mul(page_bytes));
            let salt = [stream as u64, thread as u64, next_id(&mut io.next_xid)];
            let o = attempts(&mut self.fabric, io, g.ready, &salt, (0, 2), |f, t| {
                let leg = f
                    .server
                    .intra_dma(t, host, soc, host, slot, host_addr, page_bytes);
                leg.data_ready
            });
            let fmc = fm_host(&mut io.streams, stream);
            fmc.path3_retries += u64::from(o.retries) + u64::from(o.exhausted);
            fmc.promotes += 1;
            o.result
        };
        let fmc = fm_host(&mut io.streams, stream);
        fmc.demote_buf.clear();
        if !hit {
            fmc.table
                .promote(completed, access.page, access.write, &mut fmc.demote_buf);
        }
        fmc.table.demote_aged(now, &mut fmc.demote_buf);
        let at = completed.max(now);
        for d in fmc.demote_buf.iter().filter(|d| d.dirty) {
            let gp = fm_global_page(io.id, d.page);
            let (src, dst) = (d.page.wrapping_mul(page_bytes), gp.wrapping_mul(page_bytes));
            let leg = self
                .fabric
                .server
                .intra_dma(at, host, host, soc, src, dst, page_bytes);
            fms.cache
                .serve_put(leg.data_ready, gp, next_id(&mut fmc.next_stamp));
            fmc.put_acked += 1;
        }
        io.retire(eng, now, stream, thread, now, completed);
    }

    /// A request lands. The RX prologue applies this instant's fault
    /// windows and pulls the request through the wire port; the service
    /// the message names then answers it with exactly one reply.
    pub(super) fn receive(
        &mut self,
        io: &mut Io,
        now: Nanos,
        kind: MsgKind,
        bytes: u64,
        from: ShardId,
        drained: Nanos,
    ) {
        self.fabric.apply_fault_windows(now);
        let win =
            self.fabric
                .server
                .wire
                .reserve(Dir::Fwd, now, wire_bytes(bytes), wire_frames(bytes));
        let rx = Rx {
            start: win.start,
            ready: win.finish.max(drained),
            from,
        };
        let (at, len, reply) = match kind {
            MsgKind::Request { .. } => self.serve_verb(io, now, rx, kind),
            MsgKind::KvReq {
                op,
                key,
                stream,
                thread,
                posted,
                xid,
            } => {
                let (done, kind, len) = self.kv_serve(io, rx, op, key, xid);
                let resp = MsgKind::KvResp {
                    kind,
                    stream,
                    thread,
                    posted,
                    xid,
                };
                (done.max(rx.ready), len, resp)
            }
            MsgKind::FmGet {
                page,
                write,
                stream,
                thread,
                posted,
                xid,
            } => {
                // Pool side of a remote promotion: path ② ends at the
                // SoC, so nothing here crosses PCIe1 — the cost is the
                // wire, the NIC pipeline, a doorbell-batched SoC core,
                // and the SoC DRAM banks moving the page.
                let (fm, at) = self.fm_core(rx);
                let g = fm.cache.serve_get(at, page);
                let done = fm.cache.read_page(g.ready, g.slot_addr);
                let resp = MsgKind::FmResp {
                    kind: FmRespKind::Page { page, write },
                    stream,
                    thread,
                    posted,
                    xid,
                };
                (done.max(rx.ready), FM_REQ_BYTES + fm.page_bytes, resp)
            }
            MsgKind::FmPut {
                page,
                stamp,
                stream,
                thread,
                posted,
                xid,
            } => {
                // A demoted dirty page lands in the pool's hot cache
                // (inclusive install; eviction write-back to the backing
                // region happens inside the cache, on the same SoC DRAM
                // banks).
                let (fm, at) = self.fm_core(rx);
                let done = fm.cache.serve_put(at, page, stamp);
                let ack = MsgKind::FmResp {
                    kind: FmRespKind::PutAck,
                    stream,
                    thread,
                    posted,
                    xid,
                };
                (done.max(rx.ready), FM_REQ_BYTES, ack)
            }
            _ => unreachable!("message kind does not match the shard's role"),
        };
        let wout = self
            .fabric
            .server
            .wire
            .reserve(Dir::Rev, at, wire_bytes(len), wire_frames(len));
        io.outbox.push(from, wout.start, len, reply);
    }

    /// Serves a raw verb: the responder side of `Fabric::execute_remote`,
    /// driven by a real arrival event, through the same
    /// [`ServerMachine::serve_verb`] step. An open-loop request passes the
    /// bounded admission queue before touching any responder resource
    /// past the RX wire; a rejection answers with a header-only NACK.
    fn serve_verb(
        &mut self,
        io: &mut Io,
        now: Nanos,
        rx: Rx,
        req: MsgKind,
    ) -> (Nanos, u64, MsgKind) {
        let MsgKind::Request {
            verb,
            payload,
            addr,
            endpoint,
            stream,
            thread,
            posted,
            xid,
            dpa_resident,
        } = req
        else {
            unreachable!("only requests are served as verbs")
        };
        let srv = &mut self.fabric.server;
        let mut queue = self.admission[stream as usize].as_mut();
        if queue
            .as_mut()
            .is_some_and(|q| !matches!(q.offer(now), Admission::Admit))
        {
            let nack = MsgKind::Drop {
                stream,
                thread,
                posted,
                xid,
            };
            (rx.ready, 0, nack)
        } else {
            let pu = srv.reserve_pu(rx.start, endpoint);
            if let Some(q) = queue {
                q.commit(pu.start);
            }
            let done = if let Some(resident) = dpa_resident {
                // DPA serving arm: the NIC parser kicks a DPA
                // core and the request terminates on the
                // NIC-resident plane — no DMA leg, no PCIe1
                // crossing, no host/SoC recv queue. Past
                // scratch, the handler pays the SoC-DRAM spill
                // on the payload it touches.
                assert_eq!(verb, Verb::Send, "DPA streams are two-sided SENDs");
                srv.dpa_serve(pipeline_out(&pu), resident, payload).done
            } else {
                if verb == Verb::Send && !self.recvq.consume() {
                    io.counters.rnr += 1;
                }
                srv.serve_verb(&pu, rx.ready, verb, endpoint, addr, payload)
            };
            let inbound = if verb == Verb::Read { payload } else { 0 };
            let resp = MsgKind::Response {
                stream,
                thread,
                posted,
                xid,
            };
            (done.max(rx.ready), inbound, resp)
        }
    }

    /// A far-memory request past RX: the NIC pipeline hands it to a
    /// doorbell-batched SoC core. Returns the pool and when the core is
    /// done with it.
    fn fm_core(&mut self, rx: Rx) -> (&mut FmServer, Nanos) {
        let fm = self
            .fm
            .as_mut()
            .expect("far-memory request at a server without a pool");
        let pu = self.fabric.server.reserve_pu(rx.start, Endpoint::Soc);
        let done = fm
            .pool
            .reserve(pipeline_out(&pu).max(rx.ready), fm.svc)
            .finish;
        (fm, done)
    }

    /// Serves one KV op. Gets follow the current index placement;
    /// one-sided probe and value READs cost the NIC pipeline plus a host
    /// DMA and no CPU anywhere; puts always land on the host, because the
    /// index master and the value region live in host memory under every
    /// placement. Returns when the reply is ready, its shape and its wire
    /// bytes.
    fn kv_serve(
        &mut self,
        io: &mut Io,
        rx: Rx,
        op: KvOp,
        key: u64,
        xid: u64,
    ) -> (Nanos, KvRespKind, u64) {
        let kv = self
            .kv
            .as_mut()
            .expect("KV request at a server without KV serving state");
        let srv = &mut self.fabric.server;
        match op {
            KvOp::Get => self.kv_get(io, rx, key, xid),
            KvOp::Probe { hop } => {
                kv.probe_trips += 1;
                let addr = kv.index.probe_addr(key, hop);
                let done = host_read(srv, rx.start, addr, BUCKET_BYTES);
                (done, KvRespKind::Bucket, BUCKET_BYTES)
            }
            KvOp::ValueRead { addr, len } => {
                kv.probe_trips += 1;
                let done = host_read(srv, rx.start, addr, len as u64);
                (done, KvRespKind::Value { len }, len as u64)
            }
            KvOp::Put => {
                kv.puts += 1;
                kv.observe(key, false, 0);
                let pu = srv.reserve_pu(rx.start, Endpoint::Host);
                let arrival = pipeline_out(&pu).max(rx.ready);
                let res = kv.host_pool.reserve(arrival, kv.host_svc + KV_PUT_EXTRA);
                let addr = kv.put(key);
                let bytes = kv.value_size as u64;
                let leg = srv.dma(res.finish, Endpoint::Host, MemOp::Write, addr, bytes, true);
                (leg.data_ready, KvRespKind::PutAck, 0)
            }
        }
    }

    /// A KV get under the shard's current index placement. Returns when
    /// the reply is ready, its shape and its wire bytes.
    fn kv_get(&mut self, io: &mut Io, rx: Rx, key: u64, xid: u64) -> (Nanos, KvRespKind, u64) {
        let kv = self
            .kv
            .as_mut()
            .expect("KV request at a server without KV serving state");
        let l = kv
            .index
            .lookup(key)
            .expect("clients only ask a key's home shard");
        kv.gets += 1;
        kv.observe(key, true, l.probes);
        let len = l.entry.value_len;
        let value = KvRespKind::Value { len };
        let srv = &mut self.fabric.server;
        match kv.design {
            Design::OneSidedRnic | Design::OneSidedSnic => {
                // Reply with the home bucket; the client drives the rest
                // of the chain with its own READs.
                kv.probe_trips += 1;
                let addr = kv.index.probe_addr(key, 0);
                let chain = KvRespKind::Chain {
                    probes: l.probes,
                    value_addr: l.entry.value_addr,
                    value_len: len,
                };
                (
                    host_read(srv, rx.start, addr, BUCKET_BYTES),
                    chain,
                    BUCKET_BYTES,
                )
            }
            Design::SocIndex => {
                // SoC cores walk the index; the lookup serializes on the
                // home bucket's (weak) SoC DRAM bank, then path 3 pulls
                // the value out of host memory. Every failed attempt
                // counts as a path-3 retry; on budget exhaustion the last
                // leg is served anyway (the client has no KV timeout).
                let pu = srv.reserve_pu(rx.start, Endpoint::Soc);
                let bank = kv.index.home_bucket(key) % SOC_BANKS;
                let arrival = pipeline_out(&pu).max(rx.ready).max(kv.bank_free[bank]);
                let svc = kv.soc_svc + KV_SOC_PROBE * u64::from(l.probes);
                let res = kv.soc_pool.reserve(arrival, svc);
                kv.bank_free[bank] = res.start + SOC_BANK_HOLD;
                let (v, salt) = (l.entry.value_addr, [rx.from as u64, xid]);
                let o = attempts(&mut self.fabric, io, res.finish, &salt, (0, 2), |f, t| {
                    let (host, soc) = (Endpoint::Host, Endpoint::Soc);
                    f.server
                        .intra_dma(t, soc, host, soc, v, v, len as u64)
                        .data_ready
                });
                let fails = u64::from(o.retries) + u64::from(o.exhausted);
                kv.path3_retries += fails;
                kv.win_path3_retries += fails;
                (o.result, value, len as u64)
            }
            Design::HostRpc => {
                let pu = srv.reserve_pu(rx.start, Endpoint::Host);
                let arrival = pipeline_out(&pu).max(rx.ready);
                let svc = kv.host_svc + KV_HOST_PROBE * u64::from(l.probes);
                let res = kv.host_pool.reserve(arrival, svc);
                let v = l.entry.value_addr;
                let leg = srv.dma(res.finish, Endpoint::Host, MemOp::Read, v, len as u64, true);
                (leg.data_ready, value, len as u64)
            }
            Design::DpaHandler => {
                // The NIC parser kicks a DPA core: the get terminates on
                // the NIC-resident plane without crossing PCIe1, paying
                // the SoC-DRAM spill penalty while the shard's state
                // overflows scratch.
                let pu = srv.reserve_pu(rx.start, Endpoint::Host);
                let touched = BUCKET_BYTES * u64::from(l.probes) + len as u64;
                let at = pipeline_out(&pu).max(rx.ready);
                kv.dpa_gets += 1;
                (
                    srv.dpa_serve(at, kv.resident_bytes(), touched).done,
                    value,
                    len as u64,
                )
            }
        }
    }

    /// Online advisor epoch: close the observation window, re-decide the
    /// placement, arm the next epoch. This reads and writes only
    /// shard-local state at a fixed simulated instant, so re-decisions
    /// are identical for any worker count.
    pub(super) fn kv_epoch(&mut self, eng: &mut Engine<Ev>, now: Nanos) {
        let kv = self
            .kv
            .as_mut()
            .expect("KV epochs only fire on KV server shards");
        let pcie_faulty = self.fabric.faults().is_some_and(|p| {
            let (slowdown, extra) = p.pcie_degradation(now);
            p.has_stochastic_faults() || slowdown > 1.0 || extra > Nanos::ZERO
        });
        let obs = kv.take_window(now, pcie_faulty);
        let policy = kv.policy.expect("epoch chain armed without a policy");
        let next = policy(&obs);
        kv.decisions += 1;
        if next != kv.design {
            kv.design_changes += 1;
            kv.design = next;
        }
        eng.schedule(now + kv.decision_every, Ev::KvEpoch)
            .expect("next epoch is in the future");
    }
}
