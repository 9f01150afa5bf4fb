//! The requester role: a client machine driving remote streams.

use std::collections::HashMap;

use nicsim::ClientMachine;
use simnet::engine::Engine;
use simnet::time::Nanos;
use snic_farmem::{FM_HOST_HIT, FM_REQ_BYTES};

use super::{fm_host, next_id, Ev, Io, Issue, Outbox};
use crate::fm::{fm_global_page, fm_local_page};
use crate::kv::{kv_home_server, KvPending, KV_REQ_BYTES};
use crate::msg::{FmRespKind, KvOp, KvRespKind, MsgKind, ShardId};

/// One operation awaiting its response, keyed by xid. Enough state to
/// retransmit the exact same request (same address, same original post
/// instant) when its timeout fires.
struct Outstanding {
    stream: u16,
    thread: u16,
    addr: u64,
    posted: Nanos,
    attempt: u32,
}

/// A client shard's machine and requester-side state.
pub(super) struct Client {
    machine: Box<ClientMachine>,
    /// Responder of the scenario's raw streams.
    server_shard: ShardId,
    /// Closed-loop ops guarded by an ack timeout (recovery armed only).
    outstanding: HashMap<u64, Outstanding>,
    /// In-flight KV gets, keyed by xid (the key is needed when a
    /// one-sided chain reply asks for follow-up probes).
    kv_pending: HashMap<u64, KvPending>,
}

impl Client {
    pub(super) fn new(machine: ClientMachine, server_shard: ShardId) -> Self {
        Client {
            machine: Box::new(machine),
            server_shard,
            outstanding: HashMap::new(),
            kv_pending: HashMap::new(),
        }
    }

    /// Posts `kind` from a core at `at`: doorbell to the NIC, payload
    /// fetch, then onto the wire towards `dst`. Returns the departure.
    fn send(
        &mut self,
        out: &mut Outbox,
        at: Nanos,
        dst: ShardId,
        bytes: u64,
        kind: MsgKind,
    ) -> Nanos {
        let nic_seen = at + self.machine.mmio_transit();
        let depart = self.machine.issue(nic_seen, bytes);
        out.push(dst, depart, bytes, kind);
        depart
    }

    /// A requester thread posts one op of its stream's service.
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
        let st = io.stream(stream);
        if st.kv.is_some() {
            self.post_kv(io, now, stream, thread, issue);
        } else if st.fm.is_some() {
            self.post_fm(io, eng, now, stream, thread, issue);
        } else {
            self.post_raw(io, eng, now, stream, thread, issue);
        }
    }

    /// A raw verb towards the scenario's responder. Closed-loop ops arm
    /// an ack timeout when recovery is on; open-loop ops never
    /// retransmit — rejection is an explicit NACK, not a timeout.
    fn post_raw(
        &mut self,
        io: &mut Io,
        eng: &mut Engine<Ev>,
        now: Nanos,
        stream: u16,
        thread: u16,
        issue: Issue,
    ) {
        let xid = next_id(&mut io.next_xid);
        let st = io.stream(stream);
        let addr = st.addr(thread, issue.user);
        let (bytes, kind) = st.request(stream, thread, addr, now, xid);
        let depart = self.send(&mut io.outbox, issue.start, self.server_shard, bytes, kind);
        // Only a closed-loop post (no arrival user) arms a timeout.
        if let (None, Some((timeout, _))) = (issue.user, io.retry) {
            let o = Outstanding {
                stream,
                thread,
                addr,
                posted: now,
                attempt: 0,
            };
            self.outstanding.insert(xid, o);
            eng.schedule(depart + timeout, Ev::Timeout { xid, attempt: 0 })
                .expect("timeout is in the future");
        }
    }

    /// One YCSB op routed to the key's home server. The key is drawn
    /// *here*, so routing fans the stream out across all server shards.
    fn post_kv(&mut self, io: &mut Io, now: Nanos, stream: u16, thread: u16, issue: Issue) {
        let xid = next_id(&mut io.next_xid);
        let st = io.stream(stream);
        let kvc = st.kv.as_ref().expect("checked by post");
        let rng = &mut st.threads[thread as usize].rng;
        let key = match &kvc.zipf {
            Some(z) => z.sample(rng) as u64,
            None => rng.uniform_u64(kvc.n_keys),
        };
        let is_read = rng.chance(kvc.read_fraction);
        let (op, bytes) = if is_read {
            (KvOp::Get, KV_REQ_BYTES)
        } else {
            (KvOp::Put, KV_REQ_BYTES + kvc.value_size as u64)
        };
        let server = kvc.n_clients + kv_home_server(key, kvc.n_servers);
        if is_read {
            // Gets may come back as a one-sided probe chain; remember
            // the key so follow-up READs can be addressed.
            let pending = KvPending {
                server,
                key,
                probes: 0,
                next_hop: 0,
                value_addr: 0,
                value_len: 0,
            };
            self.kv_pending.insert(xid, pending);
        }
        let kind = MsgKind::KvReq {
            op,
            key,
            stream,
            thread,
            posted: now,
            xid,
        };
        self.send(&mut io.outbox, issue.start, server, bytes, kind);
    }

    /// One page access of a remote (path ②) far-memory stream. The
    /// residency check happens here: hits retire at host-DRAM cost,
    /// misses travel the wire to the page's pool server (the `FmResp`
    /// completes them), and idle resident pages age out — dirty ones
    /// write back.
    fn post_fm(
        &mut self,
        io: &mut Io,
        eng: &mut Engine<Ev>,
        now: Nanos,
        stream: u16,
        thread: u16,
        issue: Issue,
    ) {
        let Io {
            id,
            streams,
            outbox,
            next_xid,
            ..
        } = &mut *io;
        let fmc = fm_host(streams, stream);
        let access = fmc.gen.next_access();
        let hit = fmc.table.touch(issue.start, access.page, access.write);
        if !hit {
            let page = fm_global_page(*id, access.page);
            let dst = fmc.n_clients + kv_home_server(page, fmc.n_servers);
            let kind = MsgKind::FmGet {
                page,
                write: access.write,
                stream,
                thread,
                posted: now,
                xid: next_id(next_xid),
            };
            self.send(outbox, issue.start, dst, FM_REQ_BYTES, kind);
        }
        fmc.demote_buf.clear();
        fmc.table.demote_aged(now, &mut fmc.demote_buf);
        self.write_back(io, stream, thread, now);
        if hit {
            io.retire(eng, now, stream, thread, now, issue.start + FM_HOST_HIT);
        }
    }

    /// Posts a fire-and-forget write-back of every dirty page in the
    /// stream's demotion buffer: the payload rides an
    /// [`MsgKind::FmPut`] to its home pool server. Never counted against
    /// the stream's open-loop conservation — demotions are background
    /// traffic the access stream does not wait on.
    fn write_back(&mut self, io: &mut Io, stream: u16, thread: u16, now: Nanos) {
        let Io {
            id,
            streams,
            outbox,
            next_xid,
            ..
        } = io;
        let fmc = fm_host(streams, stream);
        let bytes = FM_REQ_BYTES + fmc.spec.page_bytes;
        for d in fmc.demote_buf.iter().filter(|d| d.dirty) {
            let page = fm_global_page(*id, d.page);
            let dst = fmc.n_clients + kv_home_server(page, fmc.n_servers);
            let kind = MsgKind::FmPut {
                page,
                stamp: next_id(&mut fmc.next_stamp),
                stream,
                thread,
                posted: now,
                xid: next_id(next_xid),
            };
            self.send(outbox, now, dst, bytes, kind);
        }
    }

    /// A message from a server lands: responses drain through the NIC's
    /// completion path, then retire, continue or fail their op.
    pub(super) fn receive(
        &mut self,
        io: &mut Io,
        eng: &mut Engine<Ev>,
        now: Nanos,
        kind: MsgKind,
        bytes: u64,
        drained: Nanos,
    ) {
        if let MsgKind::Response { stream, xid, .. } = kind {
            // With recovery armed, only the first response for a
            // closed-loop xid completes the operation; duplicates (a
            // late original racing its retransmission) are dropped
            // without touching the window.
            let closed = io.stream(stream).open.is_none();
            if closed && io.retry.is_some() && self.outstanding.remove(&xid).is_none() {
                io.counters.dup_responses += 1;
                return;
            }
        }
        let done = self.machine.complete(now, bytes).max(drained);
        match kind {
            // Open loop: the latency is CO-free (response instant minus
            // *intended* arrival), and no repost — the arrival chain,
            // not completions, drives the load.
            MsgKind::Response {
                stream,
                thread,
                posted,
                ..
            } => io.retire(eng, now, stream, thread, posted, done),
            // Admission NACK: the op leaves `outstanding` only now, so
            // in-flight NACKs keep the conservation invariant exact at
            // any horizon.
            MsgKind::Drop { stream, .. } => io.drop_op(stream),
            MsgKind::KvResp {
                kind,
                stream,
                thread,
                posted,
                xid,
            } => self.kv_reply(io, eng, now, done, kind, stream, thread, posted, xid),
            MsgKind::FmResp {
                kind,
                stream,
                thread,
                posted,
                ..
            } => {
                let fmc = fm_host(&mut io.streams, stream);
                let FmRespKind::Page { page, write } = kind else {
                    // Write-back acknowledged: no latency sample.
                    fmc.put_acked += 1;
                    return;
                };
                // Promotion completes: install the page and write back
                // any capacity victim it evicts.
                fmc.promotes += 1;
                fmc.demote_buf.clear();
                fmc.table
                    .promote(done, fm_local_page(page), write, &mut fmc.demote_buf);
                self.write_back(io, stream, thread, now);
                io.retire(eng, now, stream, thread, posted, done);
            }
            _ => unreachable!("message kind does not match the shard's role"),
        }
    }

    /// A KV reply: a value or put ack finishes the op; a one-sided chain
    /// or bucket reply continues it as client-driven READs — the
    /// remaining probe hops, then the value.
    #[allow(clippy::too_many_arguments)]
    fn kv_reply(
        &mut self,
        io: &mut Io,
        eng: &mut Engine<Ev>,
        now: Nanos,
        done: Nanos,
        kind: KvRespKind,
        stream: u16,
        thread: u16,
        posted: Nanos,
        xid: u64,
    ) {
        if let KvRespKind::Value { .. } | KvRespKind::PutAck = kind {
            self.kv_pending.remove(&xid);
            io.retire(eng, now, stream, thread, posted, done);
            return;
        }
        let p = self
            .kv_pending
            .get_mut(&xid)
            .expect("one-sided reply for an unknown get");
        if let KvRespKind::Chain {
            probes,
            value_addr,
            value_len,
        } = kind
        {
            p.probes = probes;
            p.value_addr = value_addr;
            p.value_len = value_len;
        }
        p.next_hop += 1;
        let op = if p.next_hop < p.probes {
            KvOp::Probe { hop: p.next_hop }
        } else {
            KvOp::ValueRead {
                addr: p.value_addr,
                len: p.value_len,
            }
        };
        let (server, key) = (p.server, p.key);
        let kind = MsgKind::KvReq {
            op,
            key,
            stream,
            thread,
            posted,
            xid,
        };
        self.send(&mut io.outbox, done, server, KV_REQ_BYTES, kind);
    }

    /// An ack timeout fires: retransmit the same request, or abandon the
    /// op once the retry budget is spent.
    pub(super) fn timeout(
        &mut self,
        io: &mut Io,
        eng: &mut Engine<Ev>,
        now: Nanos,
        xid: u64,
        attempt: u32,
    ) {
        let (timeout, retry_cnt) = io
            .retry
            .expect("timeout events only exist with recovery armed");
        // Stale guard: the operation completed, or a later attempt
        // re-armed its own timeout.
        let Some(o) = self
            .outstanding
            .get_mut(&xid)
            .filter(|o| o.attempt == attempt)
        else {
            return;
        };
        let (stream, thread, addr, posted) = (o.stream, o.thread, o.addr, o.posted);
        if attempt >= retry_cnt {
            self.outstanding.remove(&xid);
            io.counters.retry_exhausted += 1;
            // Abandon the operation; repost to keep the closed loop at
            // its window.
            eng.schedule(now, Ev::Post { stream, thread })
                .expect("repost is not in the past");
            return;
        }
        let attempt = attempt + 1;
        o.attempt = attempt;
        io.counters.retransmits += 1;
        let (bytes, kind) = io.stream(stream).request(stream, thread, addr, posted, xid);
        let depart = self.send(&mut io.outbox, now, self.server_shard, bytes, kind);
        eng.schedule(depart + timeout, Ev::Timeout { xid, attempt })
            .expect("timeout is in the future");
    }
}
