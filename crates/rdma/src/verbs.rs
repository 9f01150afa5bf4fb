//! A verbs-like programming interface over the simulated fabric.
//!
//! Mirrors the ibverbs object model closely enough that code written
//! against it (the quickstart example) reads like real RDMA code: a
//! [`Context`] per device, [`Pd`] protection domains,
//! [`Mr`] registered memory with bounds enforcement, [`Cq`] completion
//! queues polled for [`Wc`] entries, and [`Qp`] queue pairs (RC for
//! one-sided verbs, UD for two-sided) bound to one of the five
//! communication paths. It is the one place that enforces the verbs
//! contract — protection, QP states, RNR and RC recovery — which
//! `tests/failure_injection.rs` pins; the harness and the cluster
//! runtime, which produce the figures, call the fabric directly.
//!
//! Because this is a simulator, posts carry the *simulated* time at which
//! the application issues them and completions become pollable at their
//! simulated completion instants.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use nicsim::{Completion, Endpoint, Fabric, PathKind, RequestDesc, Verb};
use simnet::faults::{drive_attempts, fault_key};
use simnet::time::Nanos;

use crate::doorbell::{PostCostModel, PostMode, PosterKind};
use crate::transport::{
    check_transition, QpState, RcCounters, RcParams, RecvQueue, SendFlags, SignalTracker,
    MAX_INLINE,
};

/// Errors surfaced by the verbs layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// Access outside the registered region.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Region length.
        mr_len: u64,
    },
    /// The verb is not supported on this QP type (e.g. READ on UD).
    UnsupportedVerb(Verb),
    /// The MR's memory location does not match the QP's path responder.
    LocationMismatch {
        /// Where the MR lives.
        mr: Endpoint,
        /// What the path targets.
        path: Endpoint,
    },
    /// The MR belongs to a different protection domain.
    PdMismatch,
    /// The QP is not in a state that allows this operation.
    WrongState(QpState),
    /// Receiver not ready: the peer receive queue is empty.
    ReceiverNotReady,
    /// Inline payload exceeds the device inline cap.
    InlineTooLarge {
        /// Requested length.
        len: u64,
        /// Device maximum.
        max: u64,
    },
    /// The transport retry budget (`retry_cnt`) was exhausted; the QP
    /// has moved to [`QpState::Error`].
    RetryExceeded {
        /// Attempts made (first try + retransmissions).
        attempts: u32,
    },
}

impl core::fmt::Display for RdmaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RdmaError::OutOfBounds {
                offset,
                len,
                mr_len,
            } => {
                write!(f, "access [{offset}, +{len}) outside MR of {mr_len} bytes")
            }
            RdmaError::UnsupportedVerb(v) => write!(f, "{} unsupported on this QP", v.label()),
            RdmaError::LocationMismatch { mr, path } => {
                write!(f, "MR in {mr:?} memory but path targets {path:?}")
            }
            RdmaError::PdMismatch => write!(f, "MR registered under a different PD"),
            RdmaError::WrongState(s) => write!(f, "operation invalid in QP state {s:?}"),
            RdmaError::ReceiverNotReady => write!(f, "RNR: peer receive queue empty"),
            RdmaError::InlineTooLarge { len, max } => {
                write!(f, "inline payload {len} exceeds device cap {max}")
            }
            RdmaError::RetryExceeded { attempts } => {
                write!(
                    f,
                    "transport retry budget exhausted after {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for RdmaError {}

/// Shared handle to the simulated fabric.
pub type FabricRef = Rc<RefCell<Fabric>>;

/// A device context.
pub struct Context {
    fabric: FabricRef,
    next_pd: Rc<RefCell<u32>>,
    next_qp: Rc<RefCell<u64>>,
}

impl Context {
    /// Opens a context over a fabric.
    pub fn new(fabric: Fabric) -> Self {
        Context {
            fabric: Rc::new(RefCell::new(fabric)),
            next_pd: Rc::new(RefCell::new(0)),
            next_qp: Rc::new(RefCell::new(0)),
        }
    }

    /// The underlying fabric handle (shared with harness code).
    pub fn fabric(&self) -> FabricRef {
        Rc::clone(&self.fabric)
    }

    /// Allocates a protection domain.
    pub fn alloc_pd(&self) -> Pd {
        let mut id = self.next_pd.borrow_mut();
        *id += 1;
        Pd {
            fabric: Rc::clone(&self.fabric),
            id: *id,
            next_qp: Rc::clone(&self.next_qp),
        }
    }
}

/// A protection domain.
pub struct Pd {
    fabric: FabricRef,
    id: u32,
    next_qp: Rc<RefCell<u64>>,
}

impl Pd {
    /// Registers `len` bytes of `location` memory starting at `base`.
    pub fn register_mr(&self, location: Endpoint, base: u64, len: u64) -> Mr {
        Mr {
            pd_id: self.id,
            location,
            base,
            len,
        }
    }

    /// Creates a completion queue.
    pub fn create_cq(&self) -> Cq {
        Cq {
            inner: Rc::new(RefCell::new(CqInner {
                events: BinaryHeap::new(),
            })),
        }
    }

    /// Creates a queue pair bound to `path`, issuing from client machine
    /// `client` (ignored for path 3), signalling into `cq`.
    pub fn create_qp(&self, qp_type: QpType, path: PathKind, client: usize, cq: &Cq) -> Qp {
        let cost = {
            let f = self.fabric.borrow();
            let poster = PosterKind::for_path(path);
            match poster {
                PosterKind::Client => PostCostModel::new(f.clients[client].spec(), poster),
                _ => PostCostModel::new(f.server.spec(), poster),
            }
        };
        let qp_num = {
            let mut n = self.next_qp.borrow_mut();
            *n += 1;
            *n
        };
        Qp {
            fabric: Rc::clone(&self.fabric),
            pd_id: self.id,
            qp_num,
            qp_type,
            path,
            client,
            cq: cq.clone(),
            next_wr: 0,
            post_mode: PostMode::Mmio,
            cost,
            rc: RcParams::default(),
            rc_counters: RcCounters::default(),
            // Convenience: pre-connected (RTS) with an echo-server-style
            // self-replenishing peer receive queue — the paper's
            // benchmark setup. Use `create_qp_reset` for the full state
            // ladder.
            state: QpState::Rts,
            peer_rq: RecvQueue::echo_server(128),
            signals: SignalTracker::new(),
        }
    }

    /// Like [`Pd::create_qp`] but starting in [`QpState::Reset`] with an
    /// empty peer receive queue of `rq_depth` slots: the application
    /// must walk the state ladder and keep receives posted, as with real
    /// ibverbs.
    pub fn create_qp_reset(
        &self,
        qp_type: QpType,
        path: PathKind,
        client: usize,
        cq: &Cq,
        rq_depth: usize,
    ) -> Qp {
        let mut qp = self.create_qp(qp_type, path, client, cq);
        qp.state = QpState::Reset;
        qp.peer_rq = RecvQueue::new(rq_depth);
        qp
    }
}

/// Registered memory region.
#[derive(Debug, Clone, Copy)]
pub struct Mr {
    pd_id: u32,
    location: Endpoint,
    base: u64,
    len: u64,
}

impl Mr {
    /// Where this region lives.
    pub fn location(&self) -> Endpoint {
        self.location
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, offset: u64, len: u64) -> Result<u64, RdmaError> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(RdmaError::OutOfBounds {
                offset,
                len,
                mr_len: self.len,
            });
        }
        Ok(self.base + offset)
    }
}

/// A completed work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wc {
    /// The work-request id assigned at post time.
    pub wr_id: u64,
    /// Simulated completion instant.
    pub completed: Nanos,
    /// Full timing milestones.
    pub timing: Completion,
}

struct CqInner {
    events: BinaryHeap<Reverse<(Nanos, u64, Completion)>>,
}

/// A completion queue.
#[derive(Clone)]
pub struct Cq {
    inner: Rc<RefCell<CqInner>>,
}

impl Cq {
    /// Polls completions that have occurred by simulated time `now`.
    pub fn poll(&self, now: Nanos) -> Vec<Wc> {
        let mut inner = self.inner.borrow_mut();
        let mut out = Vec::new();
        while let Some(Reverse((t, _, _))) = inner.events.peek() {
            if *t > now {
                break;
            }
            let Reverse((t, wr_id, timing)) = inner.events.pop().expect("peeked");
            out.push(Wc {
                wr_id,
                completed: t,
                timing,
            });
        }
        out
    }

    /// The completion instant of the next pending entry, if any.
    pub fn next_event_time(&self) -> Option<Nanos> {
        self.inner
            .borrow()
            .events
            .peek()
            .map(|Reverse((t, _, _))| *t)
    }

    /// Number of pending (not yet polled) completions.
    pub fn pending(&self) -> usize {
        self.inner.borrow().events.len()
    }

    fn push(&self, wc_time: Nanos, wr_id: u64, timing: Completion) {
        self.inner
            .borrow_mut()
            .events
            .push(Reverse((wc_time, wr_id, timing)));
    }
}

/// Queue-pair transport type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpType {
    /// Reliable connection: all verbs.
    Rc,
    /// Unreliable datagram: SEND/RECV only (the paper's two-sided setup).
    Ud,
}

/// A queue pair.
pub struct Qp {
    fabric: FabricRef,
    pd_id: u32,
    qp_num: u64,
    qp_type: QpType,
    path: PathKind,
    client: usize,
    cq: Cq,
    next_wr: u64,
    post_mode: PostMode,
    cost: PostCostModel,
    rc: RcParams,
    rc_counters: RcCounters,
    state: QpState,
    peer_rq: RecvQueue,
    signals: SignalTracker,
}

impl Qp {
    /// The communication path this QP is bound to.
    pub fn path(&self) -> PathKind {
        self.path
    }

    /// Current QP state.
    pub fn state(&self) -> QpState {
        self.state
    }

    /// Walks the QP state ladder; invalid transitions error.
    pub fn modify(&mut self, to: QpState) -> Result<(), RdmaError> {
        check_transition(self.state, to).map_err(|_| RdmaError::WrongState(self.state))?;
        self.state = to;
        Ok(())
    }

    /// Posts `n` receive WQEs to the peer receive queue; returns how
    /// many fit. Requires at least [`QpState::Init`].
    pub fn post_recv(&mut self, n: usize) -> Result<usize, RdmaError> {
        if self.state < QpState::Init {
            return Err(RdmaError::WrongState(self.state));
        }
        Ok(self.peer_rq.post(n))
    }

    /// RNR events this QP has observed.
    pub fn rnr_events(&self) -> u64 {
        self.peer_rq.rnr_events()
    }

    /// The fabric-unique queue-pair number (keys fault verdicts).
    pub fn qp_num(&self) -> u64 {
        self.qp_num
    }

    /// The RC reliability parameters in effect.
    pub fn rc_params(&self) -> RcParams {
        self.rc
    }

    /// Overrides the RC reliability parameters (retry budget, ack
    /// timeout, RNR backoff ladder).
    pub fn set_rc_params(&mut self, params: RcParams) {
        self.rc = params;
    }

    /// Transport-reliability counters accumulated by this QP.
    pub fn rc_counters(&self) -> RcCounters {
        self.rc_counters
    }

    /// Mutable access to the peer receive queue (tests configure
    /// replenish cadence through this).
    pub fn peer_rq_mut(&mut self) -> &mut RecvQueue {
        &mut self.peer_rq
    }

    /// Sets the posting mode (MMIO vs doorbell batching).
    pub fn set_post_mode(&mut self, mode: PostMode) {
        self.post_mode = mode;
    }

    /// The requester-side cost model of this QP.
    pub fn cost_model(&self) -> &PostCostModel {
        &self.cost
    }

    /// CPU time the requester spends posting one request in the current
    /// mode (used by closed-loop drivers for pacing).
    pub fn post_cpu_time(&self) -> Nanos {
        self.cost.cpu_time_per_request(self.post_mode)
    }

    /// Posts a one-sided READ of `[offset, offset+len)` from `mr`.
    pub fn post_read(
        &mut self,
        now: Nanos,
        mr: &Mr,
        offset: u64,
        len: u64,
    ) -> Result<u64, RdmaError> {
        self.post(now, Verb::Read, mr, offset, len)
    }

    /// Posts a one-sided WRITE of `len` bytes into `mr` at `offset`.
    pub fn post_write(
        &mut self,
        now: Nanos,
        mr: &Mr,
        offset: u64,
        len: u64,
    ) -> Result<u64, RdmaError> {
        self.post(now, Verb::Write, mr, offset, len)
    }

    /// Posts a two-sided SEND of `len` bytes (lands in the responder's
    /// receive buffers inside `mr`).
    pub fn post_send(
        &mut self,
        now: Nanos,
        mr: &Mr,
        offset: u64,
        len: u64,
    ) -> Result<u64, RdmaError> {
        self.post(now, Verb::Send, mr, offset, len)
    }

    /// Posts a WRITE with explicit flags (unsignaled / inline).
    ///
    /// Unsignaled posts produce no CQE unless forced by the periodic
    /// signal rule; their returned wr_id is still allocated.
    pub fn post_write_with_flags(
        &mut self,
        now: Nanos,
        mr: &Mr,
        offset: u64,
        len: u64,
        flags: SendFlags,
    ) -> Result<u64, RdmaError> {
        self.post_flagged(now, Verb::Write, mr, offset, len, flags)
    }

    /// Posts a SEND with explicit flags.
    pub fn post_send_with_flags(
        &mut self,
        now: Nanos,
        mr: &Mr,
        offset: u64,
        len: u64,
        flags: SendFlags,
    ) -> Result<u64, RdmaError> {
        self.post_flagged(now, Verb::Send, mr, offset, len, flags)
    }

    fn post(
        &mut self,
        now: Nanos,
        verb: Verb,
        mr: &Mr,
        offset: u64,
        len: u64,
    ) -> Result<u64, RdmaError> {
        self.post_flagged(now, verb, mr, offset, len, SendFlags::default())
    }

    fn post_flagged(
        &mut self,
        now: Nanos,
        verb: Verb,
        mr: &Mr,
        offset: u64,
        len: u64,
        flags: SendFlags,
    ) -> Result<u64, RdmaError> {
        if self.state != QpState::Rts {
            return Err(RdmaError::WrongState(self.state));
        }
        if mr.pd_id != self.pd_id {
            return Err(RdmaError::PdMismatch);
        }
        if let (QpType::Ud, Verb::Read | Verb::Write) = (self.qp_type, verb) {
            return Err(RdmaError::UnsupportedVerb(verb));
        }
        if flags.inline {
            if verb == Verb::Read {
                return Err(RdmaError::UnsupportedVerb(verb));
            }
            if len > MAX_INLINE {
                return Err(RdmaError::InlineTooLarge {
                    len,
                    max: MAX_INLINE,
                });
            }
        }
        let responder = self.path.responder();
        if mr.location != responder {
            return Err(RdmaError::LocationMismatch {
                mr: mr.location,
                path: responder,
            });
        }
        let addr = mr.check(offset, len)?;
        // Only a valid post may spend a receive. A SEND needs a posted
        // receive on the responder. UD has no acknowledged recovery: the
        // datagram is dropped and the post fails immediately. RC walks
        // the RNR-NAK backoff ladder, retrying after exponentially
        // growing delays until a receive appears or `rnr_retry` is
        // exhausted (-> Error, as real HCAs).
        let mut start = now;
        if verb == Verb::Send {
            match self.qp_type {
                QpType::Ud => {
                    if !self.peer_rq.consume() {
                        return Err(RdmaError::ReceiverNotReady);
                    }
                }
                QpType::Rc => {
                    let mut rnr_attempt: u32 = 0;
                    while !self.peer_rq.consume_at(start) {
                        self.rc_counters.rnr_naks += 1;
                        if rnr_attempt >= self.rc.rnr_retry {
                            self.state = QpState::Error;
                            return Err(RdmaError::ReceiverNotReady);
                        }
                        let delay = self.rc.rnr_delay(rnr_attempt);
                        self.rc_counters.rnr_backoff += delay;
                        start += delay;
                        rnr_attempt += 1;
                    }
                }
            }
        }
        let wr_id = self.next_wr;
        self.next_wr += 1;
        let mut desc = RequestDesc::new(verb, self.path, len, addr, self.client);
        if flags.inline {
            desc = desc.with_inline();
        }
        let timing = if self.qp_type == QpType::Rc {
            // RC reliability on the shared retry engine: each attempt
            // burns full fabric resources (loss is detected at the far
            // end or on the ack leg, after the frame has crossed every
            // hop); the requester times out `rc.timeout` after the
            // attempt and retransmits, up to `retry_cnt` retries before
            // the QP faults to Error with no CQE — the application
            // observes it via the Err return.
            let (fabric, path, qp_num) = (&self.fabric, self.path, self.qp_num);
            let o = drive_attempts(start, self.rc.timeout, self.rc.retry_cnt, |t, attempt| {
                let mut f = fabric.borrow_mut();
                f.apply_fault_windows(t);
                let timing = f.execute(t, desc);
                let failed = f
                    .faults()
                    .filter(|p| p.has_stochastic_faults())
                    .is_some_and(|p| {
                        p.attempt_fails(
                            fault_key(&[qp_num, wr_id, u64::from(attempt)]),
                            path.wire_crossings(),
                            path.pcie1_crossings(),
                        )
                    });
                (timing, failed)
            });
            self.rc_counters.attempts += u64::from(o.retries) + 1;
            self.rc_counters.retransmits += u64::from(o.retries);
            if o.exhausted {
                self.rc_counters.retry_exhausted += 1;
                self.state = QpState::Error;
                return Err(RdmaError::RetryExceeded {
                    attempts: o.retries + 1,
                });
            }
            Completion {
                posted: now,
                ..o.result
            }
        } else {
            let mut f = self.fabric.borrow_mut();
            f.apply_fault_windows(now);
            f.execute(now, desc)
        };
        if self.signals.on_post(flags) {
            self.cq.push(timing.completed, wr_id, timing);
        }
        Ok(wr_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::new(Fabric::bluefield_testbed(2))
    }

    #[test]
    fn read_completes_and_polls() {
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
        let wr = qp.post_read(Nanos::ZERO, &mr, 4096, 64).unwrap();
        assert!(cq.poll(Nanos::ZERO).is_empty(), "not complete yet");
        let t = cq.next_event_time().expect("pending completion");
        let wcs = cq.poll(t);
        assert_eq!(wcs.len(), 1);
        assert_eq!(wcs[0].wr_id, wr);
        assert!(wcs[0].completed > Nanos::ZERO);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let mr = pd.register_mr(Endpoint::Host, 0, 1024);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
        let err = qp.post_read(Nanos::ZERO, &mr, 1000, 64).unwrap_err();
        assert!(matches!(err, RdmaError::OutOfBounds { .. }));
        // Overflowing offset+len must not wrap.
        let err = qp.post_read(Nanos::ZERO, &mr, u64::MAX, 2).unwrap_err();
        assert!(matches!(err, RdmaError::OutOfBounds { .. }));
    }

    #[test]
    fn ud_rejects_one_sided() {
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let mr = pd.register_mr(Endpoint::Host, 0, 1024);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp(QpType::Ud, PathKind::Snic1, 0, &cq);
        assert!(matches!(
            qp.post_read(Nanos::ZERO, &mr, 0, 64),
            Err(RdmaError::UnsupportedVerb(Verb::Read))
        ));
        assert!(qp.post_send(Nanos::ZERO, &mr, 0, 64).is_ok());
    }

    #[test]
    fn location_mismatch_rejected() {
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let soc_mr = pd.register_mr(Endpoint::Soc, 0, 1024);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
        assert!(matches!(
            qp.post_read(Nanos::ZERO, &soc_mr, 0, 64),
            Err(RdmaError::LocationMismatch { .. })
        ));
        // The same MR works on path 2.
        let mut qp2 = pd.create_qp(QpType::Rc, PathKind::Snic2, 0, &cq);
        assert!(qp2.post_read(Nanos::ZERO, &soc_mr, 0, 64).is_ok());
    }

    #[test]
    fn pd_mismatch_rejected() {
        let ctx = ctx();
        let pd1 = ctx.alloc_pd();
        let pd2 = ctx.alloc_pd();
        let mr = pd1.register_mr(Endpoint::Host, 0, 1024);
        let cq = pd2.create_cq();
        let mut qp = pd2.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
        assert!(matches!(
            qp.post_read(Nanos::ZERO, &mr, 0, 64),
            Err(RdmaError::PdMismatch)
        ));
    }

    #[test]
    fn completions_poll_in_time_order() {
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
        for i in 0..10 {
            qp.post_read(Nanos::new(i * 1000), &mr, 0, 64).unwrap();
        }
        let wcs = cq.poll(Nanos::from_millis(1));
        assert_eq!(wcs.len(), 10);
        for pair in wcs.windows(2) {
            assert!(pair[0].completed <= pair[1].completed);
        }
    }

    #[test]
    fn path3_qp_ignores_client_index() {
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let mr = pd.register_mr(Endpoint::Host, 0, 1024);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic3S2H, 0, &cq);
        assert!(qp.post_read(Nanos::ZERO, &mr, 0, 64).is_ok());
    }

    #[test]
    fn state_ladder_enforced() {
        use crate::transport::QpState;
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let mr = pd.register_mr(Endpoint::Host, 0, 1024);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp_reset(QpType::Rc, PathKind::Snic1, 0, &cq, 16);
        assert_eq!(qp.state(), QpState::Reset);
        // Posting before RTS fails.
        assert!(matches!(
            qp.post_read(Nanos::ZERO, &mr, 0, 64),
            Err(RdmaError::WrongState(QpState::Reset))
        ));
        // Skipping states fails.
        assert!(qp.modify(QpState::Rts).is_err());
        qp.modify(QpState::Init).unwrap();
        qp.modify(QpState::Rtr).unwrap();
        qp.modify(QpState::Rts).unwrap();
        assert!(qp.post_read(Nanos::ZERO, &mr, 0, 64).is_ok());
    }

    #[test]
    fn rnr_when_no_receives_posted() {
        use crate::transport::QpState;
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let mr = pd.register_mr(Endpoint::Host, 0, 1024);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp_reset(QpType::Ud, PathKind::Snic1, 0, &cq, 4);
        qp.modify(QpState::Init).unwrap();
        qp.post_recv(2).unwrap();
        qp.modify(QpState::Rtr).unwrap();
        qp.modify(QpState::Rts).unwrap();
        assert!(qp.post_send(Nanos::ZERO, &mr, 0, 64).is_ok());
        assert!(qp.post_send(Nanos::ZERO, &mr, 0, 64).is_ok());
        assert!(matches!(
            qp.post_send(Nanos::ZERO, &mr, 0, 64),
            Err(RdmaError::ReceiverNotReady)
        ));
        assert_eq!(qp.rnr_events(), 1);
    }

    #[test]
    fn unsignaled_posts_suppress_cqes() {
        use crate::transport::SendFlags;
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
        for i in 0..10u64 {
            qp.post_write_with_flags(Nanos::from_micros(i), &mr, 0, 64, SendFlags::unsignaled())
                .unwrap();
        }
        assert_eq!(cq.pending(), 0, "unsignaled posts must not produce CQEs");
        qp.post_write(Nanos::from_micros(100), &mr, 0, 64).unwrap();
        assert_eq!(cq.pending(), 1);
    }

    #[test]
    fn inline_limits_enforced() {
        use crate::transport::{SendFlags, MAX_INLINE};
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
        let cq = pd.create_cq();
        let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
        assert!(qp
            .post_write_with_flags(Nanos::ZERO, &mr, 0, MAX_INLINE, SendFlags::inline())
            .is_ok());
        assert!(matches!(
            qp.post_write_with_flags(Nanos::ZERO, &mr, 0, MAX_INLINE + 1, SendFlags::inline()),
            Err(RdmaError::InlineTooLarge { .. })
        ));
        // Inline READ is nonsensical.
        let err = qp.post_flagged(Nanos::ZERO, Verb::Read, &mr, 0, 64, SendFlags::inline());
        assert!(matches!(err, Err(RdmaError::UnsupportedVerb(Verb::Read))));
    }

    #[test]
    fn post_cpu_time_reflects_mode() {
        let ctx = ctx();
        let pd = ctx.alloc_pd();
        let cq = pd.create_cq();
        let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic3S2H, 0, &cq);
        let mmio = qp.post_cpu_time();
        qp.set_post_mode(PostMode::Doorbell(32));
        let db = qp.post_cpu_time();
        assert!(db < mmio, "SoC-side DB should cut posting cost");
    }
}
