//! Failure injection: every error path of the public API, exercised
//! systematically — malformed requests, protection violations, resource
//! exhaustion, state-machine misuse — plus a soak test that the stack
//! stays sound under sustained randomized abuse.

use offpath_smartnic::kvstore::{HashIndex, IndexError};
use offpath_smartnic::nicsim::{Endpoint, Fabric, PathKind};
use offpath_smartnic::pcie::credits::{CreditGate, CreditPool};
use offpath_smartnic::rdma::transport::QpState;
use offpath_smartnic::rdma::verbs::{Context, QpType, RdmaError};
use offpath_smartnic::rdma::SendFlags;
use offpath_smartnic::simnet::rng::SimRng;
use offpath_smartnic::simnet::time::Nanos;

fn ctx() -> Context {
    Context::new(Fabric::bluefield_testbed(2))
}

#[test]
fn mr_violations_are_all_caught() {
    let ctx = ctx();
    let pd = ctx.alloc_pd();
    let mr = pd.register_mr(Endpoint::Host, 0x1000, 4096);
    let cq = pd.create_cq();
    let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);

    // Off the end, overflowing, and zero-adjacent edge cases.
    for (off, len) in [
        (4096u64, 1u64),
        (4095, 2),
        (0, 4097),
        (u64::MAX, 1),
        (u64::MAX, u64::MAX),
    ] {
        let e = qp.post_read(Nanos::ZERO, &mr, off, len);
        assert!(
            matches!(e, Err(RdmaError::OutOfBounds { .. })),
            "({off},{len}) not rejected: {e:?}"
        );
    }
    // Exactly in bounds still works.
    assert!(qp.post_read(Nanos::ZERO, &mr, 4032, 64).is_ok());
    // No CQEs were generated for rejected posts.
    let pending_before = cq.pending();
    let _ = qp.post_read(Nanos::ZERO, &mr, 9999, 64);
    assert_eq!(cq.pending(), pending_before);
}

#[test]
fn qp_misuse_is_rejected_without_state_corruption() {
    let ctx = ctx();
    let pd = ctx.alloc_pd();
    let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
    let cq = pd.create_cq();
    let mut qp = pd.create_qp_reset(QpType::Rc, PathKind::Snic1, 0, &cq, 8);

    // Misuse at every pre-RTS state.
    for (state, next) in [
        (QpState::Reset, QpState::Init),
        (QpState::Init, QpState::Rtr),
        (QpState::Rtr, QpState::Rts),
    ] {
        assert_eq!(qp.state(), state);
        assert!(matches!(
            qp.post_write(Nanos::ZERO, &mr, 0, 64),
            Err(RdmaError::WrongState(_))
        ));
        qp.modify(next).unwrap();
    }
    // After the ladder, posting works and earlier failures left no debris.
    assert!(qp.post_write(Nanos::ZERO, &mr, 0, 64).is_ok());
    // Error state is terminal for posting but recoverable via reset.
    qp.modify(QpState::Error).unwrap();
    assert!(matches!(
        qp.post_write(Nanos::ZERO, &mr, 0, 64),
        Err(RdmaError::WrongState(QpState::Error))
    ));
    qp.modify(QpState::Reset).unwrap();
    assert_eq!(qp.state(), QpState::Reset);
}

#[test]
fn rnr_storms_do_not_wedge_the_qp() {
    let ctx = ctx();
    let pd = ctx.alloc_pd();
    let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
    let cq = pd.create_cq();
    let mut qp = pd.create_qp_reset(QpType::Ud, PathKind::Snic1, 0, &cq, 4);
    qp.modify(QpState::Init).unwrap();
    qp.post_recv(4).unwrap();
    qp.modify(QpState::Rtr).unwrap();
    qp.modify(QpState::Rts).unwrap();

    // Exhaust receives, then hammer: every SEND fails with RNR but the
    // QP keeps functioning once receives return.
    for i in 0..4 {
        qp.post_send(Nanos::from_micros(i), &mr, 0, 64).unwrap();
    }
    for i in 0..50 {
        assert!(matches!(
            qp.post_send(Nanos::from_micros(10 + i), &mr, 0, 64),
            Err(RdmaError::ReceiverNotReady)
        ));
    }
    assert_eq!(qp.rnr_events(), 50);
    qp.post_recv(2).unwrap();
    assert!(qp.post_send(Nanos::from_micros(100), &mr, 0, 64).is_ok());
}

#[test]
fn rejected_send_spends_no_receive() {
    // A SEND that fails validation must leave the peer receive queue and
    // the RNR ladder untouched.
    let ctx = ctx();
    let pd = ctx.alloc_pd();
    let mr = pd.register_mr(Endpoint::Host, 0, 4096);
    let cq = pd.create_cq();
    let ready = |qp_type, recvs| {
        let mut qp = pd.create_qp_reset(qp_type, PathKind::Snic1, 0, &cq, 4);
        qp.modify(QpState::Init).unwrap();
        qp.post_recv(recvs).unwrap();
        qp.modify(QpState::Rtr).unwrap();
        qp.modify(QpState::Rts).unwrap();
        qp
    };

    // UD, one receive posted: the out-of-range SEND keeps it for the
    // valid SEND that follows.
    let mut ud = ready(QpType::Ud, 1);
    assert!(matches!(
        ud.post_send(Nanos::ZERO, &mr, 4096, 64),
        Err(RdmaError::OutOfBounds { .. })
    ));
    assert!(ud.post_send(Nanos::from_micros(1), &mr, 0, 64).is_ok());

    // RC, no receive posted: the bounds error surfaces without a single
    // RNR NAK, and the QP stays usable.
    let mut rc = ready(QpType::Rc, 0);
    assert!(matches!(
        rc.post_send(Nanos::ZERO, &mr, 4096, 64),
        Err(RdmaError::OutOfBounds { .. })
    ));
    assert_eq!(rc.rc_counters().rnr_naks, 0);
    assert_eq!(rc.state(), QpState::Rts);
    assert_eq!(cq.pending(), 1, "only the valid UD SEND completes");
}

#[test]
fn inline_abuse_rejected() {
    let ctx = ctx();
    let pd = ctx.alloc_pd();
    let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
    let cq = pd.create_cq();
    let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
    for len in [221u64, 512, 4096] {
        assert!(matches!(
            qp.post_write_with_flags(Nanos::ZERO, &mr, 0, len, SendFlags::inline()),
            Err(RdmaError::InlineTooLarge { .. })
        ));
    }
}

#[test]
fn index_exhaustion_is_clean() {
    // Fill a tiny index to rejection, then verify reads still work and
    // removal restores insertability.
    let mut idx = HashIndex::new(4, 0).with_max_probes(4);
    let mut inserted = Vec::new();
    for k in 0..100u64 {
        match idx.insert(k, k * 64, 64) {
            Ok(()) => inserted.push(k),
            Err(IndexError::Full) => break,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(inserted.len() >= 4, "tiny index took {}", inserted.len());
    for &k in &inserted {
        idx.lookup(k).unwrap();
    }
    let victim = inserted[0];
    idx.remove(victim).unwrap();
    assert!(idx.insert(victim, 1, 1).is_ok());
}

#[test]
fn kv_store_missing_and_stale_keys() {
    // The rack KV service serves from this index: a get of an absent key
    // must fail its lookup, and a put of a fresh key must be readable.
    let mut idx = HashIndex::new(64, 0);
    for k in 0..100u64 {
        idx.insert(k, k * 64, 64).unwrap();
    }
    assert_eq!(idx.lookup(100_000), Err(IndexError::NotFound));
    idx.insert(777_777, 100 * 64, 64).unwrap();
    assert_eq!(idx.lookup(777_777).unwrap().entry.value_addr, 100 * 64);
}

#[test]
fn credit_starvation_recovers() {
    let mut g = CreditGate::new(CreditPool {
        headers: 2,
        data: 64,
    });
    // Fill to starvation.
    g.try_send(512).unwrap();
    g.try_send(512).unwrap();
    assert!(g.try_send(64).is_err());
    // Drain in the opposite order of send (order does not matter for
    // pooled credits) and confirm full recovery.
    g.release(512);
    g.release(512);
    assert_eq!(g.in_flight().headers, 0);
    g.try_send(512).unwrap();
}

#[test]
fn sustained_loss_exhausts_retry_budget_with_no_cqe_leak() {
    // Certain wire loss: every attempt dies, the RC QP burns its full
    // retry budget, faults to Error, and leaks no completion.
    use offpath_smartnic::simnet::faults::FaultSpec;

    let ctx = ctx();
    ctx.fabric()
        .borrow_mut()
        .set_faults(FaultSpec::none().with_wire_loss(1.0));
    let pd = ctx.alloc_pd();
    let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
    let cq = pd.create_cq();
    let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
    let retry_cnt = qp.rc_params().retry_cnt;

    let e = qp.post_read(Nanos::ZERO, &mr, 0, 64);
    assert!(
        matches!(e, Err(RdmaError::RetryExceeded { attempts }) if attempts == retry_cnt + 1),
        "want RetryExceeded after {} attempts, got {e:?}",
        retry_cnt + 1
    );
    assert_eq!(qp.state(), QpState::Error, "exhaustion must fault the QP");
    assert_eq!(cq.pending(), 0, "no CQE may exist for a failed op");
    let c = qp.rc_counters();
    assert_eq!(c.attempts, u64::from(retry_cnt) + 1);
    assert_eq!(c.retransmits, u64::from(retry_cnt));
    assert_eq!(c.retry_exhausted, 1);
    // The faulted QP rejects further work until reset.
    assert!(matches!(
        qp.post_read(Nanos::from_micros(500), &mr, 0, 64),
        Err(RdmaError::WrongState(QpState::Error))
    ));
}

#[test]
fn rnr_backoff_ladder_matches_configured_delays() {
    // An RC SEND against an empty receive queue walks the exponential
    // RNR backoff ladder until the responder's replenish tick grants a
    // credit. With base 640 ns and a 2 µs replenish interval the ladder
    // is 640 + 1280 + 2560 = 4480 ns: the third wait crosses the first
    // tick at t=2000 (credits are granted lazily at consume time).
    let ctx = ctx();
    let pd = ctx.alloc_pd();
    let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
    let cq = pd.create_cq();
    let mut qp = pd.create_qp_reset(QpType::Rc, PathKind::Snic1, 0, &cq, 8);
    qp.modify(QpState::Init).unwrap();
    qp.modify(QpState::Rtr).unwrap();
    qp.modify(QpState::Rts).unwrap();
    qp.peer_rq_mut()
        .set_replenish_interval(Nanos::from_micros(2));

    qp.post_send(Nanos::ZERO, &mr, 0, 64).unwrap();
    let c = qp.rc_counters();
    assert_eq!(c.rnr_naks, 3, "ladder walked {} rungs", c.rnr_naks);
    assert_eq!(
        c.rnr_backoff,
        Nanos::new(640 + 1280 + 2560),
        "backoff sum diverged from the configured ladder"
    );
    assert_eq!(cq.pending(), 1, "the delayed SEND must still complete");
}

#[test]
fn rnr_retry_exhaustion_faults_rc_qp() {
    // No receives ever posted and no replenish: the ladder runs out of
    // rungs (rnr_retry) and the QP faults to Error, as a real HCA does.
    let ctx = ctx();
    let pd = ctx.alloc_pd();
    let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
    let cq = pd.create_cq();
    let mut qp = pd.create_qp_reset(QpType::Rc, PathKind::Snic1, 0, &cq, 8);
    qp.modify(QpState::Init).unwrap();
    qp.modify(QpState::Rtr).unwrap();
    qp.modify(QpState::Rts).unwrap();

    let rnr_retry = qp.rc_params().rnr_retry;
    assert!(matches!(
        qp.post_send(Nanos::ZERO, &mr, 0, 64),
        Err(RdmaError::ReceiverNotReady)
    ));
    assert_eq!(qp.state(), QpState::Error);
    assert_eq!(qp.rc_counters().rnr_naks, u64::from(rnr_retry) + 1);
    assert_eq!(cq.pending(), 0);
    // Recoverable through reset, like any Error'd QP.
    qp.modify(QpState::Reset).unwrap();
}

#[test]
fn soak_lossy_rc_qp_stays_sound() {
    // 500 posts under 50% per-crossing wire loss: a mix of eventual
    // successes and retry exhaustions. The QP must stay consistent —
    // every success has exactly one CQE, every exhaustion none, and the
    // QP recovers from Error through the reset ladder each time.
    use offpath_smartnic::simnet::faults::FaultSpec;

    let ctx = ctx();
    ctx.fabric()
        .borrow_mut()
        .set_faults(FaultSpec::none().with_seed(7).with_wire_loss(0.5));
    let pd = ctx.alloc_pd();
    let mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
    let cq = pd.create_cq();
    let mut qp = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
    let mut ok = 0u64;
    let mut exhausted = 0u64;
    for i in 0..500u64 {
        match qp.post_read(Nanos::new(i * 2000), &mr, 0, 64) {
            Ok(_) => ok += 1,
            Err(RdmaError::RetryExceeded { .. }) => {
                exhausted += 1;
                qp.modify(QpState::Reset).unwrap();
                qp.modify(QpState::Init).unwrap();
                qp.modify(QpState::Rtr).unwrap();
                qp.modify(QpState::Rts).unwrap();
            }
            Err(e) => panic!("unexpected error under loss: {e:?}"),
        }
    }
    assert!(ok > 0, "nothing ever succeeded");
    assert!(exhausted > 0, "nothing ever exhausted at 50% loss");
    let c = qp.rc_counters();
    assert!(c.retransmits > 0);
    assert_eq!(c.retry_exhausted, exhausted);
    assert!(c.attempts > 500, "retries must inflate attempts");
    let wcs = cq.poll(Nanos::from_secs(10));
    assert_eq!(wcs.len() as u64, ok, "CQE count must match successes");
    for pair in wcs.windows(2) {
        assert!(pair[0].completed <= pair[1].completed);
    }
}

#[test]
fn soak_randomized_posts_stay_sound() {
    // 2000 randomized posts mixing valid and invalid parameters: the
    // stack must neither panic nor corrupt the CQ ordering.
    let ctx = ctx();
    let pd = ctx.alloc_pd();
    let host_mr = pd.register_mr(Endpoint::Host, 0, 1 << 20);
    let soc_mr = pd.register_mr(Endpoint::Soc, 0, 1 << 20);
    let cq = pd.create_cq();
    let mut qp1 = pd.create_qp(QpType::Rc, PathKind::Snic1, 0, &cq);
    let mut qp2 = pd.create_qp(QpType::Rc, PathKind::Snic2, 1, &cq);
    let mut rng = SimRng::seed(2026);
    let mut accepted = 0u64;
    for i in 0..2000u64 {
        let t = Nanos::new(i * 500);
        let off = rng.uniform_u64(1 << 21); // half the posts out of bounds
        let len = 1 + rng.uniform_u64(512);
        let res = match rng.uniform_u64(4) {
            0 => qp1.post_read(t, &host_mr, off, len),
            1 => qp1.post_write(t, &host_mr, off, len),
            2 => qp2.post_read(t, &soc_mr, off, len),
            _ => qp2.post_write(t, &soc_mr, off, len),
        };
        if res.is_ok() {
            accepted += 1;
        }
    }
    assert!(accepted > 500, "too few accepted: {accepted}");
    // Completions poll in non-decreasing time order and match accepts.
    let wcs = cq.poll(Nanos::from_secs(1));
    assert_eq!(wcs.len() as u64, accepted);
    for pair in wcs.windows(2) {
        assert!(pair[0].completed <= pair[1].completed);
    }
}
