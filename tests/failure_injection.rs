//! Failure injection: the KV index's error paths, and the harness's RC
//! transport driven to retry exhaustion by wire loss.

use offpath_smartnic::kvstore::index::SLOTS_PER_BUCKET;
use offpath_smartnic::kvstore::{HashIndex, IndexError};
use offpath_smartnic::nicsim::{PathKind, Verb};
use offpath_smartnic::simnet::faults::FaultSpec;
use offpath_smartnic::study::harness::{
    run_scenario, Scenario, StreamResult, StreamSpec, RC_RETRY_CNT,
};

#[test]
fn index_exhaustion_is_clean() {
    // Fill a tiny index to rejection, then verify reads still work, the
    // rejected key misses and a stored key can still be updated.
    let mut idx = HashIndex::new(4, 0);
    let mut inserted = Vec::new();
    let mut rejected = None;
    for k in 0..100u64 {
        match idx.insert(k, k * 64, 64) {
            Ok(()) => inserted.push(k),
            Err(IndexError::Full) => {
                rejected = Some(k);
                break;
            }
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert_eq!(
        inserted.len(),
        4 * SLOTS_PER_BUCKET,
        "a full chain wraps the table"
    );
    for &k in &inserted {
        idx.lookup(k).unwrap();
    }
    let rejected = rejected.expect("a 4-bucket index fills within 100 keys");
    assert_eq!(idx.lookup(rejected), Err(IndexError::NotFound));
    let victim = inserted[0];
    assert!(idx.insert(victim, 1, 1).is_ok());
    assert_eq!(idx.lookup(victim).unwrap().entry.value_addr, 1);
    assert_eq!(idx.len(), inserted.len() as u64);
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

/// A latency-scenario stream of 64 B SNIC(1) READs under `faults`.
fn lossy_reads(faults: FaultSpec) -> StreamResult {
    let scenario = Scenario::latency().with_faults(faults);
    let spec = StreamSpec::new(PathKind::Snic1, Verb::Read, 64, 1);
    run_scenario(&scenario, &[spec]).streams.remove(0)
}

#[test]
fn certain_loss_exhausts_every_op_after_full_retry_budget() {
    // Every wire crossing loses its frame: no op completes, and each
    // abandoned op retransmitted exactly RC_RETRY_CNT times first.
    let r = lossy_reads(FaultSpec::none().with_wire_loss(1.0));
    assert_eq!(r.latency.count, 0, "an op completed under certain loss");
    assert!(r.retry_exhausted > 0, "no op exhausted its retry budget");
    assert_eq!(r.retransmits, u64::from(RC_RETRY_CNT) * r.retry_exhausted);
}

#[test]
fn half_loss_both_completes_and_exhausts() {
    // 50% loss per crossing: some ops get through within the retry
    // budget, others run out of it, and the closed loop keeps going.
    let r = lossy_reads(FaultSpec::none().with_seed(7).with_wire_loss(0.5));
    assert!(r.latency.count > 0, "nothing completed at 50% loss");
    assert!(r.retry_exhausted > 0, "nothing exhausted at 50% loss");
}
