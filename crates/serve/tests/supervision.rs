//! Supervision: a crashed actor is restarted from its snapshot and the
//! request that observed the crash is retried — callers never see the
//! crash, and post-restart scores are byte-identical.

mod common;

use std::sync::Mutex;
use std::time::Duration;

use taamr_fault::{with_shared_plan, FaultPlan, FaultSite};
use taamr_serve::{ServeError, Supervisor, SupervisorConfig};

/// Shared fault plans are process-global and match on per-actor request
/// ordinals, so a planted `ServeActorPanic@0` can fire in *any* actor's
/// first request. Every test in this binary that sends requests serialises
/// on this gate, whether or not it installs a plan itself.
static SHARED_GATE: Mutex<()> = Mutex::new(());

const DEADLINE: Duration = Duration::from_secs(5);

fn supervisor(dir: &std::path::Path, max_retries: u32) -> Supervisor<taamr_recsys::BprMf> {
    let mut config = SupervisorConfig::new(dir);
    config.max_retries = max_retries;
    config.backoff_base = Duration::from_millis(2);
    Supervisor::new(config)
}

#[test]
fn crash_mid_request_restarts_from_snapshot_byte_identical() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("supervision-crash");
    let sup = supervisor(&dir, 2);
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    // Baseline from the first incarnation: requests 0..USERS.
    let baseline: Vec<_> = (0..common::USERS)
        .map(|u| sup.top_n("bpr", u, 10, DEADLINE).unwrap())
        .collect();
    assert!(baseline.iter().all(|r| r.incarnation == 1 && r.model_version == 1));

    // The next request (per-actor ordinal USERS) panics mid-flight.
    let plan = FaultPlan::new().with(FaultSite::ServeActorPanic, common::USERS as u64);
    let (resp, unfired) =
        with_shared_plan(plan, || sup.top_n("bpr", 0, 10, DEADLINE));
    assert_eq!(unfired, 0, "the injected panic must actually fire");

    // The caller never saw the crash: the supervisor restarted the slot
    // from its snapshot and retried.
    let resp = resp.unwrap();
    assert_eq!(resp.incarnation, 2, "request was served by the restarted actor");
    assert_eq!(resp.model_version, 1);
    assert_eq!(resp.items, baseline[0].items);
    assert_eq!(common::score_bits(&resp), common::score_bits(&baseline[0]));

    // Every user's list survives the restart byte-identically.
    for (u, before) in baseline.iter().enumerate() {
        let after = sup.top_n("bpr", u, 10, DEADLINE).unwrap();
        assert_eq!(after.items, before.items, "user {u} items");
        assert_eq!(common::score_bits(&after), common::score_bits(before), "user {u} scores");
    }

    assert_eq!(sup.slot_incarnation("bpr").unwrap(), 2);
    let ledger = sup.accountant().snapshot();
    assert_eq!(ledger.restarts, 1);
    assert_eq!(ledger.retries, 1);
    assert_eq!(ledger.timeouts, 0);
    assert_eq!(ledger.snapshot_writes, 1); // the add_slot generation 0
}

#[test]
fn exhausted_retry_budget_is_a_typed_503() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("supervision-budget");
    let sup = supervisor(&dir, 0); // no retries: the first crash surfaces
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    let plan = FaultPlan::new().with(FaultSite::ServeActorPanic, 0);
    let (result, unfired) = with_shared_plan(plan, || sup.top_n("bpr", 0, 10, DEADLINE));
    assert_eq!(unfired, 0);
    let err = result.unwrap_err();
    assert!(
        matches!(&err, ServeError::SlotUnavailable { slot, .. } if slot == "bpr"),
        "expected SlotUnavailable, got {err:?}"
    );
    assert_eq!(err.status(), 503);

    // The crash already healed the slot (supervision is independent of
    // the request's retry budget), so the next request just succeeds.
    let resp = sup.top_n("bpr", 0, 10, DEADLINE).unwrap();
    assert_eq!(resp.incarnation, 2);
    assert_eq!(sup.accountant().snapshot().restarts, 1);
}

#[test]
fn chaos_kill_between_requests_recovers_transparently() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("supervision-kill");
    let sup = supervisor(&dir, 2);
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();
    let before = sup.top_n("bpr", 3, 10, DEADLINE).unwrap();

    sup.kill("bpr").unwrap();
    let after = sup.top_n("bpr", 3, 10, DEADLINE).unwrap();
    assert_eq!(after.incarnation, 2);
    assert_eq!(after.items, before.items);
    assert_eq!(common::score_bits(&after), common::score_bits(&before));

    // Repeated kills keep working (each restart re-reads the snapshot).
    for expected_incarnation in 3..6 {
        sup.kill("bpr").unwrap();
        let resp = sup.top_n("bpr", 3, 10, DEADLINE).unwrap();
        assert_eq!(resp.incarnation, expected_incarnation);
        assert_eq!(common::score_bits(&resp), common::score_bits(&before));
    }
    assert_eq!(sup.accountant().snapshot().restarts, 4);
}

#[test]
fn unknown_slot_and_bad_requests_are_typed() {
    let _gate = SHARED_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let dir = common::fresh_dir("supervision-typed");
    let sup = supervisor(&dir, 2);
    sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap();

    let err = sup.top_n("ghost", 0, 10, DEADLINE).unwrap_err();
    assert_eq!(err, ServeError::SlotNotFound { slot: "ghost".to_owned() });
    assert_eq!(err.status(), 404);

    let err = sup.top_n("bpr", common::USERS + 5, 10, DEADLINE).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");
    assert_eq!(err.status(), 400);

    let err = sup.top_n("bpr", 0, 0, DEADLINE).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");

    let err = sup.add_slot("bpr", common::model(1), common::seen_lists()).unwrap_err();
    assert!(matches!(err, ServeError::BadRequest { .. }), "got {err:?}");
}
