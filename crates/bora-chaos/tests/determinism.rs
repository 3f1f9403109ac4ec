//! The two contracts everything else in this crate leans on:
//!
//! 1. [`ChaosTransport`] is *deterministic* — the same seed and the same
//!    rule schedule replay the exact same fault sequence AND the exact
//!    same client-visible outcomes, for any schedule proptest can dream
//!    up (single-threaded client; concurrency is what the scenario
//!    digest contract covers).
//! 2. [`should_failover`] classifies **every** [`ClientError`] variant
//!    and **every** [`ErrorCode`], because a misrouted error either
//!    hammers a dead node or abandons a healthy cluster.

use std::sync::Arc;
use std::time::Duration;

use bora_chaos::{ChaosRule, ChaosState, ChaosTransport, FaultRecord, NetFault};
use bora_cluster::client::should_failover;
use bora_serve::{
    ClientError, ErrorCode, MemTransport, ProtoError, ServeClient, Server, ServerConfig,
};
use proptest::prelude::*;
use simfs::{IoCtx, MemStorage};

const ROOT: &str = "/c/det";

/// One tiny sealed container behind a server — the ops the script
/// replays are read-only, so both runs of a case share the fixture.
fn fixture() -> Arc<Server<Arc<MemStorage>>> {
    let fs = Arc::new(MemStorage::new());
    let mut ctx = IoCtx::new();
    let mut w = rosbag::BagWriter::create(
        &*fs,
        "/stage.bag",
        rosbag::BagWriterOptions::default(),
        &mut ctx,
    )
    .unwrap();
    let mut imu = ros_msgs::sensor_msgs::Imu::default();
    imu.header.stamp = ros_msgs::Time::new(1, 0);
    w.write_ros_message("/imu", ros_msgs::Time::new(1, 0), &imu, &mut ctx).unwrap();
    w.close(&mut ctx).unwrap();
    bora::duplicate(&*fs, "/stage.bag", &*fs, ROOT, &Default::default(), &mut ctx).unwrap();
    Server::start(fs, ServerConfig::default())
}

/// Collapse a client outcome to a stable, comparable label. Ok payloads
/// participate fully (a stale duplicate answering the wrong request is a
/// *visible* outcome and must replay); errors collapse to their variant
/// plus the deterministic parts (io kind, server code).
fn label(res: Result<String, ClientError>) -> String {
    match res {
        Ok(v) => format!("ok:{v}"),
        Err(ClientError::Io(e)) => format!("io:{:?}", e.kind()),
        Err(ClientError::Proto(_)) => "proto".into(),
        Err(ClientError::Server { code, .. }) => format!("server:{code:?}"),
        Err(ClientError::Overloaded) => "overloaded".into(),
        Err(ClientError::DeadlineExceeded { .. }) => "deadline".into(),
        Err(ClientError::StreamCount { received, sent }) => format!("count:{received}/{sent}"),
    }
}

/// Drive a scripted, single-threaded op sequence through a fresh
/// [`ChaosState`] and return everything a client (or auditor) can see.
fn run_schedule(
    server: &Arc<Server<Arc<MemStorage>>>,
    seed: u64,
    rules: &[ChaosRule],
    ops: usize,
) -> (Vec<String>, Vec<FaultRecord>, u64, u64) {
    let state = Arc::new(ChaosState::new(seed));
    state.set_rules(rules.to_vec());
    let transport =
        ChaosTransport::new(MemTransport::new(Arc::clone(server)), 0, Arc::clone(&state))
            .with_frame_timeout(Duration::from_millis(50));
    let mut conn = ServeClient::connect(&transport).ok();
    let mut outcomes = Vec::with_capacity(ops);
    for i in 0..ops {
        let Some(c) = conn.as_mut() else {
            outcomes.push("connect-failed".to_string());
            conn = ServeClient::connect(&transport).ok();
            continue;
        };
        let res = if i % 2 == 0 {
            c.topics(ROOT).map(|t| format!("topics={t:?}"))
        } else {
            c.stat(ROOT).map(|s| format!("stat={s:?}"))
        };
        let failed = res.is_err();
        outcomes.push(label(res));
        if failed {
            // A faulted connection may be desynchronized; a real retry
            // layer reconnects, so the script does too.
            conn = ServeClient::connect(&transport).ok();
        }
    }
    (outcomes, state.fault_log(), state.faults_injected(), state.events())
}

fn arb_fault() -> impl Strategy<Value = NetFault> {
    prop_oneof![
        Just(NetFault::Drop),
        prop::sample::select(vec![1u64, 2, 3]).prop_map(|ms| NetFault::Delay { ms }),
        Just(NetFault::Duplicate),
        Just(NetFault::Reorder),
        Just(NetFault::Truncate),
    ]
}

fn arb_rule() -> impl Strategy<Value = ChaosRule> {
    (
        arb_fault(),
        prop::sample::select(vec!["send", "recv", "both"]),
        0.0f64..0.6,
        0u64..20,
        1u64..40,
        prop::sample::select(vec![0i64, 1, -1]),
    )
        .prop_map(|(fault, dir, prob, start, len, node)| {
            let mut rule = ChaosRule::new(fault).prob(prob).window(start, start + len);
            if dir == "send" || dir == "both" {
                rule = rule.on_send();
            }
            if dir == "recv" || dir == "both" {
                rule = rule.on_recv();
            }
            // `1` filters for a node this wire never reaches — the rule
            // must be dead weight, identically in both runs.
            if node >= 0 {
                rule = rule.node(node as u32);
            }
            rule
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_and_schedule_replays_exactly(
        seed in any::<u64>(),
        rules in prop::collection::vec(arb_rule(), 0..4),
    ) {
        let server = fixture();
        let a = run_schedule(&server, seed, &rules, 8);
        let b = run_schedule(&server, seed, &rules, 8);
        prop_assert_eq!(
            &a.1, &b.1,
            "fault sequence diverged under seed {} rules {:?}", seed, rules
        );
        prop_assert_eq!(a.2, b.2, "fault count diverged");
        prop_assert_eq!(a.3, b.3, "logical event count diverged");
        prop_assert_eq!(
            &a.0, &b.0,
            "client-visible outcomes diverged under seed {} rules {:?}", seed, rules
        );
        server.shutdown();
    }
}

/// Every [`ErrorCode`] the wire can carry, kept in sync by the
/// exhaustive match below (adding a code without classifying it here is
/// a compile error).
fn all_codes() -> Vec<ErrorCode> {
    let codes = vec![
        ErrorCode::NotAContainer,
        ErrorCode::UnknownTopic,
        ErrorCode::Corrupt,
        ErrorCode::Io,
        ErrorCode::BadRequest,
        ErrorCode::ShuttingDown,
        ErrorCode::ChecksumMismatch,
        ErrorCode::DeadlineExceeded,
        ErrorCode::BadQuery,
    ];
    for c in &codes {
        match c {
            ErrorCode::NotAContainer
            | ErrorCode::UnknownTopic
            | ErrorCode::Corrupt
            | ErrorCode::Io
            | ErrorCode::BadRequest
            | ErrorCode::ShuttingDown
            | ErrorCode::ChecksumMismatch
            | ErrorCode::DeadlineExceeded
            | ErrorCode::BadQuery => {}
        }
    }
    codes
}

#[test]
fn should_failover_classifies_every_variant() {
    // Transport and framing damage: another replica may be healthy.
    assert!(should_failover(&ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        "lost frame",
    ))));
    assert!(should_failover(&ClientError::Proto(ProtoError("truncated".into()))));
    // Load shedding is per-node by construction.
    assert!(should_failover(&ClientError::Overloaded));
    // A spent wall-clock budget is spent on every replica.
    assert!(!should_failover(&ClientError::DeadlineExceeded {
        deadline: Duration::from_millis(100),
        elapsed: Duration::from_millis(120),
        last_error: "timed out".into(),
    }));
    for code in all_codes() {
        let e = ClientError::Server { code, message: format!("{code:?}") };
        let expect = match code {
            // Reopen-and-retry can heal these on the same node, and a
            // sibling replica serves its own copy meanwhile.
            ErrorCode::Io | ErrorCode::ChecksumMismatch => true,
            // Not an error *about the data* — this node is leaving, the
            // others are not.
            ErrorCode::ShuttingDown => true,
            // Permanent answers are permanent everywhere: same
            // namespace, same manifest, same spent budget.
            ErrorCode::NotAContainer
            | ErrorCode::UnknownTopic
            | ErrorCode::Corrupt
            | ErrorCode::BadRequest
            | ErrorCode::DeadlineExceeded
            | ErrorCode::BadQuery => false,
        };
        assert_eq!(
            should_failover(&e),
            expect,
            "{code:?} must {} failover",
            if expect { "trigger" } else { "not trigger" }
        );
    }
}
