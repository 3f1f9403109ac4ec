//! Fault vocabulary and the seeded decision engine.
//!
//! A [`ChaosState`] is the single source of randomness and ordering for
//! one chaos run: every frame that crosses a [`crate::ChaosTransport`]
//! ticks the shared [`LogicalClock`] and asks `decide` whether (and how)
//! to corrupt it. Because the rule set, the splitmix64 stream, and the
//! event counter are all functions of the seed and the *order of frame
//! events*, a single-threaded client replays the exact same fault
//! schedule on every run — on any machine, at any host speed.

use std::collections::BTreeSet;
use std::sync::Mutex;

use bora_cluster::NodeId;
use simfs::LogicalClock;

/// Keep at most this many [`FaultRecord`]s; `faults_injected` keeps the
/// exact total regardless (a flapping scenario can inject far more
/// faults than anyone wants to page through).
pub const FAULT_LOG_CAP: usize = 10_000;

/// What to do to one frame. Network faults, deliberately named apart
/// from `simfs::FaultKind` (the *disk* fault vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Lose the frame silently. On send the server never sees the
    /// request; on recv the response is discarded. Either way the
    /// client's next `recv` times out (the chaos transport installs a
    /// frame timeout at connect so loss cannot deadlock).
    Drop,
    /// Deliver the frame after sleeping `ms` milliseconds.
    Delay { ms: u64 },
    /// Deliver the frame twice. On recv the copy is queued and returned
    /// by the *next* `recv`, desynchronizing the request/response
    /// pairing — exactly what a duplicated TCP segment does to a naive
    /// length-prefixed protocol. Scenarios avoid duplicate-on-send for
    /// non-idempotent ops (a duplicated APPEND really appends twice).
    Duplicate,
    /// Swap delivery order with the adjacent frame. On recv the frame is
    /// held and the following frame returned first; on send the frame is
    /// held until the next send flushes both in reversed order.
    Reorder,
    /// Deliver only the first half of the frame. The peer's decoder
    /// rejects it. Scenarios inject this on recv only: a truncated
    /// *request* decodes server-side into a permanent `BadRequest`,
    /// which no retry layer should (or does) retry.
    Truncate,
}

impl NetFault {
    pub fn name(&self) -> &'static str {
        match self {
            NetFault::Drop => "drop",
            NetFault::Delay { .. } => "delay",
            NetFault::Duplicate => "duplicate",
            NetFault::Reorder => "reorder",
            NetFault::Truncate => "truncate",
        }
    }
}

/// Which side of a connection a frame event is on, seen from the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server (requests).
    Send,
    /// Server → client (responses).
    Recv,
}

/// One match-and-inject rule. A frame event matches when its logical
/// event number falls in `window`, its node passes the filter, and its
/// direction is enabled; a matching rule then fires with probability
/// `prob` (one splitmix64 draw — drawn *only* on match, so adding an
/// unrelated rule does not shift another rule's random stream... unless
/// their windows overlap, which is the point of composing them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRule {
    /// Half-open logical-event window `[start, end)` in which this rule
    /// is armed.
    pub window: (u64, u64),
    /// Restrict to frames to/from one node; `None` matches every node.
    pub node: Option<NodeId>,
    pub on_send: bool,
    pub on_recv: bool,
    /// Probability in `[0, 1]` that a matching frame is hit.
    pub prob: f64,
    pub fault: NetFault,
}

impl ChaosRule {
    /// A rule armed forever, on every node, no direction, certain to
    /// fire — callers switch on the fields they care about.
    pub fn new(fault: NetFault) -> Self {
        ChaosRule {
            window: (0, u64::MAX),
            node: None,
            on_send: false,
            on_recv: false,
            prob: 1.0,
            fault,
        }
    }

    pub fn window(mut self, start: u64, end: u64) -> Self {
        self.window = (start, end);
        self
    }

    pub fn node(mut self, id: NodeId) -> Self {
        self.node = Some(id);
        self
    }

    pub fn on_send(mut self) -> Self {
        self.on_send = true;
        self
    }

    pub fn on_recv(mut self) -> Self {
        self.on_recv = true;
        self
    }

    pub fn prob(mut self, p: f64) -> Self {
        self.prob = p;
        self
    }

    fn matches(&self, event: u64, node: NodeId, dir: Direction) -> bool {
        event >= self.window.0
            && event < self.window.1
            && self.node.is_none_or(|n| n == node)
            && match dir {
                Direction::Send => self.on_send,
                Direction::Recv => self.on_recv,
            }
    }
}

/// An asymmetric network partition: frames to (`deny_tx`) and/or from
/// (`deny_rx`) the `isolated` set are dropped with certainty, ahead of
/// any probabilistic rule. `deny_tx` alone models a node that can still
/// talk but cannot be reached; `deny_rx` alone the reverse — the
/// one-way failures that make distributed bugs interesting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    pub isolated: BTreeSet<NodeId>,
    pub deny_tx: bool,
    pub deny_rx: bool,
}

impl Partition {
    /// Full isolation: nothing in or out.
    pub fn full(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        Partition { isolated: nodes.into_iter().collect(), deny_tx: true, deny_rx: true }
    }

    /// Requests reach the node, responses never come back.
    pub fn rx_only(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        Partition { isolated: nodes.into_iter().collect(), deny_tx: false, deny_rx: true }
    }

    /// Requests never arrive; (there is nothing to respond to).
    pub fn tx_only(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        Partition { isolated: nodes.into_iter().collect(), deny_tx: true, deny_rx: false }
    }

    fn blocks(&self, node: NodeId, dir: Direction) -> bool {
        self.isolated.contains(&node)
            && match dir {
                Direction::Send => self.deny_tx,
                Direction::Recv => self.deny_rx,
            }
    }
}

/// One injected fault, for the replay log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Logical event number at which the fault fired.
    pub event: u64,
    pub node: NodeId,
    pub dir: Direction,
    pub fault: NetFault,
    /// `true` when a [`Partition`] (not a probabilistic rule) dropped
    /// the frame.
    pub partition: bool,
}

struct Inner {
    rng: u64,
    rules: Vec<ChaosRule>,
    partition: Option<Partition>,
    log: Vec<FaultRecord>,
    injected: u64,
}

/// Shared decision engine: seed, rules, partition, virtual clock, and
/// the fault log. One per chaos run, shared (via `Arc`) by every
/// [`crate::ChaosTransport`] in that run.
pub struct ChaosState {
    clock: LogicalClock,
    inner: Mutex<Inner>,
}

/// splitmix64 — tiny, seedable, and with well-dispersed low bits; the
/// same generator the workload crates use for deterministic schedules.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a draw to `[0, 1)` using the top 53 bits (exactly representable).
#[inline]
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl ChaosState {
    pub fn new(seed: u64) -> Self {
        ChaosState {
            clock: LogicalClock::new(),
            inner: Mutex::new(Inner {
                rng: seed,
                rules: Vec::new(),
                partition: None,
                log: Vec::new(),
                injected: 0,
            }),
        }
    }

    /// The shared virtual clock (clones share the counter).
    pub fn clock(&self) -> LogicalClock {
        self.clock.clone()
    }

    /// Logical events witnessed so far.
    pub fn events(&self) -> u64 {
        self.clock.now()
    }

    /// Replace the rule set (takes effect on the next frame event).
    pub fn set_rules(&self, rules: Vec<ChaosRule>) {
        self.inner.lock().unwrap().rules = rules;
    }

    /// Install (`Some`) or lift (`None`) the partition.
    pub fn set_partition(&self, partition: Option<Partition>) {
        self.inner.lock().unwrap().partition = partition;
    }

    /// Exact count of faults injected so far (partition drops included).
    pub fn faults_injected(&self) -> u64 {
        self.inner.lock().unwrap().injected
    }

    /// The first [`FAULT_LOG_CAP`] injected faults.
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        self.inner.lock().unwrap().log.clone()
    }

    /// Tick the clock for one frame event and decide its fate. The
    /// partition is consulted first (certain drop); otherwise the first
    /// matching rule whose probability draw fires wins. Returns `None`
    /// for clean delivery.
    pub fn decide(&self, node: NodeId, dir: Direction) -> Option<NetFault> {
        let event = self.clock.tick();
        let mut inner = self.inner.lock().unwrap();
        if inner.partition.as_ref().is_some_and(|p| p.blocks(node, dir)) {
            Self::record(&mut inner, event, node, dir, NetFault::Drop, true);
            return Some(NetFault::Drop);
        }
        for i in 0..inner.rules.len() {
            let rule = inner.rules[i];
            if !rule.matches(event, node, dir) {
                continue;
            }
            let draw = splitmix64(&mut inner.rng);
            if unit(draw) < rule.prob {
                Self::record(&mut inner, event, node, dir, rule.fault, false);
                return Some(rule.fault);
            }
        }
        None
    }

    fn record(
        inner: &mut Inner,
        event: u64,
        node: NodeId,
        dir: Direction,
        fault: NetFault,
        partition: bool,
    ) {
        inner.injected += 1;
        bora_obs::counter("chaos.faults_injected").inc();
        if inner.log.len() < FAULT_LOG_CAP {
            inner.log.push(FaultRecord { event, node, dir, fault, partition });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_disperses() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len(), "8 draws collided: {xs:?}");
    }

    #[test]
    fn rule_window_node_and_direction_gate() {
        let r = ChaosRule::new(NetFault::Drop).window(10, 20).node(3).on_send();
        assert!(r.matches(10, 3, Direction::Send));
        assert!(!r.matches(9, 3, Direction::Send), "before window");
        assert!(!r.matches(20, 3, Direction::Send), "window end is exclusive");
        assert!(!r.matches(10, 4, Direction::Send), "wrong node");
        assert!(!r.matches(10, 3, Direction::Recv), "wrong direction");
        let any = ChaosRule::new(NetFault::Duplicate).on_recv();
        assert!(any.matches(0, 999, Direction::Recv), "default matches any node forever");
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let st = ChaosState::new(seed);
            st.set_rules(vec![ChaosRule::new(NetFault::Drop).on_send().on_recv().prob(0.5)]);
            let mut hits = Vec::new();
            for i in 0..200u32 {
                let dir = if i % 2 == 0 { Direction::Send } else { Direction::Recv };
                hits.push(st.decide(i % 3, dir).is_some());
            }
            (hits, st.faults_injected(), st.fault_log())
        };
        assert_eq!(run(7), run(7), "identical seed must replay identically");
        assert_ne!(run(7).0, run(8).0, "different seeds should diverge");
        let (_, injected, log) = run(7);
        assert!(injected > 50 && injected < 150, "p=0.5 of 200: {injected}");
        assert_eq!(log.len() as u64, injected, "log under cap keeps everything");
    }

    #[test]
    fn partition_beats_rules_and_is_asymmetric() {
        let st = ChaosState::new(1);
        // A rule that would *delay*; the partition must still hard-drop.
        st.set_rules(vec![ChaosRule::new(NetFault::Delay { ms: 1 }).on_send().on_recv()]);
        st.set_partition(Some(Partition::tx_only([2u32])));
        assert_eq!(st.decide(2, Direction::Send), Some(NetFault::Drop));
        assert_eq!(st.decide(2, Direction::Recv), Some(NetFault::Delay { ms: 1 }), "rx open");
        assert_eq!(st.decide(1, Direction::Send), Some(NetFault::Delay { ms: 1 }), "other node");
        let log = st.fault_log();
        assert!(log[0].partition && !log[1].partition);
        st.set_partition(None);
        st.set_rules(Vec::new());
        assert_eq!(st.decide(2, Direction::Send), None, "healed");
    }

    #[test]
    fn fault_log_caps_but_count_is_exact() {
        let st = ChaosState::new(3);
        st.set_rules(vec![ChaosRule::new(NetFault::Drop).on_send()]);
        for _ in 0..(FAULT_LOG_CAP + 10) {
            st.decide(0, Direction::Send);
        }
        assert_eq!(st.fault_log().len(), FAULT_LOG_CAP);
        assert_eq!(st.faults_injected(), (FAULT_LOG_CAP + 10) as u64);
    }
}
