//! Multi-bag (swarm) queries — the paper's §IV.E scenario as a library
//! API instead of a hand-rolled harness.
//!
//! A swarm analysis opens one container per robot and pulls the same
//! topic (and often the same time window) from all of them — the paper's
//! "Bullet Time" multi-angle reconstruction. [`SwarmQuery`] opens the
//! containers, fans the per-robot queries out over scoped threads, and
//! returns per-robot results plus the virtual makespan under the declared
//! concurrency.
//!
//! The fan-out is generic over *where* each robot's query executes: a
//! [`SwarmBackend`] answers one robot's [`SwarmSpec`] and reports the
//! virtual time it took. [`LocalBackend`] opens the container on local
//! storage (the original behavior); a serving tier (bora-cluster) can
//! implement the trait to route each robot to the node owning its
//! container, and [`swarm_fan_out`] gives it the same scoped-thread
//! concurrency and makespan accounting for free.

use ros_msgs::Time;
use rosbag::MessageRecord;
use simfs::{IoCtx, Storage};

use crate::container::BoraBag;
use crate::error::{BoraError, BoraResult};

/// What a swarm query asks of every robot: which topics, and optionally
/// which time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwarmSpec {
    pub topics: Vec<String>,
    /// Half-open `[start, end)` window; `None` reads the whole container.
    pub range: Option<(Time, Time)>,
}

impl SwarmSpec {
    pub fn topics(topics: &[&str]) -> Self {
        SwarmSpec { topics: topics.iter().map(|t| t.to_string()).collect(), range: None }
    }

    pub fn topics_time(topics: &[&str], start: Time, end: Time) -> Self {
        SwarmSpec { range: Some((start, end)), ..SwarmSpec::topics(topics) }
    }
}

/// Executes one robot's share of a swarm query.
///
/// `swarm_size` is the total number of robots queried concurrently —
/// backends that model contention (virtual-time storage) or plan fan-out
/// (a cluster router sizing connection pools) need it; others may ignore
/// it. Returns the robot's messages plus its virtual elapsed nanoseconds.
pub trait SwarmBackend: Sync {
    fn query_robot(
        &self,
        root: &str,
        spec: &SwarmSpec,
        swarm_size: u32,
    ) -> BoraResult<(Vec<MessageRecord>, u64)>;
}

/// The original in-process backend: open the container on `storage` and
/// query it under the swarm's contention regime.
pub struct LocalBackend<'s, S> {
    pub storage: &'s S,
}

impl<S: Storage + Sync> SwarmBackend for LocalBackend<'_, S> {
    fn query_robot(
        &self,
        root: &str,
        spec: &SwarmSpec,
        swarm_size: u32,
    ) -> BoraResult<(Vec<MessageRecord>, u64)> {
        let mut ctx = IoCtx::with_concurrency(swarm_size);
        let bag = BoraBag::open(self.storage, root, &mut ctx)?;
        let topics: Vec<&str> = spec.topics.iter().map(|t| t.as_str()).collect();
        let msgs = match spec.range {
            Some((start, end)) => bag.read_topics_time(&topics, start, end, &mut ctx)?,
            None => bag.read_topics(&topics, &mut ctx)?,
        };
        Ok((msgs, ctx.elapsed_ns()))
    }
}

/// Run `spec` for every root concurrently on `backend` (one scoped thread
/// per robot) and fold the per-robot virtual clocks into makespan/total.
pub fn swarm_fan_out<B: SwarmBackend>(
    backend: &B,
    roots: &[String],
    spec: &SwarmSpec,
) -> BoraResult<SwarmResult> {
    if roots.is_empty() {
        return Err(BoraError::Corrupt("swarm with zero robots".into()));
    }
    let n = roots.len();
    let mut slots: Vec<BoraResult<(Vec<MessageRecord>, u64)>> =
        (0..n).map(|_| Ok((Vec::new(), 0))).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (i, slot) in slots.iter_mut().enumerate() {
            let root = &roots[i];
            handles.push(scope.spawn(move || {
                *slot = backend.query_robot(root, spec, n as u32);
            }));
        }
        for h in handles {
            h.join().expect("swarm worker panicked");
        }
    });

    let mut per_robot = Vec::with_capacity(n);
    let mut makespan = 0u64;
    let mut total = 0u64;
    for slot in slots {
        let (msgs, ns) = slot?;
        makespan = makespan.max(ns);
        total += ns;
        per_robot.push(msgs);
    }
    Ok(SwarmResult { per_robot, makespan_ns: makespan, total_ns: total })
}

/// Result of one swarm-wide query.
pub struct SwarmResult {
    /// Per-robot messages, indexed like the container list.
    pub per_robot: Vec<Vec<MessageRecord>>,
    /// Virtual makespan across robots (max of per-robot clocks).
    pub makespan_ns: u64,
    /// Sum of all robots' virtual time (aggregate storage seconds).
    pub total_ns: u64,
}

impl SwarmResult {
    pub fn message_count(&self) -> u64 {
        self.per_robot.iter().map(|v| v.len() as u64).sum()
    }
}

/// An opened swarm: one BORA container per robot.
pub struct SwarmQuery<'s, S> {
    storage: &'s S,
    roots: Vec<String>,
}

impl<'s, S: Storage> SwarmQuery<'s, S> {
    /// Validate that every root is an openable container (cheap: tag
    /// listing + metadata) and build the query handle.
    pub fn open(storage: &'s S, roots: &[String], ctx: &mut IoCtx) -> BoraResult<Self> {
        if roots.is_empty() {
            return Err(BoraError::Corrupt("swarm with zero robots".into()));
        }
        for r in roots {
            BoraBag::open(storage, r, ctx)?;
        }
        Ok(SwarmQuery { storage, roots: roots.to_vec() })
    }

    pub fn robots(&self) -> usize {
        self.roots.len()
    }

    /// Same topics from every robot (the multi-angle extraction).
    pub fn read_topics(&self, topics: &[&str]) -> BoraResult<SwarmResult> {
        self.run(&SwarmSpec::topics(topics))
    }

    /// Same topics and time window from every robot ("Bullet Time").
    pub fn read_topics_time(
        &self,
        topics: &[&str],
        start: Time,
        end: Time,
    ) -> BoraResult<SwarmResult> {
        self.run(&SwarmSpec::topics_time(topics, start, end))
    }

    /// Fan an arbitrary [`SwarmSpec`] out over the local backend.
    pub fn run(&self, spec: &SwarmSpec) -> BoraResult<SwarmResult>
    where
        S: Sync,
    {
        swarm_fan_out(&LocalBackend { storage: self.storage }, &self.roots, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organizer::{duplicate, OrganizerOptions};
    use ros_msgs::sensor_msgs::Imu;
    use ros_msgs::RosMessage;
    use rosbag::{BagWriter, BagWriterOptions};
    use simfs::MemStorage;

    fn setup_swarm(n: usize) -> (MemStorage, Vec<String>) {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        let mut roots = Vec::new();
        for r in 0..n {
            let bag_path = format!("/r{r}.bag");
            let mut w = BagWriter::create(
                &fs,
                &bag_path,
                BagWriterOptions { chunk_size: 2048, ..Default::default() },
                &mut ctx,
            )
            .unwrap();
            for i in 0..100u32 {
                let mut imu = Imu::default();
                imu.header.seq = i;
                imu.header.stamp = Time::new(i, 0);
                imu.linear_acceleration.x = r as f64; // robot signature
                w.write_ros_message("/imu", Time::new(i, 0), &imu, &mut ctx).unwrap();
            }
            w.close(&mut ctx).unwrap();
            let root = format!("/c{r}");
            duplicate(&fs, &bag_path, &fs, &root, &OrganizerOptions::default(), &mut ctx).unwrap();
            roots.push(root);
        }
        (fs, roots)
    }

    #[test]
    fn swarm_reads_every_robot() {
        let (fs, roots) = setup_swarm(5);
        let mut ctx = IoCtx::new();
        let sq = SwarmQuery::open(&fs, &roots, &mut ctx).unwrap();
        assert_eq!(sq.robots(), 5);
        let res = sq.read_topics(&["/imu"]).unwrap();
        assert_eq!(res.message_count(), 500);
        // Robots are distinguishable (each kept its own payload stream).
        for (r, msgs) in res.per_robot.iter().enumerate() {
            let imu = Imu::from_bytes(&msgs[0].data).unwrap();
            assert_eq!(imu.linear_acceleration.x, r as f64);
        }
        assert!(res.makespan_ns <= res.total_ns);
    }

    #[test]
    fn bullet_time_window() {
        let (fs, roots) = setup_swarm(4);
        let mut ctx = IoCtx::new();
        let sq = SwarmQuery::open(&fs, &roots, &mut ctx).unwrap();
        let res = sq.read_topics_time(&["/imu"], Time::new(10, 0), Time::new(20, 0)).unwrap();
        for msgs in &res.per_robot {
            assert_eq!(msgs.len(), 10, "every robot contributes the same instant");
        }
    }

    #[test]
    fn empty_swarm_rejected() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        assert!(SwarmQuery::open(&fs, &[], &mut ctx).is_err());
    }

    #[test]
    fn custom_backend_drives_fan_out() {
        // A backend that fabricates one message per robot and a virtual
        // clock derived from the root name — checks that swarm_fan_out
        // passes the spec/size through and folds clocks correctly.
        struct Fake;
        impl SwarmBackend for Fake {
            fn query_robot(
                &self,
                root: &str,
                spec: &SwarmSpec,
                swarm_size: u32,
            ) -> BoraResult<(Vec<MessageRecord>, u64)> {
                assert_eq!(swarm_size, 3);
                assert_eq!(spec.topics, vec!["/imu".to_string()]);
                let idx: u64 = root.trim_start_matches("/c").parse().unwrap();
                let rec = MessageRecord {
                    conn_id: 0,
                    topic: spec.topics[0].clone(),
                    time: Time::new(idx as u32, 0),
                    data: vec![idx as u8],
                };
                Ok((vec![rec], (idx + 1) * 100))
            }
        }
        let roots: Vec<String> = (0..3).map(|i| format!("/c{i}")).collect();
        let res = swarm_fan_out(&Fake, &roots, &SwarmSpec::topics(&["/imu"])).unwrap();
        assert_eq!(res.message_count(), 3);
        assert_eq!(res.makespan_ns, 300);
        assert_eq!(res.total_ns, 600);
        assert_eq!(res.per_robot[2][0].data, vec![2]);
    }

    #[test]
    fn broken_robot_surfaces_as_error() {
        let (fs, mut roots) = setup_swarm(2);
        roots.push("/missing".to_owned());
        let mut ctx = IoCtx::new();
        assert!(SwarmQuery::open(&fs, &roots, &mut ctx).is_err());
    }
}
