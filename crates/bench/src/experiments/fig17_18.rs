//! Figs. 17 & 18 — robotic swarm analysis on the Tianhe-1A Lustre
//! subsystem.
//!
//! One process per bag, all launched simultaneously; every process runs
//! the Robot SLAM extraction (depth image + RGB image + IMU). The paper
//! reports >10x overall improvement at 100 robots × 42 GB and up to
//! 3,113x on the open phase — the baseline's whole-bag index scan
//! multiplied by a saturated metadata path, versus BORA's directory
//! listing.
//!
//! Robot *i* analyzes materialized bag `i mod distinct_bags` (identical
//! per-process work by construction; contention is declared for the full
//! swarm — see DESIGN.md's memory note).

use bora::BoraBag;
use ros_msgs::{RosDuration, Time};
use rosbag::BagReader;
use simfs::IoCtx;
use workloads::apps::Application;
use workloads::swarm::{generate_swarm, Swarm};

use crate::env::{Platform, ScaleConfig};
use crate::report::{ms, speedup, Table};

/// Swarm sizes of the paper.
pub const SWARM_SIZES: [usize; 3] = [10, 50, 100];

struct SwarmEnv {
    platform: Platform,
    swarm: Swarm,
    /// Container root per distinct bag.
    containers: Vec<String>,
}

fn setup_swarm(scales: &ScaleConfig, robots: usize, gb: f64) -> SwarmEnv {
    let platform = Platform::tianhe();
    let mut ctx = IoCtx::new();
    let opts = scales.gen_for_gb(gb);
    let swarm = generate_swarm(
        &platform.storage,
        "/swarm",
        robots,
        scales.swarm_distinct_bags,
        &opts,
        &mut ctx,
    )
    .expect("swarm generation");

    let mut containers = Vec::new();
    for (i, bag_path) in swarm.bag_paths.iter().enumerate() {
        let root = format!("/bora/robot{i}");
        bora::organizer::duplicate(
            &platform.storage,
            bag_path,
            &platform.storage,
            &root,
            &bora::OrganizerOptions::default(),
            &mut ctx,
        )
        .expect("swarm duplicate");
        containers.push(root);
    }
    SwarmEnv { platform, swarm, containers }
}

impl SwarmEnv {
    fn container_for_robot(&self, robot: usize) -> &str {
        &self.containers[robot % self.containers.len()]
    }
}

/// Per-phase makespans of a swarm run.
struct SwarmTiming {
    open_ns: u64,
    query_ns: u64,
}

/// Execute one *representative* process per distinct bag, each declaring
/// the full swarm as its concurrency, and take the max. Per-robot work is
/// identical across robots by construction (same bag shape), so the
/// representatives' maximum equals the full swarm's makespan while costing
/// `distinct_bags` real executions instead of up to 100.
fn run_representatives(
    robots: usize,
    reps: usize,
    f: impl Fn(usize, &mut IoCtx) + Sync,
) -> (Vec<IoCtx>, u64) {
    let mut ctxs: Vec<IoCtx> =
        (0..reps.min(robots)).map(|_| IoCtx::with_concurrency(robots as u32)).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::new();
        for (i, ctx) in ctxs.iter_mut().enumerate() {
            handles.push(scope.spawn(move || f(i, ctx)));
        }
        for h in handles {
            h.join().expect("representative task panicked");
        }
    });
    let makespan = ctxs.iter().map(|c| c.elapsed_ns()).max().unwrap_or(0);
    (ctxs, makespan)
}

fn swarm_baseline(env: &SwarmEnv, topics: &[&str], window: Option<(Time, Time)>) -> SwarmTiming {
    let storage = &env.platform.storage;
    let reps = env.containers.len();
    let opens = std::sync::Mutex::new(vec![0u64; reps]);
    let (_, makespan) = run_representatives(env.swarm.robots, reps, |rep, ctx| {
        let reader = BagReader::open(&*storage, env.swarm.bag_for_robot(rep), ctx)
            .expect("baseline swarm open");
        opens.lock().unwrap()[rep] = ctx.elapsed_ns();
        match window {
            None => {
                reader.read_messages(topics, ctx).expect("swarm query");
            }
            Some((s, e)) => {
                reader.read_messages_time(topics, s, e, ctx).expect("swarm query");
            }
        }
    });
    let open_ns = opens.lock().unwrap().iter().copied().max().unwrap_or(0);
    SwarmTiming { open_ns, query_ns: makespan.saturating_sub(open_ns) }
}

fn swarm_bora(env: &SwarmEnv, topics: &[&str], window: Option<(Time, Time)>) -> SwarmTiming {
    let storage = &env.platform.storage;
    let reps = env.containers.len();
    let opens = std::sync::Mutex::new(vec![0u64; reps]);
    let (_, makespan) = run_representatives(env.swarm.robots, reps, |rep, ctx| {
        let bag =
            BoraBag::open(&*storage, env.container_for_robot(rep), ctx).expect("bora swarm open");
        opens.lock().unwrap()[rep] = ctx.elapsed_ns();
        match window {
            None => {
                bag.read_topics(topics, ctx).expect("bora swarm query");
            }
            Some((s, e)) => {
                bag.read_topics_time(topics, s, e, ctx).expect("bora swarm query");
            }
        }
    });
    let open_ns = opens.lock().unwrap().iter().copied().max().unwrap_or(0);
    SwarmTiming { open_ns, query_ns: makespan.saturating_sub(open_ns) }
}

pub fn run_fig17(scales: &ScaleConfig) -> Vec<Table> {
    let mut tables = Vec::new();
    for (sub, gb) in [('a', 21.0), ('b', 42.0)] {
        let mut table = Table::new(
            &format!("fig17{sub}"),
            &format!("Robotic swarm on Lustre, {gb:.0} GB per bag (paper Fig. 17{sub})"),
            &[
                "robots",
                "system",
                "open (ms)",
                "query (ms)",
                "total (ms)",
                "open speedup",
                "total speedup",
            ],
        );
        for &robots in &SWARM_SIZES {
            let env = setup_swarm(scales, robots, gb);
            let topics = Application::RobotSlam.topics(0);
            let base = swarm_baseline(&env, &topics, None);
            let ours = swarm_bora(&env, &topics, None);
            table.row(vec![
                robots.to_string(),
                "Lustre".into(),
                ms(base.open_ns),
                ms(base.query_ns),
                ms(base.open_ns + base.query_ns),
                String::new(),
                String::new(),
            ]);
            table.row(vec![
                robots.to_string(),
                "BORA on Lustre".into(),
                ms(ours.open_ns),
                ms(ours.query_ns),
                ms(ours.open_ns + ours.query_ns),
                speedup(base.open_ns, ours.open_ns),
                speedup(base.open_ns + base.query_ns, ours.open_ns + ours.query_ns),
            ]);
        }
        table.note("paper: >10x overall at 100 robots x 42 GB; up to 3,113x on the open phase");
        tables.push(table);
    }
    tables
}

pub fn run_fig18(scales: &ScaleConfig) -> Vec<Table> {
    let mut table = Table::new(
        "fig18",
        "Swarm query by topics + start-end time on Lustre (paper Fig. 18)",
        &["robots", "window (s)", "baseline (ms)", "BORA (ms)", "BORA speedup"],
    );
    let gb = 21.0;
    for &robots in &SWARM_SIZES {
        let env = setup_swarm(scales, robots, gb);
        // Window anchored at the swarm's common mission start.
        let mut ctx = IoCtx::new();
        let bb = BoraBag::open(&env.platform.storage, &env.containers[0], &mut ctx)
            .expect("range probe");
        let (start, _) = bb.time_range();
        drop(bb);
        let topics = Application::RobotSlam.topics(0);
        for w in [10.0, 40.0] {
            let end = start + RosDuration::from_sec_f64(w);
            let base = swarm_baseline(&env, &topics, Some((start, end)));
            let ours = swarm_bora(&env, &topics, Some((start, end)));
            table.row(vec![
                robots.to_string(),
                format!("{w:.0}"),
                ms(base.open_ns + base.query_ns),
                ms(ours.open_ns + ours.query_ns),
                speedup(base.open_ns + base.query_ns, ours.open_ns + ours.query_ns),
            ]);
        }
    }
    table.note("paper: coarse-grain time indexing cuts swarm time-range queries by up to 4x");
    vec![table]
}
