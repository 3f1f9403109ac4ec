//! Figs. 15 & 16 — the 4-node PVFS cluster.
//!
//! Paper: ~2x average speedup (network-bound, so smaller than the single
//! node's), 30x on `/camera/rgb/camera_info` thanks to the near-zero open,
//! and consistent wins for topic+time queries on a 42 GB bag (Fig. 16).

use ros_msgs::RosDuration;
use workloads::apps::APPLICATIONS;
use workloads::tum::spec;

use crate::env::{setup_bag, Platform, ScaleConfig};
use crate::experiments::common::{
    bag_time_range, baseline_query, baseline_query_time, bora_query, bora_query_time,
};
use crate::report::{ms, speedup, Table};

pub fn run_fig15(scales: &ScaleConfig) -> Vec<Table> {
    let mut tables = Vec::new();

    // (a), (b): single topics from Handheld SLAM at two bag sizes.
    for (sub, gb) in [('a', 21.0), ('b', 42.0)] {
        let env = setup_bag(Platform::pvfs(), gb, scales);
        let mut table = Table::new(
            &format!("fig15{sub}"),
            &format!("Query by topic on PVFS, {gb:.0} GB Handheld-SLAM bag (paper Fig. 15{sub})"),
            &["topic", "baseline (ms)", "BORA (ms)", "BORA speedup"],
        );
        for id in ['A', 'B', 'C', 'E', 'F'] {
            let topic = spec(id).name;
            let base = baseline_query(&env, &[topic], 1);
            let ours = bora_query(&env, &[topic], 1);
            assert_eq!(base.messages, ours.messages);
            table.row(vec![
                format!("{id} {topic}"),
                ms(base.total_ns()),
                ms(ours.total_ns()),
                speedup(base.total_ns(), ours.total_ns()),
            ]);
        }
        table.note("paper: ~2x average, up to 30x on camera_info (open-time elimination)");
        tables.push(table);
    }

    // (c), (d): the four applications at two bag sizes.
    for (sub, gb) in [('c', 21.0), ('d', 42.0)] {
        let env = setup_bag(Platform::pvfs(), gb, scales);
        let mut table = Table::new(
            &format!("fig15{sub}"),
            &format!("Applications on PVFS, {gb:.0} GB bag (paper Fig. 15{sub})"),
            &["application", "baseline (ms)", "BORA (ms)", "BORA speedup"],
        );
        for app in APPLICATIONS {
            let topics = app.topics(0);
            let base = baseline_query(&env, &topics, 1);
            let ours = bora_query(&env, &topics, 1);
            assert_eq!(base.messages, ours.messages);
            table.row(vec![
                app.abbrev().into(),
                ms(base.total_ns()),
                ms(ours.total_ns()),
                speedup(base.total_ns(), ours.total_ns()),
            ]);
        }
        table.note("paper: ~2x average speedup; network (10 GbE) caps the win vs the single node");
        tables.push(table);
    }
    tables
}

pub fn run_fig16(scales: &ScaleConfig) -> Vec<Table> {
    let env = setup_bag(Platform::pvfs(), 42.0, scales);
    let (start, end_of_bag) = bag_time_range(&env);
    let mut table = Table::new(
        "fig16",
        "Query by one topic + start-end time, 42 GB bag, PVFS (paper Fig. 16)",
        &["topic", "window (s)", "baseline (ms)", "BORA (ms)", "BORA speedup"],
    );
    for id in ['A', 'C', 'F'] {
        let topic = spec(id).name;
        for w in [10.0, 40.0, 160.0, f64::INFINITY] {
            let (end, label) = if w.is_infinite() {
                (end_of_bag + RosDuration::from_sec_f64(1.0), "full".to_owned())
            } else {
                (start + RosDuration::from_sec_f64(w), format!("{w:.0}"))
            };
            let base = baseline_query_time(&env, &[topic], start, end);
            let ours = bora_query_time(&env, &[topic], start, end);
            assert_eq!(base.messages, ours.messages);
            table.row(vec![
                format!("{id} {topic}"),
                label,
                ms(base.total_ns()),
                ms(ours.total_ns()),
                speedup(base.total_ns(), ours.total_ns()),
            ]);
        }
    }
    table.note("paper: BORA wins every case — the coarse-grain time index works on parallel file systems too");
    vec![table]
}
