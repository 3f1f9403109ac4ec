//! One module per paper table/figure. `registry()` maps experiment ids to
//! runners so the `repro` binary and tests share the same entry points.

pub mod ablations;
pub mod common;
pub mod fig10;
pub mod fig11_12;
pub mod fig13_14;
pub mod fig15_16;
pub mod fig17_18;
pub mod fig2;
pub mod fig3;
pub mod fig9;
pub mod open21g;
pub mod table1;
pub mod table2;
pub mod table4;

use crate::env::ScaleConfig;
use crate::report::Table;

/// A runnable experiment.
pub struct Experiment {
    pub id: &'static str,
    pub paper_ref: &'static str,
    pub description: &'static str,
    pub run: fn(&ScaleConfig) -> Vec<Table>,
}

/// Every experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig2",
            paper_ref: "Fig. 2",
            description: "Message insertion: Ext4 bag append vs KV/SQL/TSDB engines",
            run: fig2::run,
        },
        Experiment {
            id: "fig3",
            paper_ref: "Fig. 3",
            description: "PLFS vs Ext4/XFS: bag write and topic read",
            run: fig3::run,
        },
        Experiment {
            id: "table1",
            paper_ref: "Table I",
            description: "Tag-manager hash table construction cost vs topic count",
            run: table1::run,
        },
        Experiment {
            id: "table2",
            paper_ref: "Table II",
            description: "Generated Handheld-SLAM bag composition vs the paper's",
            run: table2::run,
        },
        Experiment {
            id: "table4",
            paper_ref: "Table IV",
            description: "I/O middleware comparison (qualitative + measured supplement)",
            run: table4::run,
        },
        Experiment {
            id: "fig9",
            paper_ref: "Fig. 9",
            description: "Bag duplication (capture) overhead across sizes and targets",
            run: fig9::run,
        },
        Experiment {
            id: "fig10",
            paper_ref: "Fig. 10",
            description: "Query by topic, Handheld SLAM, varied bag size (single node)",
            run: fig10::run,
        },
        Experiment {
            id: "fig11",
            paper_ref: "Fig. 11",
            description: "Query by topics, four applications, small bag (single node)",
            run: fig11_12::run_small,
        },
        Experiment {
            id: "fig12",
            paper_ref: "Fig. 12",
            description: "Query by topics, four applications, large bag (single node)",
            run: fig11_12::run_large,
        },
        Experiment {
            id: "fig13",
            paper_ref: "Fig. 13",
            description: "Query by one topic + start-end time, 21 GB bag (single node)",
            run: fig13_14::run_fig13,
        },
        Experiment {
            id: "fig14",
            paper_ref: "Fig. 14",
            description: "Query by topics + start-end time, four applications (single node)",
            run: fig13_14::run_fig14,
        },
        Experiment {
            id: "fig15",
            paper_ref: "Fig. 15",
            description: "Query by topics on the PVFS cluster",
            run: fig15_16::run_fig15,
        },
        Experiment {
            id: "fig16",
            paper_ref: "Fig. 16",
            description: "Query by topic + start-end time, 42 GB bag, PVFS cluster",
            run: fig15_16::run_fig16,
        },
        Experiment {
            id: "fig17",
            paper_ref: "Fig. 17",
            description: "Robotic swarm open+query on the Tianhe-1A Lustre subsystem",
            run: fig17_18::run_fig17,
        },
        Experiment {
            id: "fig18",
            paper_ref: "Fig. 18",
            description: "Robotic swarm query by topics + time range on Lustre",
            run: fig17_18::run_fig18,
        },
        Experiment {
            id: "ablation_window",
            paper_ref: "DESIGN §5.1",
            description: "Ablation: coarse time-index window width",
            run: ablations::run_window,
        },
        Experiment {
            id: "ablation_threads",
            paper_ref: "DESIGN §5.2",
            description: "Ablation: organizer distributor thread count",
            run: ablations::run_threads,
        },
        Experiment {
            id: "ablation_tag_persist",
            paper_ref: "DESIGN §5.3",
            description: "Ablation: rebuilt vs persisted tag table",
            run: ablations::run_tag_persist,
        },
        Experiment {
            id: "ablation_stripe",
            paper_ref: "DESIGN §5.4",
            description: "Ablation: cluster data-server count",
            run: ablations::run_stripe,
        },
        Experiment {
            id: "open21g",
            paper_ref: "§II",
            description: "Baseline open of a 21 GB bag exceeds seven seconds on SSD",
            run: open21g::run,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_runnable_shape() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate experiment ids");
        // Every table/figure of the paper is covered.
        for required in [
            "fig2", "fig3", "table1", "table2", "table4", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "open21g",
        ] {
            assert!(ids.contains(&required), "missing experiment {required}");
        }
    }

    #[test]
    fn cheap_experiments_run_at_tiny_scale() {
        let scales = crate::env::ScaleConfig::tiny();
        for id in ["table1", "fig2"] {
            let exp = registry().into_iter().find(|e| e.id == id).unwrap();
            let tables = (exp.run)(&scales);
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in tables {
                assert!(!t.rows.is_empty(), "{id}: empty table {}", t.id);
            }
        }
    }
}
