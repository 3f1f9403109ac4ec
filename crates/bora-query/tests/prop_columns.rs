//! Differential tests for the column fill.
//!
//! A cursor gathers a run of one lane's payloads a column at a time: each
//! payload walked once, then each bound path's column filled in one loop
//! ([`Accessor::fill`]) — typed cells for a number, values for a string.
//! [`Accessor::read`] reads one payload, and `prop_accessor.rs` holds it
//! to decode + `extract_field`. So the fill is right if it equals the
//! per-message read on every cell, bit for bit and nulls included,
//! wherever the runs are cut: for every datatype and path that suite
//! binds, over runs of valid payloads mixed with that suite's mutilated
//! ones.

mod corpus;

use bora_query::value::{Accessor, Column, Kind};
use bora_query::Value;
use corpus::{message, mutilations, paths, same_bits, DATATYPES, MUTILATIONS};
use proptest::prelude::*;
use ros_msgs::AnyMessage;

/// What a typed cell reads as a value.
fn int(x: &Option<i64>) -> Value {
    x.map_or(Value::Null, Value::Int)
}

fn float(x: &Option<f64>) -> Value {
    x.map_or(Value::Null, Value::Float)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn column_fill_equals_per_message_read(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let mut bound = 0;
        for datatype in DATATYPES {
            // Two valid messages and their mutilations, shuffled so that
            // a run mixes payloads the walk accepts with ones it rejects.
            let mut payloads = Vec::new();
            for _ in 0..2 {
                payloads.extend(mutilations(&message(datatype, &mut rng), &mut rng));
            }
            for i in (1..payloads.len()).rev() {
                payloads.swap(i, rng.below(i + 1));
            }
            for path in paths() {
                let Some(a) = Accessor::bind(datatype, &path) else { continue };
                bound += 1;
                let want: Vec<Value> = payloads.iter().map(|(_, p)| a.read(p)).collect();
                let (mut ints, mut floats, mut values) = (Vec::new(), Vec::new(), Vec::new());
                let mut rest = &payloads[..];
                while !rest.is_empty() {
                    // Runs of one up to a whole batch.
                    let (run, tail) = rest.split_at(1 + rng.below(rest.len().min(256)));
                    let bodies: Vec<_> = run.iter().map(|(_, p)| a.walk(p)).collect();
                    let run = || run.iter().map(|(_, p)| p.as_slice());
                    match a.kind() {
                        Kind::Int => a.fill(run(), &bodies, Column::Int(&mut ints)),
                        Kind::Float => a.fill(run(), &bodies, Column::Float(&mut floats)),
                        Kind::Str => {}
                    }
                    a.fill(run(), &bodies, Column::Values(&mut values));
                    rest = tail;
                }
                let typed: Vec<Value> = match a.kind() {
                    Kind::Int => ints.iter().map(int).collect(),
                    Kind::Float => floats.iter().map(float).collect(),
                    Kind::Str => values.clone(),
                };
                prop_assert_eq!(typed.len(), want.len());
                prop_assert_eq!(values.len(), want.len());
                for (i, (class, payload)) in payloads.iter().enumerate() {
                    for (column, got) in [("typed", &typed[i]), ("values", &values[i])] {
                        prop_assert!(
                            same_bits(got, &want[i]),
                            "{datatype} {path:?} over {}, {column} column: fill {got:?}, \
                             read {:?}\npayload {payload:?}",
                            MUTILATIONS[*class],
                            want[i]
                        );
                    }
                }
            }
        }
        // Imu 13, Image 7, CameraInfo 6, TFMessage 1, MarkerArray 1.
        prop_assert_eq!(bound, 28);
    }
}

/// Both readers see the values a run carries, not only nulls: the
/// differential test above would also pass if fill and read answered
/// `Null` to everything.
#[test]
fn a_run_of_valid_messages_fills_no_null() {
    let mut rng = TestRng::from_seed(3);
    for datatype in DATATYPES {
        let Some(walk) = AnyMessage::walker(datatype) else { continue };
        let run: Vec<Vec<u8>> = (0..5).map(|_| message(datatype, &mut rng)).collect();
        let bodies: Vec<_> = run.iter().map(|p| walk(p)).collect();
        for path in paths() {
            let Some(a) = Accessor::bind(datatype, &path) else { continue };
            let mut values = Vec::new();
            a.fill(run.iter().map(Vec::as_slice), &bodies, Column::Values(&mut values));
            assert!(values.iter().all(|v| !v.is_null()), "{datatype} {path:?}: {values:?}");
        }
    }
}
