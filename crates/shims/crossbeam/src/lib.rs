//! Offline shim for the `crossbeam` facade crate.
//!
//! The build container cannot reach crates.io, so the workspace vendors
//! the one crossbeam component it uses:
//!
//! * [`channel`] — MPMC bounded/unbounded channels (`bounded`,
//!   `unbounded`, cloneable `Sender`/`Receiver`, `try_send` for
//!   backpressure, blocking `iter`). The bora-serve request queue is built
//!   on the bounded variant.
//!
//! Scoped threads are `std::thread::scope`. Semantics match crossbeam for
//! every call site in this repository; the implementation favors
//! simplicity (mutex + condvar) over lock-free performance, which is fine
//! at the thread counts the experiments use.

#![forbid(unsafe_code)]

pub mod channel;
