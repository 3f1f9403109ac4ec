//! [`FaultyStorage`]: deterministic fault injection for robustness tests.
//!
//! Wraps any backend and fails selected operations — by countdown (the
//! N-th operation fails), by path substring, or by flipping bits in read
//! or write payloads. Middleware above (bag reader/writer, BORA organizer,
//! WALs) must turn these into typed errors, never panics or silent
//! corruption; the failure-injection tests in each crate rely on this
//! wrapper.
//!
//! Two fault families are supported:
//!
//! * **Rules** ([`FaultRule`]) — per-operation faults: fail or corrupt the
//!   N-th matching read/write/metadata op, optionally bounded to a number
//!   of failures so the fault is *transient* (retry succeeds).
//! * **Power cuts** ([`PowerCut`]) — whole-device crashes: after a given
//!   number of *mutating* operations the device goes dark. The mutating
//!   op at the cut boundary may be *torn* (only a prefix of its payload
//!   reaches the medium) and every operation afterwards fails, modeling a
//!   process crash / power loss. [`PowerCutSchedule`] enumerates every
//!   write boundary of a workload so crash-consistency tests can sweep
//!   them all deterministically.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::clock::IoCtx;
use crate::error::{FsError, FsResult};
use crate::storage::{DirEntry, Metadata, Storage};

/// Which operations a fault plan applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    Reads,
    Writes,
    Metadata,
    All,
}

/// A single injection rule.
#[derive(Debug, Clone)]
pub struct FaultRule {
    pub kind: FaultKind,
    /// Only apply to paths containing this substring (None = all paths).
    pub path_contains: Option<String>,
    /// Fail after this many matching operations have succeeded.
    pub after_ops: u64,
    /// If set, instead of failing, XOR this byte into the first byte of
    /// read results *or* write payloads (silent corruption — for
    /// checksum tests).
    pub corrupt_with: Option<u8>,
    /// Fail (or corrupt) at most this many matching operations, then let
    /// traffic through again. `None` = the fault is permanent. A bounded
    /// count models *transient* faults for retry tests.
    pub max_failures: Option<u64>,
}

impl Default for FaultRule {
    fn default() -> Self {
        FaultRule {
            kind: FaultKind::All,
            path_contains: None,
            after_ops: 0,
            corrupt_with: None,
            max_failures: None,
        }
    }
}

struct RuleState {
    rule: FaultRule,
    seen: AtomicU64,
}

/// A whole-device crash point: after `after_mutations` mutating
/// operations complete, the device dies. If the mutating op at the
/// boundary carries a payload (`append`/`write_at`) and `torn_bytes` is
/// set, that prefix of the payload is persisted before the failure —
/// a *torn write*. Every subsequent operation (reads included) fails
/// until the wrapper is rebuilt, modeling a reboot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerCut {
    /// Mutating operations allowed to complete before the cut.
    pub after_mutations: u64,
    /// For a payload-carrying op at the boundary: persist only this many
    /// bytes of the payload. `None` = the boundary op doesn't reach the
    /// medium at all.
    pub torn_bytes: Option<usize>,
}

/// Deterministic sweep of every crash point of a workload with
/// `total_mutations` mutating ops: for each boundary `k` it yields a
/// clean cut (op `k` lost entirely) and a torn cut (op `k` persists a
/// 1-byte prefix when it carries a payload).
#[derive(Debug, Clone)]
pub struct PowerCutSchedule {
    total_mutations: u64,
    next: u64,
    torn: bool,
}

impl PowerCutSchedule {
    pub fn sweep(total_mutations: u64) -> Self {
        PowerCutSchedule { total_mutations, next: 0, torn: false }
    }

    /// Number of crash points the sweep will yield.
    pub fn len(&self) -> u64 {
        self.total_mutations * 2
    }

    pub fn is_empty(&self) -> bool {
        self.total_mutations == 0
    }
}

impl Iterator for PowerCutSchedule {
    type Item = PowerCut;

    fn next(&mut self) -> Option<PowerCut> {
        if self.next >= self.total_mutations {
            return None;
        }
        let cut = PowerCut {
            after_mutations: self.next,
            torn_bytes: if self.torn { Some(1) } else { None },
        };
        if self.torn {
            self.torn = false;
            self.next += 1;
        } else {
            self.torn = true;
        }
        Some(cut)
    }
}

enum Gate {
    Pass,
    /// Die at this op; payload ops persist `torn` bytes first.
    Cut(Option<usize>),
}

/// Fault-injecting wrapper.
pub struct FaultyStorage<S> {
    inner: S,
    rules: Mutex<Vec<RuleState>>,
    cut: Mutex<Option<PowerCut>>,
    mutations: AtomicU64,
    dead: AtomicBool,
}

impl<S: Storage> FaultyStorage<S> {
    pub fn new(inner: S) -> Self {
        FaultyStorage {
            inner,
            rules: Mutex::new(Vec::new()),
            cut: Mutex::new(None),
            mutations: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Install a rule; rules are evaluated in installation order.
    pub fn inject(&self, rule: FaultRule) {
        self.rules.lock().push(RuleState { rule, seen: AtomicU64::new(0) });
    }

    /// Remove all rules.
    pub fn clear_faults(&self) {
        self.rules.lock().clear();
    }

    /// Arm a power cut. The mutating-op counter restarts from zero so the
    /// cut's `after_mutations` is relative to the workload under test.
    pub fn arm_power_cut(&self, cut: PowerCut) {
        *self.cut.lock() = Some(cut);
        self.mutations.store(0, Ordering::SeqCst);
        self.dead.store(false, Ordering::SeqCst);
    }

    /// Mutating operations observed since construction or the last
    /// [`FaultyStorage::arm_power_cut`]. Run a workload once uncut and
    /// read this to size a [`PowerCutSchedule`].
    pub fn mutations(&self) -> u64 {
        self.mutations.load(Ordering::SeqCst)
    }

    /// True once an armed power cut has fired.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn check_alive(&self, path: &str) -> FsResult<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(FsError::Io(format!("power cut: device offline ({path})")));
        }
        Ok(())
    }

    /// Count a mutating op against an armed power cut.
    fn mutation_gate(&self) -> Gate {
        let n = self.mutations.fetch_add(1, Ordering::SeqCst);
        let cut = *self.cut.lock();
        match cut {
            Some(c) if n >= c.after_mutations => {
                self.dead.store(true, Ordering::SeqCst);
                Gate::Cut(c.torn_bytes)
            }
            _ => Gate::Pass,
        }
    }

    /// Check rules for an op; returns Err to fail it, or the corruption
    /// byte to apply.
    fn consult(&self, kind: FaultKind, path: &str) -> Result<Option<u8>, FsError> {
        let rules = self.rules.lock();
        for rs in rules.iter() {
            let kind_match = rs.rule.kind == FaultKind::All || rs.rule.kind == kind;
            let path_match =
                rs.rule.path_contains.as_deref().map(|s| path.contains(s)).unwrap_or(true);
            if kind_match && path_match {
                let n = rs.seen.fetch_add(1, Ordering::Relaxed);
                let expired =
                    rs.rule.max_failures.map(|m| n >= rs.rule.after_ops + m).unwrap_or(false);
                if n >= rs.rule.after_ops && !expired {
                    if let Some(b) = rs.rule.corrupt_with {
                        return Ok(Some(b));
                    }
                    return Err(FsError::Io(format!("injected fault on {path}")));
                }
            }
        }
        Ok(None)
    }
}

/// XOR `b` into the first byte of `data`, if any.
fn corrupt_first(data: &[u8], b: u8) -> Vec<u8> {
    let mut owned = data.to_vec();
    if let Some(first) = owned.first_mut() {
        *first ^= b;
    }
    owned
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn create(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.check_alive(path)?;
        if let Gate::Cut(_) = self.mutation_gate() {
            return Err(FsError::Io(format!("power cut during create {path}")));
        }
        self.consult(FaultKind::Metadata, path)?;
        self.inner.create(path, ctx)
    }

    fn append(&self, path: &str, data: &[u8], ctx: &mut IoCtx) -> FsResult<u64> {
        self.check_alive(path)?;
        if let Gate::Cut(torn) = self.mutation_gate() {
            if let Some(k) = torn {
                // Torn write: a prefix reaches the medium, then the lights
                // go out. The caller still sees a failure.
                let k = k.min(data.len());
                if k > 0 {
                    let _ = self.inner.append(path, &data[..k], ctx);
                }
            }
            return Err(FsError::Io(format!("power cut during append {path}")));
        }
        match self.consult(FaultKind::Writes, path)? {
            Some(b) => self.inner.append(path, &corrupt_first(data, b), ctx),
            None => self.inner.append(path, data, ctx),
        }
    }

    fn write_at(&self, path: &str, offset: u64, data: &[u8], ctx: &mut IoCtx) -> FsResult<()> {
        self.check_alive(path)?;
        if let Gate::Cut(torn) = self.mutation_gate() {
            if let Some(k) = torn {
                let k = k.min(data.len());
                if k > 0 {
                    let _ = self.inner.write_at(path, offset, &data[..k], ctx);
                }
            }
            return Err(FsError::Io(format!("power cut during write_at {path}")));
        }
        match self.consult(FaultKind::Writes, path)? {
            Some(b) => self.inner.write_at(path, offset, &corrupt_first(data, b), ctx),
            None => self.inner.write_at(path, offset, data, ctx),
        }
    }

    fn read_at(&self, path: &str, offset: u64, len: usize, ctx: &mut IoCtx) -> FsResult<Vec<u8>> {
        self.check_alive(path)?;
        let corrupt = self.consult(FaultKind::Reads, path)?;
        let mut data = self.inner.read_at(path, offset, len, ctx)?;
        if let (Some(b), Some(first)) = (corrupt, data.first_mut()) {
            *first ^= b;
        }
        Ok(data)
    }

    fn len(&self, path: &str, ctx: &mut IoCtx) -> FsResult<u64> {
        self.check_alive(path)?;
        self.consult(FaultKind::Metadata, path)?;
        self.inner.len(path, ctx)
    }

    fn exists(&self, path: &str, ctx: &mut IoCtx) -> bool {
        if self.dead.load(Ordering::SeqCst) {
            return false;
        }
        self.inner.exists(path, ctx)
    }

    fn stat(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Metadata> {
        self.check_alive(path)?;
        self.consult(FaultKind::Metadata, path)?;
        self.inner.stat(path, ctx)
    }

    fn mkdir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.check_alive(path)?;
        if let Gate::Cut(_) = self.mutation_gate() {
            return Err(FsError::Io(format!("power cut during mkdir {path}")));
        }
        self.consult(FaultKind::Metadata, path)?;
        self.inner.mkdir_all(path, ctx)
    }

    fn read_dir(&self, path: &str, ctx: &mut IoCtx) -> FsResult<Vec<DirEntry>> {
        self.check_alive(path)?;
        self.consult(FaultKind::Metadata, path)?;
        self.inner.read_dir(path, ctx)
    }

    fn remove_file(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.check_alive(path)?;
        if let Gate::Cut(_) = self.mutation_gate() {
            return Err(FsError::Io(format!("power cut during remove {path}")));
        }
        self.consult(FaultKind::Metadata, path)?;
        self.inner.remove_file(path, ctx)
    }

    fn remove_dir_all(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.check_alive(path)?;
        if let Gate::Cut(_) = self.mutation_gate() {
            return Err(FsError::Io(format!("power cut during remove {path}")));
        }
        self.consult(FaultKind::Metadata, path)?;
        self.inner.remove_dir_all(path, ctx)
    }

    fn rename(&self, from: &str, to: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.check_alive(from)?;
        if let Gate::Cut(_) = self.mutation_gate() {
            return Err(FsError::Io(format!("power cut during rename {from} -> {to}")));
        }
        self.consult(FaultKind::Metadata, from)?;
        self.inner.rename(from, to, ctx)
    }

    fn flush(&self, path: &str, ctx: &mut IoCtx) -> FsResult<()> {
        self.check_alive(path)?;
        if let Gate::Cut(_) = self.mutation_gate() {
            return Err(FsError::Io(format!("power cut during flush {path}")));
        }
        self.consult(FaultKind::Writes, path)?;
        self.inner.flush(path, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStorage;

    #[test]
    fn fails_after_countdown() {
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.inject(FaultRule { kind: FaultKind::Writes, after_ops: 2, ..FaultRule::default() });
        assert!(fs.append("/f", b"1", &mut ctx).is_ok());
        assert!(fs.append("/f", b"2", &mut ctx).is_ok());
        assert!(matches!(fs.append("/f", b"3", &mut ctx), Err(FsError::Io(_))));
    }

    #[test]
    fn path_filter_limits_blast_radius() {
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.inject(FaultRule {
            kind: FaultKind::Writes,
            path_contains: Some("wal".into()),
            ..FaultRule::default()
        });
        assert!(fs.append("/data", b"ok", &mut ctx).is_ok());
        assert!(fs.append("/db/wal", b"no", &mut ctx).is_err());
    }

    #[test]
    fn read_corruption_flips_first_byte() {
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.append("/f", b"hello", &mut ctx).unwrap();
        fs.inject(FaultRule {
            kind: FaultKind::Reads,
            corrupt_with: Some(0xFF),
            ..FaultRule::default()
        });
        let got = fs.read_at("/f", 0, 5, &mut ctx).unwrap();
        assert_ne!(got, b"hello");
        assert_eq!(&got[1..], b"ello");
        fs.clear_faults();
        assert_eq!(fs.read_at("/f", 0, 5, &mut ctx).unwrap(), b"hello");
    }

    #[test]
    fn write_corruption_flips_first_byte_on_medium() {
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.inject(FaultRule {
            kind: FaultKind::Writes,
            corrupt_with: Some(0x01),
            ..FaultRule::default()
        });
        fs.append("/f", b"hello", &mut ctx).unwrap();
        fs.clear_faults();
        // The corruption happened on the way down: re-reads see it.
        assert_eq!(fs.read_at("/f", 0, 5, &mut ctx).unwrap(), b"iello");
    }

    #[test]
    fn metadata_faults_hit_mkdir() {
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.inject(FaultRule { kind: FaultKind::Metadata, ..FaultRule::default() });
        assert!(fs.mkdir_all("/d", &mut ctx).is_err());
    }

    #[test]
    fn transient_fault_expires_after_max_failures() {
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.append("/f", b"x", &mut ctx).unwrap();
        fs.inject(FaultRule {
            kind: FaultKind::Reads,
            max_failures: Some(2),
            ..FaultRule::default()
        });
        assert!(fs.read_at("/f", 0, 1, &mut ctx).is_err());
        assert!(fs.read_at("/f", 0, 1, &mut ctx).is_err());
        assert_eq!(fs.read_at("/f", 0, 1, &mut ctx).unwrap(), b"x");
        assert_eq!(fs.read_at("/f", 0, 1, &mut ctx).unwrap(), b"x");
    }

    #[test]
    fn power_cut_kills_device_at_boundary() {
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.arm_power_cut(PowerCut { after_mutations: 2, torn_bytes: None });
        fs.append("/a", b"1", &mut ctx).unwrap();
        fs.append("/b", b"2", &mut ctx).unwrap();
        assert!(fs.append("/c", b"3", &mut ctx).is_err());
        assert!(fs.is_dead());
        // Everything fails after the cut, reads included.
        assert!(fs.read_at("/a", 0, 1, &mut ctx).is_err());
        assert!(fs.mkdir_all("/d", &mut ctx).is_err());
        // The medium (inner) survives with pre-cut state only.
        assert!(fs.inner().exists("/a", &mut ctx));
        assert!(!fs.inner().exists("/c", &mut ctx));
    }

    #[test]
    fn torn_write_persists_prefix_then_fails() {
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.arm_power_cut(PowerCut { after_mutations: 0, torn_bytes: Some(2) });
        assert!(fs.append("/f", b"hello", &mut ctx).is_err());
        assert_eq!(fs.inner().read_all("/f", &mut ctx).unwrap(), b"he");
    }

    #[test]
    fn mutation_counter_counts_only_mutations() {
        let fs = FaultyStorage::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        fs.append("/f", b"x", &mut ctx).unwrap();
        fs.mkdir_all("/d", &mut ctx).unwrap();
        fs.read_at("/f", 0, 1, &mut ctx).unwrap();
        fs.len("/f", &mut ctx).unwrap();
        assert_eq!(fs.mutations(), 2);
    }

    #[test]
    fn schedule_sweeps_clean_and_torn_variants() {
        let cuts: Vec<PowerCut> = PowerCutSchedule::sweep(2).collect();
        assert_eq!(
            cuts,
            vec![
                PowerCut { after_mutations: 0, torn_bytes: None },
                PowerCut { after_mutations: 0, torn_bytes: Some(1) },
                PowerCut { after_mutations: 1, torn_bytes: None },
                PowerCut { after_mutations: 1, torn_bytes: Some(1) },
            ]
        );
        assert_eq!(PowerCutSchedule::sweep(2).len(), 4);
    }
}
