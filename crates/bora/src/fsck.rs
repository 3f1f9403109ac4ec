//! `bora fsck` — container verification and repair.
//!
//! The commit protocol (see [`crate::writer`]) admits exactly three
//! observable states for a container root, and the checker classifies
//! into them:
//!
//! ```text
//!            ┌─ root missing, staging present ──────────▶ Torn
//!  check ────┼─ root present, every MANIFEST entry ok ──▶ Clean
//!            └─ root present, any entry mismatched ─────▶ Corrupt
//! ```
//!
//! Repair is the state machine's closure back to Clean:
//!
//! * **Torn** → roll *back* (delete the staging debris; the duplication
//!   never happened) or, when the source bag is available, roll *forward*
//!   (delete debris, re-run the duplication).
//! * **Corrupt** → rebuild only the damaged topics from the source bag —
//!   through the same [`crate::writer::TopicWriter`] the organizer used,
//!   in the format the container's own `.bora` records — then re-verify
//!   against the original MANIFEST: repaired content must be
//!   byte-identical to what was committed, or the repair escalates to a
//!   full re-duplication (which keeps the container's format too,
//!   wherever `.bora` can still be trusted to say what it was).
//! * **Clean** → nothing to do (repair is idempotent); stale staging
//!   debris next to a committed container is swept either way.

use simfs::{EntryKind, IoCtx, Storage};

use crate::checksum::crc32c;
use crate::error::{BoraError, BoraResult};
use crate::layout::{decode_topic, meta_path, staging_path, TopicPaths, MANIFEST_FILE, META_FILE};
use crate::manifest::Manifest;
use crate::meta::{ContainerMeta, TopicMeta};
use crate::organizer::{duplicate, OrganizerOptions};
use crate::writer::TopicWriter;

/// Verdict for one container root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsckState {
    /// Committed and every MANIFEST entry verifies.
    Clean,
    /// No committed container — only uncommitted staging debris.
    Torn,
    /// Committed, but files are missing, resized, or fail their CRC.
    Corrupt,
}

/// One damaged file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDamage {
    /// Container-relative path (`imu/data`, `.bora`, `MANIFEST`).
    pub rel_path: String,
    pub reason: String,
}

/// What [`check`] found.
#[derive(Debug, Clone)]
pub struct FsckReport {
    pub state: FsckState,
    /// Staging debris exists next to a committed container (a later
    /// duplication attempt crashed). Swept by [`repair`].
    pub stale_staging: bool,
    pub damages: Vec<FileDamage>,
    /// Root-relative paths present under the container root that the
    /// MANIFEST does not account for — stray `.wal`/`.seg` files from a
    /// crashed ingest next to the container, for example. Reported, never
    /// silently skipped, but they don't make a container Corrupt: the
    /// committed data itself is intact. Empty for pre-manifest containers
    /// (nothing to compare the tree against).
    pub unknown_files: Vec<String>,
    pub files_checked: usize,
    pub bytes_checked: u64,
    /// False for pre-manifest containers, which can only be checked
    /// structurally.
    pub has_manifest: bool,
}

impl FsckReport {
    pub fn is_clean(&self) -> bool {
        self.state == FsckState::Clean && !self.stale_staging
    }
}

/// What [`repair`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Already Clean (possibly after sweeping stale staging debris).
    AlreadyClean,
    /// Torn state rolled back: staging debris removed, no container.
    RolledBack,
    /// Re-duplicated from the source bag (torn roll-forward, or damage
    /// beyond per-topic repair).
    RolledForward,
    /// This many damaged topics rebuilt in place from the source bag,
    /// byte-identical to the committed MANIFEST.
    RepairedTopics(usize),
}

/// Classify `root`. Errors only when there is nothing to classify (no
/// container and no staging debris) or the storage itself fails on a
/// metadata op.
pub fn check<S: Storage>(storage: &S, root: &str, ctx: &mut IoCtx) -> BoraResult<FsckReport> {
    let t0 = std::time::Instant::now();
    let stage = staging_path(root);
    let stale_staging = storage.exists(&stage, ctx);
    if !storage.exists(root, ctx) {
        if stale_staging {
            bora_obs::counter("fsck.torn").inc();
            return Ok(FsckReport {
                state: FsckState::Torn,
                stale_staging,
                damages: Vec::new(),
                unknown_files: Vec::new(),
                files_checked: 0,
                bytes_checked: 0,
                has_manifest: false,
            });
        }
        return Err(BoraError::NotAContainer(root.to_owned()));
    }
    if stale_staging {
        bora_obs::counter("fsck.torn").inc();
    }

    let mut damages = Vec::new();
    let mut unknown_files = Vec::new();
    let mut files_checked = 0usize;
    let mut bytes_checked = 0u64;
    let mut has_manifest = true;
    match Manifest::load(storage, root, ctx) {
        Ok(Some(manifest)) => {
            unknown_files = scan_unknown_files(storage, root, &manifest, ctx);
            for e in manifest.entries() {
                files_checked += 1;
                let path = format!("{}/{}", root.trim_end_matches('/'), e.path);
                if !storage.exists(&path, ctx) {
                    damages.push(FileDamage { rel_path: e.path.clone(), reason: "missing".into() });
                    continue;
                }
                match storage.read_all(&path, ctx) {
                    Err(err) => damages.push(FileDamage {
                        rel_path: e.path.clone(),
                        reason: format!("unreadable: {err}"),
                    }),
                    Ok(bytes) => {
                        bytes_checked += bytes.len() as u64;
                        if bytes.len() as u64 != e.len {
                            damages.push(FileDamage {
                                rel_path: e.path.clone(),
                                reason: format!("length {} != manifest {}", bytes.len(), e.len),
                            });
                        } else {
                            let actual = crc32c(&bytes);
                            if actual != e.crc32c {
                                bora_obs::counter("verify.checksum_fail").inc();
                                damages.push(FileDamage {
                                    rel_path: e.path.clone(),
                                    reason: format!(
                                        "crc {actual:#010x} != manifest {:#010x}",
                                        e.crc32c
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(None) => {
            // Pre-manifest container: the best available check is the
            // structural one (chronology, tiling, counts).
            has_manifest = false;
            let structural =
                crate::container::BoraBag::open(storage, root, ctx).and_then(|bag| bag.verify(ctx));
            if let Err(e) = structural {
                damages.push(FileDamage {
                    rel_path: String::new(),
                    reason: format!("structural verify failed: {e}"),
                });
            }
        }
        Err(e) => damages.push(FileDamage {
            rel_path: MANIFEST_FILE.to_owned(),
            reason: format!("manifest damaged: {e}"),
        }),
    }

    bora_obs::histogram("verify.latency_ns").record(t0.elapsed().as_nanos() as u64);
    let state = if damages.is_empty() { FsckState::Clean } else { FsckState::Corrupt };
    Ok(FsckReport {
        state,
        stale_staging,
        damages,
        unknown_files,
        files_checked,
        bytes_checked,
        has_manifest,
    })
}

/// Walk the container tree (root files + one level of topic-dir files)
/// and collect everything the MANIFEST doesn't list. The MANIFEST itself
/// is exempt (it cannot list its own checksum).
fn scan_unknown_files<S: Storage>(
    storage: &S,
    root: &str,
    manifest: &Manifest,
    ctx: &mut IoCtx,
) -> Vec<String> {
    let mut unknown = Vec::new();
    let Ok(entries) = storage.read_dir(root, ctx) else {
        return unknown;
    };
    let root = root.trim_end_matches('/');
    for e in entries {
        match e.kind {
            EntryKind::File => {
                if e.name != MANIFEST_FILE && manifest.entry(&e.name).is_none() {
                    unknown.push(e.name);
                }
            }
            EntryKind::Dir => {
                let Ok(children) = storage.read_dir(&format!("{root}/{}", e.name), ctx) else {
                    continue;
                };
                for c in children {
                    let rel = format!("{}/{}", e.name, c.name);
                    if c.kind != EntryKind::File || manifest.entry(&rel).is_none() {
                        unknown.push(rel);
                    }
                }
            }
        }
    }
    unknown.sort();
    unknown
}

/// Drive `root` back to Clean. `source` is the original bag the container
/// was duplicated from, needed for roll-forward and corruption repair;
/// without it only rollback (Torn) and debris sweeping are possible.
pub fn repair<S: Storage, B: Storage>(
    storage: &S,
    root: &str,
    source: Option<(&B, &str)>,
    opts: &OrganizerOptions,
    ctx: &mut IoCtx,
) -> BoraResult<RepairOutcome> {
    let report = check(storage, root, ctx)?;
    let stage = staging_path(root);
    if report.stale_staging {
        storage.remove_dir_all(&stage, ctx)?;
    }
    match report.state {
        FsckState::Clean => Ok(RepairOutcome::AlreadyClean),
        FsckState::Torn => match source {
            None => Ok(RepairOutcome::RolledBack),
            Some((src, src_path)) => {
                duplicate(src, src_path, storage, root, opts, ctx)?;
                ensure_clean(storage, root, ctx)?;
                bora_obs::counter("fsck.repaired").inc();
                Ok(RepairOutcome::RolledForward)
            }
        },
        FsckState::Corrupt => {
            let Some((src, src_path)) = source else {
                return Err(BoraError::Corrupt(format!(
                    "{root}: corrupt and no source bag to repair from"
                )));
            };
            // A repaired container keeps its own format: wherever `.bora`
            // is not itself among the damage and still decodes, its block
            // parameters and window width replace the caller's.
            let meta = if report.damages.iter().any(|d| d.rel_path == META_FILE) {
                None
            } else {
                storage
                    .read_all(&meta_path(root), ctx)
                    .ok()
                    .and_then(|b| ContainerMeta::decode(&b).ok())
            };
            let opts = &match &meta {
                Some(m) => OrganizerOptions { block: m.block, window_ns: m.window_ns, ..*opts },
                None => *opts,
            };
            // MANIFEST/meta damage, a structural-only container, or an
            // undecodable path: per-topic repair can't be trusted.
            if let (Some(meta), Some(topics), true) =
                (&meta, damaged_topics(&report), report.has_manifest)
            {
                for topic in &topics {
                    rebuild_topic(storage, root, src, src_path, topic, meta, ctx)?;
                }
                // Repaired content must match the committed MANIFEST byte
                // for byte; anything less and we re-duplicate the whole
                // thing.
                if check(storage, root, ctx)?.state == FsckState::Clean {
                    bora_obs::counter("fsck.repaired").add(topics.len() as u64);
                    return Ok(RepairOutcome::RepairedTopics(topics.len()));
                }
            }
            full_rebuild(storage, root, src, src_path, opts, ctx)
        }
    }
}

/// Map a Corrupt report's damages to topic names; `None` when any damage
/// is outside a topic directory (`.bora`, `MANIFEST`, structural).
fn damaged_topics(report: &FsckReport) -> Option<Vec<String>> {
    let mut topics = Vec::new();
    for d in &report.damages {
        let (dir, _file) = d.rel_path.split_once('/')?;
        if dir.is_empty() || d.rel_path == META_FILE || d.rel_path == MANIFEST_FILE {
            return None;
        }
        let topic = decode_topic(dir);
        if !topics.contains(&topic) {
            topics.push(topic);
        }
    }
    if topics.is_empty() {
        None
    } else {
        Some(topics)
    }
}

fn full_rebuild<S: Storage, B: Storage>(
    storage: &S,
    root: &str,
    src: &B,
    src_path: &str,
    opts: &OrganizerOptions,
    ctx: &mut IoCtx,
) -> BoraResult<RepairOutcome> {
    storage.remove_dir_all(root, ctx)?;
    duplicate(src, src_path, storage, root, opts, ctx)?;
    ensure_clean(storage, root, ctx)?;
    bora_obs::counter("fsck.repaired").inc();
    Ok(RepairOutcome::RolledForward)
}

fn ensure_clean<S: Storage>(storage: &S, root: &str, ctx: &mut IoCtx) -> BoraResult<()> {
    let report = check(storage, root, ctx)?;
    if report.state != FsckState::Clean {
        return Err(BoraError::Corrupt(format!("{root}: still {:?} after repair", report.state)));
    }
    Ok(())
}

/// Rebuild one topic's files from the source bag through the writer
/// the organizer used, in the container's own format (`meta.block`,
/// `meta.window_ns`) — so they reproduce exactly what was committed.
fn rebuild_topic<S: Storage, B: Storage>(
    storage: &S,
    root: &str,
    src: &B,
    src_path: &str,
    topic: &str,
    meta: &ContainerMeta,
    ctx: &mut IoCtx,
) -> BoraResult<()> {
    let reader = rosbag::BagReader::open(src, src_path, ctx)?;
    let msgs = reader.read_messages(&[topic], ctx)?;
    let paths = TopicPaths::new(root, topic);
    for f in [&paths.data, &paths.blocks, &paths.index, &paths.tindex] {
        if storage.exists(f, ctx) {
            storage.remove_file(f, ctx)?;
        }
    }
    // One append per file, as the damaged ones are replaced in place.
    let mut w = TopicWriter::create(
        storage,
        root,
        TopicMeta { topic: topic.to_owned(), ..TopicMeta::default() },
        meta.block,
        meta.window_ns,
        usize::MAX,
        ctx,
    )?;
    for m in &msgs {
        w.push(storage, m.time, &m.data, ctx)?;
    }
    w.finish(storage, ctx)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ros_msgs::sensor_msgs::Imu;
    use ros_msgs::Time;
    use rosbag::{BagWriter, BagWriterOptions};
    use simfs::MemStorage;

    fn build_bag(fs: &MemStorage, path: &str) {
        let mut ctx = IoCtx::new();
        let mut w = BagWriter::create(
            fs,
            path,
            BagWriterOptions { chunk_size: 4096, ..Default::default() },
            &mut ctx,
        )
        .unwrap();
        for tick in 0..120u32 {
            let t = Time::from_nanos(tick as u64 * 50_000_000);
            let mut imu = Imu::default();
            imu.header.seq = tick;
            imu.header.stamp = t;
            w.write_ros_message("/imu", t, &imu, &mut ctx).unwrap();
        }
        w.close(&mut ctx).unwrap();
    }

    fn setup() -> MemStorage {
        let fs = MemStorage::new();
        build_bag(&fs, "/src.bag");
        let mut ctx = IoCtx::new();
        duplicate(&fs, "/src.bag", &fs, "/c", &OrganizerOptions::default(), &mut ctx).unwrap();
        fs
    }

    #[test]
    fn clean_container_checks_clean() {
        let fs = setup();
        let mut ctx = IoCtx::new();
        let r = check(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(r.state, FsckState::Clean);
        assert!(r.is_clean());
        assert!(r.has_manifest);
        assert!(r.files_checked >= 4); // 3 topic files + .bora
        assert!(r.bytes_checked > 0);
    }

    #[test]
    fn missing_root_and_staging_is_not_a_container() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        assert!(matches!(check(&fs, "/c", &mut ctx), Err(BoraError::NotAContainer(_))));
    }

    #[test]
    fn staging_without_root_is_torn_and_rolls_back() {
        let fs = MemStorage::new();
        build_bag(&fs, "/src.bag");
        let mut ctx = IoCtx::new();
        fs.mkdir_all("/c.staging/imu", &mut ctx).unwrap();
        fs.append("/c.staging/imu/data", b"partial", &mut ctx).unwrap();

        let r = check(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(r.state, FsckState::Torn);

        let out = repair::<_, MemStorage>(&fs, "/c", None, &OrganizerOptions::default(), &mut ctx)
            .unwrap();
        assert_eq!(out, RepairOutcome::RolledBack);
        assert!(!fs.exists("/c.staging", &mut ctx));
        assert!(!fs.exists("/c", &mut ctx));
    }

    #[test]
    fn torn_rolls_forward_with_source() {
        let fs = MemStorage::new();
        build_bag(&fs, "/src.bag");
        let mut ctx = IoCtx::new();
        fs.mkdir_all("/c.staging/imu", &mut ctx).unwrap();
        fs.append("/c.staging/imu/data", b"partial", &mut ctx).unwrap();

        let out =
            repair(&fs, "/c", Some((&fs, "/src.bag")), &OrganizerOptions::default(), &mut ctx)
                .unwrap();
        assert_eq!(out, RepairOutcome::RolledForward);
        assert!(check(&fs, "/c", &mut ctx).unwrap().is_clean());
    }

    #[test]
    fn corruption_detected_and_repaired_byte_identical() {
        let fs = setup();
        let mut ctx = IoCtx::new();
        let good = fs.read_all("/c/imu/data", &mut ctx).unwrap();
        let mut bad = good.clone();
        bad[17] ^= 0x80;
        fs.remove_file("/c/imu/data", &mut ctx).unwrap();
        fs.append("/c/imu/data", &bad, &mut ctx).unwrap();

        let r = check(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(r.state, FsckState::Corrupt);
        assert_eq!(r.damages.len(), 1);
        assert_eq!(r.damages[0].rel_path, "imu/data");

        let out =
            repair(&fs, "/c", Some((&fs, "/src.bag")), &OrganizerOptions::default(), &mut ctx)
                .unwrap();
        assert_eq!(out, RepairOutcome::RepairedTopics(1));
        assert_eq!(fs.read_all("/c/imu/data", &mut ctx).unwrap(), good);
        assert!(check(&fs, "/c", &mut ctx).unwrap().is_clean());
    }

    #[test]
    fn corrupt_without_source_is_an_error() {
        let fs = setup();
        let mut ctx = IoCtx::new();
        let good = fs.read_all("/c/imu/data", &mut ctx).unwrap();
        let mut bad = good;
        bad[0] ^= 1;
        fs.remove_file("/c/imu/data", &mut ctx).unwrap();
        fs.append("/c/imu/data", &bad, &mut ctx).unwrap();
        assert!(repair::<_, MemStorage>(&fs, "/c", None, &OrganizerOptions::default(), &mut ctx)
            .is_err());
    }

    #[test]
    fn damaged_manifest_escalates_to_full_rebuild() {
        let fs = setup();
        let mut ctx = IoCtx::new();
        let m = fs.read_all("/c/MANIFEST", &mut ctx).unwrap();
        let mut bad = m;
        bad[5] ^= 0xFF;
        fs.remove_file("/c/MANIFEST", &mut ctx).unwrap();
        fs.append("/c/MANIFEST", &bad, &mut ctx).unwrap();

        let r = check(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(r.state, FsckState::Corrupt);
        assert_eq!(r.damages[0].rel_path, "MANIFEST");

        let out =
            repair(&fs, "/c", Some((&fs, "/src.bag")), &OrganizerOptions::default(), &mut ctx)
                .unwrap();
        assert_eq!(out, RepairOutcome::RolledForward);
        assert!(check(&fs, "/c", &mut ctx).unwrap().is_clean());
    }

    #[test]
    fn repair_is_idempotent() {
        let fs = setup();
        let mut ctx = IoCtx::new();
        let out =
            repair(&fs, "/c", Some((&fs, "/src.bag")), &OrganizerOptions::default(), &mut ctx)
                .unwrap();
        assert_eq!(out, RepairOutcome::AlreadyClean);
    }

    #[test]
    fn clean_container_reports_no_unknown_files() {
        let fs = setup();
        let mut ctx = IoCtx::new();
        let r = check(&fs, "/c", &mut ctx).unwrap();
        assert!(r.unknown_files.is_empty());
    }

    #[test]
    fn stray_ingest_files_are_reported_not_skipped() {
        let fs = setup();
        let mut ctx = IoCtx::new();
        // A crashed ingest left WAL/segment droppings in and around the
        // committed tree.
        fs.append("/c/00000003.seal", b"stray", &mut ctx).unwrap();
        fs.append("/c/imu/00000003.seg", b"stray", &mut ctx).unwrap();
        fs.mkdir_all("/c/wal", &mut ctx).unwrap();
        fs.append("/c/wal/shard-0.wal", b"stray", &mut ctx).unwrap();

        let r = check(&fs, "/c", &mut ctx).unwrap();
        // The committed data is intact — strays are surfaced, not fatal.
        assert_eq!(r.state, FsckState::Clean);
        assert_eq!(
            r.unknown_files,
            vec![
                "00000003.seal".to_owned(),
                "imu/00000003.seg".to_owned(),
                "wal/shard-0.wal".to_owned(),
            ]
        );
    }

    #[test]
    fn stale_staging_next_to_clean_container_is_swept() {
        let fs = setup();
        let mut ctx = IoCtx::new();
        fs.mkdir_all("/c.staging", &mut ctx).unwrap();
        fs.append("/c.staging/junk", b"x", &mut ctx).unwrap();
        let r = check(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(r.state, FsckState::Clean);
        assert!(r.stale_staging);
        assert!(!r.is_clean());
        let out = repair::<_, MemStorage>(&fs, "/c", None, &OrganizerOptions::default(), &mut ctx)
            .unwrap();
        assert_eq!(out, RepairOutcome::AlreadyClean);
        assert!(!fs.exists("/c.staging", &mut ctx));
        assert!(check(&fs, "/c", &mut ctx).unwrap().is_clean());
    }
}
