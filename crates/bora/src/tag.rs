//! The tag manager: a hash table mapping topic names to back-end paths.
//!
//! BORA does **not** persist this table; it is rebuilt from a directory
//! listing whenever a container is opened (paper §III.B, Table I — the
//! rebuild stays under ~36 ms even at 100,000 topics, negligible next to
//! query time). Keys are topic names, values the per-topic path bundle.

use std::collections::HashMap;
use std::sync::Arc;

use simfs::device::cpu;
use simfs::{EntryKind, IoCtx, Storage};

use crate::error::{BoraError, BoraResult};
use crate::layout::{decode_topic, meta_path, rel_path, TopicPaths};
use crate::manifest::Manifest;

/// Hash table topic → back-end paths for one container.
///
/// Values sit behind `Arc` so queries can hold onto a topic's path bundle
/// (`lookup_arc`) with a reference bump instead of cloning four `String`s
/// per query, and so interned `Arc<str>` topic keys can be shared with the
/// streaming read path.
#[derive(Debug, Clone)]
pub struct TagManager {
    root: String,
    map: HashMap<Arc<str>, Arc<TopicPaths>>,
}

impl TagManager {
    /// Build the table from the container's directory listing — the
    /// entirety of BORA's open-time index work (Fig. 4b).
    pub fn build<S: Storage>(
        storage: &S,
        container_root: &str,
        ctx: &mut IoCtx,
    ) -> BoraResult<Self> {
        let entries = storage.read_dir(container_root, ctx)?;
        let mut map = HashMap::with_capacity(entries.len());
        for e in entries {
            if e.kind != EntryKind::Dir {
                continue; // `.bora` metadata file and any stray files
            }
            let topic = decode_topic(&e.name);
            ctx.charge_ns(cpu::HASH_OP_NS);
            map.insert(Arc::from(topic), Arc::new(TopicPaths::from_dir(container_root, &e.name)));
        }
        // A container with zero topics still has its meta file; anything
        // else is not a container.
        if map.is_empty() && !storage.exists(&meta_path(container_root), ctx) {
            return Err(BoraError::NotAContainer(container_root.to_owned()));
        }
        Ok(TagManager { root: container_root.to_owned(), map })
    }

    /// Keep only the topic directories `manifest` commits: those whose
    /// `index` and `data` it lists. A directory copied in beside the
    /// committed ones is not a topic of the container.
    pub fn retain_committed(&mut self, manifest: &Manifest) {
        let root = &self.root;
        self.map.retain(|_, p| {
            [&p.index, &p.data]
                .iter()
                .all(|f| rel_path(root, f).is_some_and(|rel| manifest.entry(rel).is_some()))
        });
    }

    /// Build from an in-memory topic list (used by the organizer right
    /// after it created the container, avoiding a redundant listing).
    pub fn from_topics(container_root: &str, topics: &[String]) -> Self {
        let map = topics
            .iter()
            .map(|t| (Arc::from(t.as_str()), Arc::new(TopicPaths::new(container_root, t))))
            .collect();
        TagManager { root: container_root.to_owned(), map }
    }

    pub fn root(&self) -> &str {
        &self.root
    }

    /// Hash lookup of a topic's back-end paths (charged like a hash op).
    pub fn lookup(&self, topic: &str, ctx: &mut IoCtx) -> BoraResult<&TopicPaths> {
        ctx.charge_ns(cpu::HASH_OP_NS);
        self.map
            .get(topic)
            .map(Arc::as_ref)
            .ok_or_else(|| BoraError::UnknownTopic(topic.to_owned()))
    }

    /// Like [`TagManager::lookup`], but hands out a shared handle — a
    /// reference bump, not four `String` clones. Queries that need the
    /// paths to outlive the lookup borrow (cursors, streams) use this.
    pub fn lookup_arc(&self, topic: &str, ctx: &mut IoCtx) -> BoraResult<Arc<TopicPaths>> {
        ctx.charge_ns(cpu::HASH_OP_NS);
        self.map.get(topic).cloned().ok_or_else(|| BoraError::UnknownTopic(topic.to_owned()))
    }

    /// The interned `Arc<str>` key for a topic, shared with every stream
    /// message so delivery never allocates a topic name.
    pub fn interned_topic(&self, topic: &str) -> Option<Arc<str>> {
        self.map.get_key_value(topic).map(|(k, _)| Arc::clone(k))
    }

    pub fn topics(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.map.keys().map(|k| &**k).collect();
        v.sort_unstable();
        v
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate resident size of the table in bytes (Table I's "Hash
    /// Table Size" column): key + value strings plus per-entry overhead.
    pub fn approx_size_bytes(&self) -> usize {
        self.map
            .iter()
            .map(|(k, v)| {
                k.len() + v.dir.len() + v.data.len() + v.index.len() + v.tindex.len() + 48
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ManifestEntry;
    use simfs::MemStorage;

    fn make_container(fs: &MemStorage, root: &str, topics: &[&str]) {
        let mut ctx = IoCtx::new();
        fs.append(&crate::layout::meta_path(root), b"m", &mut ctx).unwrap();
        for t in topics {
            let p = TopicPaths::new(root, t);
            fs.append(&p.data, b"d", &mut ctx).unwrap();
            fs.append(&p.index, b"i", &mut ctx).unwrap();
        }
    }

    #[test]
    fn build_discovers_topics_from_listing() {
        let fs = MemStorage::new();
        make_container(&fs, "/c", &["/imu", "/camera/rgb/image_color"]);
        let mut ctx = IoCtx::new();
        let tm = TagManager::build(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(tm.len(), 2);
        assert_eq!(tm.topics(), vec!["/camera/rgb/image_color", "/imu"]);
        let p = tm.lookup("/imu", &mut ctx).unwrap();
        assert_eq!(p.data, "/c/imu/data");
    }

    #[test]
    fn lookup_unknown_topic_fails() {
        let fs = MemStorage::new();
        make_container(&fs, "/c", &["/imu"]);
        let mut ctx = IoCtx::new();
        let tm = TagManager::build(&fs, "/c", &mut ctx).unwrap();
        assert!(matches!(tm.lookup("/gps", &mut ctx), Err(BoraError::UnknownTopic(_))));
    }

    #[test]
    fn non_container_rejected() {
        let fs = MemStorage::new();
        let mut ctx = IoCtx::new();
        fs.mkdir_all("/empty", &mut ctx).unwrap();
        assert!(matches!(
            TagManager::build(&fs, "/empty", &mut ctx),
            Err(BoraError::NotAContainer(_))
        ));
    }

    #[test]
    fn meta_file_ignored_in_listing() {
        let fs = MemStorage::new();
        make_container(&fs, "/c", &["/tf"]);
        let mut ctx = IoCtx::new();
        let tm = TagManager::build(&fs, "/c", &mut ctx).unwrap();
        assert_eq!(tm.topics(), vec!["/tf"]);
    }

    #[test]
    fn uncommitted_directories_are_not_topics() {
        let fs = MemStorage::new();
        make_container(&fs, "/c", &["/imu", "/ghost", "/half"]);
        let mut ctx = IoCtx::new();
        let mut tm = TagManager::build(&fs, "/c", &mut ctx).unwrap();
        let entry = |path: &str| ManifestEntry { path: path.into(), len: 1, crc32c: 0 };
        let manifest =
            Manifest::new(vec![entry("imu/data"), entry("imu/index"), entry("half/index")])
                .unwrap();
        tm.retain_committed(&manifest);
        assert_eq!(tm.topics(), vec!["/imu"]);
        assert!(matches!(tm.lookup("/ghost", &mut ctx), Err(BoraError::UnknownTopic(_))));
    }

    #[test]
    fn from_topics_matches_build() {
        let fs = MemStorage::new();
        make_container(&fs, "/c", &["/a", "/b"]);
        let mut ctx = IoCtx::new();
        let built = TagManager::build(&fs, "/c", &mut ctx).unwrap();
        let direct = TagManager::from_topics("/c", &["/a".to_owned(), "/b".to_owned()]);
        assert_eq!(built.topics(), direct.topics());
        assert_eq!(built.lookup("/a", &mut ctx).unwrap(), direct.lookup("/a", &mut ctx).unwrap());
    }

    #[test]
    fn size_grows_with_topics() {
        let few = TagManager::from_topics("/c", &["/a".to_owned()]);
        let many = TagManager::from_topics(
            "/c",
            &(0..100).map(|i| format!("/topic_{i}")).collect::<Vec<_>>(),
        );
        assert!(many.approx_size_bytes() > few.approx_size_bytes() * 50);
    }
}
