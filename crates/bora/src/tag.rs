//! The tag manager: a hash table mapping topic names to back-end paths.
//!
//! BORA does **not** persist this table; it is rebuilt from a directory
//! listing whenever a container is opened (paper §III.B, Table I — the
//! rebuild stays under ~36 ms even at 100,000 topics, negligible next to
//! query time). Keys are topic names, values the topic's open record.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use simfs::device::cpu;
use simfs::{EntryKind, IoCtx, Storage};

use crate::block::BlockMap;
use crate::error::{BoraError, BoraResult};
use crate::layout::{decode_topic, meta_path, rel_path, TopicPaths};
use crate::manifest::Manifest;
use crate::meta::ContainerMeta;

/// One topic of an open container: all a read needs of it, reached with
/// one hash lookup and shared by every clone of the handle.
#[derive(Debug, Default)]
pub(crate) struct OpenTopic {
    /// Interned topic name, shared with every streamed message.
    pub(crate) name: Arc<str>,
    /// Position in the metadata topic list (`u32::MAX` if it is absent).
    pub(crate) conn_id: u32,
    pub(crate) paths: TopicPaths,
    /// The block map of a block-framed topic, once a read has verified
    /// it. A read that fails leaves nothing here.
    pub(crate) blocks: OnceLock<Arc<BlockMap>>,
}

impl OpenTopic {
    pub(crate) fn new(name: &str, paths: TopicPaths) -> Arc<Self> {
        let name = Arc::from(name);
        Arc::new(OpenTopic { name, conn_id: u32::MAX, paths, blocks: OnceLock::new() })
    }
}

/// Hash table topic → open record for one container.
#[derive(Debug, Clone)]
pub struct TagManager {
    root: String,
    map: HashMap<Arc<str>, Arc<OpenTopic>>,
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
            let paths = TopicPaths::from_dir(container_root, &e.name);
            let topic = OpenTopic::new(&decode_topic(&e.name), paths);
            ctx.charge_ns(cpu::HASH_OP_NS);
            map.insert(Arc::clone(&topic.name), topic);
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
        self.map.retain(|_, t| {
            [&t.paths.index, &t.paths.data]
                .iter()
                .all(|f| rel_path(root, f).is_some_and(|rel| manifest.entry(rel).is_some()))
        });
    }

    /// Give each topic its connection id, its position in `meta`'s topic
    /// list: one pass over the list, one hash lookup per entry. Runs on
    /// a table being opened, before any record is shared.
    pub(crate) fn assign_connection_ids(&mut self, meta: &ContainerMeta) {
        for (i, t) in meta.topics.iter().enumerate() {
            if let Some(topic) = self.map.get_mut(t.topic.as_str()) {
                Arc::get_mut(topic).expect("an opening table shares no record").conn_id = i as u32;
            }
        }
    }

    /// Build from an in-memory topic list (used by the organizer right
    /// after it created the container, avoiding a redundant listing).
    pub fn from_topics(container_root: &str, topics: &[String]) -> Self {
        let map = topics
            .iter()
            .map(|t| {
                let topic = OpenTopic::new(t, TopicPaths::new(container_root, t));
                (Arc::clone(&topic.name), topic)
            })
            .collect();
        TagManager { root: container_root.to_owned(), map }
    }

    pub fn root(&self) -> &str {
        &self.root
    }

    /// Hash lookup of a topic's record (charged like a hash op).
    pub(crate) fn lookup(&self, topic: &str, ctx: &mut IoCtx) -> BoraResult<&Arc<OpenTopic>> {
        ctx.charge_ns(cpu::HASH_OP_NS);
        self.map.get(topic).ok_or_else(|| BoraError::UnknownTopic(topic.to_owned()))
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
            .map(|(k, t)| {
                let p = &t.paths;
                k.len() + p.dir.len() + p.data.len() + p.index.len() + p.tindex.len() + 48
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
        let t = tm.lookup("/imu", &mut ctx).unwrap();
        assert_eq!(t.paths.data, "/c/imu/data");
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
        let paths = |tm: &TagManager, ctx: &mut IoCtx| tm.lookup("/a", ctx).unwrap().paths.clone();
        assert_eq!(paths(&built, &mut ctx), paths(&direct, &mut ctx));
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
