//! Container path layout and topic-name sanitization.
//!
//! A topic name like `/camera/rgb/image_color` must become a single
//! directory component. The encoding replaces `/` with `%` and escapes a
//! literal `%` as `%%`, which is bijective, so the tag manager can recover
//! the exact topic name from a directory listing alone — no metadata read
//! required on open, matching the paper's "BORA quickly parses the
//! sub-directories of a bag on the back-end" description.

/// Name of the container metadata file in the container root.
pub const META_FILE: &str = ".bora";
/// Name of the commit manifest file in the container root.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Suffix of the staging directory a duplication builds under before the
/// atomic commit rename. `<root>.staging` sits *next to* the final root,
/// so an uncommitted attempt never shadows or pollutes a real container.
pub const STAGING_SUFFIX: &str = ".staging";
/// Per-topic file holding concatenated message payloads.
pub const DATA_FILE: &str = "data";
/// Per-topic fine-grain index file: one entry per message.
pub const INDEX_FILE: &str = "index";
/// Per-topic coarse-grain time index file.
pub const TINDEX_FILE: &str = "tindex";
/// Per-topic block map file (present only when the topic's `data` file
/// is block-framed — see [`crate::block`]).
pub const BLOCKS_FILE: &str = "blocks";

/// Encode a topic name as a directory component.
///
/// Expects a normalized ROS topic name (slash-separated, non-empty
/// components); the encoding is bijective over that domain because `%`
/// is escaped as `%%`.
pub fn encode_topic(topic: &str) -> String {
    let mut out = String::with_capacity(topic.len());
    for ch in topic.trim_start_matches('/').chars() {
        match ch {
            '/' => out.push('%'),
            '%' => out.push_str("%%"),
            c => out.push(c),
        }
    }
    if out.is_empty() {
        out.push('%'); // topic "/" (degenerate but representable)
    }
    out
}

/// Decode a directory component back into the topic name.
pub fn decode_topic(dir: &str) -> String {
    let mut out = String::with_capacity(dir.len() + 1);
    out.push('/');
    let mut chars = dir.chars().peekable();
    while let Some(ch) = chars.next() {
        if ch == '%' {
            if chars.peek() == Some(&'%') {
                chars.next();
                out.push('%');
            } else {
                out.push('/');
            }
        } else {
            out.push(ch);
        }
    }
    if out == "//" {
        out.truncate(1);
    }
    out
}

/// Paths of one topic's files inside a container.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopicPaths {
    pub dir: String,
    pub data: String,
    pub index: String,
    pub tindex: String,
    pub blocks: String,
}

impl TopicPaths {
    /// Compute the paths for `topic` under `container_root`.
    pub fn new(container_root: &str, topic: &str) -> Self {
        let dir = format!("{}/{}", container_root.trim_end_matches('/'), encode_topic(topic));
        TopicPaths {
            data: format!("{dir}/{DATA_FILE}"),
            index: format!("{dir}/{INDEX_FILE}"),
            tindex: format!("{dir}/{TINDEX_FILE}"),
            blocks: format!("{dir}/{BLOCKS_FILE}"),
            dir,
        }
    }

    /// Reconstruct from an already-listed directory component.
    pub fn from_dir(container_root: &str, dir_name: &str) -> Self {
        let dir = format!("{}/{}", container_root.trim_end_matches('/'), dir_name);
        TopicPaths {
            data: format!("{dir}/{DATA_FILE}"),
            index: format!("{dir}/{INDEX_FILE}"),
            tindex: format!("{dir}/{TINDEX_FILE}"),
            blocks: format!("{dir}/{BLOCKS_FILE}"),
            dir,
        }
    }
}

/// Path of the metadata file for a container root.
pub fn meta_path(container_root: &str) -> String {
    format!("{}/{META_FILE}", container_root.trim_end_matches('/'))
}

/// Path of the commit manifest for a container root.
pub fn manifest_path(container_root: &str) -> String {
    format!("{}/{MANIFEST_FILE}", container_root.trim_end_matches('/'))
}

/// Staging directory a duplication of `container_root` builds under.
pub fn staging_path(container_root: &str) -> String {
    format!("{}{STAGING_SUFFIX}", container_root.trim_end_matches('/'))
}

/// A container file's path relative to its root (what MANIFEST entries
/// are keyed by), or `None` if `path` is not under `root`.
pub fn rel_path<'a>(root: &str, path: &'a str) -> Option<&'a str> {
    let root = root.trim_end_matches('/');
    path.strip_prefix(root).and_then(|r| r.strip_prefix('/'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_replaces_slashes() {
        assert_eq!(encode_topic("/camera/rgb/image_color"), "camera%rgb%image_color");
        assert_eq!(encode_topic("/imu"), "imu");
    }

    #[test]
    fn round_trip_simple() {
        for t in ["/imu", "/tf", "/camera/depth/image", "/a/b/c/d"] {
            assert_eq!(decode_topic(&encode_topic(t)), t);
        }
    }

    #[test]
    fn round_trip_with_percent() {
        for t in ["/weird%topic", "/a%b/c", "/%%", "/%"] {
            assert_eq!(decode_topic(&encode_topic(t)), t, "topic {t:?}");
        }
    }

    #[test]
    fn distinct_topics_distinct_dirs() {
        // '%' escaping must keep "/a/b" and "/a%b" apart.
        assert_ne!(encode_topic("/a/b"), encode_topic("/a%b"));
    }

    #[test]
    fn topic_paths_layout() {
        let p = TopicPaths::new("/mnt/bags/bag1", "/camera/rgb/camera_info");
        assert_eq!(p.dir, "/mnt/bags/bag1/camera%rgb%camera_info");
        assert_eq!(p.data, "/mnt/bags/bag1/camera%rgb%camera_info/data");
        assert_eq!(p.index, "/mnt/bags/bag1/camera%rgb%camera_info/index");
        assert_eq!(p.tindex, "/mnt/bags/bag1/camera%rgb%camera_info/tindex");
        assert_eq!(p.blocks, "/mnt/bags/bag1/camera%rgb%camera_info/blocks");
    }

    #[test]
    fn meta_path_join() {
        assert_eq!(meta_path("/mnt/bags/bag1"), "/mnt/bags/bag1/.bora");
        assert_eq!(meta_path("/mnt/bags/bag1/"), "/mnt/bags/bag1/.bora");
    }

    #[test]
    fn staging_and_manifest_paths() {
        assert_eq!(staging_path("/mnt/bags/bag1"), "/mnt/bags/bag1.staging");
        assert_eq!(manifest_path("/mnt/bags/bag1"), "/mnt/bags/bag1/MANIFEST");
    }

    #[test]
    fn rel_path_strips_root() {
        assert_eq!(rel_path("/c", "/c/imu/data"), Some("imu/data"));
        assert_eq!(rel_path("/c/", "/c/.bora"), Some(".bora"));
        assert_eq!(rel_path("/c", "/other/imu/data"), None);
    }
}
