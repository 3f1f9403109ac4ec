//! Error type for BORA operations.

use std::fmt;

use ros_msgs::WireError;
use rosbag::BagError;
use simfs::FsError;

/// Errors from BORA container operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoraError {
    /// The path does not contain a BORA container.
    NotAContainer(String),
    /// Container metadata or index file is malformed.
    Corrupt(String),
    /// Query referenced a topic the container does not hold.
    UnknownTopic(String),
    /// A file's content does not match its MANIFEST record (CRC32C or
    /// length). The data on the medium is wrong, and every read of it
    /// says so, through any handle. Nothing remembers the failure: once
    /// the bytes match their record again, the next read succeeds.
    ChecksumMismatch {
        /// Container-relative path of the damaged file.
        path: String,
        expected: u32,
        actual: u32,
    },
    /// Source bag could not be parsed during duplication.
    Bag(BagError),
    Fs(FsError),
    Wire(WireError),
}

impl fmt::Display for BoraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoraError::NotAContainer(p) => write!(f, "not a BORA container: {p}"),
            BoraError::Corrupt(m) => write!(f, "corrupt container: {m}"),
            BoraError::UnknownTopic(t) => write!(f, "unknown topic: {t}"),
            BoraError::ChecksumMismatch { path, expected, actual } => write!(
                f,
                "checksum mismatch on {path}: expected {expected:#010x}, got {actual:#010x}"
            ),
            BoraError::Bag(e) => write!(f, "bag error: {e}"),
            BoraError::Fs(e) => write!(f, "storage error: {e}"),
            BoraError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for BoraError {}

impl From<BagError> for BoraError {
    fn from(e: BagError) -> Self {
        BoraError::Bag(e)
    }
}

impl From<FsError> for BoraError {
    fn from(e: FsError) -> Self {
        BoraError::Fs(e)
    }
}

impl From<WireError> for BoraError {
    fn from(e: WireError) -> Self {
        BoraError::Wire(e)
    }
}

pub type BoraResult<T> = Result<T, BoraError>;
