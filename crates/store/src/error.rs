//! The typed failure vocabulary of the snapshot format.

use std::fmt;

/// Why a snapshot could not be written or restored.
///
/// Restoration is *total*: every malformed input maps to one of these
/// variants. Reader code never indexes, slices, or allocates based on
/// unvalidated file contents, so corrupt bytes cannot panic or abort the
/// process — the fuzz suites flip arbitrary bits and assert exactly this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An operating-system I/O failure (message preserved; the error is
    /// stringified so `StoreError` stays `Clone + PartialEq` like every
    /// other error in the workspace).
    Io(String),
    /// The file does not start with the snapshot magic bytes.
    BadMagic,
    /// The frame's format version is not the one this build reads. The
    /// policy is strict: a build reads exactly the version it writes, and
    /// never guesses at older or future layouts.
    UnsupportedVersion {
        /// Version recorded in the file.
        got: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The endianness marker is byte-swapped: the file was produced by a
    /// writer that emitted native big-endian words instead of the
    /// little-endian encoding the format mandates.
    WrongEndian,
    /// The payload's CRC-32 does not match the stored trailer — some bytes
    /// were altered between write and read.
    ChecksumMismatch {
        /// CRC recorded in the file trailer.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
    /// The input ended before a declared field or length could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// The bytes were present but structurally invalid (impossible counts,
    /// non-finite geometry, dangling ids, invariant violations).
    Corrupt {
        /// What was invalid.
        context: String,
    },
    /// A restored relation's name is already registered in the target
    /// catalog. Restoration is atomic: nothing is merged when any name
    /// collides.
    DuplicateRelation {
        /// The colliding relation name.
        name: String,
    },
}

impl StoreError {
    /// Shorthand for a [`StoreError::Corrupt`] with formatted context.
    pub fn corrupt(context: impl Into<String>) -> Self {
        StoreError::Corrupt {
            context: context.into(),
        }
    }

    /// Shorthand for a [`StoreError::Truncated`] with formatted context.
    pub fn truncated(context: impl Into<String>) -> Self {
        StoreError::Truncated {
            context: context.into(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "snapshot i/o error: {m}"),
            StoreError::BadMagic => write!(f, "not a tsq snapshot (bad magic bytes)"),
            StoreError::UnsupportedVersion { got, supported } => write!(
                f,
                "unsupported snapshot format version {got} (this build reads version {supported} only)"
            ),
            StoreError::WrongEndian => {
                write!(f, "snapshot written with the wrong byte order (endianness marker mismatch)")
            }
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: file says {stored:#010x}, payload hashes to {computed:#010x}"
            ),
            StoreError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            StoreError::Corrupt { context } => write!(f, "snapshot corrupt: {context}"),
            StoreError::DuplicateRelation { name } => write!(
                f,
                "snapshot relation {name:?} is already registered in this catalog"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Convenient result alias.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(StoreError::BadMagic.to_string().contains("magic"));
        let e = StoreError::UnsupportedVersion {
            got: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        assert!(StoreError::WrongEndian.to_string().contains("byte order"));
        let e = StoreError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(StoreError::truncated("tree node")
            .to_string()
            .contains("tree node"));
        assert!(StoreError::corrupt("bad rect")
            .to_string()
            .contains("bad rect"));
        let e = StoreError::DuplicateRelation {
            name: "walks".into(),
        };
        assert!(e.to_string().contains("walks"));
        let e: StoreError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, StoreError::Io(ref m) if m.contains("gone")));
    }
}
