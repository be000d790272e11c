//! Error type for the Reduce framework.

use reduce_data::DataError;
use reduce_nn::NnError;
use reduce_systolic::SystolicError;
use reduce_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Error produced by the Reduce framework.
#[derive(Debug, Clone, PartialEq)]
pub enum ReduceError {
    /// A tensor-level operation failed.
    Tensor(TensorError),
    /// The NN substrate failed.
    Nn(NnError),
    /// The dataset substrate failed.
    Data(DataError),
    /// The accelerator model failed.
    Systolic(SystolicError),
    /// A framework-level configuration was rejected.
    InvalidConfig {
        /// What configuration was invalid.
        what: String,
    },
    /// Step 2 was asked to select a retraining amount without (or outside)
    /// a resilience characterisation.
    MissingCharacterization {
        /// Why the lookup failed.
        reason: String,
    },
    /// Training produced a non-finite loss or accuracy. Surfaced as a
    /// typed error (instead of a NaN silently comparing `false` against
    /// the accuracy constraint) so the retry layer can roll back to the
    /// pre-mask snapshot and reseed, and so quarantine reports carry the
    /// real cause.
    Divergence {
        /// What diverged (which quantity, at which epoch).
        what: String,
    },
    /// A resume journal is damaged in a way self-healing cannot repair
    /// automatically: a record in the *middle* of the journal (with valid
    /// records after it) failed verification, so truncating to the valid
    /// prefix would silently drop completed work. Resume surfaces this
    /// typed error instead of guessing; `journal-tool repair` performs the
    /// explicit, operator-sanctioned truncation.
    JournalCorrupt {
        /// 0-based shard index (0 when the manifest itself is damaged).
        shard: usize,
        /// 0-based record index within the shard where damage was found.
        record: usize,
        /// What kind of damage verification found.
        kind: CorruptKind,
    },
    /// An internal invariant was violated — always a bug in this crate,
    /// surfaced as an error instead of a panic so fleet runs fail softly.
    /// Worker panics contained by the parallel executor ([`crate::exec`])
    /// are also reported through this variant, carrying the job index and
    /// panic message.
    Internal {
        /// Which invariant broke.
        invariant: String,
    },
}

/// The damage class a journal verification failure reports
/// ([`ReduceError::JournalCorrupt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The manifest line itself is unreadable or structurally invalid.
    Manifest,
    /// The manifest names a sealed shard whose file is missing.
    MissingShard,
    /// A v3 frame is malformed (bad hex CRC, bad length, or the framed
    /// length disagrees with the payload).
    BadFrame,
    /// A v3 frame's CRC32 does not match its payload — a detected bitflip.
    BadCrc,
    /// A line parses as a frame but its payload is not a valid journal
    /// record.
    BadRecord,
    /// A sealed shard's footer is missing or its record count disagrees
    /// with the records actually present.
    BadFooter,
    /// A sealed shard's whole-file digest disagrees with the digest the
    /// manifest recorded for it.
    DigestMismatch,
}

impl CorruptKind {
    /// Stable kebab-case name (used in error messages and `journal-tool`
    /// output).
    pub fn name(self) -> &'static str {
        match self {
            CorruptKind::Manifest => "manifest",
            CorruptKind::MissingShard => "missing-shard",
            CorruptKind::BadFrame => "bad-frame",
            CorruptKind::BadCrc => "bad-crc",
            CorruptKind::BadRecord => "bad-record",
            CorruptKind::BadFooter => "bad-footer",
            CorruptKind::DigestMismatch => "digest-mismatch",
        }
    }
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for ReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceError::Tensor(e) => write!(f, "tensor error: {e}"),
            ReduceError::Nn(e) => write!(f, "nn error: {e}"),
            ReduceError::Data(e) => write!(f, "data error: {e}"),
            ReduceError::Systolic(e) => write!(f, "systolic error: {e}"),
            ReduceError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            ReduceError::MissingCharacterization { reason } => {
                write!(f, "missing resilience characterisation: {reason}")
            }
            ReduceError::Divergence { what } => {
                write!(f, "training diverged: {what}")
            }
            ReduceError::JournalCorrupt {
                shard,
                record,
                kind,
            } => {
                write!(
                    f,
                    "journal corrupt: shard {shard} record {record}: {kind} \
                     (run `journal-tool repair` to truncate to the valid prefix)"
                )
            }
            ReduceError::Internal { invariant } => {
                write!(f, "internal invariant violated: {invariant}")
            }
        }
    }
}

impl Error for ReduceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReduceError::Tensor(e) => Some(e),
            ReduceError::Nn(e) => Some(e),
            ReduceError::Data(e) => Some(e),
            ReduceError::Systolic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ReduceError {
    fn from(e: TensorError) -> Self {
        ReduceError::Tensor(e)
    }
}

impl From<NnError> for ReduceError {
    fn from(e: NnError) -> Self {
        ReduceError::Nn(e)
    }
}

impl From<DataError> for ReduceError {
    fn from(e: DataError) -> Self {
        ReduceError::Data(e)
    }
}

impl From<SystolicError> for ReduceError {
    fn from(e: SystolicError) -> Self {
        ReduceError::Systolic(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ReduceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: ReduceError = TensorError::LengthMismatch {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(e.to_string().contains("tensor error"));
        let e: ReduceError = NnError::InvalidConfig { what: "x".into() }.into();
        assert!(e.to_string().contains("nn error"));
        let e = ReduceError::MissingCharacterization {
            reason: "no table".into(),
        };
        assert!(e.to_string().contains("characterisation"));
    }

    #[test]
    fn journal_corrupt_names_shard_record_and_kind() {
        let e = ReduceError::JournalCorrupt {
            shard: 2,
            record: 17,
            kind: CorruptKind::BadCrc,
        };
        let msg = e.to_string();
        assert!(msg.contains("shard 2"), "{msg}");
        assert!(msg.contains("record 17"), "{msg}");
        assert!(msg.contains("bad-crc"), "{msg}");
        assert!(msg.contains("journal-tool repair"), "{msg}");
    }

    #[test]
    fn source_chain() {
        use std::error::Error as _;
        let e: ReduceError = SystolicError::InvalidConfig { what: "y".into() }.into();
        assert!(e.source().is_some());
        assert!(ReduceError::InvalidConfig { what: "z".into() }
            .source()
            .is_none());
    }
}
