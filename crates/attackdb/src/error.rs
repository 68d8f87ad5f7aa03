//! Error type for corpus construction.

use core::fmt;

use crate::AttackVectorId;

/// Errors produced while assembling or querying a corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackDbError {
    /// A record with this identifier already exists.
    DuplicateRecord(AttackVectorId),
    /// A cross-reference pointed at an identifier not in the corpus.
    DanglingReference {
        /// The record holding the reference.
        from: AttackVectorId,
        /// The missing target.
        to: AttackVectorId,
    },
    /// A run of records meant to ascend by id has one that is not above
    /// its predecessor: out of order, or a duplicate.
    OutOfOrder {
        /// The record family (`patterns`, `weaknesses` or
        /// `vulnerabilities`).
        family: &'static str,
        /// The offending record's position in the run.
        index: usize,
    },
}

impl fmt::Display for AttackDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackDbError::DuplicateRecord(id) => write!(f, "duplicate record `{id}`"),
            AttackDbError::DanglingReference { from, to } => {
                write!(f, "record `{from}` references missing record `{to}`")
            }
            AttackDbError::OutOfOrder { family, index } => {
                write!(f, "`{family}` record {index} is not in id order")
            }
        }
    }
}

impl std::error::Error for AttackDbError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CweId;

    #[test]
    fn messages_are_lowercase() {
        let err = AttackDbError::DuplicateRecord(CweId::new(78).into());
        assert!(err.to_string().starts_with("duplicate record"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<AttackDbError>();
    }
}
