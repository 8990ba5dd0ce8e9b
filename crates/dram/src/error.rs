//! Error types for device configuration and command issue.

use std::error::Error;
use std::fmt;

use crate::view::BlockReason;
use crate::{geometry::BankAddr, Cycle};

/// Error returned when a [`DeviceConfig`](crate::DeviceConfig) is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A geometry field was zero or not a power of two where required.
    InvalidGeometry(&'static str),
    /// A timing parameter combination is inconsistent (e.g. `tRAS > tRC`).
    InvalidTiming(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidGeometry(what) => write!(f, "invalid geometry: {what}"),
            ConfigError::InvalidTiming(what) => write!(f, "invalid timing: {what}"),
        }
    }
}

impl Error for ConfigError {}

/// Error returned when a command cannot legally issue at the requested cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandError {
    /// The command violates a timing constraint; issue is blocked until the
    /// contained cycle for the contained reason.
    TimingViolation {
        /// Bank the command targeted.
        bank: BankAddr,
        /// Earliest cycle at which the command could issue.
        ready_at: Cycle,
        /// The binding constraint.
        reason: BlockReason,
    },
    /// A CAS command targeted a bank whose row buffer holds a different row
    /// (or no row at all).
    RowMismatch {
        /// Bank the command targeted.
        bank: BankAddr,
        /// Row currently held in the row buffer, if any.
        open_row: Option<u32>,
        /// Row the command needed.
        wanted_row: u32,
    },
    /// An `ACT` was issued to a bank that already has an open row.
    BankNotPrecharged(BankAddr),
    /// A `PRE` was issued to a bank that has no open row.
    BankNotOpen(BankAddr),
    /// A refresh was requested while some bank still has an open row or an
    /// operation in flight.
    RefreshWhileBusy(BankAddr),
    /// The address is outside the configured geometry.
    AddressOutOfRange(&'static str),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::TimingViolation {
                bank,
                ready_at,
                reason,
            } => write!(
                f,
                "timing violation at bank {bank}: blocked by {reason} until cycle {ready_at}"
            ),
            CommandError::RowMismatch {
                bank,
                open_row,
                wanted_row,
            } => write!(
                f,
                "row mismatch at bank {bank}: open row {open_row:?}, wanted {wanted_row}"
            ),
            CommandError::BankNotPrecharged(bank) => {
                write!(f, "activate to bank {bank} which already has an open row")
            }
            CommandError::BankNotOpen(bank) => {
                write!(f, "precharge to bank {bank} which has no open row")
            }
            CommandError::RefreshWhileBusy(bank) => {
                write!(f, "refresh while bank {bank} is busy or open")
            }
            CommandError::AddressOutOfRange(what) => write!(f, "address out of range: {what}"),
        }
    }
}

impl Error for CommandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let e = ConfigError::InvalidTiming("tRAS exceeds tRC");
        assert!(!e.to_string().is_empty());
        let e = CommandError::AddressOutOfRange("row");
        assert!(e.to_string().contains("row"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConfigError>();
        assert_send_sync::<CommandError>();
    }
}
