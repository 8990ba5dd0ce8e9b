//! DRAM geometry: the channel → rank → bank group → bank → row → column
//! hierarchy, and the address types used throughout the simulator.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::ConfigError;

/// Physical organization of one DRAM channel.
///
/// The default matches the ISPASS 2022 paper's setup: one rank, 4 bank
/// groups × 4 banks, 8 KB rows of 128 64-byte lines, 32 Ki rows per bank —
/// 4 GB per channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramGeometry {
    /// Number of ranks sharing the channel.
    pub ranks: u32,
    /// Bank groups per rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Columns per row, where one column holds one cache line.
    pub columns: u32,
    /// Bytes per column (cache-line size).
    pub line_bytes: u32,
}

impl DramGeometry {
    /// The paper's DDR4 geometry: 1 rank, 4×4 banks, 8 KB pages, 4 GB.
    pub fn ddr4_single_rank() -> Self {
        DramGeometry {
            ranks: 1,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 32 * 1024,
            columns: 128,
            line_bytes: 64,
        }
    }

    /// A dual-rank variant of the paper's geometry: 8 GB, 32 banks.
    /// Ranks share the channel but have independent timing state, so rank
    /// interleaving hides bank-group constraints at the cost of on-bus
    /// turnarounds.
    pub fn ddr4_dual_rank() -> Self {
        DramGeometry {
            ranks: 2,
            ..Self::ddr4_single_rank()
        }
    }

    /// Validates that every field is a nonzero power of two.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidGeometry`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn pow2(v: u32, what: &'static str) -> Result<(), ConfigError> {
            if v == 0 || !v.is_power_of_two() {
                Err(ConfigError::InvalidGeometry(what))
            } else {
                Ok(())
            }
        }
        pow2(self.ranks, "ranks")?;
        pow2(self.bank_groups, "bank_groups")?;
        pow2(self.banks_per_group, "banks_per_group")?;
        pow2(self.rows, "rows")?;
        pow2(self.columns, "columns")?;
        pow2(self.line_bytes, "line_bytes")?;
        Ok(())
    }

    /// Total banks per rank.
    fn banks_per_rank(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Total banks in the channel (all ranks).
    pub fn total_banks(&self) -> u32 {
        self.ranks * self.banks_per_rank()
    }

    /// Row size in bytes (the page-buffer size).
    fn row_bytes(&self) -> u64 {
        u64::from(self.columns) * u64::from(self.line_bytes)
    }

    /// Total channel capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.total_banks()) * u64::from(self.rows) * self.row_bytes()
    }

    /// Flat bank index in `0..total_banks()` for `addr`.
    pub fn flat_bank(&self, addr: BankAddr) -> usize {
        ((addr.rank * self.bank_groups + addr.bank_group) * self.banks_per_group + addr.bank)
            as usize
    }

    /// Inverse of [`flat_bank`](Self::flat_bank).
    pub fn bank_addr(&self, flat: usize) -> BankAddr {
        let flat = flat as u32;
        let bank = flat % self.banks_per_group;
        let rest = flat / self.banks_per_group;
        let bank_group = rest % self.bank_groups;
        let rank = rest / self.bank_groups;
        BankAddr {
            rank,
            bank_group,
            bank,
        }
    }

    /// Flat indices of the banks of `rank` — contiguous in flat order.
    pub fn rank_banks(&self, rank: u32) -> std::ops::Range<usize> {
        let start = (rank * self.banks_per_rank()) as usize;
        start..start + self.banks_per_rank() as usize
    }

    /// Flat indices of the banks of one bank group — contiguous in flat
    /// order, which makes bank-group marking a range instead of a filter.
    pub fn bank_group_banks(&self, rank: u32, bank_group: u32) -> std::ops::Range<usize> {
        let start = ((rank * self.bank_groups + bank_group) * self.banks_per_group) as usize;
        start..start + self.banks_per_group as usize
    }

    /// Iterator over every bank address in the channel, in flat order.
    pub fn iter_banks(&self) -> impl Iterator<Item = BankAddr> + '_ {
        (0..self.total_banks() as usize).map(|i| self.bank_addr(i))
    }
}

impl Default for DramGeometry {
    fn default() -> Self {
        Self::ddr4_single_rank()
    }
}

/// Address of one bank inside a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BankAddr {
    /// Rank index.
    pub rank: u32,
    /// Bank group index within the rank.
    pub bank_group: u32,
    /// Bank index within the bank group.
    pub bank: u32,
}

impl BankAddr {
    /// Creates a bank address from its three coordinates.
    pub fn new(rank: u32, bank_group: u32, bank: u32) -> Self {
        BankAddr {
            rank,
            bank_group,
            bank,
        }
    }
}

impl fmt::Display for BankAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}g{}b{}", self.rank, self.bank_group, self.bank)
    }
}

/// A fully decoded DRAM address: which bank, row and column a physical
/// address maps to. Produced by the address-mapping schemes in
/// `dramstack-memctrl`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramAddress {
    /// Target bank.
    pub bank: BankAddr,
    /// Row within the bank.
    pub row: u32,
    /// Column (cache line) within the row.
    pub column: u32,
}

impl DramAddress {
    /// Creates a decoded address.
    pub fn new(bank: BankAddr, row: u32, column: u32) -> Self {
        DramAddress { bank, row, column }
    }
}

impl fmt::Display for DramAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:row{}:col{}", self.bank, self.row, self.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_capacity_is_4_gib() {
        let g = DramGeometry::ddr4_single_rank();
        g.validate().unwrap();
        assert_eq!(g.total_banks(), 16);
        assert_eq!(g.row_bytes(), 8 * 1024);
        assert_eq!(g.capacity_bytes(), 4 << 30);
    }

    #[test]
    fn flat_bank_roundtrip() {
        let g = DramGeometry {
            ranks: 2,
            ..DramGeometry::ddr4_single_rank()
        };
        for flat in 0..g.total_banks() as usize {
            assert_eq!(g.flat_bank(g.bank_addr(flat)), flat);
        }
    }

    #[test]
    fn iter_banks_covers_all_banks_once() {
        let g = DramGeometry::ddr4_single_rank();
        let banks: Vec<_> = g.iter_banks().collect();
        assert_eq!(banks.len(), 16);
        let mut dedup = banks.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
    }

    #[test]
    fn flat_ranges_equal_the_filtered_iteration() {
        for g in [
            DramGeometry::ddr4_single_rank(),
            DramGeometry::ddr4_dual_rank(),
        ] {
            let flats = |keep: &dyn Fn(&BankAddr) -> bool| -> Vec<usize> {
                g.iter_banks()
                    .filter(keep)
                    .map(|b| g.flat_bank(b))
                    .collect()
            };
            for rank in 0..g.ranks {
                assert_eq!(
                    g.rank_banks(rank).collect::<Vec<_>>(),
                    flats(&|b| b.rank == rank)
                );
                for bg in 0..g.bank_groups {
                    assert_eq!(
                        g.bank_group_banks(rank, bg).collect::<Vec<_>>(),
                        flats(&|b| b.rank == rank && b.bank_group == bg)
                    );
                }
            }
        }
    }

    #[test]
    fn validate_rejects_non_power_of_two() {
        let mut g = DramGeometry::ddr4_single_rank();
        g.columns = 100;
        assert_eq!(g.validate(), Err(ConfigError::InvalidGeometry("columns")));
        g.columns = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn display_formats() {
        let a = BankAddr::new(0, 2, 3);
        assert_eq!(a.to_string(), "r0g2b3");
        let d = DramAddress::new(a, 11, 5);
        assert_eq!(d.to_string(), "r0g2b3:row11:col5");
    }
}
