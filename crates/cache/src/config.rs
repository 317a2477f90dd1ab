//! Cache geometry configuration.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from constructing a [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheConfigError {
    /// A size parameter was not a power of two.
    NotPowerOfTwo {
        /// Which parameter.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A parameter was zero.
    Zero {
        /// Which parameter.
        field: &'static str,
    },
    /// The geometry is inconsistent (e.g. size < block × associativity).
    Inconsistent(String),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} must be a power of two, got {value}")
            }
            CacheConfigError::Zero { field } => write!(f, "{field} must be positive"),
            CacheConfigError::Inconsistent(msg) => write!(f, "inconsistent geometry: {msg}"),
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Geometry of one cache: capacity, block size, and associativity.
///
/// # Example
///
/// ```
/// use seta_cache::CacheConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's "256K-32" level-two cache at 4-way:
/// let c = CacheConfig::new(256 * 1024, 32, 4)?;
/// assert_eq!(c.num_sets(), 2048);
/// assert_eq!(c.label(), "256K-32");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    size_bytes: u64,
    block_size: u64,
    associativity: u32,
}

impl CacheConfig {
    /// Creates and validates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if any parameter is zero or not a power
    /// of two, or if `size_bytes < block_size × associativity`.
    pub fn new(
        size_bytes: u64,
        block_size: u64,
        associativity: u32,
    ) -> Result<Self, CacheConfigError> {
        for (field, v) in [("size_bytes", size_bytes), ("block_size", block_size)] {
            if v == 0 {
                return Err(CacheConfigError::Zero { field });
            }
            if !v.is_power_of_two() {
                return Err(CacheConfigError::NotPowerOfTwo { field, value: v });
            }
        }
        if associativity == 0 {
            return Err(CacheConfigError::Zero {
                field: "associativity",
            });
        }
        if !associativity.is_power_of_two() {
            return Err(CacheConfigError::NotPowerOfTwo {
                field: "associativity",
                value: associativity as u64,
            });
        }
        if size_bytes < block_size * associativity as u64 {
            return Err(CacheConfigError::Inconsistent(format!(
                "capacity {size_bytes} B holds less than one {associativity}-way set of {block_size} B blocks"
            )));
        }
        Ok(CacheConfig {
            size_bytes,
            block_size,
            associativity,
        })
    }

    /// A direct-mapped configuration (associativity 1).
    ///
    /// # Errors
    ///
    /// Same as [`CacheConfig::new`].
    pub fn direct_mapped(size_bytes: u64, block_size: u64) -> Result<Self, CacheConfigError> {
        Self::new(size_bytes, block_size, 1)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Associativity (block frames per set).
    #[inline]
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.block_size * self.associativity as u64)
    }

    /// Total number of block frames.
    pub fn num_frames(&self) -> u64 {
        self.size_bytes / self.block_size
    }

    /// The same geometry with a different associativity (capacity and block
    /// size held constant), as the paper's associativity sweeps do.
    ///
    /// # Errors
    ///
    /// Same as [`CacheConfig::new`].
    pub fn with_associativity(&self, associativity: u32) -> Result<Self, CacheConfigError> {
        Self::new(self.size_bytes, self.block_size, associativity)
    }

    /// The paper's configuration label, e.g. `16K-32` for 16 KiB capacity
    /// with 32-byte blocks.
    pub fn label(&self) -> String {
        let size = if self.size_bytes % (1024 * 1024) == 0 {
            format!("{}M", self.size_bytes / (1024 * 1024))
        } else if self.size_bytes % 1024 == 0 {
            format!("{}K", self.size_bytes / 1024)
        } else {
            format!("{}B", self.size_bytes)
        };
        format!("{size}-{}", self.block_size)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}-way", self.label(), self.associativity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_validate() {
        // All level-one and level-two geometries from Table 3.
        for (size, block) in [
            (4 * 1024, 16),
            (16 * 1024, 16),
            (16 * 1024, 32),
            (64 * 1024, 16),
            (64 * 1024, 32),
            (256 * 1024, 16),
            (256 * 1024, 32),
            (256 * 1024, 64),
        ] {
            for assoc in [1, 2, 4, 8, 16] {
                let c = CacheConfig::new(size, block, assoc).unwrap();
                assert_eq!(c.num_sets() * c.block_size() * assoc as u64, size);
            }
        }
    }

    #[test]
    fn labels_match_paper_style() {
        assert_eq!(
            CacheConfig::new(16 * 1024, 16, 1).unwrap().label(),
            "16K-16"
        );
        assert_eq!(
            CacheConfig::new(256 * 1024, 64, 4).unwrap().label(),
            "256K-64"
        );
        assert_eq!(
            CacheConfig::new(4 * 1024 * 1024, 64, 4).unwrap().label(),
            "4M-64"
        );
    }

    #[test]
    fn display_includes_associativity() {
        let c = CacheConfig::new(64 * 1024, 32, 8).unwrap();
        assert_eq!(c.to_string(), "64K-32 8-way");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            CacheConfig::new(0, 16, 1),
            Err(CacheConfigError::Zero {
                field: "size_bytes"
            })
        ));
        assert!(matches!(
            CacheConfig::new(1024, 0, 1),
            Err(CacheConfigError::Zero {
                field: "block_size"
            })
        ));
        assert!(matches!(
            CacheConfig::new(1024, 16, 0),
            Err(CacheConfigError::Zero {
                field: "associativity"
            })
        ));
        assert!(matches!(
            CacheConfig::new(1000, 16, 1),
            Err(CacheConfigError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheConfig::new(1024, 24, 1),
            Err(CacheConfigError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheConfig::new(1024, 16, 3),
            Err(CacheConfigError::NotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheConfig::new(64, 32, 4),
            Err(CacheConfigError::Inconsistent(_))
        ));
    }

    #[test]
    fn fully_associative_is_one_set() {
        let c = CacheConfig::new(1024, 64, 16).unwrap();
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.num_frames(), 16);
    }

    #[test]
    fn with_associativity_keeps_capacity() {
        let c = CacheConfig::new(256 * 1024, 32, 4).unwrap();
        let w = c.with_associativity(16).unwrap();
        assert_eq!(w.size_bytes(), c.size_bytes());
        assert_eq!(w.num_sets(), c.num_sets() / 4);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CacheConfig::new(1000, 16, 1).unwrap_err();
        assert!(e.to_string().contains("power of two"));
    }
}
