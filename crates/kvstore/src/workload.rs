//! The workload a KV stream offers: which keys it touches and how many
//! of its ops are reads.
//!
//! The mixes are the classic cloud-serving ones the paper's motivating
//! application would face: YCSB A (50/50 read/update), B (95/5) and C
//! (read-only), each under uniform or Zipfian key choice. Read-heavy
//! skewed mixes amplify the one-sided probe chains, while update-heavy
//! mixes stress the RPC write path equally for every design.

/// Key-access distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over all keys.
    Uniform,
    /// Zipfian with the given exponent (0.99 = YCSB-style skew).
    Zipf(f64),
}

/// A standard YCSB mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 50% reads / 50% updates.
    A,
    /// 95% reads / 5% updates.
    B,
    /// 100% reads.
    C,
}

impl Mix {
    /// Fraction of operations that are reads.
    pub fn read_fraction(self) -> f64 {
        match self {
            Mix::A => 0.5,
            Mix::B => 0.95,
            Mix::C => 1.0,
        }
    }

    /// Label ("A"/"B"/"C").
    pub fn label(self) -> &'static str {
        match self {
            Mix::A => "A",
            Mix::B => "B",
            Mix::C => "C",
        }
    }

    /// All mixes.
    pub const ALL: [Mix; 3] = [Mix::A, Mix::B, Mix::C];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_fractions() {
        assert_eq!(Mix::A.read_fraction(), 0.5);
        assert_eq!(Mix::B.read_fraction(), 0.95);
        assert_eq!(Mix::C.read_fraction(), 1.0);
    }
}
