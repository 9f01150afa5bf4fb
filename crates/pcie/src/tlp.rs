//! TLP segmentation arithmetic — the paper's Table 3 in code.
//!
//! Moving `N` payload bytes across a PCIe hop requires `ceil(N / MTU)`
//! data-bearing TLPs, where the MTU is the Maximum Payload Size negotiated
//! with the endpoint behind that hop (512 B for the host, 128 B for the
//! Bluefield-2 SoC). DMA *reads* additionally need read-request TLPs
//! (segmented by MRRS) and return data as completion TLPs.

/// Number of data-bearing TLPs to carry `bytes` of payload at `mtu`.
///
/// Zero bytes need zero data TLPs (a 0-byte RDMA op never touches DMA;
/// see the paper's Figure 11 methodology).
///
/// # Panics
///
/// Panics if `mtu == 0`.
///
/// # Examples
///
/// ```
/// use pcie_model::tlp::tlp_count;
///
/// assert_eq!(tlp_count(1024, 512), 2);
/// assert_eq!(tlp_count(1025, 512), 3);
/// assert_eq!(tlp_count(1024, 128), 8);
/// assert_eq!(tlp_count(0, 512), 0);
/// ```
#[inline]
pub const fn tlp_count(bytes: u64, mtu: u64) -> u64 {
    assert!(mtu > 0, "PCIe MTU must be positive");
    bytes.div_ceil(mtu)
}

/// Number of memory-read-request TLPs to request `bytes`, segmented at the
/// Maximum Read Request Size.
///
/// # Panics
///
/// Panics if `mrrs == 0`.
#[inline]
pub const fn read_request_tlps(bytes: u64, mrrs: u64) -> u64 {
    assert!(mrrs > 0, "MRRS must be positive");
    bytes.div_ceil(mrrs)
}

/// Number of completion-with-data TLPs returning `bytes`, segmented at the
/// completer's MPS.
#[inline]
pub const fn completion_tlps(bytes: u64, mps: u64) -> u64 {
    tlp_count(bytes, mps)
}

/// Number of posted-write TLPs carrying `bytes`, segmented at MPS.
#[inline]
pub const fn write_tlps(bytes: u64, mps: u64) -> u64 {
    tlp_count(bytes, mps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiples() {
        assert_eq!(tlp_count(512, 512), 1);
        assert_eq!(tlp_count(512, 128), 4);
    }

    #[test]
    fn rounding_up() {
        assert_eq!(tlp_count(1, 512), 1);
        assert_eq!(tlp_count(513, 512), 2);
        assert_eq!(tlp_count(129, 128), 2);
    }

    #[test]
    fn paper_table3_host_vs_soc() {
        // Table 3: N bytes need ceil(N/512) TLPs towards the host but
        // ceil(N/128) towards the SoC — a 4x packet blowup.
        let n = 1 << 20; // 1 MiB
        assert_eq!(tlp_count(n, 128), 4 * tlp_count(n, 512));
    }

    #[test]
    fn writes_and_reads_count_their_tlps() {
        // A write is posted: data TLPs at MPS and nothing back.
        assert_eq!(write_tlps(4096, 512), 8);
        // A read sends requests at MRRS and gets completions at MPS.
        assert_eq!(read_request_tlps(4096, 512), 8);
        assert_eq!(completion_tlps(4096, 512), 8);
        // A large MRRS cuts request TLPs but not completions.
        assert_eq!(read_request_tlps(4096, 4096), 1);
        assert_eq!(completion_tlps(4096, 512), 8);
        // Partial TLPs round up on each side.
        assert_eq!(read_request_tlps(513, 512), 2);
        assert_eq!(completion_tlps(129, 128), 2);
    }

    #[test]
    fn zero_bytes_zero_tlps() {
        assert_eq!(write_tlps(0, 512), 0);
        assert_eq!(read_request_tlps(0, 512), 0);
        assert_eq!(completion_tlps(0, 512), 0);
    }
}
