//! Stable content fingerprints for workload parameter sets.
//!
//! The simulation cell cache in `tint-bench` keys cached results by the
//! *content* of a workload's configuration, not by object identity: two
//! `Lbm` values with the same parameters must map to the same cache cell
//! even when they were built by different figures. The build environment is
//! offline, so the hash is a small in-tree construction: byte-wise FNV-1a
//! over the field stream, finished with the SplitMix64 finalizer for
//! avalanche (FNV alone keeps low-bit correlations between nearby integer
//! inputs).
//!
//! Determinism contract: the fingerprint of a given parameter set is a pure
//! function of the values fed to the builder — stable across runs,
//! processes, and platforms (everything is hashed in little-endian byte
//! order). It is **not** stable across code changes that reorder or add
//! fields, and it does not cover the code that builds the program. The
//! cell journal in `tint-bench` persists cells across processes, keyed by
//! the fingerprint: a code change that alters a workload's program without
//! changing its fingerprint is served stale cells from an existing
//! journal. Delete the journal directory (`.tint-journal/`) after such a
//! change; `repro gc-journal` only compacts it and keeps every cell.

/// Builder for a 64-bit parameter fingerprint.
///
/// Start with [`Fingerprint::new`] (which hashes a type tag so distinct
/// workload types with coincidentally equal fields cannot collide), feed
/// every parameter that influences the built program, and call
/// [`Fingerprint::finish`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a fingerprint builder does nothing until finish() is called"]
pub struct Fingerprint(u64);

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// Begin a fingerprint for the workload type tagged `tag` (use the
    /// benchmark name; it separates the hash streams of different types).
    pub fn new(tag: &str) -> Self {
        Fingerprint(FNV_OFFSET).str(tag)
    }

    /// Absorb raw bytes.
    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb a string (terminated, so `("ab","c")` ≠ `("a","bc")`).
    pub fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Absorb a `u64`.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorb a `u32`.
    pub fn u32(self, v: u32) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorb an `f64` by bit pattern (workload sizes are derived from the
    /// `--scale` float; hashing the bits keeps every distinct scale
    /// distinct without rounding policy).
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Finish: run the accumulated FNV state through the SplitMix64
    /// finalizer so every input bit avalanches across the output.
    pub fn finish(self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_fingerprint() {
        let a = Fingerprint::new("lbm").u64(123).u32(7).finish();
        let b = Fingerprint::new("lbm").u64(123).u32(7).finish();
        assert_eq!(a, b);
    }

    #[test]
    fn any_field_change_changes_the_fingerprint() {
        let base = Fingerprint::new("lbm").u64(123).u32(7).finish();
        assert_ne!(base, Fingerprint::new("art").u64(123).u32(7).finish());
        assert_ne!(base, Fingerprint::new("lbm").u64(124).u32(7).finish());
        assert_ne!(base, Fingerprint::new("lbm").u64(123).u32(8).finish());
    }

    #[test]
    fn strings_are_terminated() {
        let a = Fingerprint::new("ab").str("c").finish();
        let b = Fingerprint::new("a").str("bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn nearby_integers_spread_apart() {
        // The SplitMix finisher must decorrelate consecutive sizes (the
        // cell cache's map feeds these through its own hasher, but a degenerate
        // fingerprint would still cluster keys).
        let h: Vec<u64> = (0..16u64)
            .map(|i| Fingerprint::new("x").u64(4096 * i).finish())
            .collect();
        for i in 0..h.len() {
            for j in i + 1..h.len() {
                assert_ne!(h[i], h[j]);
                assert!((h[i] ^ h[j]).count_ones() > 8, "poor avalanche");
            }
        }
    }

    #[test]
    fn f64_distinguishes_bit_patterns() {
        assert_ne!(
            Fingerprint::new("s").f64(1.0).finish(),
            Fingerprint::new("s").f64(1.0000000001).finish()
        );
    }
}
