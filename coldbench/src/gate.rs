//! The output-correctness gate.
//!
//! Every unit's simulated statistics hash into one digest. A unit fails
//! the gate when its run returned an error or panicked, when its digest
//! differs from the recorded golden for this seed, or when it differs
//! from the same unit's digest in an earlier pass of the same run (the
//! simulator is deterministic per seed). At seed 1 the seven lbm cells
//! must also sum to the probe's 25 652 874 simulated cycles.

use std::collections::BTreeMap;

/// Simulated cycles of the seven `probe:lbm` cells at `16t4n`, seed 1.
pub const PROBE_LBM_CYCLES: u64 = 25_652_874;

/// Goldens recorded for the default seed and one held-out seed.
const GOLDENS: &str = include_str!("../goldens.txt");

/// FNV-1a over a sequence of byte strings (each terminated by a 0xff
/// byte, so adjacent fields cannot run into each other).
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        for &b in p.iter().chain(&[0xff]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Recorded digests keyed by (workload, seed, unit).
#[derive(Debug, Default, Clone)]
pub struct Goldens(BTreeMap<(String, u64, String), u64>);

impl Goldens {
    /// The goldens compiled into the benchmark.
    pub fn recorded() -> Self {
        Self::parse(GOLDENS).expect("goldens.txt is well formed")
    }

    /// Parse `workload seed unit digest-hex` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [w, seed, unit, hex] = f[..] else {
                return Err(format!("line {}: expected 4 fields", i + 1));
            };
            let seed = seed
                .parse()
                .map_err(|_| format!("line {}: bad seed", i + 1))?;
            let hex =
                u64::from_str_radix(hex, 16).map_err(|_| format!("line {}: bad digest", i + 1))?;
            map.insert((w.to_string(), seed, unit.to_string()), hex);
        }
        Ok(Self(map))
    }

    pub fn get(&self, workload: &str, seed: u64, unit: &str) -> Option<u64> {
        self.0
            .get(&(workload.to_string(), seed, unit.to_string()))
            .copied()
    }

    /// The line [`Goldens::parse`] reads back for one unit.
    pub fn line(workload: &str, seed: u64, unit: &str, digest: u64) -> String {
        format!("{workload} {seed} {unit} {digest:016x}")
    }
}

/// Judge one unit's digest. `first` is the digest the unit produced in
/// the run's first pass (`None` on the first pass itself).
pub fn check_digest(
    goldens: &Goldens,
    workload: &str,
    seed: u64,
    unit: &str,
    digest: u64,
    first: Option<u64>,
) -> Result<(), String> {
    if let Some(g) = goldens.get(workload, seed, unit) {
        if g != digest {
            return Err(format!("digest {digest:016x} differs from golden {g:016x}"));
        }
    }
    if let Some(f) = first {
        if f != digest {
            return Err(format!(
                "digest {digest:016x} differs from the first pass's {f:016x}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_goldens_parse_and_cover_two_seeds() {
        let g = Goldens::recorded();
        let seeds: std::collections::BTreeSet<u64> = g.0.keys().map(|k| k.1).collect();
        assert_eq!(seeds.len(), 2, "default seed and one held-out seed");
        assert!(seeds.contains(&1));
    }

    #[test]
    fn a_corrupted_golden_is_a_failed_check_not_a_panic() {
        let g = Goldens::parse("paper-matrix 1 lbm/buddy 00000000000000ff").unwrap();
        assert!(check_digest(&g, "paper-matrix", 1, "lbm/buddy", 0xff, None).is_ok());
        assert!(check_digest(&g, "paper-matrix", 1, "lbm/buddy", 0xfe, None).is_err());
        assert!(check_digest(&g, "paper-matrix", 2, "lbm/buddy", 0xfe, None).is_ok());
        assert!(check_digest(&g, "paper-matrix", 2, "lbm/buddy", 0xfe, Some(0xfd)).is_err());
    }

    #[test]
    fn malformed_golden_lines_are_errors() {
        assert!(Goldens::parse("paper-matrix 1 lbm/buddy").is_err());
        assert!(Goldens::parse("paper-matrix x lbm/buddy ff").is_err());
        assert!(Goldens::parse("paper-matrix 1 lbm/buddy zz").is_err());
        assert!(Goldens::parse("# only a comment\n\n").is_ok());
    }

    #[test]
    fn fnv_separates_fields() {
        assert_ne!(fnv1a(&[b"ab", b"c"]), fnv1a(&[b"a", b"bc"]));
    }
}
