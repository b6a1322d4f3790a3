//! Figure-level pinned output of the whole stack.
//!
//! A reduced fig10 plus one probe cell exercise boot, allocator, TLB,
//! caches, DRAM, the SPMD engine, stats and rendering. Their rendered text
//! and simulated cycle total are pinned to values recorded when the
//! engine's batched loops were still checked, at this same figure level,
//! against the one-op-at-a-time heap loops (now the test oracle in
//! `tint-spmd`'s `tests/engine_oracle.rs`). Any drift in simulated
//! behaviour changes one of the two.

use tint_bench::figures::{fig10, probe, FigOpts};
use tint_bench::{Harness, RunConfig};
use tint_workloads::PinConfig;

/// `md5sum` of the rendered text.
const PINNED_MD5: &str = "7f7bb266a62f1853f57aa47164ac22b0";
/// Simulated cycles the rendered runs accumulate.
const PINNED_CYCLES: u64 = 41_196_733;

/// Render a reduced fig10 + one probe cell and report the rendered text
/// plus the simulated cycles the runs accumulated.
fn small_matrix() -> (String, u64) {
    let opts = FigOpts {
        reps: 1,
        scale: 1.0,
        csv: false,
    };
    let h = Harness::new(RunConfig::default());
    let mut out = String::new();
    out.push_str(&opts.render(&fig10(&h, &opts)));
    let probe = probe(&h, &opts, "lbm", PinConfig::T16N4).expect("lbm is a benchmark");
    out.push_str(&opts.render(&probe));
    (out, h.stats().sim_cycles)
}

/// MD5 (RFC 1321) as lower-case hex, so the pin can be checked with
/// `md5sum`.
fn md5_hex(data: &[u8]) -> String {
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5,
        9, 14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10,
        15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];
    let k: Vec<u32> = (0..64)
        .map(|i| ((i as f64 + 1.0).sin().abs() * 4_294_967_296.0) as u32)
        .collect();
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&((data.len() as u64).wrapping_mul(8)).to_le_bytes());
    let mut h: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
    for block in msg.chunks(64) {
        let m: Vec<u32> = block
            .chunks(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        let [mut a, mut b, mut c, mut d] = h;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let f = f.wrapping_add(a).wrapping_add(k[i]).wrapping_add(m[g]);
            a = d;
            d = c;
            c = b;
            b = b.wrapping_add(f.rotate_left(S[i]));
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d]) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter()
        .flat_map(|x| x.to_le_bytes())
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn md5_matches_known_vectors() {
    assert_eq!(md5_hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
    assert_eq!(
        md5_hex(b"The quick brown fox jumps over the lazy dog"),
        "9e107d9d372bb6826bd81d3542a419d6"
    );
}

#[test]
fn small_matrix_output_is_pinned() {
    let (tables, cycles) = small_matrix();
    assert_eq!(
        md5_hex(tables.as_bytes()),
        PINNED_MD5,
        "rendered tables drifted:\n{tables}"
    );
    assert_eq!(
        cycles, PINNED_CYCLES,
        "simulated a different number of cycles"
    );
}
