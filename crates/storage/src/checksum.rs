//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Implemented in-tree rather than pulled in as a crate: the project's
//! dependency budget is deliberately small, and a few dozen lines of
//! table-driven CRC are easier to audit than a new transitive tree. The
//! block codec uses it to detect torn or corrupted blocks during recovery
//! scans.
//!
//! The kernel is slicing-by-16: sixteen 256-entry tables, built at compile
//! time, let one step fold sixteen input bytes with sixteen independent
//! lookups instead of a chain of sixteen dependent ones. A bytewise loop
//! over the first table handles the tail shorter than sixteen bytes.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per slicing step.
const SLICE: usize = 16;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Incremental form: feeds `data` into a running (pre-inverted) state.
///
/// Start from `0xFFFF_FFFF`, feed chunks, and finish by XOR-ing with
/// `0xFFFF_FFFF`; `crc32` is the one-shot convenience wrapper.
pub fn update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(SLICE);
    for c in &mut chunks {
        // The running state overlaps the first four bytes; the other
        // twelve contribute through their own tables, so all sixteen
        // lookups are independent of one another.
        let s = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = t[15][(s & 0xFF) as usize]
            ^ t[14][((s >> 8) & 0xFF) as usize]
            ^ t[13][((s >> 16) & 0xFF) as usize]
            ^ t[12][(s >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    update_bytewise(state, chunks.remainder())
}

/// One dependent table lookup per byte: the tail of [`update`], and the
/// reference the sliced kernel is tested against.
fn update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"ephemeral logging, sigmod 1993";
        let oneshot = crc32(data);
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, oneshot);
    }

    /// Deterministic pseudo-random bytes (xorshift64), so the equivalence
    /// checks cover every byte value without a fixture.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_matches_bytewise_for_every_length_and_alignment() {
        let data = noise(4096 + SLICE);
        for offset in 0..SLICE {
            for len in 0..=4096 {
                let s = &data[offset..offset + len];
                assert_eq!(
                    update(0xFFFF_FFFF, s),
                    update_bytewise(0xFFFF_FFFF, s),
                    "len {len} at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn sliced_incremental_matches_bytewise_at_every_split() {
        let data = noise(2048);
        let want = update_bytewise(0xFFFF_FFFF, &data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(update(update(0xFFFF_FFFF, a), b), want, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 2048];
        data[100] = 0xAA;
        let good = crc32(&data);
        for bit in [0usize, 777, 2047 * 8 + 7] {
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&bad), good, "flip at bit {bit} undetected");
        }
    }

    #[test]
    fn detects_transpositions() {
        let a = crc32(b"ab");
        let b = crc32(b"ba");
        assert_ne!(a, b);
    }
}
