//! CRC32C (Castagnoli), table-driven and dependency-free.
//!
//! The checksum trailer for bytes that leave the process and come back:
//! `gt-store`'s spill records carry one today. Reflected polynomial
//! `0x82F6_3B78`, initial value and final xor `0xFFFF_FFFF` — the variant
//! iSCSI, ext4 and SSE4.2's `crc32` instruction compute, so
//! `crc32c(b"123456789") == 0xE306_9283`. CRC32C detects every
//! single-bit error and every burst up to 32 bits in any input length.
//!
//! The loop is slicing-by-8: eight 256-entry tables, built at compile
//! time, fold eight input bytes per step with eight independent lookups
//! instead of a serial chain of eight.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// CRC32C of `a ‖ bytes`, given `crc == crc32c(a)`: checksums a message
/// that arrives in pieces.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference: the definition, with no tables.
    fn crc32c_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn known_answers() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 (iSCSI) B.4 test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn sliced_loop_matches_the_bitwise_definition_at_every_length() {
        let bytes: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(157) ^ (i >> 3)) as u8)
            .collect();
        for len in 0..bytes.len() {
            assert_eq!(
                crc32c(&bytes[..len]),
                crc32c_bitwise(&bytes[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn appending_pieces_matches_the_whole() {
        let bytes: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(91) ^ 0x3C).collect();
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(crc32c_append(crc32c(a), b), crc32c(&bytes), "cut {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let bytes: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        let clean = crc32c(&bytes);
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&flipped), clean, "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
