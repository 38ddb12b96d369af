//! Wire format for blocks and records.
//!
//! The simulation itself packs blocks by *accounting* size (the paper's
//! 100-byte data records and 8-byte tx records). This codec is the real,
//! self-describing byte format used when a log image is serialised — for
//! the recovery-from-bytes path and the archive example. A data record's
//! content bytes are the deterministic [`synth_payload`] of its identity,
//! sized so that header + payload equals the accounting size whenever the
//! accounting size is large enough (it always is for the paper's 100-byte
//! records); tx records need 21 wire bytes, more than the paper's 8
//! accounting bytes, which is exactly why the two notions are kept distinct
//! (DESIGN.md §5).
//!
//! Layout (little-endian, codec version 2):
//!
//! ```text
//! block  := magic u32 | version u16 | gen u8 | pad u8 | seq u64
//!         | written_at u64 | record_count u32 | payload_used u32
//!         | body_len u32 | crc u32 | pad [u8;8]             -- 48 bytes
//!         | body
//! data   := 0x00 | tid u64 | oid u64 | seq u32 | ts u64 | size u32
//!         | payload_len u16 | payload [u8; payload_len]     -- 35+len
//! tx     := mark u8 (1|2|3) | tid u64 | ts u64 | size u32   -- 21 bytes
//! ```
//!
//! `crc` is the CRC-32 of header bytes `0..36` and `40..48` followed by the
//! body, so a flipped header field (generation, sequence, timestamp,
//! counts) is caught exactly like a flipped body byte.

use crate::block::{Block, BlockAddr};
use crate::checksum::update;
use bytes::{Buf, BufMut};
use elog_model::{
    payload_matches, synth_payload_extend, DataRecord, GenId, LogRecord, Oid, Tid, TxMark, TxRecord,
};
use elog_sim::SimTime;
use std::fmt;

/// `"ELOG"` in ASCII.
const MAGIC: u32 = 0x454C_4F47;
const VERSION: u16 = 2;
/// Fixed header size; mirrors the paper's 48 reserved bytes per block.
pub const BLOCK_HEADER_BYTES: usize = 48;
/// Wire overhead of a data record before its payload.
pub const DATA_RECORD_HEADER_BYTES: usize = 35;
/// Wire size of a tx record.
pub const TX_RECORD_BYTES: usize = 21;
/// Byte range of the CRC field inside the header.
const CRC_FIELD: std::ops::Range<usize> = 36..40;

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Input shorter than a header or declared body.
    Truncated,
    /// Bad magic or unsupported version.
    BadHeader,
    /// CRC mismatch: torn or corrupted block.
    BadChecksum {
        /// CRC stored in the header.
        expected: u32,
        /// CRC computed over the header (minus the CRC field) and body.
        actual: u32,
    },
    /// Unknown record tag.
    BadRecordTag(u8),
    /// Data-record payload does not match its identity (content rot).
    BadPayload,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "block truncated"),
            CodecError::BadHeader => write!(f, "bad block magic/version"),
            CodecError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
            CodecError::BadRecordTag(t) => write!(f, "unknown record tag {t:#04x}"),
            CodecError::BadPayload => write!(f, "payload does not match record identity"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Payload bytes a data record of accounting size `size` carries on the
/// wire.
fn payload_len(size: u32) -> usize {
    (size as usize).saturating_sub(DATA_RECORD_HEADER_BYTES)
}

/// Encoded length of one record.
fn wire_len(r: &LogRecord) -> usize {
    match r {
        LogRecord::Data(d) => DATA_RECORD_HEADER_BYTES + payload_len(d.size),
        LogRecord::Tx(_) => TX_RECORD_BYTES,
    }
}

fn encode_record(out: &mut Vec<u8>, r: &LogRecord) {
    match r {
        LogRecord::Data(d) => {
            out.put_u8(0);
            out.put_u64_le(d.tid.get());
            out.put_u64_le(d.oid.get());
            out.put_u32_le(d.seq);
            out.put_u64_le(d.ts.as_micros());
            out.put_u32_le(d.size);
            let payload_len = payload_len(d.size);
            out.put_u16_le(payload_len as u16);
            // Stream the payload straight into the output buffer: no
            // per-record temporary.
            synth_payload_extend(d.oid, d.tid, d.seq, payload_len, out);
        }
        LogRecord::Tx(t) => {
            out.put_u8(t.mark.tag());
            out.put_u64_le(t.tid.get());
            out.put_u64_le(t.ts.as_micros());
            out.put_u32_le(t.size);
        }
    }
}

fn decode_record(buf: &mut &[u8]) -> Result<LogRecord, CodecError> {
    if buf.is_empty() {
        return Err(CodecError::Truncated);
    }
    let tag = buf.get_u8();
    match tag {
        0 => {
            if buf.remaining() < DATA_RECORD_HEADER_BYTES - 1 {
                return Err(CodecError::Truncated);
            }
            let tid = Tid(buf.get_u64_le());
            let oid = Oid(buf.get_u64_le());
            let seq = buf.get_u32_le();
            let ts = SimTime::from_micros(buf.get_u64_le());
            let size = buf.get_u32_le();
            let payload_len = buf.get_u16_le() as usize;
            if buf.remaining() < payload_len {
                return Err(CodecError::Truncated);
            }
            let payload = &buf[..payload_len];
            // Streaming compare: no expected-payload temporary.
            if !payload_matches(oid, tid, seq, payload) {
                return Err(CodecError::BadPayload);
            }
            buf.advance(payload_len);
            Ok(LogRecord::Data(DataRecord {
                tid,
                oid,
                seq,
                ts,
                size,
            }))
        }
        t => {
            let mark = TxMark::from_tag(t).ok_or(CodecError::BadRecordTag(t))?;
            if buf.remaining() < TX_RECORD_BYTES - 1 {
                return Err(CodecError::Truncated);
            }
            let tid = Tid(buf.get_u64_le());
            let ts = SimTime::from_micros(buf.get_u64_le());
            let size = buf.get_u32_le();
            Ok(LogRecord::Tx(TxRecord {
                tid,
                mark,
                ts,
                size,
            }))
        }
    }
}

/// The CRC of an encoded block (header plus body, `bytes` ending at the
/// body's end): every byte except the CRC field itself.
fn block_crc(bytes: &[u8]) -> u32 {
    let state = update(0xFFFF_FFFF, &bytes[..CRC_FIELD.start]);
    update(state, &bytes[CRC_FIELD.end..]) ^ 0xFFFF_FFFF
}

/// Serialises a block: 48-byte header plus encoded records, all under one
/// checksum.
pub fn encode_block(b: &Block) -> Vec<u8> {
    let body_len: usize = b.records.iter().map(wire_len).sum();
    let mut out = Vec::with_capacity(BLOCK_HEADER_BYTES + body_len);
    out.put_u32_le(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u8(b.addr.gen.0);
    out.put_u8(0);
    out.put_u64_le(b.addr.seq);
    out.put_u64_le(b.written_at.as_micros());
    out.put_u32_le(b.records.len() as u32);
    out.put_u32_le(b.payload_used);
    out.put_u32_le(body_len as u32);
    out.put_u32_le(0); // crc, patched below
    out.extend_from_slice(&[0u8; 8]);
    debug_assert_eq!(out.len(), BLOCK_HEADER_BYTES);
    for r in &b.records {
        encode_record(&mut out, r);
    }
    debug_assert_eq!(out.len(), BLOCK_HEADER_BYTES + body_len);
    let crc = block_crc(&out);
    out[CRC_FIELD].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Serialises every block of a multi-generation log surface through the
/// byte-level codec, flattened in `(generation, write order)` — the crash
/// image a byte-level recovery scan ingests. The grouping into
/// generations carries no information the scan needs (block headers name
/// their generation), so a flat vector is the natural snapshot shape.
pub fn encode_surface(surface: &[Vec<Block>]) -> Vec<Vec<u8>> {
    surface
        .iter()
        .flat_map(|gen_blocks| gen_blocks.iter().map(encode_block))
        .collect()
}

/// Total byte length of an encoded surface (what a real crash scan would
/// read off the device).
pub fn surface_bytes(encoded: &[Vec<u8>]) -> u64 {
    encoded.iter().map(|b| b.len() as u64).sum()
}

/// Parses and validates a serialised block.
pub fn decode_block(bytes: &[u8]) -> Result<Block, CodecError> {
    if bytes.len() < BLOCK_HEADER_BYTES {
        return Err(CodecError::Truncated);
    }
    let mut buf = bytes;
    let magic = buf.get_u32_le();
    let version = buf.get_u16_le();
    if magic != MAGIC || version != VERSION {
        return Err(CodecError::BadHeader);
    }
    let gen = GenId(buf.get_u8());
    let _pad = buf.get_u8();
    let seq = buf.get_u64_le();
    let written_at = SimTime::from_micros(buf.get_u64_le());
    let record_count = buf.get_u32_le() as usize;
    let payload_used = buf.get_u32_le();
    let body_len = buf.get_u32_le() as usize;
    let expected_crc = buf.get_u32_le();
    buf.advance(8); // padding
    if buf.len() < body_len {
        return Err(CodecError::Truncated);
    }
    let actual_crc = block_crc(&bytes[..BLOCK_HEADER_BYTES + body_len]);
    if actual_crc != expected_crc {
        return Err(CodecError::BadChecksum {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    // Every record takes at least a tx record's wire bytes, so a larger
    // count cannot fit the body: reject it before it sizes an allocation.
    if record_count > body_len / TX_RECORD_BYTES {
        return Err(CodecError::Truncated);
    }
    let mut cursor = &buf[..body_len];
    let mut records = Vec::with_capacity(record_count);
    for _ in 0..record_count {
        records.push(decode_record(&mut cursor)?);
    }
    if !cursor.is_empty() {
        return Err(CodecError::Truncated); // trailing garbage inside body
    }
    Ok(Block {
        addr: BlockAddr { gen, seq },
        written_at,
        records,
        payload_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> Block {
        let mut b = Block::new(BlockAddr {
            gen: GenId(1),
            seq: 77,
        });
        b.written_at = SimTime::from_millis(321);
        b.push(
            LogRecord::Tx(TxRecord {
                tid: Tid(5),
                mark: TxMark::Begin,
                ts: SimTime::from_millis(300),
                size: 8,
            }),
            2000,
        );
        b.push(
            LogRecord::Data(DataRecord {
                tid: Tid(5),
                oid: Oid(123_456),
                seq: 1,
                ts: SimTime::from_millis(310),
                size: 100,
            }),
            2000,
        );
        b.push(
            LogRecord::Tx(TxRecord {
                tid: Tid(5),
                mark: TxMark::Commit,
                ts: SimTime::from_millis(320),
                size: 8,
            }),
            2000,
        );
        b
    }

    #[test]
    fn roundtrip() {
        let b = sample_block();
        let bytes = encode_block(&b);
        let back = decode_block(&bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn header_is_48_bytes_and_data_payload_fills_accounting_size() {
        let b = sample_block();
        let bytes = encode_block(&b);
        // 48 header + 21 tx + (35 + 65) data + 21 tx
        assert_eq!(bytes.len(), 48 + 21 + 100 + 21);
    }

    #[test]
    fn empty_block_roundtrip() {
        let mut b = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 0,
        });
        b.written_at = SimTime::ZERO;
        let back = decode_block(&encode_block(&b)).unwrap();
        assert!(back.records.is_empty());
        assert_eq!(back.payload_used, 0);
    }

    /// Recomputes the CRC after a deliberate edit, so only the checks
    /// behind the checksum can catch it.
    fn reseal(bytes: &mut [u8]) {
        let crc = block_crc(bytes);
        bytes[CRC_FIELD].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn detects_corruption_anywhere_in_body() {
        let bytes = encode_block(&sample_block());
        for i in (BLOCK_HEADER_BYTES..bytes.len()).step_by(17) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode_block(&bad) {
                Err(CodecError::BadChecksum { .. }) => {}
                other => panic!("byte {i}: expected checksum error, got {other:?}"),
            }
        }
    }

    #[test]
    fn detects_bad_magic_and_truncation() {
        let bytes = encode_block(&sample_block());
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_block(&bad), Err(CodecError::BadHeader));

        assert_eq!(decode_block(&bytes[..10]), Err(CodecError::Truncated));
        assert_eq!(
            decode_block(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn detects_forged_payload() {
        let mut bytes = encode_block(&sample_block());
        // Flip a payload byte AND fix up the CRC so only the content check
        // can catch it.
        let n = bytes.len();
        bytes[n - 30] ^= 0x01;
        reseal(&mut bytes);
        // Tampering lands either in the data payload (BadPayload) or in a
        // trailing tx record's fields (which decode but differ) — here the
        // offset targets the data payload.
        assert_eq!(decode_block(&bytes), Err(CodecError::BadPayload));
    }

    #[test]
    fn rejects_unknown_record_tag() {
        let mut b = Block::new(BlockAddr {
            gen: GenId(0),
            seq: 1,
        });
        b.written_at = SimTime::ZERO;
        b.push(
            LogRecord::Tx(TxRecord {
                tid: Tid(1),
                mark: TxMark::Abort,
                ts: SimTime::ZERO,
                size: 8,
            }),
            2000,
        );
        let mut bytes = encode_block(&b);
        bytes[BLOCK_HEADER_BYTES] = 0x77; // stomp the tag
        reseal(&mut bytes);
        assert_eq!(decode_block(&bytes), Err(CodecError::BadRecordTag(0x77)));
    }

    #[test]
    fn detects_corruption_anywhere_in_header() {
        // Every header field sits under the checksum: a flip in the
        // generation, sequence, timestamp or counts no longer decodes to a
        // block at the wrong address. Magic and version flips are
        // `BadHeader`; a body_len flip that overruns the buffer is
        // `Truncated`; everything else is `BadChecksum`.
        let bytes = encode_block(&sample_block());
        for i in 6..BLOCK_HEADER_BYTES {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            match decode_block(&bad) {
                Err(CodecError::BadChecksum { .. }) => {}
                Err(CodecError::Truncated) if (32..36).contains(&i) => {}
                other => panic!("header byte {i}: expected checksum error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_record_count_that_cannot_fit_the_body() {
        // A forged count with a valid CRC must be rejected before it sizes
        // an allocation (u32::MAX records would abort the process).
        let mut bytes = encode_block(&sample_block());
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bytes);
        assert_eq!(decode_block(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn block_to_bytes_convenience() {
        let b = sample_block();
        assert_eq!(b.to_bytes(), encode_block(&b));
    }

    #[test]
    fn encode_surface_flattens_generations_in_order() {
        let b0 = sample_block();
        let mut b1 = Block::new(BlockAddr {
            gen: GenId(1),
            seq: 3,
        });
        b1.written_at = SimTime::from_millis(400);
        let surface = vec![vec![b0.clone()], vec![b1.clone()], vec![]];
        let encoded = encode_surface(&surface);
        assert_eq!(encoded.len(), 2);
        assert_eq!(decode_block(&encoded[0]).unwrap(), b0);
        assert_eq!(decode_block(&encoded[1]).unwrap(), b1);
        assert_eq!(
            surface_bytes(&encoded),
            (encoded[0].len() + encoded[1].len()) as u64
        );
    }
}
