//! Property-based tests for the storage substrate.

use elog_model::{DataRecord, GenId, LogRecord, Oid, Tid, TxMark, TxRecord};
use elog_sim::SimTime;
use elog_storage::block::BlockAddr;
use elog_storage::{decode_block, encode_block, Block, BlockRing};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (
            any::<u64>(),
            0u64..10_000_000,
            1u32..100,
            any::<u32>(),
            35u32..500
        )
            .prop_map(|(tid, oid, seq, ts, size)| {
                LogRecord::Data(DataRecord {
                    tid: Tid(tid),
                    oid: Oid(oid),
                    seq,
                    ts: SimTime::from_micros(u64::from(ts)),
                    size,
                })
            }),
        (any::<u64>(), 0u8..3, any::<u32>()).prop_map(|(tid, m, ts)| {
            let mark = [TxMark::Begin, TxMark::Commit, TxMark::Abort][m as usize];
            LogRecord::Tx(TxRecord {
                tid: Tid(tid),
                mark,
                ts: SimTime::from_micros(u64::from(ts)),
                size: 8,
            })
        }),
    ]
}

proptest! {
    /// Any block of well-formed records round-trips through the codec.
    #[test]
    fn codec_roundtrip(records in proptest::collection::vec(arb_record(), 0..20),
                       gen in 0u8..4, seq in 0u64..1_000_000, written in 0u64..10_000_000) {
        let mut b = Block::new(BlockAddr { gen: GenId(gen), seq });
        b.written_at = SimTime::from_micros(written);
        for r in &records {
            b.records.push(*r);
            b.payload_used += r.size();
        }
        let bytes = encode_block(&b);
        let back = decode_block(&bytes).unwrap();
        prop_assert_eq!(back, b);
    }

    /// Corrupting any single byte, header or body, is detected.
    #[test]
    fn codec_detects_any_single_flip(records in proptest::collection::vec(arb_record(), 1..8),
                                     flip in any::<prop::sample::Index>()) {
        let mut b = Block::new(BlockAddr { gen: GenId(0), seq: 1 });
        b.written_at = SimTime::ZERO;
        for r in &records {
            b.records.push(*r);
            b.payload_used += r.size();
        }
        let bytes = encode_block(&b);
        let i = flip.index(bytes.len());
        let mut bad = bytes.clone();
        bad[i] ^= 0x10;
        prop_assert!(decode_block(&bad).is_err(), "flip at {} undetected", i);
    }

    /// The ring matches a simple window model under arbitrary
    /// allocate/advance interleavings.
    #[test]
    fn ring_window_model(cap in 1u64..20, ops in proptest::collection::vec(any::<bool>(), 1..300)) {
        let mut ring = BlockRing::new(GenId(0), cap);
        let mut head = 0u64;
        let mut tail = 0u64;
        for alloc in ops {
            if alloc {
                match ring.allocate_tail() {
                    Some(addr) => {
                        prop_assert_eq!(addr.seq, tail);
                        tail += 1;
                        prop_assert!(tail - head <= cap);
                    }
                    None => prop_assert_eq!(tail - head, cap),
                }
            } else {
                match ring.advance_head() {
                    Some(seq) => {
                        prop_assert_eq!(seq, head);
                        head += 1;
                    }
                    None => prop_assert_eq!(head, tail),
                }
            }
            prop_assert_eq!(ring.head(), head);
            prop_assert_eq!(ring.tail(), tail);
            prop_assert_eq!(ring.free_blocks(), cap - (tail - head));
        }
    }

    /// The surface holds at most `cap` blocks and exactly the newest
    /// installed block per slot.
    #[test]
    fn ring_surface_keeps_newest_per_slot(cap in 1u64..8, n in 1u64..64) {
        let mut ring = BlockRing::new(GenId(0), cap);
        for _ in 0..n {
            if ring.free_blocks() == 0 {
                ring.advance_head();
            }
            let addr = ring.allocate_tail().unwrap();
            let mut b = Block::new(addr);
            b.written_at = SimTime::from_micros(addr.seq);
            let _displaced = ring.install(b);
            prop_assert!(ring.block(addr.seq).is_some());
        }
        let mut seqs: Vec<u64> = ring.surface().map(|b| b.addr.seq).collect();
        seqs.sort_unstable();
        let expect: Vec<u64> = (n.saturating_sub(cap)..n).collect();
        prop_assert_eq!(seqs, expect);
    }
}
