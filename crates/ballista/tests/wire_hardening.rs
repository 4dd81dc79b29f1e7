//! Adversarial-bytes hardening of the fleet wire protocol: arbitrary,
//! truncated, and bit-flipped buffers fed to `ShardSpec::from_wire` /
//! `ShardResult::from_wire` and the frame reader must come back as
//! `Err` (or a clean EOF), never a panic — a worker process boundary is
//! exactly where garbage shows up, and the supervisor's retry machinery
//! depends on these paths returning instead of unwinding.

use ballista::campaign::CampaignConfig;
use ballista::fleet::{
    read_frame, write_frame, ShardResult, ShardSpec, WireCleanMut, FRAME_SPEC,
};
use proptest::prelude::*;
use sim_kernel::variant::OsVariant;

fn valid_spec_wire() -> Vec<u8> {
    ShardSpec {
        os: OsVariant::Win95,
        cfg: CampaignConfig {
            cap: 200,
            ..CampaignConfig::default()
        },
        mut_start: 3,
        mut_end: 9,
        capture_fuel: true,
        crashcon: false,
        adaptive: None,
    }
    .to_wire()
}

fn valid_result_wire() -> Vec<u8> {
    ShardResult {
        mut_start: 3,
        muts: vec![
            Some(WireCleanMut {
                records: vec![0, 1, 2, 255],
                fuel: Some(vec![10, 20, 30, u64::MAX]),
            }),
            None,
            Some(WireCleanMut {
                records: vec![7, 7, 7],
                fuel: None,
            }),
            Some(WireCleanMut {
                records: Vec::new(),
                fuel: None,
            }),
        ],
        warnings: vec!["quarantined strcpy".to_owned(), String::new()],
        quarantine_retries: 1,
    }
    .to_wire()
}

proptest! {
    /// Arbitrary bytes never panic either parser; they parse or they
    /// return an error, nothing else.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ShardSpec::from_wire(&bytes);
        let _ = ShardResult::from_wire(&bytes);
    }

    /// Every truncation of a valid encoding is rejected gracefully (a
    /// strict prefix of JSON is never valid JSON, and the binary result
    /// parser demands every byte its counts promise).
    #[test]
    fn truncations_are_rejected(cut in 0usize..1000) {
        let spec = valid_spec_wire();
        if cut < spec.len() {
            prop_assert!(ShardSpec::from_wire(&spec[..cut]).is_err());
        }
        let result = valid_result_wire();
        if cut < result.len() {
            prop_assert!(ShardResult::from_wire(&result[..cut]).is_err());
        }
    }

    /// Single bit flips never panic: they either still parse (a flip
    /// inside a string payload can be harmless) or error out.
    #[test]
    fn bit_flips_never_panic(pos in 0usize..1000, bit in 0u8..8) {
        for wire in [valid_spec_wire(), valid_result_wire()] {
            let mut flipped = wire.clone();
            let i = pos % flipped.len();
            flipped[i] ^= 1 << bit;
            let _ = ShardSpec::from_wire(&flipped);
            let _ = ShardResult::from_wire(&flipped);
        }
    }

    /// Frame transport: every (tag, payload) round-trips, and truncating
    /// the encoded frame anywhere yields an error or clean EOF from the
    /// reader — never a panic, never a bogus frame.
    #[test]
    fn frames_round_trip_and_reject_truncation(
        tag in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        cut in 0usize..256,
    ) {
        let mut encoded = Vec::new();
        write_frame(&mut encoded, tag, &payload).expect("vec write cannot fail");
        let decoded = read_frame(&mut &encoded[..]).expect("well-formed frame");
        prop_assert_eq!(decoded, Some((tag, payload)));

        let cut = cut % (encoded.len() + 1);
        match read_frame(&mut &encoded[..cut]) {
            Ok(None) => prop_assert_eq!(cut, 0, "EOF only at a frame boundary"),
            Ok(Some(_)) => prop_assert_eq!(cut, encoded.len()),
            Err(_) => prop_assert!(cut > 0 && cut < encoded.len()),
        }
    }
}

/// An absurd length prefix is a protocol fault, not an allocation.
#[test]
fn oversized_frame_length_is_rejected() {
    let mut encoded = vec![FRAME_SPEC];
    encoded.extend_from_slice(&u32::MAX.to_le_bytes());
    encoded.extend_from_slice(b"whatever");
    assert!(read_frame(&mut &encoded[..]).is_err());
}
