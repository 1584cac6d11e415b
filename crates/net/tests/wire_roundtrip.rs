//! Property tests for the wire codec: `decode(encode(c)) == c` for every
//! [`Compressed`] variant (including empty and 1-element payloads), and
//! `encode(c).len() == c.wire_bytes()` so the traffic counters account
//! exactly the bytes that cross a transport.

use cdsgd_compress::{pack_1bit, pack_2bit, Compressed};
use cdsgd_net::wire::{
    decode_compressed, decode_msg, decode_pull_reply_shared, encode_compressed_into,
    encode_msg_into, encode_pull_into, encode_pull_reply_into, is_pull_reply,
    pull_reply_frame_bytes, push_frame_bytes, WireMsg, FRAME_PREFIX_BYTES,
};
use proptest::prelude::*;

/// The shared pull-reply decoder must agree with [`decode_msg`] on
/// `bytes` bit for bit when both accept it, and both must reject it
/// together otherwise (with an `Err`, never a panic).
fn assert_pull_decoders_agree(bytes: &[u8]) {
    let shared = decode_pull_reply_shared(bytes);
    match decode_msg(bytes) {
        Ok(WireMsg::PullReply {
            key,
            min_version,
            weights,
        }) => {
            assert!(is_pull_reply(bytes));
            let (k, v, w) = shared.expect("decode_msg accepted this pull reply");
            assert_eq!((k, v), (key, min_version));
            let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w), bits(&weights));
        }
        other => assert!(
            shared.is_err(),
            "shared decoder accepted bytes decode_msg read as {other:?}"
        ),
    }
}

/// Encode, check the size invariant, decode, check equality.
fn assert_round_trip(c: &Compressed) {
    let mut buf = Vec::new();
    encode_compressed_into(c, &mut buf);
    assert_eq!(
        buf.len(),
        c.wire_bytes(),
        "encoded length must equal wire_bytes for {c:?}"
    );
    assert_eq!(&decode_compressed(&buf).unwrap(), c, "round trip of {c:?}");
}

proptest! {
    #[test]
    fn raw_round_trips(v in prop::collection::vec(-10.0f32..10.0, 0..48)) {
        assert_round_trip(&Compressed::Raw(v));
    }

    #[test]
    fn two_bit_round_trips(syms in prop::collection::vec(0u8..3, 0..130), thr in 0.01f32..4.0) {
        let c = Compressed::TwoBit {
            threshold: thr,
            packed: pack_2bit(&syms),
            len: syms.len(),
        };
        assert_round_trip(&c);
    }

    #[test]
    fn one_bit_round_trips(bits in prop::collection::vec(any::<bool>(), 0..130), scale in 0.01f32..4.0) {
        let c = Compressed::OneBit {
            scale,
            signs: pack_1bit(&bits),
            len: bits.len(),
        };
        assert_round_trip(&c);
    }

    #[test]
    fn tern_round_trips(syms in prop::collection::vec(0u8..3, 0..130), scale in 0.01f32..4.0) {
        let c = Compressed::Tern {
            scale,
            packed: pack_2bit(&syms),
            len: syms.len(),
        };
        assert_round_trip(&c);
    }

    #[test]
    fn qsgd_round_trips(raw in prop::collection::vec(any::<u8>(), 0..90), levels in 1u8..120, norm in 0.01f32..8.0) {
        // Derive codes in [-levels, levels] from arbitrary bytes.
        let span = 2 * levels as i32 + 1;
        let codes: Vec<i8> = raw
            .iter()
            .map(|&b| (b as i32 % span - levels as i32) as i8)
            .collect();
        let c = Compressed::Qsgd {
            norm,
            levels,
            codes,
            len: raw.len(),
        };
        assert_round_trip(&c);
    }

    #[test]
    fn qsgd_wide_levels_round_trip(raw in prop::collection::vec(any::<i8>(), 0..64), levels in 128u8..=255) {
        // For levels >= 128 every i8 is a legal code; symbols need 9 bits
        // and straddle byte boundaries.
        let c = Compressed::Qsgd {
            norm: 1.0,
            levels,
            codes: raw.clone(),
            len: raw.len(),
        };
        assert_round_trip(&c);
    }

    #[test]
    fn topk_round_trips(values in prop::collection::vec(-4.0f32..4.0, 0..40), idx_raw in prop::collection::vec(any::<u32>(), 0..40), extra in 1usize..16) {
        let k = values.len().min(idx_raw.len());
        let len = k + extra;
        let indices: Vec<u32> = idx_raw[..k].iter().map(|&r| r % len as u32).collect();
        let c = Compressed::TopK {
            indices,
            values: values[..k].to_vec(),
            len,
        };
        assert_round_trip(&c);
    }

    #[test]
    fn push_frames_round_trip_with_exact_sizes(v in prop::collection::vec(-2.0f32..2.0, 0..32), worker in 0u32..64, key in 0u32..64) {
        let payload = Compressed::Raw(v);
        let msg = WireMsg::Push { worker, key, payload: payload.clone() };
        let mut buf = Vec::new();
        encode_msg_into(&msg, &mut buf);
        prop_assert_eq!(
            buf.len() + FRAME_PREFIX_BYTES,
            push_frame_bytes(payload.wire_bytes())
        );
        prop_assert_eq!(decode_msg(&buf).unwrap(), msg);
    }

    #[test]
    fn pull_reply_frames_round_trip_with_exact_sizes(w in prop::collection::vec(-2.0f32..2.0, 0..32), key in 0u32..64, version in 0u64..1000) {
        let msg = WireMsg::PullReply { key, min_version: version, weights: w.clone() };
        let mut buf = Vec::new();
        encode_msg_into(&msg, &mut buf);
        prop_assert_eq!(buf.len() + FRAME_PREFIX_BYTES, pull_reply_frame_bytes(w.len()));
        prop_assert_eq!(decode_msg(&buf).unwrap(), msg);
    }
}

proptest! {
    #[test]
    fn shared_pull_reply_decoder_matches_decode_msg(bits in prop::collection::vec(any::<u32>(), 0..40), key in any::<u32>(), version in any::<u64>()) {
        // Arbitrary bit patterns cover NaN payloads, infinities and
        // subnormals; `to_bits` comparison keeps NaNs comparable.
        let weights: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut buf = Vec::new();
        encode_pull_reply_into(key, version, &weights, &mut buf);
        assert_pull_decoders_agree(&buf);
        let (k, v, w) = decode_pull_reply_shared(&buf).unwrap();
        prop_assert_eq!((k, v, w.len()), (key, version, weights.len()));
    }

    #[test]
    fn shared_pull_reply_decoder_rejects_damaged_frames(n in 0usize..12, cut in any::<usize>(), extra in 1usize..4) {
        let weights = vec![1.5f32; n];
        let mut buf = Vec::new();
        encode_pull_reply_into(3, 9, &weights, &mut buf);
        // Any truncation: a header cut or a payload that is not whole
        // f32s fails; a cut on an f32 boundary is a valid shorter reply.
        let cut = cut % buf.len();
        assert_pull_decoders_agree(&buf[..cut]);
        prop_assert_eq!(
            decode_pull_reply_shared(&buf[..cut]).is_ok(),
            cut >= 13 && (cut - 13).is_multiple_of(4)
        );
        // Trailing bytes that are not whole f32s.
        let mut long = buf.clone();
        long.extend(std::iter::repeat_n(0u8, extra));
        assert_pull_decoders_agree(&long);
        // Every other opcode, including the pull request.
        for op in (0u8..=255).filter(|&o| o != buf[0]) {
            let mut wrong = buf.clone();
            wrong[0] = op;
            prop_assert!(decode_pull_reply_shared(&wrong).is_err());
        }
    }
}

#[test]
fn shared_pull_reply_decoder_edge_cases() {
    let specials = [
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fa0_0001),
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        f32::MIN_POSITIVE / 2.0,
    ];
    let mut buf = Vec::new();
    for weights in [&[][..], &[2.5][..], &[f32::NAN][..], &specials[..]] {
        encode_pull_reply_into(1, 2, weights, &mut buf);
        assert_pull_decoders_agree(&buf);
        let (_, _, w) = decode_pull_reply_shared(&buf).unwrap();
        assert_eq!(w.len(), weights.len());
    }
    // Empty input and a pull request are not pull replies.
    assert!(decode_pull_reply_shared(&[]).is_err());
    assert!(!is_pull_reply(&[]));
    encode_pull_into(1, 2, &mut buf);
    assert!(!is_pull_reply(&buf));
    assert!(decode_pull_reply_shared(&buf).is_err());
}

#[test]
fn one_element_payloads_round_trip() {
    assert_round_trip(&Compressed::Raw(vec![3.25]));
    assert_round_trip(&Compressed::TwoBit {
        threshold: 0.5,
        packed: pack_2bit(&[2]),
        len: 1,
    });
    assert_round_trip(&Compressed::OneBit {
        scale: 1.0,
        signs: pack_1bit(&[true]),
        len: 1,
    });
    assert_round_trip(&Compressed::Tern {
        scale: 1.0,
        packed: pack_2bit(&[1]),
        len: 1,
    });
    assert_round_trip(&Compressed::Qsgd {
        norm: 1.0,
        levels: 4,
        codes: vec![-4],
        len: 1,
    });
    assert_round_trip(&Compressed::TopK {
        indices: vec![0],
        values: vec![-1.5],
        len: 1,
    });
}
