//! Property tests for the cache's two correctness-critical primitives.
//!
//! - **Codec bit-exactness.** `decode(encode(v))` must reproduce `v`
//!   down to float bit patterns — NaN payloads, signed zeros and
//!   subnormals included — because cached shards are merged with fresh
//!   ones and a warm run is required to be byte-identical to a cold
//!   one. Floats are generated from arbitrary `u64` bit patterns, so
//!   the whole IEEE-754 domain is exercised, not just round numbers.
//! - **Fingerprint sensitivity.** Any single-field perturbation must
//!   change the fingerprint (else two different experiments would share
//!   entries), and the field framing must prevent
//!   ordering/concatenation ambiguities from colliding.

use proptest::prelude::*;

use nanobound_cache::{decode_from_slice, encode_to_vec, Fingerprint, FingerprintBuilder};

/// Builds the reference fingerprint of a synthetic experiment with one
/// field of every push type.
fn reference_fingerprint(
    domain: &str,
    float: f64,
    word: u64,
    count: usize,
    label: &str,
) -> Fingerprint {
    let mut builder = FingerprintBuilder::new(domain);
    builder.push_f64(float);
    builder.push_u64(word);
    builder.push_usize(count);
    builder.push_str(label);
    builder.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn f64_roundtrips_bit_exactly_for_any_pattern(bits in any::<u64>()) {
        // Arbitrary bit patterns cover NaNs (quiet and signaling, any
        // payload), ±0, ±inf and subnormals.
        let value = f64::from_bits(bits);
        let decoded: f64 = decode_from_slice(&encode_to_vec(&value)).expect("valid encoding");
        prop_assert_eq!(decoded.to_bits(), bits);
    }

    #[test]
    fn f64_vectors_roundtrip_bit_exactly(patterns in prop::collection::vec(any::<u64>(), 0..64)) {
        let values: Vec<f64> = patterns.iter().map(|&b| f64::from_bits(b)).collect();
        let decoded: Vec<f64> =
            decode_from_slice(&encode_to_vec(&values)).expect("valid encoding");
        let bits: Vec<u64> = decoded.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bits, patterns);
    }

    #[test]
    fn truncated_encodings_never_decode(
        patterns in prop::collection::vec(any::<u64>(), 1..16),
        cut_seed in any::<u64>(),
    ) {
        let values: Vec<f64> = patterns.iter().map(|&b| f64::from_bits(b)).collect();
        let bytes = encode_to_vec(&values);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert_eq!(decode_from_slice::<Vec<f64>>(&bytes[..cut]), None);
    }

    #[test]
    fn every_single_field_perturbation_changes_the_fingerprint(
        float_bits in any::<u64>(),
        word in any::<u64>(),
        count in 0usize..1_000_000,
        label_seed in any::<u64>(),
        flip in 0u32..64,
    ) {
        let float = f64::from_bits(float_bits);
        let label = format!("bench-{label_seed:x}");
        let base = reference_fingerprint("exp", float, word, count, &label);

        // Perturb exactly one field at a time; every perturbation is a
        // different experiment and must address different entries.
        let bit_flipped_float = f64::from_bits(float_bits ^ (1 << flip));
        let variants = [
            reference_fingerprint("other", float, word, count, &label),
            reference_fingerprint("exp", bit_flipped_float, word, count, &label),
            reference_fingerprint("exp", float, word ^ (1 << flip), count, &label),
            reference_fingerprint("exp", float, word, count + 1, &label),
            reference_fingerprint("exp", float, word, count, &format!("{label}x")),
        ];
        for (i, variant) in variants.iter().enumerate() {
            prop_assert_ne!(base, *variant, "perturbation {} collided", i);
        }
        // And the unperturbed rebuild is stable.
        prop_assert_eq!(base, reference_fingerprint("exp", float, word, count, &label));
    }

    #[test]
    fn byte_split_points_are_not_ambiguous(
        bytes in prop::collection::vec(any::<u8>(), 2..64),
        split_a in any::<u64>(),
        split_b in any::<u64>(),
    ) {
        // push(x[..i]); push(x[i..]) must differ from the same bytes
        // split at any other point — length framing, not separators,
        // carries the field boundary.
        let a = (split_a % (bytes.len() as u64 + 1)) as usize;
        let b = (split_b % (bytes.len() as u64 + 1)) as usize;
        let split_fp = |at: usize| {
            let mut builder = FingerprintBuilder::new("split");
            builder.push_bytes(&bytes[..at]);
            builder.push_bytes(&bytes[at..]);
            builder.finish()
        };
        if a == b {
            prop_assert_eq!(split_fp(a), split_fp(b));
        } else {
            prop_assert_ne!(split_fp(a), split_fp(b));
        }
    }

    #[test]
    fn field_order_is_part_of_the_identity(a in any::<u64>(), b in any::<u64>()) {
        let ordered = |x: u64, y: u64| {
            let mut builder = FingerprintBuilder::new("order");
            builder.push_u64(x);
            builder.push_u64(y);
            builder.finish()
        };
        if a == b {
            prop_assert_eq!(ordered(a, b), ordered(b, a));
        } else {
            prop_assert_ne!(ordered(a, b), ordered(b, a));
        }
    }

    #[test]
    fn hex_and_byte_forms_agree(seed in any::<u64>()) {
        let mut builder = FingerprintBuilder::new("forms");
        builder.push_u64(seed);
        let fp = builder.finish();
        let hex = fp.to_hex();
        prop_assert_eq!(hex.len(), 32);
        let bytes = fp.to_bytes();
        // to_hex prints hi∥lo big-endian-style hex over the same words
        // to_bytes stores little-endian; reconstruct and compare.
        let hi = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let lo = u64::from_le_bytes(bytes[8..].try_into().unwrap());
        prop_assert_eq!(format!("{hi:016x}{lo:016x}"), hex);
    }
}

/// The named special values the codec contract calls out, pinned
/// deterministically on top of the random-bit-pattern property.
#[test]
fn named_special_floats_roundtrip_bit_exactly() {
    let specials = [
        0.0f64,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN with payload
        f64::from_bits(0x7ff0_0000_0000_0001), // signaling NaN
        f64::MIN_POSITIVE,                     // smallest normal
        f64::from_bits(1),                     // smallest subnormal
        f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        f64::MAX,
        f64::MIN,
    ];
    for v in specials {
        let decoded: f64 = decode_from_slice(&encode_to_vec(&v)).expect("valid encoding");
        assert_eq!(decoded.to_bits(), v.to_bits(), "value {v:?}");
    }
    // And ±0 fingerprints are distinct experiments.
    let fp = |x: f64| {
        let mut b = FingerprintBuilder::new("zeros");
        b.push_f64(x);
        b.finish()
    };
    assert_ne!(fp(0.0), fp(-0.0));
}
