//! A minimal self-describing binary codec for cached shard payloads.
//!
//! The workspace has no serialization dependency, and cached results
//! must round-trip *bit-exactly* (a warm-cache run is required to be
//! byte-identical to a cold one), so the codec is deliberately tiny and
//! explicit: everything is little-endian, floats travel as
//! [`f64::to_bits`], lengths are `u64` prefixes, and decoding any
//! malformed input returns `None` instead of panicking — a decode
//! failure is a cache miss, never an error.

/// Appends codec-framed values to a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (stored as `u64`, so 32- and 64-bit hosts
    /// produce identical encodings).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — the value decodes
    /// bit-exactly, including signed zeros and NaN payloads.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Reads codec-framed values back out of a byte slice.
///
/// Every `take_*` returns `None` on underrun or malformed framing; the
/// cursor state after a `None` is unspecified, so callers abandon the
/// decode (treat it as a miss) rather than resynchronize.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Wraps a byte slice for decoding.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.data.split_at_checked(n)?;
        self.data = tail;
        Some(head)
    }

    /// Reads a `u64`, little-endian.
    pub fn take_u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a `usize` (rejects values that overflow the host width).
    pub fn take_usize(&mut self) -> Option<usize> {
        usize::try_from(self.take_u64()?).ok()
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.take_u64()?))
    }
}

/// A value that can travel through the shard cache.
///
/// Implementations must be *bit-exact* round-trips: `decode(encode(v))`
/// reproduces `v` down to float bit patterns, because cached shards are
/// merged with freshly computed ones and the result must be
/// byte-identical to a cold run.
pub trait CacheCodec: Sized {
    /// Appends this value's encoding.
    fn encode(&self, enc: &mut Encoder);
    /// Decodes one value; `None` on any malformed input.
    fn decode(dec: &mut Decoder<'_>) -> Option<Self>;
}

/// Encodes one value to a fresh byte vector.
#[must_use]
pub fn encode_to_vec<T: CacheCodec>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

/// Decodes one value, requiring the slice to be consumed exactly
/// (trailing bytes are malformed framing, hence `None`).
#[must_use]
pub fn decode_from_slice<T: CacheCodec>(bytes: &[u8]) -> Option<T> {
    let mut dec = Decoder::new(bytes);
    let value = T::decode(&mut dec)?;
    (dec.remaining() == 0).then_some(value)
}

impl CacheCodec for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Option<Self> {
        dec.take_u64()
    }
}

impl CacheCodec for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Option<Self> {
        dec.take_usize()
    }
}

impl CacheCodec for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Option<Self> {
        dec.take_f64()
    }
}

impl<T: CacheCodec> CacheCodec for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Option<Self> {
        let len = dec.take_usize()?;
        // A corrupt length must not drive a huge allocation: every
        // element consumes at least one byte of input.
        if len > dec.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: CacheCodec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        assert_eq!(decode_from_slice::<T>(&bytes), Some(value));
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(1.5f64);
        roundtrip(f64::NEG_INFINITY);
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        // -0.0 and a quiet NaN: equality on bits, not on value.
        for v in [-0.0f64, f64::from_bits(0x7ff8_0000_dead_beef)] {
            let bytes = encode_to_vec(&v);
            let back: f64 = decode_from_slice(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1.0f64, -2.5, 3.75]);
        roundtrip(Vec::<u64>::new());
    }

    #[test]
    fn truncated_input_decodes_to_none() {
        let bytes = encode_to_vec(&vec![1.0f64, 2.0]);
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_from_slice::<Vec<f64>>(&bytes[..cut]),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&7u64);
        bytes.push(0);
        assert_eq!(decode_from_slice::<u64>(&bytes), None);
    }

    #[test]
    fn absurd_vec_length_is_rejected_without_allocating() {
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX); // claimed length
        assert_eq!(decode_from_slice::<Vec<u64>>(&enc.into_bytes()), None);
    }
}
