//! The byte-exact little-endian codec everything that crosses a durability
//! boundary goes through: inputs in the spill queues' disk segments
//! ([`serve`](crate::serve)) and every section of a STATSLOG
//! ([`replay`](crate::replay), which declares the codecs of the log's
//! records).

use std::time::Duration;

/// Exact binary serialization for inputs that may spill to disk.
///
/// The contract is byte-exact round-tripping: `decode` must reconstruct
/// the encoded value exactly (floats included — they travel as their IEEE
/// bit patterns). Implementations are provided for the integer and float
/// primitives, `bool`, `char`, `String`, `Vec<T>`, byte arrays, `Duration`
/// and pairs; compose those (or hand-roll the two methods) for richer input
/// types. The bytes are the same on every target: `usize` and `isize`
/// travel as `u64` and `i64` (a value the decoding target cannot hold does
/// not decode), `[u8; N]` as its `N` raw bytes, and `Duration` as `u64`
/// nanoseconds — the one lossy case, saturating past ~584 years.
pub trait SpillCodec: Sized {
    /// Append this value's exact byte representation to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reconstruct a value from the front of `bytes`, consuming exactly
    /// the bytes `encode` produced. `None` means the buffer is corrupt or
    /// truncated.
    fn decode(bytes: &mut &[u8]) -> Option<Self>;
}

/// Split `n` bytes off the front of `bytes`.
pub(crate) fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if bytes.len() < n {
        return None;
    }
    let (front, rest) = bytes.split_at(n);
    *bytes = rest;
    Some(front)
}

macro_rules! le_codec {
    ($($ty:ty),+ $(,)?) => {
        $(impl SpillCodec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(bytes: &mut &[u8]) -> Option<Self> {
                let raw = take(bytes, std::mem::size_of::<$ty>())?;
                Some(<$ty>::from_le_bytes(raw.try_into().ok()?))
            }
        })+
    };
}

le_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

macro_rules! wide_codec {
    ($($ty:ty as $wire:ty),+) => {
        $(impl SpillCodec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                (*self as $wire).encode(out);
            }
            fn decode(bytes: &mut &[u8]) -> Option<Self> {
                <$ty>::try_from(<$wire>::decode(bytes)?).ok()
            }
        })+
    };
}

wide_codec!(usize as u64, isize as i64);

impl<const N: usize> SpillCodec for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        take(bytes, N)?.try_into().ok()
    }
}

impl SpillCodec for Duration {
    fn encode(&self, out: &mut Vec<u8>) {
        u64::try_from(self.as_nanos())
            .unwrap_or(u64::MAX)
            .encode(out);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some(Duration::from_nanos(u64::decode(bytes)?))
    }
}

impl SpillCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        match take(bytes, 1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl SpillCodec for char {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u32).encode(out);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        char::from_u32(u32::decode(bytes)?)
    }
}

impl SpillCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let len = usize::decode(bytes)?;
        String::from_utf8(take(bytes, len)?.to_vec()).ok()
    }
}

impl<T: SpillCodec> SpillCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let len = usize::decode(bytes)?;
        // Guard against a corrupt length claiming more items than bytes.
        if len > bytes.len() {
            return None;
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(bytes)?);
        }
        Some(items)
    }
}

impl<A: SpillCodec, B: SpillCodec> SpillCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        Some((A::decode(bytes)?, B::decode(bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips_exactly() {
        fn roundtrip<T: SpillCodec + PartialEq + std::fmt::Debug>(value: T) {
            let mut bytes = Vec::new();
            value.encode(&mut bytes);
            let mut cursor: &[u8] = &bytes;
            assert_eq!(T::decode(&mut cursor), Some(value));
            assert!(cursor.is_empty(), "decode left trailing bytes");
        }
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(-17i64);
        roundtrip(std::f64::consts::PI);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip('é');
        roundtrip("tenant payload".to_string());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((42u64, -0.5f64));
        // NaN round-trips bit-exactly even though NaN != NaN.
        let mut bytes = Vec::new();
        f64::NAN.encode(&mut bytes);
        let mut cursor: &[u8] = &bytes;
        let back = f64::decode(&mut cursor).unwrap();
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut bytes = Vec::new();
        12345u64.encode(&mut bytes);
        let mut cursor: &[u8] = &bytes[..4];
        assert_eq!(u64::decode(&mut cursor), None);
    }

    #[test]
    fn widths_do_not_depend_on_the_target() {
        fn bytes<T: SpillCodec>(value: T) -> Vec<u8> {
            let mut out = Vec::new();
            value.encode(&mut out);
            out
        }
        assert_eq!(bytes(7usize), bytes(7u64));
        assert_eq!(bytes(-7isize), bytes(-7i64));
        assert_eq!(bytes(*b"STATS"), b"STATS");
        assert_eq!(bytes(Duration::from_nanos(1_234_567)), bytes(1_234_567u64));
        assert_eq!(bytes(Duration::MAX), bytes(u64::MAX));
        let mut cursor: &[u8] = &[1, 2];
        assert_eq!(<[u8; 3]>::decode(&mut cursor), None);
    }
}
