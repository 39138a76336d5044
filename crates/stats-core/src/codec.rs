//! The byte-exact little-endian codec inputs cross a durability boundary
//! through: the spill queues' disk segments ([`serve`](crate::serve)) and
//! the input section of a STATSLOG ([`replay`](crate::replay)).

/// Exact binary serialization for inputs that may spill to disk.
///
/// The contract is byte-exact round-tripping: `decode` must reconstruct
/// the encoded value exactly (floats included — they travel as their IEEE
/// bit patterns). Implementations are provided for the integer and float
/// primitives, `bool`, `char`, `String`, `Vec<T>`, and pairs; compose
/// those (or hand-roll the two methods) for richer input types.
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

le_codec!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

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
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let len = usize::try_from(u64::decode(bytes)?).ok()?;
        String::from_utf8(take(bytes, len)?.to_vec()).ok()
    }
}

impl<T: SpillCodec> SpillCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let len = usize::try_from(u64::decode(bytes)?).ok()?;
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
}
