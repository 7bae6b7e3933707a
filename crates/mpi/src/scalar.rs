//! Plain-old-data element types the session API moves.
//!
//! On a little-endian host an element's memory *is* its little-endian
//! encoding, so [`Scalar::bytes`] and [`Scalar::bytes_mut`] view a slice of
//! elements as the bytes [`Scalar::pack`] would produce, without a copy.
//! The two views are this crate's only `unsafe`.

/// The concrete numeric kind of a [`Scalar`], used to map typed reduction
/// operators onto the schedule IR's lane-wise combines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    /// IEEE-754 double.
    F64,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 64-bit integer.
    U64,
    /// Unsigned 32-bit integer.
    U32,
    /// Signed 32-bit integer.
    I32,
    /// Byte.
    U8,
}

/// A fixed-width element with a defined little-endian byte representation.
///
/// Implemented for the numeric types the typed reduction operators cover.
/// `Default` is the all-zero element.
pub trait Scalar: Copy + Default + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Element width in bytes.
    const WIDTH: usize;

    /// The element's numeric kind.
    const KIND: ScalarKind;

    /// Serializes `values` into `values.len() * WIDTH` little-endian bytes.
    fn pack(values: &[Self]) -> Vec<u8>;

    /// Deserializes little-endian `bytes` into a fresh vector.
    ///
    /// # Panics
    /// Panics if `bytes.len()` is not a multiple of the element width.
    fn unpack(bytes: &[u8]) -> Vec<Self>;

    /// The elements' memory as bytes: equal to `pack(values)`, without a
    /// copy.
    fn bytes(values: &[Self]) -> &[u8];

    /// The elements' memory as writable bytes: little-endian encodings
    /// written here are decoded in place, without a copy.
    fn bytes_mut(values: &mut [Self]) -> &mut [u8];
}

/// Splits `bytes` into whole `W`-byte elements.
fn elements<const W: usize>(bytes: &[u8]) -> &[[u8; W]] {
    let (elements, rest) = bytes.as_chunks::<W>();
    assert!(rest.is_empty(), "byte length must be element-aligned");
    elements
}

// Conversions run over `[u8; WIDTH]` arrays, not runtime-length subslices: with
// the width in the type each loop compiles to plain vector loads and stores.
macro_rules! impl_scalar {
    ($(($t:ty, $kind:ident)),*) => {$(
        impl Scalar for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            const KIND: ScalarKind = ScalarKind::$kind;

            fn pack(values: &[Self]) -> Vec<u8> {
                values.iter().map(|v| v.to_le_bytes()).collect::<Vec<_>>().into_flattened()
            }

            fn unpack(bytes: &[u8]) -> Vec<Self> {
                elements(bytes).iter().map(|e| <$t>::from_le_bytes(*e)).collect()
            }

            fn bytes(values: &[Self]) -> &[u8] {
                // SAFETY: a primitive number has no padding, and `u8` has
                // alignment 1, so its `size_of_val` bytes are initialized
                // and readable as `u8`; the view borrows `values`. On a
                // little-endian host (the only one this crate builds for)
                // they are `to_le_bytes` of each element in turn.
                unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), size_of_val(values)) }
            }

            fn bytes_mut(values: &mut [Self]) -> &mut [u8] {
                // SAFETY: as in `bytes`; in addition every bit pattern is a
                // valid value of a primitive number, so any bytes written
                // through the view leave valid elements behind.
                unsafe {
                    std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), size_of_val(values))
                }
            }
        }
    )*};
}

impl_scalar!((f64, F64), (i64, I64), (u64, U64), (u32, U32), (i32, I32), (u8, U8));

/// Serializes a slice of scalars into a little-endian byte vector.
pub fn to_bytes<T: Scalar>(values: &[T]) -> Vec<u8> {
    T::pack(values)
}

/// Deserializes a little-endian byte slice into scalars.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of the element width.
pub fn from_bytes<T: Scalar>(bytes: &[u8]) -> Vec<T> {
    T::unpack(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Bit patterns a value-comparing round trip would not tell apart: quiet
    /// and signalling NaNs with payloads, both zeros, both infinities.
    const F64_SPECIAL: [u64; 8] = [
        0x7ff8_0000_0000_0000,
        0xfff8_0000_0000_1234,
        0x7ff0_0000_dead_beef,
        0xfff4_0000_0000_0001,
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
    ];

    /// `pack`/`unpack` against the per-element encoding they
    /// replaced (one `to_le_bytes` copy, one `from_le_bytes` of a
    /// runtime-length chunk per element), compared on bit patterns.
    fn check_conversions<T: Scalar, const W: usize>(
        values: Vec<T>,
        to_le: fn(T) -> [u8; W],
        from_le: fn([u8; W]) -> T,
    ) -> Result<(), TestCaseError> {
        let mut reference = vec![0u8; values.len() * T::WIDTH];
        for (v, chunk) in values.iter().zip(reference.chunks_exact_mut(T::WIDTH)) {
            chunk.copy_from_slice(&to_le(*v));
        }
        let packed = T::pack(&values);
        prop_assert_eq!(&packed, &reference);
        prop_assert_eq!(to_bytes(&values), reference);

        let bits = |vs: &[T]| vs.iter().map(|v| to_le(*v)).collect::<Vec<_>>();
        let decoded: Vec<T> = packed
            .chunks_exact(T::WIDTH)
            .map(|c| from_le(c.try_into().expect("exact width")))
            .collect();
        prop_assert_eq!(bits(&decoded), bits(&values));
        prop_assert_eq!(bits(&T::unpack(&packed)), bits(&values));
        prop_assert_eq!(bits(&from_bytes::<T>(&packed)), bits(&values));
        Ok(())
    }

    macro_rules! conversion_properties {
        ($($name:ident($t:ty, $from_bits:expr)),* $(,)?) => {
            proptest! {$(
                #[test]
                fn $name(raw in vec(any::<u64>(), 0..=300)) {
                    check_conversions::<$t, { <$t>::WIDTH }>(
                        raw.into_iter().map($from_bits).collect(),
                        <$t>::to_le_bytes,
                        <$t>::from_le_bytes,
                    )?;
                }
            )*}
        };
    }

    conversion_properties! {
        f64_conversions(f64, |b| f64::from_bits(match b % 4 {
            0 => F64_SPECIAL[(b >> 2) as usize % F64_SPECIAL.len()],
            _ => b,
        })),
        i64_conversions(i64, |b| b as i64),
        u64_conversions(u64, |b| b),
        u32_conversions(u32, |b| b as u32),
        i32_conversions(i32, |b| b as i32),
        u8_conversions(u8, |b| b as u8),
    }

    /// The byte views are `pack`'s output, and writing an encoding through
    /// the mutable view decodes it, for every element type.
    fn check_views<T: Scalar>(values: Vec<T>) -> Result<(), TestCaseError> {
        prop_assert_eq!(T::bytes(&values), &T::pack(&values)[..]);
        let mut target = vec![T::default(); values.len()];
        T::bytes_mut(&mut target).copy_from_slice(&T::pack(&values));
        prop_assert_eq!(T::pack(&target), T::pack(&values));
        Ok(())
    }

    proptest! {
        #[test]
        fn byte_views_are_the_packed_encoding(raw in vec(any::<u64>(), 0..=64)) {
            check_views(raw.iter().map(|&b| f64::from_bits(b)).collect())?;
            check_views(raw.iter().map(|&b| b as i64).collect())?;
            check_views(raw.clone())?;
            check_views(raw.iter().map(|&b| b as u32).collect())?;
            check_views(raw.iter().map(|&b| b as i32).collect())?;
            check_views(raw.iter().map(|&b| b as u8).collect())?;
        }
    }

    #[test]
    fn empty_slices_convert() {
        assert!(u32::pack(&[]).is_empty());
        assert!(f64::unpack(&[]).is_empty());
        assert!(u64::bytes(&[]).is_empty());
    }

    #[test]
    fn layout_is_little_endian() {
        assert_eq!(to_bytes(&[1u32]), vec![1, 0, 0, 0]);
        assert_eq!(to_bytes(&[256u64])[1], 1);
    }

    #[test]
    #[should_panic(expected = "element-aligned")]
    fn misaligned_rejected() {
        from_bytes::<u32>(&[0, 1, 2]);
    }
}
