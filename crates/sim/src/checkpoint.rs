//! Crash-consistent engine snapshots, and the byte codec they share
//! with the optumd wire protocol.
//!
//! A checkpoint is a versioned, dependency-free binary image of the
//! simulator's entire mutable state at the top of a tick: node
//! runtimes (histories, windowed sums, resident pods), per-app
//! statistics, the pending queue, running-pod state, outcome
//! accumulators, recorded series, training collections and the
//! scheduler's own state (via [`crate::Scheduler::save_state`]).
//! Restoring a snapshot into a freshly built simulator over the same
//! workload and configuration resumes the run bit-identically: the
//! resumed result is byte-for-byte equal to an uninterrupted run.
//!
//! The format is deliberately hand-rolled (no serde): every scalar is
//! a little-endian `u64` (floats via [`f64::to_bits`], so NaN payloads
//! — the ERO table's "unobserved" marker — round-trip exactly), every
//! sequence is length-prefixed, and the file carries an 8-byte magic, a
//! `u64` version word, configuration and workload fingerprints, and a
//! trailing FNV-1a checksum. Files are written to a temporary sibling
//! and atomically renamed, so a crash mid-write leaves the previous
//! snapshot intact.
//!
//! **One statement per layout.** A type's bytes are its [`Snap`] impl,
//! written once: [`snap_fields!`](crate::snap_fields) lists a struct's fields in layout
//! order (its `in` form restores a listed subset into a value whose
//! other fields the owner rebuilt, through [`SnapPart`]), and
//! [`snap_tagged!`](crate::snap_tagged) gives an enum its tag table. Both halves of the
//! codec come from that one list, so writer and reader cannot drift.
//! Only readers that do more than read fields are written by hand, each
//! saying why (`NodeRuntime`, `AppStats`, `EroTable`, `TripleEroTable`
//! and the engine's header and per-pod slots).
//!
//! **Hostile bytes.** Every read is bounds-checked; narrow integers,
//! option and boolean words, enum codes and fixed-size arrays are
//! range-checked; a sequence length the remaining bytes cannot hold is
//! refused before anything is allocated. A truncated, corrupted or
//! mismatched snapshot fails with a descriptive [`Error::InvalidData`],
//! never a panic — `tests/checkpoint_bitflip.rs` flips single bits of a
//! resealed snapshot and steps whatever restore accepts.

use std::path::Path;

use optum_types::{
    AppId, DelayCause, NodeId, NodeLifecycle, PodId, PsiWindow, Resources, SloClass, Tick,
};
pub use optum_types::{Error, Result};

/// Leading magic bytes of every snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"OPTSNP\x00\x01";
/// Current snapshot format version. Bumped on any layout change; old
/// versions are rejected (snapshots are short-lived restart artifacts,
/// not archives, so no migration path is kept).
///
/// v3 added the shard layout (shard count + host-range map) to the
/// header, directly after the workload fingerprint: a run checkpointed
/// under one `--shards` value must not silently resume under another.
///
/// v4 added the denied-by-disconnect outcome class (the serve
/// front-end's eviction of stalled client connections): a per-outcome
/// `disconnected_at` tick after `shed_at`, and a per-class
/// `disconnected` counter in the overload ledger.
pub const SNAP_VERSION: u64 = 4;

/// FNV-1a offset basis: the hash of the empty stream.
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running FNV-1a hash `h` (start from
/// [`FNV1A_INIT`]). The one byte hash of the workspace: the snapshot
/// trailer checksum and the scale engine's result digest both run on
/// it.
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a byte stream (the trailer checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV1A_INIT, bytes)
}

/// Order-sensitive fingerprint accumulator over `u64` words, used to
/// bind a snapshot to the exact configuration and workload it was
/// taken under (resuming against anything else is rejected).
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fingerprint.
    pub fn new() -> Fingerprint {
        Fingerprint(0x9e37_79b9_7f4a_7c15)
    }

    /// Folds one word in (order-sensitive).
    pub fn fold(&mut self, x: u64) {
        let mut z = self.0 ^ x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    /// Folds a float bit pattern in.
    pub fn fold_f64(&mut self, x: f64) {
        self.fold(x.to_bits());
    }

    /// The accumulated fingerprint.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint::new()
    }
}

/// Appends snapshot fields to a growing byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts an empty buffer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Writes the file magic (raw, not length-prefixed).
    pub fn put_magic(&mut self) {
        self.buf.extend_from_slice(&SNAP_MAGIC);
    }

    /// Writes one little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a float as its exact bit pattern.
    #[inline]
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes a length-prefixed sequence (the layout of `Vec<T>`).
    pub fn put_seq<'a, T: Snap + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.put_u64(items.len() as u64);
        for x in items {
            x.snap(self);
        }
    }

    /// Appends the FNV-1a checksum of everything written so far, then
    /// returns the finished buffer.
    pub fn finish_with_checksum(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.put_u64(sum);
        self.buf
    }

    /// Returns the raw buffer without a checksum (for nested blobs).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over snapshot bytes; every read is bounds-checked and
/// returns [`Error::InvalidData`] on truncation instead of panicking.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Starts reading at the front of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    fn truncated(&self, what: &str) -> Error {
        Error::InvalidData(format!(
            "snapshot truncated or corrupt: ran out of bytes reading {what} at offset {}",
            self.pos
        ))
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Ends a read that must consume the whole buffer.
    #[inline]
    pub fn finish(self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} unread trailing bytes"))),
        }
    }

    /// Verifies the file magic.
    pub fn get_magic(&mut self) -> Result<()> {
        if self.remaining() < SNAP_MAGIC.len() || self.buf[self.pos..self.pos + 8] != SNAP_MAGIC {
            return Err(Error::InvalidData("not a snapshot file (bad magic)".into()));
        }
        self.pos += SNAP_MAGIC.len();
        Ok(())
    }

    /// Reads one little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        if self.remaining() < 8 {
            return Err(self.truncated("u64"));
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a float from its exact bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(self.truncated("byte string"));
        }
        let out = self.buf[self.pos..self.pos + n as usize].to_vec();
        self.pos += n as usize;
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|_| Error::InvalidData("snapshot corrupt: invalid UTF-8 string".into()))
    }
}

fn corrupt(what: impl std::fmt::Display) -> Error {
    Error::InvalidData(format!("snapshot corrupt: {what}"))
}

/// A value with one byte layout, used by snapshots and the wire alike.
/// Every impl writes at least one `u64` word, which is what lets a
/// sequence length be checked against the bytes left before anything
/// is allocated.
pub trait Snap: Sized {
    /// Appends the value.
    fn snap(&self, w: &mut SnapWriter);

    /// Reads a value back, refusing bytes no [`Snap::snap`] writes.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self>;

    /// The value's bytes alone (no checksum).
    fn snap_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.snap(&mut w);
        w.into_bytes()
    }

    /// Reads a value that must fill `bytes` exactly.
    fn unsnap_exact(bytes: &[u8]) -> Result<Self> {
        let mut r = SnapReader::new(bytes);
        let x = Self::unsnap(&mut r)?;
        r.finish()?;
        Ok(x)
    }
}

/// The part of a value a snapshot carries, restored into a value whose
/// other fields its owner already rebuilt (identity fields come from
/// the workload, not from the bytes).
pub trait SnapPart {
    /// Appends the carried fields.
    fn snap_part(&self, w: &mut SnapWriter);

    /// Overwrites the carried fields from `r`.
    fn unsnap_part(&mut self, r: &mut SnapReader<'_>) -> Result<()>;
}

/// States a struct's layout as its field list, in byte order.
///
/// `snap_fields!(Ty { a, b })` implements [`Snap`]: the fields are
/// written in list order and read back into a new value (every field
/// must be listed; tuple fields are named by index, `Tick { 0 }`).
/// `snap_fields!(in Ty { a, b })` implements [`SnapPart`] for the
/// listed fields only.
#[macro_export]
macro_rules! snap_fields {
    ($ty:ident { $($field:tt),* $(,)? }) => {
        impl $crate::checkpoint::Snap for $ty {
            fn snap(&self, w: &mut $crate::checkpoint::SnapWriter) {
                $( $crate::checkpoint::Snap::snap(&self.$field, w); )*
            }

            fn unsnap(
                r: &mut $crate::checkpoint::SnapReader<'_>,
            ) -> $crate::checkpoint::Result<Self> {
                Ok(Self { $( $field: $crate::checkpoint::Snap::unsnap(r)?, )* })
            }
        }
    };
    (in $ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::checkpoint::SnapPart for $ty {
            fn snap_part(&self, w: &mut $crate::checkpoint::SnapWriter) {
                $( $crate::checkpoint::Snap::snap(&self.$field, w); )*
            }

            fn unsnap_part(
                &mut self,
                r: &mut $crate::checkpoint::SnapReader<'_>,
            ) -> $crate::checkpoint::Result<()> {
                $( self.$field = $crate::checkpoint::Snap::unsnap(r)?; )*
                Ok(())
            }
        }
    };
}

/// States an enum's layout as a tag table: each variant is a `u64` tag
/// followed by its fields in list order. Struct variants list their
/// field names, tuple variants name their elements:
///
/// ```ignore
/// snap_tagged!(Msg {
///     1 => Ping,
///     2 => Put { key, value },
///     3 => Wrapped(inner),
/// });
/// ```
#[macro_export]
macro_rules! snap_tagged {
    ($ty:ident {
        $( $tag:literal => $var:ident
            $( { $($field:ident),* $(,)? } )?
            $( ( $($elem:ident),* $(,)? ) )?
        ),* $(,)?
    }) => {
        impl $crate::checkpoint::Snap for $ty {
            fn snap(&self, w: &mut $crate::checkpoint::SnapWriter) {
                match self {
                    $( Self::$var $( { $($field),* } )? $( ( $($elem),* ) )? => {
                        w.put_u64($tag);
                        $( $( $crate::checkpoint::Snap::snap($field, w); )* )?
                        $( $( $crate::checkpoint::Snap::snap($elem, w); )* )?
                    } )*
                }
            }

            #[inline]
            fn unsnap(
                r: &mut $crate::checkpoint::SnapReader<'_>,
            ) -> $crate::checkpoint::Result<Self> {
                Ok(match r.get_u64()? {
                    $( $tag => Self::$var
                        $( { $( $field: $crate::checkpoint::Snap::unsnap(r)? ),* } )?
                        $( ( $( { let $elem = $crate::checkpoint::Snap::unsnap(r)?; $elem } ),* ) )?,
                    )*
                    tag => {
                        return Err($crate::checkpoint::Error::InvalidData(format!(
                            "unknown {} tag {tag}",
                            stringify!($ty)
                        )))
                    }
                })
            }
        }
    };
}

impl Snap for u64 {
    #[inline]
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }

    #[inline]
    fn unsnap(r: &mut SnapReader<'_>) -> Result<u64> {
        r.get_u64()
    }
}

impl Snap for f64 {
    #[inline]
    fn snap(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }

    #[inline]
    fn unsnap(r: &mut SnapReader<'_>) -> Result<f64> {
        r.get_f64()
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<String> {
        r.get_str()
    }
}

/// Integers narrower than the word: written widened, read back only if
/// the word fits (a truncating cast would turn corruption into a
/// plausible value).
macro_rules! snap_narrow {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            #[inline]
            fn snap(&self, w: &mut SnapWriter) {
                w.put_u64(*self as u64);
            }

            #[inline]
            fn unsnap(r: &mut SnapReader<'_>) -> Result<$t> {
                let x = r.get_u64()?;
                <$t>::try_from(x)
                    .map_err(|_| corrupt(format!("{x} is out of range for {}", stringify!($t))))
            }
        }
    )*};
}

snap_narrow!(u8, u32, usize);

/// `false`/`true` as the words 0/1.
impl Snap for bool {
    #[inline]
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }

    #[inline]
    fn unsnap(r: &mut SnapReader<'_>) -> Result<bool> {
        match r.get_u64()? {
            0 => Ok(false),
            1 => Ok(true),
            x => Err(corrupt(format!("boolean word {x}"))),
        }
    }
}

/// A presence word (0/1), then the value when present.
impl<T: Snap> Snap for Option<T> {
    #[inline]
    fn snap(&self, w: &mut SnapWriter) {
        self.is_some().snap(w);
        if let Some(x) = self {
            x.snap(w);
        }
    }

    #[inline]
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Option<T>> {
        Ok(if bool::unsnap(r)? {
            Some(T::unsnap(r)?)
        } else {
            None
        })
    }
}

/// A length word, then the elements.
impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_seq(self.iter());
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Vec<T>> {
        let n = r.get_u64()?;
        // Each element is at least one word, so this also bounds the
        // allocation by what the bytes can hold.
        if n > (r.remaining() / 8) as u64 {
            return Err(corrupt(format!(
                "sequence length {n} exceeds remaining {} bytes",
                r.remaining()
            )));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

/// The layout of a `Vec<T>` whose length word must equal `N`.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_seq(self.iter());
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<[T; N]> {
        <[T; N]>::try_from(Vec::unsnap(r)?)
            .map_err(|v| corrupt(format!("{} entries where {N} are expected", v.len())))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    #[inline]
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }

    #[inline]
    fn unsnap(r: &mut SnapReader<'_>) -> Result<(A, B)> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

snap_fields!(Tick { 0 });
snap_fields!(PodId { 0 });
snap_fields!(NodeId { 0 });
snap_fields!(AppId { 0 });
snap_fields!(Resources { cpu, mem });
snap_fields!(PsiWindow {
    avg10,
    avg60,
    avg300
});

/// A class is its position in [`SloClass::ALL`].
impl Snap for SloClass {
    fn snap(&self, w: &mut SnapWriter) {
        self.index().snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<SloClass> {
        let code = u64::unsnap(r)?;
        SloClass::ALL
            .into_iter()
            .find(|c| c.index() as u64 == code)
            .ok_or_else(|| corrupt(format!("bad SLO class code {code}")))
    }
}

// Explicit codes: a variant's tag must not move if the enum is
// reordered.
snap_tagged!(NodeLifecycle {
    0 => Up,
    1 => Draining,
    2 => Down,
});

snap_tagged!(DelayCause {
    0 => CpuAndMemory,
    1 => Cpu,
    2 => Memory,
    3 => Other,
    4 => Eviction,
});

/// Verifies the trailing checksum and returns the payload (everything
/// before the trailer).
pub fn verify_checksum(bytes: &[u8]) -> Result<&[u8]> {
    if bytes.len() < SNAP_MAGIC.len() + 8 {
        return Err(Error::InvalidData(
            "snapshot truncated: shorter than header plus checksum".into(),
        ));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let mut b = [0u8; 8];
    b.copy_from_slice(trailer);
    let stored = u64::from_le_bytes(b);
    let actual = fnv1a(payload);
    if stored != actual {
        return Err(Error::InvalidData(format!(
            "snapshot corrupt: checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    Ok(payload)
}

/// Writes a snapshot crash-consistently: the bytes land in a temporary
/// sibling first and are atomically renamed over `path`, so an
/// interrupted write never destroys the previous good snapshot.
pub fn write_snapshot_file(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("snap-tmp");
    std::fs::write(&tmp, bytes)
        .map_err(|e| Error::InvalidData(format!("cannot write snapshot {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| Error::InvalidData(format!("cannot commit snapshot {}: {e}", path.display())))
}

/// Reads a snapshot file.
pub fn read_snapshot_file(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path)
        .map_err(|e| Error::InvalidData(format!("cannot read snapshot {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_including_nan_bits() {
        let mut w = SnapWriter::new();
        w.put_magic();
        42u64.snap(&mut w);
        std::f64::consts::PI.snap(&mut w);
        f64::NAN.snap(&mut w);
        true.snap(&mut w);
        String::from("Optum").snap(&mut w);
        Some(7u64).snap(&mut w);
        None::<u64>.snap(&mut w);
        Some(-0.0f64).snap(&mut w);
        let bytes = w.finish_with_checksum();

        let payload = verify_checksum(&bytes).unwrap();
        let mut r = SnapReader::new(payload);
        r.get_magic().unwrap();
        assert_eq!(u64::unsnap(&mut r).unwrap(), 42);
        assert_eq!(f64::unsnap(&mut r).unwrap(), std::f64::consts::PI);
        // NaN round-trips bit-exactly (the ERO "unobserved" marker).
        assert_eq!(f64::unsnap(&mut r).unwrap().to_bits(), f64::NAN.to_bits());
        assert!(bool::unsnap(&mut r).unwrap());
        assert_eq!(String::unsnap(&mut r).unwrap(), "Optum");
        assert_eq!(Option::<u64>::unsnap(&mut r).unwrap(), Some(7));
        assert_eq!(Option::<u64>::unsnap(&mut r).unwrap(), None);
        assert_eq!(
            Option::<f64>::unsnap(&mut r).unwrap().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        r.finish().unwrap();
    }

    #[test]
    fn truncation_errors_not_panics() {
        let bytes = 1u64.snap_bytes();
        let err = u64::unsnap(&mut SnapReader::new(&bytes[..4])).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut w = SnapWriter::new();
        w.put_magic();
        w.put_u64(99);
        let mut bytes = w.finish_with_checksum();
        bytes[9] ^= 0xFF;
        let err = verify_checksum(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn hostile_length_is_rejected() {
        // An absurd sequence length is refused before any allocation.
        let bytes = u64::MAX.snap_bytes();
        let err = Vec::<u64>::unsnap_exact(&bytes).unwrap_err();
        assert!(err.to_string().contains("exceeds remaining"), "{err}");
        let err = String::unsnap_exact(&bytes).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let bytes = vec![0u8; 32];
        let mut r = SnapReader::new(&bytes);
        assert!(r.get_magic().is_err());
    }

    #[test]
    fn enum_codes_roundtrip() {
        for &s in &SloClass::ALL {
            assert_eq!(s.snap_bytes(), (s.index() as u64).snap_bytes());
            assert_eq!(SloClass::unsnap_exact(&s.snap_bytes()).unwrap(), s);
        }
        let lifecycles = [
            NodeLifecycle::Up,
            NodeLifecycle::Draining,
            NodeLifecycle::Down,
        ];
        for (code, l) in lifecycles.into_iter().enumerate() {
            assert_eq!(l.snap_bytes(), (code as u64).snap_bytes());
            assert_eq!(NodeLifecycle::unsnap_exact(&l.snap_bytes()).unwrap(), l);
        }
        let causes = [
            DelayCause::CpuAndMemory,
            DelayCause::Cpu,
            DelayCause::Memory,
            DelayCause::Other,
            DelayCause::Eviction,
        ];
        for (code, d) in causes.into_iter().enumerate() {
            assert_eq!(d.snap_bytes(), (code as u64).snap_bytes());
            assert_eq!(DelayCause::unsnap_exact(&d.snap_bytes()).unwrap(), d);
        }
        let bad = 99u64.snap_bytes();
        assert!(SloClass::unsnap_exact(&bad).is_err());
        assert!(NodeLifecycle::unsnap_exact(&bad).is_err());
        assert!(DelayCause::unsnap_exact(&bad).is_err());
    }

    #[test]
    fn narrow_words_are_range_checked_not_truncated() {
        let word = |x: u64| x.snap_bytes();
        assert_eq!(u32::unsnap_exact(&word(u32::MAX as u64)).unwrap(), u32::MAX);
        assert!(u32::unsnap_exact(&word(1 << 32)).is_err());
        assert!(PodId::unsnap_exact(&word((1 << 32) | 5)).is_err());
        assert_eq!(u8::unsnap_exact(&word(255)).unwrap(), 255);
        assert!(u8::unsnap_exact(&word(258)).is_err());
        // Presence and boolean words are 0 or 1, nothing else.
        assert!(bool::unsnap_exact(&word(2)).is_err());
        assert!(Option::<u64>::unsnap_exact(&[word(2), word(7)].concat()).is_err());
        // A fixed-size array's length word must be its size.
        let two = vec![1u64, 2].snap_bytes();
        assert_eq!(<[u64; 2]>::unsnap_exact(&two).unwrap(), [1, 2]);
        assert!(<[u64; 3]>::unsnap_exact(&two).is_err());
        // Trailing bytes after an exact read are refused.
        assert!(u64::unsnap_exact(&[word(1), word(2)].concat()).is_err());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.fold(1);
        a.fold(2);
        let mut b = Fingerprint::new();
        b.fold(2);
        b.fold(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fnv1a_matches_the_published_vectors_however_it_is_fed() {
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let foo = fnv1a_fold(FNV1A_INIT, b"foo");
        assert_eq!(fnv1a_fold(foo, b"bar"), fnv1a(b"foobar"));
    }
}
