//! Crash-consistent engine snapshots.
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
//! sequence is length-prefixed, and the file carries a magic/version
//! header, configuration and workload fingerprints, and a trailing
//! FNV-1a checksum. A truncated, corrupted or mismatched snapshot
//! fails with a descriptive [`Error::InvalidData`], never a panic.
//! Files are written to a temporary sibling and atomically renamed, so
//! a crash mid-write leaves the previous snapshot intact.

use std::path::Path;

use optum_types::{DelayCause, Error, NodeLifecycle, PsiWindow, Result, SloClass};

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
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Writes a float as its exact bit pattern.
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// Writes a boolean as 0/1.
    pub fn put_bool(&mut self, b: bool) {
        self.put_u64(b as u64);
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

    /// Writes an optional `u64` as a presence tag plus value.
    pub fn put_opt_u64(&mut self, x: Option<u64>) {
        match x {
            Some(v) => {
                self.put_u64(1);
                self.put_u64(v);
            }
            None => self.put_u64(0),
        }
    }

    /// Writes an optional float.
    pub fn put_opt_f64(&mut self, x: Option<f64>) {
        match x {
            Some(v) => {
                self.put_u64(1);
                self.put_f64(v);
            }
            None => self.put_u64(0),
        }
    }

    /// Writes a PSI window (three smoothed averages).
    pub fn put_psi(&mut self, p: &PsiWindow) {
        self.put_f64(p.avg10);
        self.put_f64(p.avg60);
        self.put_f64(p.avg300);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a boolean (anything non-zero is true).
    pub fn get_bool(&mut self) -> Result<bool> {
        Ok(self.get_u64()? != 0)
    }

    /// Reads a sequence length, rejecting values that cannot possibly
    /// fit in the remaining bytes (corruption guard: a garbage length
    /// must not drive a huge allocation).
    pub fn get_len(&mut self) -> Result<usize> {
        let n = self.get_u64()? as usize;
        if n > self.remaining() {
            return Err(Error::InvalidData(format!(
                "snapshot corrupt: sequence length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_len()?;
        if self.remaining() < n {
            return Err(self.truncated("byte string"));
        }
        let out = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|_| Error::InvalidData("snapshot corrupt: invalid UTF-8 string".into()))
    }

    /// Reads an optional `u64`.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>> {
        Ok(if self.get_u64()? != 0 {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    /// Reads an optional float.
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>> {
        Ok(if self.get_u64()? != 0 {
            Some(self.get_f64()?)
        } else {
            None
        })
    }

    /// Reads a PSI window.
    pub fn get_psi(&mut self) -> Result<PsiWindow> {
        Ok(PsiWindow {
            avg10: self.get_f64()?,
            avg60: self.get_f64()?,
            avg300: self.get_f64()?,
        })
    }
}

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

// --- Enum codecs (explicit discriminants; `as` casts on the enums
// themselves would silently shift if a variant were reordered). ---

/// Stable code of an SLO class (its position in [`SloClass::ALL`]).
pub(crate) fn slo_code(s: SloClass) -> u64 {
    SloClass::ALL
        .iter()
        .position(|&c| c == s)
        .expect("every class is in ALL") as u64
}

/// Decodes an SLO class code.
pub(crate) fn slo_from(code: u64) -> Result<SloClass> {
    SloClass::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| Error::InvalidData(format!("snapshot corrupt: bad SLO class code {code}")))
}

/// Stable code of a node lifecycle state.
pub(crate) fn lifecycle_code(l: NodeLifecycle) -> u64 {
    match l {
        NodeLifecycle::Up => 0,
        NodeLifecycle::Draining => 1,
        NodeLifecycle::Down => 2,
    }
}

/// Decodes a node lifecycle code.
pub(crate) fn lifecycle_from(code: u64) -> Result<NodeLifecycle> {
    match code {
        0 => Ok(NodeLifecycle::Up),
        1 => Ok(NodeLifecycle::Draining),
        2 => Ok(NodeLifecycle::Down),
        _ => Err(Error::InvalidData(format!(
            "snapshot corrupt: bad lifecycle code {code}"
        ))),
    }
}

/// Stable code of a delay cause.
pub(crate) fn delay_code(d: DelayCause) -> u64 {
    match d {
        DelayCause::CpuAndMemory => 0,
        DelayCause::Cpu => 1,
        DelayCause::Memory => 2,
        DelayCause::Other => 3,
        DelayCause::Eviction => 4,
    }
}

/// Decodes a delay-cause code.
pub(crate) fn delay_from(code: u64) -> Result<DelayCause> {
    match code {
        0 => Ok(DelayCause::CpuAndMemory),
        1 => Ok(DelayCause::Cpu),
        2 => Ok(DelayCause::Memory),
        3 => Ok(DelayCause::Other),
        4 => Ok(DelayCause::Eviction),
        _ => Err(Error::InvalidData(format!(
            "snapshot corrupt: bad delay-cause code {code}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_including_nan_bits() {
        let mut w = SnapWriter::new();
        w.put_magic();
        w.put_u64(42);
        w.put_f64(std::f64::consts::PI);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("Optum");
        w.put_opt_u64(Some(7));
        w.put_opt_u64(None);
        w.put_opt_f64(Some(-0.0));
        let bytes = w.finish_with_checksum();

        let payload = verify_checksum(&bytes).unwrap();
        let mut r = SnapReader::new(payload);
        r.get_magic().unwrap();
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        // NaN round-trips bit-exactly (the ERO "unobserved" marker).
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "Optum");
        assert_eq!(r.get_opt_u64().unwrap(), Some(7));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(
            r.get_opt_f64().unwrap().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_errors_not_panics() {
        let mut w = SnapWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        let err = r.get_u64().unwrap_err();
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
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let err = r.get_len().unwrap_err();
        assert!(err.to_string().contains("exceeds remaining"), "{err}");
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
            assert_eq!(slo_from(slo_code(s)).unwrap(), s);
        }
        for l in [
            NodeLifecycle::Up,
            NodeLifecycle::Draining,
            NodeLifecycle::Down,
        ] {
            assert_eq!(lifecycle_from(lifecycle_code(l)).unwrap(), l);
        }
        for d in [
            DelayCause::CpuAndMemory,
            DelayCause::Cpu,
            DelayCause::Memory,
            DelayCause::Other,
            DelayCause::Eviction,
        ] {
            assert_eq!(delay_from(delay_code(d)).unwrap(), d);
        }
        assert!(slo_from(99).is_err());
        assert!(lifecycle_from(99).is_err());
        assert!(delay_from(99).is_err());
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
