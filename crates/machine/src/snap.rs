//! Versioned binary snapshot codec.
//!
//! Whole-run snapshots (machine, scheduler, RCR daemon, controller) are
//! serialized with a deliberately tiny hand-rolled codec rather than a
//! general-purpose serialization framework: the build is hermetic (the
//! vendored `serde` is a marker stub), the state is almost entirely plain
//! integers and `f64` bit patterns, and determinism demands an encoding with
//! no representational freedom — every writer produces exactly one byte
//! sequence for a given state.
//!
//! Layout rules:
//!
//! * all integers are little-endian, fixed width;
//! * `f64` is stored as its IEEE-754 bit pattern (`to_bits`), so restored
//!   values are bit-identical — including NaN payloads — and snapshots never
//!   round-trip through decimal;
//! * collections are length-prefixed (`u64` count);
//! * nested components are framed as length-prefixed blobs so a reader can
//!   skip or validate a section without understanding its interior.
//!
//! A snapshot starts with [`SnapWriter::header`]: magic, format version, and
//! a configuration fingerprint. Snapshots capture *dynamic* state only — the
//! static configuration (machine parameters, worker count, placement) must be
//! supplied by the restoring side and is checked against the fingerprint, so
//! a snapshot can be restored under a config that differs only in fields
//! deliberately excluded from the fingerprint (controller policy knobs, for
//! fork-style sweeps).

/// Snapshot format magic: `b"MAESNAP\0"` as a little-endian u64.
pub const SNAP_MAGIC: u64 = u64::from_le_bytes(*b"MAESNAP\0");

/// Current snapshot format version. Bump on any layout change *or* any
/// change to how serialized values are derived: replay correctness depends
/// on the restored engine re-deriving bit-identical state, so a snapshot
/// produced by a different derivation must be rejected, not reinterpreted.
///
/// * **v1** — tick-driven engine: energy/temperature integrated in fixed
///   substeps, scheduler segments re-folded on every poll.
/// * **v2** — event-driven engine: machine state is folded with closed-form
///   analytic integration at sync points and captured anchor-free (plain
///   scalars at the snapshot clock); scheduler segments are barrier-folded
///   at every fence. The serialized *fields* match v1, but the float bits a
///   replay produces do not, so v1 snapshots are rejected with
///   [`SnapError::BadVersion`] instead of silently diverging.
/// * **v3** — the machine gains a `powered` flag (fleet node crash/restart
///   support): a trailing bool in the machine block, and unpowered windows
///   integrate with pure Newton cooling and zero energy. v2 blobs lack the
///   field and are rejected.
/// * **v4** — service runs: `RunStats` grows three trailing counters
///   (`requests_shed`/`retries_spent`/`slo_violations`) and the scheduler
///   block gains a trailing service section (live-request table plus the
///   request source's framed state). v3 blobs would misalign on the stats
///   extension and are rejected.
pub const SNAP_VERSION: u32 = 4;

/// Errors surfaced while encoding or decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Byte offset of the failed read.
        at: usize,
        /// Bytes the read needed.
        wanted: usize,
    },
    /// The buffer does not start with [`SNAP_MAGIC`].
    BadMagic(u64),
    /// The snapshot was written by an incompatible format version.
    BadVersion(u32),
    /// The restoring configuration does not match the captured one.
    FingerprintMismatch {
        /// Fingerprint of the restoring configuration.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
    /// The state cannot be captured (e.g. an opaque closure task).
    Unsupported(&'static str),
    /// A decoded value is structurally invalid for the target state.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { at, wanted } => {
                write!(f, "snapshot truncated at byte {at} (wanted {wanted} more)")
            }
            SnapError::BadMagic(m) => write!(f, "not a snapshot (magic {m:#018x})"),
            SnapError::BadVersion(v) => {
                write!(f, "snapshot version {v} unsupported (expected {SNAP_VERSION})")
            }
            SnapError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot was captured under a different configuration \
                 (fingerprint {found:#018x}, this config is {expected:#018x})"
            ),
            SnapError::Unsupported(what) => write!(f, "state not snapshottable: {what}"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash, used for configuration fingerprints.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only snapshot encoder.
#[derive(Default, Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Write the snapshot header: magic, version, config fingerprint.
    pub fn header(&mut self, config_fingerprint: u64) {
        self.u64(SNAP_MAGIC);
        self.u32(SNAP_VERSION);
        self.u64(config_fingerprint);
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Write an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.bool(false),
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
        }
    }

    /// Write a length-prefixed byte blob (used to frame nested sections).
    pub fn blob(&mut self, bytes: &[u8]) {
        self.len(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential snapshot decoder over a byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapError::Truncated { at: self.pos, wanted: n });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read and validate the header; returns the stored config fingerprint.
    pub fn header(&mut self, expected_fingerprint: u64) -> Result<u64, SnapError> {
        let magic = self.u64()?;
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic(magic));
        }
        let version = self.u32()?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let found = self.u64()?;
        if found != expected_fingerprint {
            return Err(SnapError::FingerprintMismatch { expected: expected_fingerprint, found });
        }
        Ok(found)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Read a `u64`-encoded length, bounds-checked against the remaining
    /// buffer so a corrupt count cannot trigger a huge allocation.
    // A decode operation, not a container query — `is_empty` doesn't apply.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, SnapError> {
        let n = self.u64()?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(SnapError::Corrupt("length prefix exceeds remaining bytes"));
        }
        Ok(n as usize)
    }

    /// Read an `f64` from its stored bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a one-byte boolean (values other than 0/1 are corrupt).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("boolean byte out of range")),
        }
    }

    /// Read an optional `u64` written by [`SnapWriter::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Read a length-prefixed byte blob.
    pub fn blob(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.blob()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt("invalid UTF-8 string"))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the whole buffer was consumed (trailing garbage is corrupt).
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after snapshot"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(1234);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.u128(u128::MAX / 3);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.opt_u64(None);
        w.opt_u64(Some(42));
        w.str("maestro");
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.str().unwrap(), "maestro");
        r.finish().unwrap();
    }

    #[test]
    fn header_checks_magic_version_fingerprint() {
        let fp = fingerprint(b"config");
        let mut w = SnapWriter::new();
        w.header(fp);
        let bytes = w.finish();
        let mut ok = SnapReader::new(&bytes);
        assert_eq!(ok.header(fp).unwrap(), fp);
        let mut wrong_fp = SnapReader::new(&bytes);
        assert!(matches!(
            wrong_fp.header(fp ^ 1),
            Err(SnapError::FingerprintMismatch { .. })
        ));
        let mut garbage = SnapReader::new(&[0u8; 20]);
        assert!(matches!(garbage.header(fp), Err(SnapError::BadMagic(_))));
    }

    #[test]
    fn v1_snapshots_rejected() {
        // A pre-event-core (v1) snapshot would restore into an engine whose
        // integration derives different float bits — it must be refused
        // outright, never reinterpreted.
        let fp = fingerprint(b"config");
        let mut w = SnapWriter::new();
        w.header(fp);
        let mut bytes = w.finish();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.header(fp), Err(SnapError::BadVersion(1))));
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(99);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes[..4]);
        assert!(matches!(r.u64(), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd length
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.blob(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn fingerprint_distinguishes_inputs() {
        assert_ne!(fingerprint(b"a"), fingerprint(b"b"));
        assert_eq!(fingerprint(b"same"), fingerprint(b"same"));
    }

    #[test]
    fn blobs_frame_nested_sections() {
        let mut inner = SnapWriter::new();
        inner.u64(5);
        inner.f64(2.5);
        let inner_bytes = inner.finish();
        let mut outer = SnapWriter::new();
        outer.blob(&inner_bytes);
        outer.u8(0xAB);
        let bytes = outer.finish();
        let mut r = SnapReader::new(&bytes);
        let section = r.blob().unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        let mut s = SnapReader::new(section);
        assert_eq!(s.u64().unwrap(), 5);
        assert_eq!(s.f64().unwrap(), 2.5);
        s.finish().unwrap();
    }
}
