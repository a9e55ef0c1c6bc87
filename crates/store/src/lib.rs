//! Durable, checksummed snapshot store for Rotary's arbitrator state.
//!
//! The paper checkpoints *jobs* to disk (§VI "Implementation Choices");
//! this crate makes the **arbitrator itself** restartable. A snapshot is a
//! flat list of named binary records (each subsystem serialises itself into
//! one record) written in a versioned, length-prefixed container with a
//! CRC32 per record. Commits are atomic — encode to `snap-<g>.rsnp.tmp`,
//! `fsync`, then rename — and snapshots are generation-numbered so a
//! corrupted newest generation falls back to the newest *valid* one rather
//! than aborting recovery.
//!
//! Corruption never panics: every validation failure surfaces as a typed
//! [`RotaryError::SnapshotCorrupt`] or [`RotaryError::SnapshotVersion`],
//! and [`Corruption`] models torn writes and bit flips deterministically so
//! the fault layer (`rotary-faults`) can exercise recovery in tests.
//!
//! ## Container format (version 1)
//!
//! ```text
//! magic   4 bytes  "RSNP"
//! version u16 LE   format version (= 1)
//! count   u32 LE   number of records
//! then per record:
//!   name_len    u32 LE
//!   payload_len u32 LE
//!   name        name_len bytes (UTF-8)
//!   payload     payload_len bytes
//!   crc32       u32 LE, IEEE polynomial, over name ‖ payload
//! ```
//!
//! The record count in the header makes torn writes always detectable: a
//! truncated file either cuts a record short (length check) or drops whole
//! records (count check). The version field is deliberately *outside* any
//! checksum so a bit flip there reads as an unsupported version — a typed
//! [`RotaryError::SnapshotVersion`] — rather than vanishing into a CRC
//! mismatch.

#![warn(missing_docs)]

use rotary_core::error::{Result, RotaryError};
use rotary_core::json::{self, Json};
use std::path::{Path, PathBuf};

/// The container format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

/// The four magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 4] = b"RSNP";

/// File extension for committed snapshot generations.
const EXTENSION: &str = "rsnp";

// ---------------------------------------------------------------------------
// CRC32 (IEEE), slicing-by-8 over const tables.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic one-byte table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets eight input bytes
/// be folded in with eight independent lookups instead of a chain of eight.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Folds `bytes` into a running CRC register (the pre-inversion state),
/// eight bytes per step.
fn crc_fold(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC32 of the concatenation of `parts`, without concatenating them: a
/// record's checksum covers `name ‖ payload`, which live in two buffers.
fn crc32_of(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(0xFFFF_FFFF, |crc, part| crc_fold(crc, part))
}

/// CRC32 (IEEE 802.3 polynomial, reflected) of a byte string.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_of(&[bytes])
}

/// FNV-1a hash of a byte string — used by the systems to fingerprint the
/// configuration a snapshot was taken under, so a snapshot is never restored
/// into a run it does not describe.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Encode / decode.
// ---------------------------------------------------------------------------

/// The payload of one snapshot: named records in commit order.
pub type SnapshotRecords = Vec<(String, Vec<u8>)>;

fn corrupt(detail: String) -> RotaryError {
    RotaryError::SnapshotCorrupt { detail }
}

/// The payload of the record called `name`.
///
/// # Errors
/// [`RotaryError::SnapshotCorrupt`] when the snapshot has no such record.
pub fn record_bytes<'r>(records: &'r [(String, Vec<u8>)], name: &str) -> Result<&'r [u8]> {
    records
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, payload)| payload.as_slice())
        .ok_or_else(|| corrupt(format!("missing '{name}' record")))
}

/// The record called `name`, as UTF-8 text.
///
/// # Errors
/// [`RotaryError::SnapshotCorrupt`] when it is missing or not UTF-8.
pub fn record_text<'r>(records: &'r [(String, Vec<u8>)], name: &str) -> Result<&'r str> {
    std::str::from_utf8(record_bytes(records, name)?)
        .map_err(|_| corrupt(format!("record '{name}' is not UTF-8")))
}

/// The record called `name`, parsed as a JSON document.
///
/// # Errors
/// [`RotaryError::SnapshotCorrupt`] when it is missing, not UTF-8, or does
/// not parse.
pub fn record_json(records: &[(String, Vec<u8>)], name: &str) -> Result<Json> {
    json::parse(record_text(records, name)?).map_err(|e| corrupt(format!("record '{name}': {e}")))
}

/// The record called `name` holding `doc` — the writing side of
/// [`record_json`]. Records are compact JSON: they sit inside a CRC-framed
/// container nobody reads by eye, where indentation would be more than half
/// of a large record's bytes, and [`record_json`] ignores whitespace, so
/// pretty-written records of older snapshots read back the same.
pub fn json_record(name: &str, doc: &Json) -> (String, Vec<u8>) {
    (name.to_string(), doc.to_compact().into_bytes())
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises named records into the version-1 container format.
///
/// # Errors
/// A record name or payload longer than `u32::MAX` bytes, or more than
/// `u32::MAX` records, is rejected as [`RotaryError::InvalidConfig`].
pub fn encode(records: &[(String, Vec<u8>)]) -> Result<Vec<u8>> {
    let count = u32::try_from(records.len()).map_err(|_| {
        RotaryError::InvalidConfig(format!("{} records overflow u32", records.len()))
    })?;
    // Header (magic + version + count), then two lengths and a CRC around
    // each record: the output is allocated once, at its final size.
    let body: usize = records.iter().map(|(name, payload)| 12 + name.len() + payload.len()).sum();
    let mut out = Vec::with_capacity(10 + body);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    push_u32(&mut out, count);
    for (name, payload) in records {
        let name_len = u32::try_from(name.len()).map_err(|_| {
            RotaryError::InvalidConfig(format!("record name of {} bytes overflows u32", name.len()))
        })?;
        let payload_len = u32::try_from(payload.len()).map_err(|_| {
            RotaryError::InvalidConfig(format!(
                "record '{name}' payload of {} bytes overflows u32",
                payload.len()
            ))
        })?;
        push_u32(&mut out, name_len);
        push_u32(&mut out, payload_len);
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(payload);
        push_u32(&mut out, crc32_of(&[name.as_bytes(), payload]));
    }
    Ok(out)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            corrupt(format!(
                "truncated: {what} needs {n} bytes at offset {}, file has {}",
                self.pos,
                self.bytes.len()
            ))
        })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u16_le(&mut self, what: &str) -> Result<u16> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Parses and validates a version-1 container, returning its records.
///
/// # Errors
/// [`RotaryError::SnapshotVersion`] when the version field does not match
/// [`FORMAT_VERSION`]; [`RotaryError::SnapshotCorrupt`] for every other
/// defect — bad magic, truncation, a CRC mismatch, invalid UTF-8 in a name,
/// or trailing bytes after the last record. Never panics.
pub fn decode(bytes: &[u8]) -> Result<Vec<(String, Vec<u8>)>> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:02x?}, expected {MAGIC:02x?}")));
    }
    let version = r.u16_le("version")?;
    if version != FORMAT_VERSION {
        return Err(RotaryError::SnapshotVersion { found: version, supported: FORMAT_VERSION });
    }
    let count = r.u32_le("record count")?;
    let mut records = Vec::new();
    for i in 0..count {
        let name_len = r.u32_le("name length")? as usize;
        let payload_len = r.u32_le("payload length")? as usize;
        let name_bytes = r.take(name_len, "record name")?;
        let payload = r.take(payload_len, "record payload")?;
        let stored_crc = r.u32_le("record checksum")?;
        let actual = crc32_of(&[name_bytes, payload]);
        if actual != stored_crc {
            return Err(corrupt(format!(
                "record {i} CRC mismatch: stored {stored_crc:08x}, computed {actual:08x}"
            )));
        }
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| corrupt(format!("record {i} name is not UTF-8")))?
            .to_string();
        records.push((name, payload.to_vec()));
    }
    if r.pos != bytes.len() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last record",
            bytes.len() - r.pos
        )));
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// Deterministic corruption (consumed by rotary-faults).
// ---------------------------------------------------------------------------

/// A deterministic way to damage an encoded snapshot before it reaches
/// disk. Both variants are pure functions of their parameters, so the fault
/// layer can derive them from `(seed, generation)` and replays stay
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// A torn write: only a prefix of the file reaches disk. Keeps
    /// `⌊(len − 1) · keep_fraction⌋` bytes, so at least the final byte is
    /// always lost.
    Torn {
        /// Fraction of the file (minus one byte) that survives, in `[0, 1]`.
        keep_fraction: f64,
    },
    /// A single flipped bit.
    BitFlip {
        /// Position of the damaged byte as a fraction of the file length,
        /// clamped to the last byte.
        offset_fraction: f64,
        /// Which bit of that byte flips (`bit % 8`).
        bit: u8,
    },
}

impl Corruption {
    /// Applies the damage in place. Empty buffers are left untouched.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        match *self {
            Corruption::Torn { keep_fraction } => {
                let frac = keep_fraction.clamp(0.0, 1.0);
                let keep = ((bytes.len() - 1) as f64 * frac) as usize;
                bytes.truncate(keep);
            }
            Corruption::BitFlip { offset_fraction, bit } => {
                let frac = offset_fraction.clamp(0.0, 1.0);
                let offset = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
                bytes[offset] ^= 1 << (bit % 8);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The generation-numbered store.
// ---------------------------------------------------------------------------

fn io_err(path: &Path, e: std::io::Error) -> RotaryError {
    RotaryError::Persistence(format!("{}: {e}", path.display()))
}

/// A directory of generation-numbered snapshot files with atomic commits
/// and corruption fallback.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory.
    ///
    /// # Errors
    /// [`RotaryError::Persistence`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<SnapshotStore> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        Ok(SnapshotStore { dir: dir.to_path_buf() })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("snap-{generation}.{EXTENSION}"))
    }

    /// Atomically commits a snapshot generation: encode, optionally damage
    /// (fault injection), write to a temp file, `fsync`, rename into place.
    ///
    /// # Errors
    /// [`RotaryError::Persistence`] on I/O failure; encode errors pass
    /// through.
    pub fn commit(
        &self,
        generation: u64,
        records: &[(String, Vec<u8>)],
        corruption: Option<&Corruption>,
    ) -> Result<()> {
        let mut bytes = encode(records)?;
        if let Some(c) = corruption {
            c.apply(&mut bytes);
        }
        let tmp = self.dir.join(format!("snap-{generation}.{EXTENSION}.tmp"));
        let final_path = self.path_of(generation);
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
            f.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        std::fs::rename(&tmp, &final_path).map_err(|e| io_err(&final_path, e))?;
        Ok(())
    }

    /// Committed generation numbers, ascending. Files that do not match the
    /// `snap-<n>.rsnp` pattern (including leftover `.tmp` files from an
    /// interrupted commit) are ignored.
    ///
    /// # Errors
    /// [`RotaryError::Persistence`] when the directory cannot be listed.
    pub fn generations(&self) -> Result<Vec<u64>> {
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        let mut generations = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(&format!(".{EXTENSION}")) else { continue };
            let Some(num) = stem.strip_prefix("snap-") else { continue };
            if let Ok(g) = num.parse::<u64>() {
                generations.push(g);
            }
        }
        generations.sort_unstable();
        Ok(generations)
    }

    /// Loads and validates one generation.
    ///
    /// # Errors
    /// [`RotaryError::Persistence`] when the file cannot be read; decode
    /// errors ([`RotaryError::SnapshotCorrupt`] /
    /// [`RotaryError::SnapshotVersion`]) pass through.
    pub fn load(&self, generation: u64) -> Result<Vec<(String, Vec<u8>)>> {
        let path = self.path_of(generation);
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        decode(&bytes)
    }

    /// The newest generation that validates, with its records. Corrupted or
    /// version-mismatched generations are skipped (newest first); `None`
    /// when no generation validates.
    ///
    /// # Errors
    /// [`RotaryError::Persistence`] on I/O failure — a file that cannot be
    /// *read* is an environment problem, not a corruption to skip.
    pub fn latest_valid(&self) -> Result<Option<(u64, SnapshotRecords)>> {
        for generation in self.generations()?.into_iter().rev() {
            match self.load(generation) {
                Ok(records) => return Ok(Some((generation, records))),
                Err(RotaryError::SnapshotCorrupt { .. } | RotaryError::SnapshotVersion { .. }) => {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Durable-run configuration shared by the AQP and DLT systems.
// ---------------------------------------------------------------------------

/// How a system runs with durable snapshots: where they go and how often
/// they are taken. Snapshotting is opt-in — plain `run()` never touches
/// disk, so existing traces stay byte-identical.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory holding the generation-numbered snapshot files.
    pub dir: PathBuf,
    /// Take a snapshot every this many granted epochs (must be ≥ 1).
    pub every: u64,
    /// Stop the run right after committing this generation — simulates a
    /// process kill at a snapshot boundary, for crash-restart tests.
    pub halt_after: Option<u64>,
}

impl DurableConfig {
    /// A config snapshotting every `every` epochs into `dir`, never halting.
    pub fn new(dir: &Path, every: u64) -> DurableConfig {
        DurableConfig { dir: dir.to_path_buf(), every, halt_after: None }
    }

    /// Rejects a zero snapshot interval.
    ///
    /// # Errors
    /// [`RotaryError::InvalidConfig`] when `every` is zero.
    pub fn validate(&self) -> Result<()> {
        if self.every == 0 {
            return Err(RotaryError::InvalidConfig(
                "snapshot interval must be at least 1 epoch".into(),
            ));
        }
        Ok(())
    }
}

/// The outcome of a durable run: either it finished, or it halted at the
/// requested snapshot generation (see [`DurableConfig::halt_after`]).
#[derive(Debug)]
pub enum DurableOutcome<R> {
    /// The run finished; the result is the same type `run()` returns.
    Completed(R),
    /// The run stopped right after committing `generation`.
    Halted {
        /// The snapshot generation on disk at the stop point.
        generation: u64,
    },
}

impl<R> DurableOutcome<R> {
    /// Unwraps a completed run's result; `None` when the run halted.
    pub fn completed(self) -> Option<R> {
        match self {
            DurableOutcome::Completed(r) => Some(r),
            DurableOutcome::Halted { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rotary-store-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<(String, Vec<u8>)> {
        vec![
            ("meta".to_string(), b"{\"generation\": 3}".to_vec()),
            ("jobs".to_string(), vec![0u8, 1, 2, 255, 254, 253]),
            ("empty".to_string(), Vec::new()),
        ]
    }

    #[test]
    fn crc32_known_answer() {
        // The canonical IEEE CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time table loop the library used before slicing-by-8;
    /// kept as the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slicing_matches_bytewise_at_every_short_length_and_alignment() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(151) ^ (i >> 2)) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn slicing_matches_bytewise_on_random_buffers() {
        rotary_check::check("crc32-slicing-vs-bytewise", |src| {
            // Skewed towards short inputs, reaching 64 KiB.
            let cap = *src.pick(&[16, 300, 4096, 65_536]);
            let len = src.usize_in(0, cap);
            let mut word = src.raw();
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    word = word
                        .wrapping_mul(0x5851_F42D_4C95_7F2D)
                        .wrapping_add(0x1405_7B7E_F767_814F);
                    (word >> 56) as u8
                })
                .collect();
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "len {len}");
        });
    }

    #[test]
    fn feeding_in_two_pieces_equals_one_shot_at_every_split() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i.wrapping_mul(89) ^ (i >> 3)) as u8).collect();
        let whole = crc32(&bytes);
        for cut in 0..=bytes.len() {
            assert_eq!(crc32_of(&[&bytes[..cut], &bytes[cut..]]), whole, "cut {cut}");
        }
    }

    #[test]
    fn fnv1a_known_answer() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn encode_decode_round_trips() {
        let records = sample_records();
        let bytes = encode(&records).unwrap();
        assert_eq!(decode(&bytes).unwrap(), records);
        // Empty record list is a valid snapshot too.
        assert_eq!(decode(&encode(&[]).unwrap()).unwrap(), Vec::new());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode(&sample_records()).unwrap();
        for byte_idx in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut damaged = bytes.clone();
                damaged[byte_idx] ^= 1 << bit;
                let result = decode(&damaged);
                assert!(
                    matches!(
                        result,
                        Err(RotaryError::SnapshotCorrupt { .. }
                            | RotaryError::SnapshotVersion { .. })
                    ),
                    "flip at byte {byte_idx} bit {bit} slipped through: {result:?}"
                );
            }
        }
    }

    #[test]
    fn version_flips_surface_as_typed_version_errors() {
        let bytes = encode(&sample_records()).unwrap();
        // Bytes 4..6 hold the version; any flip there must be the typed
        // version error, not a generic corruption.
        for byte_idx in 4..6 {
            let mut damaged = bytes.clone();
            damaged[byte_idx] ^= 1;
            match decode(&damaged) {
                Err(RotaryError::SnapshotVersion { found, supported }) => {
                    assert_ne!(found, FORMAT_VERSION);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                other => unreachable!("version flip gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode(&sample_records()).unwrap();
        for keep in 0..bytes.len() {
            let result = decode(&bytes[..keep]);
            assert!(
                matches!(result, Err(RotaryError::SnapshotCorrupt { .. })),
                "truncation to {keep} bytes slipped through: {result:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = encode(&sample_records()).unwrap();
        bytes.push(0);
        match decode(&bytes) {
            Err(RotaryError::SnapshotCorrupt { detail }) => {
                assert!(detail.contains("trailing"), "{detail}");
            }
            other => unreachable!("trailing byte gave {other:?}"),
        }
    }

    #[test]
    fn corruption_apply_is_deterministic() {
        let bytes = encode(&sample_records()).unwrap();
        let torn = Corruption::Torn { keep_fraction: 0.5 };
        let mut a = bytes.clone();
        let mut b = bytes.clone();
        torn.apply(&mut a);
        torn.apply(&mut b);
        assert_eq!(a, b);
        assert!(a.len() < bytes.len(), "torn write always drops at least one byte");

        let flip = Corruption::BitFlip { offset_fraction: 0.99, bit: 9 };
        let mut c = bytes.clone();
        flip.apply(&mut c);
        assert_eq!(c.len(), bytes.len());
        assert_eq!(c.iter().zip(&bytes).filter(|(x, y)| x != y).count(), 1);
        // Torn at keep_fraction 1.0 still drops the last byte.
        let mut d = bytes.clone();
        Corruption::Torn { keep_fraction: 1.0 }.apply(&mut d);
        assert_eq!(d.len(), bytes.len() - 1);
    }

    #[test]
    fn store_commit_load_and_generations() {
        let dir = temp_dir("basic");
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.generations().unwrap(), Vec::<u64>::new());
        assert!(store.latest_valid().unwrap().is_none());

        let records = sample_records();
        store.commit(1, &records, None).unwrap();
        store.commit(2, &records, None).unwrap();
        assert_eq!(store.generations().unwrap(), vec![1, 2]);
        assert_eq!(store.load(2).unwrap(), records);
        let (generation, loaded) = store.latest_valid().unwrap().unwrap();
        assert_eq!(generation, 2);
        assert_eq!(loaded, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fallback_skips_corrupt_generations() {
        let dir = temp_dir("fallback");
        let store = SnapshotStore::open(&dir).unwrap();
        let records = sample_records();
        store.commit(1, &records, None).unwrap();
        store.commit(2, &records, Some(&Corruption::Torn { keep_fraction: 0.6 })).unwrap();
        store
            .commit(3, &records, Some(&Corruption::BitFlip { offset_fraction: 0.5, bit: 2 }))
            .unwrap();
        // Generation 3 and 2 are damaged; 1 is the newest valid.
        let (generation, loaded) = store.latest_valid().unwrap().unwrap();
        assert_eq!(generation, 1);
        assert_eq!(loaded, records);
        // Direct loads of the damaged generations surface typed errors.
        assert!(matches!(store.load(2), Err(RotaryError::SnapshotCorrupt { .. })));
        assert!(matches!(store.load(3), Err(RotaryError::SnapshotCorrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_generations_corrupt_means_none() {
        let dir = temp_dir("all-bad");
        let store = SnapshotStore::open(&dir).unwrap();
        let records = sample_records();
        store.commit(1, &records, Some(&Corruption::Torn { keep_fraction: 0.0 })).unwrap();
        assert!(store.latest_valid().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_tmp_files_are_ignored() {
        let dir = temp_dir("tmp-left");
        let store = SnapshotStore::open(&dir).unwrap();
        store.commit(1, &sample_records(), None).unwrap();
        // Simulate a crash mid-commit: a .tmp file that never got renamed.
        std::fs::write(dir.join("snap-2.rsnp.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"noise").unwrap();
        assert_eq!(store.generations().unwrap(), vec![1]);
        assert_eq!(store.latest_valid().unwrap().unwrap().0, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_config_validates_interval() {
        let cfg = DurableConfig::new(Path::new("/tmp/x"), 0);
        assert!(matches!(cfg.validate(), Err(RotaryError::InvalidConfig(_))));
        assert!(DurableConfig::new(Path::new("/tmp/x"), 1).validate().is_ok());
    }

    #[test]
    fn random_records_round_trip() {
        rotary_check::check("store-round-trip", |src| {
            let n = src.usize_in(0, 9);
            let records: Vec<(String, Vec<u8>)> = (0..n)
                .map(|i| {
                    let payload = src.vec_of(0, 300, |s| s.u64_in(0, 255) as u8);
                    (format!("record-{i}-\u{00b5}"), payload)
                })
                .collect();
            let bytes = encode(&records).unwrap();
            assert_eq!(decode(&bytes).unwrap(), records);
        });
    }
}
