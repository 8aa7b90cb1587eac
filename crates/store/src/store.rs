//! The [`ResultStore`]: an append-only record log with a compact rebuildable index and a
//! single-writer lock.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::StoreError;

/// File name of the append-only record log inside a store directory.
pub const LOG_FILE: &str = "results.log";
/// File name of the rebuildable index inside a store directory.
pub const INDEX_FILE: &str = "index.bin";
/// File name of the single-writer lock inside a store directory.
pub const LOCK_FILE: &str = "lock";

/// The on-disk format version this build reads and writes (log and index share it).
pub const FORMAT_VERSION: u16 = 2;

const LOG_MAGIC: &[u8; 8] = b"ATHSTORE";
const INDEX_MAGIC: &[u8; 8] = b"ATHINDEX";
/// Log/index file header: 8 magic bytes, a little-endian u16 version, 6 reserved bytes.
const HEADER_LEN: u64 = 16;
/// Per-record header: identity u64, variant u64, payload length u32, payload checksum u64.
const RECORD_HEADER_LEN: u64 = 28;
/// Per-entry index size: identity u64, variant u64, offset u64, length u32, checksum u64.
const INDEX_ENTRY_LEN: usize = 36;

/// The state [`hash64`] starts from for a [`checksum`] (and the engine's seed hasher starts
/// from for an identity): the first 64 fraction bits of π.
pub const HASH_START: u64 = 0x243f_6a88_85a3_08d3;

/// The per-word multiplier of [`hash64`]: odd, so multiplying is a bijection, and
/// ≡ 5 (mod 8), so a one-bit difference below bit 62 never leaves the multiply as a
/// one-bit difference (the fold in `hash_step` handles bits 62 and 63).
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of [`hash64`]: xor the word in, multiply, fold the high half down.
///
/// For a fixed word the step is a bijection of the state, and for a fixed state a
/// bijection of the word. The fold matters: without it a flip of bit 63 stays bit 63
/// through every later multiply, and a second flip of bit 63 in any later word cancels it.
#[inline(always)]
fn hash_step(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(HASH_MUL);
    x ^ (x >> 32)
}

/// Absorbs `bytes` into a hash `state`, one little-endian 8-byte word per step (the last
/// word zero-padded), then the byte length as one more word, and returns the new state.
///
/// This is the one hash of the workspace: [`checksum`] (store records, the index file,
/// distributed frames) and the engine's identity hasher are built on it. Each step is a
/// bijection of the state, so a payload that differs from another of its length in one
/// word always hashes differently; two bit flips in adjacent words always do too (see
/// `HASH_MUL`); any other difference collides with the odds of a 64-bit hash. Because the
/// length is folded in last, consecutive calls hash length-delimited parts.
pub fn hash64(mut state: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = word
            .try_into()
            .expect("chunks_exact(8) yields 8-byte words");
        state = hash_step(state, u64::from_le_bytes(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        state = hash_step(state, u64::from_le_bytes(word));
    }
    hash_step(state, bytes.len() as u64)
}

/// The checksum of `bytes`: [`hash64`] from [`HASH_START`]. Stamped on record payloads,
/// the index file and distributed frames; exposed so integrity tests can forge and
/// verify checksums.
pub fn checksum(bytes: &[u8]) -> u64 {
    hash64(HASH_START, bytes)
}

/// How the engine uses a store during a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorePolicy {
    /// Serve cached results and append every newly simulated one (the default).
    #[default]
    ReadWrite,
    /// Serve cached results but never write (no lock is taken; safe on a read-only
    /// filesystem or against a store another process is writing).
    ReadOnly,
    /// Ignore cached results, re-simulate everything and append the fresh results
    /// (superseding the old records; reclaim the bytes with `results gc`).
    Refresh,
}

impl StorePolicy {
    /// The policy's CLI name (`rw`, `ro`, `refresh`).
    pub fn name(&self) -> &'static str {
        match self {
            StorePolicy::ReadWrite => "rw",
            StorePolicy::ReadOnly => "ro",
            StorePolicy::Refresh => "refresh",
        }
    }

    /// Parses a CLI name (the inverse of [`StorePolicy::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "rw" => Some(StorePolicy::ReadWrite),
            "ro" => Some(StorePolicy::ReadOnly),
            "refresh" => Some(StorePolicy::Refresh),
            _ => None,
        }
    }

    /// Whether batches consult the store before simulating.
    pub fn reads(&self) -> bool {
        matches!(self, StorePolicy::ReadWrite | StorePolicy::ReadOnly)
    }

    /// Whether batches append newly simulated results.
    pub fn writes(&self) -> bool {
        matches!(self, StorePolicy::ReadWrite | StorePolicy::Refresh)
    }
}

/// The key of one stored record: the canonical job-identity hash plus an output-variant
/// discriminator (covering the run facets that affect the *output* without being part of
/// the identity — seed policy and telemetry windowing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordKey {
    /// `Job::identity_hash()` of the cell.
    pub identity: u64,
    /// Output-variant hash (see `athena-engine`'s store module for the derivation).
    pub variant: u64,
}

/// Where one live record's payload sits in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    /// Byte offset of the record header in the log.
    offset: u64,
    /// Payload length in bytes.
    len: u32,
    /// [`checksum`] of the payload.
    checksum: u64,
}

/// Counts and sizes of a store, as reported by [`ResultStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Records reachable through the index (one per distinct key).
    pub live_records: u64,
    /// Records ever appended, including superseded ones still occupying log bytes.
    pub total_records: u64,
    /// Log size in bytes (header included).
    pub log_bytes: u64,
}

impl StoreStats {
    /// Records whose bytes are still in the log but no longer reachable (re-put keys).
    pub fn superseded(&self) -> u64 {
        self.total_records - self.live_records
    }
}

/// What [`ResultStore::gc`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Live records kept.
    pub kept: u64,
    /// Superseded records dropped.
    pub dropped: u64,
    /// Log bytes before compaction.
    pub bytes_before: u64,
    /// Log bytes after compaction.
    pub bytes_after: u64,
}

/// What [`ResultStore::verify`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Records scanned in the log (live and superseded).
    pub records_scanned: u64,
    /// Payload bytes whose checksums were verified.
    pub payload_bytes: u64,
    /// Live records cross-checked against the index.
    pub live_records: u64,
}

/// Removes the lock file when the store (or a failed open) lets go of it.
#[derive(Debug)]
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// A persistent content-addressed record store over one directory.
///
/// See the crate docs for the on-disk layout and the failure discipline. Writers take the
/// single-writer lock for the lifetime of the handle; the index is rewritten on
/// [`ResultStore::flush`] and on drop, so a killed writer leaves a valid log with a stale
/// (prefix) index that the next open rescans and extends.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    log: File,
    log_len: u64,
    read_only: bool,
    index: BTreeMap<RecordKey, IndexEntry>,
    total_records: u64,
    dirty: bool,
    lock: Option<LockGuard>,
}

impl ResultStore {
    /// Opens (or, for writers, creates) the store in `dir`.
    ///
    /// `read_only` skips the single-writer lock and refuses [`ResultStore::put`]; a
    /// read-only open of a directory with no log is [`StoreError::Missing`]. A writer
    /// open creates the directory and an empty log as needed, and fails with
    /// [`StoreError::Locked`] while another live process holds the lock (a dead
    /// process's stale lock is reclaimed).
    pub fn open(dir: impl Into<PathBuf>, read_only: bool) -> Result<Self, StoreError> {
        let dir = dir.into();
        let log_path = dir.join(LOG_FILE);
        let mut lock = None;
        if !read_only {
            fs::create_dir_all(&dir)?;
            lock = Some(acquire_lock(&dir)?);
        }
        if !log_path.is_file() {
            if read_only {
                return Err(StoreError::Missing(dir));
            }
            let mut f = File::create(&log_path)?;
            f.write_all(LOG_MAGIC)?;
            f.write_all(&FORMAT_VERSION.to_le_bytes())?;
            f.write_all(&[0u8; 6])?;
            f.sync_all()?;
        }
        let mut log = OpenOptions::new()
            .read(true)
            .write(!read_only)
            .open(&log_path)?;
        let log_len = log.seek(SeekFrom::End(0))?;
        check_header(&mut log, log_len, LOG_MAGIC, "log")?;

        let mut store = Self {
            dir,
            log,
            log_len,
            read_only,
            index: BTreeMap::new(),
            total_records: 0,
            dirty: false,
            lock,
        };
        let scan_from = match store.load_index()? {
            Some(covered) => covered,
            None => HEADER_LEN,
        };
        if scan_from < store.log_len {
            store.scan_log(scan_from)?;
            // The index lagged the log (or was absent): it must be rewritten on close
            // even if this session appends nothing.
            store.dirty = !store.read_only;
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counts and sizes (live records, superseded records, log bytes).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            live_records: self.index.len() as u64,
            total_records: self.total_records,
            log_bytes: self.log_len,
        }
    }

    /// Every live key, in deterministic (identity, variant) order.
    pub fn keys(&self) -> Vec<RecordKey> {
        self.index.keys().copied().collect()
    }

    /// Whether a live record exists for `key`.
    pub fn contains(&self, key: RecordKey) -> bool {
        self.index.contains_key(&key)
    }

    /// Reads the live payload for `key`, verifying its checksum.
    ///
    /// `Ok(None)` means the key has no record; a checksum mismatch or short read is
    /// [`StoreError::Corrupt`] — a flipped payload byte can never be served as a result.
    pub fn get(&mut self, key: RecordKey) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(entry) = self.index.get(&key).copied() else {
            return Ok(None);
        };
        self.log
            .seek(SeekFrom::Start(entry.offset + RECORD_HEADER_LEN))?;
        // Read into spare capacity: the read overwrites every byte, so zeroing the buffer
        // first is wasted work.
        let mut payload = Vec::with_capacity(entry.len as usize);
        let read = (&mut self.log)
            .take(u64::from(entry.len))
            .read_to_end(&mut payload);
        if read.is_err() || payload.len() != entry.len as usize {
            return Err(StoreError::corrupt(
                "log",
                entry.offset,
                format!("record payload truncated (expected {} bytes)", entry.len),
            ));
        }
        if checksum(&payload) != entry.checksum {
            return Err(StoreError::corrupt(
                "log",
                entry.offset,
                format!(
                    "payload checksum mismatch for key {:#018x}/{:#018x}",
                    key.identity, key.variant
                ),
            ));
        }
        Ok(Some(payload))
    }

    /// Appends a record for `key`, superseding any previous record under the same key,
    /// and flushes it to the OS so a killed process loses at most the record being
    /// written (which the next open rejects as a truncated tail — delete the store or
    /// restore the index to recover; partial records are never silently dropped).
    pub fn put(&mut self, key: RecordKey, payload: &[u8]) -> Result<(), StoreError> {
        if self.read_only {
            return Err(StoreError::ReadOnlyStore);
        }
        let len = u32::try_from(payload.len()).map_err(|_| {
            StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "record payload exceeds 4 GiB",
            ))
        })?;
        let offset = self.log_len;
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        record.extend_from_slice(&key.identity.to_le_bytes());
        record.extend_from_slice(&key.variant.to_le_bytes());
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&checksum(payload).to_le_bytes());
        record.extend_from_slice(payload);
        self.log.seek(SeekFrom::Start(offset))?;
        self.log.write_all(&record)?;
        self.log.flush()?;
        self.log_len = offset + record.len() as u64;
        self.index.insert(
            key,
            IndexEntry {
                offset,
                len,
                checksum: checksum(payload),
            },
        );
        self.total_records += 1;
        self.dirty = true;
        Ok(())
    }

    /// Rewrites the index file to cover the current log. Called automatically on drop;
    /// call it explicitly to make an error observable.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.read_only || !self.dirty {
            return Ok(());
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(INDEX_MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 6]);
        bytes.extend_from_slice(&self.log_len.to_le_bytes());
        bytes.extend_from_slice(&self.total_records.to_le_bytes());
        bytes.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for (key, entry) in &self.index {
            bytes.extend_from_slice(&key.identity.to_le_bytes());
            bytes.extend_from_slice(&key.variant.to_le_bytes());
            bytes.extend_from_slice(&entry.offset.to_le_bytes());
            bytes.extend_from_slice(&entry.len.to_le_bytes());
            bytes.extend_from_slice(&entry.checksum.to_le_bytes());
        }
        bytes.extend_from_slice(&checksum(&bytes).to_le_bytes());
        let tmp = self.dir.join("index.tmp");
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, self.dir.join(INDEX_FILE))?;
        self.dirty = false;
        Ok(())
    }

    /// Compacts the log to its live records (dropping superseded bytes) and rewrites the
    /// index. The new log is built in a temporary file and atomically renamed over the
    /// old one.
    pub fn gc(&mut self) -> Result<GcReport, StoreError> {
        if self.read_only {
            return Err(StoreError::ReadOnlyStore);
        }
        let bytes_before = self.log_len;
        let dropped = self.total_records - self.index.len() as u64;
        let live: Vec<(RecordKey, Vec<u8>)> = {
            let keys = self.keys();
            let mut out = Vec::with_capacity(keys.len());
            for key in keys {
                let payload = self.get(key)?.expect("indexed key has a record");
                out.push((key, payload));
            }
            out
        };
        let tmp_path = self.dir.join("results.log.tmp");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(LOG_MAGIC)?;
        tmp.write_all(&FORMAT_VERSION.to_le_bytes())?;
        tmp.write_all(&[0u8; 6])?;
        let mut offset = HEADER_LEN;
        let mut index = BTreeMap::new();
        for (key, payload) in &live {
            let len = payload.len() as u32;
            let sum = checksum(payload);
            tmp.write_all(&key.identity.to_le_bytes())?;
            tmp.write_all(&key.variant.to_le_bytes())?;
            tmp.write_all(&len.to_le_bytes())?;
            tmp.write_all(&sum.to_le_bytes())?;
            tmp.write_all(payload)?;
            index.insert(
                *key,
                IndexEntry {
                    offset,
                    len,
                    checksum: sum,
                },
            );
            offset += RECORD_HEADER_LEN + u64::from(len);
        }
        tmp.sync_all()?;
        drop(tmp);
        fs::rename(&tmp_path, self.dir.join(LOG_FILE))?;
        self.log = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.dir.join(LOG_FILE))?;
        self.log_len = offset;
        self.total_records = index.len() as u64;
        self.index = index;
        self.dirty = true;
        self.flush()?;
        Ok(GcReport {
            kept: self.index.len() as u64,
            dropped,
            bytes_before,
            bytes_after: self.log_len,
        })
    }

    /// Full integrity pass: rescans the whole log structurally, verifies every record's
    /// payload checksum (superseded records included), and cross-checks that the scan's
    /// live set matches the loaded index exactly.
    pub fn verify(&mut self) -> Result<VerifyReport, StoreError> {
        let mut offset = HEADER_LEN;
        let mut live: BTreeMap<RecordKey, IndexEntry> = BTreeMap::new();
        let mut records = 0u64;
        let mut payload_bytes = 0u64;
        while offset < self.log_len {
            let (key, entry) = self.read_record_header(offset)?;
            self.log
                .seek(SeekFrom::Start(entry.offset + RECORD_HEADER_LEN))?;
            let mut payload = vec![0u8; entry.len as usize];
            self.log.read_exact(&mut payload).map_err(|_| {
                StoreError::corrupt("log", offset, "record payload truncated".to_string())
            })?;
            if checksum(&payload) != entry.checksum {
                return Err(StoreError::corrupt(
                    "log",
                    offset,
                    "payload checksum mismatch".to_string(),
                ));
            }
            records += 1;
            payload_bytes += u64::from(entry.len);
            live.insert(key, entry);
            offset += RECORD_HEADER_LEN + u64::from(entry.len);
        }
        if live != self.index {
            return Err(StoreError::corrupt(
                "index",
                0,
                format!(
                    "index disagrees with the log ({} live entries indexed, {} scanned)",
                    self.index.len(),
                    live.len()
                ),
            ));
        }
        if records != self.total_records {
            return Err(StoreError::corrupt(
                "index",
                0,
                format!(
                    "index counts {} total records, the log holds {records}",
                    self.total_records
                ),
            ));
        }
        Ok(VerifyReport {
            records_scanned: records,
            payload_bytes,
            live_records: live.len() as u64,
        })
    }

    /// Reads and validates the 28-byte record header at `offset`, without touching the
    /// payload.
    fn read_record_header(&mut self, offset: u64) -> Result<(RecordKey, IndexEntry), StoreError> {
        if offset + RECORD_HEADER_LEN > self.log_len {
            return Err(StoreError::corrupt(
                "log",
                offset,
                format!(
                    "truncated record header ({} bytes left, {RECORD_HEADER_LEN} needed)",
                    self.log_len - offset
                ),
            ));
        }
        self.log.seek(SeekFrom::Start(offset))?;
        let mut header = [0u8; RECORD_HEADER_LEN as usize];
        self.log.read_exact(&mut header)?;
        let identity = u64::from_le_bytes(header[0..8].try_into().unwrap());
        let variant = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let len = u32::from_le_bytes(header[16..20].try_into().unwrap());
        let checksum = u64::from_le_bytes(header[20..28].try_into().unwrap());
        if offset + RECORD_HEADER_LEN + u64::from(len) > self.log_len {
            return Err(StoreError::corrupt(
                "log",
                offset,
                format!(
                    "truncated record payload (header claims {len} bytes, log ends after {})",
                    self.log_len - offset - RECORD_HEADER_LEN
                ),
            ));
        }
        Ok((
            RecordKey { identity, variant },
            IndexEntry {
                offset,
                len,
                checksum,
            },
        ))
    }

    /// Walks the log from `from` to its end, (re)building index entries for every record
    /// found. Payload checksums are *not* verified here (that is [`ResultStore::get`]'s
    /// and [`ResultStore::verify`]'s job); structure is.
    fn scan_log(&mut self, from: u64) -> Result<(), StoreError> {
        let mut offset = from;
        while offset < self.log_len {
            let (key, entry) = self.read_record_header(offset)?;
            self.index.insert(key, entry);
            self.total_records += 1;
            offset += RECORD_HEADER_LEN + u64::from(entry.len);
        }
        Ok(())
    }

    /// Loads `index.bin` if present, returning the log length it covers (the offset any
    /// tail rescan starts from). `Ok(None)` means no index file (full rescan). A
    /// structurally bad index — bad magic/version/checksum, or one covering more log
    /// than exists — is a loud error, never a silent rebuild: it is indistinguishable
    /// from store corruption, and recomputing over it would mask real damage.
    fn load_index(&mut self) -> Result<Option<u64>, StoreError> {
        let path = self.dir.join(INDEX_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        const FIXED: usize = HEADER_LEN as usize + 8 + 8 + 4; // header + covered + total + count
        if bytes.len() < FIXED + 8 {
            return Err(StoreError::corrupt(
                "index",
                bytes.len() as u64,
                "file shorter than its fixed header",
            ));
        }
        if &bytes[0..8] != INDEX_MAGIC {
            return Err(StoreError::BadMagic("index"));
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                file: "index",
                version,
            });
        }
        let body = &bytes[..bytes.len() - 8];
        let stored_checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if checksum(body) != stored_checksum {
            return Err(StoreError::corrupt(
                "index",
                bytes.len() as u64 - 8,
                "index checksum mismatch",
            ));
        }
        let covered = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let total = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let count = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        if covered > self.log_len {
            return Err(StoreError::corrupt(
                "log",
                self.log_len,
                format!(
                    "log is shorter ({} bytes) than the {covered} bytes the index covers \
                     — the log was truncated",
                    self.log_len
                ),
            ));
        }
        if body.len() != FIXED + count * INDEX_ENTRY_LEN {
            return Err(StoreError::corrupt(
                "index",
                FIXED as u64,
                format!(
                    "entry area is {} bytes, {count} entries need {}",
                    body.len() - FIXED,
                    count * INDEX_ENTRY_LEN
                ),
            ));
        }
        for i in 0..count {
            let at = FIXED + i * INDEX_ENTRY_LEN;
            let e = &bytes[at..at + INDEX_ENTRY_LEN];
            let key = RecordKey {
                identity: u64::from_le_bytes(e[0..8].try_into().unwrap()),
                variant: u64::from_le_bytes(e[8..16].try_into().unwrap()),
            };
            let entry = IndexEntry {
                offset: u64::from_le_bytes(e[16..24].try_into().unwrap()),
                len: u32::from_le_bytes(e[24..28].try_into().unwrap()),
                checksum: u64::from_le_bytes(e[28..36].try_into().unwrap()),
            };
            if entry.offset + RECORD_HEADER_LEN + u64::from(entry.len) > covered {
                return Err(StoreError::corrupt(
                    "index",
                    at as u64,
                    format!(
                        "entry {i} points past the covered log (offset {}, {} bytes)",
                        entry.offset, entry.len
                    ),
                ));
            }
            self.index.insert(key, entry);
        }
        self.total_records = total;
        Ok(Some(covered))
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        if let Err(e) = self.flush() {
            eprintln!(
                "warning: result store {} index not flushed: {e} (the next open rescans \
                 the log)",
                self.dir.display()
            );
        }
        // The lock guard (if any) removes the lock file after the index is safely down.
        self.lock = None;
    }
}

/// Validates a 16-byte store-file header.
fn check_header(
    file: &mut File,
    file_len: u64,
    magic: &[u8; 8],
    name: &'static str,
) -> Result<(), StoreError> {
    if file_len < HEADER_LEN {
        return Err(StoreError::corrupt(
            name,
            file_len,
            format!("file shorter than the {HEADER_LEN}-byte header"),
        ));
    }
    file.seek(SeekFrom::Start(0))?;
    let mut header = [0u8; HEADER_LEN as usize];
    file.read_exact(&mut header)?;
    if &header[0..8] != magic {
        return Err(StoreError::BadMagic(name));
    }
    let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: name,
            version,
        });
    }
    Ok(())
}

/// Takes the single-writer lock in `dir`, reclaiming it only when the recorded owner is
/// provably dead (its pid no longer exists under `/proc`; on systems without `/proc`, an
/// existing lock is always honoured).
fn acquire_lock(dir: &Path) -> Result<LockGuard, StoreError> {
    let path = dir.join(LOCK_FILE);
    for _ in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                f.write_all(std::process::id().to_string().as_bytes())?;
                return Ok(LockGuard { path });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let pid = fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match pid {
                    Some(pid) if !pid_alive(pid) => {
                        // Stale lock from a killed writer: reclaim and retry once.
                        let _ = fs::remove_file(&path);
                    }
                    _ => return Err(StoreError::Locked { path, pid }),
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(StoreError::Locked { path, pid: None })
}

/// Best-effort liveness check for a pid. Conservative: when `/proc` is unavailable the
/// answer is "alive", so locks are never stolen from a process we cannot observe.
fn pid_alive(pid: u32) -> bool {
    let proc_dir = Path::new("/proc");
    if proc_dir.is_dir() {
        proc_dir.join(pid.to_string()).is_dir()
    } else {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "athena-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(i: u64) -> RecordKey {
        RecordKey {
            identity: i,
            variant: 7,
        }
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let mut s = ResultStore::open(&dir, false).unwrap();
            s.put(key(1), b"one").unwrap();
            s.put(key(2), b"two").unwrap();
        }
        let mut s = ResultStore::open(&dir, true).unwrap();
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(s.get(key(2)).unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(s.get(key(3)).unwrap(), None);
        assert_eq!(s.stats().live_records, 2);
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reput_supersedes_and_gc_compacts() {
        let dir = tmp_dir("gc");
        let mut s = ResultStore::open(&dir, false).unwrap();
        s.put(key(1), b"old-payload").unwrap();
        s.put(key(1), b"new").unwrap();
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(s.stats().total_records, 2);
        assert_eq!(s.stats().superseded(), 1);
        let report = s.gc().unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.dropped, 1);
        assert!(report.bytes_after < report.bytes_before);
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"new"[..]));
        s.verify().unwrap();
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_index_is_rebuilt_by_scanning() {
        let dir = tmp_dir("rebuild");
        {
            let mut s = ResultStore::open(&dir, false).unwrap();
            s.put(key(1), b"payload").unwrap();
        }
        fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let mut s = ResultStore::open(&dir, false).unwrap();
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"payload"[..]));
        s.verify().unwrap();
        drop(s);
        // The rebuilt index was rewritten on drop.
        assert!(dir.join(INDEX_FILE).is_file());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_index_is_extended_by_a_tail_scan() {
        let dir = tmp_dir("tail");
        {
            let mut s = ResultStore::open(&dir, false).unwrap();
            s.put(key(1), b"first").unwrap();
            s.flush().unwrap();
            // Simulate a kill after a later append: the log grows, the index does not.
            s.put(key(2), b"second").unwrap();
            s.dirty = false; // suppress the index rewrite on drop
        }
        let mut s = ResultStore::open(&dir, true).unwrap();
        assert_eq!(s.get(key(1)).unwrap().as_deref(), Some(&b"first"[..]));
        assert_eq!(s.get(key(2)).unwrap().as_deref(), Some(&b"second"[..]));
        assert_eq!(s.stats().total_records, 2);
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_log_fails_loudly() {
        let dir = tmp_dir("trunc");
        {
            let mut s = ResultStore::open(&dir, false).unwrap();
            s.put(key(1), b"a-payload-of-some-length").unwrap();
        }
        let log = dir.join(LOG_FILE);
        let bytes = fs::read(&log).unwrap();
        fs::write(&log, &bytes[..bytes.len() - 5]).unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { file: "log", .. }),
            "got: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_cut_short_after_open_fails_get() {
        let dir = tmp_dir("cut");
        let mut s = ResultStore::open(&dir, false).unwrap();
        s.put(key(1), b"a-payload-of-some-length").unwrap();
        let log = dir.join(LOG_FILE);
        let len = fs::metadata(&log).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let err = s.get(key(1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "corrupt store log at byte 16: record payload truncated (expected 24 bytes)"
        );
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_payload_byte_fails_get() {
        let dir = tmp_dir("flip");
        {
            let mut s = ResultStore::open(&dir, false).unwrap();
            s.put(key(1), b"pristine-payload").unwrap();
        }
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip a payload bit
        fs::write(&log, &bytes).unwrap();
        let mut s = ResultStore::open(&dir, true).unwrap();
        let err = s.get(key(1)).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { file: "log", .. }),
            "got: {err}"
        );
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_index_byte_fails_loudly() {
        let dir = tmp_dir("flipindex");
        {
            let mut s = ResultStore::open(&dir, false).unwrap();
            s.put(key(1), b"payload").unwrap();
        }
        let index = dir.join(INDEX_FILE);
        let mut bytes = fs::read(&index).unwrap();
        bytes[20] ^= 0x01; // inside the covered-length field
        fs::write(&index, &bytes).unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt { file: "index", .. }),
            "got: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_fails_loudly() {
        let dir = tmp_dir("version");
        drop(ResultStore::open(&dir, false).unwrap());
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).unwrap();
        bytes[8] = 0x63; // version 99
        fs::write(&log, &bytes).unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UnsupportedVersion {
                    file: "log",
                    version: 99
                }
            ),
            "got: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_format_1_store_is_refused_with_the_remedy() {
        let dir = tmp_dir("format1");
        drop(ResultStore::open(&dir, false).unwrap());
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).unwrap();
        bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
        fs::write(&log, &bytes).unwrap();
        let err = ResultStore::open(&dir, true).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported store log format version 1 (this build reads version 2); a result \
             store is a cache: delete its directory and rerun to refill it"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `bytes` with bit `bit` (counted over the whole slice, little-endian) flipped.
    fn flipped(bytes: &[u8], bit: usize) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[bit / 8] ^= 1 << (bit % 8);
        out
    }

    #[test]
    fn every_flip_inside_one_word_changes_the_checksum() {
        let bytes: Vec<u8> = (0..29u8).map(|b| b.wrapping_mul(37)).collect();
        let sum = checksum(&bytes);
        for a in 0..bytes.len() * 8 {
            assert_ne!(checksum(&flipped(&bytes, a)), sum, "bit {a}");
            // A second flip in the same word corrupts that one word.
            for b in (a + 1)..(a / 64 * 64 + 64).min(bytes.len() * 8) {
                assert_ne!(checksum(&flipped(&flipped(&bytes, a), b)), sum, "{a}, {b}");
            }
        }
    }

    #[test]
    fn flips_in_adjacent_words_never_cancel() {
        // Word-wise FNV-1a loses exactly these: bit 63 of one word and of the next.
        for start in [0u64, HASH_START, u64::MAX, 1 << 63] {
            let bytes: Vec<u8> = [start, !start, start.rotate_left(7)]
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect();
            let sum = checksum(&bytes);
            for a in 0..64 {
                for b in 64..192 {
                    let twice = flipped(&flipped(&bytes, a + (b / 128) * 64), b);
                    assert_ne!(checksum(&twice), sum, "bits {a} and {b} from {start:#x}");
                }
            }
        }
    }

    #[test]
    fn the_length_separates_zero_padding_and_parts() {
        assert_ne!(checksum(b"ab"), checksum(b"ab\0"));
        assert_ne!(checksum(b""), checksum(&[0u8; 8]));
        let parts = |a: &[u8], b: &[u8]| hash64(hash64(HASH_START, a), b);
        assert_ne!(parts(b"ab", b"c"), parts(b"a", b"bc"));
        assert_ne!(parts(b"ab", b""), checksum(b"ab"));
    }

    #[test]
    fn second_writer_is_locked_out_but_readers_are_not() {
        let dir = tmp_dir("lock");
        let first = ResultStore::open(&dir, false).unwrap();
        let err = ResultStore::open(&dir, false).unwrap_err();
        assert!(matches!(err, StoreError::Locked { .. }), "got: {err}");
        // Read-only opens coexist with the writer.
        ResultStore::open(&dir, true).unwrap();
        drop(first);
        // The lock is released with the writer.
        drop(ResultStore::open(&dir, false).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_of_a_dead_pid_is_reclaimed() {
        let dir = tmp_dir("stalelock");
        fs::create_dir_all(&dir).unwrap();
        // Pid 4294967295 can't be a live process.
        fs::write(dir.join(LOCK_FILE), u32::MAX.to_string()).unwrap();
        drop(ResultStore::open(&dir, false).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_only_refuses_writes_and_missing_stores() {
        let dir = tmp_dir("ro");
        assert!(matches!(
            ResultStore::open(&dir, true).unwrap_err(),
            StoreError::Missing(_)
        ));
        drop(ResultStore::open(&dir, false).unwrap());
        let mut s = ResultStore::open(&dir, true).unwrap();
        assert!(matches!(
            s.put(key(1), b"x").unwrap_err(),
            StoreError::ReadOnlyStore
        ));
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            StorePolicy::ReadWrite,
            StorePolicy::ReadOnly,
            StorePolicy::Refresh,
        ] {
            assert_eq!(StorePolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(StorePolicy::from_name("bogus"), None);
        assert!(StorePolicy::ReadWrite.reads() && StorePolicy::ReadWrite.writes());
        assert!(StorePolicy::ReadOnly.reads() && !StorePolicy::ReadOnly.writes());
        assert!(!StorePolicy::Refresh.reads() && StorePolicy::Refresh.writes());
    }
}
