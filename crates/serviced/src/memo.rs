//! The report memo: finished classification reports, kept on disk.
//!
//! A submission's report is a pure function of three inputs: the program
//! text, the log container bytes, and the classifier configuration. The
//! memo stores one file per distinct triple, so a resubmitted workload is
//! answered by reading one file — no decode, replay, detection or
//! classification.
//!
//! # Entry format
//!
//! ```text
//! +--------+-----------+--------------+------------+---------------+-----+--------+
//! | RRMEMO | ver u16   | check u64 LE | key_len    | report_len    | key | report |
//! |        | LE        |              | u64 LE     | u64 LE        |     | (JSON) |
//! +--------+-----------+--------------+------------+---------------+-----+--------+
//! ```
//!
//! `check` is the [`FastHasher`] digest of the body length and every byte
//! after it. The key is the exact key material ([`MemoKey`]), and the
//! report is the compact JSON the server would have sent. A lookup serves
//! an entry only when the whole file parses, the checksum matches, and the
//! stored key material is byte-equal to the request's. The file name is a
//! digest of the key material and does nothing but pick the file: the
//! digest is not collision-free (it pads a short tail with zeros, so `x`
//! and `x ‖ [0]` can share a name), and a colliding request simply misses
//! and overwrites the entry.
//!
//! Entries are written to a temporary file, synced, then renamed into
//! place, so a reader sees either the old entry, the new one, or none —
//! never a torn write. Temporary files a crash left behind are removed
//! when the memo is opened.

use std::fs;
use std::hash::Hasher;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use minijson::Json;
use replay_race::classify::ClassifierConfig;
use tvm::fasthash::FastHasher;

/// Entry magic.
const MEMO_MAGIC: &[u8; 6] = b"RRMEMO";

/// Entry format version; bump it whenever the entry layout or the report
/// JSON changes shape, so entries from older builds miss.
const MEMO_VERSION: u16 = 1;

/// Bytes before the key material: magic, version, checksum, two lengths.
const HEADER_LEN: usize = 6 + 2 + 8 + 8 + 8;

/// Entry file extension.
const EXT: &str = "rrm";

/// Everything a report depends on, as one byte string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoKey {
    material: Vec<u8>,
}

impl MemoKey {
    /// Binds a submission: program text, log container bytes, and the
    /// classifier configuration the server runs. The configuration enters
    /// through its `Debug` rendering, so every field — including ones added
    /// later — is part of the key.
    #[must_use]
    pub fn new(program_text: &str, container: &[u8], classifier: &ClassifierConfig) -> MemoKey {
        let config = format!("{classifier:?}");
        let mut material =
            Vec::with_capacity(16 + program_text.len() + config.len() + container.len());
        for field in [program_text.as_bytes(), config.as_bytes()] {
            material.extend_from_slice(&(field.len() as u64).to_le_bytes());
            material.extend_from_slice(field);
        }
        material.extend_from_slice(container);
        MemoKey { material }
    }

    /// The entry's file name: a digest of the key material. Distinct keys
    /// may share it; lookups compare the material itself.
    #[must_use]
    pub fn file_name(&self) -> String {
        let mut h = FastHasher::default();
        h.write(&self.material);
        format!("{:016x}.{EXT}", h.finish())
    }
}

fn checksum(body: &[u8]) -> u64 {
    let mut h = FastHasher::default();
    h.write_u64(body.len() as u64);
    h.write(body);
    h.finish()
}

/// Serializes one entry.
fn encode_entry(key: &MemoKey, report: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(16 + key.material.len() + report.len());
    body.extend_from_slice(&(key.material.len() as u64).to_le_bytes());
    body.extend_from_slice(&(report.len() as u64).to_le_bytes());
    body.extend_from_slice(&key.material);
    body.extend_from_slice(report.as_bytes());
    let mut out = Vec::with_capacity(16 + body.len());
    out.extend_from_slice(MEMO_MAGIC);
    out.extend_from_slice(&MEMO_VERSION.to_le_bytes());
    out.extend_from_slice(&checksum(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// The stored report when `bytes` is an intact entry for exactly `key`.
fn decode_entry<'a>(bytes: &'a [u8], key: &MemoKey) -> Option<&'a str> {
    if bytes.len() < HEADER_LEN || &bytes[..6] != MEMO_MAGIC {
        return None;
    }
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    if u16::from_le_bytes([bytes[6], bytes[7]]) != MEMO_VERSION
        || checksum(&bytes[16..]) != u64_at(8)
    {
        return None;
    }
    let key_len = usize::try_from(u64_at(16)).ok()?;
    let report_len = usize::try_from(u64_at(24)).ok()?;
    if key_len.checked_add(report_len)? != bytes.len() - HEADER_LEN {
        return None;
    }
    let (stored_key, report) = bytes[HEADER_LEN..].split_at(key_len);
    if stored_key != key.material.as_slice() {
        return None;
    }
    std::str::from_utf8(report).ok()
}

/// Memo counters since the server started, plus the directory's current
/// size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Entry files in the directory.
    pub entries: u64,
    /// Their total size.
    pub disk_bytes: u64,
    /// Lookups answered from an entry.
    pub hits: u64,
    /// Lookups that found no servable entry.
    pub misses: u64,
    /// Misses that found a file but refused it: damaged, another format
    /// version, or another key with the same file name.
    pub invalid: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries that could not be written (the submit still succeeds).
    pub write_errors: u64,
}

/// The on-disk report memo; see the module docs.
#[derive(Debug, Default)]
pub struct ReportMemo {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    invalid: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    tmp_seq: AtomicU64,
}

impl ReportMemo {
    /// Opens (creating if needed) the memo directory and removes temporary
    /// files a crashed writer left behind.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or listed.
    pub fn open(dir: &Path) -> std::io::Result<ReportMemo> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(path);
            }
        }
        Ok(ReportMemo { dir: dir.to_path_buf(), ..ReportMemo::default() })
    }

    fn path_of(&self, key: &MemoKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// The stored report for `key`, if an intact entry for exactly this key
    /// exists.
    #[must_use]
    pub fn get(&self, key: &MemoKey) -> Option<Json> {
        let found = fs::read(self.path_of(key)).ok();
        let report = found.as_deref().and_then(|bytes| decode_entry(bytes, key));
        match report.and_then(|text| Json::parse(text).ok()) {
            Some(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if found.is_some() {
                    self.invalid.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Stores `report` (compact JSON) under `key`, replacing any entry with
    /// the same file name.
    ///
    /// # Errors
    ///
    /// Propagates io failures; the previous entry, if any, stays intact.
    pub fn put(&self, key: &MemoKey, report: &Json) -> std::io::Result<()> {
        let result = self.write_entry(key, report);
        let counter = if result.is_ok() { &self.writes } else { &self.write_errors };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn write_entry(&self, key: &MemoKey, report: &Json) -> std::io::Result<()> {
        let bytes = encode_entry(key, &report.to_string_compact());
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!("{}.{}.{seq}.tmp", key.file_name(), std::process::id()));
        let written = fs::File::create(&tmp).and_then(|mut file| {
            file.write_all(&bytes)?;
            file.sync_all()
        });
        match written.and_then(|()| fs::rename(&tmp, self.path_of(key))) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Counters plus the directory's current entry count and size.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let mut stats = MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalid: self.invalid.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            ..MemoStats::default()
        };
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            if entry.path().extension().is_some_and(|e| e == EXT) {
                stats.entries += 1;
                stats.disk_bytes += entry.metadata().map_or(0, |m| m.len());
            }
        }
        stats
    }
}
