//! Per-shard on-disk spill log for evicted sketch state.
//!
//! Each shard owns one append-only log file. Evicting a key appends its
//! checksummed record of packed words (the format is the store's) and the
//! index entry keeps `(offset, len)`. Restoring reads that exact range
//! back and the store checks it, so a restored key is indistinguishable
//! from one that never left memory (the per-key oracle test asserts
//! exactly this across evict/restore cycles).
//!
//! The log is write-once per record: a key that is restored and later
//! evicted again appends a *new* record, and the old range becomes dead
//! space. That is the classic log-structured trade — sequential appends
//! and no in-place rewrites in exchange for garbage. The owning shard
//! reports each dead range via [`SpillLog::note_dead`]; once the dead
//! fraction crosses [`SpillLog::should_compact`]'s threshold the shard
//! calls [`SpillLog::compact`], which slides the live records forward
//! in place (sorted by offset, so every move is to a strictly smaller
//! offset — the copy never clobbers unread bytes), truncates the file,
//! and hands back the rewritten offsets. The tests read the raw log size
//! and the dead bytes through two test-only accessors.
//!
//! Everything here is plain seek + read/write on one `File` handle under
//! the owning shard's lock — no positional-IO platform traps, no unsafe.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Never compact logs with fewer dead bytes than this — rewriting a few
/// KiB buys nothing and churns the file handle.
const COMPACT_MIN_DEAD_BYTES: u64 = 4096;

/// Append-only spill log owned by one shard.
#[derive(Debug)]
pub struct SpillLog {
    file: File,
    path: PathBuf,
    end: u64,
    dead: u64,
}

impl SpillLog {
    /// Create (truncating any stale file) the shard log at `path`.
    ///
    /// # Errors
    /// Propagates the underlying `File` creation error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            end: 0,
            dead: 0,
        })
    }

    /// Append one record; returns the `(offset, len)` the caller must
    /// remember to read it back.
    ///
    /// # Errors
    /// Propagates seek/write errors.
    pub fn append(&mut self, bytes: &[u8]) -> std::io::Result<(u64, u32)> {
        let offset = self.end;
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(bytes)?;
        self.end += bytes.len() as u64;
        Ok((offset, bytes.len() as u32))
    }

    /// Read the record at `(offset, len)` into `buf` (cleared first).
    ///
    /// # Errors
    /// Propagates seek/read errors; a short read surfaces as
    /// `UnexpectedEof`.
    pub fn read(&mut self, offset: u64, len: u32, buf: &mut Vec<u8>) -> std::io::Result<()> {
        buf.clear();
        buf.resize(len as usize, 0);
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(buf)
    }

    /// Mark the record of `len` bytes at its old range as dead (its key
    /// was restored, so the range will never be read again).
    pub fn note_dead(&mut self, len: u32) {
        self.dead += u64::from(len);
    }

    /// Bytes currently dead (noted via [`SpillLog::note_dead`], not yet
    /// reclaimed by compaction).
    #[cfg(test)]
    pub fn dead_bytes(&self) -> u64 {
        self.dead
    }

    /// Whether the dead fraction warrants a compaction pass (≥ 50% dead
    /// and at least a few KiB to reclaim).
    pub fn should_compact(&self) -> bool {
        self.dead >= COMPACT_MIN_DEAD_BYTES && 2 * self.dead >= self.end
    }

    /// Rewrite the log to contain exactly the `live` records, in offset
    /// order, and truncate the reclaimed tail. Each entry's offset is
    /// updated in place to its post-compaction position — the caller
    /// writes them back to its index. Returns the bytes reclaimed.
    ///
    /// The copy is safe in place: records are processed in ascending
    /// offset order and every destination offset (a prefix sum of live
    /// lengths) is ≤ the source offset, so a move only overwrites dead
    /// space or bytes already copied out.
    ///
    /// A record that reaches past the end of the file (cut short outside
    /// the process) can never be read back; it compacts to an empty
    /// record, which the store's restore refuses on every later read, and
    /// the records before it still move.
    ///
    /// # Errors
    /// Propagates seek/read/write/truncate errors. On error the log may
    /// hold a partially-moved record; callers should treat that as fatal
    /// for the shard (the store propagates it out of the ingest path).
    pub fn compact(&mut self, live: &mut [(u64, u32)]) -> std::io::Result<u64> {
        live.sort_unstable_by_key(|&(offset, _)| offset);
        let file_len = self.file.metadata()?.len();
        let mut buf = Vec::new();
        let mut write_at = 0u64;
        for record in live.iter_mut() {
            let (offset, mut len) = *record;
            debug_assert!(write_at <= offset, "live records overlap");
            if offset + u64::from(len) > file_len {
                len = 0;
            }
            if offset != write_at && len > 0 {
                buf.clear();
                buf.resize(len as usize, 0);
                self.file.seek(SeekFrom::Start(offset))?;
                self.file.read_exact(&mut buf)?;
                self.file.seek(SeekFrom::Start(write_at))?;
                self.file.write_all(&buf)?;
            }
            *record = (write_at, len);
            write_at += u64::from(len);
        }
        let reclaimed = self.end - write_at;
        self.file.set_len(write_at)?;
        self.end = write_at;
        self.dead = 0;
        Ok(reclaimed)
    }

    /// Current log size in bytes: live records plus dead space not yet
    /// reclaimed by compaction.
    #[cfg(test)]
    pub fn appended_bytes(&self) -> u64 {
        self.end
    }

    /// Path of the backing file (for cleanup by the owning store).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "gt-store-spilltest-{}-{name}.log",
            std::process::id()
        ));
        p
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = temp_log("roundtrip");
        let mut log = SpillLog::create(&path).unwrap();
        let a: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let b = vec![0xABu8; 17];
        let (off_a, len_a) = log.append(&a).unwrap();
        let (off_b, len_b) = log.append(&b).unwrap();
        assert_eq!(off_a, 0);
        assert_eq!(off_b, a.len() as u64);
        assert_eq!(log.appended_bytes(), (a.len() + b.len()) as u64);

        let mut buf = Vec::new();
        // Reads in arbitrary order, interleaved with another append.
        log.read(off_b, len_b, &mut buf).unwrap();
        assert_eq!(buf, b);
        let (off_c, len_c) = log.append(&a).unwrap();
        log.read(off_a, len_a, &mut buf).unwrap();
        assert_eq!(buf, a);
        log.read(off_c, len_c, &mut buf).unwrap();
        assert_eq!(buf, a);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_slides_live_records_and_truncates() {
        let path = temp_log("compact");
        let mut log = SpillLog::create(&path).unwrap();
        // Interleave live and dead records of uneven sizes.
        let payloads: Vec<Vec<u8>> = (0..8u8)
            .map(|i| vec![i ^ 0x5A; 100 + 37 * i as usize])
            .collect();
        let ranges: Vec<(u64, u32)> = payloads.iter().map(|p| log.append(p).unwrap()).collect();
        // Kill the even-indexed records.
        for i in (0..8).step_by(2) {
            log.note_dead(ranges[i].1);
        }
        let dead: u64 = (0..8).step_by(2).map(|i| u64::from(ranges[i].1)).sum();
        assert_eq!(log.dead_bytes(), dead);
        let live_bytes = log.appended_bytes() - dead;

        // Present the live entries out of order: compact sorts by offset.
        let mut live: Vec<(u64, u32)> = [7usize, 1, 5, 3].iter().map(|&i| ranges[i]).collect();
        let reclaimed = log.compact(&mut live).unwrap();
        assert_eq!(reclaimed, dead);
        assert_eq!(log.dead_bytes(), 0);
        assert_eq!(log.appended_bytes(), live_bytes);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            log.appended_bytes()
        );

        // Every live record reads back byte-identically at its new offset,
        // and the new offsets are densely packed in order.
        let mut buf = Vec::new();
        let mut expect_offset = 0u64;
        for (rec, idx) in live.iter().zip([1usize, 3, 5, 7]) {
            assert_eq!(rec.0, expect_offset);
            log.read(rec.0, rec.1, &mut buf).unwrap();
            assert_eq!(buf, payloads[idx], "record {idx} corrupted");
            expect_offset += u64::from(rec.1);
        }

        // The log keeps working after compaction.
        let (off, len) = log.append(&payloads[0]).unwrap();
        assert_eq!(off, expect_offset);
        log.read(off, len, &mut buf).unwrap();
        assert_eq!(buf, payloads[0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_threshold_needs_both_fraction_and_floor() {
        let path = temp_log("threshold");
        let mut log = SpillLog::create(&path).unwrap();
        // 100% dead but tiny: below the byte floor.
        log.append(&[1u8; 100]).unwrap();
        log.note_dead(100);
        assert!(!log.should_compact());
        // Large log, small dead fraction: below the 50% threshold.
        log.append(&vec![2u8; 20_000]).unwrap();
        log.note_dead(4_000);
        assert!(!log.should_compact());
        // Push the dead fraction over half with the floor satisfied.
        log.note_dead(6_000);
        assert!(log.should_compact());
        // Kill the rest, then compact with an empty live set.
        log.note_dead(10_000);
        let mut live = Vec::new();
        let reclaimed = log.compact(&mut live).unwrap();
        assert_eq!(reclaimed, 20_100);
        assert_eq!(log.appended_bytes(), 0);
        assert!(!log.should_compact());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_read_is_an_error() {
        let path = temp_log("short");
        let mut log = SpillLog::create(&path).unwrap();
        let (off, _) = log.append(&[1, 2, 3]).unwrap();
        let mut buf = Vec::new();
        assert!(log.read(off, 10, &mut buf).is_err());
        std::fs::remove_file(&path).ok();
    }
}
