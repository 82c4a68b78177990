//! On-device metadata: superblock, directory snapshots and the
//! write-ahead journal.
//!
//! Layout (in pages, all before the data area so data-page addresses —
//! and therefore every I/O count in Tables 1–4 — are unaffected):
//!
//! ```text
//! | superblock | snapshot slot A | snapshot slot B | journal | data … |
//! ```
//!
//! The **superblock** names the geometry and the current *epoch*; the
//! epoch's parity selects which snapshot slot is authoritative
//! (double-buffering: a checkpoint writes the *other* slot, then
//! commits by rewriting the superblock, so a crash mid-checkpoint
//! leaves the old checkpoint intact).  The **snapshot** is the full
//! field directory plus `next_id`.  The **journal** is a redo/undo log
//! of every directory mutation since the snapshot:
//!
//! * `Create` / `Delete` — redo records, replayed forward;
//! * `WriteUndo` / `WriteCommit` — an in-place field update logs the
//!   old bytes first, then writes data, then commits; recovery rolls
//!   back any undo without a matching commit.
//!
//! Every structure carries a [`qbism_fault::checksum`] (FNV-1a's step
//! a word at a time, folded); a torn metadata write
//! therefore reads back as "end of log" (or, for the superblock and
//! snapshot, as corruption the recovery path reports instead of
//! trusting).  Records are additionally chained by `(epoch, seq)`:
//! stale records from before the last checkpoint fail the epoch check
//! and terminate replay.

use crate::{LfmError, Result};
use qbism_fault::checksum;

pub(crate) const SUPER_MAGIC: &[u8; 4] = b"QBJ1";
pub(crate) const SNAP_MAGIC: &[u8; 4] = b"QBSN";
/// Encoded superblock size in bytes.
pub(crate) const SUPER_LEN: usize = 4 + 4 + 4 + 8 + 8 * 5 + 8;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8).and_then(|b| b.try_into().ok()).map(u64::from_le_bytes)
    }
}

/// The root of the durable metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Superblock {
    pub page_size: u32,
    pub max_order: u32,
    pub epoch: u64,
    pub snap_start: u64,
    pub snap_slot_pages: u64,
    pub journal_start: u64,
    pub journal_pages: u64,
    pub data_start: u64,
}

impl Superblock {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SUPER_LEN);
        out.extend_from_slice(SUPER_MAGIC);
        put_u32(&mut out, self.page_size);
        put_u32(&mut out, self.max_order);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.snap_start);
        put_u64(&mut out, self.snap_slot_pages);
        put_u64(&mut out, self.journal_start);
        put_u64(&mut out, self.journal_pages);
        put_u64(&mut out, self.data_start);
        let csum = checksum(&out);
        put_u64(&mut out, csum);
        debug_assert_eq!(out.len(), SUPER_LEN);
        out
    }

    pub(crate) fn decode(buf: &[u8]) -> Result<Superblock> {
        let corrupt = |what: &str| LfmError::CorruptMetadata(format!("superblock: {what}"));
        if buf.len() < SUPER_LEN {
            return Err(corrupt("truncated"));
        }
        if &buf[..4] != SUPER_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let body = &buf[..SUPER_LEN - 8];
        let mut r = Reader::new(&buf[4..]);
        let page_size = r.u32().ok_or_else(|| corrupt("short"))?;
        let max_order = r.u32().ok_or_else(|| corrupt("short"))?;
        let epoch = r.u64().ok_or_else(|| corrupt("short"))?;
        let snap_start = r.u64().ok_or_else(|| corrupt("short"))?;
        let snap_slot_pages = r.u64().ok_or_else(|| corrupt("short"))?;
        let journal_start = r.u64().ok_or_else(|| corrupt("short"))?;
        let journal_pages = r.u64().ok_or_else(|| corrupt("short"))?;
        let data_start = r.u64().ok_or_else(|| corrupt("short"))?;
        let stored = r.u64().ok_or_else(|| corrupt("short"))?;
        if stored != checksum(body) {
            return Err(corrupt("checksum mismatch"));
        }
        Ok(Superblock {
            page_size,
            max_order,
            epoch,
            snap_start,
            snap_slot_pages,
            journal_start,
            journal_pages,
            data_start,
        })
    }
}

/// One directory entry inside a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapEntry {
    pub id: u64,
    pub first_page: u64,
    pub order: u32,
    pub len: u64,
    pub csum: u64,
}

pub(crate) const SNAP_ENTRY_LEN: usize = 8 + 8 + 4 + 8 + 8;
/// Snapshot framing overhead: magic + epoch + next_id + count + csum.
pub(crate) const SNAP_HEADER_LEN: usize = 4 + 8 + 8 + 8 + 8;

/// A full field-directory checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Snapshot {
    pub epoch: u64,
    pub next_id: u64,
    pub entries: Vec<SnapEntry>,
}

impl Snapshot {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SNAP_HEADER_LEN + self.entries.len() * SNAP_ENTRY_LEN);
        out.extend_from_slice(SNAP_MAGIC);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.next_id);
        put_u64(&mut out, self.entries.len() as u64);
        for e in &self.entries {
            put_u64(&mut out, e.id);
            put_u64(&mut out, e.first_page);
            put_u32(&mut out, e.order);
            put_u64(&mut out, e.len);
            put_u64(&mut out, e.csum);
        }
        let csum = checksum(&out);
        put_u64(&mut out, csum);
        out
    }

    pub(crate) fn decode(buf: &[u8]) -> Result<Snapshot> {
        let corrupt = |what: &str| LfmError::CorruptMetadata(format!("snapshot: {what}"));
        if buf.len() < SNAP_HEADER_LEN || &buf[..4] != SNAP_MAGIC {
            return Err(corrupt("bad magic or truncated"));
        }
        let mut r = Reader::new(&buf[4..]);
        let epoch = r.u64().ok_or_else(|| corrupt("short"))?;
        let next_id = r.u64().ok_or_else(|| corrupt("short"))?;
        let count = r.u64().ok_or_else(|| corrupt("short"))?;
        // The buffer bounds the count before anything is sized from it,
        // so `body_len` cannot overflow.
        let room = (buf.len() - SNAP_HEADER_LEN) / SNAP_ENTRY_LEN;
        let count = usize::try_from(count)
            .ok()
            .filter(|&count| count <= room)
            .ok_or_else(|| corrupt("truncated entries"))?;
        let body_len = SNAP_HEADER_LEN - 8 + count * SNAP_ENTRY_LEN;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let id = r.u64().ok_or_else(|| corrupt("short entry"))?;
            let first_page = r.u64().ok_or_else(|| corrupt("short entry"))?;
            let order = r.u32().ok_or_else(|| corrupt("short entry"))?;
            let len = r.u64().ok_or_else(|| corrupt("short entry"))?;
            let csum = r.u64().ok_or_else(|| corrupt("short entry"))?;
            entries.push(SnapEntry { id, first_page, order, len, csum });
        }
        let stored = r.u64().ok_or_else(|| corrupt("short checksum"))?;
        if stored != checksum(&buf[..body_len]) {
            return Err(corrupt("checksum mismatch"));
        }
        Ok(Snapshot { epoch, next_id, entries })
    }
}

/// A journal record body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Record {
    /// A field came into existence (its data pages are already on the
    /// device — data is written *before* the record, so a valid record
    /// implies valid data).
    Create { id: u64, first_page: u64, order: u32, len: u64, csum: u64 },
    /// A field was dropped; its block returns to the free lists.
    Delete { id: u64 },
    /// Pre-image of an in-place update: `bytes` are the *old* contents
    /// at `offset`.  Rolled back on recovery unless a later
    /// [`Record::WriteCommit`] for the same field appears.
    WriteUndo { id: u64, offset: u64, bytes: Vec<u8> },
    /// The in-place update landed; `csum` is the new whole-field
    /// checksum.  Clears all pending undos for `id`.
    WriteCommit { id: u64, csum: u64 },
}

/// Fixed per-record framing: length + seq + epoch + kind + trailing csum.
const RECORD_OVERHEAD: usize = 4 + 8 + 8 + 1 + 8;

/// Encoded size of a record with `payload_len` body bytes.
pub(crate) fn encoded_len(payload_len: usize) -> usize {
    RECORD_OVERHEAD + payload_len
}

pub(crate) fn payload_len(rec: &Record) -> usize {
    match rec {
        Record::Create { .. } => 8 + 8 + 4 + 8 + 8,
        Record::Delete { .. } => 8,
        Record::WriteUndo { bytes, .. } => 8 + 8 + 8 + bytes.len(),
        Record::WriteCommit { .. } => 8 + 8,
    }
}

pub(crate) fn encode(seq: u64, epoch: u64, rec: &Record) -> Vec<u8> {
    let total = encoded_len(payload_len(rec));
    let mut out = Vec::with_capacity(total);
    put_u32(&mut out, total as u32);
    put_u64(&mut out, seq);
    put_u64(&mut out, epoch);
    match rec {
        Record::Create { id, first_page, order, len, csum } => {
            out.push(1);
            put_u64(&mut out, *id);
            put_u64(&mut out, *first_page);
            put_u32(&mut out, *order);
            put_u64(&mut out, *len);
            put_u64(&mut out, *csum);
        }
        Record::Delete { id } => {
            out.push(2);
            put_u64(&mut out, *id);
        }
        Record::WriteUndo { id, offset, bytes } => {
            out.push(3);
            put_u64(&mut out, *id);
            put_u64(&mut out, *offset);
            put_u64(&mut out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        Record::WriteCommit { id, csum } => {
            out.push(4);
            put_u64(&mut out, *id);
            put_u64(&mut out, *csum);
        }
    }
    let csum = checksum(&out);
    put_u64(&mut out, csum);
    debug_assert_eq!(out.len(), total);
    out
}

/// Decodes the record at the head of `buf`.  Returns
/// `Some((consumed, seq, epoch, record))`, or `None` at the end of the
/// valid log (zero length, truncation, checksum failure, unknown kind —
/// all the shapes a torn final append can take).
pub(crate) fn decode(buf: &[u8]) -> Option<(usize, u64, u64, Record)> {
    if buf.len() < RECORD_OVERHEAD {
        return None;
    }
    let total = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if total < RECORD_OVERHEAD || total > buf.len() {
        return None;
    }
    let stored = u64::from_le_bytes(buf[total - 8..total].try_into().ok()?);
    if stored != checksum(&buf[..total - 8]) {
        return None;
    }
    let mut r = Reader::new(&buf[4..total - 8]);
    let seq = r.u64()?;
    let epoch = r.u64()?;
    let kind = r.u8()?;
    let rec = match kind {
        1 => Record::Create {
            id: r.u64()?,
            first_page: r.u64()?,
            order: r.u32()?,
            len: r.u64()?,
            csum: r.u64()?,
        },
        2 => Record::Delete { id: r.u64()? },
        3 => {
            let id = r.u64()?;
            let offset = r.u64()?;
            let n = r.u64()? as usize;
            Record::WriteUndo { id, offset, bytes: r.bytes(n)?.to_vec() }
        }
        4 => Record::WriteCommit { id: r.u64()?, csum: r.u64()? },
        _ => return None,
    };
    Some((total, seq, epoch, rec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_roundtrip_and_tamper_detection() {
        let sb = Superblock {
            page_size: 4096,
            max_order: 9,
            epoch: 7,
            snap_start: 1,
            snap_slot_pages: 3,
            journal_start: 7,
            journal_pages: 8,
            data_start: 15,
        };
        let mut bytes = sb.encode();
        assert_eq!(Superblock::decode(&bytes).unwrap(), sb);
        bytes[9] ^= 0x40;
        assert!(matches!(Superblock::decode(&bytes), Err(LfmError::CorruptMetadata(_))));
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = Snapshot {
            epoch: 3,
            next_id: 42,
            entries: vec![
                SnapEntry { id: 1, first_page: 0, order: 2, len: 9000, csum: 0xDEAD },
                SnapEntry { id: 7, first_page: 8, order: 0, len: 10, csum: 0xBEEF },
            ],
        };
        let bytes = snap.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap(), snap);
        // A torn snapshot (truncated mid-entry) is corruption, not garbage.
        assert!(matches!(
            Snapshot::decode(&bytes[..bytes.len() - 9]),
            Err(LfmError::CorruptMetadata(_))
        ));
    }

    #[test]
    fn records_roundtrip() {
        let records = [
            Record::Create { id: 5, first_page: 16, order: 3, len: 30_000, csum: 11 },
            Record::Delete { id: 5 },
            Record::WriteUndo { id: 9, offset: 1000, bytes: vec![1, 2, 3, 4, 5] },
            Record::WriteCommit { id: 9, csum: 77 },
        ];
        let mut log = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            log.extend_from_slice(&encode(i as u64 + 1, 2, rec));
        }
        log.extend_from_slice(&[0u8; 4]); // terminator
        let mut cursor = 0;
        for (i, rec) in records.iter().enumerate() {
            let (consumed, seq, epoch, decoded) = decode(&log[cursor..]).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(epoch, 2);
            assert_eq!(&decoded, rec);
            cursor += consumed;
        }
        assert!(decode(&log[cursor..]).is_none(), "terminator ends the log");
    }

    /// Hands `decode` every truncation and every single-bit flip of
    /// `bytes`: the fuzz contract's inputs.  `decode` checks the shape
    /// of each answer; a panic anywhere fails the sweep.
    fn sweep(bytes: &[u8], mut decode: impl FnMut(&str, &[u8])) {
        for cut in 0..bytes.len() {
            decode(&format!("prefix of {cut} bytes"), &bytes[..cut]);
        }
        let mut bad = bytes.to_vec();
        for bit in 0..bytes.len() * 8 {
            bad[bit / 8] ^= 1 << (bit % 8);
            decode(&format!("bit flip {bit}"), &bad);
            bad[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn torn_record_reads_as_end_of_log() {
        for rec in [
            Record::Create { id: 1, first_page: 0, order: 0, len: 5, csum: 9 },
            Record::Delete { id: 3 },
            Record::WriteUndo { id: 4, offset: 70, bytes: vec![5, 6, 7] },
            Record::WriteCommit { id: 4, csum: 2 },
        ] {
            let full = encode(1, 1, &rec);
            assert_eq!(decode(&full), Some((full.len(), 1, 1, rec.clone())));
            // No prefix and no single bit flip decodes: each is the end
            // of the log, never a different record.
            sweep(&full, |what, bytes| {
                let decoded = decode(bytes);
                assert!(decoded.is_none(), "{rec:?}: {what} still decoded: {decoded:?}");
            });
        }
    }

    #[test]
    fn superblock_fuzz_contract() {
        let sb = Superblock {
            page_size: 4096,
            max_order: 9,
            epoch: 7,
            snap_start: 1,
            snap_slot_pages: 3,
            journal_start: 7,
            journal_pages: 8,
            data_start: 15,
        };
        sweep(&sb.encode(), |what, bytes| match Superblock::decode(bytes) {
            Err(LfmError::CorruptMetadata(_)) => {}
            other => panic!("{what}: {other:?}"),
        });
    }

    /// A snapshot as recovery reads it: the whole slot, zero past the
    /// checksum.
    fn padded_snapshot() -> (Snapshot, Vec<u8>) {
        let snap = Snapshot {
            epoch: 3,
            next_id: 42,
            entries: vec![
                SnapEntry { id: 1, first_page: 0, order: 2, len: 9000, csum: 0xDEAD },
                SnapEntry { id: 7, first_page: 8, order: 0, len: 10, csum: 0xBEEF },
            ],
        };
        let mut slot = snap.encode();
        slot.resize(4096, 0);
        (snap, slot)
    }

    #[test]
    fn snapshot_count_with_bit_62_set_is_corruption() {
        let (_, mut slot) = padded_snapshot();
        // The count sits after the magic, the epoch and `next_id`.
        slot[4 + 8 + 8 + 7] ^= 0x40;
        assert!(matches!(Snapshot::decode(&slot), Err(LfmError::CorruptMetadata(_))));
    }

    #[test]
    fn padded_snapshot_fuzz_contract() {
        let (snap, slot) = padded_snapshot();
        assert_eq!(Snapshot::decode(&slot).unwrap(), snap);
        // A flip in the padding still decodes the snapshot; anything
        // else is corruption, never a different directory.
        sweep(&slot, |what, bytes| match Snapshot::decode(bytes) {
            Ok(decoded) => assert_eq!(decoded, snap, "{what}"),
            Err(LfmError::CorruptMetadata(_)) => {}
            Err(other) => panic!("{what}: {other:?}"),
        });
    }

    proptest::proptest! {
        /// Arbitrary bytes behind each format's magic: every decoder
        /// returns.
        #[test]
        fn arbitrary_metadata_bytes_never_panic(
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
        ) {
            for magic in [&b""[..], SUPER_MAGIC, SNAP_MAGIC] {
                let bytes = [magic, &tail].concat();
                let _ = Superblock::decode(&bytes);
                let _ = Snapshot::decode(&bytes);
                let _ = decode(&bytes);
            }
        }
    }

    #[test]
    fn encoded_len_matches_encode() {
        for rec in [
            Record::Create { id: 1, first_page: 2, order: 3, len: 4, csum: 5 },
            Record::Delete { id: 1 },
            Record::WriteUndo { id: 1, offset: 0, bytes: vec![0; 17] },
            Record::WriteCommit { id: 1, csum: 2 },
        ] {
            assert_eq!(encode(1, 1, &rec).len(), encoded_len(payload_len(&rec)));
        }
    }
}
