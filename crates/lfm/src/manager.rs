//! The long-field store.
//!
//! # Crash consistency
//!
//! The simulated device is split into a metadata region (superblock,
//! two directory-snapshot slots, a write-ahead journal — see
//! [`crate::journal`]) and the data area.  Every directory mutation is
//! journaled *before* it is acknowledged:
//!
//! * `create` writes the field's data pages first, then appends a
//!   `Create` record — the record is the commit point, so a crash
//!   between the two leaves only unreferenced free-space bytes;
//! * `delete` appends a `Delete` record before touching in-memory state;
//! * `write_piece` runs undo-logged: old bytes → journal, new bytes →
//!   device, `WriteCommit` → journal; recovery rolls back any update
//!   whose commit record never landed.
//!
//! [`LongFieldManager::recover`] rebuilds the directory from the last
//! checkpoint plus the journal, rolls back uncommitted writes, re-pins
//! every block in a fresh buddy allocator ([`BuddyAllocator::allocate_at`]
//! — a double allocation surfaces as corruption, not silent overlap) and
//! verifies a whole-field checksum for every surviving field.
//!
//! Metadata I/O is charged to [`MetaStats`], **never** to [`IoStats`]:
//! the paper's Tables 1–4 count data-plane 4 KiB I/Os only, and stay
//! bit-identical whether or not the fault/recovery plane exists.

use crate::buddy::BuddyAllocator;
use crate::cache::{CacheConfig, CacheStats, PageCache};
use crate::device::SimDevice;
use crate::journal::{
    self, Record, SnapEntry, Snapshot, Superblock, SNAP_ENTRY_LEN, SNAP_HEADER_LEN, SUPER_LEN,
};
use crate::model::{DiskModel, IoStats};
use crate::objects::ObjectCache;
use crate::{LfmError, Result};
use qbism_fault::{checksum, sites};
use qbism_obs::{trace, Counter, Gauge, LockOrRecover};
use std::any::{Any, TypeId};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// A piece this short is copied as one fixed-size window and the answer
/// cut back to the piece's end: a constant-length copy is two register
/// moves, where a variable-length one is a `memcpy` call that costs more
/// than the few bytes a typical extraction run holds.
const WINDOW: usize = 16;

/// Cached handles to the LFM's process-wide series: the physical plan
/// of the read path, the page cache, the k³ scan and the write side.
/// Every other LFM count lives in [`IoStats`] and [`MetaStats`] alone.
#[derive(Debug, Clone)]
struct LfmMetrics {
    pages_written: Counter,
    allocated_pages: Gauge,
    journal_bytes: Counter,
    extent_phys_reads: Counter,
    extent_coalesced_pages: Counter,
    extent_readahead_pages: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    compressed_pages_read: Counter,
    compressed_decode_skips: Counter,
}

impl LfmMetrics {
    fn new() -> LfmMetrics {
        let reg = qbism_obs::global();
        LfmMetrics {
            pages_written: reg.counter("qbism_lfm_pages_written_total"),
            allocated_pages: reg.gauge("qbism_lfm_allocated_pages"),
            journal_bytes: reg.counter("qbism_lfm_journal_bytes_total"),
            extent_phys_reads: reg.counter("qbism_lfm_extent_phys_reads_total"),
            extent_coalesced_pages: reg.counter("qbism_lfm_extent_coalesced_pages_total"),
            extent_readahead_pages: reg.counter("qbism_lfm_extent_readahead_pages_total"),
            cache_hits: reg.counter("qbism_lfm_cache_hits_total"),
            cache_misses: reg.counter("qbism_lfm_cache_misses_total"),
            cache_evictions: reg.counter("qbism_lfm_cache_evictions_total"),
            compressed_pages_read: reg.counter("qbism_lfm_compressed_pages_read_total"),
            compressed_decode_skips: reg.counter("qbism_lfm_compressed_decode_skips_total"),
        }
    }
}

/// Handle to a long field, as stored in relational tuples.
///
/// The DBMS layer sees long fields as opaque values; operations on their
/// contents go through the [`LongFieldManager`] exactly the way
/// Starburst's SQL functions did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LongFieldId(pub u64);

#[derive(Debug, Clone)]
struct FieldDesc {
    /// First *data-area* page of the field's buddy block.
    first_page: u64,
    /// Allocation order (block is `2^order` pages).
    order: u32,
    /// Logical length in bytes.
    len: u64,
    /// [`checksum`] of the field's logical bytes: FNV-1a's step a word at
    /// a time, folded, so a tail shorter than a word is still checked
    /// bit for bit.
    csum: u64,
}

/// Metadata-plane accounting, deliberately separate from [`IoStats`]:
/// journal and checkpoint traffic never pollutes the paper's data-plane
/// I/O columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// Journal records durably appended.
    pub journal_records: u64,
    /// Journal bytes durably appended.
    pub journal_bytes: u64,
    /// Directory checkpoints written (journal wraps and recoveries).
    pub checkpoints: u64,
    /// Successful [`LongFieldManager::recover`] runs.
    pub recoveries: u64,
    /// Uncommitted in-place writes rolled back during recovery.
    pub rolled_back_writes: u64,
}

/// What [`LongFieldManager::recover`] found and repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Metadata epoch after recovery (recovery always checkpoints).
    pub epoch: u64,
    /// Long fields alive after replay.
    pub fields: usize,
    /// Journal records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Uncommitted writes rolled back to their pre-images.
    pub rolled_back_writes: u64,
}

/// Device layout computed once at format time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Geometry {
    page_size: usize,
    snap_start: u64,
    snap_slot_pages: u64,
    journal_start: u64,
    journal_pages: u64,
    data_start: u64,
    data_pages: u64,
    max_order: u32,
}

impl Geometry {
    fn for_capacity(capacity_bytes: u64, page_size: usize) -> Result<Geometry> {
        if page_size == 0 {
            return Err(LfmError::BadGeometry("page size must be positive"));
        }
        if capacity_bytes == 0 {
            return Err(LfmError::BadGeometry("capacity must be positive"));
        }
        let psz = page_size as u64;
        let data_pages = capacity_bytes.div_ceil(psz).next_power_of_two();
        let max_order = data_pages.trailing_zeros();
        if max_order > 40 {
            return Err(LfmError::BadGeometry("capacity unreasonably large"));
        }
        let sb_pages = (SUPER_LEN as u64).div_ceil(psz);
        // One snapshot slot must hold the worst-case directory: one
        // entry per data page.
        let snap_slot_bytes = (SNAP_HEADER_LEN as u64) + data_pages * (SNAP_ENTRY_LEN as u64);
        let snap_slot_pages = snap_slot_bytes.div_ceil(psz);
        let journal_pages = (data_pages / 64).clamp(8, 4096);
        let snap_start = sb_pages;
        let journal_start = snap_start + 2 * snap_slot_pages;
        let data_start = journal_start + journal_pages;
        Ok(Geometry {
            page_size,
            snap_start,
            snap_slot_pages,
            journal_start,
            journal_pages,
            data_start,
            data_pages,
            max_order,
        })
    }

    fn total_bytes(&self) -> usize {
        (self.data_start + self.data_pages) as usize * self.page_size
    }

    fn data_byte(&self, first_page: u64, offset: u64) -> usize {
        (self.data_start + first_page) as usize * self.page_size + offset as usize
    }

    fn snap_slot_byte(&self, epoch: u64) -> usize {
        (self.snap_start + (epoch % 2) * self.snap_slot_pages) as usize * self.page_size
    }

    fn journal_byte(&self, cursor: usize) -> usize {
        self.journal_start as usize * self.page_size + cursor
    }

    fn journal_capacity(&self) -> usize {
        self.journal_pages as usize * self.page_size
    }

    fn superblock(&self, epoch: u64) -> Superblock {
        Superblock {
            page_size: self.page_size as u32,
            max_order: self.max_order,
            epoch,
            snap_start: self.snap_start,
            snap_slot_pages: self.snap_slot_pages,
            journal_start: self.journal_start,
            journal_pages: self.journal_pages,
            data_start: self.data_start,
        }
    }
}

/// Frames `config` asks the pool for: none unless it is switched on.
fn pool_frames(config: CacheConfig) -> usize {
    if config.enabled {
        config.capacity_pages
    } else {
        0
    }
}

/// Last field page of the physical extent — the maximal run of
/// consecutive demanded pages — that the first of `pieces` (non-empty)
/// lies in.
fn extent_last_page(pieces: impl Iterator<Item = (u64, u64)>, psz: u64) -> u64 {
    let mut last = 0;
    for (i, (offset, len)) in pieces.enumerate() {
        if len == 0 {
            continue;
        }
        if i > 0 && offset / psz > last + 1 {
            break;
        }
        last = (offset + len - 1) / psz;
    }
    last
}

/// A long-field store over a simulated raw disk device.
///
/// Every read and write is accounted in distinct touched 4 KiB pages and
/// sequential extents.  [`IoStats`] always counts *logical* I/O — with
/// the optional page cache enabled the counts do not change, matching
/// the paper's measurement discipline ("Starburst's Long Field Manager
/// performs no buffering anyway"); the cache's own behaviour is
/// reported separately via [`LongFieldManager::cache_stats`].
///
/// The read path ([`read`](LongFieldManager::read),
/// [`read_piece`](LongFieldManager::read_piece),
/// [`read_pieces_into`](LongFieldManager::read_pieces_into),
/// [`read_object`](LongFieldManager::read_object),
/// [`len`](LongFieldManager::len)) takes `&self`, so any number of
/// threads may read concurrently; mutations still take `&mut self`, so
/// Rust's aliasing rules guarantee no writer runs alongside readers.
#[derive(Debug)]
pub struct LongFieldManager {
    page_size: usize,
    device: SimDevice,
    allocator: BuddyAllocator,
    fields: HashMap<u64, FieldDesc>,
    next_id: u64,
    /// Data-plane I/O counters, shared by concurrent readers.
    acct: Mutex<IoStats>,
    metrics: LfmMetrics,
    cache: Mutex<PageCache>,
    /// Decoded objects of whole fields, whatever the pool setting: host
    /// memory, not the modelled buffer, bounded by the device's data-area
    /// bytes so it at most doubles what the in-memory device holds.
    objects: Mutex<ObjectCache>,
    /// Beside the mutex, not under it: only `&mut self` changes it, so
    /// readers learn whether the pool is on without locking anything.
    cache_config: CacheConfig,
    geo: Geometry,
    epoch: u64,
    journal_seq: u64,
    journal_cursor: usize,
    meta: MetaStats,
    /// Ids of fields created compressed (k³ REGIONs).  In-memory
    /// only: the on-disk directory and journal formats are unchanged
    /// (crash recovery proves byte-identical metadata), so the flag is
    /// re-established by the loader, not by `recover`.
    compressed: BTreeSet<u64>,
}

impl LongFieldManager {
    /// Creates a device of `capacity_bytes` with the given page size.
    ///
    /// Capacity is rounded up to a power-of-two number of *data* pages
    /// (buddy allocation needs it); the paper's unit is 4096-byte
    /// pages.  The metadata region (superblock, snapshots, journal) is
    /// provisioned on top, so the full requested capacity remains
    /// available for long fields.
    pub fn new(capacity_bytes: u64, page_size: usize) -> Result<Self> {
        let geo = Geometry::for_capacity(capacity_bytes, page_size)?;
        let mut lfm = LongFieldManager {
            page_size,
            device: SimDevice::new(geo.total_bytes()),
            allocator: BuddyAllocator::new(geo.max_order),
            fields: HashMap::new(),
            next_id: 1,
            acct: Mutex::new(IoStats::default()),
            metrics: LfmMetrics::new(),
            cache: Mutex::new(PageCache::new((geo.data_start + geo.data_pages) as usize)),
            objects: Mutex::new(ObjectCache::new(geo.data_pages as usize * page_size)),
            cache_config: CacheConfig::default(),
            geo,
            epoch: 1,
            journal_seq: 0,
            journal_cursor: 0,
            meta: MetaStats::default(),
            compressed: BTreeSet::new(),
        };
        // Format: empty snapshot for epoch 1, then the superblock.
        lfm.write_snapshot(1)?;
        lfm.write_superblock(1)?;
        Ok(lfm)
    }

    /// Charges one I/O delta to the shared [`IoStats`], any open
    /// [`crate::IoBracket`]s on this thread, and the process-wide
    /// metrics, returning the simulated disk seconds.
    fn charge(&self, delta: IoStats) -> f64 {
        {
            let mut acct = self.acct.lock_or_recover();
            *acct = acct.plus(&delta);
        }
        crate::acct::charge(&delta);
        self.metrics.pages_written.add(delta.pages_written);
        DiskModel::RS6000_1994.seconds(&delta)
    }

    fn note_latency(&self, seconds: f64) {
        if seconds > 0.0 {
            crate::acct::charge_latency(seconds);
        }
    }

    fn publish_allocation(&self) {
        self.metrics.allocated_pages.set(self.allocator.allocated_pages() as i64);
    }

    /// Device page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Cumulative data-plane I/O counters.
    pub fn stats(&self) -> IoStats {
        *self.acct.lock_or_recover()
    }

    /// Zeroes the I/O counters (used between measured queries).
    pub fn reset_stats(&self) {
        *self.acct.lock_or_recover() = IoStats::default();
    }

    /// Reconfigures the page cache (the pool is emptied; stats remain).
    /// Defaults to disabled — the paper's unbuffered LFM.  The object
    /// cache is not the modelled buffer and keeps its objects.
    pub fn set_cache_config(&mut self, config: CacheConfig) {
        self.cache_config = config;
        self.cache.lock_or_recover().set_capacity(pool_frames(config));
    }

    /// Current page-cache configuration.
    pub fn cache_config(&self) -> CacheConfig {
        self.cache_config
    }

    /// The buffer pool, locked — or `None` while it is switched off,
    /// which costs no lock: unbuffered readers never meet on `lfm.cache`.
    fn pool(&self) -> Option<MutexGuard<'_, PageCache>> {
        (pool_frames(self.cache_config) > 0).then(|| self.cache.lock_or_recover())
    }

    /// Cumulative page-cache and object-cache hit/miss/eviction
    /// counters.
    pub fn cache_stats(&self) -> CacheStats {
        let objects = self.objects.lock_or_recover().stats();
        CacheStats {
            object_hits: objects.hits,
            object_misses: objects.misses,
            object_evictions: objects.evictions,
            ..self.cache.lock_or_recover().stats()
        }
    }

    /// Metadata-plane accounting: journal traffic, checkpoints,
    /// recoveries.
    pub fn meta_stats(&self) -> MetaStats {
        self.meta
    }

    /// Whether the simulated machine is down after an injected crash.
    /// All I/O returns [`LfmError::Crashed`] until
    /// [`LongFieldManager::recover`] succeeds.
    pub fn is_crashed(&self) -> bool {
        self.device.is_crashed()
    }

    /// Number of live long fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Pages currently allocated on the device.
    pub fn allocated_pages(&self) -> u64 {
        self.allocator.allocated_pages()
    }

    // ------------------------------------------------------------------
    // Metadata plane
    // ------------------------------------------------------------------

    /// Writes `data` at a metadata location.  On a torn write the
    /// damaged range is scrubbed (zeroed) before returning the error —
    /// the in-memory state never acknowledged the append, so the medium
    /// must not half-remember it.  A crash leaves the medium exactly as
    /// the crash found it; recovery sorts it out.
    fn meta_write(&mut self, off: usize, data: &[u8]) -> Result<()> {
        match self.device.write(sites::LFM_META_WRITE, off, data) {
            Ok(latency) => {
                self.note_latency(latency);
                Ok(())
            }
            Err(LfmError::Crashed) => Err(LfmError::Crashed),
            Err(e) => {
                self.device.write_direct(off, &vec![0u8; data.len()]);
                Err(e)
            }
        }
    }

    fn write_snapshot(&mut self, epoch: u64) -> Result<()> {
        let mut entries: Vec<SnapEntry> = self
            .fields
            .iter()
            .map(|(&id, d)| SnapEntry {
                id,
                first_page: d.first_page,
                order: d.order,
                len: d.len,
                csum: d.csum,
            })
            .collect();
        entries.sort_by_key(|e| e.id);
        let blob = Snapshot { epoch, next_id: self.next_id, entries }.encode();
        debug_assert!(blob.len() <= self.geo.snap_slot_pages as usize * self.page_size);
        let off = self.geo.snap_slot_byte(epoch);
        self.meta_write(off, &blob)
    }

    /// Rewrites the superblock for `epoch` — the commit point of a
    /// checkpoint.  A torn superblock write restores the previous
    /// superblock before erroring, so the device always has a valid
    /// root.
    fn write_superblock(&mut self, epoch: u64) -> Result<()> {
        let bytes = self.geo.superblock(epoch).encode();
        match self.device.write(sites::LFM_META_WRITE, 0, &bytes) {
            Ok(latency) => {
                self.note_latency(latency);
                Ok(())
            }
            Err(LfmError::Crashed) => Err(LfmError::Crashed),
            Err(e) => {
                let old = self.geo.superblock(self.epoch).encode();
                self.device.write_direct(0, &old);
                Err(e)
            }
        }
    }

    /// Writes a fresh snapshot to the inactive slot and commits it by
    /// bumping the superblock epoch; the journal logically restarts.
    fn checkpoint(&mut self) -> Result<()> {
        let span = trace::span("lfm.checkpoint");
        let next = self.epoch + 1;
        self.write_snapshot(next)?;
        self.write_superblock(next)?;
        self.epoch = next;
        self.journal_cursor = 0;
        self.journal_seq = 0;
        self.meta.checkpoints += 1;
        span.record_u64("epoch", next);
        Ok(())
    }

    /// Checkpoints if fewer than `needed` journal bytes remain.
    fn ensure_journal_room(&mut self, needed: usize) -> Result<()> {
        if self.journal_cursor + needed > self.geo.journal_capacity() {
            self.checkpoint()?;
            if needed > self.geo.journal_capacity() {
                return Err(LfmError::CorruptMetadata(format!(
                    "journal record of {needed} bytes exceeds journal capacity"
                )));
            }
        }
        Ok(())
    }

    /// Appends one record (plus a zero terminator so stale bytes beyond
    /// it can never decode).  Callers must have reserved room via
    /// [`Self::ensure_journal_room`].
    fn append_journal(&mut self, rec: &Record) -> Result<()> {
        let mut bytes = journal::encode(self.journal_seq + 1, self.epoch, rec);
        let rec_len = bytes.len();
        bytes.extend_from_slice(&[0u8; 4]);
        debug_assert!(self.journal_cursor + bytes.len() <= self.geo.journal_capacity());
        let off = self.geo.journal_byte(self.journal_cursor);
        self.meta_write(off, &bytes)?;
        self.journal_seq += 1;
        self.journal_cursor += rec_len;
        self.meta.journal_records += 1;
        self.meta.journal_bytes += rec_len as u64;
        self.metrics.journal_bytes.add(rec_len as u64);
        Ok(())
    }

    /// Reserves room and appends, for single-record operations.
    fn journal_one(&mut self, rec: Record) -> Result<()> {
        self.ensure_journal_room(journal::encoded_len(journal::payload_len(&rec)) + 4)?;
        self.append_journal(&rec)
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Creates a long field holding `data`, writing it to the device.
    ///
    /// The field's data pages land before its `Create` journal record;
    /// the record is the commit point, so a fault or crash anywhere in
    /// between leaves no trace after recovery.
    pub fn create(&mut self, data: &[u8]) -> Result<LongFieldId> {
        let span = trace::span("lfm.create");
        let pages_needed = (data.len() as u64).div_ceil(self.page_size as u64).max(1);
        let order = BuddyAllocator::order_for_pages(pages_needed);
        let first_page = self.allocator.allocate(order)?;
        // A reused block may still be cached from a deleted field.
        self.invalidate_cached_block(first_page, order);
        let csum = checksum(data);
        let id = self.next_id;
        let commit = |lfm: &mut Self| -> Result<()> {
            let latency =
                lfm.device.write(sites::LFM_WRITE, lfm.geo.data_byte(first_page, 0), data)?;
            lfm.note_latency(latency);
            lfm.journal_one(Record::Create { id, first_page, order, len: data.len() as u64, csum })
        };
        if let Err(e) = commit(self) {
            // The block was never published; reclaim it in memory.  (On
            // a crash the in-memory state is moot until recovery.)
            let _ = self.allocator.free(first_page, order);
            return Err(e);
        }
        self.next_id += 1;
        self.fields.insert(id, FieldDesc { first_page, order, len: data.len() as u64, csum });
        // One sequential write of the touched pages.
        self.charge(IoStats {
            pages_written: pages_needed,
            extents_written: 1,
            write_calls: 1,
            ..IoStats::default()
        });
        self.publish_allocation();
        span.record_u64("pages", pages_needed);
        span.record_u64("bytes", data.len() as u64);
        Ok(LongFieldId(id))
    }

    /// Creates a long field marked **compressed**: its bytes are a
    /// compact queryable payload (the loader stores every k³ REGION
    /// this way), so reads of this field count toward the
    /// `qbism_lfm_compressed_*` metrics and surface as
    /// `lfm.compressed_scan` spans.
    ///
    /// Storage-wise identical to [`LongFieldManager::create`] — same
    /// allocator, journal records, cache and charge paths — the mark is
    /// in-memory accounting only, so the on-device metadata format (and
    /// crash recovery) is unchanged.
    pub fn create_compressed(&mut self, data: &[u8]) -> Result<LongFieldId> {
        let id = self.create(data)?;
        self.compressed.insert(id.0);
        Ok(id)
    }

    /// Credits `skips` skip-jumps (k³-tree subtrees and leaves bypassed
    /// without decode) taken while descending stored compressed payloads.
    pub fn note_decode_skips(&self, skips: u64) {
        self.metrics.compressed_decode_skips.add(skips);
    }

    /// Deletes a long field, freeing its block (no data I/O is charged —
    /// deallocation is a metadata operation).
    pub fn delete(&mut self, id: LongFieldId) -> Result<()> {
        let desc = self.fields.get(&id.0).ok_or(LfmError::NoSuchField(id.0))?.clone();
        self.journal_one(Record::Delete { id: id.0 })?;
        self.objects.lock_or_recover().forget_field(id.0);
        self.fields.remove(&id.0);
        self.allocator.free(desc.first_page, desc.order)?;
        self.invalidate_cached_block(desc.first_page, desc.order);
        self.compressed.remove(&id.0);
        self.publish_allocation();
        Ok(())
    }

    /// Drops cached copies of a data-area buddy block's pages.
    fn invalidate_cached_block(&self, first_page: u64, order: u32) {
        if let Some(mut pool) = self.pool() {
            pool.invalidate_range(self.geo.data_start + first_page, 1u64 << order);
        }
    }

    /// Logical length of a field in bytes (catalog metadata; no I/O).
    pub fn len(&self, id: LongFieldId) -> Result<u64> {
        Ok(self.desc(id)?.len)
    }

    /// Whether the field is empty.
    pub fn is_empty(&self, id: LongFieldId) -> Result<bool> {
        Ok(self.len(id)? == 0)
    }

    /// Reads an entire field.
    pub fn read(&self, id: LongFieldId) -> Result<Vec<u8>> {
        let len = self.desc(id)?.len;
        self.read_piece(id, 0, len)
    }

    /// Reads `len` bytes at `offset` — the LFM's "fast random I/O to
    /// arbitrary pieces of long fields".
    pub fn read_piece(&self, id: LongFieldId, offset: u64, len: u64) -> Result<Vec<u8>> {
        // Sized by `read_pieces_into` once `len` has passed its bounds check.
        let mut out = Vec::new();
        self.read_pieces_into(id, [(offset, len)].into_iter(), &mut out)?;
        Ok(out)
    }

    /// Reads many `(offset, len)` pieces in one call, appending the bytes
    /// to `out` in order.  Touched pages are deduplicated and charged
    /// once, and consecutive pages are charged as one extent — this is
    /// how a run-ordered extraction achieves the paper's low I/O counts
    /// (Q3: 16,016 voxels in 1,088 runs costing just 29 page reads).
    ///
    /// Physically the call is vectored: adjacent touched pages are
    /// coalesced into single simulated seek+transfer extents (counted in
    /// `qbism_lfm_extent_phys_reads_total` /
    /// `qbism_lfm_extent_coalesced_pages_total`), and with the page
    /// cache on, each demand fetch may stage up to
    /// [`CacheConfig::readahead_pages`] following pages in the same
    /// transfer.  None of this changes the bytes returned or the
    /// logical [`IoStats`] above — Tables 1–4 stay bit-identical.
    ///
    /// The native cost is one copy per piece, from the device, plus one
    /// accounting step per distinct page; with the pool off a step
    /// covers a whole piece and takes no cache lock at all.  A piece of
    /// at most 16 bytes (most extraction runs) is copied as a fixed
    /// 16-byte window and `out` truncated back to the piece's end, where
    /// the field has 16 bytes from the piece's offset and `out` has 16
    /// bytes of spare capacity; any other piece is one exact copy.
    ///
    /// Pieces must be sorted by offset and non-overlapping (extraction
    /// runs always are); anything else is [`LfmError::UnsortedPieces`],
    /// raised — like [`LfmError::OutOfBounds`] — before any side effect.
    /// The check walks a clone of `pieces`, so a caller hands over the
    /// iterator its runs already live in (a slice's `.iter().copied()`,
    /// a REGION's naive records) rather than building a list of them.
    pub fn read_pieces_into(
        &self,
        id: LongFieldId,
        pieces: impl Iterator<Item = (u64, u64)> + Clone,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let span = trace::span("lfm.read");
        let desc = self.desc(id)?;
        let mut total = 0u64;
        let mut prev_end = 0u64;
        for (index, (offset, len)) in pieces.clone().enumerate() {
            if offset < prev_end {
                return Err(LfmError::UnsortedPieces { index });
            }
            prev_end = match offset.checked_add(len) {
                Some(end) if end <= desc.len => end,
                _ => return Err(LfmError::OutOfBounds { field_len: desc.len, offset, len }),
            };
            total += len;
        }
        // One logical device read; the fault plane sees it as one op.
        let latency = self.device.gate_read(sites::LFM_READ)?;
        self.note_latency(latency);
        let before = out.len();
        out.reserve(total as usize);

        let psz = self.page_size as u64;
        // The field's bytes, contiguous on the device: each piece is one
        // copy from here, whatever the pool holds — a short one as a
        // fixed window, so the copy needs no call.
        let field = self.device.slice(self.geo.data_byte(desc.first_page, 0), desc.len as usize);
        // Device page of the field's page 0: a field page's logical and
        // physical numbers differ by a constant, so one walk serves the
        // logical accounting and the physical plan alike.
        let dev_first = self.geo.data_start + desc.first_page;
        let mut pool = self.pool();
        // Pages this call looked up stay pinned until it ends, so the
        // misses it stages cannot churn them out again.
        let mut pinned: Vec<usize> = Vec::new();
        let (mut pages, mut extents) = (0u64, 0u64);
        let (mut phys_reads, mut coalesced, mut staged_ahead) = (0u64, 0u64, 0u64);
        // Field bytes below `charged` lie in pages already charged; a
        // piece walks only the pages it reaches past that.
        let mut charged = 0u64;
        let mut miss_extent_last: Option<u64> = None;
        let mut rest = pieces;
        loop {
            // The walk at this piece, for the miss path's lookahead.
            let here = rest.clone();
            let Some((offset, len)) = rest.next() else { break };
            let end = offset + len;
            let keep = out.len() + len as usize;
            match field.get(offset as usize..).and_then(<[u8]>::first_chunk::<WINDOW>) {
                // `reserve(total)` sized `out` exactly, so the window
                // must fit the spare capacity, or it would regrow `out`.
                Some(window) if len <= WINDOW as u64 && out.capacity() - out.len() >= WINDOW => {
                    out.extend_from_slice(window);
                    out.truncate(keep);
                }
                _ => out.extend_from_slice(&field[offset as usize..end as usize]),
            }
            let mut at = offset.max(charged);
            while at < end {
                let page = at / psz;
                // A page that does not follow the last one charged
                // opens an extent.
                extents += u64::from(pages == 0 || page * psz != charged);
                let mut last = page;
                if let Some(pool) = pool.as_deref_mut() {
                    if pool.get(dev_first + page).is_none() {
                        // The physical plan, built on a miss only.
                        let extent_last = match miss_extent_last {
                            Some(last) if page <= last => last,
                            _ => extent_last_page(here.clone(), psz),
                        };
                        miss_extent_last = Some(extent_last);
                        let (rode, ahead) = self.stage_miss(pool, desc, page, extent_last);
                        phys_reads += 1;
                        coalesced += rode;
                        staged_ahead += ahead;
                    }
                    if let Some(frame) = pool.frame_of(dev_first + page) {
                        pool.pin(frame);
                        pinned.push(frame);
                    }
                } else if end > (page + 1) * psz {
                    // Unbuffered, the rest of the piece is one run of
                    // pages: charge it in one step.
                    last = (end - 1) / psz;
                }
                pages += last - page + 1;
                charged = (last + 1) * psz;
                at = charged;
            }
        }
        match pool {
            Some(mut pool) => {
                for frame in pinned {
                    pool.unpin(frame);
                }
                let lookups = pool.end_call();
                self.metrics.cache_hits.add(lookups.hits);
                self.metrics.cache_misses.add(lookups.misses);
                self.metrics.cache_evictions.add(lookups.evictions);
                span.record_u64("cache_hits", lookups.hits);
                span.record_u64("cache_misses", lookups.misses);
                span.record_u64("cache_evictions", lookups.evictions);
            }
            // Every logical extent was one physical transfer.
            None => (phys_reads, coalesced) = (extents, pages - extents),
        }
        self.metrics.extent_phys_reads.add(phys_reads);
        self.metrics.extent_coalesced_pages.add(coalesced);
        self.metrics.extent_readahead_pages.add(staged_ahead);
        let sim_seconds = self.charge(IoStats {
            pages_read: pages,
            extents_read: extents,
            read_calls: 1,
            ..IoStats::default()
        });
        // Compressed-tablespace reads: same logical accounting, but the
        // pages fetched are compact payloads — tally them and surface
        // the scan in the span tree.
        if self.compressed.contains(&id.0) {
            self.metrics.compressed_pages_read.add(pages);
            trace::span("lfm.compressed_scan").record_u64("pages", pages);
        }
        if span.is_recording() {
            span.record_u64("pages", pages);
            span.record_u64("extents", extents);
            span.record_u64("bytes", (out.len() - before) as u64);
            span.record_f64("sim_disk_s", sim_seconds);
        }
        Ok(())
    }

    /// Reads a whole field as the object `decode` makes of its bytes,
    /// through the object cache: while the field's object of type `T`
    /// is resident, the call returns it without copying or decoding.
    ///
    /// To the simulated disk a hit and a miss are both exactly
    /// [`read`](LongFieldManager::read): the field lookup, the fault
    /// gate, the page walk with its pool lookups, misses and readahead,
    /// the [`IoStats`] charge, the `lfm.read` (and `lfm.compressed_scan`)
    /// span and the series — so every logical and physical count is the
    /// same whether the object was cached or not.  A failed read returns
    /// its error and stores nothing; so does a failed decode.
    ///
    /// `decode` returns the object and the bytes it holds, which the
    /// cache's budget (the device's data-area bytes) is spent on, least
    /// recently used first.  The cache is host memory, not the modelled
    /// buffer, so it is on whatever the pool setting; with the pool off
    /// a hit still charges what an unbuffered `read` does.  Objects are
    /// keyed by field and type; [`write_piece`](Self::write_piece) and
    /// [`delete`](Self::delete) drop a field's objects, and
    /// [`recover`](Self::recover) drops them all.
    pub fn read_object<T, E>(
        &self,
        id: LongFieldId,
        decode: impl FnOnce(Vec<u8>) -> std::result::Result<(T, usize), E>,
    ) -> std::result::Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
        E: From<LfmError>,
    {
        let key = (id.0, TypeId::of::<T>());
        let cached = self.objects.lock_or_recover().get(key);
        if let Some(object) = cached.and_then(|object| object.downcast::<T>().ok()) {
            self.charge_field_read(id)?;
            return Ok(object);
        }
        let (object, bytes) = decode(self.read(id)?)?;
        let object = Arc::new(object);
        let resident = self.objects.lock_or_recover().insert(key, Arc::clone(&object) as _, bytes);
        Ok(resident.and_then(|resident| resident.downcast::<T>().ok()).unwrap_or(object))
    }

    /// The call [`read`](LongFieldManager::read) makes to the simulated
    /// disk, without the copy: what an object-cache hit costs.  A whole
    /// field is one piece, so this is [`read_pieces_into`]'s walk over
    /// that piece — one extent, each page looked up once, a miss staging
    /// the rest of the field — with the same charge, series and spans.
    /// (It is not that function with its copy switched off: sharing the
    /// per-piece loop cost extraction about a fifth of its speed at 64³
    /// through code layout alone.)
    ///
    /// [`read_pieces_into`]: LongFieldManager::read_pieces_into
    fn charge_field_read(&self, id: LongFieldId) -> Result<()> {
        let span = trace::span("lfm.read");
        let desc = self.desc(id)?;
        let latency = self.device.gate_read(sites::LFM_READ)?;
        self.note_latency(latency);
        let pages = desc.len.div_ceil(self.page_size as u64);
        let extents = u64::from(pages > 0);
        // Unbuffered, the field is one physical transfer.
        let (mut phys_reads, mut coalesced, mut staged_ahead) = (extents, pages - extents, 0);
        if let Some(mut pool) = self.pool() {
            (phys_reads, coalesced) = (0, 0);
            let dev_first = self.geo.data_start + desc.first_page;
            let mut pinned: Vec<usize> = Vec::new();
            for page in 0..pages {
                if pool.get(dev_first + page).is_none() {
                    let (rode, ahead) = self.stage_miss(&mut pool, desc, page, pages - 1);
                    phys_reads += 1;
                    coalesced += rode;
                    staged_ahead += ahead;
                }
                if let Some(frame) = pool.frame_of(dev_first + page) {
                    pool.pin(frame);
                    pinned.push(frame);
                }
            }
            for frame in pinned {
                pool.unpin(frame);
            }
            let lookups = pool.end_call();
            self.metrics.cache_hits.add(lookups.hits);
            self.metrics.cache_misses.add(lookups.misses);
            self.metrics.cache_evictions.add(lookups.evictions);
            span.record_u64("cache_hits", lookups.hits);
            span.record_u64("cache_misses", lookups.misses);
            span.record_u64("cache_evictions", lookups.evictions);
        }
        self.metrics.extent_phys_reads.add(phys_reads);
        self.metrics.extent_coalesced_pages.add(coalesced);
        self.metrics.extent_readahead_pages.add(staged_ahead);
        let sim_seconds = self.charge(IoStats {
            pages_read: pages,
            extents_read: extents,
            read_calls: 1,
            ..IoStats::default()
        });
        if self.compressed.contains(&id.0) {
            self.metrics.compressed_pages_read.add(pages);
            trace::span("lfm.compressed_scan").record_u64("pages", pages);
        }
        if span.is_recording() {
            span.record_u64("pages", pages);
            span.record_u64("extents", extents);
            span.record_u64("bytes", desc.len);
            span.record_f64("sim_disk_s", sim_seconds);
        }
        Ok(())
    }

    /// Serves a demand miss on field page `page`: marks resident the run
    /// of non-resident pages up to `extent_last` (the end of the miss's
    /// physical extent), modelled as one transfer, extended past it by
    /// sequential readahead — the walk then hits the later pages.
    /// Returns the `(coalesced, readahead)` pages that rode the transfer.
    fn stage_miss(
        &self,
        pool: &mut PageCache,
        desc: &FieldDesc,
        page: u64,
        extent_last: u64,
    ) -> (u64, u64) {
        let psz = self.page_size as u64;
        let dev_first = self.geo.data_start + desc.first_page;
        let absent = |pool: &PageCache, page: u64| pool.frame_of(dev_first + page).is_none();
        let mut run_last = page;
        while run_last < extent_last && absent(pool, run_last + 1) {
            run_last += 1;
        }
        let mut ahead = 0u64;
        if run_last == extent_last {
            // Readahead never stages the block's dead tail.
            let field_last = (desc.len - 1) / psz;
            while ahead < self.cache_config.readahead_pages as u64
                && run_last < field_last
                && absent(pool, run_last + 1)
            {
                run_last += 1;
                ahead += 1;
            }
        }
        for run_page in page..=run_last {
            pool.insert(dev_first + run_page);
        }
        (run_last - page - ahead, ahead)
    }

    /// Overwrites `data` at `offset` within an existing field (cannot
    /// grow it).
    ///
    /// The update is undo-logged in journal-sized chunks: each chunk's
    /// pre-image lands in the journal before the data pages change, and
    /// a `WriteCommit` record seals it.  A fault or crash inside a
    /// chunk rolls that chunk back (in memory immediately, or during
    /// [`LongFieldManager::recover`]); already-committed chunks stay.
    pub fn write_piece(&mut self, id: LongFieldId, offset: u64, data: &[u8]) -> Result<()> {
        let desc = self.desc(id)?.clone();
        let len = data.len() as u64;
        if offset.checked_add(len).is_none_or(|end| end > desc.len) {
            return Err(LfmError::OutOfBounds { field_len: desc.len, offset, len });
        }
        if len == 0 {
            return Ok(());
        }
        let span = trace::span("lfm.write");
        let psz = self.page_size as u64;
        let first = (desc.first_page * psz + offset) / psz;
        let last = (desc.first_page * psz + offset + len - 1) / psz;
        // The touched pages change (or roll back) under this call; a
        // stale cached copy, or an object decoded from one, must not
        // survive it either way.
        if let Some(mut pool) = self.pool() {
            pool.invalidate_range(self.geo.data_start + first, last - first + 1);
        }
        self.objects.lock_or_recover().forget_field(id.0);
        self.charge(IoStats {
            pages_written: last - first + 1,
            extents_written: 1,
            write_calls: 1,
            ..IoStats::default()
        });
        span.record_u64("pages", last - first + 1);
        // Undo-logged chunks: journal capacity bounds the pre-image a
        // single record may carry.
        let chunk = (self.geo.journal_capacity() / 4).max(256);
        let commit_len =
            journal::encoded_len(journal::payload_len(&Record::WriteCommit { id: id.0, csum: 0 }));
        let field_base = self.geo.data_byte(desc.first_page, 0);
        let mut done = 0usize;
        while done < data.len() {
            let n = chunk.min(data.len() - done);
            let chunk_off = offset as usize + done;
            let old = self.device.slice(field_base + chunk_off, n).to_vec();
            // Reserve room for this chunk's undo *and* commit together,
            // so a checkpoint can never split the pair across epochs.
            let undo_len = journal::encoded_len(journal::payload_len(&Record::WriteUndo {
                id: id.0,
                offset: chunk_off as u64,
                bytes: Vec::new(),
            })) + n;
            self.ensure_journal_room(undo_len + commit_len + 8)?;
            self.append_journal(&Record::WriteUndo {
                id: id.0,
                offset: chunk_off as u64,
                bytes: old.clone(),
            })?;
            match self.device.write(sites::LFM_WRITE, field_base + chunk_off, &data[done..done + n])
            {
                Ok(latency) => self.note_latency(latency),
                Err(LfmError::Crashed) => return Err(LfmError::Crashed),
                Err(e) => {
                    // Scrub the half-applied chunk back to its pre-image;
                    // the dangling undo record is idempotent if a later
                    // crash replays it.
                    self.device.write_direct(field_base + chunk_off, &old);
                    return Err(e);
                }
            }
            let new_csum = checksum(self.device.slice(field_base, desc.len as usize));
            if let Err(e) = self.append_journal(&Record::WriteCommit { id: id.0, csum: new_csum }) {
                if !matches!(e, LfmError::Crashed) {
                    self.device.write_direct(field_base + chunk_off, &old);
                }
                return Err(e);
            }
            if let Some(d) = self.fields.get_mut(&id.0) {
                d.csum = new_csum;
            }
            done += n;
        }
        Ok(())
    }

    fn desc(&self, id: LongFieldId) -> Result<&FieldDesc> {
        self.fields.get(&id.0).ok_or(LfmError::NoSuchField(id.0))
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Brings a crashed (or suspect) device back to a consistent state:
    /// loads the last checkpoint, replays the journal, rolls back
    /// uncommitted writes, rebuilds the buddy allocator from the
    /// directory, verifies every field's checksum, and finishes with a
    /// fresh checkpoint.  Idempotent on a healthy manager.
    ///
    /// Runs with fault injection suppressed: recovery models the
    /// machine rebooting, not the crash schedule continuing.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        qbism_fault::suppressed(|| self.recover_inner())
    }

    fn recover_inner(&mut self) -> Result<RecoveryReport> {
        let span = trace::span("lfm.recover");
        self.device.clear_crash();
        // Recovery rewrites data pages directly (rollback); start clean.
        self.cache.lock_or_recover().clear();
        self.objects.lock_or_recover().clear();
        let sb = Superblock::decode(self.device.slice(0, SUPER_LEN))?;
        if sb != self.geo.superblock(sb.epoch) {
            return Err(LfmError::CorruptMetadata(
                "superblock geometry disagrees with the formatted device".to_string(),
            ));
        }
        let slot_bytes = self.geo.snap_slot_pages as usize * self.page_size;
        let snap =
            Snapshot::decode(self.device.slice(self.geo.snap_slot_byte(sb.epoch), slot_bytes))?;
        if snap.epoch != sb.epoch {
            return Err(LfmError::CorruptMetadata(format!(
                "snapshot epoch {} does not match superblock epoch {}",
                snap.epoch, sb.epoch
            )));
        }
        let mut fields: HashMap<u64, FieldDesc> = snap
            .entries
            .iter()
            .map(|e| {
                (
                    e.id,
                    FieldDesc {
                        first_page: e.first_page,
                        order: e.order,
                        len: e.len,
                        csum: e.csum,
                    },
                )
            })
            .collect();
        let mut next_id = snap.next_id;
        // Replay the journal.
        let jlog =
            self.device.slice(self.geo.journal_byte(0), self.geo.journal_capacity()).to_vec();
        let mut cursor = 0usize;
        let mut expect_seq = 1u64;
        let mut replayed = 0u64;
        let mut pending: Vec<(u64, u64, Vec<u8>)> = Vec::new(); // (id, offset, pre-image)
        while let Some((consumed, seq, epoch, rec)) = journal::decode(&jlog[cursor..]) {
            if epoch != sb.epoch || seq != expect_seq {
                break; // stale record from before the last checkpoint
            }
            cursor += consumed;
            expect_seq += 1;
            replayed += 1;
            match rec {
                Record::Create { id, first_page, order, len, csum } => {
                    fields.insert(id, FieldDesc { first_page, order, len, csum });
                    next_id = next_id.max(id + 1);
                }
                Record::Delete { id } => {
                    fields.remove(&id);
                    pending.retain(|p| p.0 != id);
                }
                Record::WriteUndo { id, offset, bytes } => pending.push((id, offset, bytes)),
                Record::WriteCommit { id, csum } => {
                    pending.retain(|p| p.0 != id);
                    if let Some(d) = fields.get_mut(&id) {
                        d.csum = csum;
                    }
                }
            }
        }
        // Roll back uncommitted writes, newest first.
        let rolled_back = pending.len() as u64;
        for (id, offset, bytes) in pending.iter().rev() {
            if let Some(d) = fields.get(id) {
                if offset + bytes.len() as u64 <= d.len {
                    self.device.write_direct(self.geo.data_byte(d.first_page, *offset), bytes);
                }
            }
        }
        // Rebuild the allocator by pinning every directory block.
        let mut allocator = BuddyAllocator::new(self.geo.max_order);
        let mut ids: Vec<u64> = fields.keys().copied().collect();
        ids.sort_unstable();
        for id in &ids {
            let d = &fields[id];
            allocator.allocate_at(d.first_page, d.order).map_err(|_| {
                LfmError::CorruptMetadata(format!(
                    "field {id}: block (page {}, order {}) is double-allocated or out of range",
                    d.first_page, d.order
                ))
            })?;
        }
        // Verify every field's bytes against its recorded checksum.
        for id in &ids {
            let d = &fields[id];
            let actual =
                checksum(self.device.slice(self.geo.data_byte(d.first_page, 0), d.len as usize));
            if actual != d.csum {
                return Err(LfmError::CorruptMetadata(format!(
                    "field {id} failed its data checksum after replay"
                )));
            }
        }
        // Install and start a clean epoch.
        self.fields = fields;
        self.allocator = allocator;
        self.next_id = next_id;
        self.epoch = sb.epoch;
        self.journal_cursor = cursor;
        self.journal_seq = expect_seq - 1;
        self.checkpoint()?;
        self.meta.recoveries += 1;
        self.meta.rolled_back_writes += rolled_back;
        self.publish_allocation();
        self.check_invariants()?;
        let report = RecoveryReport {
            epoch: self.epoch,
            fields: self.fields.len(),
            replayed_records: replayed,
            rolled_back_writes: rolled_back,
        };
        span.record_u64("replayed", replayed);
        span.record_u64("rolled_back", rolled_back);
        span.record_u64("fields", report.fields as u64);
        Ok(report)
    }

    /// Structural audit of the storage layer: the buddy free lists are
    /// internally consistent, the allocator's live set and the field
    /// directory agree block-for-block (no leaked pages, no double
    /// allocation), every block sits inside the data area, and every
    /// field's bytes match its recorded checksum.
    pub fn check_invariants(&self) -> Result<()> {
        self.allocator.verify()?;
        let live: BTreeSet<(u64, u32)> = self.allocator.live_blocks().collect();
        let directory: BTreeSet<(u64, u32)> =
            self.fields.values().map(|d| (d.first_page, d.order)).collect();
        if live != directory {
            return Err(LfmError::CorruptMetadata(format!(
                "allocator live set ({} blocks) disagrees with field directory ({} blocks)",
                live.len(),
                directory.len()
            )));
        }
        if directory.len() != self.fields.len() {
            return Err(LfmError::CorruptMetadata("two fields share one block".to_string()));
        }
        for (id, d) in &self.fields {
            let block_pages = 1u64 << d.order;
            if d.first_page + block_pages > self.geo.data_pages {
                return Err(LfmError::CorruptMetadata(format!(
                    "field {id} extends past the data area"
                )));
            }
            if d.len > block_pages * self.page_size as u64 {
                return Err(LfmError::CorruptMetadata(format!(
                    "field {id} is longer than its block"
                )));
            }
            let actual =
                checksum(self.device.slice(self.geo.data_byte(d.first_page, 0), d.len as usize));
            if actual != d.csum {
                return Err(LfmError::CorruptMetadata(format!(
                    "field {id} bytes do not match the directory checksum"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qbism_fault::FaultPlane;

    fn mk() -> LongFieldManager {
        LongFieldManager::new(1 << 22, 4096).unwrap() // 4 MiB device
    }

    /// Poisons a mutex by panicking while its guard is held.
    fn poison<T>(m: &Mutex<T>) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock();
            panic!("deliberate poison");
        }));
        assert!(result.is_err());
    }

    #[test]
    fn reads_answer_after_cache_and_acct_poison() {
        let mut lfm = mk();
        lfm.set_cache_config(CacheConfig { capacity_pages: 8, enabled: true, readahead_pages: 0 });
        let data: Vec<u8> = (0..9_000u32).map(|i| (i % 199) as u8).collect();
        let id = lfm.create(&data).unwrap();
        poison(&lfm.cache);
        poison(&lfm.acct);
        assert_eq!(lfm.read(id).unwrap(), data, "read must recover from poisoned locks");
        assert_eq!(lfm.read_piece(id, 100, 50).unwrap(), &data[100..150]);
        assert!(lfm.stats().pages_read >= 1, "accounting kept working after recovery");
    }

    /// Threads in a [`race`]: twice the cores of a small CI runner, so
    /// some are preempted mid-call as well as contending.
    const THREADS: u64 = 4;

    /// Runs `work(t)` on `THREADS` real threads released together.
    fn race(work: impl Fn(u64) + Sync) {
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (work, start) = (&work, &start);
                s.spawn(move || {
                    start.wait();
                    work(t);
                });
            }
        });
    }

    /// The real manager read path — acct brackets plus the page cache —
    /// on real threads.  Reads take `&self`, so the threads share one
    /// manager, exactly like the serving path under concurrent clients;
    /// every read lands in the shared counters.  With the pool off the
    /// readers never meet on `lfm.cache`, so they charge the counters
    /// at the same moments; with it on they share the pool too.
    #[test]
    fn concurrent_piece_reads_agree() {
        const READS: u64 = 10_000;
        let mut lfm = mk();
        let data: Vec<u8> = (0..4096u32 * 3).map(|i| (i % 251) as u8).collect();
        let id = lfm.create(&data).unwrap();
        for enabled in [false, true] {
            lfm.set_cache_config(CacheConfig { capacity_pages: 4, enabled, readahead_pages: 0 });
            lfm.reset_stats();
            race(|t| {
                let off = t % 3 * 4096 + 17;
                for _ in 0..READS {
                    let got = lfm.read_piece(id, off, 2048).unwrap();
                    assert_eq!(got, &data[off as usize..][..2048]);
                }
            });
            assert_eq!(lfm.stats().read_calls, THREADS * READS, "pool on: {enabled}");
        }
    }

    #[test]
    fn cold_read_coalesces_misses_into_one_transfer() {
        let mut lfm = mk();
        lfm.set_cache_config(CacheConfig { capacity_pages: 8, enabled: true, readahead_pages: 0 });
        let data: Vec<u8> = (0..4096u32 * 6).map(|i| (i % 241) as u8).collect();
        let id = lfm.create(&data).unwrap();
        lfm.reset_stats();
        assert_eq!(lfm.read(id).unwrap(), data);
        // One demand miss pulled the whole 6-page extent in one physical
        // transfer; the remaining five pages were pool hits.
        let cs = lfm.cache_stats();
        assert_eq!(cs.misses, 1, "coalesced fetch should fault once: {cs:?}");
        assert_eq!(cs.hits, 5);
        // Logical accounting is unchanged by the physical plan.
        let s = lfm.stats();
        assert_eq!(s.pages_read, 6);
        assert_eq!(s.extents_read, 1);
        assert_eq!(s.read_calls, 1);
    }

    #[test]
    fn readahead_is_cache_transparent() {
        let data: Vec<u8> = (0..4096u32 * 6).map(|i| (i % 239) as u8).collect();
        let pieces: [(u64, u64); 2] = [(10, 100), (4096 + 7, 200)];

        // Oracle: the paper's unbuffered LFM running the same reads.
        let mut oracle = mk();
        let oid = oracle.create(&data).unwrap();
        let mut expect = Vec::new();
        for &(o, l) in &pieces {
            oracle.read_pieces_into(oid, [(o, l)].into_iter(), &mut expect).unwrap();
        }

        let mut lfm = mk();
        lfm.set_cache_config(CacheConfig { capacity_pages: 8, enabled: true, readahead_pages: 4 });
        let id = lfm.create(&data).unwrap();
        let mut got = Vec::new();
        for &(o, l) in &pieces {
            lfm.read_pieces_into(id, [(o, l)].into_iter(), &mut got).unwrap();
        }
        assert_eq!(got, expect, "readahead must not change the bytes");
        assert_eq!(lfm.stats(), oracle.stats(), "readahead must not change logical IoStats");
        // But it did its job: the first read staged page 1, so the
        // second read was served from the pool.
        let cs = lfm.cache_stats();
        assert_eq!(cs.misses, 1, "second read should be a readahead hit: {cs:?}");
        assert_eq!(cs.hits, 1);
    }

    #[test]
    fn readahead_stops_at_the_field_tail() {
        let mut lfm = mk();
        lfm.set_cache_config(CacheConfig {
            capacity_pages: 16,
            enabled: true,
            readahead_pages: 64,
        });
        // A 2.5-page field: readahead from page 0 may stage pages 1 and
        // 2 (the last live page) and nothing beyond.
        let data: Vec<u8> = (0..4096 * 2 + 2048).map(|i| (i % 233) as u8).collect();
        let id = lfm.create(&data).unwrap();
        assert_eq!(lfm.read_piece(id, 0, 100).unwrap(), &data[..100]);
        // All three live pages are now resident; a full re-read is pure hits.
        lfm.reset_stats();
        assert_eq!(lfm.read(id).unwrap(), data);
        let cs = lfm.cache_stats();
        assert_eq!(cs.misses, 1, "only the first demand read should miss: {cs:?}");
        // Logical accounting still charges every touched page.
        assert_eq!(lfm.stats().pages_read, 3);
    }

    /// Pins no longer guard bytes, but they still steer the clock: a
    /// call's own misses never evict the pages it already looked up.
    #[test]
    fn a_call_never_evicts_its_own_pages() {
        let mut lfm = mk();
        lfm.set_cache_config(CacheConfig { capacity_pages: 2, enabled: true, readahead_pages: 0 });
        let data: Vec<u8> = (0..4096u32 * 5).map(|i| (i % 239) as u8).collect();
        let id = lfm.create(&data).unwrap();
        // Three one-page extents through a two-frame pool: the third
        // miss finds both frames pinned and stages nothing.
        let pieces: [(u64, u64); 3] = [(0, 10), (2 * 4096, 10), (4 * 4096, 10)];
        let mut out = Vec::new();
        lfm.read_pieces_into(id, pieces.iter().copied(), &mut out).unwrap();
        assert_eq!(lfm.cache_stats(), CacheStats { misses: 3, ..CacheStats::default() });
        lfm.read_pieces_into(id, pieces.iter().copied(), &mut out).unwrap();
        assert_eq!(lfm.cache_stats(), CacheStats { hits: 2, misses: 4, ..CacheStats::default() });
        let want: Vec<u8> = pieces
            .iter()
            .flat_map(|&(o, l)| &data[o as usize..(o + l) as usize])
            .copied()
            .collect();
        assert_eq!(out, [want.clone(), want].concat());
    }

    /// With the pool on, a read after an in-place write, and after a
    /// torn write and recovery, returns the device's current bytes, and
    /// the pages the write touched are misses again.
    #[test]
    fn pooled_reads_follow_writes_and_recovery() {
        let mut lfm = mk();
        lfm.set_cache_config(CacheConfig { capacity_pages: 8, enabled: true, readahead_pages: 0 });
        let mut data: Vec<u8> = (0..4096u32 * 3).map(|i| (i % 241) as u8).collect();
        let id = lfm.create(&data).unwrap();
        assert_eq!(lfm.read(id).unwrap(), data);
        // Reads field page `p`, checks its bytes and returns the read's
        // `(hits, misses)`.
        let page = |lfm: &LongFieldManager, p: usize, want: &[u8]| {
            let before = lfm.cache_stats();
            let got = lfm.read_piece(id, p as u64 * 4096, 4096).unwrap();
            assert_eq!(got, &want[p * 4096..(p + 1) * 4096], "page {p}");
            let after = lfm.cache_stats();
            (after.hits - before.hits, after.misses - before.misses)
        };
        lfm.write_piece(id, 4096 + 10, &[0xAB; 20]).unwrap();
        data[4096 + 10..4096 + 30].fill(0xAB);
        assert_eq!(page(&lfm, 1, &data), (0, 1), "the written page went back to the device");
        assert_eq!(page(&lfm, 0, &data), (1, 0), "an untouched page stayed resident");
        assert_eq!(page(&lfm, 2, &data), (1, 0), "an untouched page stayed resident");

        let scope = FaultPlane::new(5).torn_nth("lfm.write", 1, 0.5).arm();
        assert!(lfm.write_piece(id, 2 * 4096, &[0xCD; 4096]).is_err(), "the torn write errs");
        drop(scope);
        assert_eq!(page(&lfm, 2, &data), (0, 1), "the torn page went back to the device");
        lfm.recover().unwrap();
        for p in 0..3 {
            assert_eq!(page(&lfm, p, &data), (0, 1), "recovery empties the pool");
        }
    }

    /// Readahead on real threads: the threads race pieces through one
    /// manager with prefetch on, and the answers and the logical
    /// accounting come out exactly as the unbuffered manager's would.
    #[test]
    fn concurrent_readahead_is_cache_transparent() {
        const READS: u64 = 10_000;
        let data: Vec<u8> = (0..4096u32 * 4).map(|i| (i % 251) as u8).collect();
        let offset = |t: u64| t % 2 * 4096 + 17;
        // Every read of a piece charges the unbuffered manager the same.
        let mut oracle = mk();
        let oid = oracle.create(&data).unwrap();
        let mut want = IoStats::default();
        for t in 0..THREADS {
            oracle.reset_stats();
            oracle.read_piece(oid, offset(t), 2048).unwrap();
            want = (0..READS).fold(want, |sum, _| sum.plus(&oracle.stats()));
        }

        let mut lfm = mk();
        lfm.set_cache_config(CacheConfig { capacity_pages: 8, enabled: true, readahead_pages: 2 });
        let id = lfm.create(&data).unwrap();
        lfm.reset_stats();
        race(|t| {
            let off = offset(t);
            for _ in 0..READS {
                let got = lfm.read_piece(id, off, 2048).unwrap();
                assert_eq!(got, &data[off as usize..][..2048]);
            }
        });
        // IoStats is a commutative sum of per-call deltas, so every
        // interleaving must land on the sequential oracle's numbers.
        assert_eq!(lfm.stats(), want);
    }

    #[test]
    fn create_read_roundtrip() {
        let mut lfm = mk();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let id = lfm.create(&data).unwrap();
        assert_eq!(lfm.len(id).unwrap(), 10_000);
        assert_eq!(lfm.read(id).unwrap(), data);
        assert_eq!(lfm.field_count(), 1);
    }

    #[test]
    fn read_piece_returns_exact_bytes() {
        let mut lfm = mk();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 256) as u8).collect();
        let id = lfm.create(&data).unwrap();
        let piece = lfm.read_piece(id, 12_345, 678).unwrap();
        assert_eq!(piece, &data[12_345..12_345 + 678]);
        let empty = lfm.read_piece(id, 5, 0).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn page_accounting_full_read() {
        let mut lfm = mk();
        let id = lfm.create(&vec![1u8; 4096 * 5 + 1]).unwrap();
        assert_eq!(lfm.stats().pages_written, 6);
        assert_eq!(lfm.stats().extents_written, 1);
        lfm.reset_stats();
        let _ = lfm.read(id).unwrap();
        let s = lfm.stats();
        assert_eq!(s.pages_read, 6);
        assert_eq!(s.extents_read, 1, "a whole field is one sequential extent");
        assert_eq!(s.read_calls, 1);
    }

    #[test]
    fn piece_reads_coalesce_shared_pages() {
        let mut lfm = mk();
        let id = lfm.create(&vec![9u8; 4096 * 4]).unwrap();
        lfm.reset_stats();
        // Many small pieces inside one page: charged once.
        let pieces: Vec<(u64, u64)> = (0..50).map(|i| (i * 80, 40)).collect();
        let mut out = Vec::new();
        lfm.read_pieces_into(id, pieces.iter().copied(), &mut out).unwrap();
        assert_eq!(out.len(), 50 * 40);
        assert_eq!(lfm.stats().pages_read, 1);
        assert_eq!(lfm.stats().extents_read, 1);
    }

    #[test]
    fn scattered_pieces_count_extents() {
        let mut lfm = mk();
        let id = lfm.create(&vec![5u8; 4096 * 64]).unwrap();
        lfm.reset_stats();
        // Pieces on pages 0, 2, 3, 9: extents {0}, {2,3}, {9} = 3 seeks.
        let pieces = [(0u64, 10u64), (4096 * 2, 10), (4096 * 3, 10), (4096 * 9 + 100, 10)];
        let mut out = Vec::new();
        lfm.read_pieces_into(id, pieces.iter().copied(), &mut out).unwrap();
        let s = lfm.stats();
        assert_eq!(s.pages_read, 4);
        assert_eq!(s.extents_read, 3);
    }

    #[test]
    fn piece_spanning_pages() {
        let mut lfm = mk();
        let id = lfm.create(&vec![3u8; 4096 * 8]).unwrap();
        lfm.reset_stats();
        let _ = lfm.read_piece(id, 4000, 200).unwrap(); // spans pages 0-1
        assert_eq!(lfm.stats().pages_read, 2);
        assert_eq!(lfm.stats().extents_read, 1);
    }

    #[test]
    fn out_of_bounds_reads_error() {
        let mut lfm = mk();
        let id = lfm.create(&[0u8; 100]).unwrap();
        assert!(matches!(
            lfm.read_piece(id, 90, 20),
            Err(LfmError::OutOfBounds { field_len: 100, offset: 90, len: 20 })
        ));
        // `offset + len` wrapping past u64::MAX must not slip under the
        // bounds check, and a huge `len` must not be allocated for.
        for (offset, len) in [(u64::MAX, 2), (2, u64::MAX), (0, u64::MAX)] {
            assert_eq!(
                lfm.read_piece(id, offset, len),
                Err(LfmError::OutOfBounds { field_len: 100, offset, len })
            );
        }
        assert_eq!(
            lfm.write_piece(id, u64::MAX, &[1, 2]),
            Err(LfmError::OutOfBounds { field_len: 100, offset: u64::MAX, len: 2 })
        );
        assert_eq!(lfm.stats().read_calls, 0, "a rejected read charges nothing");
    }

    #[test]
    fn delete_frees_space_and_invalidates_id() {
        let mut lfm = LongFieldManager::new(4096 * 16, 4096).unwrap();
        let id = lfm.create(&vec![0u8; 4096 * 16]).unwrap();
        assert!(lfm.create(&[1, 2, 3]).is_err(), "device should be full");
        lfm.delete(id).unwrap();
        assert_eq!(lfm.allocated_pages(), 0);
        assert!(matches!(lfm.read(id), Err(LfmError::NoSuchField(_))));
        assert!(lfm.create(&[1, 2, 3]).is_ok());
    }

    #[test]
    fn write_piece_updates_in_place() {
        let mut lfm = mk();
        let id = lfm.create(&vec![0u8; 5000]).unwrap();
        lfm.write_piece(id, 4090, &[7u8; 10]).unwrap();
        assert_eq!(lfm.read_piece(id, 4090, 10).unwrap(), vec![7u8; 10]);
        assert_eq!(lfm.read_piece(id, 4080, 10).unwrap(), vec![0u8; 10]);
        assert!(lfm.write_piece(id, 4995, &[1u8; 10]).is_err());
    }

    #[test]
    fn geometry_validation() {
        assert!(matches!(LongFieldManager::new(0, 4096), Err(LfmError::BadGeometry(_))));
        assert!(matches!(LongFieldManager::new(4096, 0), Err(LfmError::BadGeometry(_))));
    }

    #[test]
    fn volume_scale_field_write_counts() {
        // A 2 MiB study (the paper's 128^3 volume) = 512 pages, 1 extent.
        let mut lfm = LongFieldManager::new(1 << 23, 4096).unwrap();
        let id = lfm.create(&vec![42u8; 2 * 1024 * 1024]).unwrap();
        assert_eq!(lfm.stats().pages_written, 512);
        lfm.reset_stats();
        let _ = lfm.read(id).unwrap();
        // The paper's Q1 charges 513 reads (volume pages + the region's
        // single run descriptor); the raw volume itself is 512.
        assert_eq!(lfm.stats().pages_read, 512);
    }

    #[test]
    fn unsorted_pieces_are_a_typed_error() {
        let mut lfm = mk();
        let id = lfm.create(&vec![0u8; 4096]).unwrap();
        lfm.reset_stats();
        // Raised before the fault gate: the armed plane never sees an op.
        let scope = FaultPlane::new(5).fail_nth("lfm.read", 1).arm();
        // An answer already under way: no error may touch its bytes.
        let prefix: Vec<u8> = (1..=37).collect();
        let mut out = prefix.clone();
        assert_eq!(
            lfm.read_pieces_into(id, [(100, 10), (50, 10)].into_iter(), &mut out),
            Err(LfmError::UnsortedPieces { index: 1 })
        );
        assert_eq!(
            lfm.read_pieces_into(id, [(0, 10), (20, 10), (25, 10)].into_iter(), &mut out),
            Err(LfmError::UnsortedPieces { index: 2 }),
            "overlap is the same error"
        );
        assert_eq!(
            lfm.read_pieces_into(id, [(0, 4), (4090, 8)].into_iter(), &mut out),
            Err(LfmError::OutOfBounds { field_len: 4096, offset: 4090, len: 8 })
        );
        assert_eq!(out, prefix);
        assert_eq!(lfm.stats(), IoStats::default(), "nothing was charged");
        // The fault gate fails before the first piece is copied.
        assert_eq!(
            lfm.read_pieces_into(id, [(0, 4), (8, 16)].into_iter(), &mut out),
            Err(LfmError::DeviceFault { op: "lfm.read" })
        );
        assert_eq!(out, prefix);
        drop(scope);
    }

    /// `pieces` as 16-byte little-endian `<offset, len>` records.
    fn as_records(pieces: &[(u64, u64)]) -> Vec<u8> {
        pieces.iter().flat_map(|&(o, l)| [o.to_le_bytes(), l.to_le_bytes()]).flatten().collect()
    }

    /// The pieces read back out of [`as_records`]' bytes: an iterator
    /// over a run list no slice of pairs backs, like a REGION's.
    fn from_records(bytes: &[u8]) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        bytes.chunks_exact(16).map(move |r| (word(&r[..8]), word(&r[8..])))
    }

    /// Whatever iterator holds the pieces, a bad list is the same error
    /// at the same index, raised before any side effect.
    #[test]
    fn iterator_and_slice_forms_fail_alike() {
        let mut lfm = mk();
        let id = lfm.create(&vec![0u8; 4096]).unwrap();
        lfm.reset_stats();
        let bad: [&[(u64, u64)]; 5] = [
            &[(100, 10), (50, 10)],
            &[(0, 10), (20, 10), (25, 10)],
            &[(0, 10), (10, 0), (10, 5000)],
            &[(0, 1), (u64::MAX, 2)],
            &[(0, 4096), (4096, 0), (4096, 1)],
        ];
        for pieces in bad {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let slice = lfm.read_pieces_into(id, pieces.iter().copied(), &mut a);
            let records = as_records(pieces);
            let iter = lfm.read_pieces_into(id, from_records(&records), &mut b);
            assert!(slice.is_err(), "{pieces:?}");
            assert_eq!(slice, iter, "{pieces:?}");
            assert!(a.is_empty() && b.is_empty());
        }
        assert_eq!(lfm.stats(), IoStats::default(), "nothing was charged");
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery
    // ------------------------------------------------------------------

    #[test]
    fn metadata_io_never_touches_io_stats() {
        let mut lfm = mk();
        let before = lfm.stats();
        assert_eq!(before, IoStats::default());
        let id = lfm.create(&vec![1u8; 10_000]).unwrap();
        let s = lfm.stats();
        assert_eq!(s.pages_written, 3, "journal traffic must not inflate data-plane pages");
        assert_eq!(s.write_calls, 1);
        assert!(lfm.meta_stats().journal_records >= 1);
        lfm.delete(id).unwrap();
        assert_eq!(lfm.stats().pages_written, 3, "delete charges no data I/O");
    }

    #[test]
    fn injected_read_error_is_typed_and_transient() {
        let mut lfm = mk();
        let id = lfm.create(&[7u8; 100]).unwrap();
        let scope = FaultPlane::new(5).fail_nth("lfm.read", 1).arm();
        assert_eq!(lfm.read(id), Err(LfmError::DeviceFault { op: "lfm.read" }));
        assert_eq!(lfm.read(id).unwrap(), vec![7u8; 100], "next read succeeds");
        drop(scope);
        lfm.check_invariants().unwrap();
    }

    #[test]
    fn failed_create_leaks_nothing() {
        let mut lfm = mk();
        let scope = FaultPlane::new(5).fail_nth("lfm.write", 1).arm();
        assert!(matches!(lfm.create(&vec![1u8; 9000]), Err(LfmError::DeviceFault { .. })));
        drop(scope);
        assert_eq!(lfm.field_count(), 0);
        assert_eq!(lfm.allocated_pages(), 0);
        lfm.check_invariants().unwrap();
        // And the device is fully reusable.
        let id = lfm.create(&vec![2u8; 9000]).unwrap();
        assert_eq!(lfm.read(id).unwrap(), vec![2u8; 9000]);
    }

    #[test]
    fn torn_journal_append_is_scrubbed_and_recoverable() {
        let mut lfm = mk();
        let keep = lfm.create(&vec![3u8; 5000]).unwrap();
        let scope = FaultPlane::new(5).torn_nth("lfm.meta.write", 1, 0.7).arm();
        assert!(lfm.create(&vec![4u8; 5000]).is_err(), "torn Create append must error");
        drop(scope);
        assert_eq!(lfm.field_count(), 1);
        lfm.check_invariants().unwrap();
        // A recovery pass sees exactly the committed world.
        let report = lfm.recover().unwrap();
        assert_eq!(report.fields, 1);
        assert_eq!(lfm.read(keep).unwrap(), vec![3u8; 5000]);
    }

    #[test]
    fn crash_then_recover_preserves_committed_fields() {
        let mut lfm = mk();
        let a: Vec<u8> = (0..9_000u32).map(|i| (i % 211) as u8).collect();
        let b: Vec<u8> = (0..3_000u32).map(|i| (i % 13) as u8).collect();
        let ida = lfm.create(&a).unwrap();
        let idb = lfm.create(&b).unwrap();
        // Crash on the data write of a third field.
        let scope = FaultPlane::new(5).crash_nth("lfm.write", 1).arm();
        assert_eq!(lfm.create(&vec![9u8; 20_000]), Err(LfmError::Crashed));
        assert!(lfm.is_crashed());
        assert_eq!(lfm.read(ida), Err(LfmError::Crashed), "crashed device refuses reads");
        drop(scope);
        let report = lfm.recover().unwrap();
        assert!(!lfm.is_crashed());
        assert_eq!(report.fields, 2);
        assert_eq!(lfm.read(ida).unwrap(), a);
        assert_eq!(lfm.read(idb).unwrap(), b);
        assert_eq!(lfm.meta_stats().recoveries, 1);
        lfm.check_invariants().unwrap();
    }

    #[test]
    fn uncommitted_write_rolls_back_on_recovery() {
        let mut lfm = mk();
        let data = vec![1u8; 6000];
        let id = lfm.create(&data).unwrap();
        // Crash on the in-place data write: the undo record is durable,
        // the commit never lands.
        let scope = FaultPlane::new(5).crash_nth("lfm.write", 1).arm();
        assert_eq!(lfm.write_piece(id, 1000, &[8u8; 500]), Err(LfmError::Crashed));
        drop(scope);
        let report = lfm.recover().unwrap();
        assert_eq!(report.rolled_back_writes, 1);
        assert_eq!(lfm.read(id).unwrap(), data, "pre-image restored");
        lfm.check_invariants().unwrap();
    }

    #[test]
    fn committed_write_survives_recovery() {
        let mut lfm = mk();
        let id = lfm.create(&vec![1u8; 6000]).unwrap();
        lfm.write_piece(id, 1000, &[8u8; 500]).unwrap();
        let mut expect = vec![1u8; 6000];
        expect[1000..1500].copy_from_slice(&[8u8; 500]);
        // Crash somewhere else entirely, then recover.
        let scope = FaultPlane::new(5).crash_nth("lfm.read", 1).arm();
        assert_eq!(lfm.read(id), Err(LfmError::Crashed));
        drop(scope);
        lfm.recover().unwrap();
        assert_eq!(lfm.read(id).unwrap(), expect);
    }

    #[test]
    fn a_flip_in_a_fields_last_partial_word_is_reported() {
        // 8 whole checksum words and a 5-byte tail, beside a field that
        // stays intact: every bit of the tail is checked byte by byte.
        let mut lfm = mk();
        let data: Vec<u8> = (0..69u32).map(|i| (i * 37 % 251) as u8).collect();
        let id = lfm.create(&data).unwrap();
        let other = lfm.create(&vec![5u8; 4096]).unwrap();
        let first_page = lfm.fields[&id.0].first_page;
        for offset in 64..69 {
            for bit in 0..8 {
                let at = lfm.geo.data_byte(first_page, offset);
                let flip = |lfm: &mut LongFieldManager| {
                    let byte = lfm.device.slice(at, 1)[0] ^ (1 << bit);
                    lfm.device.write_direct(at, &[byte]);
                };
                flip(&mut lfm);
                let verify = lfm.check_invariants().unwrap_err().to_string();
                assert!(verify.contains("do not match the directory checksum"), "{verify}");
                let recover = lfm.recover().unwrap_err().to_string();
                assert!(recover.contains("failed its data checksum"), "{recover}");
                flip(&mut lfm);
                lfm.check_invariants().unwrap();
            }
        }
        lfm.recover().unwrap();
        assert_eq!(lfm.read(id).unwrap(), data);
        assert_eq!(lfm.read(other).unwrap(), vec![5u8; 4096]);
    }

    #[test]
    fn recovery_is_idempotent_on_a_healthy_store() {
        let mut lfm = mk();
        let data: Vec<u8> = (0..12_345u32).map(|i| (i % 199) as u8).collect();
        let id = lfm.create(&data).unwrap();
        let r1 = lfm.recover().unwrap();
        let r2 = lfm.recover().unwrap();
        assert_eq!(r1.fields, 1);
        assert_eq!(r2.fields, 1);
        assert_eq!(lfm.read(id).unwrap(), data);
    }

    #[test]
    fn checkpoint_wraps_the_journal_without_losing_state() {
        // A small device has a >= 8-page journal; force enough churn to
        // wrap it several times.
        let mut lfm = LongFieldManager::new(4096 * 64, 4096).unwrap();
        let mut live = Vec::new();
        for round in 0..600u32 {
            let data = vec![(round % 251) as u8; 64];
            let id = lfm.create(&data).unwrap();
            live.push((id, data));
            if live.len() > 8 {
                let (old, _) = live.remove(0);
                lfm.delete(old).unwrap();
            }
        }
        assert!(lfm.meta_stats().checkpoints > 0, "journal must have wrapped");
        for (id, data) in &live {
            assert_eq!(&lfm.read(*id).unwrap(), data);
        }
        lfm.check_invariants().unwrap();
        // And the durable state still recovers.
        lfm.recover().unwrap();
        for (id, data) in &live {
            assert_eq!(&lfm.read(*id).unwrap(), data);
        }
    }

    #[test]
    fn injected_latency_accumulates_separately() {
        let mut lfm = mk();
        let id = lfm.create(&[1u8; 100]).unwrap();
        lfm.reset_stats();
        let _scope = FaultPlane::new(5)
            .rule(
                "lfm.read",
                qbism_fault::Trigger::Always,
                qbism_fault::FaultOutcome::Latency { seconds: 0.125 },
            )
            .arm();
        let bracket = crate::IoBracket::begin();
        let _ = lfm.read(id).unwrap();
        let _ = lfm.read(id).unwrap();
        let (io, latency) = bracket.finish();
        assert!((latency - 0.25).abs() < 1e-12);
        assert_eq!(io.pages_read, 2, "latency does not change I/O counts");
        assert_eq!(lfm.stats().pages_read, 2);
    }

    /// Reads `pieces` of `data` at every page size (non-power-of-two
    /// included) × pool setting × readahead, appending to an `out` that
    /// already holds `prefix`, and checks the flat-buffer oracle's bytes
    /// and the page-set oracle's logical `IoStats`, and that a cached
    /// call looks each distinct page up exactly once.  With `exact`,
    /// `out` arrives with capacity for exactly the answer, no spare: the
    /// read must fill it without regrowing it.
    fn assert_pieces_roundtrip(data: &[u8], pieces: &[(u64, u64)], prefix: &[u8], exact: bool) {
        let mut expect = prefix.to_vec();
        for &(o, l) in pieces {
            expect.extend_from_slice(&data[o as usize..(o + l) as usize]);
        }
        let records = as_records(pieces);
        for page_size in [4096u64, 512, 100] {
            let touched: BTreeSet<u64> = pieces
                .iter()
                .filter(|&&(_, l)| l > 0)
                .flat_map(|&(o, l)| o / page_size..=(o + l - 1) / page_size)
                .collect();
            let want = IoStats {
                pages_read: touched.len() as u64,
                extents_read: touched
                    .iter()
                    .filter(|&&p| p == 0 || !touched.contains(&(p - 1)))
                    .count() as u64,
                read_calls: 1,
                ..IoStats::default()
            };
            for capacity_pages in [0usize, 2, 512] {
                for readahead_pages in [0usize, 8] {
                    let mut lfm = LongFieldManager::new(1 << 16, page_size as usize).unwrap();
                    lfm.set_cache_config(CacheConfig {
                        capacity_pages,
                        enabled: capacity_pages > 0,
                        readahead_pages,
                    });
                    let id = lfm.create(data).unwrap();
                    // Twice: cold through the slice, then through a run
                    // list no slice of pairs backs, against whatever the
                    // pool kept.
                    for pass in 0..2 {
                        lfm.reset_stats();
                        let looked_up = lfm.cache_stats();
                        let mut out = Vec::with_capacity(if exact { expect.len() } else { 0 });
                        out.extend_from_slice(prefix);
                        let capacity = out.capacity();
                        if pass == 0 {
                            lfm.read_pieces_into(id, pieces.iter().copied(), &mut out).unwrap();
                        } else {
                            lfm.read_pieces_into(id, from_records(&records), &mut out).unwrap();
                        }
                        assert_eq!(out, expect);
                        if exact {
                            assert_eq!(out.capacity(), capacity, "the answer was regrown");
                        }
                        assert_eq!(lfm.stats(), want);
                        let cs = lfm.cache_stats();
                        let lookups = cs.hits + cs.misses - looked_up.hits - looked_up.misses;
                        assert_eq!(lookups, if capacity_pages > 0 { want.pages_read } else { 0 });
                    }
                    lfm.cache.lock_or_recover().validate();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The object cache
    // ------------------------------------------------------------------

    /// A pool of `pages` frames (zero: off), no readahead.
    fn pooled(pages: usize) -> LongFieldManager {
        let mut lfm = mk();
        lfm.set_cache_config(CacheConfig {
            capacity_pages: pages,
            enabled: pages > 0,
            readahead_pages: 0,
        });
        lfm
    }

    /// A decoder that keeps the bytes, reports their length and counts
    /// its calls.
    fn counting(
        calls: &std::cell::Cell<u32>,
    ) -> impl FnOnce(Vec<u8>) -> Result<(Vec<u8>, usize)> + '_ {
        move |bytes| {
            calls.set(calls.get() + 1);
            let len = bytes.len();
            Ok((bytes, len))
        }
    }

    /// Runs `read` under a root span: what it cost the simulated disk,
    /// the pool lookups it made, and every span it opened with its
    /// fields.
    fn traced(lfm: &LongFieldManager, read: impl FnOnce()) -> (IoStats, (u64, u64), Vec<String>) {
        fn flatten(node: &qbism_obs::SpanNode, out: &mut Vec<String>) {
            let fields: Vec<String> = node.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push(format!("{} {}", node.name, fields.join(" ")));
            node.children.iter().for_each(|child| flatten(child, out));
        }
        let (io, pool) = (lfm.stats(), lfm.cache_stats());
        let root = trace::root("test.read");
        read();
        drop(root);
        let mut spans = Vec::new();
        flatten(&trace::last_root().expect("a finished root"), &mut spans);
        let after = lfm.cache_stats();
        let delta = IoStats {
            pages_read: lfm.stats().pages_read - io.pages_read,
            extents_read: lfm.stats().extents_read - io.extents_read,
            read_calls: lfm.stats().read_calls - io.read_calls,
            ..IoStats::default()
        };
        (delta, (after.hits - pool.hits, after.misses - pool.misses), spans)
    }

    /// A miss, a hit and `read` are one call to the simulated disk:
    /// equal I/O, pool lookups and spans, call for call — for a plain,
    /// a compressed and an empty field, with the pool off and on, with
    /// and without readahead, and with another field's reads evicting
    /// pages between the calls; only the miss decodes.
    #[test]
    fn an_object_hit_charges_the_disk_like_a_miss_and_a_read() {
        let churn: Vec<u8> = vec![3; 4096 * 6];
        let rows = [false, true].into_iter().flat_map(|enabled| {
            [(false, 0), (true, 0), (false, 4), (true, 4)].map(|(c, r)| (enabled, c, r))
        });
        for len in [4096 * 3 + 100, 0] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            for (enabled, compressed, readahead) in rows.clone() {
                let config = CacheConfig { capacity_pages: 8, enabled, readahead_pages: readahead };
                let (mut plain, mut objects) = (mk(), mk());
                let setup = |lfm: &mut LongFieldManager| {
                    lfm.set_cache_config(config);
                    let id =
                        if compressed { lfm.create_compressed(&data) } else { lfm.create(&data) };
                    (id.unwrap(), lfm.create(&churn).unwrap())
                };
                let ((pid, pchurn), (oid, ochurn)) = (setup(&mut plain), setup(&mut objects));
                let calls = std::cell::Cell::new(0);
                let what = format!(
                    "{len} bytes, pool {enabled}, compressed {compressed}, readahead {readahead}"
                );
                for round in 0..3 {
                    let want = traced(&plain, || assert_eq!(plain.read(pid).unwrap(), data));
                    let got = traced(&objects, || {
                        let object = objects.read_object(oid, counting(&calls)).unwrap();
                        assert_eq!(*object, data);
                    });
                    assert_eq!(got, want, "round {round}, {what}");
                    assert!(got.2.iter().any(|s| s.starts_with("lfm.read ")));
                    let scan = got.2.iter().any(|s| s.starts_with("lfm.compressed_scan"));
                    assert_eq!(scan, compressed, "{what}");
                    if round == 1 {
                        assert_eq!(plain.read(pchurn).unwrap(), churn);
                        assert_eq!(objects.read(ochurn).unwrap(), churn);
                    }
                }
                assert_eq!(calls.get(), 1, "only the first read decodes: {what}");
                let stats = objects.cache_stats();
                assert_eq!((stats.object_hits, stats.object_misses), (2, 1), "{what}");
                assert_eq!(stats.hits + stats.misses > 0, enabled, "pool lookups: {what}");
                assert!(stats.evictions > 0 || !enabled || len == 0, "the churn evicted: {what}");
            }
        }
    }

    /// An injected read fault or crash on a hit is the error `read`
    /// returns under it; on a miss it stores nothing, so the next read
    /// decodes.
    #[test]
    fn a_fault_on_an_object_read_is_the_reads_error_and_stores_nothing() {
        let mut lfm = pooled(8);
        let data = vec![9u8; 5000];
        let (cached, cold) = (lfm.create(&data).unwrap(), lfm.create(&data).unwrap());
        let calls = std::cell::Cell::new(0);
        lfm.read_object(cached, counting(&calls)).unwrap();
        let plans: [fn() -> FaultPlane; 2] = [
            || FaultPlane::new(1).fail_nth("lfm.read", 1),
            || FaultPlane::new(1).crash_nth("lfm.read", 1),
        ];
        for plan in plans {
            let want = {
                let _scope = plan().arm();
                lfm.read(cached).unwrap_err()
            };
            if matches!(want, LfmError::Crashed) {
                lfm.recover().unwrap();
                lfm.read_object(cached, counting(&calls)).unwrap();
            }
            for id in [cached, cold] {
                let got = {
                    let _scope = plan().arm();
                    lfm.read_object(id, counting(&calls)).unwrap_err()
                };
                assert_eq!(got, want, "field {id:?}");
                if matches!(want, LfmError::Crashed) {
                    lfm.recover().unwrap();
                }
            }
        }
        assert_eq!(calls.get(), 2, "no faulted read decoded");
        let before = calls.get();
        lfm.read_object(cold, counting(&calls)).unwrap();
        assert_eq!(calls.get(), before + 1, "a faulted miss stored nothing");
    }

    /// Each mutation of a field and recovery drop the objects decoded
    /// from the bytes they change, so the next read decodes the bytes
    /// as they are now — with the pool off and on.  Reconfiguring the
    /// pool changes no field's bytes, so it keeps every object.
    #[test]
    fn writes_deletes_and_recovery_invalidate_objects_reconfiguration_keeps_them() {
        for pages in [0, 8] {
            let mut lfm = pooled(pages);
            let mut data: Vec<u8> = (0..6000u32).map(|i| (i % 241) as u8).collect();
            let id = lfm.create(&data).unwrap();
            let calls = std::cell::Cell::new(0);
            let read = |lfm: &LongFieldManager, want: &[u8]| {
                assert_eq!(*lfm.read_object(id, counting(&calls)).unwrap(), want);
            };
            read(&lfm, &data);
            read(&lfm, &data);
            assert_eq!(calls.get(), 1);
            lfm.write_piece(id, 4000, &[0xEE; 10]).unwrap();
            data[4000..4010].fill(0xEE);
            read(&lfm, &data);
            assert_eq!(calls.get(), 2, "write_piece invalidates, pool {pages}");
            lfm.recover().unwrap();
            read(&lfm, &data);
            assert_eq!(calls.get(), 3, "recover invalidates, pool {pages}");
            for enabled in [true, false] {
                lfm.set_cache_config(CacheConfig {
                    capacity_pages: 8,
                    enabled,
                    readahead_pages: 0,
                });
                read(&lfm, &data);
            }
            assert_eq!(calls.get(), 3, "set_cache_config keeps objects, pool {pages}");
            let other = lfm.create(&[1, 2, 3]).unwrap();
            lfm.read_object(other, counting(&calls)).unwrap();
            lfm.delete(id).unwrap();
            assert_eq!(lfm.objects.lock_or_recover().used(), 3, "delete drops the field's object");
            let gone = lfm.read_object(id, counting(&calls)).unwrap_err();
            assert_eq!(gone, LfmError::NoSuchField(id.0));
        }
    }

    /// The decoded objects never hold more than the device's data-area
    /// bytes, whatever the pool: the least recently used go first, and
    /// one larger than the whole budget is served but not kept.  The
    /// device is the smallest `new` accepts at 4 KiB pages (a 1-byte
    /// capacity: one data page, so a 4 KiB budget), and its one field
    /// is decoded into several types, each
    /// reported larger than the bytes it came from, as a decoded REGION
    /// outgrows its encoding.
    #[test]
    fn the_object_budget_is_never_exceeded() {
        const BUDGET: usize = 4096;
        /// Reads field `id` as type `N`, reported `held` bytes large,
        /// and checks the budget holds after the read.
        fn read_as<const N: u8>(lfm: &LongFieldManager, id: LongFieldId, held: usize) {
            struct Decoded<const N: u8>(Vec<u8>);
            let object =
                lfm.read_object(id, |bytes| Ok::<_, LfmError>((Decoded::<N>(bytes), held)));
            assert_eq!(object.unwrap().0.len(), 1000, "type {N} is served");
            let used = lfm.objects.lock_or_recover().used();
            assert!(used <= BUDGET, "type {N}: {used} bytes held");
        }
        for pages in [0, 2] {
            let mut lfm = LongFieldManager::new(1, BUDGET).unwrap();
            lfm.set_cache_config(CacheConfig {
                capacity_pages: pages,
                enabled: pages > 0,
                readahead_pages: 0,
            });
            let id = lfm.create(&[5u8; 1000]).unwrap();
            assert!(lfm.create(&[6]).is_err(), "one field fills the device");
            // Six types of 1,500 bytes: two fit, so two cycles of six
            // misses.
            for _ in 0..2 {
                read_as::<0>(&lfm, id, 1500);
                read_as::<1>(&lfm, id, 1500);
                read_as::<2>(&lfm, id, 1500);
                read_as::<3>(&lfm, id, 1500);
                read_as::<4>(&lfm, id, 1500);
                read_as::<5>(&lfm, id, 1500);
            }
            read_as::<6>(&lfm, id, BUDGET + 1);
            let stats = lfm.cache_stats();
            assert_eq!((stats.object_hits, stats.object_misses), (0, 13), "pool {pages}");
            assert_eq!(stats.object_evictions, 10, "pool {pages}");
            let used = lfm.objects.lock_or_recover().used();
            assert_eq!(used, 2 * 1500, "the huge one was not kept, pool {pages}");
            read_as::<5>(&lfm, id, 1500);
            read_as::<4>(&lfm, id, 1500);
            assert_eq!(lfm.cache_stats().object_hits, 2, "the two most recent stay, pool {pages}");
        }
    }

    /// With the pool off a field is decoded once in three object reads,
    /// and the reads cost the disk what three plain `read`s do.
    #[test]
    fn with_the_pool_off_a_field_is_decoded_once() {
        let (mut lfm, mut plain) = (pooled(0), pooled(0));
        let data = [5u8; 100];
        let (id, pid) = (lfm.create(&data).unwrap(), plain.create(&data).unwrap());
        let calls = std::cell::Cell::new(0);
        for _ in 0..3 {
            assert_eq!(*lfm.read_object(id, counting(&calls)).unwrap(), data);
            assert_eq!(plain.read(pid).unwrap(), data);
        }
        assert_eq!(calls.get(), 1, "one decode");
        let stats = lfm.cache_stats();
        assert_eq!((stats.object_hits, stats.object_misses), (2, 1));
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 0, 0), "no pool lookups");
        assert_eq!(lfm.stats().read_calls, 3);
        assert_eq!(lfm.stats(), plain.stats());
        assert_eq!(lfm.objects.lock_or_recover().used(), data.len());
    }

    /// Two readers race miss → decode → insert on one field: a barrier
    /// in the decoder holds both past their misses until both have
    /// decoded.  Both see the field's bytes, one object stays resident
    /// at its size, and the disk saw two reads — with the pool off,
    /// where unbuffered readers meet only on `lfm.objects`, and on.
    #[test]
    fn racing_object_misses_store_one_object() {
        for pages in [0, 4] {
            let mut lfm = pooled(pages);
            let data: Vec<u8> = (0..4096u32 * 2).map(|i| (i % 239) as u8).collect();
            let id = lfm.create(&data).unwrap();
            let both_missed = std::sync::Barrier::new(2);
            let objects: Vec<Arc<Vec<u8>>> = std::thread::scope(|s| {
                let readers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            lfm.read_object(id, |bytes: Vec<u8>| {
                                both_missed.wait();
                                let len = bytes.len();
                                Ok::<_, LfmError>((bytes, len))
                            })
                            .unwrap()
                        })
                    })
                    .collect();
                readers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert!(objects.iter().all(|o| **o == data));
            assert!(
                Arc::ptr_eq(&objects[0], &objects[1]),
                "the second insert returns the first object, pool {pages}"
            );
            let stats = lfm.cache_stats();
            assert_eq!((stats.object_hits, stats.object_misses), (0, 2));
            assert_eq!(lfm.objects.lock_or_recover().used(), data.len(), "one object stays");
            assert_eq!(lfm.stats().read_calls, 2);
            assert_eq!(lfm.stats().pages_read, 4);
        }
    }

    proptest! {
        /// Pieces hundreds of bytes long, with gaps, over fields of up
        /// to ~7 pages of 4 KiB.
        #[test]
        fn pieces_roundtrip_any_layout(
            seed_len in 1usize..30_000,
            cuts in proptest::collection::vec(0.0f64..1.0, 1..20),
        ) {
            let data: Vec<u8> = (0..seed_len).map(|i| (i * 31 % 256) as u8).collect();
            // build sorted disjoint pieces from the cut points
            let mut offs: Vec<u64> = cuts.iter().map(|c| (c * seed_len as f64) as u64).collect();
            offs.sort_unstable();
            offs.dedup();
            let mut pieces: Vec<(u64, u64)> = Vec::new();
            let mut prev = 0u64;
            for &o in &offs {
                if o > prev {
                    pieces.push((prev, (o - prev) / 2)); // half-length pieces leave gaps
                }
                prev = o;
            }
            assert_pieces_roundtrip(&data, &pieces, &[], false);
        }

        /// Pieces of 0–40 bytes, so both copy arms run, with one that
        /// ends inside the field's last 16 bytes, where no full window
        /// fits; `out` arrives empty, with a prefix, and with capacity
        /// for exactly the answer, so the last pieces find no spare room.
        #[test]
        fn pieces_short_roundtrip_any_layout(
            field_len in 1u64..2_000,
            draws in proptest::collection::vec((0u64..=40, 0u64..=40), 0..120),
            tail in (1u64..=16, 0u64..=16),
            prefix_len in 0u8..40,
        ) {
            let data: Vec<u8> = (0..field_len).map(|i| (i * 37 % 251) as u8).collect();
            let tail_offset = field_len.saturating_sub(tail.0);
            let mut pieces: Vec<(u64, u64)> = Vec::new();
            let mut at = 0u64;
            for (gap, len) in draws {
                if at + gap + len > tail_offset {
                    break;
                }
                pieces.push((at + gap, len));
                at += gap + len;
            }
            pieces.push((tail_offset, tail.1.min(field_len - tail_offset)));
            let prefix: Vec<u8> = (0..prefix_len).collect();
            for (prefix, exact) in [(&[][..], false), (&prefix[..], false), (&[][..], true), (&prefix[..], true)] {
                assert_pieces_roundtrip(&data, &pieces, prefix, exact);
            }
        }

        #[test]
        fn many_fields_never_corrupt_each_other(contents in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..2000), 1..20)) {
            let mut lfm = mk();
            let ids: Vec<LongFieldId> =
                contents.iter().map(|c| lfm.create(c).unwrap()).collect();
            for (id, c) in ids.iter().zip(&contents) {
                prop_assert_eq!(&lfm.read(*id).unwrap(), c);
            }
            lfm.check_invariants().unwrap();
        }
    }
}
