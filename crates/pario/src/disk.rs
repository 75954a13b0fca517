//! One processor's local disk: a namespace of typed record files with
//! chunked, cost-charged access.
//!
//! Every read or write request charges the owning processor's virtual clock
//! with `access_latency + bytes / bandwidth` (see [`pdc_cgm::DiskParams`]),
//! so algorithms that issue many small requests pay for it — exactly the
//! effect the paper's chunked out-of-core design avoids.

use std::collections::HashMap;
use std::marker::PhantomData;

use pdc_cgm::Proc;

use crate::backend::{BackendKind, Store};
use crate::engine::{EngineConfig, IoEngine};
use crate::rec::{Rec, RecBuf, RecChunk};

/// Typed handle to a file on some [`NodeDisk`]. Cheap to clone; the data
/// lives on the disk, not in the handle.
pub struct TypedFile<R> {
    name: String,
    _marker: PhantomData<fn() -> R>,
}

impl<R> Clone for TypedFile<R> {
    fn clone(&self) -> Self {
        TypedFile {
            name: self.name.clone(),
            _marker: PhantomData,
        }
    }
}

impl<R> std::fmt::Debug for TypedFile<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TypedFile({})", self.name)
    }
}

impl<R> TypedFile<R> {
    /// The file's name on its disk.
    pub fn name(&self) -> &str {
        &self.name
    }
}

struct FileEntry {
    rec_bytes: usize,
    records: usize,
    /// Records below this are never read again ([`NodeDisk::release_read`]).
    released: usize,
    /// The file's name in the store and in the engine's page cache:
    /// survives renames, never reused, so neither bytes nor stale pages can
    /// alias a recreated file.
    id: u64,
}

/// The local disk of one virtual processor.
pub struct NodeDisk {
    rank: usize,
    files: HashMap<String, FileEntry>,
    /// The bytes of every file, by [`FileEntry::id`].
    store: Box<dyn Store>,
    /// Asynchronous disk engine (buffer pool + device timeline); `None`
    /// routes every request through the legacy synchronous path.
    engine: Option<IoEngine>,
    next_file_id: u64,
}

impl NodeDisk {
    /// Empty disk for processor `rank` with physical storage `kind`, using
    /// the legacy synchronous I/O path.
    pub fn new(rank: usize, kind: BackendKind) -> Self {
        Self::with_engine(rank, kind, &EngineConfig::disabled())
    }

    /// Empty disk with an asynchronous engine per `cfg`. A disabled config
    /// attaches no engine at all, leaving the synchronous path bit-identical
    /// to [`NodeDisk::new`].
    pub fn with_engine(rank: usize, kind: BackendKind, cfg: &EngineConfig) -> Self {
        NodeDisk {
            rank,
            files: HashMap::new(),
            store: kind.store(rank),
            engine: cfg.is_enabled().then(|| IoEngine::new(cfg)),
            next_file_id: 0,
        }
    }

    /// Owning processor's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Create (or truncate) a typed file.
    pub fn create<R: Rec>(&mut self, name: &str) -> TypedFile<R> {
        self.delete(name);
        let id = self.next_file_id;
        self.next_file_id += 1;
        self.files.insert(
            name.to_string(),
            FileEntry {
                rec_bytes: R::ENCODED_BYTES,
                records: 0,
                released: 0,
                id,
            },
        );
        if let Some(engine) = &mut self.engine {
            engine.note_file_len(id, 0);
        }
        TypedFile {
            name: name.to_string(),
            _marker: PhantomData,
        }
    }

    /// Re-open an existing file with its recorded type size checked.
    pub fn open<R: Rec>(&self, name: &str) -> TypedFile<R> {
        let entry = self
            .files
            .get(name)
            .unwrap_or_else(|| panic!("no file named {name:?} on disk of rank {}", self.rank));
        assert_eq!(
            entry.rec_bytes,
            R::ENCODED_BYTES,
            "type mismatch opening {name:?}"
        );
        TypedFile {
            name: name.to_string(),
            _marker: PhantomData,
        }
    }

    /// Does a file with this name exist?
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Names of all files on this disk (unsorted).
    pub fn file_names(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// Delete a file, reclaiming its space. Cached pages are invalidated;
    /// dirty pages of a deleted scratch file never pay write-back.
    pub fn delete(&mut self, name: &str) {
        if let Some(entry) = self.files.remove(name) {
            self.store.delete(entry.id);
            if let Some(engine) = &mut self.engine {
                engine.invalidate_file(entry.id);
            }
        }
    }

    /// Rename a file (a destination that exists is deleted). Only the
    /// namespace changes: the store knows the file by its id, so a file
    /// later created under the old name cannot collide with this one's
    /// bytes.
    pub fn rename(&mut self, old: &str, new: &str) {
        let entry = self
            .files
            .remove(old)
            .unwrap_or_else(|| panic!("rename: no file named {old:?}"));
        self.delete(new);
        self.files.insert(new.to_string(), entry);
    }

    /// Number of records currently in `file`.
    pub fn num_records<R: Rec>(&self, file: &TypedFile<R>) -> usize {
        self.entry(file).records
    }

    /// Records `[0, records)` of `file` will not be read again. A pass that
    /// reads a file for the last time calls this as it goes, and the disk's
    /// store gives the consumed extents to the next appends, so that a node
    /// file and its children hold about the node's bytes, not twice them.
    /// The file keeps its length until it is deleted, and nothing is charged:
    /// the virtual machine sees no difference. Reading below the release
    /// point afterwards panics, naming rank and file.
    pub fn release_read<R: Rec>(&mut self, file: &TypedFile<R>, records: usize) {
        let entry = self
            .files
            .get_mut(&file.name)
            .unwrap_or_else(|| panic!("file {:?} missing (deleted?)", file.name));
        assert!(
            records <= entry.records,
            "pario: rank {} release_read of {records} records past end ({} records) of {:?}",
            self.rank, entry.records, file.name
        );
        entry.released = entry.released.max(records);
        self.store.release_prefix(entry.id, (records * R::ENCODED_BYTES) as u64);
    }

    /// Total bytes across all files (space accounting).
    pub fn used_bytes(&self) -> u64 {
        self.files.values().map(|e| self.store.len(e.id)).sum()
    }

    fn entry<R: Rec>(&self, file: &TypedFile<R>) -> &FileEntry {
        self.files
            .get(&file.name)
            .unwrap_or_else(|| panic!("file {:?} missing (deleted?)", file.name))
    }

    /// Append a batch of records as one write request, charging `proc`.
    /// Encodes, then [`NodeDisk::append_chunk`].
    pub fn append<R: Rec>(&mut self, proc: &mut Proc, file: &TypedFile<R>, records: &[R]) {
        self.append_chunk(proc, file, RecBuf::from_records(records).view());
    }

    /// Append records that are already bytes as one write request, charging
    /// `proc`. With an engine the pages go dirty in the buffer pool
    /// (write-back: the device is charged asynchronously on eviction or
    /// sync); without one the write is charged synchronously.
    pub fn append_chunk<R: Rec>(
        &mut self,
        proc: &mut Proc,
        file: &TypedFile<R>,
        chunk: RecChunk<'_, R>,
    ) {
        if chunk.is_empty() {
            return;
        }
        let bytes = chunk.bytes();
        let entry = self
            .files
            .get_mut(&file.name)
            .unwrap_or_else(|| panic!("file {:?} missing (deleted?)", file.name));
        let old_len = self.store.len(entry.id);
        match &mut self.engine {
            Some(engine) => engine.append(proc, entry.id, old_len, bytes.len()),
            None => {
                let ws = old_len as usize + bytes.len();
                proc.disk_write_ws(bytes.len(), ws);
            }
        }
        self.store
            .append(entry.id, bytes)
            .unwrap_or_else(|e| store_failed(self.rank, &file.name, "append", old_len, e));
        entry.records += chunk.len();
    }

    /// Read `count` records starting at index `start` as one read request,
    /// charging `proc`, decoded. Panics if fault injection makes the read
    /// fail permanently — use [`NodeDisk::try_read_range_into`] in
    /// fault-aware code.
    pub fn read_range<R: Rec>(
        &mut self,
        proc: &mut Proc,
        file: &TypedFile<R>,
        start: usize,
        count: usize,
    ) -> Vec<R> {
        self.read_range_into(proc, file, start, count, &mut RecBuf::new())
            .to_vec()
    }

    /// [`NodeDisk::try_read_range_into`], panicking with the rank and the
    /// file when fault injection makes the read fail permanently.
    pub fn read_range_into<'b, R: Rec>(
        &mut self,
        proc: &mut Proc,
        file: &TypedFile<R>,
        start: usize,
        count: usize,
        buf: &'b mut RecBuf<R>,
    ) -> RecChunk<'b, R> {
        let rank = self.rank;
        self.try_read_range_into(proc, file, start, count, buf)
            .unwrap_or_else(|e| panic!("pario: rank {rank} reading {:?}: {e}", file.name))
    }

    /// Read `count` records starting at index `start` into `buf` as one
    /// read request, charging `proc`, and view them there — the page is the
    /// records, nothing is decoded. `buf` is overwritten; callers that read
    /// chunk after chunk pass the same one. Transient read errors from the
    /// machine's [`pdc_cgm::FaultPlan`] are retried (each retry charging
    /// the virtual clock); when all attempts fail the error surfaces
    /// instead of panicking. A range past the end of the file, or one whose
    /// byte size overflows, is a caller bug and panics naming rank and file.
    pub fn try_read_range_into<'b, R: Rec>(
        &mut self,
        proc: &mut Proc,
        file: &TypedFile<R>,
        start: usize,
        count: usize,
        buf: &'b mut RecBuf<R>,
    ) -> Result<RecChunk<'b, R>, pdc_cgm::FaultError> {
        if count == 0 {
            buf.clear();
            return Ok(buf.view());
        }
        let entry = self
            .files
            .get_mut(&file.name)
            .unwrap_or_else(|| panic!("file {:?} missing (deleted?)", file.name));
        let in_file = start.checked_add(count).is_some_and(|end| end <= entry.records);
        let (Some(nbytes), true) = (count.checked_mul(R::ENCODED_BYTES), in_file) else {
            panic!(
                "pario: rank {} read_range [{start}, {start} + {count}) past end ({} records) of {:?}",
                self.rank, entry.records, file.name
            );
        };
        assert!(
            start >= entry.released,
            "pario: rank {} read_range at record {start} below the release point ({} records) of {:?}",
            self.rank, entry.released, file.name
        );
        // `start < records` and the file's bytes fit `usize`, so neither
        // product below can wrap.
        let offset = (start * R::ENCODED_BYTES) as u64;
        match &mut self.engine {
            Some(engine) => engine.read(proc, entry.id, offset, nbytes)?,
            None => proc.try_disk_read_ws(nbytes, entry.records * R::ENCODED_BYTES)?,
        }
        self.store
            .read_into(entry.id, offset, buf.fill_target(count))
            .unwrap_or_else(|e| store_failed(self.rank, &file.name, "read", offset, e));
        Ok(buf.view())
    }

    /// Read the whole file in one request (callers use this only for files
    /// known to fit in memory, e.g. the paper's "small nodes").
    pub fn read_all<R: Rec>(&mut self, proc: &mut Proc, file: &TypedFile<R>) -> Vec<R> {
        let n = self.num_records(file);
        proc.in_span("pario.read_all", &[("records", n as i64)], |proc| {
            self.read_range(proc, file, 0, n)
        })
    }

    /// Append records **without charging any virtual time** — for loading
    /// initial data or inspecting results outside a cluster run (the paper
    /// assumes the training data is already resident on the disks).
    pub fn append_uncharged<R: Rec>(&mut self, file: &TypedFile<R>, records: &[R]) {
        self.append_chunk_uncharged(file, RecBuf::from_records(records).view());
    }

    /// [`NodeDisk::append_uncharged`] for records that are already bytes.
    pub fn append_chunk_uncharged<R: Rec>(&mut self, file: &TypedFile<R>, chunk: RecChunk<'_, R>) {
        if chunk.is_empty() {
            return;
        }
        let entry = self
            .files
            .get_mut(&file.name)
            .unwrap_or_else(|| panic!("file {:?} missing (deleted?)", file.name));
        let old_len = self.store.len(entry.id);
        self.store
            .append(entry.id, chunk.bytes())
            .unwrap_or_else(|e| store_failed(self.rank, &file.name, "append", old_len, e));
        entry.records += chunk.len();
        if let Some(engine) = &mut self.engine {
            // Keep the engine's length map accurate; pre-loaded data is not
            // dirty (it was never "written" on the virtual machine).
            engine.note_file_len(entry.id, old_len + chunk.bytes().len() as u64);
        }
    }

    /// Read the whole file **without charging any virtual time** — for
    /// verification outside a cluster run.
    pub fn read_all_uncharged<R: Rec>(&mut self, file: &TypedFile<R>) -> Vec<R> {
        let mut buf = RecBuf::<R>::new();
        let entry = self.entry(file);
        self.store
            .read_into(entry.id, 0, buf.fill_target(entry.records))
            .unwrap_or_else(|e| store_failed(self.rank, &file.name, "read", 0, e));
        buf.view().to_vec()
    }

    /// Chunked sequential reader over `file` with a bounded per-chunk record
    /// count (the out-of-core memory budget). When the disk has an engine
    /// the reader requests each next chunk speculatively while the caller
    /// processes the current one.
    pub fn reader<R: Rec>(&self, file: &TypedFile<R>, chunk_records: usize) -> ChunkedReader<R> {
        assert!(chunk_records > 0, "chunk_records must be positive");
        ChunkedReader {
            file: file.clone(),
            cursor: 0,
            chunk_records,
            buf: RecBuf::new(),
        }
    }

    /// Hint: records `[start, start + count)` of `file` will be read soon.
    /// Issues speculative device reads for their missing pages when the
    /// engine judges they fit (see [`crate::engine::IoEngine::prefetch`]);
    /// a no-op without an engine.
    pub fn prefetch_range<R: Rec>(
        &mut self,
        proc: &mut Proc,
        file: &TypedFile<R>,
        start: usize,
        count: usize,
    ) {
        let Some(engine) = &mut self.engine else { return };
        let Some(entry) = self.files.get(&file.name) else { return };
        let offset = (start * R::ENCODED_BYTES) as u64;
        engine.prefetch(proc, entry.id, offset, count * R::ENCODED_BYTES);
    }

    /// Hint: the whole file named `name` will be read soon (task lookahead
    /// from the scheduler). Untyped so schedulers need not know record
    /// types. The engine reads the whole file ahead or none of it (see
    /// [`crate::engine::IoEngine::prefetch`]); a no-op when the file does
    /// not exist or there is no engine.
    pub fn prefetch_file_by_name(&mut self, proc: &mut Proc, name: &str) {
        let Some(engine) = &mut self.engine else { return };
        let Some(entry) = self.files.get(name) else { return };
        engine.prefetch(proc, entry.id, 0, self.store.len(entry.id) as usize);
    }

    /// Flush dirty pages and drain the device timeline (see
    /// [`crate::engine::IoEngine::sync`]). A no-op — including no span —
    /// without an engine, preserving the disabled path's bit-identity.
    pub fn sync_engine(&mut self, proc: &mut Proc) {
        if let Some(engine) = &mut self.engine {
            let token = proc.span("pario.cache.sync", &[]);
            engine.sync(proc);
            proc.span_end(token);
        }
    }
}

/// Where every error of the [`Store`] ends: the rank's scratch storage is
/// gone or full, which no caller can repair. One site, so the message always
/// names who failed at what.
fn store_failed(rank: usize, file: &str, op: &str, offset: u64, e: std::io::Error) -> ! {
    panic!("pario: rank {rank} {op} of {file:?} at byte {offset} failed: {e}")
}

/// Streaming reader: yields chunks of at most `chunk_records` records, each
/// as one charged disk request. The reader owns the one buffer every chunk
/// is read into; a chunk is a view of it and is gone — the borrow ends —
/// before the next one is read. The bytes are a copy: appending to,
/// renaming or deleting files on the disk while a chunk is held is fine.
pub struct ChunkedReader<R> {
    file: TypedFile<R>,
    cursor: usize,
    chunk_records: usize,
    buf: RecBuf<R>,
}

impl<R: Rec> ChunkedReader<R> {
    /// Read the next chunk, or `None` at end of file. With an engine the
    /// following chunk is requested speculatively before this
    /// one is returned, overlapping its device time with the caller's
    /// processing of the current chunk.
    pub fn next_chunk(
        &mut self,
        disk: &mut NodeDisk,
        proc: &mut Proc,
    ) -> Option<RecChunk<'_, R>> {
        let total = disk.num_records(&self.file);
        if self.cursor >= total {
            return None;
        }
        let count = self.chunk_records.min(total - self.cursor);
        disk.read_range_into(proc, &self.file, self.cursor, count, &mut self.buf);
        self.cursor += count;
        // Read ahead one chunk: each chunk of compute hides the next chunk
        // of device time.
        let ahead = self.chunk_records.min(total - self.cursor);
        disk.prefetch_range(proc, &self.file, self.cursor, ahead);
        Some(self.buf.view())
    }

    /// Records read so far.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Warm the stream: issue a speculative read for the *first* chunk
    /// before the consuming loop starts, so even the opening request rides
    /// the device asynchronously (steady-state streaming, e.g. a serving
    /// loop, otherwise pays one cold demand read up front). A no-op — and
    /// bit-identical — without an engine.
    pub fn prime(&mut self, disk: &mut NodeDisk, proc: &mut Proc) {
        let total = disk.num_records(&self.file);
        let count = self.chunk_records.min(total.saturating_sub(self.cursor));
        disk.prefetch_range(proc, &self.file, self.cursor, count);
    }
}

/// Buffered writer: batches appended records into `chunk_records`-sized
/// write requests. Call [`BufferedWriter::flush`] before dropping.
pub struct BufferedWriter<R> {
    file: TypedFile<R>,
    buf: RecBuf<R>,
    chunk_records: usize,
}

impl<R: Rec> BufferedWriter<R> {
    /// New writer appending to `file`.
    pub fn new(file: TypedFile<R>, chunk_records: usize) -> Self {
        assert!(chunk_records > 0, "chunk_records must be positive");
        BufferedWriter {
            file,
            buf: RecBuf::new(),
            chunk_records,
        }
    }

    /// Buffer one record, flushing if the buffer is full.
    pub fn push(&mut self, disk: &mut NodeDisk, proc: &mut Proc, record: R) {
        self.buf.push(&record);
        if self.buf.len() >= self.chunk_records {
            self.flush(disk, proc);
        }
    }

    /// Write out any buffered records.
    pub fn flush(&mut self, disk: &mut NodeDisk, proc: &mut Proc) {
        disk.append_chunk(proc, &self.file, self.buf.view());
        self.buf.clear();
    }

    /// Records currently buffered (not yet on disk).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}
