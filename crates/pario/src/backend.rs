//! Physical storage of a processor's local disk.
//!
//! A [`crate::NodeDisk`] owns the namespace and one [`Store`] that holds the
//! bytes of every logical file on it. Two stores share the trait: RAM (a
//! list of heap extents per file; fast, used by tests and the figure
//! harness — remember the *cost* of I/O is always charged to the virtual
//! clock regardless of store) and one real scratch file per disk, cut into
//! extents that logical files take and give back (used by the out-of-core
//! example and the host benchmark for genuinely disk-resident operation).

use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;

/// Byte storage of one processor's disk. The disk names a logical file by
/// an id it never reuses; a file is in the store from its first append
/// until [`Store::delete`], and an id the store does not hold is an empty
/// file.
pub trait Store: Send {
    /// Append `bytes` at the end of file `id`.
    fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()>;
    /// Read exactly `buf.len()` bytes of file `id` starting at `offset`
    /// into `buf`. Panics if out of range (callers track logical lengths).
    /// This is the hot-path primitive: it fills the caller's buffer instead
    /// of allocating a fresh `Vec` per chunk.
    fn read_into(&self, id: u64, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Current length of file `id` in bytes.
    fn len(&self, id: u64) -> u64;
    /// Discard file `id`, reclaiming its space.
    fn delete(&mut self, id: u64);
    /// Bytes `[0, upto)` of file `id` will not be read again: a pass that
    /// reads a file for the last time says so as it goes, and the store
    /// gives the whole extents below `upto` to later appends. The file's
    /// length does not change. Panics if `upto` is past the end; a later
    /// read below the release point panics too (both are caller bugs).
    fn release_prefix(&mut self, id: u64, upto: u64);
}

/// Bytes per extent of either store. Large enough that a streaming chunk
/// spans a handful of extents, small enough that the unused tail of a
/// file's last extent does not show in the resident set (or in the scratch
/// file: 1 MiB measured no faster and 2.7 × the sparse footprint).
pub const EXTENT_BYTES: usize = 1 << 18;

/// Whole consumed extents a [`RamStore`] keeps for the next appends. A few
/// cover what one streaming chunk consumes before its records are appended
/// again; more would only hold memory no file needs.
const SPARE_EXTENTS: usize = 4;

/// Heap-backed file: a list of fixed-size extents. Appending never moves
/// the bytes of a full extent — a file that grows allocates one more extent
/// where a single `Vec` would reallocate and copy everything written so far.
#[derive(Default)]
struct InMemory {
    /// Every extent but the last holds exactly [`EXTENT_BYTES`]; those
    /// wholly below `released` are empty, their memory given back.
    extents: Vec<Vec<u8>>,
    len: usize,
    /// Bytes below this are never read again.
    released: usize,
}

impl InMemory {
    fn append(&mut self, mut bytes: &[u8], spares: &mut Vec<Vec<u8>>) {
        while !bytes.is_empty() {
            let at = self.len % EXTENT_BYTES;
            if self.len / EXTENT_BYTES == self.extents.len() {
                // Every extent after the first is a consumed one, if the
                // disk has any.
                let extent = if self.extents.is_empty() { None } else { spares.pop() };
                self.extents.push(extent.unwrap_or_default());
            }
            let first = self.extents.len() == 1;
            let tail = self.extents.last_mut().expect("pushed above");
            let (head, rest) = bytes.split_at(bytes.len().min(EXTENT_BYTES - at));
            // A file's first extent holds exactly what arrived (most files
            // of a wide machine are a few kB, written in a few whole
            // chunks); once it is full the file is large and every further
            // extent is cut whole.
            tail.reserve_exact(if first { head.len() } else { EXTENT_BYTES - at });
            tail.extend_from_slice(head);
            self.len += head.len();
            bytes = rest;
        }
    }

    /// Give the whole extents below `upto` to `spares` while it has room,
    /// the rest back to the allocator.
    fn release_prefix(&mut self, upto: usize, spares: &mut Vec<Vec<u8>>) {
        assert!(upto <= self.len, "release past end of in-memory file");
        let upto = upto.max(self.released);
        for extent in &mut self.extents[self.released / EXTENT_BYTES..upto / EXTENT_BYTES] {
            let mut extent = std::mem::take(extent);
            if spares.len() < SPARE_EXTENTS {
                extent.clear();
                spares.push(extent);
            }
        }
        self.released = upto;
    }

    fn read_into(&self, offset: u64, mut buf: &mut [u8]) {
        let start = usize::try_from(offset).expect("read range overflow");
        let end = start
            .checked_add(buf.len())
            .expect("read range overflow");
        assert!(end <= self.len, "read past end of in-memory file");
        assert!(start >= self.released, "read at byte {start} below the release point {}", self.released);
        let (mut extent, mut at) = (start / EXTENT_BYTES, start % EXTENT_BYTES);
        while !buf.is_empty() {
            let src = &self.extents[extent][at..];
            let (head, rest) = buf.split_at_mut(src.len().min(buf.len()));
            head.copy_from_slice(&src[..head.len()]);
            buf = rest;
            (extent, at) = (extent + 1, 0);
        }
    }
}

/// The RAM store: every file its own [`InMemory`], and a few consumed
/// extents kept for the next appends. A pass that consumes a node file
/// while it writes the children would otherwise hold the data twice: the
/// loader's thread allocated the parent's extents and the children are
/// appended from the ranks' threads, so extents given back to the allocator
/// sit in another arena than the one the children allocate from. A deleted
/// file's extents do go back to the allocator — recycling those (a free
/// list, measured and rejected) cannot lower the peak, since a parent is
/// deleted only after both children are complete.
#[derive(Default)]
struct RamStore {
    files: HashMap<u64, InMemory>,
    /// Consumed extents, emptied, each of [`EXTENT_BYTES`] capacity.
    spares: Vec<Vec<u8>>,
}

impl Store for RamStore {
    fn append(&mut self, id: u64, bytes: &[u8]) -> io::Result<()> {
        self.files.entry(id).or_default().append(bytes, &mut self.spares);
        Ok(())
    }

    fn read_into(&self, id: u64, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.files.get(&id).unwrap_or(&InMemory::default()).read_into(offset, buf);
        Ok(())
    }

    fn len(&self, id: u64) -> u64 {
        self.files.get(&id).map_or(0, |file| file.len as u64)
    }

    fn delete(&mut self, id: u64) {
        self.files.remove(&id);
    }

    fn release_prefix(&mut self, id: u64, upto: u64) {
        let upto = usize::try_from(upto).expect("release past end of in-memory file");
        match self.files.get_mut(&id) {
            Some(file) => file.release_prefix(upto, &mut self.spares),
            None => assert_eq!(upto, 0, "release past end of in-memory file"),
        }
    }
}

/// One logical file of a [`FileStore`]: where its bytes lie in the scratch
/// file, in order. Plain data — the store does the I/O.
#[derive(Default)]
struct ExtentList {
    /// Offsets in the scratch file; extent `k` holds bytes `[k, k + 1) ×`
    /// [`EXTENT_BYTES`] of the logical file. Those wholly below `released`
    /// are on the free list, no longer this file's.
    extents: Vec<u64>,
    len: u64,
    /// Bytes below this are never read again.
    released: u64,
}

impl ExtentList {
    /// Index of the first extent the file still holds.
    fn held(&self) -> usize {
        (self.released / EXTENT_BYTES as u64) as usize
    }
}

/// The real-file store: **one** scratch file per disk, cut into
/// [`EXTENT_BYTES`] extents and accessed at offsets (no cursor, no seek).
/// A logical file is a list of extents; deleting it puts them on the free
/// list, and so does a pass that consumes it (extent by extent, as it
/// reads); an append takes from that list before the scratch file grows,
/// so the file never exceeds the peak of concurrently held extents. The
/// file system sees one create and one unlink per disk, whatever the
/// number of logical files.
struct FileStore {
    path: PathBuf,
    /// Created by the first append, unlinked on drop.
    scratch: Option<File>,
    files: HashMap<u64, ExtentList>,
    /// Offsets of extents no file holds. Taken last-freed-first: those are
    /// the pages likeliest still in the host's page cache.
    free: Vec<u64>,
    /// Where the scratch file grows: every extent lies below.
    end: u64,
}

impl FileStore {
    fn new(path: PathBuf) -> Self {
        FileStore { path, scratch: None, files: HashMap::new(), free: Vec::new(), end: 0 }
    }
}

impl Store for FileStore {
    fn append(&mut self, id: u64, mut bytes: &[u8]) -> io::Result<()> {
        let scratch = match &mut self.scratch {
            Some(scratch) => scratch,
            none => {
                if let Some(dir) = self.path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                let mut options = File::options();
                options.read(true).write(true).create(true).truncate(true);
                none.insert(options.open(&self.path)?)
            }
        };
        let file = self.files.entry(id).or_default();
        while !bytes.is_empty() {
            let (tail, at) = ((file.len / EXTENT_BYTES as u64) as usize, file.len % EXTENT_BYTES as u64);
            // The tail is missing when the extents are full (or there are
            // none); one a failed write left empty is filled, not leaked.
            if tail == file.extents.len() {
                let extent = self.free.pop().unwrap_or_else(|| {
                    self.end += EXTENT_BYTES as u64;
                    self.end - EXTENT_BYTES as u64
                });
                file.extents.push(extent);
            }
            let (head, rest) = bytes.split_at(bytes.len().min(EXTENT_BYTES - at as usize));
            scratch.write_all_at(head, file.extents[tail] + at)?;
            file.len += head.len() as u64;
            bytes = rest;
        }
        Ok(())
    }

    fn read_into(&self, id: u64, offset: u64, mut buf: &mut [u8]) -> io::Result<()> {
        let end = offset
            .checked_add(buf.len() as u64)
            .expect("read range overflow");
        let empty = ExtentList::default();
        let file = self.files.get(&id).unwrap_or(&empty);
        assert!(end <= file.len, "read past end of file");
        assert!(offset >= file.released, "read at byte {offset} below the release point {}", file.released);
        // Without a scratch file nothing was ever appended: the range is empty.
        let Some(scratch) = &self.scratch else { return Ok(()) };
        let (mut extent, mut at) = ((offset / EXTENT_BYTES as u64) as usize, offset % EXTENT_BYTES as u64);
        while !buf.is_empty() {
            let (head, rest) = buf.split_at_mut(buf.len().min(EXTENT_BYTES - at as usize));
            scratch.read_exact_at(head, file.extents[extent] + at)?;
            buf = rest;
            (extent, at) = (extent + 1, 0);
        }
        Ok(())
    }

    fn len(&self, id: u64) -> u64 {
        self.files.get(&id).map_or(0, |file| file.len)
    }

    fn delete(&mut self, id: u64) {
        if let Some(file) = self.files.remove(&id) {
            self.free.extend(&file.extents[file.held()..]);
        }
    }

    /// The consumed extents go on top of the free list: a child's next
    /// write lands on the page just read.
    fn release_prefix(&mut self, id: u64, upto: u64) {
        let Some(file) = self.files.get_mut(&id) else {
            return assert_eq!(upto, 0, "release past end of file");
        };
        assert!(upto <= file.len, "release past end of file");
        let from = file.held();
        file.released = file.released.max(upto);
        self.free.extend(&file.extents[from..file.held()]);
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        if self.scratch.is_some() {
            // Best-effort cleanup of the scratch file.
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Which physical backend a disk farm should use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendKind {
    /// Bytes held in RAM (default; virtual I/O costs still charged).
    InMemory,
    /// Real files under the given scratch directory: one per disk.
    OnDisk(PathBuf),
}

impl BackendKind {
    /// The store of processor `rank`'s disk. Nothing touches the file
    /// system before the first append.
    pub fn store(&self, rank: usize) -> Box<dyn Store> {
        match self {
            BackendKind::InMemory => Box::new(RamStore::default()),
            BackendKind::OnDisk(dir) => Box::new(FileStore::new(dir.join(format!("p{rank:03}.extents")))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(store: &dyn Store, id: u64, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        store.read_into(id, offset, &mut buf).expect("read");
        buf
    }

    /// A directory removed with the test that made it, also when it panics.
    struct TestDir(PathBuf);

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A real-file store for rank 0 under a directory of this test's own;
    /// bind the directory first, so the store is dropped before it.
    fn on_disk(test: &str) -> (TestDir, Box<dyn Store>) {
        let dir = std::env::temp_dir().join(format!("pario-{test}-{}", std::process::id()));
        let store = BackendKind::OnDisk(dir.clone()).store(0);
        (TestDir(dir), store)
    }

    fn exercise(mut s: Box<dyn Store>) {
        assert_eq!(s.len(7), 0, "an id never appended to is an empty file");
        assert_eq!(read(&*s, 7, 0, 0), b"");
        s.append(7, b"hello ").unwrap();
        s.append(8, b"other").unwrap();
        s.append(7, b"world").unwrap();
        assert_eq!((s.len(7), s.len(8)), (11, 5));
        assert_eq!(read(&*s, 7, 0, 5), b"hello");
        assert_eq!(read(&*s, 7, 6, 5), b"world");
        assert_eq!(read(&*s, 7, 0, 11), b"hello world");
        s.delete(7);
        assert_eq!((s.len(7), s.len(8)), (0, 5));
        s.append(9, b"x").unwrap();
        assert_eq!(read(&*s, 9, 0, 1), b"x");
        assert_eq!(read(&*s, 8, 0, 5), b"other", "a deleted file's space is not shared");
    }

    /// Appends and reads that straddle one and two extent edges.
    fn exercise_edges(mut s: Box<dyn Store>) {
        let data: Vec<u8> = (0..3 * EXTENT_BYTES + 777).map(|i| (i % 251) as u8).collect();
        // A small first append, one that crosses two extent edges, the rest.
        let cuts = [0, 100, 2 * EXTENT_BYTES + 5, data.len()];
        for w in cuts.windows(2) {
            s.append(1, &data[w[0]..w[1]]).unwrap();
        }
        assert_eq!(s.len(1), data.len() as u64);
        assert_eq!(read(&*s, 1, 0, data.len()), data);
        for (at, len) in [(EXTENT_BYTES - 3, 7), (EXTENT_BYTES, EXTENT_BYTES), (data.len(), 0)] {
            assert_eq!(read(&*s, 1, at as u64, len), data[at..at + len], "[{at}, +{len})");
        }
    }

    #[test]
    fn in_memory_backend() {
        exercise(BackendKind::InMemory.store(0));
    }

    #[test]
    fn on_disk_backend() {
        let (dir, store) = on_disk("store");
        exercise(store);
        assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), 0, "a dropped store leaves no file");
    }

    #[test]
    fn in_memory_extents_hold_the_bytes_appended_across_their_edges() {
        exercise_edges(BackendKind::InMemory.store(0));
        let mut b = InMemory::default();
        b.append(&[1; 100], &mut Vec::new());
        b.append(&vec![2; 2 * EXTENT_BYTES], &mut Vec::new());
        assert!(b.extents[..2].iter().all(|e| e.len() == EXTENT_BYTES));
        assert_eq!(b.extents[2].len(), 100);
    }

    #[test]
    fn in_memory_first_extent_holds_exactly_the_bytes_it_stores() {
        // A p = 64 loader's 512-record chunks (52 B a record) and its last
        // 382 records, byte-sized steps, an odd spread, one that fills the
        // extent exactly.
        let mut sequences: Vec<Vec<usize>> = vec![
            vec![26_624, 26_624, 19_864],
            vec![1, 1, 2, 3, 5, 8, 13],
            vec![100, 4_096, 65_537, 7, 30_000],
            vec![EXTENT_BYTES - 1, 1],
        ];
        // And a scatter of 40 sizes that stays below one extent.
        sequences.push((0..40).map(|k| k * 7_919 % (EXTENT_BYTES / 40)).collect());
        for sizes in &sequences {
            let mut b = InMemory::default();
            for &size in sizes {
                b.append(&vec![5; size], &mut Vec::new());
                assert_eq!(b.extents.len(), usize::from(b.len > 0), "{sizes:?}");
                let held = b.extents.first().map_or(0, Vec::capacity);
                assert_eq!(held, b.len, "capacity after appends {sizes:?}");
            }
        }
    }

    #[test]
    fn in_memory_consumed_extents_are_cut_again_after_a_first_extent() {
        let mut s = RamStore::default();
        s.append(1, &vec![1; 3 * EXTENT_BYTES]).unwrap();
        let consumed: Vec<*const u8> = s.files[&1].extents.iter().map(|e| e.as_ptr()).collect();
        s.release_prefix(1, 2 * EXTENT_BYTES as u64 + 5);
        assert_eq!(s.spares.len(), 2, "two whole extents consumed, the third is not");
        // A new file's first extent grows from nothing; its second is a spare.
        s.append(2, &vec![2; EXTENT_BYTES + 1]).unwrap();
        let child = &s.files[&2].extents;
        assert!(!consumed.contains(&child[0].as_ptr()));
        assert!(consumed[..2].contains(&child[1].as_ptr()));
        assert_eq!(read(&s, 2, EXTENT_BYTES as u64 - 1, 2), [2, 2]);
        assert_eq!(read(&s, 1, 2 * EXTENT_BYTES as u64 + 5, 3), [1; 3]);
        // The spare list is bounded: a long file consumed whole keeps a few.
        s.append(3, &vec![3; (SPARE_EXTENTS + 3) * EXTENT_BYTES]).unwrap();
        s.release_prefix(3, s.len(3));
        assert_eq!(s.spares.len(), SPARE_EXTENTS);
    }

    #[test]
    fn reads_below_the_release_point_panic_on_both_stores() {
        let (_dir, real) = on_disk("released");
        for mut s in [BackendKind::InMemory.store(0), real] {
            s.append(1, &vec![7; EXTENT_BYTES + 10]).unwrap();
            s.release_prefix(1, 4);
            assert_eq!(s.len(1), EXTENT_BYTES as u64 + 10, "a release keeps the length");
            assert_eq!(read(&*s, 1, 4, 6), [7; 6], "the release point itself is readable");
            let below = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(&*s, 1, 3, 1)));
            let payload = below.expect_err("read below the release point");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("below the release point"), "{message}");
        }
    }

    #[test]
    fn on_disk_a_consumed_parent_holds_its_children() {
        let (dir, mut s) = on_disk("consumed");
        let parent: Vec<u8> = (0..6 * EXTENT_BYTES + 99).map(|i| (i % 253) as u8).collect();
        s.append(1, &parent).unwrap();
        // Read the parent in chunks that do not align with extents, release
        // what was read, deal each chunk to one of two children.
        let chunk = EXTENT_BYTES / 3 + 17;
        let mut children = [Vec::new(), Vec::new()];
        for (k, at) in (0..parent.len()).step_by(chunk).enumerate() {
            let len = chunk.min(parent.len() - at);
            let bytes = read(&*s, 1, at as u64, len);
            s.release_prefix(1, (at + len) as u64);
            s.append(2 + k as u64 % 2, &bytes).unwrap();
            children[k % 2].extend_from_slice(&bytes);
        }
        s.delete(1);
        for (id, child) in [2, 3].into_iter().zip(&children) {
            assert_eq!(read(&*s, id, 0, child.len()), *child);
        }
        let scratch = std::fs::metadata(dir.0.join("p000.extents")).expect("scratch file").len();
        let extents = (parent.len().div_ceil(EXTENT_BYTES) + 2) as u64;
        assert!(scratch <= extents * EXTENT_BYTES as u64, "{scratch} bytes for {extents} extents");
    }

    #[test]
    fn on_disk_extents_hold_the_bytes_appended_across_their_edges() {
        let (_dir, store) = on_disk("edges");
        exercise_edges(store);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn in_memory_read_past_end_panics() {
        let mut s = BackendKind::InMemory.store(0);
        s.append(1, b"ab").unwrap();
        let _ = s.read_into(1, 1, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn on_disk_read_past_end_panics() {
        let (_dir, mut s) = on_disk("past");
        s.append(1, b"ab").unwrap();
        let _ = s.read_into(1, 1, &mut [0; 2]);
    }

    #[test]
    #[should_panic(expected = "read range overflow")]
    fn on_disk_read_offset_overflow_panics() {
        let (_dir, mut s) = on_disk("ovf");
        s.append(1, b"abcdefgh").unwrap();
        // offset + len wraps u64: must panic on the checked add, not pass
        // the bounds assert and fault in the read.
        let _ = s.read_into(1, u64::MAX - 3, &mut [0; 8]);
    }

    #[test]
    fn read_into_reuses_the_caller_buffer() {
        let mut s = BackendKind::InMemory.store(0);
        s.append(1, b"hello world").unwrap();
        let mut buf = [0u8; 5];
        s.read_into(1, 6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        s.read_into(1, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }
}
