//! Physical storage backends for a processor's local disk.
//!
//! Two backends share one trait: [`InMemory`] keeps bytes in RAM (fast, used
//! by tests and the figure harness — remember the *cost* of I/O is always
//! charged to the virtual clock regardless of backend), and [`OnDisk`]
//! stores real files under a temporary directory (used by the out-of-core
//! example to demonstrate genuinely disk-resident operation).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// Byte-level storage for one logical file.
pub trait Backend: Send {
    /// Append bytes at the end.
    fn append(&mut self, bytes: &[u8]);
    /// Read exactly `buf.len()` bytes starting at `offset` into `buf`.
    /// Panics if out of range (callers track logical lengths). This is the
    /// hot-path primitive: it reuses the caller's buffer instead of
    /// allocating a fresh `Vec` per chunk.
    fn read_into(&mut self, offset: u64, buf: &mut [u8]);
    /// Read `len` bytes starting at `offset`. Panics if out of range.
    fn read(&mut self, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_into(offset, &mut buf);
        buf
    }
    /// Current length in bytes.
    fn len(&self) -> u64;
    /// Whether the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Discard all contents.
    fn clear(&mut self);
    /// The logical file was renamed to `new_name`. Backends with a physical
    /// namespace (real files) move their storage; the in-memory backend has
    /// nothing to do.
    fn rename(&mut self, new_name: &str) {
        let _ = new_name;
    }
}

/// Bytes per extent of an [`InMemory`] file. Large enough that a streaming
/// chunk spans a handful of extents, small enough that the unused tail of
/// a file's last extent does not show in the resident set.
const EXTENT_BYTES: usize = 1 << 18;

/// Heap-backed storage: a list of fixed-size extents. Appending never moves
/// bytes already stored — a file that grows allocates one more extent where
/// a single `Vec` would reallocate and copy everything written so far.
#[derive(Default)]
pub struct InMemory {
    /// Every extent but the last holds exactly [`EXTENT_BYTES`].
    extents: Vec<Vec<u8>>,
    len: usize,
}

impl InMemory {
    /// New empty in-memory file.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for InMemory {
    fn append(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len();
        while !bytes.is_empty() {
            if self.extents.last().is_none_or(|tail| tail.len() == EXTENT_BYTES) {
                self.extents.push(Vec::new());
            }
            let first = self.extents.len() == 1;
            let tail = self.extents.last_mut().expect("pushed above");
            let (head, rest) = bytes.split_at(bytes.len().min(EXTENT_BYTES - tail.len()));
            // A file's first extent grows with what arrives (most files of
            // a wide machine are a few kB); once it is full the file is
            // large and every further extent is cut whole.
            let capacity = if first {
                (tail.len() + head.len()).next_power_of_two().min(EXTENT_BYTES)
            } else {
                EXTENT_BYTES
            };
            tail.reserve_exact(capacity - tail.len());
            tail.extend_from_slice(head);
            bytes = rest;
        }
    }

    fn read_into(&mut self, offset: u64, mut buf: &mut [u8]) {
        let start = usize::try_from(offset).expect("read range overflow");
        let end = start
            .checked_add(buf.len())
            .expect("read range overflow");
        assert!(end <= self.len, "read past end of in-memory file");
        let (mut extent, mut at) = (start / EXTENT_BYTES, start % EXTENT_BYTES);
        while !buf.is_empty() {
            let src = &self.extents[extent][at..];
            let (head, rest) = buf.split_at_mut(src.len().min(buf.len()));
            head.copy_from_slice(&src[..head.len()]);
            buf = rest;
            (extent, at) = (extent + 1, 0);
        }
    }

    fn len(&self) -> u64 {
        self.len as u64
    }

    fn clear(&mut self) {
        self.extents.clear();
        self.len = 0;
    }
}

/// Replace path-hostile characters so any logical file name maps to one
/// file name inside the rank's scratch directory.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

/// Real-file storage under a caller-provided directory.
pub struct OnDisk {
    path: PathBuf,
    file: File,
    len: u64,
}

impl OnDisk {
    /// Create (truncating) a real file at `path`.
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        Ok(OnDisk { path, file, len: 0 })
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &PathBuf {
        &self.path
    }
}

impl Backend for OnDisk {
    fn append(&mut self, bytes: &[u8]) {
        self.file
            .seek(SeekFrom::End(0))
            .and_then(|_| self.file.write_all(bytes))
            .expect("on-disk append failed");
        self.len += bytes.len() as u64;
    }

    fn read_into(&mut self, offset: u64, buf: &mut [u8]) {
        let end = offset
            .checked_add(buf.len() as u64)
            .expect("read range overflow");
        assert!(end <= self.len, "read past end of file");
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.read_exact(buf))
            .expect("on-disk read failed");
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn clear(&mut self) {
        self.file.set_len(0).expect("truncate failed");
        self.len = 0;
    }

    fn rename(&mut self, new_name: &str) {
        // Keep the physical file in step with the logical namespace so a
        // later file created under the old name cannot collide with (or
        // truncate) this one's storage.
        let new_path = match self.path.parent() {
            Some(parent) => parent.join(sanitize(new_name)),
            None => PathBuf::from(sanitize(new_name)),
        };
        if new_path == self.path {
            return;
        }
        std::fs::rename(&self.path, &new_path).expect("on-disk rename failed");
        self.path = new_path;
    }
}

impl Drop for OnDisk {
    fn drop(&mut self) {
        // Best-effort cleanup of the scratch file.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Which physical backend a disk farm should use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendKind {
    /// Bytes held in RAM (default; virtual I/O costs still charged).
    InMemory,
    /// Real files under the given scratch directory.
    OnDisk(PathBuf),
}

impl BackendKind {
    /// Instantiate a backend for file `name` of processor `rank`.
    pub fn open(&self, rank: usize, name: &str) -> Box<dyn Backend> {
        match self {
            BackendKind::InMemory => Box::new(InMemory::new()),
            BackendKind::OnDisk(dir) => {
                let path = dir.join(format!("p{rank:03}")).join(sanitize(name));
                Box::new(OnDisk::create(path).expect("create on-disk backend"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut b: Box<dyn Backend>) {
        assert!(b.is_empty());
        b.append(b"hello ");
        b.append(b"world");
        assert_eq!(b.len(), 11);
        assert_eq!(b.read(0, 5), b"hello");
        assert_eq!(b.read(6, 5), b"world");
        assert_eq!(b.read(0, 11), b"hello world");
        b.clear();
        assert_eq!(b.len(), 0);
        b.append(b"x");
        assert_eq!(b.read(0, 1), b"x");
    }

    #[test]
    fn in_memory_backend() {
        exercise(Box::new(InMemory::new()));
    }

    #[test]
    fn on_disk_backend() {
        let dir = std::env::temp_dir().join(format!("pario-test-{}", std::process::id()));
        exercise(BackendKind::OnDisk(dir.clone()).open(0, "file-a"));
        // Name sanitization must not collide trivially different names.
        let b = BackendKind::OnDisk(dir.clone()).open(1, "weird/name");
        drop(b);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn in_memory_extents_hold_the_bytes_appended_across_their_edges() {
        let data: Vec<u8> = (0..3 * EXTENT_BYTES + 777).map(|i| (i % 251) as u8).collect();
        let mut b = InMemory::new();
        // A small first append, one that crosses two extent edges, the rest.
        let cuts = [0, 100, 2 * EXTENT_BYTES + 5, data.len()];
        for w in cuts.windows(2) {
            b.append(&data[w[0]..w[1]]);
        }
        assert_eq!(b.len(), data.len() as u64);
        assert!(b.extents[..3].iter().all(|e| e.len() == EXTENT_BYTES));
        assert_eq!(b.read(0, data.len()), data);
        for (at, len) in [(EXTENT_BYTES - 3, 7), (EXTENT_BYTES, EXTENT_BYTES), (data.len(), 0)] {
            assert_eq!(b.read(at as u64, len), data[at..at + len], "[{at}, +{len})");
        }
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn in_memory_read_past_end_panics() {
        let mut b = InMemory::new();
        b.append(b"ab");
        b.read(1, 2);
    }

    #[test]
    #[should_panic(expected = "read range overflow")]
    fn on_disk_read_offset_overflow_panics() {
        let dir = std::env::temp_dir().join(format!("pario-ovf-{}", std::process::id()));
        let mut b = BackendKind::OnDisk(dir.clone()).open(0, "ovf");
        b.append(b"abcdefgh");
        // offset + len wraps u64: must panic on the checked add, not pass
        // the bounds assert and fault in the read.
        b.read(u64::MAX - 3, 8);
    }

    #[test]
    fn read_into_reuses_the_caller_buffer() {
        let mut b = InMemory::new();
        b.append(b"hello world");
        let mut buf = [0u8; 5];
        b.read_into(6, &mut buf);
        assert_eq!(&buf, b"world");
        b.read_into(0, &mut buf);
        assert_eq!(&buf, b"hello");
    }
}
