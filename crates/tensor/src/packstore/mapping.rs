//! Zero-copy shard access: a minimal read-only `mmap` wrapper (raw libc
//! bindings — the build environment has no `libc`/`memmap2` crate, and Rust's
//! std already links the platform C library) plus a heap-decode fallback for
//! non-unix targets, big-endian hosts, or mappings whose payload alignment
//! cannot back an `&[f32]`. The heap run is also the whole base of a table
//! with no directory.

use super::format::{Cursor, PackError};
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private file mapping. Unmapped on drop.
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // The mapping is read-only and owned: sharing &Mmap across threads is a
    // shared read of immutable pages.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Map `len` bytes of the open file read-only. `len` must be > 0.
        pub fn map(file: &std::fs::File, len: usize) -> std::io::Result<Mmap> {
            use std::os::unix::io::AsRawFd;
            debug_assert!(len > 0);
            // SAFETY: fd is a valid open file, addr is null (kernel picks),
            // and we never write through the PROT_READ mapping.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        /// The mapped bytes.
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: exactly the region returned by mmap in `map`.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(unix)]
pub use sys::Mmap;

/// The base bytes of one shard: either a live mapping (payload served as
/// `&[f32]` straight out of the page cache) or a heap run of records — the
/// no-mmap fallback, decoded once at open (one read pass, every later access
/// identical), or the base of a table with no directory.
pub enum ShardData {
    /// mmap'd file; `payload_off` is where records start (header length).
    #[cfg(unix)]
    Mapped {
        /// The live mapping (whole file).
        map: Mmap,
        /// Byte offset of the first record.
        payload_off: usize,
    },
    /// Heap run: records as native f32s.
    Heap(Vec<f32>),
}

impl ShardData {
    /// Open a shard's record payload. `path` must exist with exactly
    /// `payload_off + payload_bytes + 4` bytes (caller validated); mmap is
    /// used when `map` is set and the payload can legally alias `&[f32]`,
    /// otherwise the payload is decoded onto the heap.
    pub(crate) fn open(
        path: &Path,
        payload_off: usize,
        payload_bytes: usize,
        map: bool,
    ) -> Result<ShardData, PackError> {
        #[cfg(unix)]
        if map && cfg!(target_endian = "little") && payload_bytes > 0 {
            let file = std::fs::File::open(path).map_err(|e| PackError::io(path, &e))?;
            let total = payload_off + payload_bytes + 4;
            if let Ok(map) = Mmap::map(&file, total) {
                let payload = &map.as_slice()[payload_off..payload_off + payload_bytes];
                // mmap returns page-aligned memory, so a header length that
                // is a multiple of 4 keeps the payload f32-aligned; check
                // anyway and fall through to the heap if the platform says no.
                if payload.as_ptr().align_offset(std::mem::align_of::<f32>()) == 0 {
                    return Ok(ShardData::Mapped { map, payload_off });
                }
            }
        }
        // Fallback: one sequential read + decode.
        let bytes = std::fs::read(path).map_err(|e| PackError::io(path, &e))?;
        let what = path.display().to_string();
        let mut c = Cursor::new(&bytes, &what);
        c.take(payload_off)?;
        Ok(ShardData::Heap(c.f32s(payload_bytes / 4)?))
    }

    /// Whether this shard is served from a live mapping.
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            ShardData::Mapped { .. } => true,
            ShardData::Heap(_) => false,
        }
    }

    /// The f32 slots `[off, off + len)` of the payload (offsets in f32s).
    pub fn f32s(&self, off: usize, len: usize) -> &[f32] {
        match self {
            #[cfg(unix)]
            ShardData::Mapped { map, payload_off } => {
                let bytes = &map.as_slice()[payload_off + off * 4..payload_off + (off + len) * 4];
                // SAFETY: alignment was verified at open, the range is inside
                // the mapping, and f32 has no invalid bit patterns. The host
                // is little-endian (checked at open), matching the format.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f32, len) }
            }
            ShardData::Heap(v) => &v[off..off + len],
        }
    }

    /// [`ShardData::f32s`], writable. Only a heap run can be written: a table
    /// writes its base in place only when it has no directory, and then its
    /// base is never a mapping.
    pub(crate) fn f32s_mut(&mut self, off: usize, len: usize) -> &mut [f32] {
        match self {
            #[cfg(unix)]
            ShardData::Mapped { .. } => panic!("a mapped shard is read-only"),
            ShardData::Heap(v) => &mut v[off..off + len],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapped_and_heap_agree() {
        let dir = super::super::fresh_temp_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.bin");
        let header = vec![0u8; 16];
        let values: Vec<f32> = (0..64).map(|i| (i as f32) * 0.25 - 3.0).collect();
        let mut bytes = header.clone();
        super::super::format::put_f32s(&mut bytes, &values);
        bytes.extend_from_slice(&[0u8; 4]); // trailer placeholder
        std::fs::write(&path, &bytes).unwrap();

        let mapped = ShardData::open(&path, 16, values.len() * 4, true).unwrap();
        assert_eq!(mapped.f32s(0, values.len()), values.as_slice());
        assert_eq!(mapped.f32s(3, 5), &values[3..8]);

        // Force the heap path and compare bitwise.
        let heap = ShardData::open(&path, 16, values.len() * 4, false).unwrap();
        assert_eq!(mapped.is_mapped(), cfg!(all(unix, target_endian = "little")));
        assert!(!heap.is_mapped());
        let a: Vec<u32> = mapped.f32s(0, values.len()).iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = heap.f32s(0, values.len()).iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
