//! Offline API-compatible stand-in for the subset of [`memmap2`] 0.9 this
//! workspace uses: read-only, private file mappings.
//!
//! The build environment has no registry access, so — like the `rand`
//! shim next door — this package reimplements
//! just the surface the workspace needs. On Linux it issues the `mmap` /
//! `munmap` syscalls directly (no libc crate either), giving true
//! zero-copy page-cache-backed mappings. On other platforms it falls back
//! to reading the file into an 8-byte-aligned owned buffer behind the
//! same API, so callers stay portable without `cfg` noise.
//!
//! [`memmap2`]: https://docs.rs/memmap2
#![forbid(unsafe_op_in_unsafe_fn)]

use std::fs::File;
use std::io;
use std::ops::Deref;

/// A read-only memory map of a file (or, off Linux, an owned copy that
/// behaves identically). Dereferences to `&[u8]`.
pub struct Mmap {
    inner: Inner,
}

enum Inner {
    /// A live `PROT_READ` / `MAP_PRIVATE` mapping: base pointer and
    /// length handed back by the kernel. Unmapped on drop.
    #[cfg(target_os = "linux")]
    Mapped { ptr: *const u8, len: usize },
    /// Portable fallback: the file contents copied into a `u64`-backed
    /// buffer so the base pointer is 8-byte aligned like a page would be.
    #[allow(dead_code)]
    Owned { words: Vec<u64>, len: usize },
}

// SAFETY: the mapping is read-only (`PROT_READ`) and private
// (`MAP_PRIVATE`), so concurrent access from multiple threads is plain
// shared-immutable reads; the owned fallback is an ordinary Vec.
unsafe impl Send for Mmap {}
// SAFETY: as above — no interior mutability in either representation.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only for its full current length.
    ///
    /// # Safety
    ///
    /// As with the real `memmap2`: the caller must ensure the underlying
    /// file is not truncated or mutated for the lifetime of the map
    /// (a mutation through the file would be UB through the `&[u8]`
    /// view). Artifacts written via temp-file + atomic rename satisfy
    /// this.
    pub unsafe fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map",
            ));
        }
        // SAFETY: forwarded from the caller's contract.
        unsafe { Self::map_len(file, len as usize) }
    }

    #[cfg(target_os = "linux")]
    unsafe fn map_len(file: &File, len: usize) -> io::Result<Mmap> {
        if len == 0 {
            // Zero-length mmap is EINVAL; a dangling aligned pointer with
            // length 0 is the canonical empty-slice representation.
            return Ok(Mmap {
                inner: Inner::Mapped {
                    ptr: std::ptr::NonNull::<u64>::dangling().as_ptr() as *const u8,
                    len: 0,
                },
            });
        }
        use std::os::unix::io::AsRawFd;
        let fd = file.as_raw_fd();
        // SAFETY: a fresh anonymous address (addr = 0) read-only private
        // mapping of a file descriptor we hold open; the kernel validates
        // fd/offset/length and reports failure via the return value.
        let ret = unsafe { sys::mmap(0, len, sys::PROT_READ, sys::MAP_PRIVATE, fd, 0) };
        // Error returns are -errno encoded in the top page of the address
        // space, exactly as raw syscalls report them.
        if (ret as isize) < 0 && (ret as isize) > -4096 {
            return Err(io::Error::from_raw_os_error(-(ret as isize) as i32));
        }
        Ok(Mmap {
            inner: Inner::Mapped {
                ptr: ret as *const u8,
                len,
            },
        })
    }

    #[cfg(not(target_os = "linux"))]
    unsafe fn map_len(file: &File, len: usize) -> io::Result<Mmap> {
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: a fresh Vec<u64> is validly readable/writable as bytes
        // for its full capacity; u8 has no validity requirements.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8)
        };
        let mut src = file;
        let mut read = 0usize;
        while read < len {
            use std::io::Read as _;
            let n = src.read(&mut bytes[read..len])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "file shrank while mapping",
                ));
            }
            read += n;
        }
        Ok(Mmap {
            inner: Inner::Owned { words, len },
        })
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.inner {
            #[cfg(target_os = "linux")]
            Inner::Mapped { ptr, len } => {
                // SAFETY: `ptr` is a live PROT_READ mapping of exactly
                // `len` bytes, valid until `Drop` unmaps it; the caller of
                // `map` guaranteed the file is not mutated underneath.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            Inner::Owned { words, len } => {
                // SAFETY: the Vec owns at least `len` initialised bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
        }
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.inner {
            #[cfg(target_os = "linux")]
            Inner::Mapped { len, .. } => *len,
            Inner::Owned { len, .. } => *len,
        }
    }

    /// Whether the mapping is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Deref for Mmap {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Mmap {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len()).finish()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Inner::Mapped { ptr, len } = self.inner {
            if len > 0 {
                // SAFETY: `ptr`/`len` came from a successful mmap and are
                // unmapped exactly once; failure is ignored (nothing
                // actionable in Drop).
                unsafe {
                    let _ = sys::munmap(ptr as usize, len);
                }
            }
        }
    }
}

/// Raw Linux syscall plumbing — the two calls this shim needs, invoked
/// via inline asm so no libc is required.
#[cfg(target_os = "linux")]
mod sys {
    pub const PROT_READ: usize = 1;
    pub const MAP_PRIVATE: usize = 2;

    #[cfg(target_arch = "x86_64")]
    pub unsafe fn mmap(
        addr: usize,
        len: usize,
        prot: usize,
        flags: usize,
        fd: i32,
        offset: usize,
    ) -> usize {
        let ret: usize;
        // SAFETY: syscall 9 (mmap) with the documented six-register ABI;
        // clobbers rcx/r11 per the x86_64 syscall convention.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 9usize => ret,
                in("rdi") addr,
                in("rsi") len,
                in("rdx") prot,
                in("r10") flags,
                in("r8") fd as usize,
                in("r9") offset,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "x86_64")]
    pub unsafe fn munmap(addr: usize, len: usize) -> usize {
        let ret: usize;
        // SAFETY: syscall 11 (munmap) with the documented ABI.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 11usize => ret,
                in("rdi") addr,
                in("rsi") len,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    pub unsafe fn mmap(
        addr: usize,
        len: usize,
        prot: usize,
        flags: usize,
        fd: i32,
        offset: usize,
    ) -> usize {
        let ret: usize;
        // SAFETY: syscall 222 (mmap) via `svc 0` with args in x0..x5.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 222usize,
                inlateout("x0") addr => ret,
                in("x1") len,
                in("x2") prot,
                in("x3") flags,
                in("x4") fd as usize,
                in("x5") offset,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    pub unsafe fn munmap(addr: usize, len: usize) -> usize {
        let ret: usize;
        // SAFETY: syscall 215 (munmap) via `svc 0`.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 215usize,
                inlateout("x0") addr => ret,
                in("x1") len,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("memmap2-shim-{}-{tag}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("basic");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path)
            .expect("create")
            .write_all(&payload)
            .expect("write");
        let file = File::open(&path).expect("open");
        // SAFETY: the file is not mutated while mapped.
        let map = unsafe { Mmap::map(&file) }.expect("map");
        assert_eq!(map.len(), payload.len());
        assert_eq!(&map[..], &payload[..]);
        assert_eq!(map.as_ptr() as usize % 8, 0, "base must be 8-aligned");
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn maps_empty_file() {
        let path = temp_path("empty");
        std::fs::File::create(&path).expect("create");
        let file = File::open(&path).expect("open");
        // SAFETY: the file is not mutated while mapped.
        let map = unsafe { Mmap::map(&file) }.expect("map");
        assert!(map.is_empty());
        assert_eq!(&map[..], &[] as &[u8]);
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn map_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mmap>();
    }
}
