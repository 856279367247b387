//! The three system calls the client needs that `std` does not expose:
//! `ppoll(2)` to wait on several sockets with a sub-millisecond timeout,
//! and `getrusage(2)` for thread CPU time and the process's peak
//! resident memory. `std` already links the C library, so plain
//! `extern "C"` declarations suffice. Linux only.

use std::io;
use std::os::raw::{c_int, c_long, c_ulong, c_void};
use std::time::Duration;

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;
pub const POLLERR: i16 = 0x8;
pub const POLLHUP: i16 = 0x10;

/// Mirrors the kernel's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    pub fd: c_int,
    pub events: i16,
    pub revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// Mirrors `struct rusage`: two `struct timeval`s, then fourteen longs
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    longs: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// Waits until one of `fds` is ready or `timeout` passes (`None` waits
/// without limit). Returns the number of ready descriptors; an
/// interrupted wait reports 0.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: t.subsec_nanos() as c_long,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a valid, exclusively borrowed array of
    // `fds.len()` `#[repr(C)]` pollfd records the kernel may write
    // `revents` into; `ts_ptr` is null or points at a live timespec on
    // this stack frame; a null sigmask leaves the signal mask alone.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            ts_ptr,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

fn rusage(who: c_int) -> Rusage {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `#[repr(C)]` struct laid out
    // as the kernel's `struct rusage`; `who` is a valid selector.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(
        rc,
        0,
        "getrusage({who}) failed: {}",
        io::Error::last_os_error()
    );
    usage
}

/// CPU time (user + system) the calling thread has used.
pub fn thread_cpu() -> Duration {
    let u = rusage(RUSAGE_THREAD);
    let micros = |tv: [c_long; 2]| tv[0] as u64 * 1_000_000 + tv[1] as u64;
    Duration::from_micros(micros(u.utime) + micros(u.stime))
}

/// Peak resident set size of the whole process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage(RUSAGE_SELF).longs[0] as f64 / 1024.0
}
