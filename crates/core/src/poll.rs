//! The TCP reactor's readiness wait: one `poll(2)` wrapper and the
//! [`Waker`] that lets other threads (shard workers, the checkpoint
//! dispatcher, `shutdown`) interrupt it. The reactor blocks here only
//! when a tick made no progress, so an idle front door costs no CPU
//! and a ready socket or a sent reply is served without a poll
//! interval in between.

#[cfg(not(unix))]
compile_error!("the TCP front door waits on poll(2); ppms-core builds on unix targets only");

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// Readable (or, on a listener, a connection to accept).
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd`, field for field.
#[repr(C)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

/// Blocks until at least one of `fds` is ready (no timeout). A signal
/// interrupting the wait counts as a return like any other.
#[allow(unsafe_code)]
pub(crate) fn wait(fds: &mut [PollFd]) -> io::Result<()> {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
    // SAFETY: `PollFd` is `#[repr(C)]` with the layout of `struct
    // pollfd`; the pointer and length come from one live, exclusively
    // borrowed slice, so the kernel writes `revents` only inside it.
    // A timeout of -1 blocks until readiness.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, -1) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Wakes a reactor blocked in [`wait`]: one end of a non-blocking
/// socket pair sits in the reactor's poll set, the other is written
/// by [`Waker::wake`]. The flag makes a burst of wakes cost one write.
pub(crate) struct Waker {
    armed: AtomicBool,
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            armed: AtomicBool::new(false),
            tx,
            rx,
        })
    }

    /// Makes the reactor's next (or current) wait return. A full
    /// socket buffer means a wake is already pending, so write errors
    /// are moot.
    pub(crate) fn wake(&self) {
        if !self.armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Reactor side, before it looks for work: consume the pending
    /// wake bytes, *then* re-arm. A wake that lands after the re-arm
    /// writes a fresh byte, so the next wait returns at once; one that
    /// landed before it is covered by the scan that follows (the swap
    /// reads the waker's own swap, so its reply is visible to us).
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        self.armed.swap(false, Ordering::SeqCst);
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}
