//! Readiness poller behind one small API: `epoll(7)` on Linux (O(1)
//! per-event dispatch, the production path) or `poll(2)` (portable
//! fallback for other Unix targets, also forceable on Linux through
//! `ReactorConfig::force_poll` so the tests exercise both backends on
//! the same box).

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

use crate::sys;

pub(crate) const INTEREST_NONE: u8 = 0;
pub(crate) const INTEREST_READ: u8 = 1;
pub(crate) const INTEREST_WRITE: u8 = 2;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

pub(crate) enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Poll(PollTable),
}

impl Poller {
    /// Picks the backend: epoll on Linux unless `force_poll` asks for
    /// the portable path.
    pub(crate) fn new(force_poll: bool) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if !force_poll {
                return Ok(Poller::Epoll(Epoll::new()?));
            }
        }
        let _ = force_poll; // elsewhere poll(2) is the only backend
        Ok(Poller::Poll(PollTable::new()))
    }

    pub(crate) fn backend_name(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    pub(crate) fn add(&mut self, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.ctl(sys::epoll::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Poll(p) => p.add(fd, token, interest),
        }
    }

    pub(crate) fn modify(&mut self, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.ctl(sys::epoll::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Poll(p) => p.modify(fd, interest),
        }
    }

    pub(crate) fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.ctl(sys::epoll::EPOLL_CTL_DEL, fd, 0, INTEREST_NONE),
            Poller::Poll(p) => p.remove(fd),
        }
    }

    /// Waits for readiness, appending into `out`. Error/hangup
    /// conditions surface as `readable` so the connection's next read
    /// observes them and runs the ordinary close path.
    pub(crate) fn wait(
        &mut self,
        out: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.wait(out, timeout),
            Poller::Poll(p) => p.wait(out, timeout),
        }
    }
}

#[cfg(target_os = "linux")]
pub(crate) struct Epoll {
    epfd: RawFd,
    buf: Vec<sys::epoll::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        Ok(Epoll {
            epfd: sys::epoll::create()?,
            buf: vec![sys::epoll::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(interest: u8) -> u32 {
        let mut events = 0;
        if interest & INTEREST_READ != 0 {
            events |= sys::epoll::EPOLLIN;
        }
        if interest & INTEREST_WRITE != 0 {
            events |= sys::epoll::EPOLLOUT;
        }
        events
    }

    fn ctl(&mut self, op: i32, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
        sys::epoll::ctl(self.epfd, op, fd, Self::mask(interest), token)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let n = sys::epoll::wait(self.epfd, &mut self.buf, sys::timeout_ms(timeout))?;
        for raw in &self.buf[..n] {
            let events = raw.events;
            let token = raw.data;
            out.push(Event {
                token,
                readable: events
                    & (sys::epoll::EPOLLIN | sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP)
                    != 0,
                writable: events
                    & (sys::epoll::EPOLLOUT | sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP)
                    != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        sys::epoll::close_fd(self.epfd);
    }
}

/// The `poll(2)` backend keeps an explicit registration table and
/// rebuilds the `pollfd` array per wait — O(n) per call, which is the
/// cost of portability; the epoll backend is the scaling path.
pub(crate) struct PollTable {
    regs: Vec<(RawFd, u64, u8)>,
    fds: Vec<sys::pollsys::PollFd>,
}

impl PollTable {
    fn new() -> PollTable {
        PollTable {
            regs: Vec::new(),
            fds: Vec::new(),
        }
    }

    fn add(&mut self, fd: RawFd, token: u64, interest: u8) -> io::Result<()> {
        if self.regs.iter().any(|(f, _, _)| *f == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.regs.push((fd, token, interest));
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, interest: u8) -> io::Result<()> {
        for reg in &mut self.regs {
            if reg.0 == fd {
                reg.2 = interest;
                return Ok(());
            }
        }
        Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }

    fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        let before = self.regs.len();
        self.regs.retain(|(f, _, _)| *f != fd);
        if self.regs.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        use sys::pollsys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
        self.fds.clear();
        for (fd, _, interest) in &self.regs {
            let mut events = 0;
            if interest & INTEREST_READ != 0 {
                events |= POLLIN;
            }
            if interest & INTEREST_WRITE != 0 {
                events |= POLLOUT;
            }
            // Zero-interest fds stay in the set: POLLERR/POLLHUP are
            // always reported, matching epoll's behaviour.
            self.fds.push(PollFd {
                fd: *fd,
                events,
                revents: 0,
            });
        }
        let n = sys::pollsys::poll_fds(&mut self.fds, sys::timeout_ms(timeout))?;
        if n == 0 {
            return Ok(());
        }
        for (slot, (_, token, _)) in self.fds.iter().zip(self.regs.iter()) {
            let revents = slot.revents;
            if revents == 0 {
                continue;
            }
            out.push(Event {
                token: *token,
                readable: revents & (POLLIN | POLLERR | POLLHUP) != 0,
                writable: revents & (POLLOUT | POLLERR | POLLHUP) != 0,
            });
        }
        Ok(())
    }
}
