//! The shared-memory NSM's stack (use case 4, §6.4).
//!
//! Colocated VMs of one tenant need no TCP between them: the NSM "simply
//! copies the message chunks between their hugepages and bypasses the TCP
//! stack processing" (Figure 10). A [`LocalStack`] is that bypass behind
//! [`NsmStack`], so the shared-memory NSM runs ServiceLib like any other.
//! Sockets pair by port inside the NSM, whatever the IP, and a send moves
//! its runs into the peer's receive queue by reference: no segments, no
//! congestion control, no timers. A receive queue holds at most
//! `DEFAULT_RECV_BUF` bytes and an accept queue at most the listen backlog,
//! so a stalled reader holds its writer back as a TCP window would. A
//! shutdown raises `PeerClosed` on the peer at once, as a FIN arriving
//! would, whatever the peer still holds: ServiceLib, not the stack, keeps
//! EOF behind the bytes, for this stack and TCP alike.

use crate::cc::Cc;
use crate::payload::ByteQueue;
use crate::stack::{NsmStack, StackEvent};
use nk_types::constants::DEFAULT_RECV_BUF;
use nk_types::{DetMap, NkError, NkResult, Payload, ShutdownHow, SockAddr, SocketId};
use std::collections::VecDeque;

enum LocalSocket {
    /// Created, bound to a port or not.
    Idle(Option<u16>),
    /// Listening: connections not yet accepted, oldest first.
    Listener {
        port: u16,
        backlog: usize,
        ready: VecDeque<SocketId>,
    },
    Conn(Pipe),
}

/// One end of a colocated connection.
struct Pipe {
    /// The other end, while it is open.
    peer: Option<SocketId>,
    /// The other end's address, as `accept` reports it.
    from: SockAddr,
    /// What the other end sent and this end has not read.
    rx: ByteQueue,
    /// The other end shut its write side: EOF once `rx` is drained.
    fin: bool,
    /// This end shut its write side.
    shut: bool,
}

/// A new end of a connection to `peer`, whose address is `from`.
fn conn(peer: SocketId, from: SockAddr) -> LocalSocket {
    LocalSocket::Conn(Pipe {
        peer: Some(peer),
        from,
        rx: ByteQueue::default(),
        fin: false,
        shut: false,
    })
}

/// The stack of the shared-memory NSM: colocated sockets paired inside it.
#[derive(Default)]
pub struct LocalStack {
    socks: DetMap<SocketId, LocalSocket>,
    /// Listening socket by port.
    listeners: DetMap<u16, SocketId>,
    events: VecDeque<StackEvent>,
    next_id: u32,
}

impl LocalStack {
    /// An empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&mut self, sock: SocketId) -> NkResult<&mut LocalSocket> {
        self.socks.get_mut(&sock).ok_or(NkError::BadSocket)
    }

    fn pipe(&mut self, sock: SocketId) -> NkResult<&mut Pipe> {
        match self.entry(sock)? {
            LocalSocket::Conn(pipe) => Ok(pipe),
            _ => Err(NkError::NotConnected),
        }
    }

    /// The pipe of `sock`, an open end's peer: always a connection.
    fn peer_of(&mut self, sock: SocketId) -> &mut Pipe {
        self.pipe(sock).expect("an open end's peer is a connection")
    }

    /// Shut `sock`'s write side: its peer's FIN arrives at once, and the
    /// peer reads EOF after the bytes it holds.
    fn shut_write(&mut self, sock: SocketId) -> NkResult<()> {
        let pipe = self.pipe(sock)?;
        let was_shut = std::mem::replace(&mut pipe.shut, true);
        if let Some(peer) = pipe.peer.filter(|_| !was_shut) {
            self.peer_of(peer).fin = true;
            self.events.push_back(StackEvent::PeerClosed(peer));
        }
        Ok(())
    }
}

impl NsmStack for LocalStack {
    fn socket(&mut self) -> SocketId {
        self.next_id += 1;
        self.socks
            .insert(SocketId(self.next_id), LocalSocket::Idle(None));
        SocketId(self.next_id)
    }

    fn bind(&mut self, sock: SocketId, addr: SockAddr) -> NkResult<()> {
        let LocalSocket::Idle(port) = self.entry(sock)? else {
            return Err(NkError::InvalidState);
        };
        *port = Some(addr.port);
        Ok(())
    }

    fn listen(&mut self, sock: SocketId, backlog: u32) -> NkResult<()> {
        let LocalSocket::Idle(Some(port)) = *self.entry(sock)? else {
            return Err(NkError::InvalidState);
        };
        if self.listeners.contains_key(&port) {
            return Err(NkError::AddrInUse);
        }
        self.listeners.insert(port, sock);
        self.socks.insert(
            sock,
            LocalSocket::Listener {
                port,
                backlog: backlog.max(1) as usize,
                ready: VecDeque::new(),
            },
        );
        Ok(())
    }

    /// Pair `sock` with a new socket in the accept queue of the listener on
    /// `remote`'s port, or refuse at once: no listener, or a full queue.
    fn connect(&mut self, sock: SocketId, remote: SockAddr, _now_ns: u64) -> NkResult<()> {
        let LocalSocket::Idle(port) = *self.entry(sock)? else {
            return Err(NkError::InvalidState);
        };
        let listener = *self
            .listeners
            .get(&remote.port)
            .ok_or(NkError::ConnRefused)?;
        let accepted = SocketId(self.next_id + 1);
        let Ok(LocalSocket::Listener { backlog, ready, .. }) = self.entry(listener) else {
            unreachable!("{listener:?} listens on port {}", remote.port);
        };
        if ready.len() >= *backlog {
            return Err(NkError::ConnRefused);
        }
        ready.push_back(accepted);
        self.next_id += 1;
        let from = SockAddr::new(0, port.unwrap_or(0));
        self.socks.insert(accepted, conn(sock, from));
        self.socks.insert(sock, conn(accepted, remote));
        self.events.push_back(StackEvent::Acceptable(listener));
        self.events.push_back(StackEvent::Connected(sock));
        Ok(())
    }

    /// No TCP, no congestion window: nothing to hand over.
    fn set_cc(&mut self, _sock: SocketId, _cc: Cc) -> NkResult<()> {
        Ok(())
    }

    fn accept(&mut self, sock: SocketId) -> NkResult<(SocketId, SockAddr)> {
        let LocalSocket::Listener { ready, .. } = self.entry(sock)? else {
            return Err(NkError::InvalidState);
        };
        let conn = ready.pop_front().ok_or(NkError::WouldBlock)?;
        Ok((conn, self.pipe(conn)?.from))
    }

    /// What the peer's receive queue has room for moves there by reference.
    /// Bytes for a peer that closed are dropped, as its reset would drop
    /// them on a wire.
    fn send_payload(&mut self, sock: SocketId, run: &mut Payload) -> NkResult<usize> {
        let pipe = self.pipe(sock)?;
        if pipe.shut {
            return Err(NkError::NotConnected);
        }
        let Some(peer) = pipe.peer else {
            return Ok(run.take_front(run.len()).len());
        };
        let to = self.peer_of(peer);
        let n = run.len().min(DEFAULT_RECV_BUF - to.rx.len());
        if n == 0 {
            return Err(NkError::WouldBlock);
        }
        let was_empty = to.rx.is_empty();
        to.rx.push(run.take_front(n));
        if was_empty {
            self.events.push_back(StackEvent::Readable(peer));
        }
        Ok(n)
    }

    fn recv_available(&self, sock: SocketId) -> usize {
        match self.socks.get(&sock) {
            Some(LocalSocket::Conn(pipe)) => pipe.rx.len(),
            _ => 0,
        }
    }

    fn recv_runs(&mut self, sock: SocketId, max: usize, out: &mut Vec<Payload>) -> NkResult<usize> {
        let pipe = self.pipe(sock)?;
        match pipe.rx.read_runs(max, out) {
            0 if !pipe.fin => Err(NkError::WouldBlock),
            n => Ok(n),
        }
    }

    fn shutdown(&mut self, sock: SocketId, how: ShutdownHow) -> NkResult<()> {
        match how {
            ShutdownHow::Read => self.pipe(sock).map(drop),
            _ => self.shut_write(sock),
        }
    }

    /// A connection's peer reads EOF after what it holds, and its later
    /// sends are dropped; a listener's unaccepted connections close too.
    fn close(&mut self, sock: SocketId) -> NkResult<()> {
        match self.entry(sock)? {
            LocalSocket::Idle(_) => {}
            LocalSocket::Listener { port, ready, .. } => {
                let (port, ready) = (*port, std::mem::take(ready));
                self.listeners.remove(&port);
                for conn in ready {
                    self.close(conn)?;
                }
            }
            LocalSocket::Conn(_) => {
                self.shut_write(sock)?;
                if let Some(peer) = self.pipe(sock)?.peer {
                    self.peer_of(peer).peer = None;
                }
            }
        }
        self.socks.remove(&sock);
        Ok(())
    }

    /// No option changes a pipe.
    fn set_sockopt(&mut self, sock: SocketId, _opt: u32, _value: u32) -> NkResult<()> {
        self.entry(sock).map(drop)
    }

    fn pop_event(&mut self) -> Option<StackEvent> {
        self.events.pop_front()
    }

    /// Nothing waits on time.
    fn tick(&mut self, _now_ns: u64) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(stack: &mut LocalStack) -> Vec<StackEvent> {
        std::iter::from_fn(|| stack.pop_event()).collect()
    }

    /// A port takes one listener; closing it closes the connections it
    /// never handed out, their connectors read EOF, and what they send
    /// after is dropped rather than refused.
    #[test]
    fn a_closed_listener_closes_what_it_never_accepted() {
        let mut stack = LocalStack::new();
        let (ls, other, cs) = (stack.socket(), stack.socket(), stack.socket());
        for s in [ls, other] {
            stack.bind(s, SockAddr::new(0, 80)).unwrap();
        }
        stack.listen(ls, 4).unwrap();
        assert_eq!(stack.listen(other, 4), Err(NkError::AddrInUse));
        stack.connect(cs, SockAddr::new(7, 80), 0).unwrap();
        let accepted = SocketId(cs.0 + 1);
        let opened = [StackEvent::Acceptable(ls), StackEvent::Connected(cs)];
        assert_eq!(events(&mut stack), opened);
        stack.close(ls).unwrap();
        assert_eq!(events(&mut stack), [StackEvent::PeerClosed(cs)]);
        assert_eq!(
            stack.close(accepted),
            Err(NkError::BadSocket),
            "closed with ls"
        );
        let mut run = Payload::from(vec![1u8; 100]);
        assert_eq!(stack.send_payload(cs, &mut run), Ok(100));
        assert!(run.is_empty() && events(&mut stack).is_empty());
        let to = SockAddr::new(0, 80);
        let refused = stack.connect(other, to, 0);
        assert_eq!(refused, Err(NkError::ConnRefused));
    }
}
