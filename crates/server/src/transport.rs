//! The one TCP transport under [`crate::server`] and [`crate::coordinator`].
//!
//! Everything between the socket and a dispatcher lives here: one accept thread per
//! listener, one thread per connection (std-only: this build environment has no async
//! runtime), the frame loop, the `requests`/`protocol_errors` counters and shutdown. A
//! server and a coordinator differ only in their [`Handler`]: per-connection state, a
//! `dispatch` from a parsed [`Request`] to a response, and queued push frames.
//!
//! ```text
//!  accept thread ──spawn──► connection thread, one per client:
//!                             read frame (50 ms idle poll) → Request::parse
//!                             → Handler::dispatch → write_frame → write queued pushes
//!                             idle poll: write queued pushes, check the shutdown flag
//! ```
//!
//! Malformed frames (oversized, truncated, non-UTF-8) answer `ERR` and close the
//! connection, since no trustworthy framing is left to resynchronise on; requests that
//! fail to parse or dispatch answer `ERR` and keep it. Shutdown, from [`Handle::shutdown`]
//! or a remote `SHUTDOWN`, sets a flag and connects to the listener once: that wakes the
//! accept thread, which sees the flag and exits, and every connection thread sees it at
//! its next idle poll.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{read_frame_idle, write_frame, FrameError, Request, MAX_FRAME_BYTES};

/// How often a connection's blocked read wakes to write queued pushes and check the
/// shutdown flag; also how long the accept thread backs off after a failed accept.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// What one listener serves.
pub(crate) trait Handler: Send + Sync + Sized + 'static {
    /// The state of one connection, dropped when the connection closes.
    type Connection;

    /// The state of a newly accepted connection.
    fn open(&self) -> Self::Connection;

    /// Answers one well-formed request other than `SHUTDOWN`, which the transport
    /// answers itself. `wire` holds the transport's counters for `STATS`.
    fn dispatch(
        &self,
        connection: &mut Self::Connection,
        request: &Request,
        wire: &WireStats,
    ) -> String;

    /// Frames queued for `connection` outside any request, oldest first. They are
    /// written after every response and at every idle poll.
    fn pushes(&self, _connection: &Self::Connection) -> Vec<String> {
        Vec::new()
    }
}

/// The transport's request counters. They render as `requests=<n> protocol_errors=<n>`
/// on each handler's `STATS` head line.
#[derive(Default)]
pub(crate) struct WireStats {
    requests: AtomicU64,
    protocol_errors: AtomicU64,
}

impl fmt::Display for WireStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests={} protocol_errors={}",
            self.requests.load(Ordering::Relaxed),
            self.protocol_errors.load(Ordering::Relaxed)
        )
    }
}

/// A running server or coordinator: its address, a shutdown trigger and a join point.
pub struct Handle<H> {
    shared: Arc<Shared<H>>,
    acceptor: JoinHandle<()>,
}

/// What the accept thread and every connection thread of one listener share.
struct Shared<H> {
    handler: H,
    addr: SocketAddr,
    shutdown: AtomicBool,
    wire: WireStats,
    connections: Mutex<Vec<JoinHandle<()>>>,
}

/// Binds `addr` and serves `handler` there. Returns once the listener is bound and its
/// accept thread runs; pass port 0 for an ephemeral port.
pub(crate) fn listen<H: Handler>(addr: impl ToSocketAddrs, handler: H) -> io::Result<Handle<H>> {
    let listener = TcpListener::bind(addr)?;
    let shared = Arc::new(Shared {
        handler,
        addr: listener.local_addr()?,
        shutdown: AtomicBool::new(false),
        wire: WireStats::default(),
        connections: Mutex::new(Vec::new()),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || shared.accept(&listener))
    };
    Ok(Handle { shared, acceptor })
}

impl<H> Handle<H> {
    /// The address the listener is bound to (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Stops accepting and joins every thread: in-flight requests finish, and idle
    /// connections close at their next poll.
    pub fn shutdown(self) {
        self.shared.stop();
        self.wait();
    }

    /// Blocks until the listener stops after a remote `SHUTDOWN`, and every connection
    /// thread has exited.
    pub fn wait(self) {
        let _ = self.acceptor.join();
        let connections =
            std::mem::take(&mut *self.shared.connections.lock().expect("connection list"));
        for connection in connections {
            let _ = connection.join();
        }
    }

    pub(crate) fn handler(&self) -> &H {
        &self.shared.handler
    }
}

impl<H> Shared<H> {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Sets the shutdown flag and wakes the blocked accept thread with one connect.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
    }
}

impl<H: Handler> Shared<H> {
    fn accept(self: &Arc<Self>, listener: &TcpListener) {
        loop {
            let Ok((stream, _peer)) = listener.accept() else {
                if self.stopping() {
                    return;
                }
                // Persistent accept failures (e.g. EMFILE when connection threads
                // exhaust file descriptors) must not hot-spin a core; back off so the
                // connections that would free descriptors get to run.
                std::thread::sleep(IDLE_POLL);
                continue;
            };
            if self.stopping() {
                // The connect that woke us (or a late client): nothing more to serve.
                return;
            }
            let shared = Arc::clone(self);
            let connection = std::thread::spawn(move || shared.converse(stream));
            let mut connections = self.connections.lock().expect("connection list");
            // Reap finished threads so a long-lived listener does not accumulate handles.
            let mut index = 0;
            while index < connections.len() {
                if connections[index].is_finished() {
                    let _ = connections.swap_remove(index).join();
                } else {
                    index += 1;
                }
            }
            connections.push(connection);
        }
    }

    /// Serves one connection until the peer leaves, its framing breaks, or the listener
    /// shuts down.
    fn converse(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        let Ok(mut reader) = stream.try_clone() else {
            return;
        };
        let mut writer = io::BufWriter::new(stream);
        let mut connection = self.handler.open();
        while !self.stopping() {
            let payload = match read_frame_idle(&mut reader, || !self.stopping()) {
                Ok(Some(payload)) => payload,
                Ok(None) => {
                    if self.write_pushes(&mut writer, &connection).is_err() {
                        return;
                    }
                    continue;
                }
                Err(FrameError::Closed) => return,
                Err(malformed) => {
                    self.wire.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = write_frame(&mut writer, &format!("ERR {malformed}"));
                    return;
                }
            };
            self.wire.requests.fetch_add(1, Ordering::Relaxed);
            let (mut response, shutdown) = match Request::parse(&payload) {
                Err(message) => {
                    self.wire.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    (format!("ERR {message}"), false)
                }
                Ok(Request::Shutdown) => ("OK bye".to_string(), true),
                Ok(request) => {
                    (self.handler.dispatch(&mut connection, &request, &self.wire), false)
                }
            };
            if response.len() > MAX_FRAME_BYTES {
                // A legitimately huge answer cannot be framed; answer a small ERR instead
                // of closing (the query itself succeeded — the client can narrow it).
                response = format!(
                    "ERR response too large ({} bytes exceeds the {MAX_FRAME_BYTES}-byte frame \
                     limit); narrow the query",
                    response.len()
                );
            }
            // A write on this very connection has queued its subscription events by now
            // (a swap notifies before dispatch returns): push them without waiting for
            // the next idle poll.
            if write_frame(&mut writer, &response).is_err()
                || self.write_pushes(&mut writer, &connection).is_err()
            {
                return;
            }
            if shutdown {
                self.stop();
                return;
            }
        }
    }

    fn write_pushes(
        &self,
        writer: &mut impl io::Write,
        connection: &H::Connection,
    ) -> io::Result<()> {
        self.handler.pushes(connection).iter().try_for_each(|frame| write_frame(writer, frame))
    }
}
