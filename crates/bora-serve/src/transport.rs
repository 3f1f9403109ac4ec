//! Transports: how frames travel between client and server.
//!
//! Both ends speak [`Connection`] — blocking, one length-prefixed frame
//! at a time. [`MemTransport`] carries frames over in-process crossbeam
//! channels (deterministic: tests and benches exercise the full protocol
//! stack with no sockets, no ports, no timing flakes). [`TcpTransport`]
//! carries the same bytes over `std::net` — the shape a robot fleet's
//! analysis cluster would deploy.

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use simfs::Storage;

use crate::proto::{frame_len, split_seq, Request, Response, FRAME_HEADER_LEN};
use crate::server::Server;

/// One bidirectional framed byte stream.
pub trait Connection: Send {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()>;
    /// Blocks for the next frame; `ErrorKind::UnexpectedEof` when the
    /// peer hung up.
    fn recv_frame(&mut self) -> io::Result<Vec<u8>>;
    /// Bound how long `recv_frame` (and, where the transport supports it,
    /// `send_frame`) may block; `None` restores blocking forever. A
    /// timed-out call fails with `ErrorKind::TimedOut` / `WouldBlock` and
    /// the connection should be considered desynchronized (a late
    /// response would be mistaken for the next request's answer) — the
    /// retry layer reconnects rather than reuse it.
    ///
    /// The default errors with `ErrorKind::Unsupported` so a transport
    /// that cannot honor timeouts fails loudly at configuration time
    /// instead of silently blocking forever. `None` is accepted
    /// everywhere — it requests the default behaviour.
    fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        match timeout {
            None => Ok(()),
            Some(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "transport does not support timeouts",
            )),
        }
    }
}

/// A way to reach a server; each `connect` yields an independent
/// connection whose requests the server handles concurrently.
pub trait Transport {
    type Conn: Connection;
    fn connect(&self) -> io::Result<Self::Conn>;
}

// Delegating impls so shared transports (a cluster client holding one
// transport per node behind `Arc`) satisfy `Transport` without cloning
// the underlying listener/dispatcher state.
impl<T: Transport + ?Sized> Transport for &T {
    type Conn = T::Conn;
    fn connect(&self) -> io::Result<Self::Conn> {
        (**self).connect()
    }
}

impl<T: Transport + ?Sized> Transport for Arc<T> {
    type Conn = T::Conn;
    fn connect(&self) -> io::Result<Self::Conn> {
        (**self).connect()
    }
}

fn eof() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed connection")
}

// ------------------------------------------------------------- serve loop

/// Serve one connection until the peer hangs up or the server begins
/// shutting down. Shared by every transport; this is the only place
/// where bytes become [`Request`]s.
pub fn serve_connection<S, C>(server: &Server<S>, conn: &mut C)
where
    S: Storage + Clone + Send + Sync + 'static,
    C: Connection,
{
    loop {
        let payload = match conn.recv_frame() {
            Ok(p) => p,
            Err(_) => return, // peer gone (EOF) or transport failure
        };
        // The seq a request opens with is echoed on every frame of its
        // answer, so the client can tell this response from a stale
        // duplicate of an earlier one. A frame too short to hold one is
        // not this protocol: there is nothing to echo, so hang up.
        let Ok((seq, framed)) = split_seq(&payload) else { return };
        // `false` once the peer is gone (or a frame cannot be encoded).
        let mut send =
            |resp: &Response| resp.encode_seq(seq).is_ok_and(|f| conn.send_frame(&f).is_ok());
        match Request::decode_framed(framed) {
            // Streaming-aware dispatch: a single-response op emits exactly
            // one frame; READ_STREAM2 emits chunk frames as the server's
            // merge yields, with the transport's own send acting as the
            // final backpressure stage. A failed send drops the emit
            // closure's `true`, which tells the server to abort the
            // in-flight stream (releasing its cache pin).
            Ok((req, tctx, deadline_ns)) => {
                let mut final_resp = false;
                let ok = server.submit_streamed_framed(req, tctx, deadline_ns, &mut |resp| {
                    final_resp = matches!(resp, Response::ShuttingDown);
                    send(&resp)
                });
                if !ok || final_resp || server.is_shutting_down() {
                    return;
                }
            }
            // Malformed frame: answer with the error, keep the
            // connection — one bad client frame should not force a
            // reconnect.
            Err(e) => {
                let resp = Response::Error {
                    code: crate::proto::ErrorCode::BadRequest,
                    message: e.to_string(),
                };
                if !send(&resp) {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------- mem transport

/// Client half of an in-process connection.
pub struct MemConnection {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    timeout: Option<Duration>,
}

impl Connection for MemConnection {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        self.tx.send(payload.to_vec()).map_err(|_| eof())
    }
    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        match self.timeout {
            None => self.rx.recv().map_err(|_| eof()),
            Some(t) => self.rx.recv_timeout(t).map_err(|e| match e {
                channel::RecvTimeoutError::Timeout => {
                    io::Error::new(io::ErrorKind::TimedOut, "recv_frame timed out")
                }
                channel::RecvTimeoutError::Disconnected => eof(),
            }),
        }
    }
    fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.timeout = timeout;
        Ok(())
    }
}

/// In-process transport: `connect` spawns a dispatcher thread that feeds
/// the shared server, exactly like a TCP connection handler would.
pub struct MemTransport<S: Storage> {
    server: Arc<Server<S>>,
}

impl<S: Storage + Clone + Send + Sync + 'static> MemTransport<S> {
    pub fn new(server: Arc<Server<S>>) -> Self {
        MemTransport { server }
    }
}

impl<S: Storage + Clone + Send + Sync + 'static> Transport for MemTransport<S> {
    type Conn = MemConnection;

    fn connect(&self) -> io::Result<MemConnection> {
        let (client_tx, server_rx) = channel::unbounded();
        let (server_tx, client_rx) = channel::unbounded();
        let server = Arc::clone(&self.server);
        std::thread::Builder::new()
            .name("bora-serve-mem-conn".into())
            .spawn(move || {
                let mut conn = MemConnection { tx: server_tx, rx: server_rx, timeout: None };
                serve_connection(&server, &mut conn);
            })
            .map_err(io::Error::other)?;
        Ok(MemConnection { tx: client_tx, rx: client_rx, timeout: None })
    }
}

// ---------------------------------------------------------- tcp transport

/// A framed TCP stream (client or server side — the protocol is
/// symmetric at this layer).
pub struct TcpConnection {
    stream: TcpStream,
}

impl TcpConnection {
    pub fn new(stream: TcpStream) -> Self {
        TcpConnection { stream }
    }
}

impl Connection for TcpConnection {
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        // Prefix and payload go down in one vectored write: no copy to
        // join them, and no 4-byte packet of its own ahead of every
        // response. The loop is `write_all` for two slices.
        let prefix = (payload.len() as u32).to_le_bytes();
        let mut slices = [IoSlice::new(&prefix), IoSlice::new(payload)];
        let mut rest = &mut slices[..];
        while !rest.is_empty() {
            match self.stream.write_vectored(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let len = frame_len(header).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        Ok(payload)
    }
}

/// Client-side TCP transport.
pub struct TcpTransport {
    addr: SocketAddr,
}

impl TcpTransport {
    pub fn new(addr: SocketAddr) -> Self {
        TcpTransport { addr }
    }
}

impl Transport for TcpTransport {
    type Conn = TcpConnection;
    fn connect(&self) -> io::Result<TcpConnection> {
        Ok(TcpConnection::new(TcpStream::connect(self.addr)?))
    }
}

/// A running TCP acceptor for a server.
pub struct TcpListenerHandle {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl TcpListenerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the acceptor to exit (it does when the server shuts
    /// down). Connection handler threads are detached; they exit when
    /// their peer hangs up or the shutdown flag is observed.
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Bind `addr` and accept connections for `server` until it shuts down.
///
/// The listener polls in non-blocking mode so shutdown needs no
/// self-connection trick; 10ms poll latency is irrelevant next to a
/// human issuing `SHUTDOWN`.
pub fn spawn_tcp_listener<S>(
    server: Arc<Server<S>>,
    addr: SocketAddr,
) -> io::Result<TcpListenerHandle>
where
    S: Storage + Clone + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let acceptor =
        std::thread::Builder::new().name("bora-serve-acceptor".into()).spawn(move || loop {
            if server.is_shutting_down() {
                return;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(false);
                    let server = Arc::clone(&server);
                    let _ = std::thread::Builder::new().name("bora-serve-tcp-conn".into()).spawn(
                        move || {
                            let mut conn = TcpConnection::new(stream);
                            serve_connection(&server, &mut conn);
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => return,
            }
        })?;
    Ok(TcpListenerHandle { addr: local, acceptor: Some(acceptor) })
}
