//! Transports: how frames travel between client and server.
//!
//! Both ends speak [`Connection`] — blocking, one length-prefixed frame
//! at a time, sent from parts and received whole. [`MemTransport`]
//! carries frames over in-process crossbeam channels (deterministic:
//! tests and benches exercise the full protocol stack with no sockets,
//! no ports, no timing flakes). [`TcpTransport`] carries the same bytes
//! over `std::net` — the shape a robot fleet's analysis cluster would
//! deploy.

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use simfs::Storage;

use crate::proto::{
    frame_len, frame_prefix, split_seq, ErrorCode, Request, Response, FRAME_HEADER_LEN,
    MAX_FRAME_LEN,
};
use crate::server::{ChunkCodec, Server};

/// One bidirectional framed byte stream.
pub trait Connection: Send {
    /// Send one frame whose payload is `parts`, back to back. A transport
    /// takes them as they lie: it joins them only where it must hand the
    /// peer one buffer.
    fn send_frame(&mut self, parts: &[&[u8]]) -> io::Result<()>;
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
/// where bytes become [`Request`]s. The connection's reads share one
/// chunk codec: they are consecutive chunks of one link.
pub fn serve_connection<S, C>(server: &Server<S>, conn: &mut C)
where
    S: Storage + Clone + Send + Sync + 'static,
    C: Connection,
{
    let codec = Arc::new(Mutex::new(ChunkCodec::default()));
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
        let mut send = |resp: &Response| send_reply(conn, seq, resp);
        match Request::decode_framed(framed) {
            // Streaming-aware dispatch: a single-frame op emits exactly
            // one frame; a read emits chunk frames as the server's merge
            // yields, with the transport's own send acting as the final
            // backpressure stage. A failed send drops the emit
            // closure's `true`, which tells the server to abort the
            // in-flight stream (releasing its cache pin).
            Ok((req, tctx, deadline_ns)) => {
                let mut final_resp = false;
                let ok =
                    server.submit_streamed_framed(req, tctx, deadline_ns, &codec, &mut |resp| {
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
                let resp = Response::Error { code: ErrorCode::BadRequest, message: e.to_string() };
                if !send(&resp) {
                    return;
                }
            }
        }
    }
}

/// Send `resp`, the answer to request `seq`, as one frame: its head and
/// then, for a stream chunk, the frame the worker built, as it lies
/// ([`Response::encode_parts`]). A reply longer than [`MAX_FRAME_LEN`] is
/// not written at all — its peer would refuse the length, take that for
/// a broken link and ask again — and a permanent `BadRequest` naming the
/// limit goes in its place. A read's chunk closes before it would pass
/// the limit, so only a chunk of one message over it gets here. `false`
/// once the peer is gone, or when the reply cannot be encoded.
fn send_reply<C: Connection>(conn: &mut C, seq: u32, resp: &Response) -> bool {
    let Ok((head, tail)) = resp.encode_parts(seq) else { return false };
    let len = head.len() + tail.len();
    if frame_prefix(len).is_err() {
        let message = format!(
            "a {len}-byte reply exceeds the {MAX_FRAME_LEN}-byte frame limit; \
             a read's chunk holds at least one message, so none larger can be served"
        );
        return send_reply(conn, seq, &Response::Error { code: ErrorCode::BadRequest, message });
    }
    conn.send_frame(&[&head, tail]).is_ok()
}

// ---------------------------------------------------------- mem transport

/// Client half of an in-process connection.
pub struct MemConnection {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    timeout: Option<Duration>,
}

impl MemConnection {
    /// Two ends of one in-process connection, client end first. Each
    /// direction is an unbounded channel: a send never waits for the peer.
    pub fn pair() -> (MemConnection, MemConnection) {
        let (client_tx, server_rx) = channel::unbounded();
        let (server_tx, client_rx) = channel::unbounded();
        (
            MemConnection { tx: client_tx, rx: client_rx, timeout: None },
            MemConnection { tx: server_tx, rx: server_rx, timeout: None },
        )
    }
}

impl Connection for MemConnection {
    fn send_frame(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        // The peer receives one owned buffer: the parts' one join.
        self.tx.send(parts.concat()).map_err(|_| eof())
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
        let (client, mut served) = MemConnection::pair();
        let server = Arc::clone(&self.server);
        std::thread::Builder::new()
            .name("bora-serve-mem-conn".into())
            .spawn(move || serve_connection(&server, &mut served))
            .map_err(io::Error::other)?;
        Ok(client)
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
    fn send_frame(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        // Prefix and parts go down in one vectored write: no copy to join
        // them, and no 4-byte packet of its own ahead of every response.
        let len = parts.iter().map(|p| p.len()).sum();
        let prefix =
            frame_prefix(len).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut slices: Vec<IoSlice> = Vec::with_capacity(1 + parts.len());
        slices.push(IoSlice::new(&prefix));
        slices.extend(parts.iter().map(|p| IoSlice::new(p)));
        write_all_vectored(&mut self.stream, &mut slices)
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let len = frame_len(header).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        // Into reserved capacity: the bytes land once, with no zero-fill
        // ahead of them.
        let mut payload = Vec::with_capacity(len);
        (&mut self.stream).take(len as u64).read_to_end(&mut payload)?;
        if payload.len() < len {
            return Err(eof());
        }
        Ok(payload)
    }
}

/// `write_all` for a list of slices: a short vectored write goes on from
/// the byte it stopped at.
fn write_all_vectored(w: &mut impl Write, mut rest: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{chunk_frame, compress_chunk, WireMessage};
    use crate::{ClientError, ServeClient};
    use bora::BlockCodec;
    use ros_msgs::Time;
    use simfs::IoCtx;

    /// A chunk of 32 messages of about `bytes` payload bytes in all, raw
    /// and LZ-coded: below a chunk's 64 KiB floor (a read's last chunk),
    /// just past it, and well past it.
    fn chunks(bytes: usize) -> [Response; 2] {
        let msgs: Vec<WireMessage> = (0..32)
            .map(|i| WireMessage {
                topic: "/cam".into(),
                time: Time::new(i, 0),
                data: (0..bytes.div_ceil(32)).map(|j| (j % 251 + i as usize) as u8).collect(),
            })
            .collect();
        let ctx = &mut IoCtx::new();
        let triples = msgs.iter().map(|m| (m.topic.as_str(), m.time, m.data.as_slice()));
        [chunk_frame(triples, BlockCodec::None, ctx), compress_chunk(&msgs, ctx)]
    }

    #[test]
    fn a_reply_over_the_frame_limit_is_a_permanent_bad_request() {
        let (client, mut served) = MemConnection::pair();
        // One byte over: seq, opcode and the frame's length are 9 bytes.
        // The zero-filled frame is never read, so its pages are never
        // touched.
        let frame = vec![0u8; MAX_FRAME_LEN as usize - 8];
        assert!(send_reply(&mut served, 1, &Response::StreamChunkLz(frame)));
        let mut c = ServeClient::new(client);
        match c.stat("/c") {
            Err(e @ ClientError::Server { code: ErrorCode::BadRequest, .. }) => {
                assert!(!e.is_transient());
                let text = e.to_string();
                assert!(text.contains(&format!("{MAX_FRAME_LEN}-byte frame limit")), "{text}");
                assert!(text.contains("at least one message"), "{text}");
            }
            other => panic!("expected a BadRequest, got {other:?}"),
        }
    }

    /// What a reply's frame must be on the wire: the length prefix, then
    /// `Response::encode_seq`'s bytes.
    fn joined(seq: u32, resp: &Response) -> Vec<u8> {
        let payload = resp.encode_seq(seq).unwrap();
        [&(payload.len() as u32).to_le_bytes()[..], &payload].concat()
    }

    const SIZES: [usize; 3] = [1024, 64 * 1024 + 1, 640 * 1024];

    #[test]
    fn a_tcp_frame_sent_in_parts_is_the_joined_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            listener.accept().unwrap().0.read_to_end(&mut got).unwrap();
            got
        });
        let mut conn = TcpConnection::new(TcpStream::connect(addr).unwrap());
        let mut expected = Vec::new();
        for (seq, bytes) in (1..).zip(SIZES) {
            for resp in chunks(bytes) {
                assert!(send_reply(&mut conn, seq, &resp));
                expected.extend(joined(seq, &resp));
            }
        }
        drop(conn);
        assert_eq!(reader.join().unwrap(), expected);
    }

    /// Takes at most 7 bytes a write, so every vectored write of a frame
    /// is short, most of them inside a part and some across two.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_vectored_writes_go_on_from_the_byte_they_stopped_at() {
        for (seq, bytes) in (1..).zip(SIZES) {
            for resp in chunks(bytes) {
                let (head, tail) = resp.encode_parts(seq).unwrap();
                let prefix = frame_prefix(head.len() + tail.len()).unwrap();
                let mut out = Trickle(Vec::new());
                let mut slices = [IoSlice::new(&prefix), IoSlice::new(&head), IoSlice::new(tail)];
                write_all_vectored(&mut out, &mut slices).unwrap();
                assert_eq!(out.0, joined(seq, &resp));
            }
        }
    }

    #[test]
    fn tcp_recv_takes_a_whole_frame_or_fails() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = TcpConnection::new(listener.accept().unwrap().0);
        let payload: Vec<u8> = (0..70_000u32).map(|i| i as u8).collect();
        writer.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
        writer.write_all(&payload).unwrap();
        writer.write_all(&0u32.to_le_bytes()).unwrap();
        assert_eq!(conn.recv_frame().unwrap(), payload);
        assert_eq!(conn.recv_frame().unwrap(), Vec::<u8>::new());
        // A header past the limit is refused before anything is reserved.
        writer.write_all(&(MAX_FRAME_LEN + 1).to_le_bytes()).unwrap();
        assert_eq!(conn.recv_frame().unwrap_err().kind(), io::ErrorKind::InvalidData);
        // A frame cut short by the peer hanging up is UnexpectedEof.
        let mut conn = TcpConnection::new({
            let mut writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            writer.write_all(&100u32.to_le_bytes()).unwrap();
            writer.write_all(&[7; 50]).unwrap();
            listener.accept().unwrap().0
        });
        assert_eq!(conn.recv_frame().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }
}
