//! [`ThrottledTransport`]: an in-process link of bounded bandwidth.
//!
//! The cap sits on the *serving* side, where a slow link pushes back on
//! the server: the connection thread sleeps out each frame's time on the
//! wire before handing it on, the stream's reply window fills behind it,
//! and the worker waits — exactly what a socket on a slow network does to
//! it. A client-side delay could not show this: [`MemTransport`]'s
//! server→client channel is unbounded, so the server would never wait.
//!
//! [`MemTransport`]: bora_serve::MemTransport

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bora_serve::transport::{serve_connection, MemConnection};
use bora_serve::{Connection, Server, Transport};
use simfs::Storage;

/// A [`Transport`] to an in-process server whose every connection sends
/// at most `bytes_per_s` toward the client. The rate is shared by the
/// transport's connections and may change while they run; 0 lifts the
/// cap.
pub struct ThrottledTransport<S: Storage> {
    server: Arc<Server<S>>,
    bytes_per_s: Arc<AtomicU64>,
}

impl<S: Storage + Clone + Send + Sync + 'static> ThrottledTransport<S> {
    pub fn new(server: Arc<Server<S>>, bytes_per_s: u64) -> Self {
        ThrottledTransport { server, bytes_per_s: Arc::new(AtomicU64::new(bytes_per_s)) }
    }

    /// Change the cap of every connection, open ones included; 0 lifts it.
    pub fn set_rate(&self, bytes_per_s: u64) {
        self.bytes_per_s.store(bytes_per_s, Ordering::Relaxed);
    }
}

impl<S: Storage + Clone + Send + Sync + 'static> Transport for ThrottledTransport<S> {
    type Conn = MemConnection;

    fn connect(&self) -> io::Result<MemConnection> {
        let (client, inner) = MemConnection::pair();
        let mut served = Throttled { inner, bytes_per_s: Arc::clone(&self.bytes_per_s) };
        let server = Arc::clone(&self.server);
        std::thread::Builder::new()
            .name("bora-chaos-throttled-conn".into())
            .spawn(move || serve_connection(&server, &mut served))
            .map_err(io::Error::other)?;
        Ok(client)
    }
}

/// The serving end of a throttled connection.
struct Throttled {
    inner: MemConnection,
    bytes_per_s: Arc<AtomicU64>,
}

impl Connection for Throttled {
    fn send_frame(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        let rate = self.bytes_per_s.load(Ordering::Relaxed);
        if rate > 0 {
            let len: usize = parts.iter().map(|p| p.len()).sum();
            std::thread::sleep(Duration::from_secs_f64(len as f64 / rate as f64));
        }
        self.inner.send_frame(parts)
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        self.inner.recv_frame()
    }
}
