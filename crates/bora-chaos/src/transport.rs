//! [`ChaosTransport`]: wrap any [`Transport`] so every frame crossing it
//! consults the shared [`ChaosState`].
//!
//! The wrapper sits on the *client* side of the wire, which is where
//! every network failure is ultimately observed: a dropped request and a
//! dropped response both surface as the client's next `recv_frame`
//! timing out. To make loss a *timeout* instead of a *deadlock*,
//! `connect` installs a frame timeout on the inner connection before
//! handing it out; [`ChaosConnection::set_timeout`] then clamps any
//! user-requested bound to that ceiling, so a retry layer can tighten
//! but never loosen it.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use bora_cluster::NodeId;
use bora_serve::{Connection, Transport};

use crate::fault::{ChaosState, Direction, NetFault};

/// Default ceiling on how long a faulted frame may stall a client.
/// Short enough that scenario drops cost milliseconds, long enough that
/// a clean in-process roundtrip never trips it.
pub const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_millis(150);

/// A [`Transport`] decorator tagging every connection with the node id
/// it reaches and the shared [`ChaosState`] that decides frame fates.
pub struct ChaosTransport<T> {
    inner: T,
    node: NodeId,
    state: Arc<ChaosState>,
    frame_timeout: Duration,
}

impl<T> ChaosTransport<T> {
    pub fn new(inner: T, node: NodeId, state: Arc<ChaosState>) -> Self {
        ChaosTransport { inner, node, state, frame_timeout: DEFAULT_FRAME_TIMEOUT }
    }

    /// Override the per-frame timeout installed at connect.
    pub fn with_frame_timeout(mut self, timeout: Duration) -> Self {
        self.frame_timeout = timeout;
        self
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    type Conn = ChaosConnection<T::Conn>;

    fn connect(&self) -> io::Result<Self::Conn> {
        let mut inner = self.inner.connect()?;
        inner.set_timeout(Some(self.frame_timeout))?;
        Ok(ChaosConnection {
            inner,
            node: self.node,
            state: Arc::clone(&self.state),
            frame_timeout: self.frame_timeout,
            held_send: None,
            pending_recv: VecDeque::new(),
        })
    }
}

/// One faulted connection. All fault bookkeeping is per-connection
/// (held/reordered frames die with the connection, like packets in a
/// closed socket's buffers); all *decisions* come from the shared state.
pub struct ChaosConnection<C: Connection> {
    inner: C,
    node: NodeId,
    state: Arc<ChaosState>,
    frame_timeout: Duration,
    /// A send-side reordered frame waiting for the next send.
    held_send: Option<Vec<u8>>,
    /// Recv-side frames owed to the client before touching the wire
    /// again (duplicates, and the displaced half of a reorder).
    pending_recv: VecDeque<Vec<u8>>,
}

impl<C: Connection> Connection for ChaosConnection<C> {
    fn send_frame(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        // A fault may hold, repeat or cut the frame: it works on one
        // buffer.
        let payload = parts.concat();
        let payload = &payload[..];
        match self.state.decide(self.node, Direction::Send) {
            None => {
                if let Some(held) = self.held_send.take() {
                    self.inner.send_frame(&[payload])?;
                    return self.inner.send_frame(&[&held]);
                }
                self.inner.send_frame(&[payload])
            }
            // Silent loss: the caller believes the request is in flight
            // and discovers otherwise when its recv times out.
            Some(NetFault::Drop) => Ok(()),
            Some(NetFault::Delay { ms }) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.send_frame(&[payload])
            }
            Some(NetFault::Duplicate) => {
                self.inner.send_frame(&[payload])?;
                self.inner.send_frame(&[payload])
            }
            Some(NetFault::Reorder) => match self.held_send.take() {
                // Two adjacent reorders: flush in swapped order.
                Some(held) => {
                    self.inner.send_frame(&[payload])?;
                    self.inner.send_frame(&[&held])
                }
                None => {
                    self.held_send = Some(payload.to_vec());
                    Ok(())
                }
            },
            Some(NetFault::Truncate) => self.inner.send_frame(&[&payload[..payload.len() / 2]]),
        }
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        if let Some(frame) = self.pending_recv.pop_front() {
            return Ok(frame);
        }
        loop {
            let frame = self.inner.recv_frame()?;
            match self.state.decide(self.node, Direction::Recv) {
                None => return Ok(frame),
                // The response evaporates; keep listening. If nothing
                // else is in flight the next inner recv times out.
                Some(NetFault::Drop) => continue,
                Some(NetFault::Delay { ms }) => {
                    std::thread::sleep(Duration::from_millis(ms));
                    return Ok(frame);
                }
                Some(NetFault::Duplicate) => {
                    self.pending_recv.push_back(frame.clone());
                    return Ok(frame);
                }
                // Hold this frame; deliver its successor first. The
                // held frame surfaces on the *next* recv call.
                Some(NetFault::Reorder) => self.pending_recv.push_back(frame),
                Some(NetFault::Truncate) => {
                    let cut = frame.len() / 2;
                    return Ok(frame[..cut].to_vec());
                }
            }
        }
    }

    /// Clamp the caller's bound to the chaos frame timeout: a retry
    /// layer may tighten the window, but nothing may disable the
    /// loss-becomes-timeout guarantee.
    fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        let effective = match timeout {
            Some(t) => t.min(self.frame_timeout),
            None => self.frame_timeout,
        };
        self.inner.set_timeout(Some(effective))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bora_serve::{MemTransport, ServeClient, Server, ServerConfig};
    use simfs::{IoCtx, MemStorage};

    use super::*;
    use crate::fault::ChaosRule;

    const ROOT: &str = "/c/chaos-unit";

    fn serve_one_container() -> Arc<Server<Arc<MemStorage>>> {
        let fs = Arc::new(MemStorage::new());
        let mut ctx = IoCtx::new();
        let mut w = rosbag::BagWriter::create(
            &*fs,
            "/stage.bag",
            rosbag::BagWriterOptions::default(),
            &mut ctx,
        )
        .unwrap();
        let mut imu = ros_msgs::sensor_msgs::Imu::default();
        imu.header.stamp = ros_msgs::Time::new(1, 0);
        w.write_ros_message("/imu", ros_msgs::Time::new(1, 0), &imu, &mut ctx).unwrap();
        w.close(&mut ctx).unwrap();
        bora::duplicate(&*fs, "/stage.bag", &*fs, ROOT, &Default::default(), &mut ctx).unwrap();
        Server::start(fs, ServerConfig::default())
    }

    fn chaos_client(
        server: &Arc<Server<Arc<MemStorage>>>,
        state: &Arc<ChaosState>,
    ) -> ServeClient<ChaosConnection<bora_serve::transport::MemConnection>> {
        let t = ChaosTransport::new(MemTransport::new(Arc::clone(server)), 0, Arc::clone(state))
            .with_frame_timeout(Duration::from_millis(50));
        ServeClient::connect(&t).unwrap()
    }

    #[test]
    fn clean_state_is_transparent() {
        let server = serve_one_container();
        let state = Arc::new(ChaosState::new(1));
        let mut c = chaos_client(&server, &state);
        assert_eq!(c.topics(ROOT).unwrap(), vec!["/imu"]);
        assert_eq!(state.faults_injected(), 0);
        assert!(state.events() >= 2, "send and recv both tick");
        server.shutdown();
    }

    #[test]
    fn dropped_response_times_out_instead_of_hanging() {
        let server = serve_one_container();
        let state = Arc::new(ChaosState::new(2));
        let mut c = chaos_client(&server, &state);
        // Drop exactly one recv-side frame, then heal.
        state.set_rules(vec![ChaosRule::new(NetFault::Drop).on_recv().window(0, 2)]);
        let err = c.topics(ROOT).unwrap_err();
        assert!(
            matches!(&err, bora_serve::ClientError::Io(e)
                if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)),
            "lost response must surface as a timeout, got: {err}"
        );
        assert_eq!(state.faults_injected(), 1);
        // The connection is desynchronized by design; a fresh one works.
        let mut c2 = chaos_client(&server, &state);
        assert_eq!(c2.topics(ROOT).unwrap(), vec!["/imu"]);
        server.shutdown();
    }

    #[test]
    fn duplicated_response_is_discarded_by_correlation() {
        let server = serve_one_container();
        let state = Arc::new(ChaosState::new(3));
        let mut c = chaos_client(&server, &state);
        state.set_rules(vec![ChaosRule::new(NetFault::Duplicate).on_recv().window(0, 2)]);
        // First op succeeds; the duplicate is queued behind it...
        assert_eq!(c.topics(ROOT).unwrap(), vec!["/imu"]);
        assert_eq!(state.faults_injected(), 1);
        state.set_rules(Vec::new());
        // ...and the next op discards the stale frame (its correlation
        // seq is one behind) and reads its real answer, same connection.
        assert!(c.stat(ROOT).is_ok(), "stale duplicate must be discarded, not decoded");
        server.shutdown();
    }

    /// The lost-ack hole correlation exists to close: a duplicated ack
    /// sits in the pipe, the *next* append's request is dropped. Without
    /// correlation the stale ack is credited to the lost append; with it
    /// the client discards the stale frame and times out — ambiguous,
    /// never falsely acked.
    #[test]
    fn stale_ack_is_not_credited_to_a_dropped_request() {
        let server = serve_one_container();
        let state = Arc::new(ChaosState::new(7));
        let mut c = chaos_client(&server, &state);
        // Event schedule (single-threaded): topics send, topics recv
        // (Duplicate — queues a stale copy), stat send (Drop — server
        // never hears it).
        state.set_rules(vec![
            ChaosRule::new(NetFault::Duplicate).on_recv().window(1, 2),
            ChaosRule::new(NetFault::Drop).on_send().window(2, 3),
        ]);
        assert_eq!(c.topics(ROOT).unwrap(), vec!["/imu"]);
        let err = c.stat(ROOT).unwrap_err();
        assert!(
            matches!(&err, bora_serve::ClientError::Io(e)
                if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)),
            "dropped request + stale response must time out, got: {err}"
        );
        assert_eq!(state.faults_injected(), 2);
        server.shutdown();
    }

    #[test]
    fn truncated_response_is_a_decode_error() {
        let server = serve_one_container();
        let state = Arc::new(ChaosState::new(4));
        let mut c = chaos_client(&server, &state);
        state.set_rules(vec![ChaosRule::new(NetFault::Truncate).on_recv().window(0, 2)]);
        let err = c.topics(ROOT).unwrap_err();
        assert!(matches!(err, bora_serve::ClientError::Proto(_)), "got: {err}");
        server.shutdown();
    }

    #[test]
    fn user_timeout_is_clamped_to_frame_timeout() {
        let server = serve_one_container();
        let state = Arc::new(ChaosState::new(5));
        let mut c = chaos_client(&server, &state);
        // Asking for a *looser* bound than the chaos ceiling must not
        // reopen the deadlock window: a dropped frame still times out
        // in ~frame_timeout, not in 60 s.
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
        state.set_rules(vec![ChaosRule::new(NetFault::Drop).on_recv().window(0, 2)]);
        let started = std::time::Instant::now();
        assert!(c.topics(ROOT).is_err());
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "clamped timeout should fire fast, took {:?}",
            started.elapsed()
        );
        server.shutdown();
    }

    #[test]
    fn delay_fault_still_delivers() {
        let server = serve_one_container();
        let state = Arc::new(ChaosState::new(6));
        let mut c = chaos_client(&server, &state);
        state.set_rules(vec![ChaosRule::new(NetFault::Delay { ms: 5 }).on_recv().window(0, 2)]);
        assert_eq!(c.topics(ROOT).unwrap(), vec!["/imu"]);
        assert_eq!(state.faults_injected(), 1);
        server.shutdown();
    }
}
