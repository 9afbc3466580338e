//! A seeded chaos proxy for the optumd wire protocol.
//!
//! The proxy sits between optumload and optumd and mangles the
//! client→server frame stream according to a [`NetChaosPlan`]: frames
//! can be dropped, delayed, held and reordered, truncated mid-payload
//! (followed by a hard close), or the whole connection torn down
//! abruptly. Every fate is a pure function of
//! `SplitMix64::stream(plan.seed, conn, CH_FATE)` and the frame's
//! position on its connection — the same `(seed, conn, frame)` triple
//! always meets the same fate, the channel-stream idiom the fault
//! plans in `optum-chaos` use.
//!
//! Faults apply only to the client→server direction: that is where the
//! protocol's recovery duties live (dropped submissions become
//! detectable gaps, truncations become reconnects). Server→client
//! bytes pass through verbatim, so a verdict or summary the server
//! actually sent is never forged or lost by the proxy — once the
//! server accepts a `drain`, no further client→server frames exist to
//! mangle and the `drained` summary always reaches the client.
//!
//! What is *not* deterministic: which proxy connection index a given
//! driver slot lands on (OS accept order under concurrent connects)
//! and wall-clock fault timing. The protocol is what turns this honest
//! nondeterminism back into a deterministic session — the disrupt
//! experiment asserts digest equality across arms, not equality of
//! fault schedules.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use optum_types::{Error, Result, SplitMix64};

use crate::proto::{read_frame, tune, write_frame, FrameError};

/// Fate channel for `stream(seed, conn, CH_FATE)`.
const CH_FATE: u64 = 0xFA7E;

/// A seeded wire-fault plan. Probabilities are per client→server
/// frame and drawn in the order listed; the remainder is delivered
/// intact (possibly after `delay`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetChaosPlan {
    /// Seed of the per-connection fate streams.
    pub seed: u64,
    /// Probability a frame silently vanishes (the connection lives).
    pub drop_prob: f64,
    /// Probability a frame is cut mid-payload and the connection is
    /// then torn down — the peer sees a truncated frame then EOF.
    pub truncate_prob: f64,
    /// Probability the connection is torn down before the frame is
    /// forwarded at all (abrupt disconnect).
    pub disconnect_prob: f64,
    /// Probability a frame is held back and delivered *after* the next
    /// frame (one-frame reordering window; a held frame is flushed on
    /// client close so it is never lost outright).
    pub reorder_prob: f64,
    /// Probability a delivered frame is delayed by wall-clock jitter.
    pub delay_prob: f64,
    /// Maximum injected delay, in milliseconds.
    pub delay_max_ms: u64,
}

impl NetChaosPlan {
    /// A fault-free plan: every frame passes through untouched. A
    /// session through this proxy must be byte-identical to a direct
    /// one — the disrupt experiment's control arm.
    pub fn none(seed: u64) -> NetChaosPlan {
        NetChaosPlan {
            seed,
            drop_prob: 0.0,
            truncate_prob: 0.0,
            disconnect_prob: 0.0,
            reorder_prob: 0.0,
            delay_prob: 0.0,
            delay_max_ms: 0,
        }
    }

    /// Lossy-but-connected: drops, reordering, and delays, never a
    /// torn connection (those come from the server's gap detection).
    pub fn drops_and_delays(seed: u64) -> NetChaosPlan {
        NetChaosPlan {
            drop_prob: 0.02,
            reorder_prob: 0.02,
            delay_prob: 0.05,
            delay_max_ms: 2,
            ..NetChaosPlan::none(seed)
        }
    }

    /// Hostile transport: everything in `drops_and_delays` plus
    /// mid-frame truncations and abrupt disconnects.
    pub fn disconnects(seed: u64) -> NetChaosPlan {
        NetChaosPlan {
            truncate_prob: 0.005,
            disconnect_prob: 0.005,
            ..NetChaosPlan::drops_and_delays(seed)
        }
    }

    /// Whether any fault can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.drop_prob == 0.0
            && self.truncate_prob == 0.0
            && self.disconnect_prob == 0.0
            && self.reorder_prob == 0.0
            && self.delay_prob == 0.0
    }

    /// Draws the fate of one frame from the connection's fate stream.
    fn fate(&self, rng: &mut SplitMix64) -> Fate {
        // One uniform draw per frame keeps frame k's fate independent
        // of which probabilities are enabled ahead of it in the list.
        let u = rng.next_f64();
        let mut edge = self.drop_prob;
        if u < edge {
            return Fate::Drop;
        }
        edge += self.truncate_prob;
        if u < edge {
            return Fate::Truncate;
        }
        edge += self.disconnect_prob;
        if u < edge {
            return Fate::Disconnect;
        }
        edge += self.reorder_prob;
        if u < edge {
            return Fate::Hold;
        }
        edge += self.delay_prob;
        if u < edge {
            let ms = rng.next_u64() % (self.delay_max_ms.max(1));
            return Fate::Delay(ms);
        }
        Fate::Deliver
    }
}

/// What happens to one client→server frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Deliver,
    Delay(u64),
    Drop,
    Truncate,
    Disconnect,
    Hold,
}

/// Wall-clock-free observation of what a proxy did (for tests and the
/// disrupt experiment's obs panel).
#[derive(Debug, Default)]
struct ProxyCounters {
    forwarded: AtomicU64,
    dropped: AtomicU64,
    truncated: AtomicU64,
    disconnected: AtomicU64,
    reordered: AtomicU64,
    delayed: AtomicU64,
}

/// Totals of each fault the proxy actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyReport {
    /// Frames delivered intact (including delayed and reordered ones).
    pub forwarded: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Connections cut mid-frame.
    pub truncated: u64,
    /// Connections torn down before a frame.
    pub disconnected: u64,
    /// Frames delivered out of order.
    pub reordered: u64,
    /// Frames delivered late.
    pub delayed: u64,
}

/// A live chaos proxy: accepts client connections and relays each to
/// the upstream optumd through the fault plan.
pub struct ChaosProxy {
    local: SocketAddr,
    done: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    relays: Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: Arc<ProxyCounters>,
}

impl ChaosProxy {
    /// Binds the proxy on an ephemeral local port, relaying to
    /// `upstream` under `plan`.
    pub fn bind(upstream: SocketAddr, plan: NetChaosPlan) -> Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| Error::InvalidConfig(format!("cannot bind chaos proxy: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::InvalidConfig(format!("no proxy address: {e}")))?;
        let done = Arc::new(AtomicBool::new(false));
        let relays: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(ProxyCounters::default());
        let accept = {
            let done = Arc::clone(&done);
            let relays = Arc::clone(&relays);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || accept_loop(listener, upstream, plan, done, relays, counters))
                .expect("spawn chaos-accept")
        };
        Ok(ChaosProxy {
            local,
            done,
            accept: Some(accept),
            relays,
            counters,
        })
    }

    /// The address clients should connect to instead of the server's.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// What the proxy has injected so far.
    pub fn report(&self) -> ProxyReport {
        ProxyReport {
            forwarded: self.counters.forwarded.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            truncated: self.counters.truncated.load(Ordering::Relaxed),
            disconnected: self.counters.disconnected.load(Ordering::Relaxed),
            reordered: self.counters.reordered.load(Ordering::Relaxed),
            delayed: self.counters.delayed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ChaosProxy {
    /// Stops accepting, then joins every relay thread: a finished
    /// session leaves no proxy thread or socket behind.
    fn drop(&mut self) {
        self.done.store(true, Ordering::SeqCst);
        // Bounded wake-up: with a full listen backlog the accept loop
        // already has queued work and will see `done` on its own.
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let relays = std::mem::take(&mut *self.relays.lock().expect("relay registry"));
        for h in relays {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: NetChaosPlan,
    done: Arc<AtomicBool>,
    relays: Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: Arc<ProxyCounters>,
) {
    let mut conn_index = 0u64;
    for client in listener.incoming() {
        if done.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = client else { continue };
        tune(&client);
        // Reap relays whose connections already ended: under a
        // reconnect storm the registry would otherwise accumulate one
        // zombie thread per connection until the proxy drops.
        {
            let mut rs = relays.lock().expect("relay registry");
            let live = std::mem::take(&mut *rs);
            for h in live {
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    rs.push(h);
                }
            }
        }
        let index = conn_index;
        conn_index += 1;
        let counters = Arc::clone(&counters);
        let handle = std::thread::Builder::new()
            .name(format!("chaos-relay-{index}"))
            .spawn(move || relay_conn(client, upstream, plan, index, counters))
            .expect("spawn chaos-relay");
        relays.lock().expect("relay registry").push(handle);
    }
}

/// Relays one client connection: a faulted client→server pump plus a
/// verbatim server→client pump. Ends when either side closes; both
/// sockets are shut down before returning so the peer threads unblock.
fn relay_conn(
    client: TcpStream,
    upstream: SocketAddr,
    plan: NetChaosPlan,
    index: u64,
    counters: Arc<ProxyCounters>,
) {
    // Bounded connect: an upstream mid-teardown can leave its listen
    // backlog full, and a plain blocking connect would park this
    // relay (and its client's fd) indefinitely.
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    // Untuned, a `Delay(ms)` fate costs `ms` plus whatever Nagle adds on
    // either hop: the proxy would be measuring the kernel, not the fault.
    tune(&server);
    let (Ok(client_r), Ok(server_w)) = (client.try_clone(), server.try_clone()) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    let back = std::thread::Builder::new().name("chaos-back".into());
    let back = back.spawn(move || {
        // Server→client: verbatim passthrough, no fault injection.
        let mut from = server;
        let mut to = client;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = to.shutdown(Shutdown::Both);
        let _ = from.shutdown(Shutdown::Both);
    });
    let back = back.expect("spawn chaos-back");
    pump_faulted(client_r, server_w, plan, index, &counters);
    let _ = back.join();
}

/// The faulted client→server pump: reads whole frames, draws each
/// frame's fate from the connection's stream, forwards accordingly.
fn pump_faulted(
    client_r: TcpStream,
    server_w: TcpStream,
    plan: NetChaosPlan,
    index: u64,
    counters: &ProxyCounters,
) {
    let mut rng = SplitMix64::stream(plan.seed, index, CH_FATE);
    let mut r = std::io::BufReader::new(client_r);
    let mut w = std::io::BufWriter::new(server_w);
    // The one-frame reorder window: a held frame is delivered right
    // after the following frame, or flushed on client close.
    let mut held: Option<Vec<u8>> = None;
    loop {
        let payload = match read_frame(&mut r) {
            Ok(p) => p,
            Err(FrameError::CleanClose) | Err(FrameError::Truncated) | Err(FrameError::Io(_)) => {
                break;
            }
            // The proxy itself never judges frame size; an oversized
            // frame was already drained by read_frame, so drop it and
            // let the server's own limit police the re-sent one.
            Err(FrameError::Oversized(_)) => continue,
        };
        let fate = if plan.is_quiet() {
            Fate::Deliver
        } else {
            plan.fate(&mut rng)
        };
        let deliver_held = !matches!(fate, Fate::Hold);
        match fate {
            Fate::Deliver => {
                counters.forwarded.fetch_add(1, Ordering::Relaxed);
                if write_frame(&mut w, &payload).is_err() || w.flush().is_err() {
                    break;
                }
            }
            Fate::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                counters.delayed.fetch_add(1, Ordering::Relaxed);
                counters.forwarded.fetch_add(1, Ordering::Relaxed);
                if write_frame(&mut w, &payload).is_err() || w.flush().is_err() {
                    break;
                }
            }
            Fate::Drop => {
                counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Fate::Truncate => {
                // Forward the length prefix and half the payload, then
                // kill the connection: the server must see a truncated
                // frame, never a desynced stream.
                counters.truncated.fetch_add(1, Ordering::Relaxed);
                let cut = payload.len() / 2;
                let len = payload.len() as u32;
                let _ = w.write_all(&len.to_le_bytes());
                let _ = w.write_all(&payload[..cut]);
                let _ = w.flush();
                // The stream is now mid-frame: nothing (including a
                // held frame) may ever be written after the cut.
                held = None;
                break;
            }
            Fate::Disconnect => {
                counters.disconnected.fetch_add(1, Ordering::Relaxed);
                held = None;
                break;
            }
            Fate::Hold => {
                // Flush any previously held frame first so the window
                // is at most one frame deep, then hold this one.
                if let Some(prev) = held.take() {
                    counters.forwarded.fetch_add(1, Ordering::Relaxed);
                    if write_frame(&mut w, &prev).is_err() || w.flush().is_err() {
                        break;
                    }
                }
                held = Some(payload);
                continue;
            }
        }
        if deliver_held {
            if let Some(prev) = held.take() {
                counters.reordered.fetch_add(1, Ordering::Relaxed);
                counters.forwarded.fetch_add(1, Ordering::Relaxed);
                if write_frame(&mut w, &prev).is_err() || w.flush().is_err() {
                    break;
                }
            }
        }
    }
    // Client went away (or a fate killed the link) with a frame still
    // held: flush it so a reorder is never silently a drop.
    if let Some(prev) = held.take() {
        counters.forwarded.fetch_add(1, Ordering::Relaxed);
        let _ = write_frame(&mut w, &prev);
        let _ = w.flush();
    }
    let _ = w.flush();
    let _ = w.get_ref().shutdown(Shutdown::Both);
    let _ = r.get_ref().shutdown(Shutdown::Both);
}
