//! Wall-clock spans for the traced run.
//!
//! The benchmark owns the wall clock: the sim crates never read one.
//! A span records its name, start, end and parent, and every span is
//! kept in memory until the iteration ends, when [`Trace::finish`]
//! folds them into per-name self times. Self time is a span's duration
//! minus that of its direct children, so the self times of a phase's
//! spans plus the phase's own unattributed time add up to its wall
//! time. With tracing off, [`span`] is a thread-local flag test.
//!
//! Spans inside the program are out of reach (the sim crates may not
//! read the clock), so the layers are cut at the public seams: the
//! benchmark's own calls, and timing wrappers bound over the server and
//! mirror addresses.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use drivolution_core::proto::DrvMsg;
use drivolution_depot::MirrorDepot;
use drivolution_server::DrivolutionServer;
use netsim::{Addr, NetError, Pipe, Service};

/// The span names, in report order. Phases (`phase.*`) are the roots.
pub const SPANS: [&str; 14] = [
    "sched.pump",
    "client.connect",
    "server.install",
    "server.request",
    "server.renew_batch",
    "server.file_request",
    "server.chunk_request",
    "server.activation_report",
    "server.mirror",
    "server.other",
    "codec.decode",
    "codec.encode",
    "mirror.serve",
    "query.stmt",
];

struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    codec_bytes: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Runs `f` inside a span named `name` when tracing is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = REC.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len();
            rec.spans.push(Span {
                name,
                start: Instant::now(),
                end: None,
                parent: rec.open.last().copied(),
            });
            rec.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end = Some(Instant::now());
                rec.open.pop();
            }
        });
    }
    out
}

fn add_codec_bytes(n: usize) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.codec_bytes += n as u64;
        }
    });
}

/// Per-name totals of one traced iteration.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// name → (self seconds, calls), over every phase.
    pub spans: BTreeMap<&'static str, (f64, u64)>,
    /// Request plus response bytes through the server's frame codec.
    pub codec_bytes: u64,
    /// phase → (wall seconds, unattributed seconds).
    pub phases: BTreeMap<&'static str, (f64, f64)>,
}

impl Trace {
    /// Starts recording on this thread.
    pub fn start() {
        REC.with(|r| *r.borrow_mut() = Some(Recorder::default()));
    }

    /// Stops recording and folds the spans. Fails when the spans do not
    /// form a tree whose self times add up to each phase's wall time.
    pub fn finish() -> Result<Trace, String> {
        let rec = REC
            .with(|r| r.borrow_mut().take())
            .ok_or("trace finished without being started")?;
        if !rec.open.is_empty() {
            return Err(format!("{} spans still open", rec.open.len()));
        }
        let n = rec.spans.len();
        let mut dur = vec![0u128; n];
        let mut child_sum = vec![0u128; n];
        for (i, s) in rec.spans.iter().enumerate() {
            let end = s.end.ok_or("span never closed")?;
            dur[i] = end.duration_since(s.start).as_nanos();
            if let Some(p) = s.parent {
                let ps = &rec.spans[p];
                let pend = ps.end.ok_or("parent never closed")?;
                if s.start < ps.start || end > pend {
                    return Err(format!("span {} escapes its parent {}", s.name, ps.name));
                }
            } else if !s.name.starts_with("phase.") {
                return Err(format!("span {} outside every phase", s.name));
            }
        }
        for (i, s) in rec.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_sum[p] += dur[i];
            }
        }
        let mut t = Trace {
            codec_bytes: rec.codec_bytes,
            ..Trace::default()
        };
        // Each phase's wall time must equal the self times of every span
        // under it plus the phase's unattributed remainder.
        let mut phase_self: BTreeMap<usize, u128> = BTreeMap::new();
        for (i, s) in rec.spans.iter().enumerate() {
            let self_ns = dur[i]
                .checked_sub(child_sum[i])
                .ok_or_else(|| format!("children of {} outlast it", s.name))?;
            let mut root = i;
            while let Some(p) = rec.spans[root].parent {
                root = p;
            }
            *phase_self.entry(root).or_default() += self_ns;
            if s.parent.is_none() {
                let e = t.phases.entry(s.name).or_default();
                e.0 += secs(dur[i]);
                e.1 += secs(self_ns);
            } else {
                let e = t.spans.entry(s.name).or_default();
                e.0 += secs(self_ns);
                e.1 += 1;
            }
        }
        for (root, total) in phase_self {
            if total != dur[root] {
                return Err(format!(
                    "phase {}: self times add to {total} ns of {} ns",
                    rec.spans[root].name, dur[root]
                ));
            }
        }
        if let Some(name) = t.spans.keys().find(|k| !SPANS.contains(k)) {
            return Err(format!("unlisted span {name}"));
        }
        Ok(t)
    }

    /// Unattributed seconds summed over phases.
    pub fn unattributed(&self) -> f64 {
        self.phases.values().map(|p| p.1).sum()
    }
}

fn secs(ns: u128) -> f64 {
    ns as f64 / 1e9
}

/// The span a server frame's handling is charged to.
fn frame_span(msg: &DrvMsg) -> &'static str {
    match msg {
        DrvMsg::Request(_) | DrvMsg::Discover(_) => "server.request",
        DrvMsg::RenewBatch { .. } => "server.renew_batch",
        DrvMsg::FileRequest { .. } => "server.file_request",
        DrvMsg::ChunkRequest { .. } => "server.chunk_request",
        DrvMsg::ActivationReport { .. } => "server.activation_report",
        DrvMsg::MirrorAnnounce { .. }
        | DrvMsg::MirrorHeartbeat { .. }
        | DrvMsg::MirrorComplaint { .. } => "server.mirror",
        _ => "server.other",
    }
}

/// The Drivolution server's network face, timed: decode, handle by
/// frame tag, encode — exactly what `DrivolutionServer`'s own
/// `Service::call` does.
struct TimedServer(Arc<DrivolutionServer>);

impl Service for TimedServer {
    fn call(&self, from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        let len = request.len();
        let msg = span("codec.decode", || DrvMsg::decode(request))
            .map_err(|e| NetError::Protocol(e.to_string()))?;
        let reply = span(frame_span(&msg), || self.0.handle(from, msg));
        let out = span("codec.encode", || reply.encode());
        add_codec_bytes(len + out.len());
        Ok(out)
    }

    fn accept_pipe(&self, from: &Addr, pipe: Pipe) -> Result<(), NetError> {
        self.0.accept_pipe(from, pipe)
    }
}

/// A mirror's network face, timed. Its read-through fetches reach the
/// (timed) server, so their cost lands in server spans nested under
/// `mirror.serve`, not in its self time.
struct TimedMirror(Arc<MirrorDepot>);

impl Service for TimedMirror {
    fn call(&self, from: &Addr, request: Bytes) -> Result<Bytes, NetError> {
        span("mirror.serve", || self.0.call(from, request))
    }
}

/// Rebinds the server and mirror addresses to their timed wrappers.
pub fn wrap_services(
    net: &netsim::Network,
    server_addr: &Addr,
    server: &Arc<DrivolutionServer>,
    mirrors: &[Arc<MirrorDepot>],
) -> Result<(), String> {
    let rebind = |addr: &Addr, svc: Arc<dyn Service>| {
        if !net.unbind(addr) {
            return Err(format!("nothing bound at {addr}"));
        }
        net.bind_arc(addr.clone(), svc).map_err(|e| e.to_string())
    };
    rebind(server_addr, Arc::new(TimedServer(server.clone())))?;
    for m in mirrors {
        rebind(m.addr(), Arc::new(TimedMirror(m.clone())))?;
    }
    Ok(())
}
