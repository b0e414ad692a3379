//! `svc_mixed`: an open loop of seeded Poisson arrivals against a `sketchd`
//! process over two connections, then a stepped rate ramp.
//!
//! Each connection is driven by one thread that sends every request at its
//! due time whether or not earlier replies have arrived, and reads replies
//! in between. Latency is measured from the request's due time, so a stall
//! is charged to every request scheduled behind it, and the generator's own
//! lateness is reported. Replies are checked after the timed phase:
//! checksums against a local `sketch_alg3`, solutions against the
//! backward-error bound.

use crate::inputs::{self, mix};
use crate::probes::{self, check_solution};
use crate::report::{Metrics, Tally};
use crate::sketch_suite::uniform;
use crate::stats::{self, Samples};
use crate::trace;
use crate::{Ctx, Run};
use rngkit::{BlockRng, FastRng};
use sketchcore::{sketch_alg3, SketchConfig};
use sketchd::proto::{
    self, sketch_flags, FrameReadError, FrameReader, LoadMatrixReq, LoadMatrixResp, MatrixSource,
    SketchReq, SketchResult, SolveSapReq, SolveSapResp,
};
use sketchd::{Client, Frame, Op, Status};
use sparsekit::CscMatrix;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const HOT: &str = "hot";
const SAP: &str = "sap";
const COLD: [&str; 3] = ["cold0", "cold1", "cold2"];
/// Request mix, by index within a connection's stream: one `SolveSap` in
/// every 25 requests, one `LoadMatrix` (connection 0 only) in every 400.
const SOLVE_EVERY: u64 = 25;
const LOAD_EVERY: u64 = 400;
/// Connection 1 closes and redials after this many requests.
const RECONNECT_EVERY: u64 = 2000;
/// Offered rate of the fixed-rate phase, requests/s over both connections.
pub const FIXED_RPS: f64 = 1000.0;
/// The fixed-rate phase runs as this many consecutive windows; each
/// latency figure is the median over windows of the window's percentile,
/// so one burst of host noise moves one window, not the result.
const WINDOWS: usize = 5;
/// Extra set-ups (server start, load, shutdown) after each window.
const SETUPS_PER_WINDOW: usize = 2;
/// Latency limit on the sketch p99 for a ramp step to pass.
pub const LIMIT_MS: f64 = 10.0;
/// Share of sketches allowed to miss the limit (the p99 criterion).
const MISS_OK: f64 = 0.01;
/// Ramp: first step, growth per step until a step fails, then bisection
/// steps between the last pass and the first failure.
const RAMP_START_RPS: f64 = 2000.0;
const RAMP_GROWTH: f64 = 1.25;
const RAMP_BISECT: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Reply polling period while requests are in flight.
const POLL: Duration = Duration::from_micros(20);

// --- server process ------------------------------------------------------

/// A `sketchd` server running in a child process: this executable's
/// `serve` mode, which starts `sketchd::Server` exactly as the `sketchd`
/// binary does and serves until a client sends `Shutdown`.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn spawn(registry_budget: u64) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", "--registry-budget", &registry_budget.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let line = {
            let out = child.stdout.as_mut().ok_or("server stdout")?;
            let mut line = String::new();
            BufReader::new(out)
                .read_line(&mut line)
                .map_err(|e| format!("server banner: {e}"))?;
            line
        };
        let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
        let mut sp = ServerProc {
            child: Some(child),
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match addr {
            Some(a) => {
                sp.addr = a;
                Ok(sp)
            }
            None => Err(format!("unexpected server banner {line:?}")),
        }
    }

    pub fn pid(&self) -> String {
        self.child
            .as_ref()
            .map_or_else(|| "0".into(), |c| c.id().to_string())
    }

    /// Send `Shutdown` and wait for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let res = Client::connect(self.addr, IO_TIMEOUT)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"));
        if let Some(mut child) = self.child.take() {
            if res.is_err() {
                let _ = child.kill();
            }
            child.wait().map_err(|e| format!("wait: {e}"))?;
        }
        res
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Serve mode: what the `sketchd` binary's `main` does.
pub fn serve(args: &[String]) -> i32 {
    let mut cfg = sketchd::ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next().and_then(|v| v.parse::<u64>().ok())) {
            ("--registry-budget", Some(v)) => cfg.registry_budget = v,
            _ => {
                eprintln!("serve: bad arguments {args:?}");
                return 2;
            }
        }
    }
    obskit::set_enabled(true);
    let server = match sketchd::Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            return 1;
        }
    };
    println!("sketchd listening on {}", server.addr());
    let _ = std::io::stdout().flush();
    server.join();
    0
}

fn csc_parts(a: &CscMatrix<f64>) -> (u64, u64, Vec<u64>, Vec<u64>, Vec<f64>) {
    (
        a.nrows() as u64,
        a.ncols() as u64,
        a.col_ptr().iter().map(|&v| v as u64).collect(),
        a.row_idx().iter().map(|&v| v as u64).collect(),
        a.values().to_vec(),
    )
}

fn load(c: &mut Client, name: &str, a: &CscMatrix<f64>) -> Result<LoadMatrixResp, String> {
    let (m, n, cp, ri, v) = csc_parts(a);
    c.load_inline(name, m, n, cp, ri, v)
        .map_err(|e| format!("load {name}: {e}"))
}

// --- open-loop engine ------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Sketch,
    Solve,
    Load,
}

/// One scheduled request, encoded before the phase starts.
struct Planned {
    due_ns: u64,
    kind: Kind,
    id: u64,
    /// Sketch seed, right-hand-side index or cold-matrix index.
    arg: u64,
    bytes: Vec<u8>,
}

struct InFlight {
    kind: Kind,
    arg: u64,
    due: Instant,
    sent: Instant,
}

/// A finished request.
struct Done {
    /// Wire id, carried into the spans of the reply's checks.
    id: u64,
    kind: Kind,
    arg: u64,
    /// From due time to reply, ms.
    lat_ms: f64,
    /// From send to reply, ms.
    rtt_ms: f64,
    outcome: Reply,
}

enum Reply {
    Sketch {
        batch: u32,
        fro: f64,
        xor: u64,
        d: u64,
        n: u64,
    },
    Solve {
        x: Vec<f64>,
    },
    Load {
        nnz: u64,
    },
    Refused(Status),
    Failed(String),
}

/// Everything a phase produced on one connection.
#[derive(Default)]
struct ConnResult {
    done: Vec<Done>,
    late_ms: Vec<f64>,
    /// Requests outstanding when the last one was sent.
    backlog_at_end: usize,
    reply_frames: Vec<Vec<u8>>,
}

fn exp_gap_ns(rng: &mut FastRng, rate: f64) -> u64 {
    let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    ((-u.ln() / rate) * 1e9) as u64
}

/// The whole request schedule for one connection.
struct Plan<'a> {
    seed: u64,
    conn: u64,
    rate: f64,
    seconds: f64,
    rhs: &'a [Vec<f64>],
    cold: &'a [CscMatrix<f64>],
    /// Offsets keep ids and seeds distinct across phases.
    first_index: u64,
}

fn plan(p: &Plan) -> Vec<Planned> {
    let mut rng = FastRng::new(mix(p.seed, 0xA000 + p.conn * 7919 + p.first_index));
    let mut out = Vec::new();
    let mut due = 0u64;
    let horizon = (p.seconds * 1e9) as u64;
    let mut i = p.first_index;
    loop {
        due += exp_gap_ns(&mut rng, p.rate);
        if due > horizon {
            break;
        }
        let id = (p.conn << 48) | (i + 1);
        let (kind, arg, op, payload) = if p.conn == 0 && i % LOAD_EVERY == LOAD_EVERY / 2 {
            let k = (i / LOAD_EVERY) % p.cold.len() as u64;
            let (nrows, ncols, col_ptr, row_idx, values) = csc_parts(&p.cold[k as usize]);
            let req = LoadMatrixReq {
                name: COLD[k as usize].to_string(),
                source: MatrixSource::Inline {
                    nrows,
                    ncols,
                    col_ptr,
                    row_idx,
                    values,
                },
            };
            (Kind::Load, k, Op::LoadMatrix, req.encode())
        } else if i % SOLVE_EVERY == SOLVE_EVERY / 4 {
            let k = (i / SOLVE_EVERY) % p.rhs.len() as u64;
            let req = SolveSapReq {
                name: SAP.into(),
                gamma: 2,
                seed: mix(p.seed, 0x5A9 + i),
                rhs: p.rhs[k as usize].clone(),
            };
            (Kind::Solve, k, Op::SolveSap, req.encode())
        } else {
            let seed = mix(p.seed, (p.conn << 40) ^ i);
            let req = SketchReq {
                name: HOT.into(),
                d: inputs::SVC_D as u64,
                b_d: inputs::SVC_BD as u64,
                b_n: inputs::SVC_BN as u64,
                seed,
                flags: sketch_flags::CHECKSUM_ONLY,
            };
            (Kind::Sketch, seed, Op::Sketch, req.encode())
        };
        out.push(Planned {
            due_ns: due,
            kind,
            id,
            arg,
            bytes: Frame::request(op, id, 0, payload).encode(),
        });
        i += 1;
    }
    out
}

fn decode_reply(kind: Kind, f: &Frame) -> Reply {
    if f.status != Status::Ok {
        return match f.status {
            Status::Overloaded | Status::DeadlineExceeded | Status::ShuttingDown => {
                Reply::Refused(f.status)
            }
            s => Reply::Failed(format!(
                "{}: {}",
                s.name(),
                String::from_utf8_lossy(&f.payload)
            )),
        };
    }
    match kind {
        Kind::Sketch => match SketchResult::decode(&f.payload) {
            Ok(SketchResult::Checksum {
                d,
                n,
                batch,
                fro,
                xor,
            }) => Reply::Sketch {
                batch,
                fro,
                xor,
                d,
                n,
            },
            Ok(_) => Reply::Failed("full sketch body where a checksum was asked for".into()),
            Err(e) => Reply::Failed(format!("sketch reply: {e}")),
        },
        Kind::Solve => match SolveSapResp::decode(&f.payload) {
            Ok(r) => Reply::Solve { x: r.x },
            Err(e) => Reply::Failed(format!("solve reply: {e}")),
        },
        Kind::Load => match LoadMatrixResp::decode(&f.payload) {
            Ok(r) => Reply::Load { nnz: r.nnz },
            Err(e) => Reply::Failed(format!("load reply: {e}")),
        },
    }
}

fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    s.set_nodelay(true)?;
    s.set_nonblocking(true)?;
    Ok(s)
}

fn failed(p: &Planned, why: &str) -> Done {
    Done {
        id: p.id,
        kind: p.kind,
        arg: p.arg,
        lat_ms: 0.0,
        rtt_ms: 0.0,
        outcome: Reply::Failed(why.to_string()),
    }
}

/// One connection's side of a phase.
struct Conn<'a> {
    addr: SocketAddr,
    sched: &'a [Planned],
    /// Redial after this many requests on one stream (`u64::MAX`: never).
    reconnect_every: u64,
    next: usize,
    stream: Option<TcpStream>,
    reader: FrameReader,
    inflight: HashMap<u64, InFlight>,
    sent_on_stream: u64,
    res: ConnResult,
}

impl Conn<'_> {
    fn due(&self, start: Instant) -> Option<Instant> {
        self.sched
            .get(self.next)
            .map(|p| start + Duration::from_nanos(p.due_ns))
    }

    fn done(&self) -> bool {
        self.next == self.sched.len() && self.inflight.is_empty()
    }

    /// Fail everything in flight and everything not yet sent.
    fn fail(&mut self, why: &str) {
        let now = Instant::now();
        for (id, f) in self.inflight.drain() {
            self.res.done.push(Done {
                id,
                kind: f.kind,
                arg: f.arg,
                lat_ms: (now - f.due).as_secs_f64() * 1e3,
                rtt_ms: (now - f.sent).as_secs_f64() * 1e3,
                outcome: Reply::Failed(why.to_string()),
            });
        }
        let rest = &self.sched[self.next..];
        self.res.done.extend(rest.iter().map(|p| failed(p, why)));
        self.next = self.sched.len();
        self.stream = None;
    }

    /// Write every request that is due; returns whether any was written.
    fn send_due(&mut self, start: Instant, now: Instant) -> bool {
        let mut sent_any = false;
        // A redial waits until the old stream's replies are in; requests
        // falling due meanwhile go out late.
        if self.sent_on_stream >= self.reconnect_every {
            if !self.inflight.is_empty() || self.next == self.sched.len() {
                return false;
            }
            match dial(self.addr) {
                Ok(s) => {
                    self.stream = Some(s);
                    self.reader = FrameReader::new();
                    self.sent_on_stream = 0;
                }
                Err(e) => {
                    self.fail(&format!("redial: {e}"));
                    return false;
                }
            }
        }
        while let Some(due) = self.due(start).filter(|&d| d <= now) {
            let Some(stream) = self.stream.as_mut() else {
                return sent_any;
            };
            let p = &self.sched[self.next];
            let t = Instant::now();
            self.res.late_ms.push((t - due).as_secs_f64() * 1e3);
            let wrote = {
                let _s = trace::span_req("sketchd.write", p.id);
                write_all_nb(stream, &p.bytes)
            };
            self.inflight.insert(
                p.id,
                InFlight {
                    kind: p.kind,
                    arg: p.arg,
                    due,
                    sent: t,
                },
            );
            self.next += 1;
            self.sent_on_stream += 1;
            sent_any = true;
            if self.next == self.sched.len() {
                self.res.backlog_at_end = self.inflight.len();
            }
            if let Err(e) = wrote {
                self.fail(&format!("write: {e}"));
                return true;
            }
            if self.sent_on_stream >= self.reconnect_every {
                break;
            }
        }
        sent_any
    }

    /// Take every reply that has arrived; returns whether any did.
    fn read_ready(&mut self) -> bool {
        let mut got_any = false;
        loop {
            let Some(stream) = self.stream.as_mut() else {
                return got_any;
            };
            let frame = match self.reader.next_frame(stream) {
                Ok(f) => f,
                Err(FrameReadError::TimedOut) => return got_any,
                Err(e) => {
                    self.fail(&format!("read: {e}"));
                    return true;
                }
            };
            let got = Instant::now();
            got_any = true;
            let Some(f) = self.inflight.remove(&frame.req_id) else {
                self.fail(&format!("reply for unknown request id {}", frame.req_id));
                return true;
            };
            if self.res.reply_frames.len() < 256 && self.res.done.len().is_multiple_of(16) {
                self.res.reply_frames.push(frame.encode());
            }
            let outcome = decode_reply(f.kind, &frame);
            if trace::enabled() {
                let dec_end = Instant::now();
                let rid = trace::record("sketchd.request", f.sent, dec_end, 0, frame.req_id);
                trace::record("sketchd.proto.decode", got, dec_end, rid, frame.req_id);
                trace::record("gen.late", f.due, f.sent, 0, frame.req_id);
            }
            self.res.done.push(Done {
                id: frame.req_id,
                kind: f.kind,
                arg: f.arg,
                lat_ms: (got - f.due).as_secs_f64() * 1e3,
                rtt_ms: (got - f.sent).as_secs_f64() * 1e3,
                outcome,
            });
        }
    }
}

/// Drive every connection's schedule from this one thread: each request is
/// written at its due time whether or not earlier replies have come back,
/// and replies are read as they arrive in between. Sockets are
/// non-blocking; the thread sleeps until the next due time when nothing is
/// in flight and polls every [`POLL`] while replies are awaited (socket
/// read timeouts round to scheduler ticks and would make the generator
/// late). One thread leaves the other core to the server.
fn drive(addr: SocketAddr, plans: &[Vec<Planned>], start: Instant) -> Vec<ConnResult> {
    let mut conns: Vec<Conn> = plans
        .iter()
        .enumerate()
        .map(|(c, sched)| Conn {
            addr,
            sched,
            reconnect_every: if c == 1 { RECONNECT_EVERY } else { u64::MAX },
            next: 0,
            stream: None,
            reader: FrameReader::new(),
            inflight: HashMap::new(),
            sent_on_stream: 0,
            res: ConnResult::default(),
        })
        .collect();
    for c in &mut conns {
        match dial(addr) {
            Ok(s) => c.stream = Some(s),
            Err(e) => c.fail(&format!("connect: {e}")),
        }
    }
    let last_due = plans
        .iter()
        .filter_map(|p| p.last())
        .map(|p| p.due_ns)
        .max();
    let hard_stop = start + Duration::from_nanos(last_due.unwrap_or(0)) + Duration::from_secs(20);
    while !conns.iter().all(Conn::done) {
        let now = Instant::now();
        if now > hard_stop {
            for c in &mut conns {
                c.fail("timed out waiting for reply");
            }
            break;
        }
        let mut busy = false;
        for c in &mut conns {
            busy |= c.send_due(start, now);
            busy |= c.read_ready();
        }
        if busy {
            continue;
        }
        let next_due = conns.iter().filter_map(|c| c.due(start)).min();
        let until_due = next_due.map_or(POLL, |d| d.saturating_duration_since(now));
        let waiting = conns.iter().any(|c| !c.inflight.is_empty());
        std::thread::sleep(if waiting {
            until_due.min(POLL)
        } else {
            until_due
        });
    }
    trace::flush_thread();
    conns.into_iter().map(|c| c.res).collect()
}

/// `write_all` on a non-blocking socket: wait out a full send buffer.
fn write_all_nb(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Inputs shared by every phase.
struct Workload {
    seed: u64,
    hot: CscMatrix<f64>,
    sap: CscMatrix<f64>,
    cold: Vec<CscMatrix<f64>>,
    rhs: Vec<Vec<f64>>,
}

impl Workload {
    fn new(seed: u64) -> Workload {
        let sap = inputs::svc_sap(seed);
        let rhs = (0..16).map(|i| inputs::rhs(&sap, seed, i)).collect();
        Workload {
            seed,
            hot: inputs::svc_hot(seed),
            cold: (0..COLD.len() as u64)
                .map(|k| inputs::svc_cold(seed, k))
                .collect(),
            sap,
            rhs,
        }
    }

    /// Registry budget: room for the hot and SAP matrices plus two cold
    /// ones, so every cold upload after the second evicts one.
    fn budget(&self) -> u64 {
        let cold = self
            .cold
            .iter()
            .map(|c| c.memory_bytes())
            .max()
            .unwrap_or(0);
        (self.hot.memory_bytes() + self.sap.memory_bytes() + 2 * cold + cold / 2) as u64
    }
}

/// One open-loop phase over two connections at `rate` requests/s.
fn phase(
    addr: SocketAddr,
    w: &Workload,
    rate: f64,
    seconds: f64,
    first_index: u64,
) -> Vec<ConnResult> {
    let plans: Vec<Vec<Planned>> = (0..2)
        .map(|conn| {
            plan(&Plan {
                seed: w.seed,
                conn,
                rate: rate / 2.0,
                seconds,
                rhs: &w.rhs,
                cold: &w.cold,
                first_index,
            })
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(2);
    drive(addr, &plans, start)
}

/// Check every reply; refusals count as failures only if `refusals_fail`.
fn verify(w: &Workload, results: &[ConnResult], refusals_fail: bool, tally: &mut Tally) {
    let cfg = SketchConfig::new(inputs::SVC_D, inputs::SVC_BD, inputs::SVC_BN, 0);
    for d in results.iter().flat_map(|r| &r.done) {
        let outcome = match &d.outcome {
            Reply::Sketch {
                fro, xor, d: dd, n, ..
            } => check_checksum(&w.hot, &cfg, (d.arg, d.id), (*dd, *n, *fro, *xor)),
            Reply::Solve { x } => {
                let _s = trace::span_req("lstsq.backward_error", d.id);
                check_solution(&w.sap, x, &w.rhs[d.arg as usize])
            }
            Reply::Load { nnz } => {
                if *nnz == w.cold[d.arg as usize].nnz() as u64 {
                    Ok(())
                } else {
                    Err(format!("load reported {nnz} nonzeros"))
                }
            }
            Reply::Refused(_) if !refusals_fail => continue,
            Reply::Refused(s) => Err(format!("refused: {}", s.name())),
            Reply::Failed(why) => Err(why.clone()),
        };
        tally.record(outcome);
    }
}

/// A `Checksum` reply must match a local `sketch_alg3` of the same matrix
/// and seed bit for bit (Frobenius norm and XOR of the value bits).
pub fn check_checksum(
    a: &CscMatrix<f64>,
    cfg: &SketchConfig,
    (seed, req): (u64, u64),
    (d, n, fro, xor): (u64, u64, f64, u64),
) -> Result<(), String> {
    let cfg = SketchConfig { seed, ..*cfg };
    let local = {
        let _s = trace::span_req("sketchcore.sketch_alg3", req);
        sketch_alg3(a, &cfg, &uniform(seed))
    };
    let want_xor = local
        .as_slice()
        .iter()
        .fold(0u64, |acc, v| acc ^ v.to_bits());
    let want_fro = local.fro_norm();
    if d != cfg.d as u64 || n != a.ncols() as u64 {
        Err(format!("checksum reply shape {d}x{n}"))
    } else if fro.to_bits() != want_fro.to_bits() || xor != want_xor {
        Err(format!(
            "checksum mismatch for seed {seed:#x}: fro {fro} vs {want_fro}, xor {xor:#x} vs {want_xor:#x}"
        ))
    } else {
        Ok(())
    }
}

fn latencies(results: &[ConnResult], kind: Kind, rtt: bool) -> Samples {
    let mut s = Samples::new();
    for d in results.iter().flat_map(|r| &r.done) {
        if d.kind == kind
            && matches!(
                d.outcome,
                Reply::Sketch { .. } | Reply::Solve { .. } | Reply::Load { .. }
            )
        {
            s.push(if rtt { d.rtt_ms } else { d.lat_ms });
        }
    }
    s
}

/// Percentile `q` of one request kind's latency (from due time) in each
/// window, and the median of those: `(median, samples over all windows)`.
fn windowed(windows: &[Vec<ConnResult>], kind: Kind, q: f64) -> (f64, usize) {
    let mut per = Samples::new();
    let mut n = 0;
    for w in windows {
        let l = latencies(w, kind, false);
        n += l.len();
        if l.len() > 0 {
            per.push(l.pct(q));
        }
    }
    (per.pct(0.5), n)
}

/// Did a ramp step meet the latency limit without a growing backlog?
/// Returns `(passed, share of sketches that missed the limit)`; a refused
/// or failed request misses it.
fn step_ok(results: &[ConnResult], rate: f64) -> (bool, f64) {
    let (mut n, mut missed) = (0usize, 0usize);
    for d in results
        .iter()
        .flat_map(|r| &r.done)
        .filter(|d| d.kind == Kind::Sketch)
    {
        n += 1;
        let served = matches!(d.outcome, Reply::Sketch { .. });
        if !served || d.lat_ms > LIMIT_MS {
            missed += 1;
        }
    }
    let miss = missed as f64 / n.max(1) as f64;
    let backlog: usize = results.iter().map(|r| r.backlog_at_end).sum();
    // Little's law: at the limit, about rate × limit requests are in flight.
    let backlog_ok = backlog as f64 <= (rate * LIMIT_MS / 1e3).max(4.0);
    (miss <= MISS_OK && backlog_ok, miss)
}

/// Highest rate meeting the limit: the highest passing step, moved towards
/// the lowest failing step above it by where the allowed miss share falls
/// between their miss shares (log-log interpolation).
pub fn max_rps(steps: &[(f64, bool, f64)]) -> f64 {
    let pass = steps
        .iter()
        .filter(|s| s.1)
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .copied();
    let fail = steps
        .iter()
        .filter(|s| !s.1 && pass.is_none_or(|p| s.0 > p.0))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .copied();
    let floor = 1e-4;
    match (pass, fail) {
        (Some((r0, _, m0)), Some((r1, _, m1))) => {
            let m0 = m0.max(floor);
            let m1 = m1.max(MISS_OK * 1.01).max(m0 * 1.01);
            let frac = ((MISS_OK / m0).ln() / (m1 / m0).ln()).clamp(0.0, 1.0);
            r0 * (r1 / r0).powf(frac)
        }
        (Some((r0, _, _)), None) => r0,
        // Not even the first step met the limit.
        (None, Some((r1, _, m1))) => r1 * (MISS_OK / m1.max(MISS_OK)),
        (None, None) => 0.0,
    }
}

fn json_num(s: &str, keys: &[&str]) -> Option<f64> {
    let mut rest = s;
    for k in keys {
        let pat = format!("\"{k}\":");
        let at = rest.find(&pat)?;
        rest = &rest[at + pat.len()..];
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Server-side figures from the `Stats` op.
fn stats_layers(m: &mut Metrics, stats: &str) {
    let ns_to_ms = 1e-6;
    let get = |keys: &[&str]| json_num(stats, keys).unwrap_or(0.0);
    m.set(
        "sketchd.queue_wait_ms.p50",
        get(&["svc/queue_wait", "p50"]) * ns_to_ms,
        get(&["svc/queue_wait", "count"]) as usize,
    );
    m.set(
        "sketchd.queue_wait_ms.p99",
        get(&["svc/queue_wait", "p99"]) * ns_to_ms,
        get(&["svc/queue_wait", "count"]) as usize,
    );
    m.set(
        "sketchd.rejected_overload",
        get(&["svc.rejected_overload"]),
        1,
    );
    m.set("sketchd.deadline_missed", get(&["svc.deadline_missed"]), 1);
    m.set("sketchd.registry_bytes", get(&["registry_bytes"]), 1);
}

/// Client-side per-layer figures from a set of phases.
fn client_layers(m: &mut Metrics, results: &[ConnResult]) {
    let rs = latencies(results, Kind::Sketch, true);
    m.set("sketchd.rtt_sketch_ms.p50", rs.pct(0.5), rs.len());
    m.set("sketchd.rtt_sketch_ms.p99", rs.pct(0.99), rs.len());
    let rv = latencies(results, Kind::Solve, true);
    m.set("sketchd.rtt_solve_ms.p50", rv.pct(0.5), rv.len());
    let rl = latencies(results, Kind::Load, true);
    m.set("sketchd.rtt_load_ms.p50", rl.pct(0.5), rl.len());
    let mut batch = Samples::new();
    for d in results.iter().flat_map(|r| &r.done) {
        if let Reply::Sketch { batch: b, .. } = d.outcome {
            batch.push(b as f64);
        }
    }
    let batched = batch.values().iter().filter(|&&b| b >= 2.0).count();
    m.set("sketchd.batch_size.p50", batch.pct(0.5), batch.len());
    m.set("sketchd.batch_size.p99", batch.pct(0.99), batch.len());
    m.set(
        "sketchd.batched_ratio",
        batched as f64 / batch.len().max(1) as f64,
        batch.len(),
    );
    // Codec cost on this workload's own frames.
    let frames: Vec<&Vec<u8>> = results.iter().flat_map(|r| &r.reply_frames).collect();
    if !frames.is_empty() {
        let reps = (20_000 / frames.len()).max(1);
        let t = Instant::now();
        for _ in 0..reps {
            for f in &frames {
                std::hint::black_box(proto::decode(f).ok());
            }
        }
        let dec = t.elapsed().as_nanos() as f64 / (reps * frames.len()) as f64;
        let decoded: Vec<Frame> = frames
            .iter()
            .filter_map(|f| proto::decode(f).ok().map(|x| x.0))
            .collect();
        let t = Instant::now();
        for _ in 0..reps {
            for f in &decoded {
                std::hint::black_box(f.encode());
            }
        }
        let enc = t.elapsed().as_nanos() as f64 / (reps * decoded.len().max(1)) as f64;
        m.set("sketchd.proto.decode_ns", dec, reps * frames.len());
        m.set("sketchd.proto.encode_ns", enc, reps * decoded.len());
    }
}

/// Spawn a server and install the resident matrices: the service's
/// set-up, timed as one unit.
fn start_server(w: &Workload) -> Result<(ServerProc, f64), String> {
    let t = Instant::now();
    let server = {
        let _s = trace::span("sketchd.spawn");
        ServerProc::spawn(w.budget())?
    };
    let mut c = Client::connect(server.addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    {
        let _s = trace::span("sketchd.load_inline");
        load(&mut c, HOT, &w.hot)?;
        load(&mut c, SAP, &w.sap)?;
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx) -> Run {
    let w = Workload::new(ctx.seed);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut setup = Samples::new();

    // Set-up: start a server and load the resident matrices. This server
    // carries the run; more set-ups (start, load, shut down) run between
    // the fixed-rate windows, so the median samples the whole run.
    let server = match start_server(&w) {
        Ok((s, secs)) => {
            setup.push(secs);
            s
        }
        Err(e) => {
            tally.record(Err(e));
            metrics.set("setup_s", 0.0, 0);
            return Run::failed(metrics, tally);
        }
    };
    let extra_setup = |setup: &mut Samples, tally: &mut Tally| match start_server(&w) {
        Ok((s, secs)) => {
            setup.push(secs);
            if let Err(e) = s.stop() {
                tally.record(Err(e));
            }
        }
        Err(e) => tally.record(Err(e)),
    };
    let addr = server.addr;

    // Warm-up at the fixed rate (checked, not timed), then the fixed-rate
    // windows. In a traced run the odd windows are traced.
    let tiny = ctx.size == inputs::Size::Tiny;
    let warm = phase(addr, &w, FIXED_RPS, if tiny { 0.1 } else { 0.5 }, 9_000_000);
    let fixed_s = ctx.seconds * if tiny { 0.5 } else { 0.55 };
    let n_win = if tiny { 2 } else { WINDOWS };
    let mut windows: Vec<Vec<ConnResult>> = Vec::new();
    // Server CPU time over the fixed-rate windows, per request they carried.
    let (mut cpu_s, mut ops) = (0.0, 0usize);
    for k in 0..n_win {
        trace::set_enabled(ctx.trace && k % 2 == 1);
        let cpu0 = crate::host::proc_cpu_s(&server.pid());
        let win = phase(
            addr,
            &w,
            FIXED_RPS,
            fixed_s / n_win as f64,
            k as u64 * 1_000_000,
        );
        cpu_s += crate::host::proc_cpu_s(&server.pid()) - cpu0;
        ops += win.iter().map(|r| r.done.len()).sum::<usize>();
        windows.push(win);
        trace::set_enabled(ctx.trace);
        for _ in 0..SETUPS_PER_WINDOW {
            extra_setup(&mut setup, &mut tally);
        }
    }
    trace::set_enabled(false);
    let traced_p50 = {
        let p50 = |traced: bool| {
            let mut s = Samples::new();
            for (_, win) in windows
                .iter()
                .enumerate()
                .filter(|(k, _)| (k % 2 == 1) == traced)
            {
                s.push(latencies(win, Kind::Sketch, false).pct(0.5));
            }
            s.pct(0.5)
        };
        p50(true) / p50(false).max(1e-9)
    };

    // The server's peak memory after the fixed-rate phase, whose request
    // count does not depend on how far the ramp gets.
    let peak_rss = crate::host::peak_rss_mb(&server.pid());

    // Stepped ramp: each step is its own open-loop phase. The rate grows
    // until a step misses the limit (or, if the first step misses, shrinks
    // until one passes), then bisection steps narrow the bracket. A step that misses is run once more before it counts, so one
    // stall of the host does not end the ramp.
    let ramp_budget = ctx.seconds - fixed_s;
    let step_s = if ctx.size == inputs::Size::Tiny {
        0.3
    } else {
        0.8
    };
    let mut steps: Vec<(f64, bool, f64)> = Vec::new();
    let mut ramp_results = Vec::new();
    let ramp_start = Instant::now();
    let mut rate = RAMP_START_RPS;
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    let (mut retried, mut bisected) = (false, 0);
    while steps.is_empty() || ramp_start.elapsed().as_secs_f64() + step_s <= ramp_budget {
        let res = phase(
            addr,
            &w,
            rate,
            step_s,
            10_000_000 + ramp_results.len() as u64 * 100_000,
        );
        let (ok, miss) = step_ok(&res, rate);
        ramp_results.push(res);
        // Let the queue drain between steps.
        std::thread::sleep(Duration::from_millis(50));
        if !ok && !retried {
            retried = true;
            continue;
        }
        retried = false;
        steps.push((rate, ok, miss));
        if ok {
            lo = Some(rate);
        } else {
            hi = Some(rate);
        }
        rate = match (lo, hi) {
            (_, None) => rate * RAMP_GROWTH,
            // Even the first step missed: step down until one passes.
            (None, Some(_)) if rate > RAMP_START_RPS / 8.0 => rate / RAMP_GROWTH,
            (Some(l), Some(h)) if bisected < RAMP_BISECT => {
                bisected += 1;
                (l * h).sqrt()
            }
            _ => break,
        };
    }

    let stats = Client::connect(addr, IO_TIMEOUT)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"));
    let server_cpu = crate::host::proc_cpu_s(&server.pid());
    if let Err(e) = server.stop() {
        tally.record(Err(e));
    }

    // Correctness of every reply. The fixed-rate phase is the graded one:
    // a refusal there is a failure. Ramp steps past capacity are expected
    // to refuse; those refusals fail their step instead.
    trace::set_enabled(ctx.trace);
    verify(&w, &warm, true, &mut tally);
    for win in &windows {
        verify(&w, win, true, &mut tally);
    }
    for r in &ramp_results {
        verify(&w, r, false, &mut tally);
    }

    let win = |kind, q| windowed(&windows, kind, q);
    metrics.set("setup_s", setup.pct(0.5), setup.len());
    metrics.set("cpu_ms_per_op", cpu_s * 1e3 / ops.max(1) as f64, ops);
    let (n_sk, n_so) = (win(Kind::Sketch, 0.5).1, win(Kind::Solve, 0.5).1);
    metrics.set("svc_sketch_ms.p50", win(Kind::Sketch, 0.5).0, n_sk);
    metrics.set("svc_sketch_ms.p99", win(Kind::Sketch, 0.99).0, n_sk);
    metrics.set("svc_solve_ms.p50", win(Kind::Solve, 0.5).0, n_so);
    metrics.set("svc_solve_ms.p90", win(Kind::Solve, 0.9).0, n_so);
    metrics.set("svc_max_rps", max_rps(&steps), steps.len());
    ctx.check_tail("svc_sketch_ms.p99", 0.99, n_sk / n_win);
    ctx.check_tail("svc_solve_ms.p90", 0.9, n_so / n_win);
    for (rate, ok, miss) in &steps {
        println!(
            "  ramp step {rate:>8.1} req/s: {:>7.3}% of sketches over {LIMIT_MS} ms: {}",
            miss * 100.0,
            if *ok { "ok" } else { "missed" }
        );
    }

    if ctx.trace {
        let fixed: Vec<ConnResult> = windows.into_iter().flatten().collect();
        let late: Vec<f64> = fixed
            .iter()
            .flat_map(|r| r.late_ms.iter().copied())
            .collect();
        metrics.set(
            "gen.late_ms.p99",
            stats::percentile(&stats::sorted(&late), 0.99).unwrap_or(0.0),
            late.len(),
        );
        metrics.set("trace.overhead", traced_p50, n_sk);
        client_layers(&mut metrics, &fixed);
        match &stats {
            Ok(s) => stats_layers(&mut metrics, s),
            Err(e) => tally.record(Err(e.clone())),
        }
        let cfg = SketchConfig::new(inputs::SVC_D, inputs::SVC_BD, inputs::SVC_BN, ctx.seed);
        let blocked = sparsekit::BlockedCsr::from_csc(&w.hot, cfg.b_n);
        probes::rng_layers(&mut metrics, cfg.b_d);
        probes::kernel_layers(&mut metrics, &w.hot, &cfg, &blocked, &mut tally);
        probes::fill_missing(&mut metrics, ctx, &mut tally);
    } else if let Err(e) = stats {
        tally.record(Err(e));
    }

    let working_set = (w.hot.memory_bytes()
        + w.sap.memory_bytes()
        + 8 * inputs::SVC_D * inputs::SVC_N * 8) as u64;
    Run {
        metrics,
        tally,
        working_set,
        child_cpu_s: server_cpu,
        peak_rss_mb: peak_rss,
    }
}

/// Per-layer service figures for library workloads: a 2.5 s open-loop
/// phase at 200 req/s (the same mix) against a fresh server.
pub fn probe(m: &mut Metrics, ctx: &Ctx, tally: &mut Tally) {
    let w = Workload::new(mix(ctx.seed, 0x9E0));
    let (server, _) = match start_server(&w) {
        Ok(s) => s,
        Err(e) => {
            tally.record(Err(e));
            return;
        }
    };
    // A low-rate open-loop phase: requests are mostly served alone.
    let res = phase(server.addr, &w, 200.0, 2.5, 0);
    let stats = Client::connect(server.addr, IO_TIMEOUT)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"));
    if let Err(e) = server.stop() {
        tally.record(Err(e));
    }
    verify(&w, &res, true, tally);
    client_layers(m, &res);
    match stats {
        Ok(s) => stats_layers(m, &s),
        Err(e) => tally.record(Err(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_checksum_is_counted_as_a_failure() {
        let a = inputs::svc_hot(7);
        let cfg = SketchConfig::new(inputs::SVC_D, inputs::SVC_BD, inputs::SVC_BN, 0);
        let seed = 0x1234;
        let local = sketch_alg3(&a, &SketchConfig { seed, ..cfg }, &uniform(seed));
        let xor = local
            .as_slice()
            .iter()
            .fold(0u64, |acc, v| acc ^ v.to_bits());
        let fro = local.fro_norm();
        let d = inputs::SVC_D as u64;
        let n = inputs::SVC_N as u64;
        let mut tally = Tally::default();
        tally.record(check_checksum(&a, &cfg, (seed, 1), (d, n, fro, xor)));
        tally.record(check_checksum(&a, &cfg, (seed, 1), (d, n, fro, xor ^ 1)));
        tally.record(check_checksum(
            &a,
            &cfg,
            (seed, 1),
            (d, n, f64::from_bits(fro.to_bits() + 1), xor),
        ));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.fail_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_rps_interpolates_between_steps() {
        let steps = [
            (100.0, true, 0.0),
            (200.0, true, 0.005),
            (400.0, false, 0.2),
        ];
        let r = max_rps(&steps);
        assert!(r > 200.0 && r < 400.0, "{r}");
        assert_eq!(max_rps(&steps[..2]), 200.0);
        // Bisection steps: the bracket is the highest pass and the lowest
        // failure above it, whatever order they ran in.
        let bis = [
            (100.0, true, 0.0),
            (400.0, false, 0.5),
            (200.0, false, 0.05),
            (141.0, true, 0.002),
        ];
        let r = max_rps(&bis);
        assert!(r > 141.0 && r < 200.0, "{r}");
        assert!(max_rps(&[(100.0, false, 0.4)]) > 0.0);
    }

    #[test]
    fn stats_numbers_parse() {
        let s = "{\"registry_bytes\":123,\"counters\":{\"svc.deadline_missed\":4},\"hists\":{\"svc/queue_wait\":{\"count\":9,\"p50\":1500.5}}}";
        assert_eq!(json_num(s, &["registry_bytes"]), Some(123.0));
        assert_eq!(json_num(s, &["svc.deadline_missed"]), Some(4.0));
        assert_eq!(json_num(s, &["svc/queue_wait", "p50"]), Some(1500.5));
    }
}
