//! The in-process load generator for the TCP workloads: one thread, at most
//! `nproc` connections, raw `Frame` codec over blocking sockets gated by
//! `poll(2)`.  The thread's CPU time and allocations are the benchmark's,
//! not the server's, and are kept out of the server's figures.

use crate::alloc::{self, AllocSnapshot};
use crate::fixture::Oracle;
use crate::host::{self, Yardstick};
use crate::measure::BlockSamples;
use crate::stats::{self, SplitMix64};
use snn_net::protocol::{Frame, InferRequest, HEADER_LEN};
use snn_tensor::Tensor;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

const POLLIN: i16 = 0x001;

/// Waits until a socket is readable or the timeout passes; returns the
/// readable flags.  `EINTR` reads as "nothing readable".
fn wait_readable(conns: &[Conn], timeout_ms: i32) -> [bool; MAX_CONNECTIONS] {
    let mut fds: [PollFd; MAX_CONNECTIONS] = std::array::from_fn(|i| PollFd {
        fd: conns.get(i).map_or(-1, |c| c.stream.as_raw_fd()),
        events: POLLIN,
        revents: 0,
    });
    // SAFETY: `fds` is a live array of `conns.len() <= MAX_CONNECTIONS`
    // initialised `struct pollfd`s (the C layout: int, short, short) that
    // the kernel only writes `revents` of, for the duration of the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), conns.len() as u64, timeout_ms) };
    std::array::from_fn(|i| ready > 0 && i < conns.len() && fds[i].revents != 0)
}

/// Connections the generator drives (the host has two cores).
pub const MAX_CONNECTIONS: usize = 2;

/// No reply for this long ends the run with the outstanding requests
/// counted as failed.
const STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Pre-encoded INFER frames, one per input; a send copies one and patches
/// the request id in place, so the generator does no codec work while the
/// server is being measured.
pub struct RequestFrames {
    frames: Vec<Vec<u8>>,
}

impl RequestFrames {
    pub fn encode(inputs: &[Tensor<f32>]) -> RequestFrames {
        RequestFrames {
            frames: inputs
                .iter()
                .map(|input| Frame::Infer(InferRequest::from_tensor(0, input)).encode())
                .collect(),
        }
    }

    pub fn inputs(&self) -> usize {
        self.frames.len()
    }

    /// Appends the frame for `input` under `request_id` to `out`.
    pub fn append(&self, input: usize, request_id: u64, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&self.frames[input]);
        // The request id is the first payload field.
        out[start + HEADER_LEN..start + HEADER_LEN + 8].copy_from_slice(&request_id.to_le_bytes());
    }
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    in_flight: usize,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: vec![0u8; 256 << 10],
            start: 0,
            end: 0,
            in_flight: 0,
        })
    }

    /// One `read` of whatever is available (the socket was reported
    /// readable).  `Ok(0)` means the server closed the connection.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next complete frame in the buffer, if any.
    fn next_frame(&mut self) -> Result<Option<Frame>, snn_net::ProtocolError> {
        if self.start == self.end {
            return Ok(None);
        }
        match Frame::decode(&self.buf[self.start..self.end])? {
            Some((frame, used)) => {
                self.start += used;
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }
}

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Closed loop: every connection keeps `in_flight` requests
    /// outstanding; a block is `block` completions.
    Saturate { in_flight: usize, block: usize },
    /// Open loop: every `period`, each connection sends `per_connection`
    /// pipelined requests at the same due time; a block is one tick.
    Burst {
        period: Duration,
        per_connection: usize,
    },
}

/// The standard shapes of the two TCP workloads.
pub const SATURATE: Shape = Shape::Saturate {
    in_flight: 32,
    block: 32,
};
pub const BURST_PER_CONNECTION: usize = 8;
pub const BURST: Shape = Shape::Burst {
    period: Duration::from_millis(40),
    per_connection: BURST_PER_CONNECTION,
};

/// The open-loop schedule: tick `k` is due `phase + k × period` after the
/// span starts, and sends the listed inputs on each connection.  Made
/// from the seed alone, so equal seeds offer identical load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstSchedule {
    pub phase: Duration,
    pub period: Duration,
    /// `ticks[k][connection]` = the inputs sent at tick `k`.
    pub ticks: Vec<Vec<Vec<u32>>>,
}

impl BurstSchedule {
    pub fn new(
        seed: u64,
        period: Duration,
        per_connection: usize,
        connections: usize,
        inputs: usize,
        span: Duration,
    ) -> BurstSchedule {
        let mut rng = SplitMix64(seed ^ 0xb075_7c4e_d01e);
        let phase = Duration::from_nanos(rng.below(period.as_nanos() as u64));
        let tick_count = (span.as_nanos() / period.as_nanos()).max(1) as usize;
        // Every tick sends the same multiset of inputs (a rotation of the
        // input set), so every block does the same work; the seed picks
        // where the rotation starts.
        let offset = rng.below(inputs as u64) as usize;
        let ticks = (0..tick_count)
            .map(|_| {
                (0..connections)
                    .map(|c| {
                        (0..per_connection)
                            .map(|j| ((offset + c * per_connection + j) % inputs) as u32)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        BurstSchedule {
            phase,
            period,
            ticks,
        }
    }

    pub fn due(&self, tick: usize) -> Duration {
        self.phase + self.period * tick as u32
    }
}

/// Latency charged to a request: from when it was **due**, so a generator
/// or server stall is charged to every request it delayed.
pub fn due_time_latency(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

/// FNV-1a digest of a result's logits, prediction and cycles.
pub fn reply_digest(logits: &[i64], prediction: usize, cycles: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    logits.iter().for_each(|&l| feed(l as u64));
    feed(prediction as u64);
    feed(cycles);
    hash
}

/// One request's life, in nanoseconds since the span started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Record {
    pub input: u32,
    pub connection: u32,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// Zero until a reply arrives.
    pub done_ns: u64,
    pub ok: bool,
    /// Digest of the SCORES reply (zero for a refusal or an error), so the
    /// traced pass can replay the request against another engine path.
    pub reply_digest: u64,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        due_time_latency(
            Duration::from_nanos(self.due_ns),
            Duration::from_nanos(self.done_ns),
        )
        .as_secs_f64()
            * 1e3
    }

    pub fn send_lag_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// What one generator run observed.
pub struct LoadReport {
    pub records: Vec<Record>,
    pub blocks: BlockSamples,
    pub yardstick: Yardstick,
    /// From the first send to the end of the last whole block.
    pub span_s: f64,
    /// Completions inside `span_s`.
    pub span_completed: u64,
    /// Requests the schedule offered inside `span_s` (open loop).
    pub span_offered: u64,
    /// CPU time of the generator thread over the span.
    pub generator_cpu_s: f64,
    /// Server-side allocations over the span (generator excluded).
    pub span_allocs: AllocSnapshot,
    /// Most requests still unanswered when a tick came due (open loop).
    pub backlog_max: usize,
    /// Why the run ended early, if it did.
    pub aborted: Option<String>,
}

impl LoadReport {
    /// Due-time latencies of the answered requests, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        stats::sorted(
            self.records
                .iter()
                .filter(|r| r.done_ns != 0)
                .map(Record::latency_ms)
                .collect(),
        )
    }
}

struct Generator<'a> {
    conns: Vec<Conn>,
    frames: &'a RequestFrames,
    oracle: &'a Oracle,
    records: Vec<Record>,
    origin: Instant,
    last_reply: Instant,
    scratch: Vec<u8>,
}

impl Generator<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Writes `inputs` as one pipelined burst on `connection`, all due at
    /// `due_ns`.
    fn send(&mut self, connection: usize, inputs: &[u32], due_ns: u64) -> io::Result<()> {
        self.scratch.clear();
        let sent_ns = self.now_ns();
        for &input in inputs {
            let request_id = self.records.len() as u64;
            self.frames
                .append(input as usize, request_id, &mut self.scratch);
            self.records.push(Record {
                input,
                connection: connection as u32,
                due_ns,
                sent_ns,
                done_ns: 0,
                ok: false,
                reply_digest: 0,
            });
        }
        let conn = &mut self.conns[connection];
        conn.in_flight += inputs.len();
        conn.stream.write_all(&self.scratch)
    }

    /// Reads what `connection` has and settles every complete reply;
    /// `on_reply` sees each settled record's index.
    fn settle(
        &mut self,
        connection: usize,
        mut on_reply: impl FnMut(&mut Self, usize) -> io::Result<()>,
    ) -> io::Result<()> {
        if self.conns[connection].fill()? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        loop {
            let frame = self.conns[connection]
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let Some(frame) = frame else { return Ok(()) };
            let (request_id, ok, digest) = match &frame {
                Frame::Scores(reply) => {
                    let known = self.records.get(reply.request_id as usize);
                    let ok = known.is_some_and(|record| {
                        self.oracle.matches(
                            record.input as usize,
                            &reply.logits,
                            reply.prediction as usize,
                            reply.total_cycles,
                        )
                    });
                    let digest =
                        reply_digest(&reply.logits, reply.prediction as usize, reply.total_cycles);
                    (reply.request_id, ok, digest)
                }
                // A refusal or an error is a miss.
                Frame::Rejected(reply) => (reply.request_id, false, 0),
                Frame::Error(reply) => (reply.request_id, false, 0),
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame {other:?}"),
                    ))
                }
            };
            let index = request_id as usize;
            let done_ns = self.now_ns();
            match self.records.get_mut(index) {
                Some(record) if record.done_ns == 0 => {
                    record.done_ns = done_ns.max(1);
                    record.ok = ok;
                    record.reply_digest = digest;
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("reply for unknown or settled request {request_id}"),
                    ))
                }
            }
            self.conns[connection].in_flight -= 1;
            on_reply(self, index)?;
        }
    }

    /// Waits up to `timeout_ms` for replies and settles those that came.
    fn pump(
        &mut self,
        timeout_ms: i32,
        mut on_reply: impl FnMut(&mut Self, usize) -> io::Result<()>,
    ) -> io::Result<()> {
        let readable = wait_readable(&self.conns, timeout_ms);
        for connection in (0..self.conns.len()).filter(|&c| readable[c]) {
            self.last_reply = Instant::now();
            self.settle(connection, &mut on_reply)?;
        }
        Ok(())
    }

    fn in_flight(&self) -> usize {
        self.conns.iter().map(|c| c.in_flight).sum()
    }

    /// Requests are outstanding and none was answered for `STALL_TIMEOUT`.
    fn stalled(&self) -> bool {
        self.in_flight() > 0 && self.last_reply.elapsed() > STALL_TIMEOUT
    }
}

/// Server-side cost counters sampled at block boundaries.
#[derive(Clone, Copy)]
struct Boundary {
    at: Instant,
    process_cpu_ns: u64,
    generator_cpu_ns: u64,
}

impl Boundary {
    fn now() -> Boundary {
        Boundary {
            at: Instant::now(),
            process_cpu_ns: host::process_cpu_ns(),
            generator_cpu_ns: host::thread_cpu_ns(),
        }
    }

    /// Server CPU milliseconds since `earlier`: process minus generator.
    fn server_cpu_ms_since(&self, earlier: &Boundary) -> f64 {
        let process = self.process_cpu_ns - earlier.process_cpu_ns;
        let generator = self.generator_cpu_ns - earlier.generator_cpu_ns;
        process.saturating_sub(generator) as f64 / 1e6
    }
}

/// Drives `addr` with `shape` for `seconds` on the calling thread, which
/// becomes a generator thread (its allocations stop being counted).
pub fn drive(
    addr: SocketAddr,
    frames: &RequestFrames,
    oracle: &Oracle,
    shape: Shape,
    seed: u64,
    seconds: f64,
) -> io::Result<LoadReport> {
    alloc::exclude_current_thread();
    if let Some(plan) = crate::CPU_PLAN.get() {
        host::move_generator(*plan);
    }
    let conns = (0..MAX_CONNECTIONS)
        .map(|_| Conn::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut gen = Generator {
        conns,
        frames,
        oracle,
        records: Vec::with_capacity(1 << 19),
        origin: Instant::now(),
        last_reply: Instant::now(),
        scratch: Vec::with_capacity(1 << 20),
    };
    match shape {
        Shape::Saturate { in_flight, block } => saturate(&mut gen, in_flight, block, seed, seconds),
        Shape::Burst {
            period,
            per_connection,
        } => {
            let schedule = BurstSchedule::new(
                seed,
                period,
                per_connection,
                MAX_CONNECTIONS,
                frames.inputs(),
                Duration::from_secs_f64(seconds),
            );
            burst(&mut gen, &schedule)
        }
    }
}

fn saturate(
    gen: &mut Generator<'_>,
    in_flight: usize,
    block: usize,
    seed: u64,
    seconds: f64,
) -> io::Result<LoadReport> {
    let inputs = gen.frames.inputs() as u64;
    let mut next_input = SplitMix64(seed ^ 0x5a7).below(inputs);
    let mut take_input = move || {
        let input = next_input as u32;
        next_input = (next_input + 1) % inputs;
        input
    };
    let capacity = (seconds * 20_000.0 / block as f64) as usize + 1024;
    let mut blocks = BlockSamples::with_capacity(capacity);
    let mut yardstick = Yardstick::with_capacity(capacity);
    let mut block_latencies = vec![0.0f64; block];
    let mut block_fill = 0usize;
    let mut block_ok = 0u64;
    let mut aborted = None;

    gen.origin = Instant::now();
    for connection in 0..gen.conns.len() {
        for _ in 0..in_flight {
            let due = gen.now_ns();
            gen.send(connection, &[take_input()], due)?;
        }
    }
    let alloc_start = alloc::snapshot();
    let span_start = Boundary::now();
    let mut block_start = span_start;
    let mut span_end = span_start;
    let mut span_allocs = AllocSnapshot::default();
    let mut span_completed = 0u64;
    let mut stopping = false;
    gen.last_reply = Instant::now();

    while gen.in_flight() > 0 {
        gen.pump(100, |gen, index| {
            let record = gen.records[index];
            if stopping {
                blocks.count_outside_blocks(1, u64::from(record.ok));
                return Ok(());
            }
            block_latencies[block_fill] = record.latency_ms();
            block_fill += 1;
            block_ok += u64::from(record.ok);
            if block_fill == block {
                let end = Boundary::now();
                blocks.push(
                    block as u64,
                    block_ok,
                    (end.at - block_start.at).as_secs_f64(),
                    end.server_cpu_ms_since(&block_start),
                    &mut block_latencies,
                );
                span_completed += block as u64;
                span_allocs = alloc::snapshot().since(alloc_start);
                span_end = end;
                block_fill = 0;
                block_ok = 0;
                stopping = (end.at - span_start.at).as_secs_f64() >= seconds;
                // The yardstick runs between blocks, inside none.
                yardstick.sample();
                block_start = Boundary::now();
            }
            if !stopping {
                let due = gen.now_ns();
                gen.send(record.connection as usize, &[take_input()], due)?;
            }
            Ok(())
        })?;
        if gen.stalled() {
            aborted = Some(format!(
                "no reply for {STALL_TIMEOUT:?} with {} in flight",
                gen.in_flight()
            ));
            break;
        }
    }
    // Requests sent but never answered (an aborted run), and the partial
    // block cut off by the end of the span.
    let unanswered = gen.records.iter().filter(|r| r.done_ns == 0).count() as u64;
    blocks.count_outside_blocks(unanswered + block_fill as u64, block_ok);

    Ok(LoadReport {
        records: std::mem::take(&mut gen.records),
        blocks,
        yardstick,
        span_s: (span_end.at - span_start.at).as_secs_f64(),
        span_completed,
        span_offered: span_completed,
        generator_cpu_s: (span_end.generator_cpu_ns - span_start.generator_cpu_ns) as f64 / 1e9,
        span_allocs,
        backlog_max: in_flight * MAX_CONNECTIONS,
        aborted,
    })
}

/// Sleeps in `poll` until about a millisecond before the due time, then
/// polls without blocking: a timed-out `poll` wakes hundreds of
/// microseconds late on this host, a spin does not.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(1200);

fn burst(gen: &mut Generator<'_>, schedule: &BurstSchedule) -> io::Result<LoadReport> {
    let ticks = schedule.ticks.len();
    let per_tick: usize = schedule.ticks[0].iter().map(Vec::len).sum();
    let mut blocks = BlockSamples::with_capacity(ticks);
    let mut yardstick = Yardstick::with_capacity(ticks);
    let mut tick_latencies = vec![0.0f64; per_tick];
    let mut backlog_max = 0usize;
    let mut aborted = None;

    gen.origin = Instant::now();
    let alloc_start = alloc::snapshot();
    let span_start = Boundary::now();
    let mut boundaries: Vec<Boundary> = Vec::with_capacity(ticks + 1);
    let mut span_allocs = AllocSnapshot::default();
    let mut next_tick = 0usize;
    gen.last_reply = Instant::now();

    // One extra turn after the last tick closes the last block.
    while next_tick <= ticks {
        let due = schedule.due(next_tick);
        let now = gen.origin.elapsed();
        if now >= due {
            backlog_max = backlog_max.max(gen.in_flight());
            boundaries.push(Boundary::now());
            span_allocs = alloc::snapshot().since(alloc_start);
            if next_tick < ticks {
                for (connection, inputs) in schedule.ticks[next_tick].iter().enumerate() {
                    gen.send(connection, inputs, due.as_nanos() as u64)?;
                }
            }
            yardstick.sample();
            next_tick += 1;
            continue;
        }
        let wait = due - now;
        let timeout_ms = if wait > SPIN_BEFORE_DUE {
            (wait - SPIN_BEFORE_DUE).as_millis().max(1) as i32
        } else {
            0
        };
        gen.pump(timeout_ms, |_, _| Ok(()))?;
        if gen.stalled() {
            aborted = Some(format!("no reply for {STALL_TIMEOUT:?}"));
            break;
        }
    }
    let span_end = Boundary::now();
    // Replies to the last tick that arrive after the closing boundary.
    while aborted.is_none() && gen.in_flight() > 0 {
        gen.pump(100, |_, _| Ok(()))?;
        if gen.stalled() {
            aborted = Some(format!("no reply for {STALL_TIMEOUT:?} while draining"));
        }
    }

    // One block per tick: its requests' due-time latencies, and the server
    // CPU between this tick's boundary and the next one's.
    let mut span_completed = 0u64;
    for (tick, pair) in boundaries.windows(2).enumerate() {
        let records = &gen.records[tick * per_tick..(tick + 1) * per_tick];
        let mut ok = 0u64;
        for (slot, record) in tick_latencies.iter_mut().zip(records) {
            // An unanswered request reads as the stall timeout: a miss.
            *slot = if record.done_ns == 0 {
                STALL_TIMEOUT.as_secs_f64() * 1e3
            } else {
                record.latency_ms()
            };
            ok += u64::from(record.ok);
        }
        span_completed += records.iter().filter(|r| r.done_ns != 0).count() as u64;
        blocks.push(
            per_tick as u64,
            ok,
            (pair[1].at - pair[0].at).as_secs_f64(),
            pair[1].server_cpu_ms_since(&pair[0]),
            &mut tick_latencies,
        );
    }
    let measured = boundaries.len().saturating_sub(1) * per_tick;
    let unmeasured = &gen.records[measured.min(gen.records.len())..];
    blocks.count_outside_blocks(
        unmeasured.len() as u64,
        unmeasured.iter().filter(|r| r.ok).count() as u64,
    );

    let first = boundaries.first().unwrap_or(&span_start);
    Ok(LoadReport {
        span_s: (span_end.at - first.at).as_secs_f64(),
        span_completed,
        span_offered: measured as u64,
        generator_cpu_s: (span_end.generator_cpu_ns - first.generator_cpu_ns) as f64 / 1e9,
        records: std::mem::take(&mut gen.records),
        blocks,
        yardstick,
        span_allocs,
        backlog_max,
        aborted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> BurstSchedule {
        BurstSchedule::new(
            seed,
            Duration::from_millis(40),
            8,
            2,
            16,
            Duration::from_secs(2),
        )
    }

    #[test]
    fn burst_schedule_is_a_function_of_the_seed() {
        assert_eq!(schedule(11), schedule(11));
        assert_ne!(schedule(11), schedule(12));
        let s = schedule(11);
        assert_eq!(s.ticks.len(), 50);
        assert!(s.phase < s.period);
        assert_eq!(s.due(3) - s.due(2), s.period);
        // Every tick offers each of the 16 inputs exactly once.
        for tick in &s.ticks {
            let mut all: Vec<u32> = tick.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..16).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn latency_is_charged_from_the_due_time_under_a_stall() {
        // Two requests due 40 ms apart; the generator stalls and sends both
        // at 100 ms; the server answers each 5 ms after it was sent.
        let stall_sent = 100_000_000;
        let make = |due_ns: u64| Record {
            due_ns,
            sent_ns: stall_sent,
            done_ns: stall_sent + 5_000_000,
            ..Record::default()
        };
        let (first, second) = (make(20_000_000), make(60_000_000));
        assert!((first.latency_ms() - 85.0).abs() < 1e-9);
        assert!((second.latency_ms() - 45.0).abs() < 1e-9);
        assert!((first.send_lag_us() - 80_000.0).abs() < 1e-9);
        // A reply stamped before its due time (clock granularity) reads 0.
        assert_eq!(
            due_time_latency(Duration::from_millis(5), Duration::from_millis(4)),
            Duration::ZERO
        );
    }

    #[test]
    fn patched_frames_equal_fresh_encodings() {
        let input = Tensor::from_vec(vec![1, 2, 2], vec![0.1f32, 0.2, 0.3, 0.4]).unwrap();
        let frames = RequestFrames::encode(std::slice::from_ref(&input));
        let mut out = Vec::new();
        frames.append(0, 0xdead_beef_0042, &mut out);
        frames.append(0, 7, &mut out);
        let fresh = |id| Frame::Infer(InferRequest::from_tensor(id, &input)).encode();
        assert_eq!(out, [fresh(0xdead_beef_0042), fresh(7)].concat());
    }
}
