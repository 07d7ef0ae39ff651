//! The open-loop load generator behind `serve_decide`.
//!
//! Requests are due on a fixed schedule (`rate` per second), whether or
//! not earlier ones have been answered. A lane is a schedule with its own
//! small pool of client threads; each client holds at most one
//! connection, takes the lane's next due request off a shared cursor,
//! waits until it is due, and sends it. A request's latency
//! runs from when it was *due*, not when it was sent, so a stall that makes
//! the generator late is charged to every request it delays. How late the
//! generator sent each request is reported too.
//!
//! A connection is kept for the next request unless the server answers
//! `Connection: close`.

use crate::requests::Request;
use crate::stats;
use crate::trace::{now, Span, Tracer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a client waits on a silent server before calling the request
/// failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Sleep until this close to a due time, then spin: sleeping alone
/// overshoots by the timer slack.
const SPIN_WINDOW: Duration = Duration::from_micros(80);

/// One request's timeline, in nanoseconds from the step's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Timing {
    /// Latency charged to the request: from due to answered.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 * 1e-6
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 * 1e-6
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub index: usize,
    pub timing: Timing,
    /// `None` when the transport failed.
    pub status: Option<u16>,
    pub body: Vec<u8>,
    /// Whether the request was sent with a span around it.
    pub traced: bool,
}

/// Due offsets for `count` requests at `rate` per second.
pub fn schedule(rate: f64, count: usize) -> Vec<u64> {
    (0..count).map(|i| (i as f64 * 1e9 / rate) as u64).collect()
}

/// What one fixed-rate step measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    pub sent: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub late_p99_ms: f64,
    /// How late the last request went out: a backlog that grows over the
    /// step leaves the final requests the latest.
    pub final_late_ms: f64,
}

impl StepStats {
    /// The step kept up: p99 latency within `limit_ms`, nothing failed,
    /// p99 supported by the sample, and no backlog at its end.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && stats::supported(99.0, self.sent)
            && self.p99_ms <= limit_ms
            && self.final_late_ms <= limit_ms
    }
}

/// Summarizes a step's timelines. A failed request counts as missing the
/// latency limit: it is charged an infinite latency.
pub fn summarize(timings: &[(Timing, bool)]) -> StepStats {
    let latencies: Vec<f64> = timings
        .iter()
        .map(|(t, ok)| if *ok { t.latency_ms() } else { f64::INFINITY })
        .collect();
    let late: Vec<f64> = timings.iter().map(|(t, _)| t.late_ms()).collect();
    let final_late_ms = timings
        .iter()
        .max_by_key(|(t, _)| t.due_ns)
        .map_or(0.0, |(t, _)| t.late_ms());
    StepStats {
        sent: timings.len(),
        failed: timings.iter().filter(|(_, ok)| !ok).count(),
        p50_ms: stats::percentile(&latencies, 50.0),
        p99_ms: stats::percentile(&latencies, 99.0),
        late_p99_ms: stats::percentile(&late, 99.0),
        final_late_ms,
    }
}

/// A response read off a kept-alive connection.
struct Response {
    status: u16,
    body: Vec<u8>,
    close: bool,
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<Response> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break end + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before the response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    let mut body = buf.split_off(head_end);
    if body.len() < length {
        let have = body.len();
        body.resize(length, 0);
        stream.read_exact(&mut body[have..])?;
    }
    body.truncate(length);
    Ok(Response {
        status,
        body,
        close,
    })
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn exchange(
    conn: &mut Option<TcpStream>,
    addr: SocketAddr,
    head: &[u8],
    connections: &AtomicUsize,
) -> std::io::Result<Response> {
    let stream = match conn {
        Some(stream) => stream,
        None => {
            connections.fetch_add(1, Ordering::Relaxed);
            conn.insert(connect(addr)?)
        }
    };
    stream.write_all(head)?;
    let response = read_response(stream)?;
    if response.close {
        *conn = None;
    }
    Ok(response)
}

/// One request on a fresh connection: `(status, body)`.
pub fn fetch(addr: SocketAddr, head: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let response = exchange(&mut None, addr, head.as_bytes(), &AtomicUsize::new(0))?;
    Ok((response.status, response.body))
}

/// A schedule of requests with its own pool of client threads.
pub struct Lane<'a> {
    pub requests: &'a [Request],
    /// Due offsets from the step's start, parallel to `requests`.
    pub dues: &'a [u64],
    pub threads: usize,
}

/// What one lane of a step sent and received.
pub struct Step {
    pub exchanges: Vec<Exchange>,
    pub connections: usize,
}

/// One client thread: takes the lane's next due request off `cursor`,
/// waits for its due time, sends it on its connection and records it.
fn client(
    addr: SocketAddr,
    lane: &Lane<'_>,
    heads: &[Vec<u8>],
    start: Instant,
    cursor: &AtomicUsize,
    connections: &AtomicUsize,
    tracer: Option<(&Tracer, usize)>,
) -> (Vec<Exchange>, Vec<Span>) {
    let mut conn: Option<TcpStream> = None;
    let mut done = Vec::new();
    let mut spans = Vec::new();
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&due_ns) = lane.dues.get(index) else {
            break;
        };
        let due = start + Duration::from_nanos(due_ns);
        let current = now();
        if due > current + SPIN_WINDOW {
            std::thread::sleep(due - current - SPIN_WINDOW);
        }
        while now() < due {
            std::hint::spin_loop();
        }
        let sent = now();
        let result = exchange(&mut conn, addr, &heads[index], connections);
        let answered = now();
        if result.is_err() {
            conn = None;
        }
        let traced = match tracer {
            Some((t, every)) if index.is_multiple_of(every.max(1)) => {
                let root = t.root("loadgen.request");
                spans.push(t.finished(&root, "server.exchange", t.at_ns(sent), t.at_ns(answered)));
                spans.push(Span {
                    id: root.id,
                    parent: None,
                    trace: root.trace,
                    name: "loadgen.request",
                    start_ns: t.at_ns(due),
                    end_ns: t.at_ns(answered),
                });
                true
            }
            _ => false,
        };
        let (status, body) = match result {
            Ok(r) => (Some(r.status), r.body),
            Err(_) => (None, Vec::new()),
        };
        done.push(Exchange {
            index,
            timing: Timing {
                due_ns,
                sent_ns: ns(sent),
                done_ns: ns(answered),
            },
            status,
            body,
            traced,
        });
    }
    (done, spans)
}

/// Runs every lane from one common start: `lane.requests[i]` is sent at
/// `start + lane.dues[i]` by one of the lane's clients, each of which
/// holds at most one connection. With a tracer, every `trace_every`-th
/// request of the first lane is traced: a `loadgen.request` root from due
/// to answered with a `server.exchange` child from sent to answered.
pub fn run(addr: SocketAddr, lanes: &[Lane<'_>], tracer: Option<(&Tracer, usize)>) -> Vec<Step> {
    let heads: Vec<Vec<Vec<u8>>> = lanes
        .iter()
        .map(|l| l.requests.iter().map(|r| r.head().into_bytes()).collect())
        .collect();
    let cursors: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let connections: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let start = now();
    let per_lane: Vec<Vec<(Vec<Exchange>, Vec<Span>)>> = std::thread::scope(|scope| {
        let handles: Vec<Vec<_>> = lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let lane_tracer = if i == 0 { tracer } else { None };
                let (heads, cursor, connections) = (&heads[i], &cursors[i], &connections[i]);
                (0..lane.threads.max(1))
                    .map(|_| {
                        scope.spawn(move || {
                            client(addr, lane, heads, start, cursor, connections, lane_tracer)
                        })
                    })
                    .collect()
            })
            .collect();
        handles
            .into_iter()
            .map(|lane| {
                lane.into_iter()
                    .map(|h| h.join().expect("load generator thread panicked")) // lint:allow(no-panic-in-lib): a panicking client is a bug the run must surface
                    .collect()
            })
            .collect()
    });
    per_lane
        .into_iter()
        .zip(connections)
        .map(|(clients, connections)| {
            let mut exchanges = Vec::new();
            for (done, spans) in clients {
                exchanges.extend(done);
                if let Some((t, _)) = tracer {
                    t.keep(spans);
                }
            }
            exchanges.sort_by_key(|e| e.index);
            Step {
                exchanges,
                connections: connections.into_inner(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(due: u64, sent: u64, done: u64) -> (Timing, bool) {
        (
            Timing {
                due_ns: due * 1_000_000,
                sent_ns: sent * 1_000_000,
                done_ns: done * 1_000_000,
            },
            true,
        )
    }

    #[test]
    fn schedule_spaces_requests_by_the_rate() {
        assert_eq!(schedule(1000.0, 3), vec![0, 1_000_000, 2_000_000]);
        assert_eq!(schedule(4.0, 2), vec![0, 250_000_000]);
    }

    #[test]
    fn latency_counts_from_due_so_a_stall_is_charged_to_later_requests() {
        // One client, requests due every 1 ms, each taking 0.5 ms, except
        // the first, which stalls for 5 ms. The requests behind it go out
        // late, back to back, until the backlog drains; their latency
        // includes the wait the stall caused.
        let mut timings = vec![timing(0, 0, 5)];
        let mut free = 5.0f64;
        for i in 1..10u64 {
            let due = i as f64;
            let sent = free.max(due);
            free = sent + 0.5;
            timings.push((
                Timing {
                    due_ns: (due * 1e6) as u64,
                    sent_ns: (sent * 1e6) as u64,
                    done_ns: (free * 1e6) as u64,
                },
                true,
            ));
        }
        // Request 1 was due at 1 ms, sent at 5 ms, answered at 5.5 ms.
        assert!((timings[1].0.late_ms() - 4.0).abs() < 1e-9);
        assert!((timings[1].0.latency_ms() - 4.5).abs() < 1e-9);
        // By request 9 (due 9 ms) the backlog has drained: sent on time.
        assert_eq!(timings[9].0.late_ms(), 0.0);
        let s = summarize(&timings);
        assert_eq!(s.sent, 10);
        assert!((s.late_p99_ms - 4.0).abs() < 1e-9);
        assert_eq!(s.final_late_ms, 0.0);
        // Timed from send, nine of ten requests would read 0.5 ms and the
        // median would hide the stall; timed from due, it reads 2.5 ms.
        assert!((s.p50_ms - 2.5).abs() < 1e-9);
        assert!((s.p99_ms - 5.0).abs() < 1e-9);
    }

    #[test]
    fn a_growing_backlog_fails_the_step() {
        // Service takes 2 ms but requests are due every 1 ms: each request
        // goes out later than the last.
        let mut timings = Vec::new();
        let mut free = 0u64;
        for i in 0..200u64 {
            let sent = free.max(i);
            free = sent + 2;
            timings.push(timing(i, sent, free));
        }
        let s = summarize(&timings);
        assert!(s.final_late_ms > 190.0);
        assert!(!s.meets(2.0));
    }

    #[test]
    fn failures_miss_the_limit_and_small_samples_cannot_pass() {
        let mut timings: Vec<(Timing, bool)> = (0..1000).map(|i| timing(i, i, i)).collect();
        assert!(summarize(&timings).meets(2.0));
        timings[7].1 = false;
        let s = summarize(&timings);
        assert_eq!(s.failed, 1);
        assert!(!s.meets(2.0));
        // Fewer than 1000 samples leave under ten beyond the p99.
        let few: Vec<(Timing, bool)> = (0..999).map(|i| timing(i, i, i)).collect();
        assert!(!summarize(&few).meets(2.0));
    }
}
