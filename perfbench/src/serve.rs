//! `serve_decide`: serve the `mine_table2` snapshot under open-loop load.
//!
//! The default `ServerConfig` serves the snapshot mined from the
//! `mine_table2` corpus. Reads come from one process with at most `nproc`
//! client threads and connections (see `loadgen`). The read mix is about
//! 90% `/decide` and 10% `/entity?k=10` over Zipf-drawn decided pairs,
//! plus about 5% unknown pairs that must answer 404. At the reference
//! rate a `POST /ctl/reload` of the same snapshot file runs once a second
//! beside the reads, from a client of its own. A search over fixed rates then finds the
//! highest one the server keeps up with. The server and the store lookup
//! do all the request work; a reload exercises `wire` decoding, `core`
//! validation and the index build beside the reads.

use crate::harness::{check_piecewise, median_layers, trace_accounting, SETUPS};
use crate::lifecycle::{decision_accuracy, Probe};
use crate::loadgen::{self, summarize, Exchange, Lane, StepStats};
use crate::mine::Mine;
use crate::report::Outcome;
use crate::requests::{read_mix, AnswerCheck, Ask, Request};
use crate::stats;
use crate::trace::{now, Tracer};
use crate::Args;
use serde_json::json;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use surveyor::obs::{MetricsRegistry, RunReport};
use surveyor_server::{percent_encode, ServedState, ServerConfig, ServerHandle};

/// Reads per second at which latency is reported. Fixed, so a faster
/// server shows as lower latency at the same load.
pub const REFERENCE_RATE: f64 = 500.0;
/// The p99 latency a rate must meet to count as kept up with: about five
/// times this snapshot's low-rate p99 (2-4 ms on a 2-CPU host), so that
/// below the knee a stray slow request does not fail a step, and past it
/// the growing backlog does.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// Seconds between hot reloads at the reference rate.
const RELOAD_INTERVAL_S: f64 = 1.0;
/// Share of the measured window spent at the reference rate; the rest
/// searches for the highest rate.
const REFERENCE_SHARE: f64 = 0.6;
/// Length of one fixed-rate step of the search.
const STEP_SECONDS: f64 = 1.0;
/// Fewest reads in a step, and the reads per window of the reference
/// step: enough for a p99 with ten samples beyond it.
const MIN_STEP_READS: usize = 1_000;
const WINDOW_READS: usize = MIN_STEP_READS;
/// The search's first rate, as a multiple of the reference rate.
const SEARCH_START: f64 = 2.0;
/// Growth of the rate between search steps until one fails.
const RATE_GROWTH: f64 = 1.25;
/// Mines of the served corpus per run; `mine_s` is their median.
const MINES: usize = 3;
/// In a traced run, every second request carries spans.
const TRACE_EVERY: usize = 2;

fn status_ok(e: &Exchange, check: &mut AnswerCheck<'_>, requests: &[Request]) -> bool {
    e.status
        .is_some_and(|status| check.is_correct(&requests[e.index], status, &e.body))
}

/// Starts a server on the snapshot file and waits for its first correct
/// answer to `probe`.
fn start_server(path: &Path, probe: &Request) -> Result<(ServerHandle, Arc<ServedState>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read snapshot: {e}"))?;
    let state = Arc::new(
        ServedState::from_snapshot_bytes(&bytes, 1, &path.to_string_lossy())
            .map_err(|e| e.to_string())?,
    );
    let registry = Arc::new(MetricsRegistry::new());
    let handle = surveyor_server::start(ServerConfig::default(), state.clone(), registry)
        .map_err(|e| format!("cannot start server: {e}"))?;
    let (status, body) =
        loadgen::fetch(handle.addr(), &probe.head()).map_err(|e| format!("first request: {e}"))?;
    if !AnswerCheck::new(&state.store).is_correct(probe, status, &body) {
        handle.shutdown();
        return Err("the first answer was wrong".to_owned());
    }
    Ok((handle, state))
}

/// The server's own view of the reference step, from `/metrics`.
fn server_metrics(addr: SocketAddr) -> Option<RunReport> {
    let (status, body) = loadgen::fetch(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n",
    )
    .ok()?;
    (status == 200)
        .then(|| RunReport::from_json(std::str::from_utf8(&body).ok()?).ok())
        .flatten()
}

/// One fixed-rate step of reads.
fn step(
    addr: SocketAddr,
    mix: &[Request],
    rate: f64,
    threads: usize,
    checked: &mut Vec<(Request, Exchange)>,
) -> StepStats {
    let count = ((rate * STEP_SECONDS) as usize)
        .max(MIN_STEP_READS)
        .clamp(1, mix.len());
    let requests = &mix[..count];
    let dues = loadgen::schedule(rate, count);
    let lane = Lane {
        requests,
        dues: &dues,
        threads,
    };
    let run = loadgen::run(addr, &[lane], None).remove(0);
    let timings: Vec<_> = run
        .exchanges
        .iter()
        .map(|e| (e.timing, e.status.is_some_and(|s| s < 500 && s != 408)))
        .collect();
    checked.extend(
        run.exchanges
            .into_iter()
            .map(|e| (requests[e.index].clone(), e)),
    );
    summarize(&timings)
}

/// Finds the highest fixed rate whose step meets the latency limit:
/// grow the rate until a step fails twice in a row, then bisect between
/// the last pass and the lowest failure while steps remain, and
/// interpolate the limit crossing between those two by their p99
/// latencies. `between` runs after every step.
fn max_rate(
    addr: SocketAddr,
    mix: &[Request],
    threads: usize,
    steps: usize,
    checked: &mut Vec<(Request, Exchange)>,
    log: &mut Vec<serde_json::Value>,
    between: &mut dyn FnMut(),
) -> f64 {
    let mut pass: Option<(f64, f64)> = None;
    let mut fail: Option<(f64, f64)> = None;
    let mut rate = REFERENCE_RATE * SEARCH_START;
    let mut left = steps;
    while left > 0 {
        // A failing step is run once more at the same rate: a burst of
        // host contention can fail one step well below the knee.
        let mut stats;
        let mut tries = 0;
        loop {
            stats = step(addr, mix, rate, threads, checked);
            between();
            left -= 1;
            tries += 1;
            let ok = stats.meets(LATENCY_LIMIT_MS);
            log.push(
                json!({"rate": rate, "p50_ms": stats.p50_ms, "p99_ms": stats.p99_ms,
                "late_p99_ms": stats.late_p99_ms, "final_late_ms": stats.final_late_ms,
                "failed": stats.failed, "meets_limit": ok}),
            );
            if ok || tries == 2 || left == 0 {
                break;
            }
        }
        let ok = stats.meets(LATENCY_LIMIT_MS);
        let p99 = stats.p99_ms.min(1e6);
        if ok {
            pass = Some((rate, p99));
        } else {
            fail = Some((rate, p99));
        }
        rate = match (pass, fail) {
            (Some((lo, _)), Some((hi, _))) => (lo + hi) / 2.0,
            (Some((lo, _)), None) => lo * RATE_GROWTH,
            (None, _) => rate / RATE_GROWTH,
        };
    }
    match (pass, fail) {
        (Some((lo, lo_p99)), Some((hi, hi_p99))) if hi > lo && hi_p99 > lo_p99 => {
            let share = ((LATENCY_LIMIT_MS - lo_p99) / (hi_p99 - lo_p99)).clamp(0.0, 1.0);
            lo + (hi - lo) * share
        }
        (Some((lo, _)), _) => lo,
        (None, _) => 0.0,
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let threads = crate::host::nproc();
    let tracer = Tracer::default();

    // The served snapshot is mined from the `mine_table2` corpus; those
    // mines also give this workload's `mine_s` (and, traced, its
    // annotation, extraction and model layers).
    let mine = Mine::setup(args.seed, threads);
    let t0 = now();
    let (output, bytes) = mine.mine();
    let mut mines = vec![t0.elapsed().as_secs_f64()];
    // The listed serving metrics come from the in-process probe: the
    // network-level ones swing with the host's load (see README.md). It
    // ticks between the later mines and between the search's steps.
    let mut probe = Probe::new(
        &bytes,
        args.seed,
        args.trace.then_some(&tracer),
        true,
        &mut outcome,
    );
    let mut layers = Vec::new();
    let mut differing = 0u64;
    for k in 1..MINES {
        let t0 = now();
        let again = if args.trace && k == 1 {
            let (again, unit_layers) = mine.mine_traced(&tracer);
            layers.push(unit_layers);
            again
        } else {
            let (output, again) = mine.mine();
            mines.push(t0.elapsed().as_secs_f64());
            drop(output);
            again
        };
        differing += u64::from(again != bytes);
        probe.tick(&mut outcome);
    }
    outcome.attempted += MINES as u64;
    outcome.failed += differing;
    outcome.check(
        "mines_are_byte_identical",
        differing == 0,
        format!("{differing} mines differ from the first"),
    );
    let mine_s = stats::median(&mines);
    outcome.end_to_end.insert("mine_s".to_owned(), mine_s);
    let (matching, decided) = decision_accuracy(&mine.corpus.world, &output);
    let accuracy = matching as f64 / decided.max(1) as f64;
    outcome
        .end_to_end
        .insert("decision_accuracy".to_owned(), accuracy);
    drop(output);

    let path = crate::out_dir().join(format!(
        "serve-seed{}-{}.swire",
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::write(&path, &bytes) {
        outcome.check("snapshot_written", false, e.to_string());
        return outcome;
    }

    let served = match surveyor::load_snapshot(&bytes) {
        Ok(output) => surveyor::SubjectiveKb::from_output(&output, output.kb()),
        Err(e) => {
            outcome.check("snapshot_loads", false, e.to_string());
            return outcome;
        }
    };
    let window = args.seconds as f64;
    let reference_s = (window * REFERENCE_SHARE).max(STEP_SECONDS);
    let search_steps = ((window - reference_s) / STEP_SECONDS).floor().max(1.0) as usize;
    let reads = (REFERENCE_RATE * reference_s) as usize;
    let mix = read_mix(&served, args.seed, reads);
    let search_mix = read_mix(
        &served,
        args.seed ^ 0xa5a5,
        ((REFERENCE_RATE * SEARCH_START * RATE_GROWTH.powi(search_steps as i32) * STEP_SECONDS)
            as usize)
            .max(MIN_STEP_READS),
    );
    let Some(first) = mix
        .iter()
        .find(|r| matches!(r.ask, Ask::Decide { .. }))
        .cloned()
    else {
        outcome.check("read_mix", false, "the read mix holds no /decide request");
        let _ = std::fs::remove_file(&path);
        return outcome;
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut server: Option<(ServerHandle, Arc<ServedState>)> = None;
    for _ in 0..SETUPS {
        if let Some((handle, _)) = server.take() {
            handle.shutdown();
        }
        let t0 = now();
        match start_server(&path, &first) {
            Ok(started) => {
                setups.push(t0.elapsed().as_secs_f64());
                server = Some(started);
            }
            Err(e) => outcome.check("server_starts", false, e),
        }
        outcome.attempted += 1;
    }
    let Some((handle, state)) = server else {
        outcome.failed += SETUPS as u64;
        let _ = std::fs::remove_file(&path);
        return outcome;
    };
    outcome
        .end_to_end
        .insert("setup_s".to_owned(), stats::median(&setups));
    let addr = handle.addr();

    // The reference step: reads at the fixed rate from `threads` clients,
    // and beside them a reload of the same file every second from a client
    // of its own, so a reload in flight never holds up a read's client.
    let reload = Request {
        method: "POST",
        target: format!(
            "/ctl/reload?path={}",
            percent_encode(&path.to_string_lossy())
        ),
        ask: Ask::Reload,
    };
    let read_dues = loadgen::schedule(REFERENCE_RATE, mix.len());
    let reload_count = (reference_s / RELOAD_INTERVAL_S).round().max(1.0) as usize;
    let reloads = vec![reload; reload_count];
    let reload_dues: Vec<u64> = (0..reload_count)
        .map(|i| ((i as f64 + 0.5) * RELOAD_INTERVAL_S * 1e9) as u64)
        .collect();
    let mut lanes = loadgen::run(
        addr,
        &[
            Lane {
                requests: &mix,
                dues: &read_dues,
                threads,
            },
            Lane {
                requests: &reloads,
                dues: &reload_dues,
                threads: 1,
            },
        ],
        args.trace.then_some((&tracer, TRACE_EVERY)),
    );
    let reload_run = lanes.pop().expect("one step per lane"); // lint:allow(no-panic-in-lib): `run` returns one step per lane
    let reference_run = lanes.pop().expect("one step per lane"); // lint:allow(no-panic-in-lib): `run` returns one step per lane
    let report = server_metrics(addr);

    let mut checked: Vec<(Request, Exchange)> = Vec::new();
    let mut search_log = Vec::new();
    let max_qps = max_rate(
        addr,
        &search_mix,
        threads,
        search_steps,
        &mut checked,
        &mut search_log,
        &mut || probe.tick(&mut outcome),
    );
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
    let (load_s, request_ms) = probe.finish(&mut outcome);
    let served_p50 = stats::median(&request_ms);
    outcome
        .end_to_end
        .insert("op_p50_ms".to_owned(), served_p50);
    outcome.end_to_end.insert("load_s".to_owned(), load_s);

    // Every answer, reference step and search alike, against the store.
    let mut check = AnswerCheck::new(&state.store);
    let mut wrong = 0u64;
    let mut read_ms = Vec::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut reload_s = Vec::new();
    let mut late_ms = Vec::new();
    for e in &reference_run.exchanges {
        wrong += u64::from(!status_ok(e, &mut check, &mix));
        read_ms.push(e.timing.latency_ms());
        late_ms.push(e.timing.late_ms());
        if e.traced {
            &mut traced_ms
        } else {
            &mut untraced_ms
        }
        .push(e.timing.latency_ms());
    }
    for e in &reload_run.exchanges {
        wrong += u64::from(!status_ok(e, &mut check, &reloads));
        reload_s.push((e.timing.done_ns - e.timing.sent_ns) as f64 * 1e-9);
    }
    for (request, e) in &checked {
        let ok = e
            .status
            .is_some_and(|s| check.is_correct(request, s, &e.body));
        wrong += u64::from(!ok);
    }
    let sent = (reference_run.exchanges.len() + reload_run.exchanges.len() + checked.len()) as u64;
    outcome.attempted += sent;
    outcome.failed += wrong;
    outcome.check(
        "served_answers_equal_find_opinion",
        wrong == 0,
        format!("{wrong} of {sent} served answers were wrong or failed"),
    );

    // The tail is taken per window of `WINDOW_READS` reads, in due order,
    // and the median over windows reported: one burst of host contention
    // then moves one window's p99, not the reported one.
    let p50 = stats::median(&read_ms);
    let window_p99: Vec<f64> = read_ms
        .chunks_exact(WINDOW_READS)
        .map(|w| stats::percentile(w, 99.0))
        .collect();
    let decide_p99 = stats::median(&window_p99);
    let reload_median = stats::median(&reload_s);

    let service = report
        .as_ref()
        .and_then(|r| r.histograms.get("serve.latency_seconds").copied());
    let counter = |name: &str| {
        report
            .as_ref()
            .and_then(|r| r.counters.get(name).copied())
            .unwrap_or(0) as f64
    };
    let service_p50_ms = service.map_or(f64::NAN, |h| h.p50 * 1e3);
    let extras = [
        ("server.service_p50_ms", service_p50_ms),
        (
            "server.service_p99_ms",
            service.map_or(f64::NAN, |h| h.p99 * 1e3),
        ),
        ("server.net_overhead_ms", p50 - service_p50_ms),
        (
            "server.requests_per_connection",
            reference_run.exchanges.len() as f64 / reference_run.connections.max(1) as f64,
        ),
        ("server.shed", counter("serve.shed")),
        ("server.deadline_expired", counter("serve.deadline_expired")),
        ("loadgen.late_p99_ms", stats::percentile(&late_ms, 99.0)),
    ];

    if args.trace {
        check_piecewise(
            &mine.corpus,
            0..mine.corpus.shards.len(),
            &mine.surveyor,
            &mut outcome,
        );
        median_layers(&layers, &mut outcome.per_layer);
        for name in [
            "core.update.groups_refit",
            "core.update.groups_carried",
            "core.update.carried_ratio",
        ] {
            outcome.per_layer.insert(name.to_owned(), 0.0);
        }
        for (name, value) in extras {
            outcome.per_layer.insert(name.to_owned(), value);
        }
        trace_accounting(
            &tracer,
            "loadgen.request",
            &traced_ms,
            &untraced_ms,
            &mut outcome,
        );
        crate::write_spans(args, &tracer.spans());
    }

    outcome.name("setup_s", stats::median(&setups), "s");
    outcome.name("mine_s", mine_s, "s");
    outcome.name("decide_p50_ms", p50, "ms");
    outcome.name("decide_p99_ms", decide_p99, "ms");
    outcome.name("serve_max_qps", max_qps, "1/s");
    outcome.name("reload_s", reload_median, "s");
    outcome.name("served_in_process_p50_ms", served_p50, "ms");
    outcome.name("load_s", load_s, "s");
    outcome.name("decision_accuracy", accuracy, "ratio");
    for (name, value) in extras {
        outcome.name(
            name,
            value,
            if name.ends_with("_ms") { "ms" } else { "count" },
        );
    }
    outcome.params = json!({
        "snapshot": "mine_table2 (table2_world_sized)",
        "background_per_type": crate::mine::BACKGROUND_PER_TYPE,
        "snapshot_bytes": bytes.len(),
        "server_config": "ServerConfig::default()",
        "client_threads": threads,
        "max_connections": threads,
        "loop": "open",
        "reference_rate_per_s": REFERENCE_RATE,
        "reference_seconds": reference_s,
        "reads_at_reference": read_ms.len(),
        "reloads_at_reference": reload_s.len(),
        "reload_interval_s": RELOAD_INTERVAL_S,
        "latency_limit_ms": LATENCY_LIMIT_MS,
        "op": "one read (/decide or /entity) at the reference rate, timed from its due time",
        "decide_p99": "median over windows of 1000 reads (in due order) of each window's p99",
        "tail_windows": window_p99.len(),
        "search": search_log,
        "mines": MINES,
        "setups": SETUPS,
        "threads": threads,
    });
    outcome
}
