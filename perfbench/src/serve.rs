//! The `serve-mix` workload: a `desq-serve` server on localhost and two
//! closed-loop clients, each opening one connection per query.
//!
//! Queries follow a seeded schedule in mix passes of nine: one query per
//! constraint against the resident corpus (an FST-cache hit) and one
//! against an alias name that no earlier query used (a miss). An alias
//! holds the same `Arc`s as its corpus, so a miss differs from a hit only
//! by the compile.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use desq::session::{AlgorithmSpec, MiningSession};
use desq_core::{Fst, MiningMetrics, OptLevel, PatEx};
use desq_dist::patterns::{self, Constraint};
use desq_serve::proto::{read_frame, write_frame, Message, Request, ServerStats};
use desq_serve::server::{ServeLimits, Server, ServerHandle};
use desq_serve::store::CorpusStore;

use crate::corpus::{self, Corpora, Data, Rng};
use crate::report::Report;
use crate::stats::{geomean, percentile, Digest, Summary};
use crate::trace::{self, SpanId, Tracer};
use crate::Options;

/// Sequences per resident corpus.
pub const CORPUS_SIZE: usize = 2_000;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// σ of the AMZN queries (the NYT ones use the batch workloads' σ).
pub const AMZN_SIGMA: u64 = 5;
/// Queries per mix pass: one hit per constraint plus one miss.
const PASS: u64 = 9;
/// The measured loop runs until at least this many queries are issued, so
/// that p99, and the median of each constraint's 20 misses, have ten
/// samples beyond them.
const MIN_QUERIES: u64 = 20 * 8 * PASS;
/// Hard stop of the measured loop past its nominal end.
const GRACE: Duration = Duration::from_secs(60);
/// Standalone parse/compile repetitions per constraint in the traced run.
const COMPILE_REPS: usize = 5;

fn corpus_name(data: Data) -> &'static str {
    match data {
        Data::Nyt => "nyt",
        Data::Amzn => "amzn",
    }
}

fn alias(data: Data, pass: u64) -> String {
    format!("{}~{pass}", corpus_name(data))
}

/// N1–N5 at σ=10 and A1, A2, A4 at σ=5.
fn mix() -> Vec<(Constraint, Data, u64)> {
    let nyt = patterns::nyt_constraints()
        .into_iter()
        .map(|c| (c, Data::Nyt, corpus::NYT_SIGMA));
    let amzn = [patterns::a1(), patterns::a2(), patterns::a4()]
        .into_iter()
        .map(|c| (c, Data::Amzn, AMZN_SIGMA));
    nyt.chain(amzn).collect()
}

/// Query `i` of the run: which constraint, and for the pass's miss, the
/// pass number that names its fresh alias. The misses cycle through the
/// constraints, so each gets its share for `cold_query_ms_p50`.
fn schedule(seed: u64, kinds: usize, i: u64) -> (usize, Option<u64>) {
    let pass = i / PASS;
    let mut rng = Rng::new(seed.wrapping_add(pass));
    let mut slots: Vec<Option<usize>> = (0..kinds).map(Some).chain([None]).collect();
    rng.shuffle(&mut slots);
    let miss = (seed.wrapping_add(pass) % kinds as u64) as usize;
    match slots[(i % PASS) as usize] {
        Some(c) => (c, None),
        None => (miss, Some(pass)),
    }
}

// Refusals and failures are rare; boxing the common variant would only
// add an allocation per query.
#[allow(clippy::large_enum_variant)]
enum Outcome {
    Ok {
        digest: Digest,
        mining: MiningMetrics,
        stats: ServerStats,
    },
    Busy {
        cap: u64,
    },
    Failed(String),
}

struct QueryRec {
    constraint: usize,
    miss: bool,
    total_ns: u64,
    connect_ns: u64,
    first_ns: u64,
    last_ns: u64,
    bytes: u64,
    traced: bool,
    outcome: Outcome,
}

impl QueryRec {
    fn ok(&self) -> Option<(&MiningMetrics, &ServerStats)> {
        match &self.outcome {
            Outcome::Ok { mining, stats, .. } => Some((mining, stats)),
            _ => None,
        }
    }
}

/// One query over its own connection, timed by the client from connect to
/// the terminal frame.
fn query(addr: SocketAddr, req: &Request, tracer: &Tracer, op: u64) -> QueryRec {
    let t0 = Instant::now();
    let mut t_conn = t0;
    let mut t_first = None;
    let mut bytes = 0u64;
    let mut exchange = || -> Result<Outcome, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        t_conn = Instant::now();
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
        write_frame(&mut writer, &Message::Request(req.clone()))
            .map_err(|e| format!("send: {e}"))?;
        let mut reader = BufReader::new(stream);
        let mut patterns = Vec::new();
        loop {
            let payload = read_frame(&mut reader).map_err(|e| format!("receive: {e}"))?;
            t_first.get_or_insert_with(Instant::now);
            bytes += payload.len() as u64;
            match Message::decode(&payload).map_err(|e| format!("decode: {e}"))? {
                Message::Patterns(batch) => patterns.extend(batch),
                Message::Metrics { mining, stats } => {
                    return Ok(Outcome::Ok {
                        digest: Digest::of(&patterns),
                        mining,
                        stats,
                    })
                }
                Message::Busy { cap, .. } => return Ok(Outcome::Busy { cap }),
                Message::Error(e) => return Ok(Outcome::Failed(format!("remote: {e}"))),
                Message::Request(_) => return Err("server sent a request frame".into()),
            }
        }
    };
    let outcome = exchange().unwrap_or_else(Outcome::Failed);
    let t_last = Instant::now();
    let t_first = t_first.unwrap_or(t_last);
    let root = tracer.record("query", SpanId::ROOT, op, t0, t_last);
    tracer.record("serve.connect", root, op, t0, t_conn);
    tracer.record("serve.first_frame", root, op, t_conn, t_first);
    tracer.record("serve.last_frame", root, op, t_first, t_last);
    let ns = |a: Instant, b: Instant| b.saturating_duration_since(a).as_nanos() as u64;
    QueryRec {
        constraint: 0,
        miss: false,
        total_ns: ns(t0, t_last),
        connect_ns: ns(t0, t_conn),
        first_ns: ns(t_conn, t_first),
        last_ns: ns(t_first, t_last),
        bytes,
        traced: false,
        outcome,
    }
}

fn request(c: &Constraint, corpus: String, sigma: u64) -> Request {
    Request::new(corpus, c.expr.clone(), sigma).unanchored()
}

/// What the clients need to issue the schedule.
struct Clients<'a> {
    addr: SocketAddr,
    mix: &'a [(Constraint, Data, u64)],
    seed: u64,
    aliases: u64,
    tracer: &'a Tracer,
}

impl Clients<'_> {
    /// Runs the clients until `seconds` have passed and at least
    /// [`MIN_QUERIES`] were issued; returns the records and the wall time.
    /// In the traced run every other query records spans, so traced and
    /// untraced queries interleave and their latencies give
    /// `trace.overhead_frac` free of drift.
    fn drive(&self, seconds: Duration) -> (Vec<QueryRec>, f64) {
        let next = AtomicU64::new(0);
        let off = Tracer::new(false);
        let t0 = Instant::now();
        let (until, hard) = (t0 + seconds, t0 + seconds + GRACE);
        let recs: Vec<QueryRec> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    s.spawn(|| {
                        let mut recs = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            let now = Instant::now();
                            let done = now >= until && i >= MIN_QUERIES;
                            if done || now >= hard || i / PASS >= self.aliases {
                                break;
                            }
                            let (c, miss) = schedule(self.seed, self.mix.len(), i);
                            let (constraint, data, sigma) = &self.mix[c];
                            let name =
                                miss.map_or(corpus_name(*data).to_string(), |p| alias(*data, p));
                            let tracer = if i.is_multiple_of(2) {
                                self.tracer
                            } else {
                                &off
                            };
                            let mut rec =
                                query(self.addr, &request(constraint, name, *sigma), tracer, i + 1);
                            rec.constraint = c;
                            rec.miss = miss.is_some();
                            rec.traced = !std::ptr::eq(tracer, &off);
                            recs.push(rec);
                        }
                        recs
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        (recs, t0.elapsed().as_secs_f64())
    }
}

struct Setup {
    corpora: Corpora,
    /// Digest of each constraint's warm-up query.
    warm: Vec<Result<Digest, String>>,
}

/// Datagen, corpus store with its aliases, server spawn, and one warm-up
/// query per constraint to fill the FST cache.
fn setup(
    mix: &[(Constraint, Data, u64)],
    aliases: u64,
    tracer: &Tracer,
) -> (Setup, ServerHandle, corpus::DatagenTimes) {
    // The standard corpora, as in the batch workloads: across generated
    // corpora the A1 query alone ranges from 70 to 107 ms, which moves
    // `qps` by a quarter from seed to seed.
    let (corpora, times) = corpus::generate(None, CORPUS_SIZE, CORPUS_SIZE, tracer);
    let mut store = CorpusStore::new();
    for data in [Data::Nyt, Data::Amzn] {
        let c = corpora.get(data);
        store.insert(corpus_name(data), c.dict.clone(), c.db.clone());
        for p in 0..aliases {
            store.insert(alias(data, p), c.dict.clone(), c.db.clone());
        }
    }
    let handle = Server::new(store)
        .with_limits(ServeLimits::default())
        .spawn("127.0.0.1:0")
        .expect("bind an ephemeral localhost port");
    let off = Tracer::new(false);
    let warm = mix
        .iter()
        .map(|(c, data, sigma)| {
            let rec = query(
                handle.addr(),
                &request(c, corpus_name(*data).into(), *sigma),
                &off,
                0,
            );
            match rec.outcome {
                Outcome::Ok { digest, .. } => Ok(digest),
                Outcome::Busy { cap } => {
                    Err(format!("{}: warm-up refused Busy (cap {cap})", c.name))
                }
                Outcome::Failed(e) => Err(format!("{}: warm-up failed: {e}", c.name)),
            }
        })
        .collect();
    (Setup { corpora, warm }, handle, times)
}

pub fn run(opts: &Options, tracer: &Tracer, report: &mut Report) {
    let mix = mix();
    let limits = ServeLimits::default();
    report.env("corpus_sequences", CORPUS_SIZE);
    report.env("clients", CLIENTS);
    report.env("admission_cap", limits.max_inflight);
    report.env(
        "mix",
        mix.iter()
            .map(|(c, _, s)| format!("{}@{s}", c.name))
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.scalar("serve.admission_cap", limits.max_inflight as f64, 1);

    // One alias per mix pass: enough for 400 queries per second, or for
    // the minimum query count.
    let aliases = (opts.seconds.as_secs_f64() * 400.0) as u64 / PASS + MIN_QUERIES * 2 / PASS;
    let mut setup_s = Vec::new();
    let (mut nyt_s, mut amzn_s) = (Vec::new(), Vec::new());
    let mut ready: Option<(Setup, ServerHandle)> = None;
    for _ in 0..crate::mine::SETUP_REPS {
        if let Some((_, handle)) = ready.take() {
            handle.shutdown();
        }
        let t = Instant::now();
        let (s, handle, times) = setup(&mix, aliases, tracer);
        setup_s.push(t.elapsed().as_secs_f64());
        nyt_s.push(times.nyt_s);
        amzn_s.push(times.amzn_s);
        ready = Some((s, handle));
    }
    let (ready, handle) = ready.expect("set-up ran");
    report.samples("setup_s", &setup_s);
    report.samples("datagen.nyt_s", &nyt_s);
    report.samples("datagen.amzn_s", &amzn_s);

    let clients = Clients {
        addr: handle.addr(),
        mix: &mix,
        seed: corpus::derive(opts.seed, corpus::ORDER_STREAM),
        aliases,
        tracer,
    };
    let (recs, elapsed) = clients.drive(opts.seconds);
    handle.shutdown();
    report.env("passes", recs.len() as u64 / PASS);

    check(report, &mix, &ready, &recs);
    end_to_end(report, &mix, &recs, elapsed);
    layers(report, &mix, &recs);

    if opts.trace {
        overhead(report, mix.len(), &recs);
        standalone_compile(report, &mix, &ready.corpora, tracer);
        let traced = recs.iter().filter(|r| r.traced).count();
        // Operation 0 holds the set-up and standalone spans.
        report.self_times(trace::self_times(&tracer.spans(), |s| s.op > 0), traced);
    }
}

/// `trace.overhead_frac`: per constraint, the median latency of traced
/// queries over that of untraced ones; the geometric mean, minus one.
fn overhead(report: &mut Report, kinds: usize, recs: &[QueryRec]) {
    let median_of = |c: usize, traced: bool| {
        let v: Vec<f64> = recs
            .iter()
            .filter(|r| r.constraint == c && r.traced == traced && r.ok().is_some())
            .map(|r| r.total_ns as f64)
            .collect();
        Summary::of(&v).map(|s| s.median)
    };
    let ratios: Vec<f64> = (0..kinds)
        .filter_map(|c| Some(median_of(c, true)? / median_of(c, false)?))
        .collect();
    if let Some(g) = geomean(&ratios) {
        report.scalar("trace.overhead_frac", g - 1.0, ratios.len());
    }
}

/// Counts failures and checks every result: each query against an
/// in-process D-SEQ run of its constraint (so a miss and a hit of the same
/// pexp must agree), and the cache flag against the schedule.
fn check(report: &mut Report, mix: &[(Constraint, Data, u64)], ready: &Setup, recs: &[QueryRec]) {
    let expected: Vec<Result<Digest, String>> = mix
        .iter()
        .map(|(c, data, sigma)| {
            let corpus = ready.corpora.get(*data);
            MiningSession::builder()
                .dictionary(corpus.dict.clone())
                .database(corpus.db.clone())
                .pattern_unanchored(&c.expr)
                .sigma(*sigma)
                .algorithm(AlgorithmSpec::d_seq())
                .workers(CLIENTS)
                .build()
                .and_then(|s| s.run())
                .map(|r| Digest::of(&r.patterns))
                .map_err(|e| format!("{}: reference failed: {e}", c.name))
        })
        .collect();
    for ((c, _, _), (warm, want)) in mix.iter().zip(ready.warm.iter().zip(&expected)) {
        match (warm, want) {
            (Ok(w), Ok(e)) if w != e => report.mismatch(format!(
                "{}: warm-up result {w} differs from D-SEQ {e}",
                c.name
            )),
            (Err(e), _) | (_, Err(e)) => report.mismatch(e.clone()),
            _ => {}
        }
    }
    report.attempted = recs.len() as u64;
    let mut busy = 0u64;
    for r in recs {
        let name = &mix[r.constraint].0.name;
        match &r.outcome {
            Outcome::Ok { digest, stats, .. } => {
                if let Ok(want) = &expected[r.constraint] {
                    if digest != want {
                        report.mismatch(format!(
                            "{name} (miss={}): result {digest} differs from D-SEQ {want}",
                            r.miss
                        ));
                    }
                }
                if stats.cache_hit == r.miss {
                    report.mismatch(format!(
                        "{name}: cache_hit={} on a query scheduled as miss={}",
                        stats.cache_hit, r.miss
                    ));
                }
            }
            // Refusals count as failed and are never retried.
            Outcome::Busy { cap } => {
                busy += 1;
                report.failed += 1;
                report.env("busy_cap_seen", cap);
            }
            Outcome::Failed(e) => {
                report.failed += 1;
                report.mismatches.push(format!("{name}: {e}"));
            }
        }
    }
    report.scalar("serve.busy", busy as f64, recs.len());
    report.scalar(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn end_to_end(
    report: &mut Report,
    mix: &[(Constraint, Data, u64)],
    recs: &[QueryRec],
    elapsed: f64,
) {
    let ok: Vec<&QueryRec> = recs.iter().filter(|r| r.ok().is_some()).collect();
    report.scalar("qps", ok.len() as f64 / elapsed, ok.len());
    report.scalar(
        "batch_s",
        elapsed * PASS as f64 / recs.len().max(1) as f64,
        recs.len(),
    );
    // Each constraint at its median latency. The mix weighs the constraints
    // alike, so a median pooled over all queries falls in the gap between
    // the fourth and the fifth fastest constraint and swings between them.
    let per_constraint = |misses_only: bool| -> Option<Vec<f64>> {
        (0..mix.len())
            .map(|c| {
                let v: Vec<f64> = ok
                    .iter()
                    .filter(|r| r.constraint == c && (r.miss || !misses_only))
                    .map(|r| ms(r.total_ns))
                    .collect();
                percentile(&v, 50.0)
            })
            .collect()
    };
    if let Some(medians) = per_constraint(false) {
        report.samples("query_ms_p50", &medians);
        if let Some(g) = geomean(&medians) {
            report.scalar("job_geomean_ms", g, medians.len());
        }
        let listed: Vec<String> = mix
            .iter()
            .zip(&medians)
            .map(|((c, _, _), t)| format!("{}={t:.2}", c.name))
            .collect();
        report.env("query_ms", listed.join(" "));
    }
    if let Some(medians) = per_constraint(true) {
        report.samples("cold_query_ms_p50", &medians);
    }
    let totals: Vec<f64> = ok.iter().map(|r| ms(r.total_ns)).collect();
    if let Some(p99) = percentile(&totals, 99.0) {
        report.scalar("query_ms_p99", p99, totals.len());
    }
}

/// The client-side phases, the server's own accounting and the FST sizes.
fn layers(report: &mut Report, mix: &[(Constraint, Data, u64)], recs: &[QueryRec]) {
    let ok: Vec<(&QueryRec, &MiningMetrics, &ServerStats)> = recs
        .iter()
        .filter_map(|r| r.ok().map(|(m, s)| (r, m, s)))
        .collect();
    let med = |f: &dyn Fn(&QueryRec, &MiningMetrics, &ServerStats) -> f64| -> Vec<f64> {
        ok.iter().map(|&(r, m, s)| f(r, m, s)).collect()
    };
    report.samples("serve.connect_ms", &med(&|r, _, _| ms(r.connect_ns)));
    report.samples("serve.first_frame_ms", &med(&|r, _, _| ms(r.first_ns)));
    report.samples("serve.last_frame_ms", &med(&|r, _, _| ms(r.last_ns)));
    report.samples(
        "serve.queue_wait_ms",
        &med(&|_, _, s| ms(s.queue_wait_nanos)),
    );
    report.samples("serve.mine_ms", &med(&|_, m, _| ms(m.wall_nanos)));
    // Client total minus what the server accounts for: connect, framing,
    // thread spawn and the wire. Queue wait + mine + this = client total.
    let unattributed = med(&|r, m, s| ms(r.total_ns) - ms(s.queue_wait_nanos) - ms(m.wall_nanos));
    report.env(
        "negative_unattributed",
        unattributed.iter().filter(|&&v| v < 0.0).count(),
    );
    report.samples("serve.unattributed_ms", &unattributed);
    let compiles: Vec<f64> = ok
        .iter()
        .filter(|(r, _, _)| r.miss)
        .map(|&(_, _, s)| ms(s.compile_nanos))
        .collect();
    report.samples("serve.compile_ms", &compiles);
    if !ok.is_empty() {
        let hits = ok.iter().filter(|(_, _, s)| s.cache_hit).count();
        report.scalar(
            "serve.cache_hit_ratio",
            hits as f64 / ok.len() as f64,
            ok.len(),
        );
        let bytes: u64 = ok.iter().map(|(r, _, _)| r.bytes).sum();
        report.scalar(
            "serve.bytes_per_query",
            bytes as f64 / ok.len() as f64,
            ok.len(),
        );
    }
    // The failure counters are global since server start: the largest
    // value seen is the run's total.
    let last = |f: &dyn Fn(&ServerStats) -> u64| {
        ok.iter().map(|&(_, _, s)| f(s)).max().unwrap_or(0) as f64
    };
    report.scalar("serve.timeouts", last(&|s| s.timeouts), ok.len());
    report.scalar("serve.panics", last(&|s| s.panics), ok.len());
    report.scalar("serve.cancels", last(&|s| s.cancels), ok.len());
    let (mut states, mut transitions) = (0u64, 0u64);
    for c in 0..mix.len() {
        if let Some((_, _, s)) = ok.iter().find(|(r, _, _)| r.constraint == c) {
            states += s.fst_states_after;
            transitions += s.fst_transitions_after;
        }
    }
    report.scalar("fst.states", states as f64, mix.len());
    report.scalar("fst.transitions", transitions as f64, mix.len());
}

/// `pexp.parse_us` and `fst.compile_us`: the calls a miss makes on the
/// server, timed standalone on the same corpora.
fn standalone_compile(
    report: &mut Report,
    mix: &[(Constraint, Data, u64)],
    corpora: &Corpora,
    tracer: &Tracer,
) {
    let (mut parse, mut compile) = (Vec::new(), Vec::new());
    for (c, data, _) in mix {
        let dict = &corpora.get(*data).dict;
        for _ in 0..COMPILE_REPS {
            let t = Instant::now();
            let pexp = tracer.span("core.pexp", SpanId::ROOT, 0, || {
                PatEx::parse(&c.expr).map(PatEx::unanchored)
            });
            parse.push(t.elapsed().as_nanos() as f64 / 1e3);
            let Ok(pexp) = pexp else { break };
            let t = Instant::now();
            let fst = tracer.span("core.fst", SpanId::ROOT, 0, || {
                Fst::compile_with(&pexp, dict, OptLevel::Full)
            });
            compile.push(t.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(fst.ok());
        }
    }
    report.samples("pexp.parse_us", &parse);
    report.samples("fst.compile_us", &compile);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_pass_has_every_constraint_once_and_one_fresh_miss() {
        for pass in 0..50u64 {
            let ops: Vec<(usize, Option<u64>)> = (pass * PASS..(pass + 1) * PASS)
                .map(|i| schedule(42, 8, i))
                .collect();
            let mut hits: Vec<usize> = ops
                .iter()
                .filter(|(_, m)| m.is_none())
                .map(|&(c, _)| c)
                .collect();
            hits.sort_unstable();
            assert_eq!(hits, (0..8).collect::<Vec<_>>());
            let misses: Vec<Option<u64>> = ops.iter().filter_map(|&(_, m)| m.map(Some)).collect();
            assert_eq!(misses, vec![Some(pass)]);
        }
        // Eight consecutive passes miss on each constraint once.
        let mut missed: Vec<usize> = (0..8 * PASS)
            .map(|i| schedule(42, 8, i))
            .filter_map(|(c, m)| m.map(|_| c))
            .collect();
        missed.sort_unstable();
        assert_eq!(missed, (0..8).collect::<Vec<_>>());
        assert_eq!(schedule(1, 8, 5), schedule(1, 8, 5));
    }
}
