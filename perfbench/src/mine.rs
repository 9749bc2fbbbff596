//! The batch workloads: `mine-local` (in-process DESQ-DFS) and
//! `mine-dist` (in-process BSP running D-SEQ and D-CAND).
//!
//! A pass runs the workload's job list once, in an order drawn from the
//! seed. Each job parses and compiles its constraint, builds a session and
//! runs it; the job's wall time covers all four calls.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use desq::session::{AlgorithmSpec, MiningSession};
use desq::ExecutionPolicy;
use desq_core::{Error, Fst, MiningMetrics, OptLevel, PatEx};
use desq_dist::pivots::PivotSearch;
use desq_miner::{LocalMiner, MinerConfig, WeightedInput};

use crate::corpus::{self, Corpora, Job, Rng};
use crate::report::Report;
use crate::stats::{geomean, Digest, Summary};
use crate::trace::{self, SpanId, Tracer};
use crate::Options;

/// Sequences per generated corpus.
pub const CORPUS_SIZE: usize = 40_000;
/// Worker threads of every session, sized for a two-core machine.
pub const WORKERS: usize = 2;
/// Map partitions and reduce buckets of the BSP jobs.
pub const PARTITIONS: usize = 4;
pub const REDUCERS: usize = 4;
/// Times the set-up is repeated to report its median.
pub const SETUP_REPS: usize = 5;

/// Generated corpora, besides the standard ones, on which the traced
/// `mine-local` run probes the cost model (`miner.auto_misroutes`).
const PROBE_CORPORA: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Local,
    Dist,
}

/// Span name of the `MiningSession::run` call: the layer it enters.
fn run_layer(spec: &AlgorithmSpec) -> &'static str {
    match spec {
        AlgorithmSpec::DesqDfs => "miner",
        _ => "dist",
    }
}

/// One executed job and where its wall time went.
struct JobRun {
    job: usize,
    wall_ns: u64,
    parse_ns: u64,
    compile_ns: u64,
    build_ns: u64,
    run_ns: u64,
    /// Recorded spans (the traced run alternates, see [`run_pass`]).
    traced: bool,
    outcome: Result<(Digest, MiningMetrics), Error>,
}

impl JobRun {
    fn ok(&self) -> Option<&MiningMetrics> {
        self.outcome.as_ref().ok().map(|(_, m)| m)
    }
}

struct Pass {
    wall_ns: u64,
    runs: Vec<JobRun>,
}

fn run_job(
    job: &Job,
    idx: usize,
    corpora: &Corpora,
    exec: ExecutionPolicy,
    deadline: Option<Duration>,
    tracer: &Tracer,
    op: u64,
) -> JobRun {
    let corpus = corpora.get(job.data);
    let mut r = JobRun {
        job: idx,
        wall_ns: 0,
        parse_ns: 0,
        compile_ns: 0,
        build_ns: 0,
        run_ns: 0,
        traced: false,
        outcome: Err(Error::Invalid("not run".into())),
    };
    let t0 = Instant::now();
    let root = tracer.open("job", SpanId::ROOT, op);
    let timed = |ns: &mut u64, name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        tracer.span(name, root, op, f);
        *ns = t.elapsed().as_nanos() as u64;
    };
    let mut outcome = || -> desq_core::Result<(Digest, MiningMetrics)> {
        let mut pexp = None;
        timed(&mut r.parse_ns, "core.pexp", &mut || {
            pexp = Some(PatEx::parse(&job.constraint.expr).map(PatEx::unanchored));
        });
        let pexp = pexp.expect("parse ran")?;
        let mut fst = None;
        timed(&mut r.compile_ns, "core.fst", &mut || {
            fst = Some(Fst::compile_with(&pexp, &corpus.dict, OptLevel::Full));
        });
        let fst = Arc::new(fst.expect("compile ran")?);
        let mut session = None;
        timed(&mut r.build_ns, "session", &mut || {
            let builder = MiningSession::builder()
                .dictionary(corpus.dict.clone())
                .database(corpus.db.clone())
                .fst(fst.clone())
                .sigma(job.sigma)
                .algorithm(job.spec)
                .workers(WORKERS)
                .partitions(PARTITIONS)
                .reducers(REDUCERS)
                .execution_policy(exec);
            session = Some(match deadline {
                Some(d) => builder.deadline(d).build(),
                None => builder.build(),
            });
        });
        let session = session.expect("build ran")?;
        let mut result = None;
        timed(&mut r.run_ns, run_layer(&job.spec), &mut || {
            result = Some(session.run())
        });
        let result = result.expect("run ran")?;
        Ok((Digest::of(&result.patterns), result.metrics))
    };
    let outcome = outcome();
    tracer.close(root);
    r.wall_ns = t0.elapsed().as_nanos() as u64;
    r.outcome = outcome;
    r
}

/// Runs every job once in the pass's seeded order. With `traced =
/// Some((tracer, pass))` job `j` records spans when `j + pass` is even, so
/// over two passes each job runs once traced and once not: the pairs give
/// `trace.overhead_frac` free of drift between passes.
fn run_pass(
    jobs: &[Job],
    corpora: &Corpora,
    exec: ExecutionPolicy,
    traced: Option<(&Tracer, usize)>,
    order_seed: u64,
    next_op: &mut u64,
) -> Pass {
    let off = Tracer::new(false);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    Rng::new(order_seed).shuffle(&mut order);
    let t0 = Instant::now();
    let runs = order
        .into_iter()
        .map(|i| {
            *next_op += 1;
            let tracer = match traced {
                Some((tracer, pass)) if (i + pass).is_multiple_of(2) => tracer,
                _ => &off,
            };
            let mut r = run_job(&jobs[i], i, corpora, exec, None, tracer, *next_op);
            r.traced = !std::ptr::eq(tracer, &off);
            r
        })
        .collect();
    Pass {
        wall_ns: t0.elapsed().as_nanos() as u64,
        runs,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run(kind: Kind, opts: &Options, tracer: &Tracer, report: &mut Report) {
    let jobs = match kind {
        Kind::Local => corpus::local_jobs(),
        Kind::Dist => corpus::dist_jobs(),
    };
    report.env("corpus_sequences", CORPUS_SIZE);
    report.env("workers", WORKERS);
    if kind == Kind::Dist {
        report.env("partitions", PARTITIONS);
        report.env("reducers", REDUCERS);
    }
    report.env(
        "jobs",
        jobs.iter()
            .map(|j| j.name.as_str())
            .collect::<Vec<_>>()
            .join(" "),
    );

    // Set-up: datagen, repeated so its median is steady. The batch
    // workloads mine the standard corpora and draw only the job order from
    // the seed: the `Auto` cost model routes some jobs to the lean path on
    // some generated corpora and not on others, which swings a pass
    // between 7 s and 56 s across seeds (`miner.auto_misroutes` tracks it
    // instead).
    let mut setup_s = Vec::new();
    let (mut nyt_s, mut amzn_s) = (Vec::new(), Vec::new());
    let mut corpora = None;
    for _ in 0..SETUP_REPS {
        // Free the previous copy first so the peak holds one.
        drop(corpora.take());
        let t = Instant::now();
        let (c, times) = corpus::generate(None, CORPUS_SIZE, CORPUS_SIZE, tracer);
        setup_s.push(t.elapsed().as_secs_f64());
        nyt_s.push(times.nyt_s);
        amzn_s.push(times.amzn_s);
        corpora = Some(c);
    }
    let corpora = corpora.expect("set-up ran");
    report.samples("setup_s", &setup_s);
    report.samples("datagen.nyt_s", &nyt_s);
    report.samples("datagen.amzn_s", &amzn_s);

    let order_seed = corpus::derive(opts.seed, corpus::ORDER_STREAM);
    let mut next_op = 0u64;
    let t_measure = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // The traced run needs two passes to pair traced and untraced runs.
    let min_passes = if opts.trace { 2 } else { 1 };
    while passes.len() < min_passes || t_measure.elapsed() < opts.seconds {
        let seed = order_seed.wrapping_add(passes.len() as u64 + 1);
        let traced = opts.trace.then_some((tracer, passes.len()));
        passes.push(run_pass(
            &jobs,
            &corpora,
            ExecutionPolicy::Auto,
            traced,
            seed,
            &mut next_op,
        ));
    }
    let measured_s = t_measure.elapsed().as_secs_f64();
    report.env("passes", passes.len());

    // Correctness: every pass must reproduce the first pass's results.
    let all_runs = || passes.iter().flat_map(|p| p.runs.iter());
    report.attempted = all_runs().count() as u64;
    let mut first: BTreeMap<usize, Digest> = BTreeMap::new();
    for r in all_runs() {
        match &r.outcome {
            Err(e) => {
                report.failed += 1;
                report.mismatches.push(format!("{}: {e}", jobs[r.job].name));
            }
            Ok((d, _)) => match first.get(&r.job) {
                None => {
                    first.insert(r.job, *d);
                }
                Some(f) if f != d => {
                    report.mismatch(format!(
                        "{}: pass result {d} differs from first pass {f}",
                        jobs[r.job].name
                    ));
                }
                Some(_) => {}
            },
        }
    }

    end_to_end(report, &jobs, &passes, measured_s);
    counters(report, kind, &passes);

    match kind {
        Kind::Local => {
            // Flat is the reference: an independent path for every job the
            // cost model sends to the lean path.
            let flat = run_pass(
                &jobs,
                &corpora,
                ExecutionPolicy::Flat,
                None,
                order_seed,
                &mut next_op,
            );
            check_against(report, &jobs, &first, &flat, "Flat");
            if opts.trace {
                let lean = run_pass(
                    &jobs,
                    &corpora,
                    ExecutionPolicy::Lean,
                    None,
                    order_seed,
                    &mut next_op,
                );
                check_against(report, &jobs, &first, &lean, "Lean");
                regret(report, &jobs, &passes, &flat, &lean);
                tables(report, &jobs, &corpora, tracer);
                misroutes(report, &jobs, opts.seed);
            }
        }
        Kind::Dist => {
            dist_reference(report, &jobs, &corpora, &first);
            if opts.trace {
                pivots(report, &jobs, &corpora, tracer);
            }
        }
    }

    if opts.trace {
        overhead(report, jobs.len(), &passes);
        let traced_ops = passes
            .iter()
            .flat_map(|p| &p.runs)
            .filter(|r| r.traced)
            .count();
        // Operation 0 holds the set-up and standalone spans.
        report.self_times(trace::self_times(&tracer.spans(), |s| s.op > 0), traced_ops);
    }
}

/// `trace.overhead_frac`: per job, the median traced wall time over the
/// median untraced one; the geometric mean of these ratios, minus one.
fn overhead(report: &mut Report, jobs: usize, passes: &[Pass]) {
    let median_of = |j: usize, traced: bool| {
        let v: Vec<f64> = passes
            .iter()
            .flat_map(|p| &p.runs)
            .filter(|r| r.job == j && r.traced == traced && r.ok().is_some())
            .map(|r| r.wall_ns as f64)
            .collect();
        Summary::of(&v).map(|s| s.median)
    };
    let ratios: Vec<f64> = (0..jobs)
        .filter_map(|j| Some(median_of(j, true)? / median_of(j, false)?))
        .collect();
    if let Some(g) = geomean(&ratios) {
        report.scalar("trace.overhead_frac", g - 1.0, ratios.len());
    }
}

/// `batch_s`, `job_geomean_ms`, `query_ms_p50` and `qps`.
fn end_to_end(report: &mut Report, jobs: &[Job], passes: &[Pass], measured_s: f64) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    report.samples("batch_s", &walls);
    report.env(
        "pass_s",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let per_job: Vec<f64> = (0..jobs.len())
        .filter_map(|j| {
            let v: Vec<f64> = passes
                .iter()
                .flat_map(|p| &p.runs)
                .filter(|r| r.job == j && r.ok().is_some())
                .map(|r| ms(r.wall_ns))
                .collect();
            Summary::of(&v).map(|s| s.median)
        })
        .collect();
    if let Some(g) = geomean(&per_job) {
        report.scalar("job_geomean_ms", g, per_job.len());
    }
    if per_job.len() == jobs.len() {
        let listed: Vec<String> = jobs
            .iter()
            .zip(&per_job)
            .map(|(j, t)| format!("{}={t:.1}", j.name))
            .collect();
        report.env("job_ms", listed.join(" "));
    }
    // The median job, each job at its median: pooling all runs would mix
    // two jobs' distributions whenever the median falls between them.
    report.samples("query_ms_p50", &per_job);
    let ok = passes
        .iter()
        .flat_map(|p| &p.runs)
        .filter(|r| r.ok().is_some())
        .count();
    report.scalar("qps", ok as f64 / measured_s, ok);
    report.scalar(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );
}

/// Per-pass sums of the counters the program returns in `MiningMetrics`,
/// plus the benchmark's own per-call times.
fn counters(report: &mut Report, kind: Kind, passes: &[Pass]) {
    let per_pass = |f: &dyn Fn(&JobRun, &MiningMetrics) -> f64| -> Vec<f64> {
        passes
            .iter()
            .map(|p| p.runs.iter().filter_map(|r| r.ok().map(|m| f(r, m))).sum())
            .collect()
    };
    let ratio = |num: &dyn Fn(&JobRun, &MiningMetrics) -> f64,
                 den: &dyn Fn(&JobRun, &MiningMetrics) -> f64|
     -> Vec<f64> {
        per_pass(num)
            .into_iter()
            .zip(per_pass(den))
            .filter(|&(_, d)| d > 0.0)
            .map(|(n, d)| n / d)
            .collect()
    };
    let jobs_per_pass = passes[0].runs.len() as f64;
    report.samples(
        "pexp.parse_us",
        &per_pass(&|r, _| r.parse_ns as f64 / 1e3 / jobs_per_pass),
    );
    report.samples(
        "fst.compile_us",
        &per_pass(&|r, _| r.compile_ns as f64 / 1e3 / jobs_per_pass),
    );
    report.samples("fst.states", &per_pass(&|_, m| m.fst_states_after as f64));
    report.samples(
        "fst.transitions",
        &per_pass(&|_, m| m.fst_transitions_after as f64),
    );
    match kind {
        Kind::Local => {
            report.samples("miner.run_ms", &per_pass(&|r, _| ms(r.run_ns)));
            report.samples(
                "miner.serial_ms",
                &per_pass(&|_, m| {
                    ms(m.wall_nanos
                        .saturating_sub(m.worker_nanos.iter().copied().max().unwrap_or(0)))
                }),
            );
            report.samples(
                "miner.busy_share",
                &ratio(
                    &|_, m| m.worker_nanos.iter().sum::<u64>() as f64,
                    &|_, m| (m.workers * m.wall_nanos) as f64,
                ),
            );
            report.samples("miner.tasks", &per_pass(&|_, m| m.tasks as f64));
            report.samples("miner.steals", &per_pass(&|_, m| m.steals as f64));
            report.samples(
                "miner.useful_ratio",
                &ratio(&|_, m| m.output_records as f64, &|_, m| {
                    m.emitted_records as f64
                }),
            );
            // The lean path reports generated candidates as its work, the
            // flat path its patterns: more work than output marks a lean run.
            report.samples(
                "miner.lean_jobs",
                &per_pass(&|_, m| f64::from(u8::from(m.emitted_records > m.output_records))),
            );
        }
        Kind::Dist => {
            report.samples("dist.map_ms", &per_pass(&|_, m| ms(m.map_nanos)));
            report.samples("dist.reduce_ms", &per_pass(&|_, m| ms(m.reduce_nanos)));
            // What the named layers leave of each job's wall time; the
            // named times plus this sum to the job's wall time exactly.
            report.samples(
                "dist.other_ms",
                &per_pass(&|r, m| {
                    ms(r.wall_ns)
                        - ms(r.parse_ns + r.compile_ns + r.build_ns + m.map_nanos + m.reduce_nanos)
                }),
            );
            report.samples(
                "bsp.shuffle_records",
                &per_pass(&|_, m| m.shuffle_records as f64),
            );
            report.samples(
                "bsp.shuffle_payloads",
                &per_pass(&|_, m| m.shuffle_payloads as f64),
            );
            report.samples(
                "bsp.payload_share",
                &ratio(&|_, m| m.shuffle_payloads as f64, &|_, m| {
                    m.shuffle_records as f64
                }),
            );
            let skew: Vec<f64> = passes
                .iter()
                .map(|p| {
                    p.runs
                        .iter()
                        .filter_map(JobRun::ok)
                        .filter_map(|m| {
                            let total: u64 = m.reducer_bytes.iter().sum();
                            let max = *m.reducer_bytes.iter().max()?;
                            (total > 0)
                                .then(|| max as f64 * m.reducer_bytes.len() as f64 / total as f64)
                        })
                        .fold(0.0, f64::max)
                })
                .collect();
            report.samples("bsp.reducer_skew", &skew);
            report.samples("bsp.straggler_ms", &per_pass(&|_, m| ms(m.max_task_nanos)));
            report.samples(
                "shuffle_mb",
                &per_pass(&|_, m| m.shuffle_bytes as f64 / f64::from(1 << 20)),
            );
        }
    }
}

fn check_against(
    report: &mut Report,
    jobs: &[Job],
    first: &BTreeMap<usize, Digest>,
    pass: &Pass,
    label: &str,
) {
    for r in &pass.runs {
        match (&r.outcome, first.get(&r.job)) {
            (Ok((d, _)), Some(f)) if d != f => report.mismatch(format!(
                "{}: Auto result {f} differs from {label} result {d}",
                jobs[r.job].name
            )),
            (Ok(_), _) => {}
            // The forced lean path reports budget exhaustion instead of
            // falling back; that is its documented behaviour, not a fault
            // (`regret` lists such jobs).
            (Err(_), _) if label == "Lean" => {}
            (Err(e), _) => report.mismatch(format!(
                "{}: {label} reference failed: {e}",
                jobs[r.job].name
            )),
        }
    }
}

/// `miner.auto_regret_*`: Auto's run time over the faster of the two
/// forced paths, per job.
fn regret(report: &mut Report, jobs: &[Job], passes: &[Pass], flat: &Pass, lean: &Pass) {
    let run_of = |pass: &Pass, j: usize| {
        pass.runs
            .iter()
            .find(|r| r.job == j && r.ok().is_some())
            .map(|r| r.run_ns as f64)
    };
    let mut regrets = Vec::new();
    let mut lean_failed = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let auto: Vec<f64> = passes.iter().filter_map(|p| run_of(p, j)).collect();
        let Some(auto) = Summary::of(&auto).map(|s| s.median) else {
            continue;
        };
        let lean_ns = run_of(lean, j);
        if lean_ns.is_none() {
            lean_failed.push(job.name.clone());
        }
        let best = [run_of(flat, j), lean_ns]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() && best > 0.0 {
            regrets.push((job.name.clone(), auto / best));
        }
    }
    let values: Vec<f64> = regrets.iter().map(|&(_, r)| r).collect();
    if let Some(g) = geomean(&values) {
        report.scalar("miner.auto_regret_geomean", g, values.len());
        report.scalar(
            "miner.auto_regret_max",
            values.iter().copied().fold(0.0, f64::max),
            values.len(),
        );
    }
    report.env(
        "auto_regret",
        regrets
            .iter()
            .map(|(n, r)| format!("{n}={r:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.env("lean_unavailable", lean_failed.join(" "));
}

/// `miner.tables_ms`: `LocalMiner::prepare_tables` over each job's corpus.
fn tables(report: &mut Report, jobs: &[Job], corpora: &Corpora, tracer: &Tracer) {
    let mut total_ns = 0u64;
    for job in jobs {
        let c = corpora.get(job.data);
        let Ok(fst) = job.constraint.compile(&c.dict) else {
            continue;
        };
        let inputs: Vec<WeightedInput<'_>> =
            c.db.sequences.iter().map(|s| (s.as_slice(), 1)).collect();
        let miner = LocalMiner::new(&fst, &c.dict, MinerConfig::sequential(job.sigma));
        let t = Instant::now();
        let tables = tracer.span("miner.tables", SpanId::ROOT, 0, || {
            miner.prepare_tables(&inputs, WORKERS)
        });
        total_ns += t.elapsed().as_nanos() as u64;
        if let Err(e) = black_box(tables) {
            report.mismatch(format!("{}: prepare_tables failed: {e}", job.name));
        }
    }
    report.scalar("miner.tables_ms", ms(total_ns), jobs.len());
}

/// Runs local DESQ-DFS (Flat) once per constraint as the reference every
/// distributed job must match; D-SEQ and D-CAND therefore also agree.
fn dist_reference(
    report: &mut Report,
    jobs: &[Job],
    corpora: &Corpora,
    first: &BTreeMap<usize, Digest>,
) {
    let off = Tracer::new(false);
    let mut by_constraint: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, j) in jobs.iter().enumerate() {
        by_constraint
            .entry(j.constraint.name.as_str())
            .or_default()
            .push(i);
    }
    for (name, idxs) in by_constraint {
        let job = &jobs[idxs[0]];
        let local = Job {
            spec: AlgorithmSpec::DesqDfs,
            ..job.clone()
        };
        let r = run_job(
            &local,
            idxs[0],
            corpora,
            ExecutionPolicy::Flat,
            None,
            &off,
            0,
        );
        let reference = match r.outcome {
            Ok((d, _)) => d,
            Err(e) => {
                report.mismatch(format!("{name}: local reference failed: {e}"));
                continue;
            }
        };
        for i in idxs {
            if let Some(d) = first.get(&i) {
                if *d != reference {
                    report.mismatch(format!(
                        "{}: result {d} differs from local DESQ-DFS {reference}",
                        jobs[i].name
                    ));
                }
            }
        }
    }
}

/// `dist.pivots_us_per_seq`: `PivotSearch::pivots` over the corpus, per
/// D-SEQ job.
fn pivots(report: &mut Report, jobs: &[Job], corpora: &Corpora, tracer: &Tracer) {
    let mut total_ns = 0u64;
    let mut seqs = 0usize;
    for job in jobs
        .iter()
        .filter(|j| matches!(j.spec, AlgorithmSpec::DSeq(_)))
    {
        let c = corpora.get(job.data);
        let Ok(fst) = job.constraint.compile(&c.dict) else {
            continue;
        };
        let search = PivotSearch::new(&fst, &c.dict, c.dict.last_frequent(job.sigma));
        let t = Instant::now();
        tracer.span("dist.pivots", SpanId::ROOT, 0, || {
            for seq in &c.db.sequences {
                black_box(search.pivots(black_box(seq)));
            }
        });
        total_ns += t.elapsed().as_nanos() as u64;
        seqs += c.db.sequences.len();
    }
    if seqs > 0 {
        report.scalar(
            "dist.pivots_us_per_seq",
            total_ns as f64 / 1e3 / seqs as f64,
            seqs,
        );
    }
}

/// `miner.auto_misroutes`: on corpora generated from the seed instead of
/// the standard ones, the jobs whose `Auto` run takes more than twice the
/// `Flat` run (plus 100 ms). A deadline stops such a run, so probing costs
/// little; each `Auto` result that completes must equal `Flat`'s.
fn misroutes(report: &mut Report, jobs: &[Job], seed: u64) {
    let off = Tracer::new(false);
    let mut found = Vec::new();
    let mut probed = 0usize;
    for k in 1..=PROBE_CORPORA {
        let data_seed = corpus::derive(seed, corpus::PROBE_STREAM + k);
        let (corpora, _) = corpus::generate(Some(data_seed), CORPUS_SIZE, CORPUS_SIZE, &off);
        for (i, job) in jobs.iter().enumerate() {
            let flat = run_job(job, i, &corpora, ExecutionPolicy::Flat, None, &off, 0);
            let Ok((want, _)) = flat.outcome else {
                report.mismatch(format!("{}: Flat failed on probe corpus {k}", job.name));
                continue;
            };
            let limit = Duration::from_nanos(2 * flat.run_ns) + Duration::from_millis(100);
            let auto = run_job(
                job,
                i,
                &corpora,
                ExecutionPolicy::Auto,
                Some(limit),
                &off,
                0,
            );
            probed += 1;
            match auto.outcome {
                Err(Error::DeadlineExceeded(_)) => found.push(format!("{}@{k}", job.name)),
                Ok(_) if auto.run_ns > limit.as_nanos() as u64 => {
                    found.push(format!("{}@{k}", job.name))
                }
                Ok((got, _)) if got != want => report.mismatch(format!(
                    "{}: Auto result {got} differs from Flat {want} on probe corpus {k}",
                    job.name
                )),
                Ok(_) => {}
                Err(e) => report.mismatch(format!(
                    "{}: Auto failed on probe corpus {k}: {e}",
                    job.name
                )),
            }
        }
    }
    report.scalar("miner.auto_misroutes", found.len() as f64, probed);
    report.env("auto_misroutes", found.join(" "));
}
