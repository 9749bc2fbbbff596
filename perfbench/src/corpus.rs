//! Seeded inputs: the two generated corpora, the Tab. III job lists and
//! the operation order.

use std::sync::Arc;
use std::time::Instant;

use desq::session::AlgorithmSpec;
use desq_core::{Dictionary, SequenceDb};
use desq_datagen::{amzn_like, nyt_like, AmznConfig, NytConfig};
use desq_dist::patterns::{self, Constraint};

use crate::trace::{SpanId, Tracer};

/// SplitMix64: the benchmark's only source of randomness, so that one
/// `--seed` fixes every input and every operation order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// An independent stream of the run seed (`stream` names its use).
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Seed streams.
pub const NYT_STREAM: u64 = 1;
pub const AMZN_STREAM: u64 = 2;
pub const ORDER_STREAM: u64 = 3;
/// Base of the streams of the cost-model probe corpora.
pub const PROBE_STREAM: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    Nyt,
    Amzn,
}

/// A generated corpus shared by every session over it.
#[derive(Clone)]
pub struct Corpus {
    pub dict: Arc<Dictionary>,
    pub db: Arc<SequenceDb>,
}

pub struct Corpora {
    pub nyt: Corpus,
    pub amzn: Corpus,
}

impl Corpora {
    pub fn get(&self, data: Data) -> &Corpus {
        match data {
            Data::Nyt => &self.nyt,
            Data::Amzn => &self.amzn,
        }
    }
}

/// Wall seconds the two generators took.
pub struct DatagenTimes {
    pub nyt_s: f64,
    pub amzn_s: f64,
}

/// Generates both corpora, each inside a span: from the run seed, or with
/// `None` the generators' standard seeds (the datasets `repro` uses).
pub fn generate(
    seed: Option<u64>,
    nyt_size: usize,
    amzn_size: usize,
    tracer: &Tracer,
) -> (Corpora, DatagenTimes) {
    let root = SpanId::ROOT;
    let t0 = Instant::now();
    let (dict, db) = tracer.span("datagen.nyt", root, 0, || {
        let cfg = NytConfig::new(nyt_size);
        nyt_like(&match seed {
            Some(s) => cfg.with_seed(derive(s, NYT_STREAM)),
            None => cfg,
        })
    });
    let nyt = Corpus {
        dict: Arc::new(dict),
        db: Arc::new(db),
    };
    let t1 = Instant::now();
    let (dict, db) = tracer.span("datagen.amzn", root, 0, || {
        let cfg = AmznConfig::new(amzn_size);
        amzn_like(&match seed {
            Some(s) => cfg.with_seed(derive(s, AMZN_STREAM)),
            None => cfg,
        })
    });
    let amzn = Corpus {
        dict: Arc::new(dict),
        db: Arc::new(db),
    };
    let times = DatagenTimes {
        nyt_s: (t1 - t0).as_secs_f64(),
        amzn_s: t1.elapsed().as_secs_f64(),
    };
    (Corpora { nyt, amzn }, times)
}

/// One mining job of a batch workload.
#[derive(Clone)]
pub struct Job {
    /// Display name, e.g. `N2` or `N2/D-CAND`.
    pub name: String,
    pub constraint: Constraint,
    pub data: Data,
    pub sigma: u64,
    pub spec: AlgorithmSpec,
}

/// σ of the NYT jobs.
pub const NYT_SIGMA: u64 = 10;
/// σ of the AMZN jobs: 0.001·|D| at 40 000 customers, as `repro table3`.
pub const AMZN_SIGMA: u64 = 40;

fn job(c: Constraint, data: Data, spec: AlgorithmSpec, suffix: &str) -> Job {
    let sigma = match data {
        Data::Nyt => NYT_SIGMA,
        Data::Amzn => AMZN_SIGMA,
    };
    Job {
        name: format!("{}{suffix}", c.name),
        constraint: c,
        data,
        sigma,
        spec,
    }
}

/// `mine-local`: the nine Tab. III jobs N1–N5 and A1–A4 under DESQ-DFS.
pub fn local_jobs() -> Vec<Job> {
    let nyt = patterns::nyt_constraints()
        .into_iter()
        .map(|c| (c, Data::Nyt));
    let amzn = patterns::amzn_constraints()
        .into_iter()
        .map(|c| (c, Data::Amzn));
    nyt.chain(amzn)
        .map(|(c, data)| job(c, data, AlgorithmSpec::DesqDfs, ""))
        .collect()
}

/// `mine-dist`: D-SEQ on N2–N5 and A1–A4, D-CAND on N2 and N3 only (its
/// run enumeration explodes on the loose N4/N5, the point of Fig. 10).
pub fn dist_jobs() -> Vec<Job> {
    let mut jobs: Vec<Job> = patterns::nyt_constraints()
        .into_iter()
        .skip(1)
        .map(|c| (c, Data::Nyt))
        .chain(
            patterns::amzn_constraints()
                .into_iter()
                .map(|c| (c, Data::Amzn)),
        )
        .map(|(c, data)| job(c, data, AlgorithmSpec::d_seq(), ""))
        .collect();
    for c in [patterns::n2(), patterns::n3()] {
        jobs.push(job(c, Data::Nyt, AlgorithmSpec::d_cand(), "/D-CAND"));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_order_and_streams_differ() {
        let order = |seed| {
            let mut v: Vec<usize> = (0..10).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_ne!(derive(1, NYT_STREAM), derive(1, AMZN_STREAM));
    }

    #[test]
    fn job_lists_match_the_workloads() {
        let names = |jobs: Vec<Job>| jobs.into_iter().map(|j| j.name).collect::<Vec<_>>();
        assert_eq!(
            names(local_jobs()),
            ["N1", "N2", "N3", "N4", "N5", "A1", "A2", "A3", "A4"]
        );
        assert_eq!(
            names(dist_jobs()),
            [
                "N2",
                "N3",
                "N4",
                "N5",
                "A1",
                "A2",
                "A3",
                "A4",
                "N2/D-CAND",
                "N3/D-CAND"
            ]
        );
    }
}
