//! DESQ-DFS: pattern growth over `(sequence, position, state)` projections.
//!
//! Mining starts with the empty prefix and expands it by one output item at
//! a time, forming a search tree (Fig. 6 of the paper). Each node holds a
//! *projected database*: snapshots `(T, i, q)` from which the prefix can be
//! produced — sequence `T`, last-read position `i`, current FST state `q`.
//! Expanding a node resumes FST simulation from every snapshot: transitions
//! with ε output are followed silently; the first transition that produces
//! output extends the prefix.
//!
//! A prefix is *emitted* when enough (weighted) sequences can complete it —
//! i.e. consume their remaining items with ε output and end in a final
//! state. A node is *expanded* while enough sequences remain in its
//! projection (prefix support is antimonotone; π-support is not).
//!
//! # Hot-path layout
//!
//! FST simulation state is precomputed once per input sequence into flat,
//! bit-packed [`SeqTables`]: per-position *match masks* (one bit per FST
//! transition), aliveness and ε-completion bitsets over the
//! `(position, state)` grid, and the output sets of every
//! `(position, output label)` pair — already filtered and materialized into
//! a per-sequence arena. The DFS walks a compact per-state transition index
//! of the FST (L1-resident) and resolves matches, aliveness and outputs as
//! bit tests and arena slices: no ancestor binary searches, no output
//! re-materialization, no dictionary access. Projected databases are
//! sorted posting-list runs in per-depth reusable buffers instead of
//! per-node hash maps, and the ε-closure walk deduplicates coordinates in a
//! bitset.
//!
//! Search-tree exploration parallelizes on the one task executor,
//! [`desq_core::sched`] ([`LocalMiner::mine_with_workers`]): the root is
//! the seed task, each worker descends its subtree depth-first with its
//! own scratch arenas over the shared tables, and shallow nodes split
//! trailing child subtrees off as stealable tasks while the worker's deque
//! runs short ([`SchedConfig`]). DESQ's search trees are heavily skewed,
//! so dynamic stealing — not static sharding — is what keeps all workers
//! busy. Results stay oracle-identical at any worker count: every pattern
//! is emitted by exactly one subtree and the merged set is sorted once.
//! The table build runs on the same executor, one block of inputs per
//! worker.
//!
//! [`LocalMiner`] adds the partition-local restrictions of D-SEQ
//! (Sec. V-C): at partition `P_k` no expansion uses items `> k`, only pivot
//! sequences (max item = `k`) are emitted, and the *early stopping*
//! heuristic drops snapshots that can no longer produce the pivot item.

use desq_core::fst::FstIndex;
use desq_core::mining::CancelToken;
use desq_core::sched::{Executor, TaskCtx, WorkerStats};
#[cfg(test)]
use desq_core::SequenceDb;
use desq_core::{Dictionary, Fst, ItemId, Result, Sequence, EPSILON};

/// Configuration of a [`LocalMiner`].
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Minimum support threshold σ.
    pub sigma: u64,
    /// If set, expansions never use items greater than this (item-based
    /// partitioning: partition `P_k` owns no sequence with items `> k`).
    pub max_item: Option<ItemId>,
    /// If set, only sequences containing this item (their pivot, given
    /// `max_item = Some(k)`) are emitted.
    pub require_pivot: Option<ItemId>,
    /// Early-stopping heuristic (Sec. V-C): per input sequence, determine
    /// the last position that can produce the pivot item and stop using the
    /// sequence for non-pivot prefixes beyond it. Only effective when
    /// `require_pivot` is set.
    pub early_stop: bool,
    /// Largest fid considered frequent. `None` derives it from `sigma` and
    /// the dictionary's f-list; distributed callers pass the value computed
    /// on the *global* database, which stays correct when local inputs are
    /// weighted aggregates.
    pub last_frequent: Option<ItemId>,
}

impl MinerConfig {
    /// Unrestricted sequential mining at threshold `sigma`.
    pub fn sequential(sigma: u64) -> MinerConfig {
        MinerConfig {
            sigma,
            max_item: None,
            require_pivot: None,
            early_stop: false,
            last_frequent: None,
        }
    }

    /// Partition-local mining for pivot `k` (used by D-SEQ).
    pub fn for_pivot(sigma: u64, k: ItemId, early_stop: bool) -> MinerConfig {
        MinerConfig {
            sigma,
            max_item: Some(k),
            require_pivot: Some(k),
            early_stop,
            last_frequent: None,
        }
    }

    /// Overrides the frequent-item boundary (see `last_frequent`).
    pub fn with_last_frequent(mut self, fid: ItemId) -> MinerConfig {
        self.last_frequent = Some(fid);
        self
    }
}

/// One weighted input sequence, borrowed from its owner (the database, or a
/// reducer's decoded aggregate) — local mining never copies item data.
pub type WeightedInput<'s> = (&'s [ItemId], u64);

/// What a parallel mining run returns: the (pattern, frequency) pairs in
/// discovery order plus the per-worker executor stats.
pub type MinedPatterns = (Vec<(Sequence, u64)>, Vec<WorkerStats>);

/// Task-splitting knobs of parallel DESQ-DFS (the [`Executor`] itself is
/// knob-free).
///
/// The defaults balance real workloads; tests force pathological sharing
/// (`split_depth` high, `share_limit` high) to exercise stealing on tiny
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Node depth (relative to the task's root) below which child subtrees
    /// may be split off as stealable tasks. Deeper nodes always recurse
    /// inline: near the leaves a task's postings are smaller than the
    /// bookkeeping to share them.
    pub split_depth: usize,
    /// Child subtrees are only split off while the worker's own deque
    /// holds fewer than this many tasks — a short queue means thieves are
    /// draining it (or soon will), a long one means splitting would only
    /// buy allocation overhead.
    pub share_limit: usize,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            split_depth: 3,
            share_limit: 4,
        }
    }
}

impl SchedConfig {
    /// A steal-forcing configuration for tests: split at every depth and
    /// keep sharing regardless of queue length, so even toy-sized search
    /// trees scatter into many stealable tasks.
    pub fn aggressive() -> SchedConfig {
        SchedConfig {
            split_depth: usize::MAX,
            share_limit: usize::MAX,
        }
    }
}

/// Whether mining may go on under `cancel`: the per-pattern poll.
fn live(cancel: Option<&CancelToken>) -> bool {
    cancel.is_none_or(|t| t.checkpoint().is_ok())
}

/// Pattern-growth miner over a set of weighted input sequences.
pub struct LocalMiner<'a> {
    fst: &'a Fst,
    dict: &'a Dictionary,
    config: MinerConfig,
    /// Largest frequent fid, resolved once at construction.
    last_frequent: ItemId,
    /// Derived per-state transition index ([`FstIndex`]) — owned by
    /// default, borrowed when the caller amortizes one index across many
    /// miners (D-SEQ builds a miner per pivot partition over one FST).
    index: IndexHolder<'a>,
    /// Largest frequent vocabulary that still uses dense (vocabulary-
    /// indexed) node grouping; larger vocabularies sort instead. Only
    /// tests override [`MAX_DENSE_ITEMS`].
    dense_limit: usize,
    /// Task-splitting knobs of the work-stealing scheduler (see
    /// [`SchedConfig`]); irrelevant at `workers = 1`.
    sched: SchedConfig,
}

/// One stealable unit of search-tree work: an owned subtree root. The
/// postings are copied out of the producer's depth buffers so the task can
/// outlive them and move across threads; only shallow nodes are split (see
/// [`SchedConfig::split_depth`]), so the copies stay rare and small
/// relative to the mining they unlock.
struct MineTask {
    /// Items on the path from the search-tree root to this node.
    prefix: Sequence,
    /// The node's projected database.
    postings: Vec<Posting>,
    /// Whether the prefix already contains the required pivot.
    has_pivot: bool,
    /// The node's precomputed ε-completion (emission) support.
    emit: u64,
}

/// Owned-or-shared [`FstIndex`] (see [`LocalMiner::with_index`]).
enum IndexHolder<'a> {
    Owned(Box<FstIndex>),
    Shared(&'a FstIndex),
}

impl IndexHolder<'_> {
    #[inline]
    fn get(&self) -> &FstIndex {
        match self {
            IndexHolder::Owned(ix) => ix,
            IndexHolder::Shared(ix) => ix,
        }
    }
}

/// One projected-database posting, packed
/// `extension item ‖ input index ‖ last-read position ‖ ε-flag ‖ state`
/// (32 + 32 + 32 + 1 + 31 bits, most significant first). The item is the
/// output that led into this node (the root uses ε); packing it into the
/// top bits makes a plain integer sort group postings into per-child runs
/// with branchless compares. The ε-flag caches the coordinate's
/// ε-completion bit so support counting never touches the tables again.
type Posting = u128;

const EPS_FLAG: u32 = 1 << 31;

#[inline]
fn posting(w: ItemId, s: u32, i: u32, q: u32, eps: bool) -> Posting {
    let q = q | if eps { EPS_FLAG } else { 0 };
    (w as u128) << 96 | (s as u128) << 64 | (i as u128) << 32 | q as u128
}

#[inline]
fn p_item(p: Posting) -> ItemId {
    (p >> 96) as u32
}

#[inline]
fn p_seq(p: Posting) -> u32 {
    (p >> 64) as u32
}

#[inline]
fn p_pos(p: Posting) -> u32 {
    (p >> 32) as u32
}

#[inline]
fn p_state(p: Posting) -> u32 {
    p as u32 & !EPS_FLAG
}

#[inline]
fn p_eps(p: Posting) -> bool {
    p as u32 & EPS_FLAG != 0
}

/// Flat per-sequence simulation tables for one input collection, built by
/// [`LocalMiner::prepare_tables`] and immutable during the DFS.
///
/// Everything the search-tree expansion needs about the input sequences is
/// precomputed here, bit-packed to keep the per-node memory traffic low.
/// Per sequence:
///
/// * *match masks* — bit `δ` of position `i`'s mask is set iff FST
///   transition `δ` matches the input item at `i` *and* its target lies on
///   an accepting run (the position–state grid of Sec. V-A, folded into
///   the match bits — one bit test replaces the ancestor binary search
///   plus the grid lookup);
/// * `eps_fin` — bitset memoizing "the rest of the sequence can be consumed
///   producing only ε, ending in a final state" (the emission test);
/// * `offsets`/`outs` — for every `(position, output label)` pair, an
///   arena slice holding the label's output set on the position's item,
///   already filtered by the `max_item` partition bound, the frequent-item
///   boundary and the early-stopping heuristic.
///
/// All per-sequence data lives in **shared arenas** with one descriptor
/// (`SeqMeta`) per sequence: building tables for N inputs costs a
/// constant number of allocations, not 4·N — D-SEQ's reducers build these
/// for every `(pivot, rewritten sequence)` record, where per-table heap
/// churn used to dominate the whole reduce phase.
///
/// Sequences without an accepting run get an empty table (`accepts(s)` is
/// `false`) and are skipped by the root projection.
pub struct SeqTables {
    metas: Vec<SeqMeta>,
    mask: Vec<u64>,
    eps_fin: Vec<u64>,
    offsets: Vec<OutRef>,
    /// Arena of precomputed output items, sliced by `offsets` (indices
    /// relative to each sequence's `outs_start`).
    outs: Vec<ItemId>,
}

/// Per-sequence descriptor into the [`SeqTables`] arenas.
struct SeqMeta {
    weight: u64,
    /// True iff the FST accepts the sequence.
    accepts: bool,
    len: usize,
    num_states: usize,
    words: usize,
    num_labels: usize,
    mask_start: usize,
    eps_start: usize,
    off_start: usize,
    outs_start: usize,
}

/// One filtered output set as an arena slice (relative to the sequence's
/// `outs_start`); `start..mid` survives early stopping even while the
/// prefix lacks the pivot item, `mid..end` only once it has it.
#[derive(Clone, Copy, Default)]
struct OutRef {
    start: u32,
    mid: u32,
    end: u32,
}

/// Borrowed per-sequence view into the [`SeqTables`] arenas — the same
/// shape the DFS walked when each sequence owned its buffers, constructed
/// once per sequence per node.
#[derive(Clone, Copy)]
struct TableView<'a> {
    weight: u64,
    accepts: bool,
    len: usize,
    num_states: usize,
    words: usize,
    num_labels: usize,
    mask: &'a [u64],
    eps_fin: &'a [u64],
    offsets: &'a [OutRef],
    outs: &'a [ItemId],
}

impl TableView<'_> {
    #[inline]
    fn eps_fin_bit(&self, cell: usize) -> bool {
        self.eps_fin[cell / 64] >> (cell % 64) & 1 != 0
    }
}

impl SeqTables {
    fn new() -> SeqTables {
        SeqTables {
            metas: Vec::new(),
            mask: Vec::new(),
            eps_fin: Vec::new(),
            offsets: Vec::new(),
            outs: Vec::new(),
        }
    }

    /// Number of input sequences the tables were built for.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True iff no tables were built.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// True iff the FST accepts sequence `s` (i.e. it contributes to the
    /// root projection).
    pub fn accepts(&self, s: usize) -> bool {
        self.metas[s].accepts
    }

    /// Number of matching `(position, transition)` pairs precomputed in
    /// sequence `s`'s match masks.
    pub fn num_match_bits(&self, s: usize) -> usize {
        let m = &self.metas[s];
        if !m.accepts {
            return 0;
        }
        self.mask[m.mask_start..m.mask_start + m.len * m.words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The per-sequence view used by the DFS walk (rejected sequences get
    /// an empty view with `accepts == false`).
    #[inline]
    fn view(&self, s: usize) -> TableView<'_> {
        let m = &self.metas[s];
        if !m.accepts {
            return TableView {
                weight: m.weight,
                accepts: false,
                len: m.len,
                num_states: m.num_states,
                words: m.words,
                num_labels: m.num_labels,
                mask: &[],
                eps_fin: &[],
                offsets: &[],
                outs: &[],
            };
        }
        let bwords = ((m.len + 1) * m.num_states).div_ceil(64).max(1);
        TableView {
            weight: m.weight,
            accepts: true,
            len: m.len,
            num_states: m.num_states,
            words: m.words,
            num_labels: m.num_labels,
            mask: &self.mask[m.mask_start..m.mask_start + m.len * m.words],
            eps_fin: &self.eps_fin[m.eps_start..m.eps_start + bwords],
            offsets: &self.offsets[m.off_start..m.off_start + m.len * m.num_labels],
            outs: &self.outs[m.outs_start..],
        }
    }

    /// All per-sequence views, in input order.
    fn views(&self) -> Vec<TableView<'_>> {
        (0..self.metas.len()).map(|s| self.view(s)).collect()
    }

    /// Appends another set's tables (a parallel build chunk), rebasing the
    /// descriptors onto this set's arenas.
    fn append(&mut self, other: SeqTables) {
        let (mb, eb, ob, ub) = (
            self.mask.len(),
            self.eps_fin.len(),
            self.offsets.len(),
            self.outs.len(),
        );
        self.metas.extend(other.metas.into_iter().map(|m| SeqMeta {
            mask_start: m.mask_start + mb,
            eps_start: m.eps_start + eb,
            off_start: m.off_start + ob,
            outs_start: m.outs_start + ub,
            ..m
        }));
        self.mask.extend_from_slice(&other.mask);
        self.eps_fin.extend_from_slice(&other.eps_fin);
        self.offsets.extend_from_slice(&other.offsets);
        self.outs.extend_from_slice(&other.outs);
    }
}

/// The pivot-independent simulation core of one sequence: match masks with
/// grid aliveness folded in, and the ε-completion bitset.
///
/// Pivot bounds, early stopping and σ only affect the per-call output
/// arenas — never the core — so a core built once per distinct sequence
/// ([`LocalMiner::prepare_core`]) can be mined under many pivot
/// configurations via [`LocalMiner::mine_prepared`]. D-SEQ's reducers
/// cache cores per distinct shuffled payload, sharing them across all the
/// pivot partitions of a reduce bucket.
///
/// A core is valid for the `(FST, dictionary)` pair of the miner that
/// built it (any miner over the same pair works — see the
/// [`FstIndex` reuse contract](desq_core::fst::index)) and for the exact
/// item sequence passed in.
pub struct SeqCore {
    accepts: bool,
    len: usize,
    num_states: usize,
    words: usize,
    mask: Vec<u64>,
    eps_fin: Vec<u64>,
}

impl SeqCore {
    /// True iff the FST accepts the sequence this core was built from.
    pub fn accepts(&self) -> bool {
        self.accepts
    }
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

#[inline]
fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

/// Scratch reused across [`LocalMiner::prepare`] calls of one worker:
/// forward/alive grid bitsets and the output materialization buffer.
#[derive(Default)]
struct PrepareScratch {
    fwd: Vec<u64>,
    alive: Vec<u64>,
    outbuf: Vec<ItemId>,
}

impl PrepareScratch {
    /// Zeroes and resizes both grid bitsets for `bwords` words.
    fn reset(&mut self, bwords: usize) {
        self.fwd.clear();
        self.fwd.resize(bwords, 0);
        self.alive.clear();
        self.alive.resize(bwords, 0);
    }
}

/// Scratch for the ε-closure walk, reused across snapshots and nodes.
struct WalkBufs {
    /// Visited-coordinate bitset over `(i, q)` cells of the current
    /// sequence.
    visited: Vec<u64>,
    /// Cells set in `visited`, for O(|walk|) clearing.
    touched: Vec<u32>,
    /// DFS worklist of `(i, q)` coordinates.
    stack: Vec<(u32, u32)>,
}

impl WalkBufs {
    #[inline]
    fn mark(&mut self, cell: usize) -> bool {
        let fresh = !get_bit(&self.visited, cell);
        if fresh {
            set_bit(&mut self.visited, cell);
            self.touched.push(cell as u32);
        }
        fresh
    }

    fn clear(&mut self) {
        for &cell in &self.touched {
            self.visited[cell as usize / 64] &= !(1 << (cell as usize % 64));
        }
        self.touched.clear();
    }
}

/// Per-depth node scratch: the raw (unordered) child postings pushed by the
/// closure walk, the same postings grouped into per-item runs, and the run
/// directory. Buffers persist across sibling nodes of the same depth.
#[derive(Default)]
struct DepthBufs {
    raw: Vec<Posting>,
    grouped: Vec<Posting>,
    /// Per frequent child: item, its postings in `grouped`, and its
    /// ε-completion (emission) support.
    runs: Vec<(ItemId, std::ops::Range<usize>, u64)>,
}

/// Per-item accumulator of one node expansion, packed so every posting
/// push touches a single cache line: posting count (reused as the scatter
/// cursor), the last counted input index for the prefix and emission
/// supports, and the weighted supports themselves.
#[derive(Clone)]
struct ItemAcc {
    count: u32,
    last_seq: u32,
    emit_last_seq: u32,
    support: u64,
    emit_support: u64,
}

const FRESH_ACC: ItemAcc = ItemAcc {
    count: 0,
    last_seq: u32::MAX,
    emit_last_seq: u32::MAX,
    support: 0,
    emit_support: 0,
};

/// Vocabulary-indexed per-item accumulators used to group a node's child
/// postings in linear time, plus the list of touched items (for
/// O(|touched|) clearing between nodes). Empty when the frequent
/// vocabulary is too large to index densely — grouping then falls back to
/// sorting.
struct ItemStats {
    acc: Vec<ItemAcc>,
    items: Vec<ItemId>,
}

/// Largest dense item-array size; beyond this, node grouping sorts instead.
const MAX_DENSE_ITEMS: usize = 1 << 21;

impl ItemStats {
    fn new(last_frequent: ItemId, dense_limit: usize) -> ItemStats {
        let n = last_frequent as usize + 1;
        if n > dense_limit {
            return ItemStats {
                acc: Vec::new(),
                items: Vec::new(),
            };
        }
        ItemStats {
            acc: vec![FRESH_ACC; n],
            items: Vec::new(),
        }
    }

    #[inline]
    fn dense(&self) -> bool {
        !self.acc.is_empty()
    }
}

/// All reusable DFS scratch: walk buffers, item accumulators, and one
/// [`DepthBufs`] per search-tree depth (projected databases of siblings
/// reuse the same allocations).
struct ExpandBufs {
    walk: WalkBufs,
    stats: ItemStats,
    depths: Vec<DepthBufs>,
}

impl ExpandBufs {
    fn new(views: &[TableView<'_>], item_bound: ItemId, dense_limit: usize) -> ExpandBufs {
        let bits = views
            .iter()
            .filter(|v| v.accepts)
            .map(|v| (v.len + 1) * v.num_states)
            .max()
            .unwrap_or(0);
        // Dense grouping pays an O(item bound) accumulator allocation and
        // clear per miner. That amortizes over a database-sized input but
        // dwarfs the work of a tiny partition (D-SEQ reducers mine a few
        // hundred weighted sequences per pivot key), so small inputs fall
        // back to sort-based grouping regardless of vocabulary size.
        let dense_cap = dense_limit.min(16 * views.len().max(1));
        ExpandBufs {
            walk: WalkBufs {
                visited: vec![0; bits.div_ceil(64).max(1)],
                touched: Vec::new(),
                stack: Vec::new(),
            },
            stats: ItemStats::new(item_bound, dense_cap),
            depths: Vec::new(),
        }
    }
}

impl<'a> LocalMiner<'a> {
    /// Creates a miner for the given FST and dictionary.
    pub fn new(fst: &'a Fst, dict: &'a Dictionary, config: MinerConfig) -> Self {
        let last_frequent = config
            .last_frequent
            .unwrap_or_else(|| dict.last_frequent(config.sigma));
        LocalMiner {
            fst,
            dict,
            config,
            last_frequent,
            index: IndexHolder::Owned(Box::new(FstIndex::new(fst))),
            dense_limit: MAX_DENSE_ITEMS,
            sched: SchedConfig::default(),
        }
    }

    /// Creates a miner that borrows a pre-built [`FstIndex`] instead of
    /// deriving its own.
    ///
    /// The index must have been built from the same `fst` (see the
    /// [reuse contract](desq_core::fst::index)); sharing one index
    /// amortizes its construction when many miners run over one FST —
    /// D-SEQ's reducers build a [`LocalMiner`] per pivot partition.
    pub fn with_index(
        fst: &'a Fst,
        dict: &'a Dictionary,
        config: MinerConfig,
        index: &'a FstIndex,
    ) -> Self {
        let last_frequent = config
            .last_frequent
            .unwrap_or_else(|| dict.last_frequent(config.sigma));
        LocalMiner {
            fst,
            dict,
            config,
            last_frequent,
            index: IndexHolder::Shared(index),
            dense_limit: MAX_DENSE_ITEMS,
            sched: SchedConfig::default(),
        }
    }

    /// Overrides the work-stealing scheduler's task-splitting knobs — used
    /// by tests to force stealing on tiny inputs
    /// ([`SchedConfig::aggressive`]); production callers keep the default.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Largest item the dense per-item accumulators must index: the
    /// partition bound caps it below the frequent vocabulary, so
    /// pivot-restricted miners (one per reduce key in D-SEQ) allocate
    /// `O(pivot)` instead of `O(vocabulary)` scratch.
    #[inline]
    fn item_bound(&self) -> ItemId {
        self.config
            .max_item
            .map_or(self.last_frequent, |m| m.min(self.last_frequent))
    }

    /// Forces the sort-based (sparse) node grouping regardless of
    /// vocabulary size, to test the fallback path.
    #[cfg(test)]
    fn with_sparse_grouping(mut self) -> Self {
        self.dense_limit = 0;
        self
    }

    /// Mines the weighted input collection; returns `(pattern, frequency)`
    /// pairs sorted lexicographically.
    pub fn mine(&self, inputs: &[WeightedInput<'_>]) -> Result<Vec<(Sequence, u64)>> {
        Ok(self.mine_with_workers(inputs, 1, None)?.0)
    }

    /// Builds the pivot-independent [`SeqCore`] of one sequence (the
    /// expensive half of table building: match masks, grid aliveness and
    /// the ε-completion DP).
    pub fn prepare_core(&self, seq: &[ItemId]) -> SeqCore {
        let mut scratch = PrepareScratch::default();
        let mut core = SeqCore {
            accepts: false,
            len: seq.len(),
            num_states: self.fst.num_states(),
            words: self.index.get().words(),
            mask: Vec::new(),
            eps_fin: Vec::new(),
        };
        core.accepts = self.build_core_into(seq, &mut scratch, &mut core.mask, &mut core.eps_fin);
        core
    }

    /// Mines weighted inputs whose [`SeqCore`]s were prepared earlier
    /// (possibly by a *different* miner over the same FST and dictionary):
    /// only the pivot-dependent output arenas are rebuilt under this
    /// miner's configuration. Single-threaded — the partition-per-key
    /// reducers that benefit from core sharing parallelize across keys,
    /// not within them.
    pub fn mine_prepared(&self, inputs: &[(&[ItemId], &SeqCore, u64)]) -> Vec<(Sequence, u64)> {
        let l = self.index.get().num_labels();
        let mut offsets: Vec<OutRef> = Vec::new();
        let mut outs: Vec<ItemId> = Vec::new();
        let mut starts: Vec<(usize, usize)> = Vec::with_capacity(inputs.len());
        let mut outbuf: Vec<ItemId> = Vec::new();
        for &(seq, core, _) in inputs {
            debug_assert_eq!(seq.len(), core.len, "core built from a different sequence");
            starts.push((offsets.len(), outs.len()));
            if core.accepts {
                let base = outs.len();
                self.build_outputs_into(
                    seq,
                    &core.mask,
                    &mut offsets,
                    &mut outs,
                    base,
                    &mut outbuf,
                );
            }
        }
        let views: Vec<TableView<'_>> = inputs
            .iter()
            .zip(&starts)
            .map(|(&(_, core, weight), &(o0, u0))| TableView {
                weight,
                accepts: core.accepts,
                len: core.len,
                num_states: core.num_states,
                words: core.words,
                num_labels: l,
                mask: &core.mask,
                eps_fin: &core.eps_fin,
                offsets: if core.accepts {
                    &offsets[o0..o0 + core.len * l]
                } else {
                    &[]
                },
                outs: &outs[u0..],
            })
            .collect();
        self.mine_views(&views)
    }

    /// Single-threaded mining over prepared views: the whole search tree
    /// as one task, never split.
    fn mine_views(&self, views: &[TableView<'_>]) -> Vec<(Sequence, u64)> {
        let mut out = Vec::new();
        let mut bufs = ExpandBufs::new(views, self.item_bound(), self.dense_limit);
        let no_ctx: Option<&TaskCtx<'_, MineTask>> = None;
        self.run_task(
            views,
            self.root_task(views),
            &mut bufs,
            no_ctx,
            &mut |p, f| {
                out.push((p, f));
                true
            },
        );
        crate::sort_patterns(out)
    }

    /// The search-tree root as one task: every accepted sequence at
    /// `(0, initial)`, with the empty prefix.
    fn root_task(&self, views: &[TableView<'_>]) -> MineTask {
        MineTask {
            prefix: Sequence::new(),
            postings: views
                .iter()
                .enumerate()
                .filter(|(_, v)| v.accepts)
                .map(|(s, _)| posting(EPSILON, s as u32, 0, self.fst.initial(), false))
                .collect(),
            has_pivot: self.config.require_pivot.is_none(),
            emit: 0,
        }
    }

    /// Mines one task's subtree depth-first into `sink`, splitting through
    /// `ctx` when given (see [`expand_sched`](Self::expand_sched)).
    /// Returns `false` iff the sink stopped the traversal.
    fn run_task<M>(
        &self,
        views: &[TableView<'_>],
        task: MineTask,
        bufs: &mut ExpandBufs,
        ctx: Option<&TaskCtx<'_, MineTask, M>>,
        sink: &mut dyn FnMut(Sequence, u64) -> bool,
    ) -> bool {
        let mut prefix = task.prefix;
        self.expand_sched(
            views,
            &task.postings,
            0,
            task.has_pivot,
            task.emit,
            &mut prefix,
            bufs,
            ctx,
            sink,
        )
    }

    /// Mines with `workers` threads on the [`Executor`]. The search-tree
    /// root is the one seed task; shallow nodes split trailing child
    /// subtrees off as stealable tasks while the worker's deque is short
    /// ([`SchedConfig`]), and idle workers steal half of a victim's queue.
    /// Per-worker results are merged and sorted once, so the output is
    /// oracle-identical at any worker count.
    ///
    /// Returns the (deterministic, sorted) patterns plus per-worker
    /// [`WorkerStats`], one entry per worker; at `workers = 1` the
    /// executor runs the root inline and never splits.
    ///
    /// A `cancel` token, when given, is polled at every task boundary and
    /// every emitted pattern: an expired deadline or external cancel
    /// aborts with the token's [`stop_reason`](CancelToken::stop_reason),
    /// and a panicking task surfaces as
    /// [`WorkerPanicked`](desq_core::Error::WorkerPanicked) instead of
    /// aborting the process (see [`desq_core::sched`]).
    pub fn mine_with_workers(
        &self,
        inputs: &[WeightedInput<'_>],
        workers: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<MinedPatterns> {
        let exec = Executor::new(workers, cancel);
        let tables = self.prepare_tables_on(&exec, inputs, cancel)?;
        let views = tables.views();
        let (outs, stats) = exec.run(
            vec![self.root_task(&views)],
            || {
                let bufs = ExpandBufs::new(&views, self.item_bound(), self.dense_limit);
                (Vec::new(), bufs)
            },
            |task, (out, bufs), ctx| {
                self.run_task(&views, task, bufs, Some(ctx), &mut |p, f| {
                    out.push((p, f));
                    live(cancel)
                });
                Ok(())
            },
            |(out, _)| out,
        )?;
        let mut outs = outs.into_iter();
        let mut all: Vec<(Sequence, u64)> = outs.next().unwrap_or_default();
        outs.for_each(|out| all.extend(out));
        Ok((crate::sort_patterns(all), stats))
    }

    /// Streams every frequent pattern to `sink` as it is discovered (DFS
    /// pre-order over the search tree), without materializing or sorting
    /// the result set. The sink returns `false` to stop mining early;
    /// `mine_each` then returns `false` as well.
    pub fn mine_each(
        &self,
        inputs: &[WeightedInput<'_>],
        sink: &mut dyn FnMut(Sequence, u64) -> bool,
    ) -> Result<bool> {
        self.mine_each_with_workers(inputs, 1, None, sink)
    }

    /// Streaming variant of [`mine_with_workers`](Self::mine_with_workers):
    /// the same tasks feed `sink` on the calling thread
    /// ([`Executor::stream`]). At one worker patterns arrive in DFS
    /// pre-order; with more, in an unspecified interleaving of the
    /// workers' DFS orders. A `false` from the sink stops all workers (no
    /// further sink calls happen) and makes this return `Ok(false)`: the
    /// consumer's own early stop is not an error. A tripped `cancel` token
    /// (deadline, external abort) or a panicking task aborts with the
    /// corresponding [`Error`](desq_core::Error) instead.
    pub fn mine_each_with_workers(
        &self,
        inputs: &[WeightedInput<'_>],
        workers: usize,
        cancel: Option<&CancelToken>,
        sink: &mut dyn FnMut(Sequence, u64) -> bool,
    ) -> Result<bool> {
        let exec = Executor::new(workers, cancel);
        let tables = self.prepare_tables_on(&exec, inputs, cancel)?;
        let views = tables.views();
        exec.stream(
            vec![self.root_task(&views)],
            || ExpandBufs::new(&views, self.item_bound(), self.dense_limit),
            |task, bufs, ctx| {
                self.run_task(&views, task, bufs, Some(ctx), &mut |p, f| {
                    live(cancel) && ctx.emit((p, f))
                });
                Ok(())
            },
            &mut |(p, f)| sink(p, f),
        )
    }

    /// Builds the flat simulation tables ([`SeqTables`]) for every input
    /// sequence, `workers` at a time. This is the preprocessing the DFS
    /// amortizes: afterwards expansion is pure bit tests and arena slices.
    /// A panic while building one sequence's tables is contained by the
    /// executor and reported as [`WorkerPanicked`](desq_core::Error::WorkerPanicked).
    pub fn prepare_tables(
        &self,
        inputs: &[WeightedInput<'_>],
        workers: usize,
    ) -> Result<SeqTables> {
        self.prepare_tables_on(&Executor::new(workers, None), inputs, None)
    }

    /// [`prepare_tables`](Self::prepare_tables) on `exec`: one block of
    /// consecutive inputs per worker, with `cancel` polled once per input
    /// sequence.
    fn prepare_tables_on(
        &self,
        exec: &Executor<'_>,
        inputs: &[WeightedInput<'_>],
        cancel: Option<&CancelToken>,
    ) -> Result<SeqTables> {
        let block = inputs.len().div_ceil(exec.workers()).max(1);
        let blocks: Vec<&[WeightedInput<'_>]> = inputs.chunks(block).collect();
        let (sets, _) = exec.run_indexed(blocks.len(), PrepareScratch::default, |scratch, b| {
            let mut set = SeqTables::new();
            for &(seq, w) in blocks[b] {
                if let Some(token) = cancel {
                    token.checkpoint()?;
                }
                self.prepare_into(seq, w, scratch, &mut set);
            }
            Ok(set)
        })?;
        let mut sets = sets.into_iter();
        let mut set = sets.next().unwrap_or_else(SeqTables::new);
        sets.for_each(|part| set.append(part));
        Ok(set)
    }

    /// Number of σ-frequent first-level children of the root node: the
    /// subtrees the root task can split off. Exposed for the kernel
    /// benchmarks.
    #[doc(hidden)]
    pub fn first_level_count(&self, tables: &SeqTables) -> usize {
        let views = tables.views();
        let root = self.root_task(&views);
        let mut bufs = ExpandBufs::new(&views, self.item_bound(), self.dense_limit);
        let mut first = DepthBufs::default();
        self.collect_children(
            &views,
            &root.postings,
            self.config.require_pivot.is_none(),
            &mut bufs.walk,
            &mut bufs.stats,
            &mut first,
        );
        first.runs.len()
    }

    /// Builds one sequence's tables — match masks, grid aliveness,
    /// ε-completion DP, and the filtered output arena — appending into the
    /// set's shared arenas (no per-sequence allocation).
    fn prepare_into(
        &self,
        seq: &[ItemId],
        weight: u64,
        scratch: &mut PrepareScratch,
        set: &mut SeqTables,
    ) {
        let ix = self.index.get();
        let n = seq.len();
        let mask_start = set.mask.len();
        let eps_start = set.eps_fin.len();
        let off_start = set.offsets.len();
        let outs_start = set.outs.len();

        let accepts = self.build_core_into(seq, scratch, &mut set.mask, &mut set.eps_fin);
        if accepts {
            let (mask, offsets, outs) = (&set.mask[mask_start..], &mut set.offsets, &mut set.outs);
            self.build_outputs_into(seq, mask, offsets, outs, outs_start, &mut scratch.outbuf);
        }
        set.metas.push(SeqMeta {
            weight,
            accepts,
            len: n,
            num_states: self.fst.num_states(),
            words: ix.words(),
            num_labels: ix.num_labels(),
            mask_start,
            eps_start,
            off_start,
            outs_start,
        });
    }

    /// The pivot-independent half of table building: match masks with grid
    /// aliveness folded in, and the ε-completion bitset, appended to
    /// `mask`/`eps_fin`. Returns whether the FST accepts the sequence; on
    /// rejection the buffers are truncated back to their input lengths.
    fn build_core_into(
        &self,
        seq: &[ItemId],
        scratch: &mut PrepareScratch,
        mask_buf: &mut Vec<u64>,
        eps_buf: &mut Vec<u64>,
    ) -> bool {
        let ix = self.index.get();
        let n = seq.len();
        let qn = self.fst.num_states();
        let w = ix.words();
        let mask_start = mask_buf.len();
        let eps_start = eps_buf.len();

        // 1. Per-position match masks: one ancestor check per (position,
        //    distinct input label), never repeated afterwards.
        mask_buf.resize(mask_start + n * w, 0);
        let mask = &mut mask_buf[mask_start..];
        for (i, &t) in seq.iter().enumerate() {
            ix.fill_match_row(t, self.dict, &mut mask[i * w..(i + 1) * w]);
        }

        // 2. Forward reachability, then aliveness (the grid of Sec. V-A).
        let bwords = ((n + 1) * qn).div_ceil(64).max(1);
        scratch.reset(bwords);
        let (fwd, alive) = (&mut scratch.fwd, &mut scratch.alive);
        set_bit(fwd, self.fst.initial() as usize);
        for i in 0..n {
            let row = &mask[i * w..(i + 1) * w];
            for q in 0..qn {
                if !get_bit(fwd, i * qn + q) {
                    continue;
                }
                for tr in ix.state(q) {
                    if row[tr.word as usize] & tr.mask != 0 {
                        set_bit(fwd, (i + 1) * qn + tr.to as usize);
                    }
                }
            }
        }
        // Backward sweep fusing three row-chained passes: aliveness DP,
        // aliveness-pruning of the match bits, and the ε-completion DP.
        eps_buf.resize(eps_start + bwords, 0);
        let mask = &mut mask_buf[mask_start..];
        let eps_fin = &mut eps_buf[eps_start..];
        for q in 0..qn as u32 {
            if get_bit(fwd, n * qn + q as usize) && self.fst.is_final(q) {
                set_bit(alive, n * qn + q as usize);
            }
            if self.fst.is_final(q) {
                set_bit(eps_fin, n * qn + q as usize);
            }
        }
        for i in (0..n).rev() {
            let row = &mut mask[i * w..(i + 1) * w];
            // Aliveness of row i (from the unpruned row: transitions to
            // dead targets cannot contribute anyway).
            for q in 0..qn {
                if !get_bit(fwd, i * qn + q) {
                    continue;
                }
                let ok = ix.state(q).iter().any(|tr| {
                    row[tr.word as usize] & tr.mask != 0
                        && get_bit(alive, (i + 1) * qn + tr.to as usize)
                });
                if ok {
                    set_bit(alive, i * qn + q);
                }
            }
            // Fold aliveness into the match bits: clear every transition
            // whose target is a dead end. The walk then needs one bit test
            // per transition and the aliveness bitset itself is dropped.
            // (A dead *source* keeps its bits, but no walk ever reaches
            // it.)
            for (d, &(_, to)) in ix.inputs().iter().enumerate() {
                if !get_bit(alive, (i + 1) * qn + to as usize) {
                    row[d / 64] &= !(1 << (d % 64));
                }
            }
            // ε-completion DP over the pruned row: every coordinate the
            // DFS can query is reachable and alive, and each cell of an
            // ε-completion path from such a coordinate is itself reachable
            // and alive, so the pruned masks retain all of its
            // transitions.
            for q in 0..qn {
                let ok = ix.state(q).iter().any(|tr| {
                    tr.label < 0
                        && row[tr.word as usize] & tr.mask != 0
                        && get_bit(eps_fin, (i + 1) * qn + tr.to as usize)
                });
                if ok {
                    set_bit(eps_fin, i * qn + q);
                }
            }
        }
        if !get_bit(alive, self.fst.initial() as usize) {
            mask_buf.truncate(mask_start);
            eps_buf.truncate(eps_start);
            return false;
        }
        true
    }

    /// The pivot-*dependent* half of table building: the filtered output
    /// arena per (position, output label), appended to `offsets`/`outs`
    /// with indices relative to `outs_start`. `mask` is the sequence's
    /// alive-folded mask rows from [`Self::build_core_into`].
    fn build_outputs_into(
        &self,
        seq: &[ItemId],
        mask: &[u64],
        offsets: &mut Vec<OutRef>,
        outs: &mut Vec<ItemId>,
        outs_start: usize,
        outbuf: &mut Vec<ItemId>,
    ) {
        let ix = self.index.get();
        let w = ix.words();
        let max_item = self.config.max_item.unwrap_or(ItemId::MAX);
        let early_stop = self.config.early_stop && self.config.require_pivot.is_some();
        let pivot = self.config.require_pivot.unwrap_or(EPSILON);
        let last_pivot_pos = if early_stop {
            ix.last_pivot_position(seq, pivot, self.dict, outbuf)
                .unwrap_or(usize::MAX)
        } else {
            usize::MAX
        };
        let l = ix.num_labels();
        offsets.reserve(seq.len() * l);
        for (i, &t) in seq.iter().enumerate() {
            let row = &mask[i * w..(i + 1) * w];
            for (li, label) in ix.labels().iter().enumerate() {
                let start = (outs.len() - outs_start) as u32;
                let used = ix.label_mask(li).iter().zip(row).any(|(lm, m)| lm & m != 0);
                if !used {
                    offsets.push(OutRef::default());
                    continue;
                }
                outbuf.clear();
                label.outputs(t, self.dict, outbuf);
                // Early stopping (Sec. V-C): outputs at/after the last
                // pivot-producing position are useless while the prefix
                // still lacks the pivot — park them behind `mid`.
                let usable = |w: ItemId| w <= max_item && w <= self.last_frequent;
                let parked = |w: ItemId| early_stop && w != pivot && i >= last_pivot_pos;
                outs.extend(outbuf.iter().copied().filter(|&w| usable(w) && !parked(w)));
                let mid = (outs.len() - outs_start) as u32;
                outs.extend(outbuf.iter().copied().filter(|&w| usable(w) && parked(w)));
                offsets.push(OutRef {
                    start,
                    mid,
                    end: (outs.len() - outs_start) as u32,
                });
            }
        }
    }

    /// Prefix and emission support of one child run: the weighted count of
    /// distinct input sequences with any posting, and with any
    /// ε-flagged posting. Postings must be grouped by input index.
    fn run_supports(views: &[TableView<'_>], postings: &[Posting]) -> (u64, u64) {
        let mut support = 0u64;
        let mut emit = 0u64;
        let mut last: Option<u32> = None;
        let mut last_emit: Option<u32> = None;
        for &p in postings {
            let s = p_seq(p);
            if last != Some(s) {
                last = Some(s);
                support += views[s as usize].weight;
            }
            if p_eps(p) && last_emit != Some(s) {
                last_emit = Some(s);
                emit += views[s as usize].weight;
            }
        }
        (support, emit)
    }

    /// ε-closure, child expansion and grouping of one node.
    ///
    /// Simulation resumes from the node's postings — one shared,
    /// bitset-deduplicated walk per input sequence, seeded with all of the
    /// sequence's postings (their closures overlap heavily, and the
    /// children are a set anyway) — appending one posting per output item
    /// of the output-producing steps into `d.raw`. Per-item posting counts
    /// and weighted prefix supports accumulate on the fly, so grouping is a
    /// single stable scatter into `d.grouped`: postings of children below σ
    /// are dropped without ever being ordered, and `d.runs` directs the
    /// recursion (ascending items, each run grouped by input index).
    /// Duplicate postings (same coordinate reached from several closure
    /// seeds) are tolerated — the next level's walk absorbs them, and the
    /// distinct-sequence support counting is insensitive to them.
    fn collect_children(
        &self,
        views: &[TableView<'_>],
        node: &[Posting],
        has_pivot: bool,
        walk: &mut WalkBufs,
        stats: &mut ItemStats,
        d: &mut DepthBufs,
    ) {
        let ix = self.index.get();
        let sigma = self.config.sigma;
        d.raw.clear();
        let dense = stats.dense();
        let mut idx = 0;
        while idx < node.len() {
            let s = p_seq(node[idx]);
            let t = &views[s as usize];
            let (qn, w, l) = (t.num_states, t.words, t.num_labels);
            walk.stack.clear();
            while idx < node.len() && p_seq(node[idx]) == s {
                let (i0, q0) = (p_pos(node[idx]), p_state(node[idx]));
                if ix.can_output(q0 as usize) && walk.mark(i0 as usize * qn + q0 as usize) {
                    walk.stack.push((i0, q0));
                }
                idx += 1;
            }
            while let Some((i, q)) = walk.stack.pop() {
                let iu = i as usize;
                if iu == t.len {
                    continue;
                }
                let row = &t.mask[iu * w..(iu + 1) * w];
                for tr in ix.state(q as usize) {
                    // Match + target-aliveness in one precomputed bit.
                    if row[tr.word as usize] & tr.mask == 0 {
                        continue;
                    }
                    if tr.label < 0 {
                        if iu + 1 < t.len
                            && ix.can_output(tr.to as usize)
                            && walk.mark((iu + 1) * qn + tr.to as usize)
                        {
                            walk.stack.push((i + 1, tr.to));
                        }
                        continue;
                    }
                    let or = t.offsets[iu * l + tr.label as usize];
                    let end = if has_pivot { or.end } else { or.mid };
                    if or.start == end {
                        continue;
                    }
                    let target = (iu + 1) * qn + tr.to as usize;
                    let eps = t.eps_fin_bit(target);
                    let items = &t.outs[or.start as usize..end as usize];
                    if dense {
                        for &item in items {
                            d.raw.push(posting(item, s, i + 1, tr.to, eps));
                            let a = &mut stats.acc[item as usize];
                            if a.count == 0 {
                                stats.items.push(item);
                            }
                            a.count += 1;
                            if a.last_seq != s {
                                a.last_seq = s;
                                a.support += t.weight;
                            }
                            if eps && a.emit_last_seq != s {
                                a.emit_last_seq = s;
                                a.emit_support += t.weight;
                            }
                        }
                    } else {
                        for &item in items {
                            d.raw.push(posting(item, s, i + 1, tr.to, eps));
                        }
                    }
                }
            }
            walk.clear();
        }
        d.grouped.clear();
        d.runs.clear();
        if dense {
            // Linear stable scatter: frequent items only, ascending.
            stats.items.sort_unstable();
            let mut pos = 0usize;
            for &item in &stats.items {
                let a = &mut stats.acc[item as usize];
                if a.support >= sigma {
                    let len = a.count as usize;
                    d.runs.push((item, pos..pos + len, a.emit_support));
                    a.count = pos as u32; // becomes the write cursor
                    pos += len;
                }
            }
            d.grouped.resize(pos, 0);
            for &p in &d.raw {
                let a = &mut stats.acc[p_item(p) as usize];
                if a.support >= sigma {
                    d.grouped[a.count as usize] = p;
                    a.count += 1;
                }
            }
            for &item in &stats.items {
                stats.acc[item as usize] = FRESH_ACC;
            }
            stats.items.clear();
        } else {
            // Sparse fallback: order and deduplicate, then scan for runs.
            d.raw.sort_unstable();
            d.raw.dedup();
            std::mem::swap(&mut d.raw, &mut d.grouped);
            let pairs = &d.grouped;
            let mut start = 0;
            while start < pairs.len() {
                let w = p_item(pairs[start]);
                let mut end = start;
                while end < pairs.len() && p_item(pairs[end]) == w {
                    end += 1;
                }
                let (support, emit) = Self::run_supports(views, &pairs[start..end]);
                if support >= sigma {
                    d.runs.push((w, start..end, emit));
                }
                start = end;
            }
        }
    }

    /// Expands one search-tree node; `support` is the node's precomputed
    /// ε-completion (emission) support. Returns `false` iff the sink
    /// stopped the traversal.
    ///
    /// With a `ctx`, shallow nodes (task-relative `depth <
    /// sched.split_depth`) split all child runs after the first off as
    /// stealable [`MineTask`]s while the executor accepts spawns (see
    /// [`TaskCtx::can_spawn`]), instead of recursing into them. The split
    /// children are pushed *before* the inline descent into the first
    /// child, so thieves can start on them immediately. Without a `ctx`
    /// (or in an inline run) the whole subtree is mined in DFS pre-order.
    #[allow(clippy::too_many_arguments)]
    fn expand_sched<M>(
        &self,
        views: &[TableView<'_>],
        node: &[Posting],
        depth: usize,
        has_pivot: bool,
        support: u64,
        prefix: &mut Sequence,
        bufs: &mut ExpandBufs,
        ctx: Option<&TaskCtx<'_, MineTask, M>>,
        sink: &mut dyn FnMut(Sequence, u64) -> bool,
    ) -> bool {
        if !prefix.is_empty()
            && support >= self.config.sigma
            && has_pivot
            && !sink(prefix.clone(), support)
        {
            return false;
        }

        while bufs.depths.len() <= depth {
            bufs.depths.push(DepthBufs::default());
        }
        let mut d = std::mem::take(&mut bufs.depths[depth]);
        self.collect_children(
            views,
            node,
            has_pivot,
            &mut bufs.walk,
            &mut bufs.stats,
            &mut d,
        );

        // Split trailing children off as tasks while this node is shallow
        // and the local queue is short; always keep the first child inline
        // (splitting everything would leave this worker with nothing but
        // its own bookkeeping).
        let split = ctx.filter(|ctx| {
            depth < self.sched.split_depth
                && d.runs.len() > 1
                && ctx.can_spawn(self.sched.share_limit)
        });
        let inline_upto = if let Some(ctx) = split {
            for (w, range, emit) in &d.runs[1..] {
                let mut task_prefix = Sequence::with_capacity(prefix.len() + 1);
                task_prefix.extend_from_slice(prefix);
                task_prefix.push(*w);
                ctx.spawn(MineTask {
                    prefix: task_prefix,
                    postings: d.grouped[range.clone()].to_vec(),
                    has_pivot: has_pivot || Some(*w) == self.config.require_pivot,
                    emit: *emit,
                });
            }
            1
        } else {
            d.runs.len()
        };

        let mut keep_going = true;
        for (w, range, emit) in &d.runs[..inline_upto] {
            prefix.push(*w);
            let child_pivot = has_pivot || Some(*w) == self.config.require_pivot;
            keep_going = self.expand_sched(
                views,
                &d.grouped[range.clone()],
                depth + 1,
                child_pivot,
                *emit,
                prefix,
                bufs,
                ctx,
                sink,
            );
            prefix.pop();
            if !keep_going {
                break;
            }
        }
        bufs.depths[depth] = d;
        keep_going
    }
}

/// Sequential DESQ-DFS over a whole database (each sequence has weight 1);
/// the tests' shorthand for the [`LocalMiner`] eager path.
#[cfg(test)]
pub(crate) fn desq_dfs_impl(
    db: &SequenceDb,
    fst: &Fst,
    dict: &Dictionary,
    sigma: u64,
) -> Vec<(Sequence, u64)> {
    let inputs: Vec<WeightedInput<'_>> = db.sequences.iter().map(|s| (s.as_slice(), 1)).collect();
    LocalMiner::new(fst, dict, MinerConfig::sequential(sigma))
        .mine(&inputs)
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desq_count::desq_count_impl;
    use desq_core::toy;

    fn unit_inputs(db: &SequenceDb) -> Vec<WeightedInput<'_>> {
        db.sequences.iter().map(|s| (s.as_slice(), 1)).collect()
    }

    #[test]
    fn matches_paper_result_on_toy() {
        let fx = toy::fixture();
        let out = desq_dfs_impl(&fx.db, &fx.fst, &fx.dict, 2);
        let rendered: Vec<(String, u64)> =
            out.iter().map(|(s, f)| (fx.dict.render(s), *f)).collect();
        assert_eq!(
            rendered,
            vec![
                ("a1 b".to_string(), 3),
                ("a1 A b".to_string(), 2),
                ("a1 a1 b".to_string(), 2),
            ]
        );
    }

    #[test]
    fn agrees_with_desq_count_across_sigmas() {
        let fx = toy::fixture();
        for sigma in 1..=5 {
            let dfs = desq_dfs_impl(&fx.db, &fx.fst, &fx.dict, sigma);
            let (cnt, _, _) =
                desq_count_impl(&fx.db, &fx.fst, &fx.dict, sigma, usize::MAX, 1, None).unwrap();
            assert_eq!(dfs, cnt, "sigma = {sigma}");
        }
    }

    #[test]
    fn parallel_workers_match_sequential_on_toy() {
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for sigma in 1..=4 {
            let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma));
            let sequential = miner.mine(&inputs).unwrap();
            for workers in 2..=4 {
                let (parallel, stats) = miner.mine_with_workers(&inputs, workers, None).unwrap();
                assert_eq!(parallel, sequential, "sigma={sigma} workers={workers}");
                assert_eq!(stats.len(), workers);
                // Whenever anything was mined, at least one seed task ran.
                if !sequential.is_empty() {
                    assert!(stats.iter().map(|s| s.tasks).sum::<u64>() > 0);
                }
            }
        }
    }

    #[test]
    fn steal_forcing_scheduler_matches_sequential() {
        // Aggressive splitting scatters even the toy tree into many tiny
        // tasks; results must stay oracle-identical regardless of which
        // worker ends up mining which subtree.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for sigma in 1..=3 {
            let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma))
                .with_sched(SchedConfig::aggressive());
            let sequential = miner.mine(&inputs).unwrap();
            for workers in 2..=4 {
                let (parallel, stats) = miner.mine_with_workers(&inputs, workers, None).unwrap();
                assert_eq!(parallel, sequential, "sigma={sigma} workers={workers}");
                // Aggressive splitting makes one task per search-tree node
                // (beyond the inline-first chain), so the task count must
                // exceed the first-level seed count whenever the tree
                // branches.
                let tasks: u64 = stats.iter().map(|s| s.tasks).sum();
                assert!(tasks >= 1, "sigma={sigma} workers={workers}");
            }
        }
    }

    #[test]
    fn mine_each_streams_in_discovery_order_and_stops_on_demand() {
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(2));
        // Full stream matches the eager result as a set.
        let mut streamed = Vec::new();
        let completed = miner
            .mine_each(&inputs, &mut |s, f| {
                streamed.push((s, f));
                true
            })
            .unwrap();
        assert!(completed);
        assert_eq!(
            crate::sort_patterns(streamed.clone()),
            miner.mine(&inputs).unwrap()
        );
        // Early stop: the sink sees exactly one pattern.
        let mut n = 0;
        let completed = miner
            .mine_each(&inputs, &mut |_, _| {
                n += 1;
                false
            })
            .unwrap();
        assert!(!completed);
        assert_eq!(n, 1);
    }

    #[test]
    fn mine_each_early_stop_works_under_sharded_roots() {
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        for workers in 2..=4 {
            // Full parallel stream equals the eager result as a set.
            let mut streamed = Vec::new();
            let completed = miner
                .mine_each_with_workers(&inputs, workers, None, &mut |s, f| {
                    streamed.push((s, f));
                    true
                })
                .unwrap();
            assert!(completed, "workers = {workers}");
            assert_eq!(
                crate::sort_patterns(streamed),
                miner.mine(&inputs).unwrap(),
                "workers = {workers}"
            );
            // A cancelling sink sees exactly one pattern and the stream
            // reports the early stop.
            let mut n = 0;
            let completed = miner
                .mine_each_with_workers(&inputs, workers, None, &mut |_, _| {
                    n += 1;
                    false
                })
                .unwrap();
            assert!(!completed, "workers = {workers}");
            assert_eq!(n, 1, "workers = {workers}");
        }
    }

    #[test]
    fn pivot_restricted_mining_matches_fig6() {
        // Partition P_a1 of the paper's Fig. 6 yields a1 a1 b, a1 A b, a1 b.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(2, fx.a1, false));
        let out = miner.mine(&inputs).unwrap();
        let rendered: Vec<(String, u64)> =
            out.iter().map(|(s, f)| (fx.dict.render(s), *f)).collect();
        assert_eq!(
            rendered,
            vec![
                ("a1 b".to_string(), 3),
                ("a1 A b".to_string(), 2),
                ("a1 a1 b".to_string(), 2),
            ]
        );
    }

    #[test]
    fn pivot_partition_c_is_empty_at_sigma2() {
        // All candidates with pivot c occur only in T1, so nothing is
        // frequent at σ = 2 in partition P_c (paper Fig. 3: P_c mines
        // nothing; a1 b would be found but has pivot a1 < c and must not be
        // emitted here).
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for early_stop in [false, true] {
            let miner = LocalMiner::new(
                &fx.fst,
                &fx.dict,
                MinerConfig::for_pivot(2, fx.c, early_stop),
            );
            assert!(
                miner.mine(&inputs).unwrap().is_empty(),
                "early_stop = {early_stop}"
            );
        }
    }

    #[test]
    fn early_stopping_does_not_change_results() {
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for sigma in 1..=3 {
            for k in 1..=fx.dict.max_fid() {
                let plain =
                    LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(sigma, k, false))
                        .mine(&inputs)
                        .unwrap();
                let stopped =
                    LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(sigma, k, true))
                        .mine(&inputs)
                        .unwrap();
                assert_eq!(plain, stopped, "sigma={sigma} k={k}");
            }
        }
    }

    #[test]
    fn union_of_pivot_partitions_equals_sequential_result() {
        // Item-based partitioning correctness: every frequent sequence is
        // found in exactly one partition.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for sigma in 1..=4 {
            let mut union: Vec<(Sequence, u64)> = Vec::new();
            for k in 1..=fx.dict.max_fid() {
                let part =
                    LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(sigma, k, true))
                        .mine(&inputs)
                        .unwrap();
                union.extend(part);
            }
            union.sort();
            let seq = desq_dfs_impl(&fx.db, &fx.fst, &fx.dict, sigma);
            assert_eq!(union, seq, "sigma = {sigma}");
        }
    }

    #[test]
    fn weights_scale_support() {
        let fx = toy::fixture();
        let inputs: Vec<WeightedInput<'_>> =
            fx.db.sequences.iter().map(|s| (s.as_slice(), 10)).collect();
        // Weights are rescaled ×10, so keep the item filter of the
        // unweighted database (σ_effective = 2).
        let config = MinerConfig::sequential(20).with_last_frequent(fx.dict.last_frequent(2));
        let out = LocalMiner::new(&fx.fst, &fx.dict, config)
            .mine(&inputs)
            .unwrap();
        let rendered: Vec<(String, u64)> =
            out.iter().map(|(s, f)| (fx.dict.render(s), *f)).collect();
        assert_eq!(
            rendered,
            vec![
                ("a1 b".to_string(), 30),
                ("a1 A b".to_string(), 20),
                ("a1 a1 b".to_string(), 20),
            ]
        );
    }

    #[test]
    fn sparse_grouping_fallback_matches_dense() {
        // Huge frequent vocabularies group children by sorting instead of
        // dense per-item accumulators; both paths must agree — sequential,
        // parallel, and under pivot restrictions.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for sigma in 1..=3 {
            let dense = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma));
            let sparse = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma))
                .with_sparse_grouping();
            assert_eq!(
                dense.mine(&inputs).unwrap(),
                sparse.mine(&inputs).unwrap(),
                "sigma={sigma}"
            );
            assert_eq!(
                sparse.mine_with_workers(&inputs, 3, None).unwrap().0,
                dense.mine(&inputs).unwrap(),
                "sigma={sigma} parallel"
            );
            for k in 1..=fx.dict.max_fid() {
                for early_stop in [false, true] {
                    let cfg = MinerConfig::for_pivot(sigma, k, early_stop);
                    let dense = LocalMiner::new(&fx.fst, &fx.dict, cfg)
                        .mine(&inputs)
                        .unwrap();
                    let sparse = LocalMiner::new(&fx.fst, &fx.dict, cfg)
                        .with_sparse_grouping()
                        .mine(&inputs)
                        .unwrap();
                    assert_eq!(dense, sparse, "sigma={sigma} k={k} stop={early_stop}");
                }
            }
        }
    }

    #[test]
    fn mine_prepared_matches_mine_across_pivot_configs() {
        // Cores are pivot-independent: one core per sequence, mined under
        // every pivot configuration, must match the from-scratch miner.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let base = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        let cores: Vec<SeqCore> = fx
            .db
            .sequences
            .iter()
            .map(|s| base.prepare_core(s))
            .collect();
        // T3 is rejected; its core records that.
        assert!(!cores[2].accepts());
        assert!(cores[0].accepts());
        for sigma in 1..=3 {
            for k in 1..=fx.dict.max_fid() {
                for early_stop in [false, true] {
                    let cfg = MinerConfig::for_pivot(sigma, k, early_stop);
                    let miner = LocalMiner::new(&fx.fst, &fx.dict, cfg);
                    let prepared_inputs: Vec<(&[ItemId], &SeqCore, u64)> = fx
                        .db
                        .sequences
                        .iter()
                        .zip(&cores)
                        .map(|(s, c)| (s.as_slice(), c, 1))
                        .collect();
                    assert_eq!(
                        miner.mine_prepared(&prepared_inputs),
                        miner.mine(&inputs).unwrap(),
                        "sigma={sigma} k={k} stop={early_stop}"
                    );
                }
            }
        }
    }

    #[test]
    fn tables_mark_rejected_sequences_dead() {
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(2));
        let tables = miner.prepare_tables(&inputs, 2).unwrap();
        assert_eq!(tables.len(), fx.db.len());
        // T3 = c d c b has no accepting run; its table is empty.
        assert!(!tables.accepts(2));
        assert_eq!(tables.num_match_bits(2), 0);
        // Accepted sequences carry precomputed match bits.
        assert!(tables.accepts(0));
        assert!(tables.num_match_bits(0) > 0);
        // Parallel and sequential table building agree (the parallel path
        // rebases per-chunk arenas onto one set).
        let seq_tables = miner.prepare_tables(&inputs, 1).unwrap();
        assert_eq!(seq_tables.len(), tables.len());
        for s in 0..tables.len() {
            assert_eq!(tables.accepts(s), seq_tables.accepts(s));
            assert_eq!(tables.num_match_bits(s), seq_tables.num_match_bits(s));
        }
    }

    #[test]
    fn empty_input_yields_nothing() {
        let fx = toy::fixture();
        let out = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1))
            .mine(&[])
            .unwrap();
        assert!(out.is_empty());
        let (out, timings) = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1))
            .mine_with_workers(&[], 4, None)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(timings.len(), 4);
    }
}
