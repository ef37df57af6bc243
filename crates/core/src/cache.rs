//! Shared, sharded evaluation cache for synthesis-backed rewards.
//!
//! Synthesizing one compressor-tree state under four delay targets
//! dominates the cost of every learning loop, and parallel
//! environments revisit the same states constantly (they all start
//! from the same legacy structure and explore overlapping
//! neighborhoods). This cache is shared across environments via
//! [`EvalCache::clone`] (a cheap [`Arc`] handle) so that any state
//! synthesized by one worker is free for every other worker.
//!
//! Two mechanisms keep concurrent workers efficient:
//!
//! - **Sharding.** Keys hash to one of [`NUM_SHARDS`] independent
//!   `RwLock`-protected maps, so unrelated lookups never contend.
//! - **In-flight coalescing.** The first worker to miss on a key
//!   installs a pending slot and receives an [`EvalTicket`]; workers
//!   that hit the pending slot block on its condvar instead of
//!   duplicating the (hundreds of milliseconds of) synthesis work.
//!   If the producer fails, waiters wake and retry, and one of them
//!   becomes the new producer.
//!
//! Keys combine the state fingerprint (per-column compressor counts
//! plus the partial-product kind, which together determine the
//! elaborated netlist) with a [`context_fingerprint`] of everything
//! else the cost depends on: the exact delay-target bit patterns, the
//! sizing budget, and the reward weights.

use crate::env::Evaluation;
use rlmul_check::sync::{Condvar, Mutex, RwLock};
use rlmul_ct::PpgKind;
use std::cmp::Ordering as KeyOrdering;
use std::collections::hash_map::{DefaultHasher, Entry};
// check: allow(hash-iter) export_entries sorts by key before serializing
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shards of the cache map; a small power of two keeps the modulo
/// cheap while making same-shard contention between a handful of
/// worker threads unlikely.
const NUM_SHARDS: usize = 16;

/// Full identity of one cached evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Per-column `(full adders, half adders)`-style compressor
    /// counts — the compressor tree's structural fingerprint.
    pub counts: Vec<(u32, u32)>,
    /// Partial-product scheme (distinct kinds elaborate to distinct
    /// netlists even with equal counts).
    pub kind: PpgKind,
    /// Fingerprint of the synthesis/reward context; see
    /// [`context_fingerprint`].
    pub context: u64,
}

/// One hash recipe shared by [`CacheKey`] and borrowed key views, so
/// a `HashMap<CacheKey, _>` can be probed with either (the
/// [`std::borrow::Borrow`] contract requires identical hashes).
fn hash_key_parts<H: Hasher>(counts: &[(u32, u32)], kind: PpgKind, context: u64, state: &mut H) {
    counts.hash(state);
    kind.hash(state);
    context.hash(state);
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_key_parts(&self.counts, self.kind, self.context, state);
    }
}

/// Anything that can identify a cached evaluation. Lookups take
/// `&dyn AsCacheKey`, so the hot hit path can probe with a borrowed
/// [`CacheKeyRef`] — no per-lookup clone of the per-column counts —
/// while the miss path materializes an owned [`CacheKey`] exactly
/// once, when the entry is installed.
pub trait AsCacheKey {
    /// The per-column compressor counts.
    fn counts(&self) -> &[(u32, u32)];
    /// The partial-product scheme.
    fn kind(&self) -> PpgKind;
    /// The synthesis/reward context fingerprint.
    fn context(&self) -> u64;

    /// Materializes an owned key (allocates; miss path only).
    fn to_key(&self) -> CacheKey {
        CacheKey { counts: self.counts().to_vec(), kind: self.kind(), context: self.context() }
    }
}

impl AsCacheKey for CacheKey {
    fn counts(&self) -> &[(u32, u32)] {
        &self.counts
    }
    fn kind(&self) -> PpgKind {
        self.kind
    }
    fn context(&self) -> u64 {
        self.context
    }
    fn to_key(&self) -> CacheKey {
        self.clone()
    }
}

/// Borrowed key view over a compressor tree's live count slice.
#[derive(Debug, Clone, Copy)]
pub struct CacheKeyRef<'a> {
    /// Borrowed per-column compressor counts.
    pub counts: &'a [(u32, u32)],
    /// Partial-product scheme.
    pub kind: PpgKind,
    /// Context fingerprint.
    pub context: u64,
}

impl AsCacheKey for CacheKeyRef<'_> {
    fn counts(&self) -> &[(u32, u32)] {
        self.counts
    }
    fn kind(&self) -> PpgKind {
        self.kind
    }
    fn context(&self) -> u64 {
        self.context
    }
}

impl Hash for dyn AsCacheKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_key_parts(self.counts(), self.kind(), self.context(), state);
    }
}

impl PartialEq for dyn AsCacheKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.counts() == other.counts()
            && self.kind() == other.kind()
            && self.context() == other.context()
    }
}

impl Eq for dyn AsCacheKey + '_ {}

impl<'a> std::borrow::Borrow<dyn AsCacheKey + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn AsCacheKey + 'a) {
        self
    }
}

/// Hashes the non-structural inputs of an evaluation: exact delay
/// targets, sizing budget, and reward weights. FNV-1a over the raw
/// bit patterns, so any numeric difference yields a different cache
/// identity.
pub fn context_fingerprint(delay_targets: &[f64], max_upsizes: usize, weights: [f64; 3]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(delay_targets.len() as u64);
    for &t in delay_targets {
        mix(t.to_bits());
    }
    mix(max_upsizes as u64);
    for w in weights {
        mix(w.to_bits());
    }
    h
}

/// State of one in-flight computation.
#[derive(Debug, Default)]
enum InflightState {
    /// The producer is still synthesizing.
    #[default]
    Running,
    /// The producer published a result.
    Ready(Arc<Evaluation>),
    /// The producer dropped its ticket without a result.
    Abandoned,
}

#[derive(Debug)]
struct Inflight {
    state: Mutex<InflightState>,
    cv: Condvar,
}

impl Default for Inflight {
    fn default() -> Self {
        Inflight {
            state: Mutex::new("core.cache.inflight", InflightState::default()),
            cv: Condvar::new("core.cache.inflight"),
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Ready(Arc<Evaluation>),
    Pending(Arc<Inflight>),
}

#[derive(Debug, Default)]
struct CacheInner {
    // check: allow(hash-iter) never iterated for export; see export_entries sort
    shards: Vec<RwLock<HashMap<CacheKey, Slot>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    coalesced: AtomicUsize,
    obs: CacheObs,
}

/// Pre-registered handles into the global observability registry.
/// The per-cache counters above stay the source for [`CacheStats`]
/// (tests pin their exact per-instance values); these mirror the same
/// increments into the process-wide scrape surface.
#[derive(Debug, Default)]
struct CacheObs {
    hits: rlmul_obs::Counter,
    misses: rlmul_obs::Counter,
    coalesced: rlmul_obs::Counter,
    entries: rlmul_obs::Gauge,
}

impl CacheObs {
    fn new() -> Self {
        let obs = rlmul_obs::global();
        CacheObs {
            hits: obs.labeled_counter(
                "rlmul_cache_lookups_total",
                "Evaluation-cache lookups by result.",
                &[("result", "hit")],
            ),
            misses: obs.labeled_counter(
                "rlmul_cache_lookups_total",
                "Evaluation-cache lookups by result.",
                &[("result", "miss")],
            ),
            coalesced: obs.counter(
                "rlmul_cache_coalesced_total",
                "Cache hits that waited on another worker's in-flight synthesis.",
            ),
            entries: obs.gauge("rlmul_cache_entries", "Finished evaluation-cache entries stored."),
        }
    }
}

/// Counter snapshot; see the field docs for meanings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a finished entry (includes coalesced).
    pub hits: usize,
    /// Lookups that had to synthesize (tickets issued).
    pub misses: usize,
    /// Hits that waited on another worker's in-flight synthesis
    /// instead of duplicating it.
    pub coalesced: usize,
    /// Finished entries currently stored.
    pub entries: usize,
}

/// Result of [`EvalCache::lookup_or_begin`].
pub enum Lookup {
    /// The evaluation already exists (possibly computed by another
    /// worker while we waited).
    Hit(Arc<Evaluation>),
    /// This caller is now the producer for the key and must
    /// [`EvalTicket::complete`] the ticket (or drop it on failure,
    /// which releases waiting workers to retry).
    Miss(EvalTicket),
}

/// Cloneable handle to a cache shared by every clone.
#[derive(Debug, Clone)]
pub struct EvalCache {
    inner: Arc<CacheInner>,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        let shards = (0..NUM_SHARDS)
            // check: allow(hash-iter) export_entries sorts by key before serializing
            .map(|_| RwLock::new("core.cache.shard", HashMap::new()))
            .collect();
        EvalCache {
            inner: Arc::new(CacheInner {
                shards,
                hits: AtomicUsize::new(0),
                misses: AtomicUsize::new(0),
                coalesced: AtomicUsize::new(0),
                obs: CacheObs::new(),
            }),
        }
    }

    // check: allow(hash-iter) lookup only; ordered export lives in export_entries
    fn shard(&self, key: &dyn AsCacheKey) -> &RwLock<HashMap<CacheKey, Slot>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.inner.shards[hasher.finish() as usize % NUM_SHARDS]
    }

    /// Returns the finished evaluation for `key` or makes the caller
    /// the producer. Blocks (rather than duplicating synthesis work)
    /// while another worker computes the same key.
    ///
    /// Accepts any key view (owned [`CacheKey`] or borrowed
    /// [`CacheKeyRef`]); an owned key is materialized only when this
    /// caller actually becomes the producer, so the hit path is
    /// allocation-free.
    pub fn lookup_or_begin(&self, key: &dyn AsCacheKey) -> Lookup {
        loop {
            let pending = {
                let shard = self.shard(key).read();
                match shard.get(key) {
                    Some(Slot::Ready(eval)) => {
                        self.inner.hits.fetch_add(1, Ordering::Relaxed);
                        self.inner.obs.hits.inc();
                        return Lookup::Hit(eval.clone());
                    }
                    Some(Slot::Pending(inflight)) => Some(inflight.clone()),
                    None => None,
                }
            };

            if let Some(inflight) = pending {
                let mut state = inflight.state.lock();
                while matches!(*state, InflightState::Running) {
                    state = inflight.cv.wait(state);
                }
                if let InflightState::Ready(eval) = &*state {
                    self.inner.hits.fetch_add(1, Ordering::Relaxed);
                    self.inner.coalesced.fetch_add(1, Ordering::Relaxed);
                    self.inner.obs.hits.inc();
                    self.inner.obs.coalesced.inc();
                    return Lookup::Hit(eval.clone());
                }
                // Producer abandoned the key; race to become the new
                // producer on the next loop iteration.
                continue;
            }

            let mut shard = self.shard(key).write();
            if shard.contains_key(key) {
                // Another worker installed a slot between our read
                // and write; re-examine it under the read path.
                continue;
            }
            // First genuine miss: materialize the owned key now — the
            // single allocation point of the lookup path.
            let owned = key.to_key();
            let inflight = Arc::new(Inflight::default());
            shard.insert(owned.clone(), Slot::Pending(inflight.clone()));
            self.inner.misses.fetch_add(1, Ordering::Relaxed);
            self.inner.obs.misses.inc();
            return Lookup::Miss(EvalTicket {
                cache: self.clone(),
                key: owned,
                inflight,
                completed: false,
            });
        }
    }

    /// Non-blocking read of a finished entry; pending and absent keys
    /// both return `None`. Does not touch the hit/miss counters.
    /// Accepts borrowed key views, so probing is allocation-free.
    pub fn peek(&self, key: &dyn AsCacheKey) -> Option<Arc<Evaluation>> {
        let shard = self.shard(key).read();
        match shard.get(key) {
            Some(Slot::Ready(eval)) => Some(eval.clone()),
            _ => None,
        }
    }

    /// Number of finished entries across all shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().values().filter(|slot| matches!(slot, Slot::Ready(_))).count())
            .sum()
    }

    /// Whether no finished entry exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones every *finished* entry out of the cache, for inclusion
    /// in a checkpoint. Pending (in-flight) computations are skipped —
    /// they belong to the producer that will complete or abandon them.
    /// The order is deterministic for a deterministic insertion
    /// history: entries are sorted by key.
    pub fn export_entries(&self) -> Vec<(CacheKey, Evaluation)> {
        let mut entries: Vec<(CacheKey, Evaluation)> = self
            .inner
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .filter_map(|(k, slot)| match slot {
                        Slot::Ready(eval) => Some((k.clone(), (**eval).clone())),
                        Slot::Pending(_) => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort_by(|(a, _), (b, _)| key_order(a, b));
        entries
    }

    /// Seeds the cache with previously exported entries (the resume
    /// path: every state synthesized before the checkpoint becomes a
    /// hit). Keys already present — finished or in flight — are left
    /// untouched. Returns the number of entries inserted.
    pub fn import(&self, entries: Vec<(CacheKey, Evaluation)>) -> usize {
        self.import_into(entries, None)
    }

    /// [`EvalCache::import`] that also records every imported entry
    /// (inserted or already present) in a run's working set.
    pub(crate) fn import_into(
        &self,
        entries: Vec<(CacheKey, Evaluation)>,
        mut working: Option<&mut WorkingSet>,
    ) -> usize {
        let mut inserted = 0;
        for (key, eval) in entries {
            let eval = Arc::new(eval);
            if let Some(ws) = working.as_deref_mut() {
                ws.entries.insert(key.clone(), eval.clone());
            }
            let mut shard = self.shard(&key).write();
            if let Entry::Vacant(vacant) = shard.entry(key) {
                vacant.insert(Slot::Ready(eval));
                inserted += 1;
            }
        }
        self.inner.obs.entries.add(inserted as f64);
        inserted
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            coalesced: self.inner.coalesced.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// The one key order every cache export uses: per-column counts, then
/// partial-product kind, then context fingerprint.
fn key_order(a: &CacheKey, b: &CacheKey) -> KeyOrdering {
    (&a.counts, a.kind as u8, a.context).cmp(&(&b.counts, b.kind as u8, b.context))
}

/// The cache entries one run has read or produced: its anchor
/// evaluation, every hit (including waits on another worker's
/// in-flight entry), every miss it synthesized, and every entry it
/// imported on resume.
///
/// A run's checkpoint carries its working set rather than the whole
/// cache, so on a cache shared across tenants the snapshot scales
/// with the run instead of with everything the cache has accumulated.
/// Replaying the run touches only these keys, so a resume that
/// imports them still hits on every state seen before the checkpoint.
/// On a private cache the working set *is* the cache, and its export
/// equals [`EvalCache::export_entries`].
#[derive(Debug, Clone, Default)]
pub struct WorkingSet {
    // check: allow(hash-iter) never iterated unsorted; see WorkingSet::union
    entries: HashMap<CacheKey, Arc<Evaluation>>,
}

impl WorkingSet {
    /// Records `key`. Probes with the borrowed view, so a key already
    /// in the set costs no allocation; the owned key is materialized
    /// on first touch only.
    pub(crate) fn touch(&mut self, key: &dyn AsCacheKey, eval: &Arc<Evaluation>) {
        if !self.entries.contains_key(key) {
            self.entries.insert(key.to_key(), eval.clone());
        }
    }

    /// Distinct keys in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clones the set's entries out for a checkpoint, sorted in
    /// [`EvalCache::export_entries`] order.
    pub fn export(&self) -> Vec<(CacheKey, Evaluation)> {
        Self::export_union([self])
    }

    /// The distinct entries of several sets (a parallel run's
    /// workers), sorted in [`EvalCache::export_entries`] order.
    fn union<'a>(
        sets: impl IntoIterator<Item = &'a WorkingSet>,
    ) -> Vec<(&'a CacheKey, &'a Arc<Evaluation>)> {
        let mut all: Vec<_> = sets.into_iter().flat_map(|s| s.entries.iter()).collect();
        all.sort_by(|a, b| key_order(a.0, b.0));
        all.dedup_by(|a, b| a.0 == b.0);
        all
    }

    /// Number of distinct keys across `sets`.
    pub fn union_len<'a>(sets: impl IntoIterator<Item = &'a WorkingSet>) -> usize {
        Self::union(sets).len()
    }

    /// Clones the distinct entries of `sets` out for a checkpoint,
    /// sorted in [`EvalCache::export_entries`] order.
    pub fn export_union<'a>(
        sets: impl IntoIterator<Item = &'a WorkingSet>,
    ) -> Vec<(CacheKey, Evaluation)> {
        Self::union(sets).into_iter().map(|(k, e)| (k.clone(), (**e).clone())).collect()
    }
}

/// Producer-side handle for one pending key.
///
/// Dropping the ticket without [`EvalTicket::complete`] removes the
/// pending slot and wakes waiters so one of them can take over — a
/// failed synthesis never wedges other workers.
#[must_use = "complete the ticket or drop it to release waiting workers"]
pub struct EvalTicket {
    cache: EvalCache,
    key: CacheKey,
    inflight: Arc<Inflight>,
    completed: bool,
}

impl EvalTicket {
    /// Publishes `eval` for the key and wakes all coalesced waiters.
    pub fn complete(mut self, eval: Arc<Evaluation>) {
        {
            let mut shard = self.cache.shard(&self.key).write();
            shard.insert(self.key.clone(), Slot::Ready(eval.clone()));
        }
        self.cache.inner.obs.entries.add(1.0);
        let mut state = self.inflight.state.lock();
        *state = InflightState::Ready(eval);
        self.inflight.cv.notify_all();
        drop(state);
        self.completed = true;
    }
}

impl Drop for EvalTicket {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        {
            let mut shard = self.cache.shard(&self.key).write();
            if let Some(Slot::Pending(p)) = shard.get(&self.key) {
                if Arc::ptr_eq(p, &self.inflight) {
                    shard.remove(&self.key);
                }
            }
        }
        let mut state = self.inflight.state.lock();
        *state = InflightState::Abandoned;
        self.inflight.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u32) -> CacheKey {
        CacheKey { counts: vec![(tag, 0)], kind: PpgKind::And, context: 7 }
    }

    fn eval(cost: f64) -> Arc<Evaluation> {
        Arc::new(Evaluation { reports: Vec::new(), cost })
    }

    #[test]
    fn miss_then_hit_round_trips() {
        let cache = EvalCache::new();
        let Lookup::Miss(ticket) = cache.lookup_or_begin(&key(1)) else {
            panic!("fresh key must miss");
        };
        ticket.complete(eval(2.5));
        let Lookup::Hit(e) = cache.lookup_or_begin(&key(1)) else {
            panic!("completed key must hit");
        };
        assert_eq!(e.cost, 2.5);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn borrowed_key_views_alias_owned_keys() {
        let cache = EvalCache::new();
        let counts = [(1u32, 0u32)];
        let kref = CacheKeyRef { counts: &counts, kind: PpgKind::And, context: 7 };
        // Miss through the borrowed view materializes the owned key.
        let Lookup::Miss(ticket) = cache.lookup_or_begin(&kref) else {
            panic!("fresh key must miss");
        };
        ticket.complete(eval(3.5));
        // Both views resolve to the same entry (same hash, same shard).
        assert_eq!(cache.peek(&kref).unwrap().cost, 3.5);
        assert_eq!(cache.peek(&key(1)).unwrap().cost, 3.5);
        assert!(matches!(cache.lookup_or_begin(&key(1)), Lookup::Hit(_)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn clones_share_entries() {
        let a = EvalCache::new();
        let b = a.clone();
        if let Lookup::Miss(t) = a.lookup_or_begin(&key(3)) {
            t.complete(eval(1.0));
        }
        assert!(matches!(b.lookup_or_begin(&key(3)), Lookup::Hit(_)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn distinct_contexts_are_distinct_entries() {
        let cache = EvalCache::new();
        let mut k2 = key(4);
        k2.context = 8;
        if let Lookup::Miss(t) = cache.lookup_or_begin(&key(4)) {
            t.complete(eval(1.0));
        }
        assert!(matches!(cache.lookup_or_begin(&k2), Lookup::Miss(_)));
    }

    #[test]
    fn abandoned_ticket_lets_next_caller_produce() {
        let cache = EvalCache::new();
        let Lookup::Miss(ticket) = cache.lookup_or_begin(&key(5)) else {
            panic!("fresh key must miss");
        };
        drop(ticket);
        assert!(matches!(cache.lookup_or_begin(&key(5)), Lookup::Miss(_)));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn waiters_coalesce_on_inflight_work() {
        let cache = EvalCache::new();
        let Lookup::Miss(ticket) = cache.lookup_or_begin(&key(6)) else {
            panic!("fresh key must miss");
        };
        let waiters: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = cache.clone();
                    scope.spawn(move || match cache.lookup_or_begin(&key(6)) {
                        Lookup::Hit(e) => e.cost,
                        Lookup::Miss(_) => panic!("waiter must not become producer"),
                    })
                })
                .collect();
            // Give the waiters time to park on the pending slot, then
            // publish.
            std::thread::sleep(std::time::Duration::from_millis(20));
            ticket.complete(eval(9.0));
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(waiters.iter().all(|&c| c == 9.0));
        let s = cache.stats();
        assert_eq!(s.misses, 1, "only one producer");
        assert_eq!(s.hits, 4);
        assert!(s.coalesced >= 1);
    }

    #[test]
    fn export_import_round_trips_finished_entries() {
        let cache = EvalCache::new();
        for i in 0..5 {
            if let Lookup::Miss(t) = cache.lookup_or_begin(&key(i)) {
                t.complete(eval(i as f64));
            }
        }
        // A pending entry must not be exported.
        let Lookup::Miss(pending) = cache.lookup_or_begin(&key(99)) else {
            panic!("fresh key must miss");
        };
        let entries = cache.export_entries();
        assert_eq!(entries.len(), 5);
        drop(pending);

        let restored = EvalCache::new();
        assert_eq!(restored.import(entries.clone()), 5);
        for i in 0..5 {
            assert_eq!(restored.peek(&key(i)).unwrap().cost, i as f64);
        }
        // Re-import is a no-op, and export order is deterministic.
        assert_eq!(restored.import(entries.clone()), 0);
        assert_eq!(
            restored.export_entries().iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            entries.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn context_fingerprint_separates_numeric_inputs() {
        let a = context_fingerprint(&[0.7, 0.85], 800, [4.0, 1.0, 0.0]);
        let b = context_fingerprint(&[0.7, 0.85], 800, [4.0, 1.0, 1e-9]);
        let c = context_fingerprint(&[0.7, 0.86], 800, [4.0, 1.0, 0.0]);
        let d = context_fingerprint(&[0.7, 0.85], 801, [4.0, 1.0, 0.0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, context_fingerprint(&[0.7, 0.85], 800, [4.0, 1.0, 0.0]));
    }
}
