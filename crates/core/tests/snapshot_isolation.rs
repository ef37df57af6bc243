//! Snapshot isolation on a shared evaluation cache.
//!
//! A driver checkpoint carries the run's *working set* — the cache
//! entries the run itself read or produced — not the whole cache. On a
//! cache shared with another job the snapshot's cache entries must
//! therefore encode byte-identically to the same run's entries on a
//! private cache, where the working set is the whole cache. (The rest
//! of the snapshot legitimately differs: the Pareto archive holds only
//! points the run synthesized itself, and on a shared cache some of
//! its states were synthesized by the other job.) Resume imports the working set
//! and seeds the resumed run's own set with it, so a crash → resume →
//! crash → resume chain replays bit-identically and never synthesizes a
//! state twice.

use rlmul_baselines::SaConfig;
use rlmul_ckpt::{Record, SnapshotStore};
use rlmul_core::{
    run_sa_with, train_a2c_with, train_dqn_with, A2cConfig, A2cSnapshot, CacheKey, DqnConfig,
    DqnSnapshot, EnvConfig, EvalCache, Evaluation, MulEnv, OptimizationOutcome, SaSnapshot,
    TrainHooks,
};
use rlmul_ct::PpgKind;
use rlmul_nn::TrunkConfig;
use std::path::PathBuf;

const STEPS: usize = 30;
const CKPT_EVERY: usize = 5;
const SEED_A: u64 = 11;
const SEED_B: u64 = 23;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlmul-isolation-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn env_cfg() -> EnvConfig {
    EnvConfig::new(6, PpgKind::And)
}

fn sa_cfg() -> SaConfig {
    SaConfig { steps: STEPS, ..Default::default() }
}

fn history_hooks(store: &SnapshotStore) -> TrainHooks {
    TrainHooks {
        store: Some(store.clone()),
        checkpoint_every: CKPT_EVERY,
        keep_history: true,
        ..Default::default()
    }
}

fn keys(entries: &[(CacheKey, Evaluation)]) -> Vec<CacheKey> {
    entries.iter().map(|(k, _)| k.clone()).collect()
}

fn assert_bit_identical(full: &OptimizationOutcome, resumed: &OptimizationOutcome) {
    assert_eq!(full.trajectory.len(), resumed.trajectory.len());
    for (i, (a, b)) in full.trajectory.iter().zip(&resumed.trajectory).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "trajectory diverged at step {i}: {a} vs {b}");
    }
    assert_eq!(full.best_cost.to_bits(), resumed.best_cost.to_bits());
    assert_eq!(full.best, resumed.best);
}

/// The encoded cache entries of the SA snapshot pinned at `step`.
fn sa_entries_at(store: &SnapshotStore, step: usize) -> Vec<u8> {
    let snap: SaSnapshot = store.load_step(step).unwrap();
    snap.cache_entries().to_vec().to_bytes()
}

/// Job A (seed `SEED_A`) run to completion on a fresh cache: the other
/// tenant whose work job B must never checkpoint.
fn job_a() -> EvalCache {
    let shared = EvalCache::new();
    run_sa_with(&env_cfg(), &sa_cfg(), SEED_A, shared.clone(), &TrainHooks::default(), None)
        .unwrap();
    shared
}

#[test]
fn sa_snapshot_holds_only_its_working_set_and_double_resume_replays() {
    let shared = job_a();
    let a_entries = shared.export_entries();

    // Reference: job B alone on a private cache, every periodic
    // snapshot pinned.
    let private = EvalCache::new();
    let ref_dir = scratch_dir("sa-private");
    let ref_store = SnapshotStore::new(&ref_dir, "sa");
    let reference = run_sa_with(
        &env_cfg(),
        &sa_cfg(),
        SEED_B,
        private.clone(),
        &history_hooks(&ref_store),
        None,
    )
    .unwrap();
    let b_keys = keys(&private.export_entries());
    assert_eq!(reference.states_visited, b_keys.len());
    let a_only = keys(&a_entries).into_iter().filter(|k| !b_keys.contains(k)).count();
    assert!(a_only > 0, "jobs A and B must diverge for the isolation check to bite");

    // Job B on the cache job A filled.
    let dir = scratch_dir("sa-shared");
    let store = SnapshotStore::new(&dir, "sa");
    let on_shared =
        run_sa_with(&env_cfg(), &sa_cfg(), SEED_B, shared.clone(), &history_hooks(&store), None)
            .unwrap();
    assert_bit_identical(&reference, &on_shared);
    assert!(on_shared.pipeline.cache_hits > reference.pipeline.cache_hits, "B reused A's work");
    // The result reports B's own states, not the shared cache's size.
    assert_eq!(on_shared.states_visited, b_keys.len());
    assert!(shared.len() > b_keys.len());

    // Every snapshot B wrote carries the private run's entries byte for
    // byte: exactly B's working set at that step, no key only A touched.
    let latest: SaSnapshot = store.load_latest().unwrap();
    assert_eq!(keys(latest.cache_entries()), b_keys);
    for step in (CKPT_EVERY..STEPS).step_by(CKPT_EVERY) {
        assert_eq!(sa_entries_at(&store, step), sa_entries_at(&ref_store, step), "step {step}");
    }

    // Crash after step 10: only the pinned step-10 snapshot survives.
    // The restarted daemon's cache is warm with job A's work.
    let s1: SaSnapshot = store.load_step(10).unwrap();
    let s1_keys = keys(s1.cache_entries());
    let warm = EvalCache::new();
    warm.import(a_entries);
    let dir1 = scratch_dir("sa-resume1");
    let store1 = SnapshotStore::new(&dir1, "sa");
    let resumed1 =
        run_sa_with(&env_cfg(), &sa_cfg(), 0, warm, &history_hooks(&store1), Some(s1)).unwrap();
    assert_bit_identical(&reference, &resumed1);
    assert_eq!(resumed1.states_visited, b_keys.len());

    // Crash again after step 20. The resumed run's snapshot still
    // carries everything evaluated before the first crash.
    assert_eq!(sa_entries_at(&store1, 20), sa_entries_at(&ref_store, 20));
    let s2: SaSnapshot = store1.load_step(20).unwrap();
    let s2_keys = keys(s2.cache_entries());
    assert!(s1_keys.iter().all(|k| s2_keys.contains(k)), "resume must seed its working set");

    // Second restart on a cold cache: the replay is bit-identical and
    // synthesizes only states first reached after step 20.
    let cold = EvalCache::new();
    let resumed2 =
        run_sa_with(&env_cfg(), &sa_cfg(), 0, cold.clone(), &TrainHooks::default(), Some(s2))
            .unwrap();
    assert_bit_identical(&reference, &resumed2);
    let synthesized: Vec<CacheKey> =
        keys(&cold.export_entries()).into_iter().filter(|k| !s2_keys.contains(k)).collect();
    assert_eq!(resumed2.pipeline.synthesis_calls, synthesized.len());
    assert!(
        synthesized.iter().all(|k| !s1_keys.contains(k)),
        "second resume re-synthesized a state evaluated before the first crash"
    );

    for d in [ref_dir, dir, dir1] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// Runs `train` on a private cache and on the cache job A filled, and
/// checks the private snapshot's entries against the cache's
/// [`EvalCache::export_entries`] and the shared run's entries against
/// the private run's.
fn check_private_and_shared<S: Record>(
    tag: &str,
    entries: impl Fn(&S) -> &[(CacheKey, Evaluation)],
    train: impl Fn(EvalCache, &TrainHooks) -> OptimizationOutcome,
) {
    let private = EvalCache::new();
    let private_dir = scratch_dir(&format!("{tag}-export-private"));
    let private_store = SnapshotStore::new(&private_dir, tag);
    let reference = train(private.clone(), &history_hooks(&private_store));
    let snap: S = private_store.load_latest().unwrap();
    assert_eq!(entries(&snap).to_vec().to_bytes(), private.export_entries().to_bytes());
    assert_eq!(reference.states_visited, private.len());

    let shared = job_a();
    let shared_dir = scratch_dir(&format!("{tag}-export-shared"));
    let shared_store = SnapshotStore::new(&shared_dir, tag);
    let on_shared = train(shared.clone(), &history_hooks(&shared_store));
    assert_bit_identical(&reference, &on_shared);
    assert_eq!(on_shared.states_visited, reference.states_visited);
    assert!(shared.len() > private.len(), "job A left entries job B never touched");
    let shared_snap: S = shared_store.load_latest().unwrap();
    assert_eq!(entries(&shared_snap).to_vec().to_bytes(), entries(&snap).to_vec().to_bytes());
    std::fs::remove_dir_all(private_dir).unwrap();
    std::fs::remove_dir_all(shared_dir).unwrap();
}

#[test]
fn sa_private_snapshot_equals_export_entries() {
    check_private_and_shared("sa", SaSnapshot::cache_entries, |cache, hooks| {
        run_sa_with(&env_cfg(), &sa_cfg(), SEED_B, cache, hooks, None).unwrap()
    });
}

#[test]
fn dqn_private_snapshot_equals_export_entries() {
    let config = DqnConfig {
        steps: 12,
        warmup: 4,
        batch_size: 4,
        seed: SEED_B,
        trunk: TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 },
        ..Default::default()
    };
    check_private_and_shared("dqn", DqnSnapshot::cache_entries, |cache, hooks| {
        let mut env = MulEnv::with_cache(env_cfg(), cache).unwrap();
        train_dqn_with(&mut env, &config, hooks, None).unwrap()
    });
}

#[test]
fn a2c_private_snapshot_equals_export_entries() {
    let config = A2cConfig {
        steps: 10,
        n_envs: 2,
        n_step: 3,
        seed: SEED_B,
        trunk: TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 },
        ..Default::default()
    };
    // The union of both workers' working sets.
    check_private_and_shared("a2c", A2cSnapshot::cache_entries, |cache, hooks| {
        train_a2c_with(&env_cfg(), &config, cache, hooks, None).unwrap()
    });
}
