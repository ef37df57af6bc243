//! The log over the fault-injecting shim: crashes at every frame
//! boundary and inside the last frame, no space left, short writes,
//! failed fsyncs and truncates, torn tails and bit-rot.

use super::shim::{Faults, MemStorage};
use super::*;

const LOG: &str = "serve.log";

/// Record kinds of a job-server-like workload.
const JOB: &str = "job";
const TRACE: &str = "trace";
const SNAP: &str = "sa";

/// Job record: `(id, state, resumes)`; state 0 queued, 1 running, 2 done.
type JobRec = (u64, u8, u32);
/// Frozen trace: event codes.
type TraceRec = Vec<u64>;
/// Driver snapshot: `(step, state bytes)`.
type SnapRec = (u64, Vec<u8>);

fn open(storage: &MemStorage) -> Log {
    Log::open(storage.clone(), LOG).expect("open log")
}

/// `(file bytes, live frame bytes)`.
fn sizes(log: &Log) -> (u64, u64) {
    let st = log.lock();
    (st.len, st.live)
}

/// A value of any of the three kinds, as its encoded record bytes.
fn encoded<R: Record>(r: &R) -> Vec<u8> {
    r.to_bytes()
}

/// The newest value stored for `(kind, key)`, re-encoded for
/// comparison, or `None`.
fn stored(log: &Log, kind: &str, key: u64) -> Result<Option<Vec<u8>>, CkptError> {
    Ok(match kind {
        JOB => log.read::<JobRec>(kind, key)?.map(|r| encoded(&r)),
        TRACE => log.read::<TraceRec>(kind, key)?.map(|r| encoded(&r)),
        _ => log.read::<SnapRec>(kind, key)?.map(|r| encoded(&r)),
    })
}

#[test]
fn frames_round_trip_and_the_newest_wins() {
    let mem = MemStorage::default();
    let log = open(&mem);
    log.append(JOB, 1, &(1u64, 0u8, 0u32)).unwrap();
    log.append(JOB, 2, &(2u64, 0u8, 0u32)).unwrap();
    log.append(SNAP, 1, &(10u64, vec![7u8; 40])).unwrap();
    let lsn = log.append(JOB, 1, &(1u64, 1u8, 0u32)).unwrap();
    log.commit(lsn).unwrap();
    assert_eq!(log.read::<JobRec>(JOB, 1).unwrap(), Some((1, 1, 0)));
    assert_eq!(log.read::<JobRec>(JOB, 3).unwrap(), None);
    assert_eq!(log.keys(JOB), vec![1, 2]);
    let (len, live) = sizes(&log);
    assert!(live < len, "the first record of job 1 is dead");
    drop(log);
    let log = open(&mem);
    assert_eq!(log.torn_bytes(), 0);
    assert_eq!(log.read::<JobRec>(JOB, 1).unwrap(), Some((1, 1, 0)));
    assert_eq!(log.read::<SnapRec>(SNAP, 1).unwrap(), Some((10, vec![7; 40])));
    // A kind mismatch between the index and a decode is a typed error.
    assert!(log.read::<SnapRec>(JOB, 1).is_err());
}

/// One acknowledged fact: after the commit that acknowledged it, the
/// newest frame of `(kind, key)` must hold at least this value.
struct Ack {
    kind: &'static str,
    key: u64,
    value: Vec<u8>,
}

/// The workload's history: every frame written, with its end offset,
/// and a moment after every append or commit.
#[derive(Default)]
struct History {
    /// `(kind, key, record bytes, frame start, frame end)`.
    frames: Vec<(&'static str, u64, Vec<u8>, usize, usize)>,
    /// `(file length, synced length, acknowledged so far)`.
    moments: Vec<(usize, usize, usize)>,
    acks: Vec<Ack>,
}

impl History {
    fn append<R: Record>(
        &mut self,
        log: &Log,
        mem: &MemStorage,
        kind: &'static str,
        key: u64,
        r: &R,
    ) -> Lsn {
        let start = mem.bytes(LOG).len();
        let lsn = log.append(kind, key, r).unwrap();
        let end = mem.bytes(LOG).len();
        self.frames.push((kind, key, encoded(r), start, end));
        self.moment(mem);
        lsn
    }

    fn commit(&mut self, log: &Log, mem: &MemStorage, lsn: Lsn, acks: Vec<Ack>) {
        log.commit(lsn).unwrap();
        self.acks.extend(acks);
        self.moment(mem);
    }

    fn moment(&mut self, mem: &MemStorage) {
        self.moments.push((mem.bytes(LOG).len(), mem.synced(LOG), self.acks.len()));
    }
}

/// Runs a job-server-like workload: submits acknowledged after their
/// commit, claims and periodic snapshots never committed, and terminal
/// batches (final snapshot, trace, record) acknowledged after one
/// commit. Jobs interleave; the last one is still running at the end.
fn serve_like_workload(mem: &MemStorage) -> History {
    let log = open(mem);
    let mut h = History::default();
    let submit = |h: &mut History, id: u64| {
        let rec: JobRec = (id, 0, 0);
        let lsn = h.append(&log, mem, JOB, id, &rec);
        h.commit(&log, mem, lsn, vec![Ack { kind: JOB, key: id, value: encoded(&rec) }]);
    };
    let claim = |h: &mut History, id: u64| {
        h.append(&log, mem, JOB, id, &(id, 1u8, 0u32));
    };
    let snapshot = |h: &mut History, id: u64, step: u64| {
        h.append(&log, mem, SNAP, id, &(step, vec![(id * 16 + step) as u8; 24]));
    };
    let finish = |h: &mut History, id: u64| {
        snapshot(h, id, 99);
        let trace: TraceRec = (0..3 + id).collect();
        h.append(&log, mem, TRACE, id, &trace);
        let rec: JobRec = (id, 2, 0);
        let lsn = h.append(&log, mem, JOB, id, &rec);
        h.commit(
            &log,
            mem,
            lsn,
            vec![
                Ack { kind: JOB, key: id, value: encoded(&rec) },
                Ack { kind: TRACE, key: id, value: encoded(&trace) },
            ],
        );
    };
    submit(&mut h, 1);
    submit(&mut h, 2);
    claim(&mut h, 1);
    snapshot(&mut h, 1, 10);
    claim(&mut h, 2);
    submit(&mut h, 3);
    snapshot(&mut h, 1, 20);
    finish(&mut h, 1);
    snapshot(&mut h, 2, 10);
    claim(&mut h, 3);
    finish(&mut h, 2);
    snapshot(&mut h, 3, 10);
    h
}

/// Checks one crash image: it opens, every `(kind, key)` holds exactly
/// the newest frame that lies whole inside the image (so nothing
/// corrupt is served and a resume sees a bit-identical snapshot), and
/// every acknowledgement made before the crash survives.
fn check_image(h: &History, cut: usize, acked: usize, mem: &MemStorage) -> Log {
    let image = mem.crash_image(LOG, cut);
    let log = Log::open(image, LOG).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
    let whole_end = h.frames.iter().map(|f| f.4).filter(|&end| end <= cut).max().unwrap_or(0);
    assert_eq!(log.torn_bytes() as usize, cut - whole_end, "cut {cut}");
    for kind in [JOB, TRACE, SNAP] {
        for key in 1..=3 {
            let expected = h
                .frames
                .iter()
                .rfind(|f| f.0 == kind && f.1 == key && f.4 <= cut)
                .map(|f| f.2.clone());
            assert_eq!(stored(&log, kind, key).unwrap(), expected, "cut {cut}: {kind}/{key}");
        }
    }
    for ack in &h.acks[..acked] {
        let value = stored(&log, ack.kind, ack.key).unwrap();
        let value = value
            .unwrap_or_else(|| panic!("cut {cut}: acknowledged {}/{} lost", ack.kind, ack.key));
        if ack.kind == JOB {
            // A later, unacknowledged record may have moved the job on
            // (a claim), never back.
            let (now, then) =
                (JobRec::from_bytes(&value).unwrap(), JobRec::from_bytes(&ack.value).unwrap());
            assert!(
                now.1 >= then.1,
                "cut {cut}: job {} went from state {} back to {}",
                ack.key,
                then.1,
                now.1
            );
        } else {
            assert_eq!(value, ack.value, "cut {cut}: acknowledged trace {} changed", ack.key);
        }
    }
    log
}

#[test]
fn crash_at_every_frame_boundary_keeps_every_acknowledged_frame() {
    let mem = MemStorage::default();
    let h = serve_like_workload(&mem);
    // Interpreted runs check every third byte inside the last frame.
    let stride = if cfg!(miri) { 3 } else { 1 };
    let mut images = 0;
    for &(len, synced, acked) in &h.moments {
        // The frame boundary itself, then every byte offset of the
        // last frame that the crash may have torn (never a synced one).
        let last_start = h.frames.iter().map(|f| f.3).filter(|&s| s < len).max().unwrap_or(0);
        let torn_from = last_start.max(synced);
        let mut cuts: Vec<usize> = (torn_from..len).step_by(stride).collect();
        cuts.push(len);
        for cut in cuts {
            let log = check_image(&h, cut, acked, &mem);
            images += 1;
            if cut == len {
                // The recovered log takes new frames after its valid
                // prefix, and they survive the next crash.
                let lsn = log.append(JOB, 9, &(9u64, 0u8, 0u32)).unwrap();
                log.commit(lsn).unwrap();
                assert_eq!(log.read::<JobRec>(JOB, 9).unwrap(), Some((9, 0, 0)));
            }
        }
    }
    assert!(images > h.frames.len(), "every boundary and the torn offsets were visited");
}

#[test]
fn garbage_after_the_last_frame_is_cut_off() {
    let mem = MemStorage::default();
    let log = open(&mem);
    let lsn = log.append(JOB, 1, &(1u64, 0u8, 0u32)).unwrap();
    log.commit(lsn).unwrap();
    let mut bytes = mem.bytes(LOG);
    let valid = bytes.len();
    for tail in [&b"R"[..], &MAGIC[..], &[0u8; 100][..], &[0xff; 3][..]] {
        bytes.truncate(valid);
        bytes.extend_from_slice(tail);
        let image = MemStorage::with_file(LOG, &bytes);
        let log = open(&image);
        assert_eq!(log.torn_bytes() as usize, tail.len());
        assert_eq!(image.bytes(LOG).len(), valid, "the torn tail is truncated on disk");
        assert_eq!(log.read::<JobRec>(JOB, 1).unwrap(), Some((1, 0, 0)));
    }
}

#[test]
fn no_space_left_fails_the_append_and_keeps_the_log_usable() {
    let mem = MemStorage::default();
    let log = open(&mem);
    log.append(JOB, 1, &(1u64, 0u8, 0u32)).unwrap();
    let used = mem.bytes(LOG).len() as u64;
    mem.set_faults(Faults { space: Some(used + 20), ..Faults::default() });
    assert!(matches!(log.append(SNAP, 1, &(5u64, vec![0u8; 64])), Err(CkptError::Io(_))));
    assert_eq!(mem.bytes(LOG).len() as u64, used, "the partial frame is cut off again");
    assert_eq!(log.read::<SnapRec>(SNAP, 1).unwrap(), None);
    mem.set_faults(Faults::default());
    let lsn = log.append(JOB, 2, &(2u64, 0u8, 0u32)).unwrap();
    log.commit(lsn).unwrap();
    let log = open(&mem);
    assert_eq!(log.keys(JOB), vec![1, 2]);
    assert_eq!(log.torn_bytes(), 0);
}

#[test]
fn short_write_is_cut_off_again() {
    let mem = MemStorage::default();
    let log = open(&mem);
    let lsn = log.append(JOB, 1, &(1u64, 0u8, 0u32)).unwrap();
    log.commit(lsn).unwrap();
    let used = mem.bytes(LOG).len();
    mem.set_faults(Faults { short_write: Some(17), ..Faults::default() });
    assert!(log.append(JOB, 2, &(2u64, 0u8, 0u32)).is_err());
    assert_eq!(mem.bytes(LOG).len(), used);
    let lsn = log.append(JOB, 3, &(3u64, 0u8, 0u32)).unwrap();
    log.commit(lsn).unwrap();
    assert_eq!(open(&mem).keys(JOB), vec![1, 3]);
}

#[test]
fn short_write_that_cannot_be_cut_off_stops_all_writes() {
    let mem = MemStorage::default();
    let log = open(&mem);
    let lsn = log.append(JOB, 1, &(1u64, 0u8, 0u32)).unwrap();
    log.commit(lsn).unwrap();
    mem.set_faults(Faults { short_write: Some(17), fail_truncate: true, ..Faults::default() });
    assert!(log.append(JOB, 2, &(2u64, 0u8, 0u32)).is_err());
    mem.set_faults(Faults::default());
    // Frames after the stray bytes would be unreachable: refuse them.
    assert!(log.append(JOB, 3, &(3u64, 0u8, 0u32)).is_err());
    assert!(log.commit(log.tail()).is_ok(), "nothing new to commit");
    // A restart treats the stray bytes as a torn tail.
    let log = open(&mem);
    assert_eq!(log.torn_bytes(), 17);
    assert_eq!(log.keys(JOB), vec![1]);
}

#[test]
fn failed_fsync_is_never_acknowledged_and_sticks() {
    let mem = MemStorage::default();
    let log = open(&mem);
    let lsn = log.append(JOB, 1, &(1u64, 0u8, 0u32)).unwrap();
    mem.set_faults(Faults { fail_sync: true, ..Faults::default() });
    assert!(matches!(log.commit(lsn), Err(CkptError::Io(_))));
    mem.set_faults(Faults::default());
    // The page cache may have dropped the unsynced bytes: no later
    // commit may claim them durable, and no later write is accepted.
    assert!(log.commit(lsn).is_err());
    assert!(log.append(JOB, 2, &(2u64, 0u8, 0u32)).is_err());
}

#[test]
fn one_fsync_covers_every_frame_appended_before_it() {
    let mem = MemStorage::default();
    let log = open(&mem);
    let lsns: Vec<Lsn> = (1..=5).map(|id| log.append(JOB, id, &(id, 0u8, 0u32)).unwrap()).collect();
    log.commit(lsns[4]).unwrap();
    let after_first = mem.syncs();
    for lsn in &lsns {
        log.commit(*lsn).unwrap();
    }
    assert_eq!(mem.syncs(), after_first, "earlier LSNs were already durable");
    assert_eq!(mem.synced(LOG), mem.bytes(LOG).len());
}

#[test]
fn concurrent_commits_share_fsyncs() {
    let mem = MemStorage::default();
    let log = Arc::new(open(&mem));
    let (threads, per_thread) = if cfg!(miri) { (3, 2) } else { (8, 25) };
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    let id = t * 1000 + i;
                    let lsn = log.append(JOB, id, &(id, 0u8, 0u32)).unwrap();
                    log.commit(lsn).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(mem.syncs() <= (threads * per_thread) as usize);
    assert_eq!(mem.synced(LOG), mem.bytes(LOG).len());
    assert_eq!(open(&mem).keys(JOB).len(), (threads * per_thread) as usize);
}

#[test]
fn bit_rot_is_reported_never_served() {
    let mem = MemStorage::default();
    let h = serve_like_workload(&mem);
    let bytes = mem.bytes(LOG);
    let last_start = h.frames.last().map_or(0, |f| f.3);
    let stride = if cfg!(miri) { 7 } else { 1 };
    let (mut refused, mut opened) = (0, 0);
    for rot in (0..bytes.len()).step_by(stride) {
        let image = MemStorage::with_file(LOG, &bytes);
        image.set_faults(Faults { rot_at: Some(rot as u64), ..Faults::default() });
        match Log::open(image, LOG) {
            Err(CkptError::DamagedLog { offset, .. }) => {
                assert!(offset as usize <= rot, "rot at {rot} reported at {offset}");
                refused += 1;
            }
            Err(e) => panic!("rot at {rot}: untyped failure {e}"),
            Ok(log) => {
                // Only damage to the last frame passes for a torn tail.
                assert!(rot >= last_start, "rot at {rot} opened as a torn tail");
                for (kind, key, value, _, end) in &h.frames {
                    let newest = h.frames.iter().rfind(|f| f.0 == *kind && f.1 == *key);
                    if newest.map(|f| f.4) != Some(*end) {
                        continue;
                    }
                    match stored(&log, kind, *key) {
                        Ok(Some(v)) => assert_eq!(&v, value, "rot at {rot}: {kind}/{key}"),
                        Ok(None) => assert!(*end == bytes.len(), "rot at {rot}: {kind}/{key} lost"),
                        Err(_) => {}
                    }
                }
                opened += 1;
            }
        }
    }
    assert!(refused > 0 && opened > 0);

    // Rot that appears after the log was opened surfaces on read.
    let log = open(&mem);
    let (_, _, _, start, end) = h.frames.iter().find(|f| f.0 == SNAP && f.1 == 3).unwrap();
    mem.set_faults(Faults { rot_at: Some(((start + end) / 2) as u64), ..Faults::default() });
    assert!(matches!(log.read::<SnapRec>(SNAP, 3), Err(CkptError::Corrupted { .. })));
}

#[test]
fn compaction_keeps_only_live_frames() {
    let mem = MemStorage::default();
    let h = serve_like_workload(&mem);
    let log = open(&mem);
    // Finished jobs' snapshots are dead to a job server.
    log.forget(SNAP, 1);
    log.forget(SNAP, 2);
    let before: Vec<_> = [JOB, TRACE, SNAP]
        .iter()
        .flat_map(|k| (1..=3).map(move |key| (*k, key)))
        .map(|(k, key)| stored(&log, k, key).unwrap())
        .collect();
    log.compact().unwrap();
    let (len, live) = sizes(&log);
    assert_eq!(len, live);
    assert!(len < h.frames.last().unwrap().4 as u64);
    assert_eq!(mem.bytes(LOG).len() as u64, len);
    assert_eq!(mem.synced(LOG), mem.bytes(LOG).len(), "the compacted log is durable");
    for log in [log, open(&mem)] {
        let after: Vec<_> = [JOB, TRACE, SNAP]
            .iter()
            .flat_map(|k| (1..=3).map(move |key| (*k, key)))
            .map(|(k, key)| stored(&log, k, key).unwrap())
            .collect();
        assert_eq!(after, before);
        // Appends continue on the new file.
        let lsn = log.append(JOB, 4, &(4u64, 0u8, 0u32)).unwrap();
        log.commit(lsn).unwrap();
    }
    assert_eq!(open(&mem).keys(JOB), vec![1, 2, 3, 4]);
}

#[test]
fn failed_compaction_leaves_the_old_log() {
    let mem = MemStorage::default();
    serve_like_workload(&mem);
    let log = open(&mem);
    log.forget(SNAP, 1);
    let bytes = mem.bytes(LOG);
    mem.set_faults(Faults { fail_sync: true, ..Faults::default() });
    assert!(log.compact().is_err());
    mem.set_faults(Faults::default());
    assert_eq!(mem.bytes(LOG), bytes);
    assert_eq!(log.read::<JobRec>(JOB, 3).unwrap(), Some((3, 1, 0)));
    let lsn = log.append(JOB, 5, &(5u64, 0u8, 0u32)).unwrap();
    log.commit(lsn).unwrap();
    assert_eq!(open(&mem).keys(JOB), vec![1, 2, 3, 5]);
}

#[test]
fn commits_compact_a_log_that_is_mostly_dead() {
    let mem = MemStorage::default();
    let log = open(&mem);
    log.lock().compact_at = 2048;
    let mut lsn = log.tail();
    for step in 0..40u64 {
        lsn = log.append(SNAP, 1, &(step, vec![0u8; 64])).unwrap();
    }
    log.commit(lsn).unwrap();
    let (len, live) = sizes(&log);
    assert_eq!(len, live, "the commit compacted");
    assert_eq!(log.read::<SnapRec>(SNAP, 1).unwrap(), Some((39, vec![0; 64])));
    assert!(log.lock().compact_at >= COMPACT_AT);
    assert_eq!(open(&mem).read::<SnapRec>(SNAP, 1).unwrap(), Some((39, vec![0; 64])));
}
