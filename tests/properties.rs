//! Property-based tests (proptest) over the core invariants:
//! legality closure of the action/legalization system, matrix↔tensor
//! consistency, functional correctness under random action chains,
//! adder correctness, and Pareto/hypervolume laws.

use proptest::prelude::*;
use rlmul::ct::{Action, CompressorMatrix, CompressorTree, PpProfile, PpgKind, StageTensor};
use rlmul::lec::{check_datapath, check_equiv, golden, CecOptions, PortValues, Simulator};
use rlmul::pareto::{dominates, hypervolume_2d, pareto_front, Point2};
use rlmul::rtl::{
    add, from_verilog, lint, to_verilog, AdderKind, MultiplierNetlist, NetlistBuilder,
};
use rlmul::synth::{analyze, Drive, IncrementalSta, Library, MappedNetlist, TimingReport};

fn kind_strategy() -> impl Strategy<Value = PpgKind> {
    prop_oneof![
        Just(PpgKind::And),
        Just(PpgKind::Mbe),
        Just(PpgKind::MacAnd),
        Just(PpgKind::MacMbe),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any chain of masked actions keeps the tree legal, assignable,
    /// and consistent between matrix and tensor totals.
    #[test]
    fn action_chains_preserve_legality(
        kind in kind_strategy(),
        picks in prop::collection::vec(0usize..1000, 1..25),
    ) {
        let mut tree = CompressorTree::wallace(6, kind).expect("legal width");
        for pick in picks {
            let actions = tree.valid_actions();
            prop_assert!(!actions.is_empty());
            tree = tree.apply_action(actions[pick % actions.len()]).expect("valid");
            prop_assert!(tree.is_legal());
            let tensor = tree.assign_stages().expect("assignable");
            prop_assert_eq!(&tensor.to_matrix(), tree.matrix());
        }
    }

    /// Random masked walks never break the arithmetic: the elaborated
    /// netlist stays exhaustively equivalent to a*b (+c).
    #[test]
    fn random_walks_keep_multiplying(
        seedless_picks in prop::collection::vec(0usize..1000, 0..12),
        kind in prop_oneof![Just(PpgKind::And), Just(PpgKind::MacAnd)],
    ) {
        let mut tree = CompressorTree::dadda(4, kind).expect("legal width");
        for pick in seedless_picks {
            let actions = tree.valid_actions();
            tree = tree.apply_action(actions[pick % actions.len()]).expect("valid");
        }
        let netlist = MultiplierNetlist::elaborate(&tree).expect("elaborates").into_netlist();
        let lec = check_datapath(&netlist, 4, kind).expect("simulates");
        prop_assert!(lec.equivalent, "{:?}", lec.counterexample);
    }

    /// Legality of a matrix is exactly assignability (on matrices
    /// reachable by perturbing per-column counts).
    #[test]
    fn legality_implies_assignability(
        deltas in prop::collection::vec((-2i64..=2, -2i64..=2), 16),
    ) {
        let profile = PpProfile::new(8, PpgKind::And).expect("legal width");
        let base = CompressorTree::wallace(8, PpgKind::And).expect("legal width");
        let counts: Vec<(u32, u32)> = base
            .matrix()
            .counts()
            .iter()
            .zip(&deltas)
            .map(|(&(a, b), &(da, db))| {
                ((a as i64 + da).max(0) as u32, (b as i64 + db).max(0) as u32)
            })
            .collect();
        let matrix = CompressorMatrix::from_counts(counts);
        if matrix.is_legal(&profile) {
            prop_assert!(StageTensor::assign(&profile, &matrix).is_ok());
        }
    }

    /// The flat action index round-trips for any column count.
    #[test]
    fn action_index_round_trip(ncols in 1usize..64, idx_seed in 0usize..10_000) {
        let space = ncols * 4;
        let idx = idx_seed % space;
        let a = Action::from_flat_index(idx, ncols).expect("in range");
        prop_assert_eq!(a.flat_index(), idx);
        prop_assert!(Action::from_flat_index(space, ncols).is_err());
    }

    /// All three adder architectures agree with `u64` addition on
    /// random vectors at random widths.
    #[test]
    fn adders_agree_with_u64(
        width in 1usize..24,
        xs in prop::collection::vec(any::<u64>(), 4),
        ys in prop::collection::vec(any::<u64>(), 4),
    ) {
        let mask = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
        for kind in [AdderKind::BrentKung, AdderKind::KoggeStone, AdderKind::RippleCarry] {
            let mut b = NetlistBuilder::new("add");
            let x = b.input("x", width);
            let y = b.input("y", width);
            let s = add(&mut b, &x, &y, kind);
            b.output("s", &s);
            let n = b.finish();
            let sim = Simulator::new(&n).expect("combinational");
            let xv: Vec<u64> = xs.iter().map(|v| v & mask).collect();
            let yv: Vec<u64> = ys.iter().map(|v| v & mask).collect();
            let out = sim
                .run(&[PortValues::pack(&xv, width), PortValues::pack(&yv, width)])
                .expect("shapes match");
            for (l, (xq, yq)) in xv.iter().zip(&yv).enumerate() {
                prop_assert_eq!(out[0].lane(l), xq.wrapping_add(*yq) & mask);
            }
        }
    }

    /// The golden model is linear in the addend and masks correctly.
    #[test]
    fn golden_model_laws(a in any::<u16>(), b in any::<u16>(), c in any::<u32>()) {
        let bits = 16;
        let m = (1u128 << 32) - 1;
        prop_assert_eq!(golden(a as u64, b as u64, 0, bits), (a as u128 * b as u128) & m);
        prop_assert_eq!(
            golden(a as u64, b as u64, c as u128, bits),
            (golden(a as u64, b as u64, 0, bits) + c as u128) & m
        );
    }

    /// Pareto front laws: members are mutually non-dominated, every
    /// input point is dominated-or-equal by some member, and the
    /// hypervolume never decreases when points are added.
    #[test]
    fn pareto_front_laws(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..40),
        extra in (0.0f64..100.0, 0.0f64..100.0),
    ) {
        let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let front = pareto_front(&points);
        for (i, p) in front.iter().enumerate() {
            for (j, q) in front.iter().enumerate() {
                if i != j {
                    prop_assert!(!dominates(*p, *q), "{p:?} dominates {q:?}");
                }
            }
        }
        for p in &points {
            prop_assert!(
                front.iter().any(|f| !dominates(*p, *f) && (dominates(*f, *p) || (f.x == p.x && f.y == p.y))),
                "{p:?} neither on front nor dominated"
            );
        }
        let reference = Point2::new(101.0, 101.0);
        let hv = hypervolume_2d(&points, reference);
        let mut bigger = points.clone();
        bigger.push(Point2::new(extra.0, extra.1));
        prop_assert!(hypervolume_2d(&bigger, reference) >= hv - 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MBE multipliers stay exhaustively correct under random action
    /// chains (heavier: fewer cases).
    #[test]
    fn mbe_walks_keep_multiplying(picks in prop::collection::vec(0usize..1000, 0..8)) {
        let mut tree = CompressorTree::wallace(6, PpgKind::Mbe).expect("legal width");
        for pick in picks {
            let actions = tree.valid_actions();
            tree = tree.apply_action(actions[pick % actions.len()]).expect("valid");
        }
        let netlist = MultiplierNetlist::elaborate(&tree).expect("elaborates").into_netlist();
        let lec = check_datapath(&netlist, 6, PpgKind::Mbe).expect("simulates");
        prop_assert!(lec.equivalent, "{:?}", lec.counterexample);
    }

    /// Verilog round-trip is formally lossless: emitting any reachable
    /// multiplier netlist and re-parsing the text yields a netlist the
    /// SAT-based CEC proves equivalent to the original, and both sides
    /// lint clean (errors; discarded top-column carries may warn).
    #[test]
    fn verilog_round_trip_is_formally_equivalent(
        kind in prop_oneof![Just(PpgKind::And), Just(PpgKind::Mbe)],
        picks in prop::collection::vec(0usize..1000, 0..6),
    ) {
        let mut tree = CompressorTree::dadda(4, kind).expect("legal width");
        for pick in picks {
            let actions = tree.valid_actions();
            tree = tree.apply_action(actions[pick % actions.len()]).expect("valid");
        }
        let netlist = MultiplierNetlist::elaborate(&tree).expect("elaborates").into_netlist();
        let text = to_verilog(&netlist);
        let reparsed = from_verilog(&text).expect("emitted verilog parses");
        prop_assert_eq!(lint(&netlist).errors(), 0);
        prop_assert_eq!(lint(&reparsed).errors(), 0, "{}", lint(&reparsed).render());
        let report = check_equiv(&netlist, &reparsed, &CecOptions::default())
            .expect("ports line up after round-trip");
        prop_assert!(report.equivalent, "{:?}", report.counterexample);
    }

    /// Incremental STA after random sizing batches stays bit-identical
    /// to a full timing pass: same arrivals, worst delay, and critical
    /// path, no matter which gates were resized in which order.
    #[test]
    fn incremental_sta_matches_full_analyze(
        batches in prop::collection::vec(
            prop::collection::vec((0usize..10_000, 0usize..3), 1..6),
            1..8,
        ),
    ) {
        let tree = CompressorTree::wallace(6, PpgKind::And).expect("legal width");
        let netlist = MultiplierNetlist::elaborate(&tree).expect("elaborates").into_netlist();
        let library = Library::nangate45();
        let mut m = MappedNetlist::map(&netlist, &library);
        let num_gates = netlist.gates().len();
        let mut engine = IncrementalSta::new();
        engine.seed(&m, analyze(&m).arrivals);
        for batch in batches {
            let mut resized = Vec::new();
            for (pick, drive) in batch {
                let gi = pick % num_gates;
                m.set_drive(gi, [Drive::X1, Drive::X2, Drive::X4][drive]);
                resized.push(gi);
            }
            engine.propagate(&m, &resized);
            let inc = TimingReport::from_arrivals(&m, engine.arrivals().to_vec());
            let full = analyze(&m);
            prop_assert_eq!(inc.worst_delay_ns.to_bits(), full.worst_delay_ns.to_bits());
            prop_assert_eq!(inc.arrivals.len(), full.arrivals.len());
            for (a, b) in inc.arrivals.iter().zip(&full.arrivals) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(&inc.critical_path, &full.critical_path);
        }
    }
}
