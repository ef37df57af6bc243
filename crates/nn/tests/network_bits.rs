//! Pins the exact bits of the default DQN network through a few
//! training updates at the shapes the agent really runs: the
//! `[8, 16, 32]` residual trunk plus a `Linear` Q-head, on 2×16×16
//! inputs at batch 8.
//!
//! Every dense kernel (register-tiled GEMM, the lowered convolution,
//! batch normalization) promises an exact per-element accumulation order,
//! so an optimization that keeps that promise leaves this hash
//! unchanged. A change in the hash means some output bit moved — a
//! behaviour change, not noise. The seeded-outcome pins in
//! `tests/golden` use a smaller trunk and see the network only
//! through argmax, so they cannot catch this on their own.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlmul_nn::{
    build_trunk, clip_grad_norm, mse, Layer, Linear, Optimizer, Relu, RmsProp, Sequential, Tensor,
    TrunkConfig,
};

/// FNV-1a (64-bit) over the IEEE bit patterns of `values`.
fn fnv(mut h: u64, values: &[f32]) -> u64 {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn dqn_network_updates_are_bit_pinned() {
    const BATCH: usize = 8;
    const ACTIONS: usize = 60;
    let mut rng = StdRng::seed_from_u64(17);
    let cfg = TrunkConfig { in_channels: 2, channels: vec![8, 16, 32], blocks_per_stage: 1 };
    let mut net = build_trunk(&cfg, &mut rng);
    let mut head = Linear::new(cfg.feature_dim(), ACTIONS, &mut rng);
    head.scale_parameters(0.01);
    net.push(Box::new(head));
    let mut opt = RmsProp::new(1e-3);

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for step in 0..4 {
        let x = Tensor::kaiming(&[BATCH, 2, 16, 16], 4, &mut rng);
        let next = Tensor::kaiming(&[BATCH, 2, 16, 16], 4, &mut rng);
        opt.zero_grad(&mut net);
        let q = net.forward(&x, true);
        // An eval forward between the training forward and its
        // backward, as the DQN bootstrap does.
        let q_next = net.forward(&next, false);
        let target: Vec<f32> =
            q.data().iter().zip(q_next.data()).map(|(a, b)| 0.5 * a + 0.9 * b + 1.0).collect();
        let (_, grad) = mse(q.data(), &target);
        net.backward(&Tensor::from_vec(q.shape(), grad));
        // Step 0 runs unclipped, later steps clip hard.
        clip_grad_norm(&mut net, if step == 0 { f32::MAX } else { 1e-2 });
        opt.step(&mut net);
        h = fnv(h, q.data());
        h = fnv(h, q_next.data());
    }
    let probe = Tensor::kaiming(&[BATCH, 2, 16, 16], 4, &mut rng);
    h = fnv(h, net.forward(&probe, false).data());
    net.visit_params(&mut |p| h = fnv(h, p.value.data()));
    net.visit_state(&mut |s| h = fnv(h, s));

    assert_eq!(h, 0x2e69_84d6_313c_93df, "network bits moved: hash is {h:#018x}");
}

/// Two training updates (batch 3, then batch 8) with a batch-1 eval
/// forward before each — the act path — hashing outputs, the input
/// gradient `backward` returns, and every parameter and running
/// statistic afterwards.
fn hash_updates(net: &mut dyn Layer, input: &[usize], rng: &mut StdRng, mut h: u64) -> u64 {
    let mut opt = RmsProp::new(1e-3);
    for batch in [3, 8] {
        let shape: Vec<usize> = [batch].iter().chain(input).copied().collect();
        let one: Vec<usize> = [1].iter().chain(input).copied().collect();
        let act = Tensor::kaiming(&one, 4, rng);
        h = fnv(h, net.forward(&act, false).data());
        let x = Tensor::kaiming(&shape, 4, rng);
        opt.zero_grad(net);
        let y = net.forward(&x, true);
        let target: Vec<f32> = y.data().iter().map(|v| 0.5 * v + 1.0).collect();
        let (_, grad) = mse(y.data(), &target);
        let dx = net.backward(&Tensor::from_vec(y.shape(), grad));
        opt.step(net);
        h = fnv(h, y.data());
        h = fnv(h, dx.data());
    }
    net.visit_params(&mut |p| h = fnv(h, p.value.data()));
    net.visit_state(&mut |s| h = fnv(h, s));
    h
}

/// Covers the shapes the trunk pin above misses: the act path's
/// batch-1 eval forward, an odd batch, the 8-bit MBE (2×16×8) and
/// 16-bit (2×32×16) inputs, so the conv tiles see output widths 16,
/// 8, 4 and 2, the input gradient, and the surrogate MLP's `Linear`
/// shapes (512→48→48→8) at batch 1, 8 and 64.
#[test]
fn act_path_odd_batches_and_mlp_are_bit_pinned() {
    let mut rng = StdRng::seed_from_u64(29);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let cfg = TrunkConfig { in_channels: 2, channels: vec![8, 16, 32], blocks_per_stage: 1 };
    for input in [[2, 16, 16], [2, 16, 8], [2, 32, 16]] {
        let mut net = build_trunk(&cfg, &mut rng);
        net.push(Box::new(Linear::new(cfg.feature_dim(), 60, &mut rng)));
        h = hash_updates(&mut net, &input, &mut rng, h);
    }

    let mut mlp = Sequential::new();
    mlp.push(Box::new(Linear::new(512, 48, &mut rng)));
    mlp.push(Box::new(Relu::new()));
    mlp.push(Box::new(Linear::new(48, 48, &mut rng)));
    mlp.push(Box::new(Relu::new()));
    mlp.push(Box::new(Linear::new(48, 8, &mut rng)));
    let mut opt = RmsProp::new(1e-3);
    for batch in [1, 8, 64] {
        let x = Tensor::kaiming(&[batch, 512], 512, &mut rng);
        h = fnv(h, mlp.forward(&x, false).data());
        opt.zero_grad(&mut mlp);
        let y = mlp.forward(&x, true);
        let target: Vec<f32> = y.data().iter().map(|v| 0.25 - v).collect();
        let (_, grad) = mse(y.data(), &target);
        h = fnv(h, mlp.backward(&Tensor::from_vec(y.shape(), grad)).data());
        opt.step(&mut mlp);
    }
    mlp.visit_params(&mut |p| h = fnv(h, p.value.data()));

    assert_eq!(h, 0xc92f_e74d_c9e3_34a5, "network bits moved: hash is {h:#018x}");
}
