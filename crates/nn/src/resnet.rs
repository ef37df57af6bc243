//! Residual convolutional trunks (reduced-depth ResNet).
//!
//! The paper adopts ResNet-18 as the agent-network backbone; its
//! input here is only `2 × 2N × ST` (e.g. 2×16×16 for 8-bit
//! multipliers), so a reduced residual network with the same
//! block structure trains on CPU within the reproduction budget. The
//! depth/width are configurable through [`TrunkConfig`].

use crate::act::Relu;
use crate::conv::Conv2d;
use crate::layer::{Layer, Param, Sequential};
use crate::norm::BatchNorm2d;
use crate::pool::GlobalAvgPool;
use crate::tensor::Tensor;
use rand::Rng;

/// A standard two-convolution residual block with optional
/// downsampling projection.
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    downsample: Option<(Conv2d, BatchNorm2d)>,
    relu_out: Relu,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ResidualBlock(downsample: {})", self.downsample.is_some())
    }
}

impl ResidualBlock {
    /// A block from `in_c` to `out_c` channels; `stride > 1` or a
    /// channel change adds a 1×1 projection on the skip path.
    pub fn new<R: Rng + ?Sized>(in_c: usize, out_c: usize, stride: usize, rng: &mut R) -> Self {
        let downsample = if stride != 1 || in_c != out_c {
            Some((Conv2d::new(in_c, out_c, 1, stride, 0, rng), BatchNorm2d::new(out_c)))
        } else {
            None
        };
        ResidualBlock {
            conv1: Conv2d::new(in_c, out_c, 3, stride, 1, rng),
            bn1: BatchNorm2d::new(out_c),
            relu1: Relu::new(),
            conv2: Conv2d::new(out_c, out_c, 3, 1, 1, rng),
            bn2: BatchNorm2d::new(out_c),
            downsample,
            relu_out: Relu::new(),
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_owned(x.clone(), train)
    }

    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        // Both branches chain owned hand-offs so the element-wise
        // stages run in place; the skip branch takes `x` itself.
        let mut main = self.conv1.forward(&x, train);
        main = self.bn1.forward_owned(main, train);
        main = self.relu1.forward_owned(main, train);
        main = self.conv2.forward_owned(main, train);
        main = self.bn2.forward_owned(main, train);
        let skip = match &mut self.downsample {
            Some((conv, bn)) => {
                let s = conv.forward_owned(x, train);
                bn.forward_owned(s, train)
            }
            None => x,
        };
        main.add_assign(&skip);
        self.relu_out.forward_owned(main, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_owned(grad_out.clone())
    }

    fn backward_owned(&mut self, grad_out: Tensor) -> Tensor {
        let g = self.relu_out.backward_owned(grad_out);
        // Main branch.
        let mut gm = self.bn2.backward(&g);
        gm = self.conv2.backward_owned(gm);
        gm = self.relu1.backward_owned(gm);
        gm = self.bn1.backward_owned(gm);
        let mut dx = self.conv1.backward_owned(gm);
        // Skip branch.
        match &mut self.downsample {
            Some((conv, bn)) => {
                let gs = bn.backward_owned(g);
                let gs = conv.backward_owned(gs);
                dx.add_assign(&gs);
            }
            None => dx.add_assign(&g),
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = &mut self.downsample {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.bn1.visit_state(f);
        self.bn2.visit_state(f);
        if let Some((_, bn)) = &mut self.downsample {
            bn.visit_state(f);
        }
    }
}

/// Shape of a residual trunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrunkConfig {
    /// Input channels (`K = 2` compressor kinds in RL-MUL).
    pub in_channels: usize,
    /// Channel width of each stage; later stages downsample by 2.
    pub channels: Vec<usize>,
    /// Residual blocks per stage.
    pub blocks_per_stage: usize,
}

impl Default for TrunkConfig {
    /// A compact three-stage trunk (16/32/64 channels, 2 blocks each)
    /// — the reduced stand-in for ResNet-18.
    fn default() -> Self {
        TrunkConfig { in_channels: 2, channels: vec![16, 32, 64], blocks_per_stage: 2 }
    }
}

impl TrunkConfig {
    /// Feature width produced by [`build_trunk`] for this config.
    pub fn feature_dim(&self) -> usize {
        *self.channels.last().expect("at least one stage")
    }
}

/// Builds the residual trunk: stem convolution, residual stages,
/// global average pooling. Output shape is `[batch, feature_dim]`.
pub fn build_trunk<R: Rng + ?Sized>(config: &TrunkConfig, rng: &mut R) -> Sequential {
    let mut seq = Sequential::new();
    let c0 = config.channels[0];
    seq.push(Box::new(Conv2d::new(config.in_channels, c0, 3, 1, 1, rng)));
    seq.push(Box::new(BatchNorm2d::new(c0)));
    seq.push(Box::new(Relu::new()));
    let mut in_c = c0;
    for (stage, &ch) in config.channels.iter().enumerate() {
        for block in 0..config.blocks_per_stage {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            seq.push(Box::new(ResidualBlock::new(in_c, ch, stride, rng)));
            in_c = ch;
        }
    }
    seq.push(Box::new(GlobalAvgPool::new()));
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trunk_produces_feature_vector() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = TrunkConfig { in_channels: 2, channels: vec![8, 16], blocks_per_stage: 1 };
        let mut trunk = build_trunk(&cfg, &mut rng);
        let x = Tensor::kaiming(&[3, 2, 16, 16], 8, &mut rng);
        let y = trunk.forward(&x, true);
        assert_eq!(y.shape(), &[3, 16]);
    }

    #[test]
    fn residual_block_gradient_check() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut block = ResidualBlock::new(2, 4, 2, &mut rng);
        let x = Tensor::kaiming(&[2, 2, 4, 4], 4, &mut rng);
        crate::testutil::grad_check(&mut block, &x, 3e-3, 6e-2);
    }

    #[test]
    fn identity_block_gradient_check() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut block = ResidualBlock::new(3, 3, 1, &mut rng);
        let x = Tensor::kaiming(&[2, 3, 3, 3], 4, &mut rng);
        crate::testutil::grad_check(&mut block, &x, 3e-3, 6e-2);
    }

    #[test]
    fn trunk_param_count_is_stable() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut trunk = build_trunk(&TrunkConfig::default(), &mut rng);
        let mut count = 0usize;
        trunk.visit_params(&mut |p| count += p.value.len());
        // Deterministic structural budget for the default config.
        assert!(count > 50_000 && count < 500_000, "params = {count}");
    }
}
