//! Checkpoint codec support: [`Record`] for tensors and whole-network
//! snapshots.
//!
//! [`save_params`](crate::save_params) persists parameter values only;
//! bit-identical resume additionally needs non-trainable layer state
//! (batch-norm running statistics) because evaluation-mode forwards —
//! and therefore action selection — read it. [`NetSnapshot`] captures
//! both via [`Layer::visit_params`] and [`Layer::visit_state`].

use crate::layer::Layer;
use crate::tensor::Tensor;
use rlmul_ckpt::{CkptError, Decoder, Encoder, Record};

impl Record for Tensor {
    fn encode(&self, enc: &mut Encoder) {
        self.shape().to_vec().encode(enc);
        enc.put_usize(self.data().len());
        for &x in self.data() {
            enc.put_f32(x);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CkptError> {
        let shape = Vec::<usize>::decode(dec)?;
        let len = dec.get_len(4)?;
        let volume = shape.iter().try_fold(1usize, |v, &d| v.checked_mul(d)).ok_or_else(|| {
            CkptError::Invalid { what: format!("tensor shape {shape:?} overflows usize") }
        })?;
        if len != volume {
            return Err(CkptError::Invalid {
                what: format!("tensor data length {len} does not match shape volume {volume}"),
            });
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(dec.get_f32()?);
        }
        Ok(Tensor::from_vec(&shape, data))
    }
}

/// Everything mutable inside a network: parameter values (visitation
/// order) plus non-trainable state buffers.
///
/// Gradients are deliberately excluded — both training loops call
/// `zero_grad` before accumulating, so post-update gradients never
/// influence the next step.
#[derive(Debug, Clone, PartialEq)]
pub struct NetSnapshot {
    /// Parameter value tensors in [`Layer::visit_params`] order.
    pub params: Vec<Tensor>,
    /// State buffers in [`Layer::visit_state`] order.
    pub state: Vec<Vec<f32>>,
}

impl Record for NetSnapshot {
    fn encode(&self, enc: &mut Encoder) {
        self.params.encode(enc);
        self.state.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CkptError> {
        Ok(NetSnapshot { params: Vec::decode(dec)?, state: Vec::decode(dec)? })
    }
}

/// Captures every parameter value and state buffer of `net`.
pub fn snapshot_net(net: &mut dyn Layer) -> NetSnapshot {
    let mut params = Vec::new();
    net.visit_params(&mut |p| params.push(p.value.clone()));
    let mut state = Vec::new();
    net.visit_state(&mut |s| state.push(s.clone()));
    NetSnapshot { params, state }
}

/// Writes a snapshot back into a structurally identical network.
///
/// # Errors
///
/// [`CkptError::WrongFormat`] when tensor counts, shapes or state
/// buffer lengths do not match `net` — the snapshot was taken from a
/// different architecture.
pub fn restore_net(net: &mut dyn Layer, snap: &NetSnapshot) -> Result<(), CkptError> {
    let mut mismatch: Option<String> = None;
    let mut idx = 0usize;
    net.visit_params(&mut |p| {
        match snap.params.get(idx) {
            Some(t) if t.shape() == p.value.shape() => p.value = t.clone(),
            Some(t) => {
                mismatch.get_or_insert_with(|| {
                    format!("param {idx} shape {:?} != snapshot {:?}", p.value.shape(), t.shape())
                });
            }
            None => {
                mismatch.get_or_insert_with(|| format!("snapshot missing param {idx}"));
            }
        }
        idx += 1;
    });
    if idx != snap.params.len() {
        mismatch.get_or_insert_with(|| {
            format!("network has {idx} params, snapshot {}", snap.params.len())
        });
    }
    let mut sidx = 0usize;
    net.visit_state(&mut |s| {
        match snap.state.get(sidx) {
            Some(buf) if buf.len() == s.len() => s.clone_from(buf),
            Some(buf) => {
                mismatch.get_or_insert_with(|| {
                    format!("state {sidx} length {} != snapshot {}", s.len(), buf.len())
                });
            }
            None => {
                mismatch.get_or_insert_with(|| format!("snapshot missing state {sidx}"));
            }
        }
        sidx += 1;
    });
    if sidx != snap.state.len() {
        mismatch.get_or_insert_with(|| {
            format!("network has {sidx} state buffers, snapshot {}", snap.state.len())
        });
    }
    match mismatch {
        Some(what) => Err(CkptError::WrongFormat { what }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::{build_trunk, TrunkConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_trunk(seed: u64) -> crate::layer::Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        build_trunk(
            &TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 },
            &mut rng,
        )
    }

    #[test]
    fn tensor_round_trips_bit_exactly() {
        let t = Tensor::from_vec(&[2, 3], vec![0.5, -0.0, f32::NAN, 1e-38, 3.0, -7.25]);
        let back = Tensor::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.data().iter().zip(t.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn tensor_with_inconsistent_volume_is_rejected() {
        let mut bytes = Tensor::zeros(&[2, 2]).to_bytes();
        // Patch the shape's first dim (8-byte vec len, then dim 0).
        bytes[8] = 3;
        assert!(Tensor::from_bytes(&bytes).is_err());
    }

    #[test]
    fn tensor_with_overflowing_shape_is_rejected() {
        // Shape [2^32, 2^32] with no data: the volume wraps to 0 in
        // unchecked release arithmetic, which would match `len = 0`.
        let mut enc = Encoder::new();
        vec![1usize << 32, 1usize << 32].encode(&mut enc);
        enc.put_usize(0);
        let err = Tensor::from_bytes(&enc.into_bytes()).unwrap_err();
        assert!(matches!(err, CkptError::Invalid { .. }), "{err:?}");
    }

    #[test]
    fn net_snapshot_round_trips_through_the_codec() {
        let mut net = small_trunk(5);
        // Mutate running stats so state capture is observable.
        let x = Tensor::kaiming(&[2, 2, 8, 8], 4, &mut StdRng::seed_from_u64(6));
        net.forward(&x, true);
        let snap = snapshot_net(&mut net);
        assert!(!snap.params.is_empty());
        assert!(!snap.state.is_empty(), "trunk has batch-norm state");
        let back = NetSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn restore_reproduces_eval_forwards_exactly() {
        let mut trained = small_trunk(7);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..3 {
            let x = Tensor::kaiming(&[2, 2, 8, 8], 4, &mut rng);
            trained.forward(&x, true);
        }
        let snap = snapshot_net(&mut trained);
        // A differently-initialized net with the same structure.
        let mut fresh = small_trunk(99);
        restore_net(&mut fresh, &snap).unwrap();
        let probe = Tensor::kaiming(&[1, 2, 8, 8], 4, &mut rng);
        let a = trained.forward(&probe, false);
        let b = fresh.forward(&probe, false);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn restore_rejects_structural_mismatch() {
        let mut net = small_trunk(1);
        let snap = snapshot_net(&mut net);
        let mut other = {
            let mut rng = StdRng::seed_from_u64(2);
            build_trunk(
                &TrunkConfig { in_channels: 2, channels: vec![4], blocks_per_stage: 1 },
                &mut rng,
            )
        };
        assert!(restore_net(&mut other, &snap).is_err());
    }
}
