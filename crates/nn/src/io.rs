//! Flat binary persistence for network parameters.
//!
//! Parameters are serialized in visitation order (deterministic for a
//! fixed architecture) as little-endian `f32`, with per-tensor length
//! headers so shape drift is detected at load time. This lets long
//! RL-MUL trainings checkpoint the agent and lets optimized agents be
//! reused across sessions.

use crate::layer::Layer;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"RLMULNN1";

/// Serializes every parameter of `net` to `w`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_params<W: Write>(net: &mut dyn Layer, mut w: W) -> io::Result<()> {
    let mut blobs: Vec<Vec<f32>> = Vec::new();
    net.visit_params(&mut |p| blobs.push(p.value.data().to_vec()));
    w.write_all(MAGIC)?;
    w.write_all(&(blobs.len() as u64).to_le_bytes())?;
    for blob in &blobs {
        w.write_all(&(blob.len() as u64).to_le_bytes())?;
        for v in blob {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores parameters saved by [`save_params`] into an identically
/// structured network. The network is only written once the whole
/// checkpoint has been read and validated.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on a bad magic, a parameter
/// count mismatch or a shape mismatch, and propagates I/O errors
/// (a truncated file ends in [`io::ErrorKind::UnexpectedEof`]).
pub fn load_params<R: Read>(net: &mut dyn Layer, mut r: R) -> io::Result<()> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not an rlmul-nn checkpoint".to_string()));
    }
    // The header's count and lengths are untrusted: check them against
    // the network's own layout before allocating anything they size.
    let mut lens = Vec::new();
    net.visit_params(&mut |p| lens.push(p.value.len()));
    let mut word = [0u8; 8];
    r.read_exact(&mut word)?;
    let count = u64::from_le_bytes(word);
    if count != lens.len() as u64 {
        return Err(invalid(format!(
            "checkpoint has {count} parameters, network has {}",
            lens.len()
        )));
    }
    let mut blobs: Vec<Vec<f32>> = Vec::with_capacity(lens.len());
    for (idx, &want) in lens.iter().enumerate() {
        r.read_exact(&mut word)?;
        let len = u64::from_le_bytes(word);
        if len != want as u64 {
            return Err(invalid(format!("parameter {idx}: expected {want} values, found {len}")));
        }
        let mut blob = vec![0f32; want];
        let mut quad = [0u8; 4];
        for v in &mut blob {
            r.read_exact(&mut quad)?;
            *v = f32::from_le_bytes(quad);
        }
        blobs.push(blob);
    }
    let mut blobs = blobs.into_iter();
    net.visit_params(&mut |p| {
        if let Some(blob) = blobs.next() {
            p.value.data_mut().copy_from_slice(&blob);
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::resnet::{build_trunk, TrunkConfig};
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn save_load_round_trip_preserves_outputs() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 };
        let mut a = build_trunk(&cfg, &mut rng);
        let mut b = build_trunk(&cfg, &mut rng); // different init
        let x = Tensor::kaiming(&[1, 2, 8, 8], 8, &mut rng);
        let ya = a.forward(&x, false);
        let mut buf = Vec::new();
        save_params(&mut a, &mut buf).expect("saves");
        load_params(&mut b, buf.as_slice()).expect("loads");
        let yb = b.forward(&x, false);
        assert_eq!(ya.data(), yb.data());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut small = Linear::new(2, 2, &mut rng);
        let mut big = Linear::new(4, 4, &mut rng);
        let mut buf = Vec::new();
        save_params(&mut small, &mut buf).expect("saves");
        assert!(load_params(&mut big, buf.as_slice()).is_err());
    }

    /// A checkpoint header: magic, parameter count, then the given
    /// per-parameter length words with no data behind them.
    fn header(count: u64, lens: &[u64]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&count.to_le_bytes());
        for len in lens {
            buf.extend_from_slice(&len.to_le_bytes());
        }
        buf
    }

    #[test]
    fn huge_parameter_count_is_invalid_data_not_an_abort() {
        let mut net = Linear::new(2, 2, &mut StdRng::seed_from_u64(3));
        let err = load_params(&mut net, header(1 << 60, &[]).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn huge_blob_length_is_invalid_data_not_an_abort() {
        let mut net = Linear::new(2, 2, &mut StdRng::seed_from_u64(3));
        let err = load_params(&mut net, header(2, &[1 << 62]).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn truncated_file_fails_and_leaves_the_network_untouched() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = Linear::new(3, 2, &mut rng);
        let mut dst = Linear::new(3, 2, &mut rng);
        let mut buf = Vec::new();
        save_params(&mut src, &mut buf).expect("saves");
        let mut before = Vec::new();
        dst.visit_params(&mut |p| before.extend_from_slice(p.value.data()));
        for cut in [4, 12, 20, buf.len() - 1] {
            let err = load_params(&mut dst, &buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}: {err}");
        }
        let mut after = Vec::new();
        dst.visit_params(&mut |p| after.extend_from_slice(p.value.data()));
        assert_eq!(before, after);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Linear::new(2, 2, &mut rng);
        assert!(load_params(&mut net, &b"NOTMAGIC"[..]).is_err());
    }
}
