//! Element-wise activations.

use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// A ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_owned(x.clone(), train)
    }

    fn forward_owned(&mut self, mut x: Tensor, train: bool) -> Tensor {
        if train {
            // Only training forwards refresh the gradient mask, so an
            // evaluation forward between a training forward and its
            // backward cannot clobber it.
            self.mask.clear();
            self.mask.extend(x.data().iter().map(|&v| v > 0.0));
        }
        // Selects rather than branches: the signs are data, so a
        // branch per element mispredicts about half the time.
        for v in x.data_mut() {
            *v = if *v <= 0.0 { 0.0 } else { *v };
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_owned(grad_out.clone())
    }

    fn backward_owned(&mut self, mut g: Tensor) -> Tensor {
        for (v, &m) in g.data_mut().iter_mut().zip(&self.mask) {
            *v = if m { *v } else { 0.0 };
        }
        g
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clips_negatives_and_gates_gradients() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = r.backward(&Tensor::from_vec(&[4], vec![1.0; 4]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }
}
