//! The first-order optimizer over flat parameter slices.
//!
//! An optimizer owns its state (the momentum) for a single parameter
//! tensor; models hold one optimizer per tensor.

/// Plain SGD with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<f64>,
}

impl Sgd {
    /// Creates an SGD optimizer for a parameter tensor of `len` elements.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(len: usize, lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            velocity: vec![0.0; len],
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Replaces the learning rate (e.g. for a decay schedule).
    pub fn set_lr(&mut self, lr: f64) {
        assert!(lr > 0.0 && lr.is_finite());
        self.lr = lr;
    }

    /// Applies one update: `params -= lr * (momentum-averaged grads)`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the construction length.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(
            params.len(),
            self.velocity.len(),
            "parameter length changed"
        );
        assert_eq!(params.len(), grads.len(), "grad length mismatch");
        for i in 0..params.len() {
            self.velocity[i] = self.momentum * self.velocity[i] + grads[i];
            params[i] -= self.lr * self.velocity[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 with gradient 2(x - 3).
    fn quad_grad(x: f64) -> f64 {
        2.0 * (x - 3.0)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(1, 0.1, 0.0);
        let mut x = [0.0];
        for _ in 0..100 {
            let g = [quad_grad(x[0])];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-4, "got {}", x[0]);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |momentum: f64, steps: usize| {
            let mut opt = Sgd::new(1, 0.01, momentum);
            let mut x = [0.0];
            for _ in 0..steps {
                let g = [quad_grad(x[0])];
                opt.step(&mut x, &g);
            }
            (x[0] - 3.0).abs()
        };
        assert!(run(0.9, 60) < run(0.0, 60));
    }

    #[test]
    fn zero_grad_is_a_fixed_point_for_sgd() {
        let mut opt = Sgd::new(2, 0.1, 0.0);
        let mut x = [1.0, -2.0];
        opt.step(&mut x, &[0.0, 0.0]);
        assert_eq!(x, [1.0, -2.0]);
    }

    #[test]
    fn set_lr_changes_step_size() {
        let mut opt = Sgd::new(1, 0.1, 0.0);
        opt.set_lr(0.2);
        assert_eq!(opt.lr(), 0.2);
        let mut x = [0.0];
        opt.step(&mut x, &[1.0]);
        assert!((x[0] + 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn sgd_rejects_zero_lr() {
        Sgd::new(1, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "grad length")]
    fn sgd_rejects_mismatched_grads() {
        Sgd::new(2, 0.1, 0.0).step(&mut [0.0, 0.0], &[1.0]);
    }
}
