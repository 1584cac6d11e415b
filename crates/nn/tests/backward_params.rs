//! `Layer::backward_params` must fill every parameter gradient
//! bit-identically to `Layer::backward`, skip only work whose result
//! nobody reads, and leave models usable for the next forward/backward.

use cdsgd_nn::{models, Dense, Flatten, Layer, Mode, Relu, Sequential, SoftmaxCrossEntropy};
use cdsgd_tensor::{SmallRng64, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The three zoo shapes the trainer runs: an MLP behind a `Flatten`
/// (a `Sequential` nested in a `Sequential`), LeNet-5 and ResNet-8.
/// Each entry builds the model from a seed and gives its input shape.
type Build = fn(&mut SmallRng64) -> Sequential;
const MODELS: [(&str, Build, [usize; 4]); 3] = [
    (
        "mlp",
        |rng| {
            Sequential::new()
                .push(Flatten::new())
                .push(models::mlp(&[64, 48, 32, 10], rng))
        },
        [4, 1, 8, 8],
    ),
    ("lenet5", |rng| models::lenet5(10, rng), [2, 1, 28, 28]),
    (
        "resnet8",
        |rng| models::resnet_cifar(8, 1, 10, rng),
        [2, 3, 32, 32],
    ),
];

/// Loss gradient of `model` on one batch drawn from `seed`.
fn dlogits(model: &mut Sequential, shape: &[usize], seed: u64) -> (Tensor, Tensor) {
    let mut rng = SmallRng64::new(seed);
    let x = Tensor::randn(shape, 1.0, &mut rng);
    let labels: Vec<usize> = (0..shape[0])
        .map(|i| (i * 7 + seed as usize) % 10)
        .collect();
    let logits = model.forward(&x, Mode::Train);
    let (_, d) = SoftmaxCrossEntropy.loss_and_grad(&logits, &labels);
    (x, d)
}

fn grad_bits(model: &mut Sequential) -> Vec<Vec<u32>> {
    model
        .export_grads()
        .iter()
        .map(|g| g.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Poison every gradient, so a parameter `backward_params` forgets to
/// write cannot pass by keeping an equal stale value.
fn poison_grads(model: &mut Sequential) {
    model.visit_params(&mut |p| p.grad.data_mut().fill(f32::NAN));
}

#[test]
fn param_grads_match_backward_bit_for_bit() {
    for (name, build, shape) in MODELS {
        let mut full = build(&mut SmallRng64::new(11));
        let mut lean = build(&mut SmallRng64::new(11));
        let (_, d_full) = dlogits(&mut full, &shape, 5);
        let (_, d_lean) = dlogits(&mut lean, &shape, 5);
        full.backward(&d_full);
        poison_grads(&mut lean);
        lean.backward_params(&d_lean);
        let (want, got) = (grad_bits(&mut full), grad_bits(&mut lean));
        assert_eq!(want.len(), got.len(), "{name}: key count");
        for (key, (w, g)) in want.iter().zip(&got).enumerate() {
            assert!(w == g, "{name}: param {key} gradient differs");
        }
    }
}

#[test]
fn backward_params_then_full_step_has_no_stale_cache() {
    for (name, build, shape) in MODELS {
        let mut model = build(&mut SmallRng64::new(3));
        let (_, d) = dlogits(&mut model, &shape, 1);
        model.backward_params(&d);
        // Second step on another batch, the full backward this time: every
        // layer must see only its own fresh forward cache.
        let (x, d) = dlogits(&mut model, &shape, 2);
        let dx = model.backward(&d);
        assert_eq!(dx.shape(), x.shape(), "{name}: input gradient shape");

        // Same weights, same batch, fresh model: identical gradients.
        let mut fresh = build(&mut SmallRng64::new(3));
        let (_, d) = dlogits(&mut fresh, &shape, 2);
        fresh.backward(&d);
        assert!(
            grad_bits(&mut model) == grad_bits(&mut fresh),
            "{name}: gradients after a backward_params step differ from a fresh model's"
        );
    }
}

/// A parameter-free layer that counts its `backward` calls.
struct Probe(Arc<AtomicUsize>);

impl Layer for Probe {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        x.clone()
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.0.fetch_add(1, Ordering::SeqCst);
        dy.clone()
    }
    fn name(&self) -> &'static str {
        "probe"
    }
}

#[test]
fn params_free_sequential_is_a_no_op() {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut model = Sequential::new()
        .push(Probe(calls.clone()))
        .push(Relu::new())
        .push(Probe(calls.clone()));
    let x = Tensor::randn(&[3, 5], 1.0, &mut SmallRng64::new(0));
    let y = model.forward(&x, Mode::Train);
    model.backward_params(&y);
    assert_eq!(calls.load(Ordering::SeqCst), 0);
    // Nothing was consumed: the full backward still runs.
    assert_eq!(model.backward(&y).shape(), x.shape());
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}

#[test]
fn layers_in_front_of_the_first_parameter_layer_are_skipped() {
    let (front, back) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let mut rng = SmallRng64::new(1);
    let mut model = Sequential::new()
        .push(Probe(front.clone()))
        .push(Dense::new(5, 4, &mut rng))
        .push(Probe(back.clone()));
    let y = model.forward(&Tensor::randn(&[3, 5], 1.0, &mut rng), Mode::Train);
    model.backward_params(&y);
    assert_eq!(back.load(Ordering::SeqCst), 1);
    assert_eq!(front.load(Ordering::SeqCst), 0);
}
