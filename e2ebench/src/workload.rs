//! The three benchmark workloads: model, data, algorithm, deployment and
//! accuracy target of each, at full size and at the tiny smoke size.

use cd_sgd::{Algorithm, Codec};
use cdsgd_data::synth::{SynthSpec, TemplateBank};
use cdsgd_data::Dataset;
use cdsgd_nn::{
    BatchNorm2d, Conv2d, Dense, Flatten, GlobalAvgPool, Layer, Relu, ResidualBlock, Sequential,
};
use cdsgd_tensor::SmallRng64;

/// Workers per run: one training thread per core of the 2-core host the
/// benchmark is sized for.
pub const WORKERS: usize = 2;

/// Emulated shared-link bandwidth of `resnet8-cdsgd-link` (the
/// `fig5_real` setting): 5 MiB/s.
pub const LINK_BYTES_PER_S: f64 = 5.0 * 1024.0 * 1024.0;

/// Seed of the synthetic tasks' class templates. The task is fixed; a
/// run's seed draws its samples, initial weights and batch order.
pub const TASK_SEED: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// `models::resnet_cifar(8, 1, 10)` on 3×32×32 input.
    Resnet8,
    /// Flatten + `models::mlp(&[784, 512, 512, 10])` on 1×28×28 input.
    Mlp,
}

impl Model {
    pub const ALL: [Model; 2] = [Model::Resnet8, Model::Mlp];

    /// The model's layers in `Sequential` order, built exactly as the
    /// model zoo builds them (same constructors, same RNG draws), so the
    /// benchmark can time every layer on its own.
    pub fn layers(self, rng: &mut SmallRng64) -> Vec<Box<dyn Layer>> {
        match self {
            Model::Resnet8 => {
                let w = 8;
                vec![
                    Box::new(Conv2d::new(3, w, 3, 1, 1, rng)),
                    Box::new(BatchNorm2d::new(w)),
                    Box::new(Relu::new()),
                    Box::new(ResidualBlock::new(w, w, 1, rng)),
                    Box::new(ResidualBlock::new(w, 2 * w, 2, rng)),
                    Box::new(ResidualBlock::new(2 * w, 4 * w, 2, rng)),
                    Box::new(GlobalAvgPool::new()),
                    Box::new(Dense::new(4 * w, 10, rng)),
                ]
            }
            Model::Mlp => vec![
                Box::new(Flatten::new()),
                Box::new(Dense::new(784, 512, rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(512, 512, rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(512, 10, rng)),
            ],
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Model::Resnet8 => "resnet8",
            Model::Mlp => "mlp",
        }
    }

    pub fn build(self, rng: &mut SmallRng64) -> Sequential {
        self.layers(rng)
            .into_iter()
            .fold(Sequential::new(), Sequential::push_boxed)
    }

    /// `n` samples of the model's synthetic dataset.
    pub fn data(self, n: usize, seed: u64) -> Dataset {
        let spec = match self {
            Model::Resnet8 => SynthSpec::cifar(),
            Model::Mlp => SynthSpec::mnist(),
        };
        TemplateBank::new(spec, TASK_SEED).dataset(n, seed)
    }

    /// Batch size of training and of the per-layer timings.
    pub fn batch(self) -> usize {
        match self {
            Model::Resnet8 => 16,
            Model::Mlp => 32,
        }
    }
}

/// Where the workers' synchronization goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deploy {
    /// In-process parameter server charging every push and pull reply
    /// to one emulated link of [`LINK_BYTES_PER_S`].
    InProcessLink,
    /// One parameter-server shard on a localhost TCP port.
    PsTcp,
    /// Ring all-reduce between the workers over localhost TCP; no server.
    RingTcp,
}

pub struct Workload {
    pub name: &'static str,
    pub model: Model,
    pub algo: Algorithm,
    pub deploy: Deploy,
    pub train_n: usize,
    pub test_n: usize,
    pub epochs: usize,
    pub lr: f32,
    /// Test accuracy the run must reach by its last epoch.
    pub target_acc: f32,
}

pub const NAMES: [&str; 3] = ["resnet8-cdsgd-link", "mlp-bitsgd-tcp", "mlp-ssgd-ring"];

impl Workload {
    /// The workload called `name`; `tiny` shrinks data and epochs to a
    /// smoke size whose target every run meets.
    pub fn by_name(name: &str, tiny: bool) -> Option<Workload> {
        let mut w = match name {
            // Compute-bound: FP+BP outlasts the link, which only CD-SGD's
            // deferred pull hides. Runnable and smoke-tested, but not in
            // BENCHMARK.json: one run trains ~25 s on two cores, too long
            // to take medians over several seeds, and from seed to seed
            // the epoch that meets the target moves and the final loss
            // varies by far more than the 25% a bound may allow.
            "resnet8-cdsgd-link" => Workload {
                name: NAMES[0],
                model: Model::Resnet8,
                algo: Algorithm::cd_sgd(0.01, 0.1, 4, 5),
                deploy: Deploy::InProcessLink,
                train_n: 1024,
                test_n: 256,
                epochs: 5,
                lr: 0.4,
                target_acc: 0.9,
            },
            // Communication- and server-bound: every BIT-SGD step blocks on
            // a pull over the codec, wire, TCP and PS event loop; no conv.
            "mlp-bitsgd-tcp" => Workload {
                name: NAMES[1],
                model: Model::Mlp,
                algo: Algorithm::BitSgd { threshold: 0.5 },
                deploy: Deploy::PsTcp,
                train_n: 2048,
                test_n: 1024,
                epochs: 3,
                lr: 0.05,
                target_acc: 0.85,
            },
            // The same model over peer-to-peer chunk frames: no server, no
            // codec, no event loop. The learning rates put each target's
            // crossing between the first and the last epoch.
            "mlp-ssgd-ring" => Workload {
                name: NAMES[2],
                model: Model::Mlp,
                algo: Algorithm::ArSgd,
                deploy: Deploy::RingTcp,
                train_n: 2048,
                test_n: 1024,
                epochs: 3,
                lr: 0.025,
                target_acc: 0.965,
            },
            _ => return None,
        };
        if tiny {
            // Enough rounds to pass CD-SGD's warm-up into the formal phase.
            let batch = w.model.batch();
            w.train_n = 4 * WORKERS * batch;
            w.test_n = batch;
            w.epochs = 3;
            w.target_acc = 0.0;
        }
        Some(w)
    }

    /// Training iterations each worker runs per epoch.
    pub fn iters_per_epoch(&self) -> usize {
        self.train_n / WORKERS / self.model.batch()
    }

    /// Threshold of the workload's 2-bit codec; the codec probes use the
    /// paper's 0.5 where the algorithm has no codec.
    pub fn threshold(&self) -> f32 {
        match self.algo {
            Algorithm::BitSgd { threshold }
            | Algorithm::CdSgd {
                codec: Codec::TwoBit { threshold },
                ..
            } => threshold,
            _ => 0.5,
        }
    }

    /// Warm-up iterations before the formal phase (CD-SGD only).
    pub fn warmup(&self) -> usize {
        match self.algo {
            Algorithm::CdSgd { warmup, .. } => warmup,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdsgd_nn::models;

    /// The per-layer builds are the zoo's models, weight for weight.
    #[test]
    fn layers_match_the_model_zoo() {
        let zoo = [
            models::resnet_cifar(8, 1, 10, &mut SmallRng64::new(7)),
            Sequential::new()
                .push(Flatten::new())
                .push(models::mlp(&[784, 512, 512, 10], &mut SmallRng64::new(7))),
        ];
        for (model, mut zoo) in Model::ALL.into_iter().zip(zoo) {
            let mut ours = model.build(&mut SmallRng64::new(7));
            assert_eq!(ours.export_params(), zoo.export_params(), "{model:?}");
        }
    }

    #[test]
    fn every_workload_resolves() {
        for name in NAMES {
            for tiny in [false, true] {
                let w = Workload::by_name(name, tiny).expect("known workload");
                assert_eq!(w.name, name);
                assert!(w.iters_per_epoch() > 0);
            }
        }
        assert!(Workload::by_name("nope", false).is_none());
    }
}
