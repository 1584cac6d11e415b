//! Benchmark-side timing of each layer's public functions at a
//! workload's sizes: model layers, the conv GEMM, the codec, wire
//! encode/decode, TCP round trips, the PS round trip, the ring
//! all-reduce and epoch data preparation.

use crate::report::{median, Report};
use crate::workload::{Model, Workload, WORKERS};
use cdsgd_compress::{decompress_add, BufferPool, Compressed, GradientCompressor, TwoBitQuantizer};
use cdsgd_net::{
    decode_msg, encode_msg_into, NetConfig, TcpAcceptor, TcpTransport, Transport, WireMsg,
};
use cdsgd_nn::{Layer, Mode, SoftmaxCrossEntropy};
use cdsgd_ps::{build_ring_group, NetCluster, NetError, PsBackend, ServerConfig, WireMode};
use cdsgd_tensor::{kernel, SmallRng64, Tensor};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Median seconds of `f` over `reps` calls, after one untimed call.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    median(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// One training batch of `model`'s data.
fn batch(model: Model, seed: u64) -> (Tensor, Vec<usize>) {
    let b = model
        .data(model.batch(), seed)
        .batches(model.batch())
        .next()
        .expect("one full batch");
    (b.x, b.y)
}

/// `nn.fp_ms.<model>.<idx>-<layer>` / `nn.bp_ms.<model>.<idx>-<layer>`:
/// `Layer::forward` and `Layer::backward` of every layer of both
/// benchmark models on one training batch, so every workload reports the
/// same names.
pub fn nn_layers(report: &mut Report, seed: u64) {
    for model in Model::ALL {
        let mut layers = model.layers(&mut SmallRng64::new(seed));
        let (x, y) = batch(model, seed);
        let reps = match model {
            Model::Resnet8 => 5,
            Model::Mlp => 20,
        };
        let mut fp = vec![Vec::new(); layers.len()];
        let mut bp = vec![Vec::new(); layers.len()];
        for rep in 0..=reps {
            let mut cur = x.clone();
            for (i, l) in layers.iter_mut().enumerate() {
                let t = Instant::now();
                cur = l.forward(&cur, Mode::Train);
                fp[i].push(t.elapsed().as_secs_f64());
            }
            let (_, mut grad) = SoftmaxCrossEntropy.loss_and_grad(&cur, &y);
            for (i, l) in layers.iter_mut().enumerate().rev() {
                let t = Instant::now();
                grad = l.backward(&grad);
                bp[i].push(t.elapsed().as_secs_f64());
            }
            black_box(&grad);
            if rep == 0 {
                // Warm-up pass: drop it.
                fp.iter_mut().chain(bp.iter_mut()).for_each(Vec::clear);
            }
        }
        let m = model.name();
        for (i, l) in layers.iter().enumerate() {
            let name = l.name();
            report.metric(
                format!("nn.fp_ms.{m}.{i}-{name}"),
                1e3 * median(fp[i].clone()),
                "ms",
            );
            report.metric(
                format!("nn.bp_ms.{m}.{i}-{name}"),
                1e3 * median(bp[i].clone()),
                "ms",
            );
        }
    }
}

/// `tensor.gemm_gflops.conv`: the im2col GEMM of one sample's 3×3 conv
/// at each of ResNet-8's three stages (`W[F, C·9] · col[C·9, OH·OW]`).
pub fn gemm(report: &mut Report, seed: u64) {
    const SHAPES: [(usize, usize, usize); 3] = [(8, 72, 1024), (16, 144, 256), (32, 288, 64)];
    let mut rng = SmallRng64::new(seed);
    let ops: Vec<_> = SHAPES
        .iter()
        .map(|&(m, k, n)| {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng).data().to_vec();
            let b = Tensor::randn(&[k, n], 1.0, &mut rng).data().to_vec();
            (m, k, n, a, b, vec![0.0f32; m * n])
        })
        .collect();
    let flops: f64 = SHAPES
        .iter()
        .map(|&(m, k, n)| 2.0 * (m * k * n) as f64)
        .sum();
    let mut ops = ops;
    let per_pass = time_median(50, || {
        for (m, k, n, a, b, c) in ops.iter_mut() {
            kernel::gemm(black_box(a), black_box(b), c, *m, *k, *n);
            black_box(&c);
        }
    });
    report.metric("tensor.gemm_gflops.conv", flops / per_pass / 1e9, "GFLOP/s");
}

/// Gradients of `model` at its initial weights on `batches` batches.
pub fn gradients(model: Model, seed: u64, batches: usize) -> Vec<Vec<Vec<f32>>> {
    let mut net = model.build(&mut SmallRng64::new(seed));
    let data = model.data(batches * model.batch(), seed);
    data.batches(model.batch())
        .map(|b| {
            let logits = net.forward(&b.x, Mode::Train);
            let (_, d) = SoftmaxCrossEntropy.loss_and_grad(&logits, &b.y);
            net.zero_grads();
            net.backward(&d);
            net.export_grads()
        })
        .collect()
}

/// The payloads one worker pushes per step: 2-bit for the compressing
/// algorithms, raw for the ring.
fn step_payloads(w: &Workload, grads: &[Vec<f32>]) -> Vec<Compressed> {
    if w.algo.uses_compression() {
        let mut q = TwoBitQuantizer::new(w.threshold());
        grads
            .iter()
            .enumerate()
            .map(|(k, g)| q.compress(k, g))
            .collect()
    } else {
        grads.iter().map(|g| Compressed::Raw(g.clone())).collect()
    }
}

/// `compress.*`: the workload's 2-bit codec on its model's gradients — encode and decode cost per element, and the share of
/// encoded elements that are non-zero symbols as the residual builds up
/// over consecutive steps.
pub fn codec(report: &mut Report, w: &Workload, grads: &[Vec<Vec<f32>>]) {
    let elems: usize = grads[0].iter().map(Vec::len).sum();
    let pool = BufferPool::new();
    let mut q = TwoBitQuantizer::new(w.threshold());
    let mut payloads = Vec::new();
    let mut nonzero = 0usize;
    let mut acc: Vec<Vec<f32>> = grads[0].iter().map(|g| vec![0.0; g.len()]).collect();
    for step in grads {
        payloads = step
            .iter()
            .enumerate()
            .map(|(k, g)| q.compress_into(k, g, &pool))
            .collect::<Vec<_>>();
        for (c, a) in payloads.iter().zip(acc.iter_mut()) {
            a.fill(0.0);
            decompress_add(c, a);
            nonzero += a.iter().filter(|v| **v != 0.0).count();
        }
    }
    report.metric(
        "compress.nonzero_frac",
        nonzero as f64 / (elems * grads.len()) as f64,
        "frac",
    );
    let encode = time_median(20, || {
        for (k, g) in grads[0].iter().enumerate() {
            q.compress_into(k, g, &pool).recycle(&pool);
        }
    });
    let decode = time_median(20, || {
        for (c, a) in payloads.iter().zip(acc.iter_mut()) {
            decompress_add(c, a);
        }
        black_box(&acc);
    });
    report.metric(
        "compress.encode_ns_per_elem",
        1e9 * encode / elems as f64,
        "ns/elem",
    );
    report.metric(
        "compress.decode_ns_per_elem",
        1e9 * decode / elems as f64,
        "ns/elem",
    );
}

/// `net.encode_ns_per_byte` / `net.decode_ns_per_byte`: one step's push
/// frames and pull-reply frames through the wire codec. Returns the
/// frames' sizes, pushes then pull replies.
pub fn wire(report: &mut Report, w: &Workload, grads: &[Vec<f32>]) -> (Vec<usize>, Vec<usize>) {
    let msgs: Vec<WireMsg> = step_payloads(w, grads)
        .into_iter()
        .enumerate()
        .map(|(k, payload)| WireMsg::Push {
            worker: 0,
            key: k as u32,
            payload,
        })
        .chain(grads.iter().enumerate().map(|(k, g)| WireMsg::PullReply {
            key: k as u32,
            min_version: 1,
            weights: g.clone(),
        }))
        .collect();
    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); msgs.len()];
    let encode = time_median(20, || {
        for (m, f) in msgs.iter().zip(frames.iter_mut()) {
            f.clear();
            encode_msg_into(m, f);
        }
        black_box(&frames);
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let decode = time_median(20, || {
        for f in &frames {
            black_box(decode_msg(f).expect("frames the codec encoded decode"));
        }
    });
    report.metric(
        "net.encode_ns_per_byte",
        1e9 * encode / bytes as f64,
        "ns/B",
    );
    report.metric(
        "net.decode_ns_per_byte",
        1e9 * decode / bytes as f64,
        "ns/B",
    );
    let mut sizes: Vec<usize> = frames.iter().map(Vec::len).collect();
    let pulls = sizes.split_off(grads.len());
    (sizes, pulls)
}

/// Frame kinds of the round-trip probe's echo protocol.
const PUSH: u8 = 0;
const PUSH_LAST: u8 = 1;
const PULL: u8 = 2;
const STOP: u8 = 3;

/// `net.tcp_rtt_us.push` / `.pull`: one step's frames over a localhost
/// `TcpTransport` pair. Push: the step's push frames, then a one-byte
/// ack back. Pull: one small request per key, each answered with a
/// frame of that key's pull-reply size. Returns the bytes per second the
/// pair moved over both round trips.
pub fn tcp_rtt(report: &mut Report, push_sizes: &[usize], pull_sizes: &[usize]) -> f64 {
    let cfg = NetConfig::default();
    let (acceptor, addr) = TcpAcceptor::bind("127.0.0.1:0", cfg.clone()).expect("bind localhost");
    let (push, pull) = std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), NetError> {
            let mut t = acceptor.accept(Duration::from_secs(10))?;
            let (mut buf, mut reply) = (Vec::new(), Vec::new());
            loop {
                t.recv_frame(&mut buf)?;
                match buf[0] {
                    PUSH => {}
                    PUSH_LAST => t.send_frame(&[PUSH_LAST])?,
                    PULL => {
                        let n = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes"));
                        reply.resize(n as usize, PULL);
                        t.send_frame(&reply)?;
                    }
                    _ => return Ok(()),
                }
            }
        });
        let mut t = TcpTransport::connect(addr, &cfg).expect("connect localhost");
        let frames: Vec<Vec<u8>> = push_sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut f = vec![PUSH; n.max(1)];
                if i + 1 == push_sizes.len() {
                    f[0] = PUSH_LAST;
                }
                f
            })
            .collect();
        let mut buf = Vec::new();
        let push = time_median(50, || {
            for f in &frames {
                t.send_frame(f).expect("send push frame");
            }
            t.recv_frame(&mut buf).expect("ack");
        });
        let pull = time_median(50, || {
            for &n in pull_sizes {
                let mut req = vec![PULL];
                req.extend_from_slice(&(n as u32).to_le_bytes());
                t.send_frame(&req).expect("send pull request");
            }
            for _ in pull_sizes {
                t.recv_frame(&mut buf).expect("pull reply");
            }
        });
        t.send_frame(&[STOP]).expect("send stop");
        echo.join()
            .expect("echo thread panicked")
            .expect("echo side of the probe");
        (push, pull)
    });
    report.metric("net.tcp_rtt_us.push", 1e6 * push, "us");
    report.metric("net.tcp_rtt_us.pull", 1e6 * pull, "us");
    let bytes: usize = push_sizes.iter().chain(pull_sizes).sum();
    bytes as f64 / (push + pull)
}

/// `ps.roundtrip_ms`: push one step's payloads to a one-worker TCP shard
/// (`NetCluster::start_tcp_local`) and pull every key at the next version.
pub fn ps_roundtrip(report: &mut Report, w: &Workload, init: Vec<Vec<f32>>, grads: &[Vec<f32>]) {
    let payloads = step_payloads(w, grads);
    let keys = init.len();
    let cluster =
        NetCluster::start_tcp_local(init, ServerConfig::new(1, w.lr), 1, NetConfig::default())
            .expect("start a local TCP shard");
    let client = cluster.client().expect("connect to the local shard");
    let mut version = 0u64;
    let t = time_median(30, || {
        for (k, p) in payloads.iter().enumerate() {
            client.push(0, k, p.clone()).expect("push");
        }
        version += 1;
        black_box(client.pull_all(keys, version).expect("pull"));
    });
    drop(client);
    Box::new(cluster).shutdown();
    report.metric("ps.roundtrip_ms", 1e3 * t, "ms");
}

/// `ps.collective_ms`: one ring `allreduce_mean` over localhost TCP at
/// the MLP's parameter count, timed on rank 0.
pub fn collective(report: &mut Report, seed: u64) {
    let len: usize = Model::Mlp
        .build(&mut SmallRng64::new(seed))
        .param_sizes()
        .iter()
        .sum();
    let group = build_ring_group(WORKERS, WireMode::Tcp).expect("build a TCP ring");
    let barrier = Barrier::new(WORKERS);
    let times = std::thread::scope(|s| {
        let handles: Vec<_> = group
            .members
            .into_iter()
            .map(|mut m| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut data = vec![1.0f32; len];
                    (0..21)
                        .map(|_| {
                            barrier.wait();
                            let t = Instant::now();
                            m.allreduce_mean(&mut data).expect("allreduce");
                            t.elapsed().as_secs_f64()
                        })
                        .skip(1)
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        let mut all: Vec<Vec<f64>> = handles
            .into_iter()
            .map(|h| h.join().expect("ring member panicked"))
            .collect();
        all.swap_remove(0)
    });
    report.metric("ps.collective_ms", 1e3 * median(times), "ms");
}

/// `data.epoch_prep_ms`: one worker's epoch of data handling — copy its
/// shard, shuffle it and cut the batches.
pub fn epoch_prep(report: &mut Report, w: &Workload, seed: u64) {
    let shard = w.model.data(w.train_n, seed).shard(0, WORKERS);
    let mut rng = SmallRng64::new(seed);
    let ipe = w.iters_per_epoch();
    let t = time_median(10, || {
        let mut s = shard.clone();
        s.shuffle(&mut rng);
        for b in s.batches(w.model.batch()).take(ipe) {
            black_box(b);
        }
    });
    report.metric("data.epoch_prep_ms", 1e3 * t, "ms");
}
